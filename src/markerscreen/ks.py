"""Small-sample screening statistic: kernel CDF vs fitted normal CDF.

For designs too small for the likelihood-ratio statistic (matrix.regime)
each pooled row is tested for departure from normality: a Gaussian-kernel
CDF estimate of the N pooled observations is compared against the normal
CDF fitted to the same observations, and the statistic d is the largest
absolute difference over the observed points. Each row is sorted once and
everything comes from the sorted row; Phi is evaluated once per sample pair
and the kernel CDF summed from pair segments in one explicit order, so d
does not depend on sample order, layout or block size (DECISIONS.md D15).
Because the reference normal's parameters are estimated from the sample,
the p-value comes from Monte-Carlo recalibration: standard-normal samples
of the same size are pushed through the identical pipeline (bandwidth
re-selected, normal re-fitted) and d is ranked against them. Like
Lilliefors' published table, that null depends only on N: one table per
(N, replicates), drawn from a fixed stream, serves every matrix and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from ._rng import substream
from .errors import DegenerateData
from .lr import ScoreTable, _by_row_blocks, _sorted_moments
from .matrix import ExpressionMatrix

DEFAULT_REPLICATES = 10000


@dataclass
class KernelEstimate:
    """Gaussian kernel located at the observed points with one bandwidth."""

    centers: np.ndarray
    bandwidth: float


@dataclass
class KsScore:
    d: float
    bandwidth_used: float


def _sorted_quantile(xs: np.ndarray, q: float) -> np.ndarray:
    """Quantile q of each sorted (m, N) row by the linear (type-7) rule, with
    the interpolation arithmetic of np.percentile's default method."""
    pos = (xs.shape[1] - 1) * q
    lo = int(pos)
    t = pos - lo
    a, b = xs[:, lo], xs[:, lo + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _bandwidth(xs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gaussian-reference bandwidth of each sorted (m, N) row; see select_bandwidth."""
    iqr = _sorted_quantile(xs, 0.75) - _sorted_quantile(xs, 0.25)
    scale = np.where(iqr > 0, np.minimum(s, iqr / 1.349), s)
    return 1.06 * scale * xs.shape[1] ** (-1.0 / 5.0)


def _one_row(x) -> tuple[float, float]:
    """(d, h) of one pooled sample of at least 3 observations."""
    x = np.array(x, dtype=float).reshape(-1, 1)  # sample-major, sorted in place
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    d, h, degenerate = _d_rows(x)
    if degenerate[0]:
        raise DegenerateData("zero sample standard deviation")
    if np.isnan(h[0]):
        raise ValueError("sample standard deviation overflows")
    return float(d[0]), float(h[0])


def select_bandwidth(x) -> float:
    """Gaussian-reference bandwidth minimizing mean integrated squared error.

    h = 1.06 * min(s, IQR/1.349) * N^(-1/5), with s the ddof-1 standard
    deviation. When the IQR collapses to 0 but s > 0, s alone is used.
    """
    return _one_row(x)[1]


def kernel_cdf(est: KernelEstimate, t):
    """CDF of the kernel estimate: mean of Phi((t - x_k)/h) over centers."""
    if not (np.isfinite(est.bandwidth) and est.bandwidth > 0 and np.all(np.isfinite(est.centers))):
        raise ValueError("bandwidth must be positive and finite, and centers finite")
    t = np.asarray(t, dtype=float)
    z = (t[..., None] - est.centers) / est.bandwidth
    return ndtr(z).mean(axis=-1)


def _d_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized statistic for the m rows of a sample-major (N, m) array x,
    sorted in place: (d, h, degenerate) per row, degenerate where the ddof-1
    standard deviation s is 0. d compares the kernel CDF against the normal
    fitted with the MLE variance, at the observed points only.
    lr._by_row_blocks passes blocks of rows_per_block(N^2) rows, which
    bounds their N(N-1)/2 pair terms.

    Everything comes from the sorted x, held as N contiguous columns
    x_0 <= ... <= x_{N-1} (lr._sorted_moments): the moments, the IQR,
    the fitted-normal term and the kernel. Phi is evaluated once per sample pair
    i < k, on z_ik = (x_i - x_k)/h <= 0 (its accurate lower tail), one
    segment of pairs k - i = t at a time. As Phi(-z) = 1 - Phi(z), the
    kernel CDF at x_j is g_j = (j + 1/2 + sum_{k>j} Phi(z_jk) - sum_{i<j}
    Phi(z_ij)) / N, summed from j + 1/2 segment by segment: no (rows, N^2)
    kernel, and d does not depend on sample order, layout or block (D15).
    A row with s = 0 gets d = h = 0; one whose s overflows gets d = h = NaN.
    """
    N = len(x)
    if N < 3:
        raise ValueError("need at least 3 observations")
    mean, ss = _sorted_moments(x)
    dev = x - mean
    s = np.sqrt(ss / (N - 1))
    d = np.where(np.isfinite(s), 0.0, np.nan)
    h = d.copy()
    scored = np.isfinite(s) & (s != 0.0)
    if not scored.all():
        x, dev, ss = x[:, scored], dev[:, scored], ss[scored]
    h[scored] = h_scored = _bandwidth(x.T, s[scored])
    g = np.repeat(np.arange(N) + 0.5, len(ss)).reshape(N, -1)
    for t in range(1, N):  # the pairs (i, i + t)
        phi = x[:N - t] - x[t:]
        phi /= h_scored
        ndtr(phi, out=phi)
        g[:N - t] += phi
        g[t:] -= phi
    # the reference normal is fitted with the MLE scale
    d[scored] = np.abs(g / N - ndtr(dev / np.sqrt(ss / N))).max(axis=0)
    return d, h, s == 0.0


def ks_d_statistic(x) -> KsScore:
    """The statistic d for one pooled sample, with the bandwidth it used."""
    d, h = _one_row(x)
    return KsScore(d=d, bandwidth_used=h)


@lru_cache(maxsize=32)
def _null_table(N: int, replicates: int) -> np.ndarray:
    """Sorted null statistics for sample size N, from a fixed stream.

    Fewer than 1000 replicates would put p-values on too coarse a grid.
    """
    if replicates < 1000:
        raise ValueError("at least 1000 replicates")
    draws = substream(0, f"ks-null:{N}:{replicates}").standard_normal((replicates, N))
    return np.sort(_by_row_blocks(draws, np.arange(N), N * N, lambda x: _d_rows(x)[:1])[0])


def _mc_pvalue(table: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(1 + #{D* >= d}) / (B + 1) against a sorted null table of B draws, d looked up sorted."""
    order = np.argsort(d)
    n_ge = np.empty(len(d))
    n_ge[order] = table.size - np.searchsorted(table, d[order], side="left")
    return (1.0 + n_ge) / (table.size + 1.0)


def lilliefors_pvalue(d: float, N: int, replicates: int = DEFAULT_REPLICATES) -> float:
    """Monte-Carlo p-value of d under the fitted-normal null.

    Simulates `replicates` standard-normal samples of size N >= 3 through the
    full pipeline and returns (1 + #{D* >= d}) / (replicates + 1).
    The null table depends only on (N, replicates) and is cached, so every
    matrix and run of the same N shares one table.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must lie in [0, 1]")
    return float(_mc_pvalue(_null_table(N, replicates), np.array([d]))[0])


def score_matrix_ks(m: ExpressionMatrix, replicates: int = DEFAULT_REPLICATES) -> ScoreTable:
    """Statistic d and Monte-Carlo p-value for every pooled protein row.

    Scores any design with N >= 3; matrix.regime names the statistic a
    design calls for. Degenerate rows get d = 0, p = 1; a row whose standard
    deviation overflows gets d = NaN, which ScoreTable rejects. One shared
    null table serves all proteins (they share N).
    """
    d, degenerate = _by_row_blocks(m.values, np.arange(m.N), m.N**2, lambda x: _d_rows(x)[::2])
    pvals = np.where(degenerate, 1.0, _mc_pvalue(_null_table(m.N, replicates), d))
    return ScoreTable(m.protein_ids, "ks_d", d, pvals, degenerate)
