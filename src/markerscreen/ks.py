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

from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from ._rng import substream
from .lr import _by_row_blocks, _sorted_moments

DEFAULT_REPLICATES = 10000


def _sorted_quantile(xs: np.ndarray, q: float) -> np.ndarray:
    """Quantile q of each sorted (m, N) row by the linear (type-7) rule, with
    the interpolation arithmetic of np.percentile's default method."""
    pos = (xs.shape[1] - 1) * q
    lo = int(pos)
    t = pos - lo
    a, b = xs[:, lo], xs[:, lo + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _bandwidth(xs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gaussian-reference bandwidth of each sorted (m, N) row with ddof-1
    standard deviation s, minimizing mean integrated squared error:
    h = 1.06 * min(s, IQR/1.349) * N^(-1/5), or s alone where the IQR is 0."""
    iqr = _sorted_quantile(xs, 0.75) - _sorted_quantile(xs, 0.25)
    scale = np.where(iqr > 0, np.minimum(s, iqr / 1.349), s)
    return 1.06 * scale * xs.shape[1] ** (-1.0 / 5.0)


def _d_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized statistic for the m rows of a sample-major (N, m) array x,
    sorted in place: (d, h, degenerate) per row, degenerate where the ddof-1
    standard deviation s is 0. d compares the kernel CDF against the normal
    fitted with the MLE variance, at the observed points only.
    lr._by_row_blocks passes blocks of rows_per_block(N^2) rows: the N^2
    width sets bench's group size (D24) and bounds the block's three
    (N, rows) arrays, x, g and one scratch array that every pair segment
    and the fitted-normal term are computed in.

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
    s = np.sqrt(ss / (N - 1))
    d = np.where(np.isfinite(s), 0.0, np.nan)
    h = d.copy()
    scored = np.isfinite(s) & (s != 0.0)
    if not scored.all():  # compress keeps x C-ordered, as x[:, scored] would not
        x, mean, ss = x.compress(scored, axis=1), mean[scored], ss[scored]
    h[scored] = h_scored = _bandwidth(x.T, s[scored])
    g = np.repeat(np.arange(N) + 0.5, len(ss)).reshape(N, -1)
    phi = np.empty_like(g)
    for t in range(1, N):  # the pairs (i, i + t)
        pair = np.subtract(x[:N - t], x[t:], out=phi[:N - t])
        pair /= h_scored
        ndtr(pair, out=pair)
        g[:N - t] += pair
        g[t:] -= pair
    # the reference normal is fitted with the MLE scale
    np.subtract(x, mean, out=phi)
    phi /= np.sqrt(ss / N)
    g /= N
    g -= ndtr(phi, out=phi)
    d[scored] = np.abs(g, out=g).max(axis=0)
    return d, h, s == 0.0


@lru_cache(maxsize=32)
def _null_table(N: int, replicates: int) -> np.ndarray:
    """Sorted null statistics of d for sample size N >= 3, from a fixed stream:
    `replicates` standard-normal samples through the full pipeline, the
    fitted-normal null of _mc_pvalue. The table depends only on (N,
    replicates) and is cached, so every matrix and run of the same N shares
    one table. Fewer than 1000 replicates would put p-values on too coarse a grid."""
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


def _ks_columns(values: np.ndarray, replicates: int) -> list:
    """evaluate.score_matrix's ks columns (D24): d, Monte-Carlo p-value, degenerate.

    Scores any design with N >= 3; matrix.regime names the statistic a
    design calls for. Degenerate rows get d = 0, p = 1; a row whose standard
    deviation overflows gets d = NaN, which ScoreTable rejects. One shared
    null table serves all proteins (they share N).
    """
    N = values.shape[1]
    d, degenerate = _by_row_blocks(values, np.arange(N), N * N, lambda x: _d_rows(x)[::2])
    return [d, np.where(degenerate, 1.0, _mc_pvalue(_null_table(N, replicates), d)), degenerate]
