"""Small-sample screening statistic: kernel CDF vs fitted normal CDF.

For designs too small for the likelihood-ratio statistic (matrix.regime)
each pooled row is tested for departure from normality: a Gaussian-kernel
CDF estimate of the N pooled observations is compared against the normal
CDF fitted to the same observations, and the statistic d is the largest
absolute difference over the observed points.
Because the reference normal's parameters are estimated from the sample,
the p-value comes from Monte-Carlo recalibration: standard-normal samples
of the same size are pushed through the identical pipeline (bandwidth
re-selected, normal re-fitted) and d is ranked against them. Like
Lilliefors' published table, that null depends only on N: one table per
(N, replicates), drawn from a fixed stream, serves every matrix and run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from ._rng import substream
from .errors import DegenerateData
from .lr import ScoreTable
from .matrix import ExpressionMatrix, regime, rows_per_block

DEFAULT_REPLICATES = 10000


@dataclass
class KernelEstimate:
    """Gaussian kernel located at the observed points with one bandwidth, or
    with an array of bandwidths that broadcasts against centers (_d_rows)."""

    centers: np.ndarray
    bandwidth: float | np.ndarray


@dataclass
class KsScore:
    d: float
    bandwidth_used: float


def _bandwidth(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gaussian-reference bandwidth of each (m, N) row; see select_bandwidth."""
    q75, q25 = np.percentile(rows, [75, 25], axis=1)
    iqr = q75 - q25
    scale = np.where(iqr > 0, np.minimum(s, iqr / 1.349), s)
    return 1.06 * scale * rows.shape[1] ** (-1.0 / 5.0)


def select_bandwidth(x) -> float:
    """Gaussian-reference bandwidth minimizing mean integrated squared error.

    h = 1.06 * min(s, IQR/1.349) * N^(-1/5), with s the ddof-1 standard
    deviation. When the IQR collapses to 0 but s > 0, s alone is used.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    s = x[None, :].std(axis=1, ddof=1)
    if s[0] == 0.0:
        raise DegenerateData("zero sample standard deviation")
    return float(_bandwidth(x[None, :], s)[0])


def kernel_cdf(est: KernelEstimate, t):
    """CDF of the kernel estimate: mean of Phi((t - x_k)/h) over centers."""
    t = np.asarray(t, dtype=float)
    z = (t[..., None] - est.centers) / est.bandwidth
    return ndtr(z).mean(axis=-1)


def _d_rows(rows: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized statistic for (m, N) rows with ddof-1 standard deviations s.
    Caller screens degenerate rows.

    Returns (d, h) per row. d compares the kernel CDF against the normal
    fitted with the MLE variance, evaluated at the observed points only.
    """
    h = _bandwidth(rows, s)
    g = kernel_cdf(KernelEstimate(rows[:, None, :], h[:, None, None]), rows)
    mu = rows.mean(axis=1, keepdims=True)
    sd = rows.std(axis=1, keepdims=True)  # MLE scale for the reference fit
    f = ndtr((rows - mu) / sd)
    return np.abs(g - f).max(axis=1), h


def _d_blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, degenerate) for each (p, N) row, in blocks of rows_per_block(N^2)
    rows so that _d_rows' (rows, N, N) temporaries stay bounded. A row with
    zero standard deviation is degenerate with d = 0; one whose standard
    deviation overflows gets d = NaN. Every step is per row, so the blocks
    give the bits of one call."""
    p, N = rows.shape
    d, degenerate = np.empty(p), np.empty(p, dtype=bool)
    step = rows_per_block(N * N)
    for i in range(0, p, step):
        block = rows[i:i + step]
        sd = block.std(axis=1, ddof=1)
        finite = np.isfinite(sd)
        degenerate[i:i + step] = sd == 0.0
        scored = finite & (sd != 0.0)
        d_block = np.where(finite, 0.0, np.nan)
        if np.any(scored):
            d_block[scored], _ = _d_rows(block[scored], sd[scored])
        d[i:i + step] = d_block
    return d, degenerate


def ks_d_statistic(x) -> KsScore:
    """The statistic d for one pooled sample, with the bandwidth it used."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    s = x[None, :].std(axis=1, ddof=1)
    if s[0] == 0.0:
        raise DegenerateData("zero sample standard deviation")
    d, h = _d_rows(x[None, :], s)
    return KsScore(d=float(d[0]), bandwidth_used=float(h[0]))


@lru_cache(maxsize=32)
def _null_table(N: int, replicates: int) -> np.ndarray:
    """Sorted null statistics for sample size N, from a fixed stream.

    Fewer than 1000 replicates would put p-values on too coarse a grid.
    """
    if replicates < 1000:
        raise ValueError("at least 1000 replicates")
    rng = substream(0, f"ks-null:{N}:{replicates}")
    d, _ = _d_blocks(rng.standard_normal((replicates, N)))
    return np.sort(d)


def _mc_pvalue(table: np.ndarray, d):
    """(1 + #{D* >= d}) / (B + 1) against a sorted null table of B draws."""
    n_ge = table.size - np.searchsorted(table, d, side="left")
    return (1.0 + n_ge) / (table.size + 1.0)


def lilliefors_pvalue(d: float, N: int, replicates: int = DEFAULT_REPLICATES) -> float:
    """Monte-Carlo p-value of d under the fitted-normal null.

    Simulates `replicates` standard-normal samples of size N through the
    full pipeline and returns (1 + #{D* >= d}) / (replicates + 1).
    The null table depends only on (N, replicates) and is cached, so every
    matrix and run of the same N shares one table.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must lie in [0, 1]")
    return float(_mc_pvalue(_null_table(N, replicates), d))


def score_matrix_ks(m: ExpressionMatrix, replicates: int = DEFAULT_REPLICATES) -> ScoreTable:
    """Statistic d and Monte-Carlo p-value for every pooled protein row.

    Intended for designs below the likelihood-ratio regime (matrix.regime);
    larger matrices are allowed but draw a warning since the
    likelihood-ratio statistic is the better tool there. Degenerate rows get
    d = 0, p = 1; a row whose standard deviation overflows gets d = NaN,
    which ScoreTable rejects. One shared null table serves all proteins
    (they share N).
    """
    decision = regime(m.n1, m.n2)
    if decision.stat == "lr":
        warnings.warn(
            f"small-sample KS scoring in the likelihood-ratio regime "
            f"({decision.reason}); the likelihood-ratio statistic is preferred",
            stacklevel=2,
        )
    d, degenerate = _d_blocks(m.values)
    pvals = np.where(degenerate, 1.0, _mc_pvalue(_null_table(m.N, replicates), d))
    return ScoreTable(m.protein_ids, "ks_d", d, pvals, degenerate)
