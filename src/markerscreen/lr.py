"""Likelihood-ratio scoring of two-condition expression rows.

Each protein row is scored by the deviance of a per-condition normal model
(separate mean and variance for each condition, closed-form maximum
likelihood) against a single pooled normal. Variance estimates use the
maximum-likelihood denominator n, not n-1. The deviance

    dev = max(0, N ln v_pool - n1 ln v_1 - n2 ln v_2)

is asymptotically chi-square with 2 degrees of freedom under the null, so
p = exp(-dev/2) in closed form.

A fixed-weight two-component Gaussian mixture fitted by EM from a batch of
starts (weights pinned at n1/N and n2/N, never updated) is also provided. It
is the distributional diagnostic companion of the scorer: it ignores the
condition labels and asks only whether the pooled sample looks bimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import DegenerateData, RegimeViolation
from .matrix import ExpressionMatrix, regime, rows_per_block

# Variances below 1e-8 x (pooled variance) are clamped. A row is degenerate
# (carries no information) only when its pooled variance is exactly zero.
VARIANCE_FLOOR_REL = 1e-8

EM_TOL = 1e-8
EM_MAX_ITER = 500


@dataclass
class PooledFit:
    """Single-normal fit of all N samples. sigma2 uses the MLE denominator."""

    mu: float
    sigma2: float
    loglik: float


@dataclass
class MixtureFit:
    """Two-normal fit with mixing weights fixed at the design proportions.

    loglik is the log-likelihood the fit maximizes: the observed-data
    mixture likelihood when produced by fit_mixture_fixed_weights, the
    complete-data (condition-assigned) likelihood when produced as the
    diagnostic attached to a deviance score.
    """

    mu1: float
    mu2: float
    sigma21: float
    sigma22: float
    w1: float
    w2: float
    loglik: float
    iterations: int
    converged: bool


@dataclass
class ProteinScore:
    protein_id: str
    statistic_kind: str  # "deviance_lr", "ks_d" or "welch_t"
    value: float
    p_value: float
    fit_diagnostics: tuple[MixtureFit, PooledFit] | None = None


@lru_cache(maxsize=8)
def _id_column(ids: tuple) -> np.ndarray | None:
    """Read-only ids array of a tuple of str, shared by every ScoreTable over
    it, or None for a tuple holding anything else: equal tuples of other ids,
    like (1,) and (1.0,), format apart. The check runs once per tuple."""
    if not set(map(type, ids)) <= {str}:
        return None
    column = np.array(ids, dtype=str)
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores of every protein as columns, in matrix row order.

    ids, value, p_value and degenerate are length-p arrays, held read-only; a
    NaN value or p-value raises ValueError naming the first such protein.
    Tables over one tuple of str ids share one ids array, converted and
    checked once per tuple. A table holds no ranking: select.py ranks the
    rows a selection can return or show (DECISIONS.md D17).
    fits, set only by lr scoring with diagnostics, is a (p, 10) array of
    per-row fits with columns mu1, mu2, sigma21, sigma22, w1, w2, split
    loglik, pooled mu, pooled sigma2, pooled loglik. len(), table[j] and
    iteration give ProteinScore row views.
    """

    ids: np.ndarray
    kind: str
    value: np.ndarray
    p_value: np.ndarray
    degenerate: np.ndarray
    fits: np.ndarray | None = None

    def __post_init__(self):
        # Each table holds a view of a shared ids array, which cannot be made
        # writeable again. A tuple with an unhashable id goes the other way,
        # to fail its shape check.
        try:
            shared = _id_column(self.ids) if isinstance(self.ids, tuple) else None
        except TypeError:
            shared = None
        for name, dtype in (("ids", str), ("value", float), ("p_value", float),
                            ("degenerate", bool)):
            if name == "ids" and shared is not None:
                column = shared.view()
            else:
                column = np.array(getattr(self, name), dtype=dtype)
                column.setflags(write=False)
            if column.shape != (len(self.ids),):
                raise ValueError(f"{name} needs one entry per protein id")
            object.__setattr__(self, name, column)
        nan = np.isnan(self.value) | np.isnan(self.p_value)
        if nan.any():
            raise ValueError(f"protein '{self.ids[nan.argmax()]}' scored NaN (values too large?)")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, j: int) -> ProteinScore:
        return next(self._views([j]))

    def __iter__(self):
        return self._views(slice(None))

    def _views(self, rows):
        """Row views of the rows an index list or slice picks."""
        columns = [a[rows].tolist() for a in (self.ids, self.value, self.p_value, self.degenerate)]
        fits = repeat(None) if self.fits is None else self.fits[rows].tolist()
        return (ProteinScore(pid, self.kind, value, p, None if fit is None or degenerate else (
                    MixtureFit(*fit[:7], iterations=0, converged=True), PooledFit(*fit[7:])))
                for pid, value, p, degenerate, fit in zip(*columns, fits))


def _normal_loglik(n: int, ss, sigma2):
    """Normal log-likelihood of n points whose squared deviations from the
    mean sum to ss, under variance sigma2."""
    return -0.5 * n * np.log(2.0 * np.pi * sigma2) - 0.5 * ss / sigma2


def fit_pooled_normal(x) -> PooledFit:
    """Closed-form pooled-normal MLE over all N observations.

    Raises ValueError on non-finite observations and on finite ones whose
    sum of squared deviations overflows (or whose sum does), as the scorers
    do, and DegenerateData when all observations are equal.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if not np.isfinite(x).all():
        raise ValueError("non-finite observations")
    mu = float(np.add.reduce(x) / x.size)
    ss = np.add.reduce(np.square(x - mu))
    sigma2 = float(ss / x.size)
    if sigma2 <= 0.0:
        raise DegenerateData("all observations identical, zero pooled variance")
    if not math.isfinite(sigma2):
        raise ValueError("pooled variance overflows")
    return PooledFit(mu=mu, sigma2=sigma2, loglik=float(_normal_loglik(x.size, ss, sigma2)))


def fit_mixture_fixed_weights(
    x,
    n1: int,
    n2: int,
    max_iter: int = EM_MAX_ITER,
    debug_monotone: bool = False,
) -> MixtureFit:
    """EM fixed point of the two-component normal mixture with weights n_l/N.

    Start 0 of the start set (decisions ledger D14) is the pooled normal, a
    stationary point of the EM map that keeps fit_pooled_normal's loglik.
    Each other start iterates until |delta loglik| < EM_TOL, until a
    component loses all responsibility (keeping its last fit) or for
    max_iter steps. The first start with the highest loglik wins, a NaN
    loglik counting as -inf, so the fit never falls below the pooled one.
    The S starts still iterating are the columns of (2, S, 1) arrays. At no
    more than 2 x 3 x N numbers, numpy's price per call outweighs the
    arithmetic: constants are 0-d arrays, and the stop tests and the
    write-back run on Python lists.
    Non-convergence is reported through converged=False, never raised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 1 or n2 < 1 or n1 + n2 != x.size:
        raise ValueError("n1 and n2 must be positive and sum to len(x)")
    pooled = fit_pooled_normal(x)  # raises DegenerateData on flat rows
    mu, var = pooled.mu, pooled.sigma2
    w = [n1 / x.size, n2 / x.size]
    half, one, two_pi, floor = map(np.array, (0.5, 1.0, 2 * np.pi, VARIANCE_FLOOR_REL * var))
    x1, x2 = x[:n1], x[n1:]
    m1, m2 = np.add.reduce(x1) / n1, np.add.reduce(x2) / n2
    v1, v2 = np.add.reduce(np.square(x1 - m1)) / n1, np.add.reduce(np.square(x2 - m2)) / n2
    sd = np.sqrt(var)
    # one column per start: condition split, pooled mean -/+ one sd, range;
    # the floor leaves the pooled variance as it is
    m = np.array([[m1, mu - sd, x.min()], [m2, mu + sd, x.max()]]).reshape(2, 3, 1)
    v = np.maximum([[v1, var, var], [v2, var, var]], floor).reshape(2, 3, 1)
    fits = {0: (mu, mu, var, var, pooled.loglik, 0, True)}

    def stop(live, stops, m, v, ll, it, converged):
        """Record the fits of the starts flagged in stops; return the others."""
        rows = zip(live, *m[..., 0].tolist(), *v[..., 0].tolist(), ll, stops)
        fits.update((start, (*fit, it, converged)) for start, *fit, s in rows if s)
        keep = [k for k, s in enumerate(stops) if not s]
        return keep, [live[k] for k in keep], [ll[k] for k in keep]

    # the live starts, log w and x per start, the fit (m, v), its loglik, (x - m)^2
    live = [1, 2, 3]
    lw = np.log(w).repeat(3).reshape(2, 3, 1)
    xs = x[None].repeat(6, 0).reshape(2, 3, x.size)
    ll = None
    d2 = np.square(x - m)
    it = 0
    while True:
        # log(w_l N(x | m_l, v_l)), shape (2, S, N), and its log-sum over l
        lp = lw - half * np.log(two_pi * v) - half * d2 / v
        lse = np.logaddexp(lp[0], lp[1])
        prev, ll = ll, np.add.reduce(lse, 1).tolist()
        if it:
            if debug_monotone:
                assert all(a >= b - 1e-9 for a, b in zip(ll, prev)), "EM log-likelihood decreased"
            done = [abs(a - b) < EM_TOL for a, b in zip(ll, prev)]
            if any(done):
                keep, live, ll = stop(live, done, m, v, ll, it, True)
                lw, xs, m, v, lp = (a[:, keep] for a in (lw, xs, m, v, lp))
                lse = lse[keep]
        if it >= max_iter or not live:
            break
        it += 1
        # E-step in log space, r_1 = 1 - r_0; r and r x are summed in one call
        rx = np.empty((2, 2, len(live), x.size))
        r = rx[0]
        np.subtract(one, np.exp(lp[0] - lse, out=r[0]), out=r[1])
        np.multiply(r, xs, out=rx[1])
        sums = np.add.reduce(rx, 3, keepdims=True)
        t, sx = sums[0], sums[1]
        lost = [t0 <= 0 or t1 <= 0 for t0, t1 in zip(*t[..., 0].tolist())]
        if any(lost):  # a component lost all responsibility
            keep, live, ll = stop(live, lost, m, v, ll, it, False)
            lw, xs, r, t, sx = (a[:, keep] for a in (lw, xs, r, t, sx))
        # M-step: weighted means and variances, variances floored
        m = sx / t
        d2 = np.square(x - m)
        v = np.maximum(np.add.reduce(r * d2, 2, keepdims=True) / t, floor)
    stop(live, [True] * len(live), m, v, ll, it, False)
    best = max(map(fits.get, range(4)), key=lambda fit: fit[4] if fit[4] == fit[4] else -np.inf)
    return MixtureFit(*best[:4], *w, *best[4:])


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D x, added column by column onto 0.0 as numpy reduces
    a column-major matrix. A row's sum then has the same bits whatever the
    layout, block or row count; numpy sums a lone contiguous row pairwise."""
    total = x[:, 0] + 0.0
    for k in range(1, x.shape[1]):
        total += x[:, k]
    return total


def _moments(values: np.ndarray, n1: int):
    """(mean, sum of squared deviations, MLE variance) per row of the pooled
    row and of each condition, for rows laid out condition-1-first, with the
    variances floored at VARIANCE_FLOOR_REL x pooled; and the
    zero-pooled-variance mask."""
    parts = []
    for x in (values, values[:, :n1], values[:, n1:]):
        mean = _row_sums(x) / x.shape[1]
        ss = _row_sums((x - mean[:, None]) ** 2)
        parts.append((mean, ss, ss / x.shape[1]))
    vpool = parts[0][2]
    floor = VARIANCE_FLOOR_REL * np.where(vpool > 0, vpool, 1.0)
    return [(mean, ss, np.maximum(v, floor)) for mean, ss, v in parts], vpool == 0.0


def _deviance_core(values: np.ndarray, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized deviance over rows laid out condition-1-first.

    Returns (deviance, degenerate_mask). Rows with zero pooled variance are
    flagged degenerate and get deviance 0.
    """
    N = values.shape[1]
    ((_, _, vpool), (_, _, v1), (_, _, v2)), degenerate = _moments(values, n1)
    dev = N * np.log(vpool) - n1 * np.log(v1) - (N - n1) * np.log(v2)
    dev = np.maximum(dev, 0.0)
    dev[degenerate] = 0.0
    return dev, degenerate


def _fit_columns(values: np.ndarray, n1: int) -> np.ndarray:
    """ScoreTable.fits for rows laid out condition-1-first: the condition-split
    fit with design weights, whose loglik is the condition-assigned
    likelihood, and the pooled fit. Degenerate rows carry placeholders."""
    p, N = values.shape
    ((mu, ss, vpool), (m1, ss1, v1), (m2, ss2, v2)), _ = _moments(values, n1)
    split_ll = _normal_loglik(n1, ss1, v1) + _normal_loglik(N - n1, ss2, v2)
    return np.column_stack([m1, m2, v1, v2, np.full(p, n1 / N), np.full(p, (N - n1) / N),
                            split_ll, mu, vpool, _normal_loglik(N, ss, vpool)])


def _score_rows(values: np.ndarray, cols: np.ndarray, n1: int, ids,
                diagnostics: bool) -> ScoreTable:
    """Scores of the rows of values with their columns taken in the order
    cols, which puts condition 1 first; reordered and scored in row blocks."""
    p = values.shape[0]
    dev, degen = np.empty(p), np.empty(p, dtype=bool)
    fits = np.empty((p, 10)) if diagnostics else None
    step = rows_per_block(len(cols))
    for i in range(0, p, step):
        block = values[i:i + step][:, cols]
        dev[i:i + step], degen[i:i + step] = _deviance_core(block, n1)
        if diagnostics:
            fits[i:i + step] = _fit_columns(block, n1)
    pvals = np.exp(-dev / 2.0)
    pvals[degen] = 1.0
    return ScoreTable(ids, "deviance_lr", dev, pvals, degen, fits)


def deviance_lr(x, n1: int, n2: int) -> ProteinScore:
    """Score one row: per-condition normal fits against the pooled normal.

    x is laid out condition-1-first (first n1 entries, then n2). The value is
    2*(condition-split log-likelihood - pooled log-likelihood), clamped at 0,
    and the p-value is the chi-square(2 df) survival exp(-value/2). The
    attached MixtureFit diagnostic holds the per-condition parameters with
    the design weights; its loglik is the condition-assigned likelihood, so
    value equals 2*(MixtureFit.loglik - PooledFit.loglik) up to rounding.
    The row is named P0001.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 2 or n2 < 2:
        raise ValueError("need at least 2 samples per condition")
    if n1 + n2 != x.size:
        raise ValueError("n1 + n2 must equal len(x)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    return _score_rows(x[None, :], np.arange(x.size), n1, ("P0001",), diagnostics=True)[0]


def score_matrix_lr(m: ExpressionMatrix, diagnostics: bool = False) -> ScoreTable:
    """Deviance scores for every protein row, order preserved.

    Designs outside the statistic's regime (see matrix.regime) raise
    RegimeViolation. diagnostics=True attaches the per-row fits of
    deviance_lr. Pure function of the matrix.
    """
    decision = regime(m.n1, m.n2)
    if decision.stat != "lr":
        raise RegimeViolation(
            f"likelihood-ratio scoring is outside its regime "
            f"(n1={m.n1}, n2={m.n2}: {decision.reason}); use ks"
        )
    cols = np.argsort(m.layout, kind="stable")  # condition 1 first, each in matrix order
    return _score_rows(m.values, cols, m.n1, m.protein_ids, diagnostics)
