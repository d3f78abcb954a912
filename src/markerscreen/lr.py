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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from .errors import DegenerateData, RegimeViolation
from .matrix import ExpressionMatrix, regime

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
def _id_column(ids: tuple[str, ...]) -> np.ndarray:
    """Read-only ids array of a tuple, shared by every ScoreTable over it."""
    column = np.array(ids, dtype=str)
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores of every protein as columns, in matrix row order.

    ids, value, p_value and degenerate are length-p arrays, held read-only; a
    NaN value or p-value raises ValueError naming the first such protein.
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
        # Only str tuples share a cached array: equal tuples of other ids, like
        # (1,) and (1.0,), format apart. Each table holds a view of it, which
        # cannot be made writeable again.
        shared = isinstance(self.ids, tuple) and set(map(type, self.ids)) <= {str}
        for name, dtype in (("ids", str), ("value", float), ("p_value", float),
                            ("degenerate", bool)):
            if name == "ids" and shared:
                column = _id_column(self.ids).view()
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

    @cached_property
    def order(self) -> np.ndarray:
        """Row indices by descending value, ties broken by ascending id."""
        return np.lexsort((self.ids, -self.value))


def _normal_loglik(x: np.ndarray, mu, sigma2):
    """Normal log-likelihood of each row of x (last axis) under its mu, sigma2."""
    return (-0.5 * x.shape[-1] * np.log(2.0 * np.pi * sigma2)
            - 0.5 * np.sum((x - np.expand_dims(mu, -1)) ** 2, axis=-1) / sigma2)


def fit_pooled_normal(x) -> PooledFit:
    """Closed-form pooled-normal MLE over all N observations."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    mu = float(np.mean(x))
    sigma2 = float(np.mean((x - mu) ** 2))
    if sigma2 <= 0.0:
        raise DegenerateData("all observations identical, zero pooled variance")
    return PooledFit(mu=mu, sigma2=sigma2, loglik=float(_normal_loglik(x, mu, sigma2)))


def fit_mixture_fixed_weights(
    x,
    n1: int,
    n2: int,
    max_iter: int = EM_MAX_ITER,
    debug_monotone: bool = False,
) -> MixtureFit:
    """EM fixed point of the two-component normal mixture with weights n_l/N.

    The start set (decisions ledger D14) runs as columns of one array. Start 0
    is the pooled single normal, a stationary point of the EM map that never
    iterates and keeps fit_pooled_normal's loglik. Each other start iterates
    until |delta loglik| < EM_TOL, until a component loses all responsibility
    (keeping its last fit) or for max_iter steps. The first start with the
    highest loglik wins, so the fit never falls below the pooled one.
    Non-convergence is reported through converged=False, never raised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 1 or n2 < 1 or n1 + n2 != x.size:
        raise ValueError("n1 and n2 must be positive and sum to len(x)")
    pooled = fit_pooled_normal(x)  # raises DegenerateData on flat rows
    w = np.array([n1, n2]) / x.size
    log_w = np.log(w)[:, None, None]
    floor = VARIANCE_FLOOR_REL * pooled.sigma2
    sd = np.sqrt(pooled.sigma2)
    var = [pooled.sigma2] * 2
    # one column per start: pooled, condition split, pooled mean +/- one sd, range
    mu = np.array([[pooled.mu] * 2, [x[:n1].mean(), x[n1:].mean()],
                   [pooled.mu - sd, pooled.mu + sd], [x.min(), x.max()]]).T
    s2 = np.array([var, np.maximum([x[:n1].var(), x[n1:].var()], floor), var, var]).T
    ll = np.full(4, pooled.loglik)
    iterations = np.zeros(4, int)
    converged = np.arange(4) == 0

    def stop(starts, m, v, fit_ll, it, conv):
        """Record the last fit of the starts that stop iterating at step it."""
        mu[:, starts] = m
        s2[:, starts] = v
        ll[starts] = fit_ll
        iterations[starts] = it
        converged[starts] = conv

    # the starts still iterating, their fit (m, v), its loglik and (x - m)^2
    rows = np.arange(1, 4)
    m = mu[:, 1:]
    v = s2[:, 1:]
    fit_ll = None
    d2 = (x - m[..., None]) ** 2
    it = 0
    while True:
        # log(w_l N(x | m_l, v_l)), shape (2, S, N), and its log-sum over l
        lp = log_w - 0.5 * np.log(2 * np.pi * v)[..., None] - 0.5 * d2 / v[..., None]
        lse = np.logaddexp(lp[0], lp[1])
        prev_ll = fit_ll
        fit_ll = np.add.reduce(lse, 1)
        if it:
            if debug_monotone:
                assert np.all(fit_ll >= prev_ll - 1e-9), "EM log-likelihood decreased"
            done = np.abs(fit_ll - prev_ll) < EM_TOL
            if np.count_nonzero(done):
                stop(rows[done], m[:, done], v[:, done], fit_ll[done], it, True)
                keep = ~done
                rows, fit_ll, lse = rows[keep], fit_ll[keep], lse[keep]
                m, v, lp = m[:, keep], v[:, keep], lp[:, keep]
        if it >= max_iter or not rows.size:
            break
        it += 1
        r = np.empty((2, rows.size, x.size))  # E-step in log space; r_1 = 1 - r_0
        np.subtract(1.0, np.exp(lp[0] - lse, out=r[0]), out=r[1])
        t = np.add.reduce(r, 2)
        if np.count_nonzero(t <= 0):  # a component lost all responsibility
            lost = np.logical_or.reduce(t <= 0, 0)
            stop(rows[lost], m[:, lost], v[:, lost], fit_ll[lost], it, False)
            keep = ~lost
            rows, fit_ll = rows[keep], fit_ll[keep]
            r, t = r[:, keep], t[:, keep]
        # M-step: weighted means and variances, variances floored
        m = np.add.reduce(r * x, 2) / t
        d2 = (x - m[..., None]) ** 2
        v = np.maximum(np.add.reduce(r * d2, 2) / t, floor)
    stop(rows, m, v, fit_ll, it, False)

    best = int(np.argmax(ll))
    return MixtureFit(*mu[:, best].tolist(), *s2[:, best].tolist(), *w.tolist(),
                      ll[best].item(), iterations[best].item(), converged[best].item())


def _variances(values: np.ndarray, n1: int):
    """Per-row MLE variances (pooled, condition 1, condition 2), each floored
    at VARIANCE_FLOOR_REL x pooled, and the zero-pooled-variance mask."""
    vpool = values.var(axis=1)
    floor = VARIANCE_FLOOR_REL * np.where(vpool > 0, vpool, 1.0)
    return (np.maximum(vpool, floor), np.maximum(values[:, :n1].var(axis=1), floor),
            np.maximum(values[:, n1:].var(axis=1), floor), vpool == 0.0)


def _deviance_core(values: np.ndarray, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized deviance over rows laid out condition-1-first.

    Returns (deviance, degenerate_mask). Rows with zero pooled variance are
    flagged degenerate and get deviance 0.
    """
    N = values.shape[1]
    vpool, v1, v2, degenerate = _variances(values, n1)
    dev = N * np.log(vpool) - n1 * np.log(v1) - (N - n1) * np.log(v2)
    dev = np.maximum(dev, 0.0)
    dev[degenerate] = 0.0
    return dev, degenerate


def _fit_columns(values: np.ndarray, n1: int) -> np.ndarray:
    """ScoreTable.fits for rows laid out condition-1-first: the condition-split
    fit with design weights, whose loglik is the condition-assigned
    likelihood, and the pooled fit. Degenerate rows carry placeholders."""
    p, N = values.shape
    vpool, v1, v2, _ = _variances(values, n1)
    x1, x2 = values[:, :n1], values[:, n1:]
    m1, m2, mu = x1.mean(axis=1), x2.mean(axis=1), values.mean(axis=1)
    split_ll = _normal_loglik(x1, m1, v1) + _normal_loglik(x2, m2, v2)
    return np.column_stack([m1, m2, v1, v2, np.full(p, n1 / N), np.full(p, (N - n1) / N),
                            split_ll, mu, vpool, _normal_loglik(values, mu, vpool)])


def _score_rows(values: np.ndarray, n1: int, ids, diagnostics: bool) -> ScoreTable:
    dev, degen = _deviance_core(values, n1)
    pvals = np.exp(-dev / 2.0)
    pvals[degen] = 1.0
    fits = _fit_columns(values, n1) if diagnostics else None
    return ScoreTable(ids, "deviance_lr", dev, pvals, degen, fits)


def deviance_lr(x, n1: int, n2: int) -> ProteinScore:
    """Score one row: per-condition normal fits against the pooled normal.

    x is laid out condition-1-first (first n1 entries, then n2). The value is
    2*(condition-split log-likelihood - pooled log-likelihood), clamped at 0,
    and the p-value is the chi-square(2 df) survival exp(-value/2). The
    attached MixtureFit diagnostic holds the per-condition parameters with
    the design weights; its loglik is the condition-assigned likelihood, so
    value == 2*(MixtureFit.loglik - PooledFit.loglik) exactly. The row is
    named P0001.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 2 or n2 < 2:
        raise ValueError("need at least 2 samples per condition")
    if n1 + n2 != x.size:
        raise ValueError("n1 + n2 must equal len(x)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    return _score_rows(x[None, :], n1, ("P0001",), diagnostics=True)[0]


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
    mask1, mask2 = m.condition_masks()
    ordered = np.concatenate([m.values[:, mask1], m.values[:, mask2]], axis=1)
    return _score_rows(ordered, m.n1, m.protein_ids, diagnostics)
