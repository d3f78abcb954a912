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
        fits = None
        if self.fits is not None and not self.degenerate[j]:
            row = self.fits[j].tolist()
            fits = (MixtureFit(*row[:7], iterations=0, converged=True), PooledFit(*row[7:]))
        return ProteinScore(str(self.ids[j]), self.kind, float(self.value[j]),
                            float(self.p_value[j]), fits)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

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


def _mixture_terms(x, w, mu, s2):
    """Per-component log densities log(w_l N(x | mu_l, s2_l)), shape (S, 2, N),
    for (S, 2) parameter rows, and their log-sum over components, (S, N)."""
    lp = (np.log(w)[:, None] - 0.5 * np.log(2 * np.pi * s2)[..., None]
          - 0.5 * (x - mu[..., None]) ** 2 / s2[..., None])
    return lp, np.logaddexp(lp[:, 0], lp[:, 1])


def fit_mixture_fixed_weights(
    x,
    n1: int,
    n2: int,
    max_iter: int = EM_MAX_ITER,
    debug_monotone: bool = False,
) -> MixtureFit:
    """EM fixed point of the two-component normal mixture with weights n_l/N.

    The start set (decisions ledger D14) runs as rows of one array. Row 0 is
    the pooled single normal, a stationary point of the EM map that never
    iterates and keeps fit_pooled_normal's loglik. Each other start iterates
    until |delta loglik| < EM_TOL, until a component loses all responsibility
    (keeping its last fit) or for max_iter steps. The first row with the
    highest loglik wins, so the fit never falls below the pooled one.
    Non-convergence is reported through converged=False, never raised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 1 or n2 < 1 or n1 + n2 != x.size:
        raise ValueError("n1 and n2 must be positive and sum to len(x)")
    pooled = fit_pooled_normal(x)  # raises DegenerateData on flat rows
    w = np.array([n1, n2]) / x.size
    floor = VARIANCE_FLOOR_REL * pooled.sigma2
    split = _fit_columns(x[None, :], n1)[0]
    sd, var = np.sqrt(pooled.sigma2), [pooled.sigma2] * 2
    # the pooled fit, the condition-split fit, pooled mean +/- one sd, the range
    mu = np.array([[pooled.mu] * 2, split[:2],
                   [pooled.mu - sd, pooled.mu + sd], [x.min(), x.max()]])
    s2 = np.array([var, split[2:4], var, var])
    iterations = np.zeros(len(mu), dtype=int)
    converged = np.arange(len(mu)) == 0
    rows = np.arange(1, len(mu))  # the starts still iterating; lp and lse are theirs
    lp, lse = _mixture_terms(x, w, mu[rows], s2[rows])
    ll = np.append(pooled.loglik, lse.sum(axis=1))  # each row's last fit is in mu, s2, ll
    for it in range(1, max_iter + 1):
        if rows.size == 0:
            break
        iterations[rows] = it
        # E-step in log space; responsibilities r1 + r2 = 1
        r = np.exp(lp - lse[:, None])
        r[:, 1] = 1.0 - r[:, 0]
        t = r.sum(axis=2)
        if (t <= 0).any():  # a component lost all responsibility: its row stops
            kept = ~(t <= 0).any(axis=1)
            rows, r, t = rows[kept], r[kept], t[kept]
        # M-step: weighted means and variances, variances floored
        m = (r * x).sum(axis=2) / t
        v = np.maximum((r * (x - m[..., None]) ** 2).sum(axis=2) / t, floor)
        lp, lse = _mixture_terms(x, w, m, v)
        prev_ll, new_ll = ll[rows], lse.sum(axis=1)
        if debug_monotone:
            assert np.all(new_ll >= prev_ll - 1e-9), "EM log-likelihood decreased"
        mu[rows], s2[rows], ll[rows] = m, v, new_ll
        done = np.abs(new_ll - prev_ll) < EM_TOL
        if done.any():
            converged[rows[done]] = True
            rows, lp, lse = rows[~done], lp[~done], lse[~done]

    best = int(np.argmax(ll))
    return MixtureFit(*mu[best].tolist(), *s2[best].tolist(), *w.tolist(),
                      loglik=float(ll[best]), iterations=int(iterations[best]),
                      converged=bool(converged[best]))


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
