"""Likelihood-ratio scoring of two-condition expression rows.

Each protein row is scored by the deviance of a per-condition normal model
(separate mean and variance for each condition, closed-form maximum
likelihood) against a single pooled normal. Variance estimates use the
maximum-likelihood denominator n, not n-1. The deviance

    dev = max(0, N ln v_pool - n1 ln v_1 - n2 ln v_2)

is asymptotically chi-square with 2 degrees of freedom under the null, so
p = exp(-dev/2) in closed form.

A fixed-weight two-component Gaussian mixture fitted by EM (weights pinned
at n1/N and n2/N by the design, never updated) is also provided. It is the
distributional diagnostic companion of the scorer: it ignores the condition
labels and asks only whether the pooled sample looks bimodal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores of every protein as columns, in matrix row order.

    ids, value, p_value and degenerate are length-p arrays, held read-only.
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
        for name, dtype in (("ids", str), ("value", float), ("p_value", float),
                            ("degenerate", bool)):
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (len(self.ids),):
                raise ValueError(f"{name} needs one entry per protein id")
            column.setflags(write=False)
            object.__setattr__(self, name, column)

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


def _em_candidate_starts(x, n1, pooled):
    s = float(np.sqrt(pooled.sigma2))
    # (a) the condition-split fit, (b) pooled mean +/- one sd, (c) range-anchored
    return [
        tuple(_fit_columns(x[None, :], n1)[0, :4].tolist()),
        (pooled.mu - s, pooled.mu + s, pooled.sigma2, pooled.sigma2),
        (float(np.min(x)), float(np.max(x)), pooled.sigma2, pooled.sigma2),
    ]


def _mixture_loglik(x, w1, w2, mu1, mu2, s21, s22):
    lp1 = np.log(w1) - 0.5 * np.log(2 * np.pi * s21) - 0.5 * (x - mu1) ** 2 / s21
    lp2 = np.log(w2) - 0.5 * np.log(2 * np.pi * s22) - 0.5 * (x - mu2) ** 2 / s22
    return lp1, lp2, float(np.sum(np.logaddexp(lp1, lp2)))


def fit_mixture_fixed_weights(
    x,
    n1: int,
    n2: int,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
    debug_monotone: bool = False,
) -> MixtureFit:
    """EM fixed point of the two-component normal mixture with weights n_l/N.

    Runs the documented multi-start set and returns the best final fit. The
    pooled single normal is itself a stationary point of the EM map and is
    always included as a zero-iteration candidate, which guarantees the
    mixture log-likelihood never falls below the pooled one. Non-convergence
    is reported through converged=False, never raised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 1 or n2 < 1 or n1 + n2 != x.size:
        raise ValueError("n1 and n2 must be positive and sum to len(x)")
    pooled = fit_pooled_normal(x)  # raises DegenerateData on flat rows
    N = x.size
    w1, w2 = n1 / N, n2 / N
    floor = VARIANCE_FLOOR_REL * pooled.sigma2

    best = MixtureFit(
        mu1=pooled.mu, mu2=pooled.mu,
        sigma21=pooled.sigma2, sigma22=pooled.sigma2,
        w1=w1, w2=w2, loglik=pooled.loglik, iterations=0, converged=True,
    )

    for mu1, mu2, s21, s22 in _em_candidate_starts(x, n1, pooled):
        prev_ll = -np.inf
        converged = False
        it = 0
        lp1, lp2, ll = _mixture_loglik(x, w1, w2, mu1, mu2, s21, s22)
        for it in range(1, max_iter + 1):
            # E-step in log space; responsibilities r1 + r2 = 1
            denom = np.logaddexp(lp1, lp2)
            r1 = np.exp(lp1 - denom)
            r2 = 1.0 - r1
            # M-step: weighted means and variances, variances floored
            t1, t2 = np.sum(r1), np.sum(r2)
            if t1 <= 0 or t2 <= 0:
                break  # a component lost all responsibility; keep best-so-far
            mu1 = float(np.sum(r1 * x) / t1)
            mu2 = float(np.sum(r2 * x) / t2)
            s21 = max(float(np.sum(r1 * (x - mu1) ** 2) / t1), floor)
            s22 = max(float(np.sum(r2 * (x - mu2) ** 2) / t2), floor)
            prev_ll = ll
            lp1, lp2, ll = _mixture_loglik(x, w1, w2, mu1, mu2, s21, s22)
            if debug_monotone:
                assert ll >= prev_ll - 1e-9, "EM log-likelihood decreased"
            if abs(ll - prev_ll) < tol:
                converged = True
                break
        if ll > best.loglik:
            best = MixtureFit(
                mu1=mu1, mu2=mu2, sigma21=s21, sigma22=s22,
                w1=w1, w2=w2, loglik=ll, iterations=it, converged=converged,
            )
    return best


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


def deviance_lr(x, n1: int, n2: int, protein_id: str = "P0001") -> ProteinScore:
    """Score one row: per-condition normal fits against the pooled normal.

    x is laid out condition-1-first (first n1 entries, then n2). The value is
    2*(condition-split log-likelihood - pooled log-likelihood), clamped at 0,
    and the p-value is the chi-square(2 df) survival exp(-value/2). The
    attached MixtureFit diagnostic holds the per-condition parameters with
    the design weights; its loglik is the condition-assigned likelihood, so
    value == 2*(MixtureFit.loglik - PooledFit.loglik) exactly.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 2 or n2 < 2:
        raise ValueError("need at least 2 samples per condition")
    if n1 + n2 != x.size:
        raise ValueError("n1 + n2 must equal len(x)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite observations")
    return _score_rows(x[None, :], n1, (protein_id,), diagnostics=True)[0]


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
