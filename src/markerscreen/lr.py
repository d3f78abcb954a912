"""Likelihood-ratio scoring of two-condition expression rows.

Each protein row is scored by the deviance of a per-condition normal model
(separate mean and variance for each condition, closed-form maximum
likelihood) against a single pooled normal. Variance estimates use the
maximum-likelihood denominator n, not n-1. The deviance

    dev = max(0, N ln v_pool - (n1 ln v_1 + n2 ln v_2))

is asymptotically chi-square with 2 degrees of freedom under the null, so
p = exp(-dev/2) in closed form. Moments are summed over sorted samples and the
condition terms added first, so scores ignore sample order and labels (DECISIONS.md D18).

A fixed-weight two-component Gaussian mixture fitted by EM from a batch of
starts (weights pinned at n1/N and n2/N, never updated) is also provided. It
is the distributional diagnostic companion of the scorer: it ignores the
condition labels and asks only whether the pooled sample looks bimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, RegimeViolation
from .matrix import ExpressionMatrix, _checked_ids, regime, rows_per_block

# Variances below 1e-8 x (pooled variance) are clamped. A row is degenerate
# (carries no information) only when its pooled variance is exactly zero.
VARIANCE_FLOOR_REL = 1e-8

EM_TOL = 1e-8
EM_MAX_ITER = 500
# 0.5, 1 and 2 pi as the 0-d arrays the EM loop computes with
_EM_CONSTANTS = tuple(map(np.array, (0.5, 1.0, 2 * np.pi)))


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

    ids is the scored matrix's tuple of protein ids, held as it is; ids
    given any other way are converted and checked by the rule a matrix's ids
    pass (matrix._checked_ids). value, p_value and degenerate are length-p
    arrays, held read-only: one that already is a read-only array of its
    dtype owning its data is kept as it is, any other is copied. A NaN value
    or p-value raises ValueError naming the first such protein. A table
    holds no ranking: select.py ranks the rows a selection can return or
    show (DECISIONS.md D17). fits, set only by lr scoring with diagnostics,
    is a (p, 10) float array of per-row fits with columns mu1, mu2, sigma21,
    sigma22, w1, w2, split loglik, pooled mu, pooled sigma2, pooled loglik,
    checked and held read-only like the other columns. len(), table[j] and
    iteration give ProteinScore row views, built from one list per column.
    """

    ids: tuple[str, ...]
    kind: str
    value: np.ndarray
    p_value: np.ndarray
    degenerate: np.ndarray
    fits: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", _checked_ids(self.ids))
        for name, dtype in (("value", float), ("p_value", float), ("degenerate", bool)):
            column = _read_only(getattr(self, name), dtype)
            if column.shape != (len(self.ids),):
                raise ValueError(f"{name} needs one entry per protein id")
            object.__setattr__(self, name, column)
        if self.fits is not None:
            fits = _read_only(self.fits, float)
            if fits.shape != (len(self.ids), 10):
                raise ValueError("fits needs one row of 10 per protein id")
            object.__setattr__(self, "fits", fits)
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
        kind = self.kind
        ids = self.ids[rows] if isinstance(rows, slice) else [self.ids[j] for j in rows]
        columns = [ids, self.value[rows].tolist(), self.p_value[rows].tolist()]
        if self.fits is None:
            return (ProteinScore(pid, kind, v, p) for pid, v, p in zip(*columns))
        return (ProteinScore(pid, kind, v, p, None if degen else (
                    MixtureFit(m1, m2, v1, v2, w1, w2, ll, 0, True), PooledFit(mu, vp, llp)))
                for pid, v, p, degen, m1, m2, v1, v2, w1, w2, ll, mu, vp, llp
                in zip(*columns, self.degenerate[rows].tolist(), *self.fits[rows].T.tolist()))


def _read_only(a, dtype) -> np.ndarray:
    """a itself when it is a read-only array of dtype that owns its data (no
    writable base can change it), else a read-only copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


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
    if sigma2 <= 0.0 or x.min() == x.max():
        raise DegenerateData("all observations identical, zero pooled variance")
    if not math.isfinite(sigma2):
        raise ValueError("pooled variance overflows")
    return PooledFit(mu=mu, sigma2=sigma2, loglik=float(_normal_loglik(x.size, ss, sigma2)))


def fit_mixture_fixed_weights(x, n1: int, n2: int) -> MixtureFit:
    """EM fixed point of the two-component normal mixture with weights n_l/N.

    Start 0 of the start set (decisions ledger D14) is the pooled normal, a
    stationary point of the EM map that keeps fit_pooled_normal's loglik.
    Each other start iterates until |delta loglik| < EM_TOL, until a
    component loses all responsibility (keeping its last fit) or for
    EM_MAX_ITER steps. The first start with the highest loglik wins, a NaN
    loglik counting as -inf, so the fit never falls below the pooled one.
    The S starts still iterating are the columns of (2, S, 1) arrays. At no
    more than 2 x 3 x N numbers, numpy's price per call outweighs the
    arithmetic: constants are 0-d arrays, numpy's functions are looked up
    once per call, the E-step writes into one buffer per S, and the stop
    tests and the write-back run on Python lists.
    Non-convergence is reported through converged=False, never raised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if n1 < 1 or n2 < 1 or n1 + n2 != x.size:
        raise ValueError("n1 and n2 must be positive and sum to len(x)")
    pooled = fit_pooled_normal(x)  # raises DegenerateData on flat rows
    mu, var = pooled.mu, pooled.sigma2
    w = [n1 / x.size, n2 / x.size]
    half, one, two_pi = _EM_CONSTANTS
    vmin = VARIANCE_FLOOR_REL * var
    floor = np.array(vmin)
    x1, x2 = x[:n1], x[n1:]
    m1, m2 = float(np.add.reduce(x1)) / n1, float(np.add.reduce(x2)) / n2
    v1 = max(float(np.add.reduce(np.square(x1 - m1))) / n1, vmin)
    v2 = max(float(np.add.reduce(np.square(x2 - m2))) / n2, vmin)
    sd = math.sqrt(var)
    lo, hi = float(np.minimum.reduce(x)), float(np.maximum.reduce(x))
    # one column per start: condition split, pooled mean -/+ one sd, range;
    # the floor leaves the pooled variance as it is
    m = np.array([[m1, mu - sd, lo], [m2, mu + sd, hi]]).reshape(2, 3, 1)
    v = np.array([[v1, var, var], [v2, var, var]]).reshape(2, 3, 1)
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
    # numpy's functions looked up once; the E-step's buffer, remade when starts stop
    log, exp, logaddexp, square, maximum = np.log, np.exp, np.logaddexp, np.square, np.maximum
    subtract, multiply, add_reduce, empty = np.subtract, np.multiply, np.add.reduce, np.empty
    rx = empty((2, 2, 0, 0))
    while True:
        # log(w_l N(x | m_l, v_l)), shape (2, S, N), and its log-sum over l
        lp = lw - half * log(two_pi * v) - half * d2 / v
        lp0 = lp[0]
        lse = logaddexp(lp0, lp[1])
        prev, ll = ll, add_reduce(lse, 1).tolist()
        if it:
            done = [abs(a - b) < EM_TOL for a, b in zip(ll, prev)]
            if True in done:
                keep, live, ll = stop(live, done, m, v, ll, it, True)
                lw, xs, m, v, lp = (a[:, keep] for a in (lw, xs, m, v, lp))
                lp0, lse = lp[0], lse[keep]
        if it >= EM_MAX_ITER or not live:
            break
        it += 1
        # E-step in log space, r_1 = 1 - r_0; r and r x are summed in one call
        if rx.shape[2] != len(live):  # one buffer per number of live starts
            rx = empty((2, 2, len(live), x.size))
            (r, rxs), (r0, r1) = rx, rx[0]
        subtract(one, exp(lp0 - lse, r0), r1)
        multiply(r, xs, rxs)
        sums = add_reduce(rx, 3, keepdims=True)
        t, sx = sums[0], sums[1]
        tl = t.ravel().tolist()
        if True in [a <= 0 for a in tl]:  # a component lost all responsibility
            lost = [t0 <= 0 or t1 <= 0 for t0, t1 in zip(tl[:len(live)], tl[len(live):])]
            keep, live, ll = stop(live, lost, m, v, ll, it, False)
            lw, xs, r, t, sx = (a[:, keep] for a in (lw, xs, r, t, sx))
        # M-step: weighted means and variances, variances floored
        m = sx / t
        d2 = square(x - m)
        v = maximum(add_reduce(r * d2, 2, keepdims=True) / t, floor)
    stop(live, [True] * len(live), m, v, ll, it, False)
    best = max(map(fits.get, range(4)), key=lambda fit: fit[4] if fit[4] == fit[4] else -np.inf)
    return MixtureFit(*best[:4], *w, *best[4:])


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D x, added column by column onto 0.0, so a row's sum has
    the same bits whatever the layout, block or row count."""
    total = x[:, 0] + 0.0
    for k in range(1, x.shape[1]):
        total += x[:, k]
    return total


def _sorted_moments(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, ss) of each column of a 2-D xs that holds one sample per row,
    sorting xs in place into rows x_0 <= ... <= x_{N-1} first: the mean and
    the sum of squared deviations, each added over xs row by row (DECISIONS.md
    D18). ss is exactly 0 on a column whose x_0 equals x_{N-1}. Besides xs,
    only column-sized arrays are made."""
    if len(xs) > 8 or xs.shape[1] < 16 << len(xs):
        xs.sort(axis=0)
    else:  # odd-even transposition: cheaper than numpy's sort call per column on blocks
        # of 16 * 2^N rows or more. minimum and maximum return their second argument
        # on a tie, so a tie is never swapped and the network is stable (±0.0 included)
        for i in (i for k in range(len(xs)) for i in range(k % 2, len(xs) - 1, 2)):
            xs[i], xs[i + 1] = np.minimum(xs[i + 1], xs[i]), np.maximum(xs[i], xs[i + 1])
    mean = _row_sums(xs.T) / len(xs)
    dev = xs[0] - mean
    ss = np.square(dev)  # a square is never -0.0, so no + 0.0 as in _row_sums
    for row in xs[1:]:
        ss += np.square(np.subtract(row, mean, out=dev), out=dev)
    ss[xs[0] == xs[-1]] = 0.0
    return mean, ss


def _by_row_blocks(values: np.ndarray, cols, width: int, core) -> list[np.ndarray]:
    """The columns core computes for the rows of a (p, N) values array, as
    read-only length-p arrays: the one loop by which every scorer walks a
    matrix. Each block of rows_per_block(width) rows is gathered once, as the
    C-ordered sample-major (N, rows) array values[i:j].T[cols], and is core's
    one argument, held nowhere else, so core may sort it in place and drop it."""
    p = len(values)
    step = rows_per_block(width)
    for i in range(0, p, step):
        columns = core(values[i:i + step].T[cols])
        if i == 0:  # one block's columns are the outputs; more blocks' are copied into them
            out = columns if p <= step else [np.empty((p, *c.shape[1:]), c.dtype) for c in columns]
        if out is not columns:
            for o, c in zip(out, columns):
                o[i:i + step] = c
            del c
        del columns  # the next block is gathered without this one's columns
    for o in out:
        o.setflags(write=False)
    return out


def _deviance_core(n1: int, diagnostics: bool = False):
    """lr's core for _by_row_blocks on blocks whose first n1 samples are condition 1:
    (deviance, p-value, degenerate mask) per column, with diagnostics also the
    (rows, 10) ScoreTable.fits. It sorts each condition in place, then the whole
    block (a sorted column mixes its conditions). Zero pooled variance: deviance 0, p 1."""
    def core(xs: np.ndarray) -> tuple[np.ndarray, ...]:
        N = len(xs)
        (m1, ss1), (m2, ss2) = _sorted_moments(xs[:n1]), _sorted_moments(xs[n1:])
        mu, ss = _sorted_moments(xs)
        del xs  # the block goes before the column-sized arithmetic
        vpool = ss / N
        degenerate = vpool == 0.0
        floor = VARIANCE_FLOOR_REL * np.where(degenerate, 1.0, vpool)
        vpool, v1, v2 = (np.maximum(v, floor) for v in (vpool, ss1 / n1, ss2 / (N - n1)))
        dev = np.maximum(N * np.log(vpool) - (n1 * np.log(v1) + (N - n1) * np.log(v2)), 0.0)
        dev[degenerate] = 0.0
        pvals = np.exp(-dev / 2.0)
        if not diagnostics:
            return dev, pvals, degenerate
        split_ll = _normal_loglik(n1, ss1, v1) + _normal_loglik(N - n1, ss2, v2)
        fits = np.column_stack(np.broadcast_arrays(m1, m2, v1, v2, n1 / N, (N - n1) / N, split_ll,
                                                   mu, vpool, _normal_loglik(N, ss, vpool)))
        return dev, pvals, degenerate, fits
    return core


def score_matrix_lr(m: ExpressionMatrix, diagnostics: bool = False) -> ScoreTable:
    """Deviance scores for every protein row, order preserved.

    Designs outside the statistic's regime (see matrix.regime) raise
    RegimeViolation. diagnostics=True attaches the per-row fits, the one way
    to get them: a row's MixtureFit holds the per-condition parameters with
    the design weights and the condition-assigned loglik, so the value equals
    2*(MixtureFit.loglik - PooledFit.loglik) up to rounding, clamped at 0.
    Pure function of the matrix.
    """
    return ScoreTable(m.protein_ids, "deviance_lr", *_lr_columns(m, m.values, diagnostics))


def _lr_columns(m: ExpressionMatrix, values: np.ndarray, diagnostics: bool = False) -> list:
    """score_matrix_lr's columns for rows of values with m's samples (D24)."""
    decision = regime(m.n1, m.n2)
    if decision.stat != "lr":
        raise RegimeViolation(
            f"likelihood-ratio scoring is outside its regime "
            f"(n1={m.n1}, n2={m.n2}: {decision.reason}); use ks"
        )
    return _by_row_blocks(values, m.condition_order, m.N, _deviance_core(m.n1, diagnostics))
