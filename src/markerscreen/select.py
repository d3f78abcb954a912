"""Cutoff selection over scored proteins.

Three policies: a fixed statistic cutoff, sudden-drop (gap) detection on the
descending sorted statistic curve, and Benjamini-Hochberg FDR thresholding
on p-values. Gap detection is deliberately conservative: sorted null order
statistics have a built-in elbow, so the rule fires only on drops where the
curve loses at least a third of its level in one step (ratio >= 1.5) and
raises NoGapFound otherwise. A gap_knee policy carries the level q of its
explicit fallback path: apply_policy runs BH at q when no gap is found, and
q=None makes the rule strict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NoGapFound
from .lr import ScoreTable
from .matrix import regime

GAP_WINDOW = 100  # the gap rule reads only the top of the ranked curve
# A winning drop must be a >= 50% step down in level; smaller ratios are
# indistinguishable from the top-rank spacing noise of pure-null curves.
MIN_GAP_RATIO = 1.5
PREVIEW_SIZE = GAP_WINDOW  # the preview shows the curve the gap rule reads


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str  # "fixed_cutoff" | "gap_knee" | "bh_fdr"
    c: float | None = None
    q: float | None = None  # bh_fdr: the level; gap_knee: the fallback level, None = strict

    def __post_init__(self):
        if self.kind == "fixed_cutoff":
            if self.c is None or not self.c > 0:  # NaN too
                raise ValueError("fixed_cutoff needs c > 0")
        elif self.kind == "gap_knee":
            if self.q is not None and not 0 < self.q < 1:
                raise ValueError("gap_knee needs a fallback q in (0, 1) or None")
        elif self.kind == "bh_fdr":
            if self.q is None or not 0 < self.q < 1:
                raise ValueError("bh_fdr needs q in (0, 1)")
        else:
            raise ValueError(f"unknown policy kind: {self.kind}")


@dataclass
class SelectionResult:
    selected: tuple[str, ...]  # protein ids, descending statistic order
    cutoff_used: float
    sorted_preview: tuple[tuple[float, str], ...]
    policy: SelectionPolicy
    fallback_used: bool = False

    @property
    def selected_set(self) -> frozenset:
        return frozenset(self.selected)


def _rank(scores: ScoreTable, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The row indices `rows`, which callers pass in ascending order (as
    flatnonzero gives them), by ascending keys (one per row), ties broken by
    ascending id: the one tie rule of every selection and preview. Ranking a
    subset keeps the order the rows have in the whole table. The ranked rows'
    ids are gathered only when two keys tie, and sorted by only when they do
    not already ascend (the check stops at the first descent): the stable
    sort keeps tied rows in row order."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        ids = scores.ids
        tied = [ids[j] for j in rows.tolist()]
        if not all(map(operator.le, tied, islice(tied, 1, None))):
            order = np.lexsort((np.array(tied, dtype=str), keys))
    return rows[order]


def _by_value(scores: ScoreTable, floor: float) -> np.ndarray:
    """The rows whose value is >= floor, by descending value."""
    rows = np.flatnonzero(scores.value >= floor)
    return _rank(scores, rows, -scores.value[rows])


def _window(scores: ScoreTable) -> np.ndarray:
    """The rows at or above the GAP_WINDOW-th largest value (every row of a
    smaller table), by descending value. Its first GAP_WINDOW rows are the
    top of the whole ranked curve, and its value ties are all in it."""
    k = len(scores) - GAP_WINDOW
    return _by_value(scores, np.partition(scores.value, k)[k] if k > 0 else -np.inf)


def _result(scores: ScoreTable, cutoff: float, policy: SelectionPolicy,
            window: np.ndarray, chosen: np.ndarray | None = None) -> SelectionResult:
    """A selection of the row indices `chosen`, by default the ranked rows
    whose value is >= cutoff, previewing the top of the ranked window."""
    if chosen is None:
        ranked = window
        if len(window) < len(scores) and cutoff < scores.value[window[-1]]:
            ranked = _by_value(scores, cutoff)  # the cutoff reaches below the window
        chosen = ranked[scores.value[ranked] >= cutoff]
    top = window[:PREVIEW_SIZE]
    ids = scores.ids
    return SelectionResult(
        selected=tuple([ids[j] for j in chosen.tolist()]),
        cutoff_used=float(cutoff),
        sorted_preview=tuple(zip(scores.value[top].tolist(), [ids[j] for j in top.tolist()])),
        policy=policy,
    )


def _gap(scores: ScoreTable, policy: SelectionPolicy, window: np.ndarray) -> SelectionResult:
    """Cut at the largest sudden drop of the descending statistic curve.

    Restricted to the top GAP_WINDOW sorted values (window clamped to p
    when the matrix is smaller), the rule takes the index i maximizing the
    step ratio s_i / s_{i+1} among steps clearing the additive guard
    s_i - s_{i+1} >= 0.1 * (s_1 - s_w) / w, ties to the smaller i, and
    requires the winning ratio to reach MIN_GAP_RATIO. Curves without such
    a cliff, one-value and empty ones included, raise NoGapFound; callers
    fall back to BH selection (see apply_policy). Only the rows at or above
    the GAP_WINDOW-th largest value are ranked, by descending value and then
    ascending id.
    """
    w = min(GAP_WINDOW, len(scores))
    top = scores.value[window[:w]]
    span = top[0] - top[-1] if w > 1 else 0.0
    if span <= 0:  # a curve of fewer than two values is flat too
        raise NoGapFound("statistic curve is flat over the window")
    guard = 0.1 * span / w
    drops = top[:-1] - top[1:]
    with np.errstate(all="ignore"):  # x/0 and 0/0 are masked; x/tiny is inf
        ratios = np.where(top[1:] > 0, top[:-1] / top[1:], np.inf)
    ratios = np.where(drops >= guard, ratios, 0.0)
    i = int(np.argmax(ratios))  # first occurrence wins ties
    if ratios[i] < MIN_GAP_RATIO:
        raise NoGapFound(
            f"no drop with ratio >= {MIN_GAP_RATIO} in the top {w} values"
        )
    cutoff = 0.5 * (top[i] + top[i + 1])  # just below s_i
    return _result(scores, cutoff, policy, window)


def _bh(scores: ScoreTable, q: float, window: np.ndarray) -> SelectionResult:
    """Benjamini-Hochberg step-up on the scores' p-values at level q.

    Rows are ranked by ascending p-value, ties by ascending id, and the k
    smallest are selected for the largest rank k with p_(k) <= k*q/m. Only
    the rows with p <= m*q/m, the largest of those thresholds in the same
    floating-point operations, can pass at any rank; they are the ones
    ranked. An empty table selects nothing, with a NaN cutoff.
    """
    policy = SelectionPolicy(kind="bh_fdr", q=float(q))  # validates 0 < q < 1
    q, m = policy.q, len(scores)
    rows = np.flatnonzero(scores.p_value <= m * q / max(m, 1))
    by_p = _rank(scores, rows, scores.p_value[rows])
    pvals = scores.p_value[by_p]
    passing = np.flatnonzero(pvals <= (np.arange(1, len(by_p) + 1) * q / m))
    k = int(passing[-1]) + 1 if passing.size else 0
    return _result(scores, pvals[k - 1] if k else float("nan"), policy, window, by_p[:k])


def apply_policy(scores: ScoreTable, policy: SelectionPolicy) -> SelectionResult:
    """Run a policy, selection's one entry: fixed_cutoff selects every protein
    whose statistic is >= c (ties at c included), bh_fdr runs BH at q (_bh),
    and gap_knee cuts at the largest sudden drop (_gap), falling back to BH at
    policy.q when no gap exists, or raising NoGapFound when it is None (strict)."""
    window = _window(scores)  # ranked once for the rule, its fallback and the preview
    if policy.kind == "fixed_cutoff":
        return _result(scores, policy.c, policy, window)
    if policy.kind == "bh_fdr":
        return _bh(scores, policy.q, window)
    try:
        return _gap(scores, policy, window)
    except NoGapFound:
        if policy.q is None:
            raise
        result = _bh(scores, policy.q, window)
        result.fallback_used = True
        return result


def parse_policy(spec: str, n_per_condition: int) -> SelectionPolicy:
    """Parse a policy token into the SelectionPolicy apply_policy runs.

    Tokens: fixed:<c> | gap | gap:strict | bh | bh:<q>. The default BH
    level, taken by bare `bh` and by the gap rule's fallback, is the
    design's matrix.regime level: 0.05, loosened to 0.1 for the small
    designs that take the ks statistic. gap:strict has no fallback level,
    so apply_policy raises NoGapFound instead.
    """
    default_q = regime(n_per_condition, n_per_condition).default_q
    name, colon, arg = spec.partition(":")
    if spec in ("gap", "gap:strict"):
        return SelectionPolicy(kind="gap_knee", q=default_q if spec == "gap" else None)
    if name == "bh":
        return SelectionPolicy(kind="bh_fdr", q=float(arg) if colon else default_q)
    if name == "fixed" and colon:
        return SelectionPolicy(kind="fixed_cutoff", c=float(arg))
    raise ValueError(
        f"unknown policy {spec!r}; expected fixed:<c>, gap, gap:strict or bh:<q>"
    )
