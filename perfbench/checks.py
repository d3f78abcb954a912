"""Output checks against the benchmark's own computation.

Everything here is plain numpy written for the benchmark, not a call into
the package: the deviance, its chi-square(2) p-value, the gap rule and the
Benjamini-Hochberg step-up are recomputed from the benchmark's own inputs
and compared with the artifacts the program wrote.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

RTOL = 1e-9
FALLBACK_Q = 0.05  # the CLI's documented fallback level for n >= 5
GAP_WINDOW = 100
GAP_MIN_RATIO = 1.5
BENCH_PLANTED = 30  # planted markers in every bench preset


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    planted: int = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(message)

    @property
    def sensitivity(self) -> float:
        return self.tp / self.planted if self.planted else 0.0

    @property
    def empirical_fdr(self) -> float:
        return self.fp / (self.tp + self.fp) if self.tp + self.fp else 0.0


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV artifact, comment lines dropped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def mle_var(a: np.ndarray) -> np.ndarray:
    centred = a - a.mean(axis=1, keepdims=True)
    return (centred * centred).mean(axis=1)


def deviance(values: np.ndarray, n1: int) -> np.ndarray:
    """N ln v_pool - n1 ln v1 - n2 ln v2 with MLE variances, clamped at 0."""
    N = values.shape[1]
    dev = (N * np.log(mle_var(values)) - n1 * np.log(mle_var(values[:, :n1]))
           - (N - n1) * np.log(mle_var(values[:, n1:])))
    return np.maximum(dev, 0.0)


def bh(ids: list[str], pvals: np.ndarray, q: float) -> set[str]:
    order = sorted(range(len(ids)), key=lambda j: (pvals[j], ids[j]))
    m = len(ids)
    k = 0
    for rank, j in enumerate(order, start=1):
        if pvals[j] <= rank * q / m:
            k = rank
    return {ids[j] for j in order[:k]}


def gap(ids: list[str], values: np.ndarray) -> set[str] | None:
    """The gap rule on the top of the descending curve; None when no cliff."""
    order = sorted(range(len(ids)), key=lambda j: (-values[j], ids[j]))
    top = [values[j] for j in order[:GAP_WINDOW]]
    w = len(top)
    guard = 0.1 * (top[0] - top[-1]) / w
    best, best_i = 0.0, 0
    for i in range(w - 1):
        if top[i] - top[i + 1] >= guard:
            ratio = top[i] / top[i + 1] if top[i + 1] > 0 else math.inf
            if ratio > best:
                best, best_i = ratio, i
    if best < GAP_MIN_RATIO:
        return None
    cutoff = 0.5 * (top[best_i] + top[best_i + 1])
    return {ids[j] for j in order if values[j] >= cutoff}


def _mismatch(got: np.ndarray, want: np.ndarray) -> int:
    return int(np.sum(np.abs(got - want) > RTOL * np.maximum(np.abs(want), 1.0)))


def check_select(out_dir: str, ids: list[str], values: np.ndarray, n1: int,
                 planted: np.ndarray) -> Outcome:
    """scores.csv and selection.csv of `select --policy gap` (one operation)."""
    out = Outcome(attempted=1, planted=int(planted.sum()))
    header, rows = read_table(os.path.join(out_dir, "scores.csv"))
    if [r[0] for r in rows] != ids or {r[1] for r in rows} != {"deviance_lr"}:
        out.fail("scores.csv: ids or statistic kind differ from the input")
        return out
    col = {name: k for k, name in enumerate(header)}
    got_v = np.array([float(r[col["value"]]) for r in rows])
    got_p = np.array([float(r[col["p_value"]]) for r in rows])
    dev = deviance(values, n1)
    pvals = np.exp(-dev / 2.0)
    if _mismatch(got_v, dev) or _mismatch(got_p, pvals):
        out.fail(f"scores.csv: {_mismatch(got_v, dev)} values and "
                 f"{_mismatch(got_p, pvals)} p-values differ from the recomputation")
    want = gap(ids, dev)
    if want is None:
        want = bh(ids, pvals, FALLBACK_Q)
    _, sel_rows = read_table(os.path.join(out_dir, "selection.csv"))
    got = [r[0] for r in sel_rows]
    if set(got) != want or len(got) != len(want):
        out.fail(f"selection.csv: {len(got)} ids, recomputation selects {len(want)}")
    is_planted = dict(zip(ids, planted.tolist()))
    out.tp = sum(1 for pid in got if is_planted.get(pid, False))
    out.fp = len(got) - out.tp
    return out


def check_bench(out_dir: str, expected_runs: int) -> Outcome:
    """bench_runs.csv: one operation per (method, preset, run) row."""
    out = Outcome(attempted=expected_runs, planted=BENCH_PLANTED * expected_runs)
    header, rows = read_table(os.path.join(out_dir, "bench_runs.csv"))
    col = {name: k for k, name in enumerate(header)}
    if len(rows) != expected_runs:
        out.fail(f"bench_runs.csv: {len(rows)} rows, expected {expected_runs}",
                 abs(expected_runs - len(rows)))
    for r in rows:
        tp, fp, sel = (int(r[col[c]]) for c in ("tp", "fp", "selected"))
        if r[col["error"]]:
            out.fail(f"bench run flagged: {r[col['error']]}")
        elif tp + fp != sel:
            out.fail(f"bench run tp {tp} + fp {fp} != selected {sel}")
        out.tp += tp
        out.fp += fp
    return out


def check_diagnose(out_dir: str, ids: list[str], values: np.ndarray, n1: int,
                   planted: np.ndarray, em_rows: int) -> Outcome:
    """diagnose.csv (one operation) and em.csv (one per EM fit).

    Quality is the share of planted rows among the len(planted) highest
    deviances, so sensitivity and empirical FDR add up to 1 here.
    """
    out = Outcome(attempted=1 + em_rows, planted=int(planted.sum()))
    _, rows = read_table(os.path.join(out_dir, "diagnose.csv"))
    if [r[0] for r in rows] != ids or any(r[3] == "" for r in rows):
        out.fail("diagnose.csv: ids differ from the input or diagnostics missing")
        return out
    got_v, got_p, split, pooled = (np.array([float(r[k]) for r in rows]) for k in (1, 2, 3, 4))
    dev = deviance(values, n1)
    bad = (_mismatch(got_v, dev) + _mismatch(got_p, np.exp(-dev / 2.0))
           + _mismatch(got_v, 2.0 * (split - pooled)))
    if bad:
        out.fail(f"diagnose.csv: {bad} values break the deviance identities")

    N = values.shape[1]
    pooled_ll = -0.5 * N * (np.log(2.0 * math.pi * mle_var(values)) + 1.0)
    row_of = {pid: j for j, pid in enumerate(ids)}
    _, em = read_table(os.path.join(out_dir, "em.csv"))
    if len(em) != em_rows:
        out.fail(f"em.csv: {len(em)} fits, expected {em_rows}", abs(em_rows - len(em)))
    for r in em:
        ll = pooled_ll[row_of[r[0]]]
        if not float(r[5]) >= ll - RTOL * abs(ll):
            out.fail(f"em fit for {r[0]}: loglik {r[5]} below pooled {ll!r}")

    k = out.planted
    top = np.lexsort((np.arange(len(ids)), -got_v))[:k]
    out.tp = int(planted[top].sum())
    out.fp = k - out.tp
    return out
