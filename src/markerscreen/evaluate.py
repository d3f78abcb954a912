"""Truth-scored evaluation: sensitivity/FDR accounting, the Welch t-test
baseline, null-calibration tables, and the seeded multi-run benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from ._rng import derive_seed, substream
from .errors import MarkerScreenError, TruthMismatch
from .ks import score_matrix_ks
from .lr import ScoreTable, _by_row_blocks, _deviance_core, _sorted_moments, score_matrix_lr
from .matrix import ExpressionMatrix
from .select import SelectionResult, apply_policy, parse_policy
from .simulate import generate, presets

DEFAULT_ALPHAS = (0.01, 0.05, 0.10)
DEFAULT_N_VALUES = (3, 5, 8, 10, 15, 20, 30)


@dataclass
class TruthScore:
    sensitivity: float
    empirical_fdr: float
    selected_count: int
    tp: int
    fp: int


@dataclass
class EvalRun:
    method: str
    preset: str
    seed: int
    sensitivity: float
    empirical_fdr: float
    selected_count: int
    tp: int
    fp: int
    fallback_used: bool = False
    error: str | None = None  # set on flagged rows; metrics are NaN there


@dataclass
class EvalReport:
    runs: list[EvalRun] = field(default_factory=list)

    def aggregate(self) -> list[dict]:
        """Mean sensitivity/FDR per (method, preset), input order, flagged
        runs excluded from the averages but counted."""
        groups: dict[tuple[str, str], list[EvalRun]] = {}
        for run in self.runs:
            groups.setdefault((run.method, run.preset), []).append(run)
        rows = []
        for (method, preset_name), runs in groups.items():  # first-seen order
            ok = [r for r in runs if r.error is None]
            rows.append({
                "method": method,
                "preset": preset_name,
                "runs": len(runs),
                "flagged": len(runs) - len(ok),
                "sensitivity": float(np.mean([r.sensitivity for r in ok])) if ok else float("nan"),
                "empirical_fdr": float(np.mean([r.empirical_fdr for r in ok])) if ok else float("nan"),
                "selected": float(np.mean([r.selected_count for r in ok])) if ok else float("nan"),
            })
        return rows

    def to_text(self) -> str:
        header = f"{'method':<16} {'preset':<12} {'sens':>6} {'fdr':>6} {'sel':>7} {'runs':>5} {'flag':>5}"
        lines = [header, "-" * len(header)]
        for row in self.aggregate():
            lines.append(
                f"{row['method']:<16} {row['preset']:<12} "
                f"{row['sensitivity']:>6.3f} {row['empirical_fdr']:>6.3f} "
                f"{row['selected']:>7.1f} {row['runs']:>5d} {row['flagged']:>5d}"
            )
        return "\n".join(lines)


def score_against_truth(result: SelectionResult, truth: dict) -> TruthScore:
    """Sensitivity and empirical FDR of a selection against truth labels.

    truth maps every protein id to a bool. Empty selections score (0, 0).
    """
    unknown = [pid for pid in result.selected if pid not in truth]
    if unknown:
        raise TruthMismatch(
            f"selected ids missing from truth labels: {unknown[:5]}"
        )
    return _truth_score(result.selected, {pid for pid, v in truth.items() if v})


def _truth_score(selected: tuple, markers: set) -> TruthScore:
    """TruthScore of the selected ids against the set of true marker ids."""
    tp = sum(1 for pid in selected if pid in markers)
    fp = len(selected) - tp
    sensitivity = tp / len(markers) if markers else 0.0
    return TruthScore(sensitivity, fp / max(1, len(selected)), len(selected), tp, fp)


def ttest_baseline(m: ExpressionMatrix) -> ScoreTable:
    """Per-protein Welch two-sample t-test (two-sided), moments as in D18.

    The value is |t|, as the p-value is two-sided; unequal variances,
    Welch-Satterthwaite degrees of freedom. Rows where both sample variances
    vanish are unscorable and get t = 0, p = 1. Scored through lr._by_row_blocks.
    """
    n1, n2 = m.n1, m.n2
    if n1 < 2 or n2 < 2:
        raise ValueError("Welch test needs at least 2 samples per condition")

    def core(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        (m1, ss1), (m2, ss2) = _sorted_moments(xs[:n1]), _sorted_moments(xs[n1:])
        del xs  # the block goes before the column-sized arithmetic
        v1, v2 = ss1 / (n1 - 1), ss2 / (n2 - 1)
        se2 = v1 / n1 + v2 / n2
        degenerate = se2 == 0.0
        safe = np.where(degenerate, 1.0, se2)
        t = np.abs(m1 - m2) / np.sqrt(safe)
        df_num = safe**2
        df_den = (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
        df = df_num / np.where(df_den == 0.0, 1.0, df_den)
        p = 2.0 * special.stdtr(df, -t)  # Student-t upper tail at |t|
        t = np.where(degenerate, 0.0, t)
        p = np.where(degenerate, 1.0, np.minimum(p, 1.0))
        return t, p, degenerate
    columns = _by_row_blocks(m.values, m.condition_order, m.N, core)
    return ScoreTable(m.protein_ids, "welch_t", *columns)


# statistic name -> scorer of (matrix, ks replicates); names resolve at call time
_SCORERS = {
    "lr": lambda m, replicates: score_matrix_lr(m),
    "ks": lambda m, replicates: score_matrix_ks(m, replicates=replicates),
    "ttest": lambda m, replicates: ttest_baseline(m),
}


def score_matrix(m: ExpressionMatrix, stat: str, replicates: int) -> ScoreTable:
    """Scores of every row under the statistic named lr, ks or ttest;
    `replicates` sizes the ks null table."""
    if stat not in _SCORERS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {', '.join(_SCORERS)}")
    return _SCORERS[stat](m, replicates)


def convergence_table(
    n_values=DEFAULT_N_VALUES,
    replicates: int = 20000,
    seed: int = 0,
    alphas=DEFAULT_ALPHAS,
) -> list[dict]:
    """Null tail probabilities of the deviance across per-condition sizes.

    For each n, `replicates` standard-normal null rows of width 2n are
    scored and the exceedance of the chi-square(2) alpha-quantile reported.
    The statistic is location-scale invariant, so standard-normal rows
    calibrate every normal-error configuration.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not n_values or not alphas:
        raise ValueError("need at least one n and one alpha")
    if not all(0.0 < a < 1.0 for a in alphas):
        raise ValueError("alpha must lie in (0, 1)")
    rows = []
    for n in n_values:
        if n < 2:
            raise ValueError("per-condition size must be >= 2")
        rng = substream(seed, f"null-calibration:{n}")
        draws = rng.standard_normal((replicates, 2 * n))
        dev = _by_row_blocks(draws, np.arange(2 * n), 2 * n, _deviance_core(n))[0]
        for alpha in alphas:
            threshold = special.chdtri(2, alpha)  # chi-square(2) upper alpha-quantile
            rows.append({
                "n": int(n),
                "alpha": float(alpha),
                "tail_prob": float(np.mean(dev > threshold)),
                "replicates": int(replicates),
            })
    return rows


def convergence_text(rows: list[dict]) -> str:
    alphas = sorted({r["alpha"] for r in rows})
    ns = sorted({r["n"] for r in rows})
    cell = {(r["n"], r["alpha"]): r["tail_prob"] for r in rows}
    head = "n     " + "  ".join(f"a={a:g}" for a in alphas)
    lines = [head]
    for n in ns:
        lines.append(
            f"{n:<5d} " + "  ".join(f"{cell[(n, a)]:.4f}" for a in alphas)
        )
    return "\n".join(lines)


def _run_method(method: str, labeled, ks_replicates: int) -> SelectionResult:
    stat, _, policy_spec = method.partition("+")
    if not policy_spec:
        raise ValueError(f"method {method!r} must look like 'lr+gap' or 'ttest+bh:0.05'")
    m = labeled.matrix
    scores = score_matrix(m, stat, ks_replicates)
    return apply_policy(scores, parse_policy(policy_spec, min(m.n1, m.n2)))


def benchmark(
    methods,
    preset_names,
    runs: int = 50,
    seed: int = 0,
    ks_replicates: int = 10000,
) -> EvalReport:
    """Full methods x presets cross, `runs` seeded replicates each.

    Per-run seeds derive from (seed, preset, run index) only, so every
    method sees the same matrices and comparisons are paired. Failing runs
    become flagged rows (error category recorded, metrics NaN); the matrix
    never aborts.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    available = presets()
    report = EvalReport()
    for preset_name in preset_names:
        if preset_name not in available:
            raise ValueError(f"unknown preset {preset_name!r}")
        for r in range(runs):
            run_seed = derive_seed(seed, f"bench:{preset_name}:{r}")
            labeled = generate(replace(available[preset_name], seed=run_seed))
            ids = labeled.matrix.protein_ids  # every selected id is one of them
            markers = {ids[j] for j in np.flatnonzero(labeled.truth).tolist()}
            for method in methods:
                try:
                    result = _run_method(method, labeled, ks_replicates)
                    scored = _truth_score(result.selected, markers)
                    report.runs.append(EvalRun(method, preset_name, run_seed, **vars(scored),
                                               fallback_used=result.fallback_used))
                except MarkerScreenError as exc:
                    report.runs.append(EvalRun(method, preset_name, run_seed, float("nan"),
                                               float("nan"), 0, 0, 0, error=exc.category))
    return report
