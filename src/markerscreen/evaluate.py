"""score_matrix (every statistic, the Welch t-test baseline among them),
sensitivity/FDR accounting, null-calibration tables, and the seeded multi-run benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from ._rng import derive_seed, substream
from .errors import MarkerScreenError, TruthMismatch
from .ks import DEFAULT_REPLICATES, _ks_columns, _null_table
from .lr import ScoreTable, _by_row_blocks, _deviance_core, _lr_columns, _sorted_moments
from .matrix import ExpressionMatrix, regime, rows_per_block
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
    # (statistic, preset, the regime's statistic) for each lr or ks run outside
    # a preset's regime, once each, in plan order
    off_regime: list[tuple[str, str, str]] = field(default_factory=list)

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

    truth maps every protein id to a bool. Every id it maps to True counts
    as a marker, also one that no row of the scored matrix carries, so pass
    the scored matrix's own truth. Empty selections score (0, 0).
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


def _welch_columns(m: ExpressionMatrix, values: np.ndarray) -> list:
    """score_matrix's ttest columns (D24): per-protein Welch two-sample t-test
    (two-sided) of the rows of values with m's samples, moments as in D18.

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
    return _by_row_blocks(values, m.condition_order, m.N, core)


# statistic name -> (ScoreTable kind, its columns of (matrix, rows of values with
# the matrix's samples, ks replicates))
_SCORERS = {
    "lr": ("deviance_lr", lambda m, values, replicates: _lr_columns(m, values)),
    "ks": ("ks_d", lambda m, values, replicates: _ks_columns(values, replicates)),
    "ttest": ("welch_t", lambda m, values, replicates: _welch_columns(m, values)),
}


def _scorer(stat: str):
    """The (kind, columns) pair of the statistic named lr, ks or ttest."""
    if stat not in _SCORERS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {', '.join(_SCORERS)}")
    return _SCORERS[stat]


def score_matrix(m: ExpressionMatrix, stat: str, replicates: int = DEFAULT_REPLICATES) -> ScoreTable:
    """Scores of every row under the statistic named lr, ks or ttest; `replicates`
    sizes the ks null table. lr.score_matrix_lr adds lr's per-row fits."""
    kind, columns = _scorer(stat)
    return ScoreTable(m.protein_ids, kind, *columns(m, m.values, replicates))


def convergence_table(
    n_values=DEFAULT_N_VALUES,
    replicates: int = DEFAULT_REPLICATES,
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


def benchmark(
    methods,
    preset_names,
    runs: int = 50,
    seed: int = 0,
    ks_replicates: int = DEFAULT_REPLICATES,
) -> EvalReport:
    """Full methods x presets cross, `runs` seeded replicates each.

    The whole plan is checked before the first run is simulated: a
    ValueError refuses an empty or repeated method or preset, an unknown
    preset, a method that is not stat+policy with a known statistic and a
    policy parse_policy reads at the preset's n (parsed once per preset), and
    ks_replicates too few for the null table of a preset a ks method runs on.
    The check lists each lr or ks run outside a preset's regime in off_regime.

    Per-run seeds derive from (seed, preset, run index) only, so every
    method sees the same matrices and comparisons are paired. Failing runs
    become flagged rows (error category recorded, metrics NaN); the matrix
    never aborts.

    A preset's runs are scored in groups of G = max(1, rows_per_block(N^2)
    // p) consecutive runs, so a group is at most one ks row block
    (DECISIONS.md D24): each method scores the group's stacked values in
    one call. Each run then gets the ScoreTable of its own rows and ids,
    with the bits it has when scored alone (D15, D18), and is selected and
    counted alone. A MarkerScreenError raised by scoring flags every run of
    its group; one raised by selection flags its own run.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    available = presets()
    for what, names in (("method", methods), ("preset", preset_names)):
        if not names or len(set(names)) < len(names):
            raise ValueError(f"need at least one {what}, none repeated: {names}")
    plans = {}  # preset -> (method, table kind, columns step, policy) per method
    report = EvalReport()
    for preset_name in preset_names:
        if preset_name not in available:
            raise ValueError(f"unknown preset {preset_name!r}")
        n = available[preset_name].n_per_condition
        regime_stat = regime(n, n).stat
        plans[preset_name] = plan = []
        for method in methods:
            stat, _, policy_spec = method.partition("+")
            if not policy_spec:
                raise ValueError(f"method {method!r} must look like 'lr+gap' or 'ttest+bh:0.05'")
            plan.append((method, *_scorer(stat), parse_policy(policy_spec, n)))
            if stat == "ks":  # the cached table the runs look up
                _null_table(2 * n, ks_replicates)
            off = (stat, preset_name, regime_stat)
            if stat in ("lr", "ks") and stat != regime_stat and off not in report.off_regime:
                report.off_regime.append(off)
    for preset_name, plan in plans.items():
        spec = available[preset_name]
        group = max(1, rows_per_block((2 * spec.n_per_condition) ** 2) // spec.p)
        for first in range(0, runs, group):
            seeds = [derive_seed(seed, f"bench:{preset_name}:{r}")
                     for r in range(first, min(runs, first + group))]
            labeled = [generate(replace(spec, seed=run_seed)) for run_seed in seeds]
            m = labeled[0].matrix
            values = np.concatenate([lab.matrix.values for lab in labeled])
            stacked = []  # per method: the group's columns, or the category scoring raised
            for _, _, columns, _ in plan:
                try:
                    stacked.append(columns(m, values, ks_replicates))
                except MarkerScreenError as exc:
                    stacked.append(exc.category)
            for k, (run_seed, lab) in enumerate(zip(seeds, labeled)):
                ids = lab.matrix.protein_ids  # every selected id is one of them
                markers = {ids[j] for j in np.flatnonzero(lab.truth).tolist()}
                rows = slice(k * m.p, (k + 1) * m.p)
                for (method, kind, _, policy), columns in zip(plan, stacked):
                    error = columns if isinstance(columns, str) else None  # flags the whole group
                    if error is None:
                        try:
                            table = ScoreTable(ids, kind, *(c[rows] for c in columns))
                            result = apply_policy(table, policy)
                        except MarkerScreenError as exc:
                            error = exc.category
                    if error is None:
                        scored = _truth_score(result.selected, markers)
                        report.runs.append(EvalRun(method, preset_name, run_seed, **vars(scored),
                                                   fallback_used=result.fallback_used))
                    else:
                        report.runs.append(EvalRun(method, preset_name, run_seed, float("nan"),
                                                   float("nan"), 0, 0, 0, error=error))
    return report
