import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import markerscreen as ms
import markerscreen.evaluate
from markerscreen._rng import derive_seed
from markerscreen.errors import DegenerateData, MarkerScreenError, TruthMismatch
from markerscreen.evaluate import EvalRun, _truth_score, score_matrix
from markerscreen.ks import _null_table
from markerscreen.matrix import _default_ids

from _oracles import welch_oracle


def _result(selected_ids, universe):
    policy = ms.SelectionPolicy(kind="fixed_cutoff", c=1.0)
    return ms.SelectionResult(
        selected=tuple(selected_ids),
        cutoff_used=1.0,
        sorted_preview=tuple((1.0, pid) for pid in selected_ids),
        policy=policy,
    )


# ------------------------------------------------------------ truth scoring

def test_truth_counting_exact_recovery():
    universe = [f"P{i:04d}" for i in range(1, 11)]
    truth = {pid: pid in universe[:3] for pid in universe}
    res = _result(universe[:3], universe)
    ts = ms.evaluate.score_against_truth(res, truth)
    assert ts.sensitivity == 1.0
    assert ts.empirical_fdr == 0.0
    assert ts.tp == 3 and ts.fp == 0


def test_truth_counting_mixed_selection():
    # 54 selected, 50 of 51 true markers captured
    universe = [f"P{i:04d}" for i in range(1, 201)]
    truth = {pid: i <= 51 for i, pid in enumerate(universe, start=1)}
    selected = universe[:50] + universe[60:64]  # 50 true + 4 false
    ts = ms.evaluate.score_against_truth(_result(selected, universe), truth)
    assert ts.sensitivity == pytest.approx(50 / 51)
    assert ts.empirical_fdr == pytest.approx(4 / 54)
    assert ts.tp + ts.fp == ts.selected_count == 54


def test_truth_counting_empty_selection_is_zero_zero():
    universe = ["P0001", "P0002"]
    ts = ms.evaluate.score_against_truth(_result([], universe),
                                         {"P0001": True, "P0002": False})
    assert ts.sensitivity == 0.0
    assert ts.empirical_fdr == 0.0


def test_truth_mismatch_on_unknown_ids():
    with pytest.raises(TruthMismatch):
        ms.evaluate.score_against_truth(_result(["P0001"], ["P0001"]),
                                        {"OTHER": True})


# ------------------------------------------------------------ Welch baseline

def _matrix(values, n1):
    n2 = values.shape[1] - n1
    return ms.ExpressionMatrix(values=values,
                               layout=np.array([1] * n1 + [2] * n2))


def test_welch_identical_groups():
    values = np.tile([4.0, 5.0, 6.0, 4.0, 5.0, 6.0], (1, 1))
    scores = score_matrix(_matrix(values, 3), "ttest")
    assert scores[0].value == 0.0
    assert scores[0].p_value == 1.0


def test_welch_separated_clusters_tiny_p():
    rng = np.random.default_rng(2)
    row = np.concatenate([rng.uniform(-1e-3, 1e-3, 3),
                          10.0 + rng.uniform(-1e-3, 1e-3, 3)])
    scores = score_matrix(_matrix(row[None, :], 3), "ttest")
    assert scores[0].p_value < 1e-4


def test_welch_matches_direct_formula_oracle():
    rng = np.random.default_rng(97)
    values = rng.normal(0, 1, (40, 13))
    values[:10, :6] += 1.5
    refs = [welch_oracle(row[:6], row[6:]) for row in values]

    scores = score_matrix(_matrix(values, 6), "ttest")
    for score, (t_ref, _, p_ref) in zip(scores, refs):
        assert abs(abs(score.value) - abs(t_ref)) < 1e-9
        assert abs(score.p_value - p_ref) < 1e-9
        assert score.statistic_kind == "welch_t"


def test_welch_matches_scipy():
    rng = np.random.default_rng(101)
    values = rng.normal(0, 2, (25, 16))
    scores = score_matrix(_matrix(values, 9), "ttest")
    ref = stats.ttest_ind(values[:, :9], values[:, 9:], axis=1,
                          equal_var=False)
    assert np.allclose([abs(s.value) for s in scores],
                       np.abs(ref.statistic), atol=1e-9)
    assert np.allclose([s.p_value for s in scores], ref.pvalue, atol=1e-9)


def test_welch_degenerate_rows_score_p1():
    rng = np.random.default_rng(5)
    shifted = np.concatenate([np.full(4, 1.0), np.full(4, 2.0)])
    shifted += rng.uniform(-1e-6, 1e-6, 8)
    values = np.vstack([np.full(8, 3.0), shifted])
    scores = score_matrix(_matrix(values, 4), "ttest")
    assert scores[0].p_value == 1.0  # zero pooled spread: unscorable
    assert scores[1].p_value < 1e-6  # tiny within-group spread, clear shift


@pytest.mark.parametrize("layout", [[1] * 10 + [2] * 10, [1, 2] * 10])
def test_welch_holds_about_one_block(layout):
    # Welch scores through lr's row-block loop: beside its table it holds one
    # block and column-sized arrays (2.51 MiB). Gathering each condition of
    # the whole matrix held 25.56 MiB.
    m = ms.ExpressionMatrix(np.random.default_rng(9).normal(20, 2, (100_000, 20)), np.array(layout))
    tracemalloc.start()
    try:
        table = score_matrix(m, "ttest")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (table.value, table.p_value, table.degenerate))
    assert peak - held < 1.5 * ms.matrix.BLOCK_ELEMENTS * 8


# -------------------------------------------------------- convergence table

def test_convergence_n30_row_matches_nominal():
    rows = ms.evaluate.convergence_table([30], replicates=20000, seed=0)
    got = {r["alpha"]: r["tail_prob"] for r in rows}
    assert abs(got[0.01] - 0.01) <= 0.02
    assert abs(got[0.05] - 0.05) <= 0.02
    assert abs(got[0.10] - 0.10) <= 0.02


@pytest.mark.xfail(
    strict=True,
    reason="the n=3 exceedance at the 0.05 point measures ~0.18, well below "
    "the ~0.30 reference band; tiny-sample inflation is partly an artifact "
    "of the reference's own estimator (see decisions ledger D4)",
)
def test_convergence_n3_alpha05_near_reference_band():
    rows = ms.evaluate.convergence_table([3], replicates=20000, seed=0)
    got = {r["alpha"]: r["tail_prob"] for r in rows}
    assert abs(got[0.05] - 0.30) <= 0.08


def test_convergence_monte_carlo_consistency():
    small = ms.evaluate.convergence_table([10], replicates=4000, seed=11)
    big = ms.evaluate.convergence_table([10], replicates=32000, seed=12)
    p_small = {r["alpha"]: r["tail_prob"] for r in small}
    p_big = {r["alpha"]: r["tail_prob"] for r in big}
    for alpha in (0.01, 0.05, 0.10):
        se = math.sqrt(p_big[alpha] * (1 - p_big[alpha]) / 4000.0)
        assert abs(p_small[alpha] - p_big[alpha]) < 4.0 * se + 1e-3


def test_convergence_table_checks_every_n_before_drawing(monkeypatch):
    calls = []
    real = ms.evaluate.substream
    monkeypatch.setattr(ms.evaluate, "substream", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(ValueError, match="per-condition size must be >= 2"):
        ms.evaluate.convergence_table([30, 1], replicates=2000)
    assert calls == []  # n = 30 drew nothing before n = 1 was refused


def test_convergence_text_layout():
    rows = ms.evaluate.convergence_table([5, 10], replicates=2000, seed=0)
    text = ms.evaluate.convergence_text(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("n")
    assert len(lines) == 3


def test_convergence_table_defaults_to_the_calibrate_replicate_count():
    from markerscreen.cli import RunConfig

    rows = ms.evaluate.convergence_table([3], alphas=[0.05])
    assert rows[0]["replicates"] == RunConfig("calibrate").replicates


# ----------------------------------------------------------------- benchmark

def test_benchmark_is_deterministic_and_paired():
    a = ms.evaluate.benchmark(["ttest+bh:0.05", "lr+bh:0.05"], ["water-n10"],
                              runs=3, seed=0)
    b = ms.evaluate.benchmark(["ttest+bh:0.05", "lr+bh:0.05"], ["water-n10"],
                              runs=3, seed=0)
    assert a.to_text() == b.to_text()
    # both methods see the same per-run matrices (paired seeds)
    seeds = {}
    for run in a.runs:
        seeds.setdefault(run.method, []).append(run.seed)
    assert seeds["ttest+bh:0.05"] == seeds["lr+bh:0.05"]


def test_benchmark_builds_one_ks_null_table_for_all_runs():
    _null_table.cache_clear()
    ms.evaluate.benchmark(["ks+gap"], ["water-n3"], runs=3, seed=0)
    assert _null_table.cache_info().misses == 1


def test_benchmark_formats_default_ids_once_for_all_runs():
    _default_ids.cache_clear()
    ms.evaluate.benchmark(["ks+gap", "ttest+bh:0.1"], ["water-n3", "human-n3"], runs=3, seed=0)
    assert _default_ids.cache_info().misses == 1


def _selection_alone(method, m, replicates):
    """A run's selection under method with the run scored on its own."""
    stat, _, spec = method.partition("+")
    policy = ms.parse_policy(spec, min(m.n1, m.n2))
    return ms.apply_policy(score_matrix(m, stat, replicates), policy)


def test_benchmark_counts_as_score_against_truth_does():
    # benchmark counts against each run's planted ids; scoring the same run's
    # selection against its whole truth map must give the same numbers
    rep = ms.evaluate.benchmark(["lr+gap", "ks+gap", "ttest+bh:0.1"], ["water-n3", "water-n10"],
                                runs=3, seed=0, ks_replicates=1000)
    assert len(rep.runs) == 18
    for run in rep.runs:
        labeled = ms.generate(dataclasses.replace(ms.presets()[run.preset], seed=run.seed))
        try:
            result = _selection_alone(run.method, labeled.matrix, 1000)
        except MarkerScreenError as exc:
            assert run.error == exc.category
            continue
        assert run.error is None
        expected = vars(ms.evaluate.score_against_truth(result, labeled.truth_map()))
        assert {k: getattr(run, k) for k in expected} == expected
    assert sum(run.error is None for run in rep.runs) >= 12
    assert any(run.tp and run.fp for run in rep.runs)


@pytest.mark.parametrize("group, runs", [(2, 5), (3, 7)])
def test_benchmark_groups_give_the_rows_of_one_run_at_a_time(monkeypatch, group, runs):
    # n3 designs have N = 6, so ks blocks of BLOCK_ELEMENTS // 36 rows hold
    # `group` runs of p = 1000, and the last group of `runs` is shorter
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 36 * 1000 * group)
    stacked = []

    def spy(columns):
        return lambda m, values, replicates: (stacked.append(len(values))
                                              or columns(m, values, replicates))
    for stat, (kind, columns) in list(ms.evaluate._SCORERS.items()):
        monkeypatch.setitem(ms.evaluate._SCORERS, stat, (kind, spy(columns)))
    methods = ["lr+gap", "ks+gap", "ttest+bh:0.1", "ttest+gap:strict"]
    presets = ["water-n3", "cauchy-n3"]
    rep = ms.evaluate.benchmark(methods, presets, runs=runs, seed=5, ks_replicates=1000)
    sizes = [1000 * min(group, runs - first) for first in range(0, runs, group)]
    assert stacked == [size for size in sizes * len(presets) for _ in methods]
    reference = []
    for preset_name in presets:
        for r in range(runs):
            run_seed = derive_seed(5, f"bench:{preset_name}:{r}")
            labeled = ms.generate(dataclasses.replace(ms.presets()[preset_name], seed=run_seed))
            ids = labeled.matrix.protein_ids
            markers = {ids[j] for j in np.flatnonzero(labeled.truth)}
            for method in methods:
                try:
                    result = _selection_alone(method, labeled.matrix, 1000)
                except MarkerScreenError as exc:
                    reference.append(EvalRun(method, preset_name, run_seed, math.nan, math.nan,
                                             0, 0, 0, error=exc.category))
                    continue
                reference.append(EvalRun(method, preset_name, run_seed,
                                         **vars(_truth_score(result.selected, markers)),
                                         fallback_used=result.fallback_used))
    assert list(map(repr, rep.runs)) == list(map(repr, reference))  # NaN == NaN in a repr
    strict = [r.error for r in reference if r.method == "ttest+gap:strict"]
    assert "no-gap-found" in strict and None in strict  # raised per run, not per group
    assert {r.error for r in reference if r.method == "lr+gap"} == {"regime-violation"}


def test_benchmark_memory_stays_near_one_group():
    # bench-n3's methods and presets in groups of G = 7 runs (DECISIONS.md
    # D24). Measured: 3.35 MiB at G = 7, 3.81 MiB at G = 10, 5.56 MiB with
    # all 21 runs in one group, 0.51 MiB one run at a time
    _null_table.cache_clear()
    _default_ids.cache_clear()
    tracemalloc.start()
    try:
        ms.evaluate.benchmark(["ks+gap", "ttest+bh:0.1"],
                              ["water-n3", "human-n3", "cauchy-n3", "chisq-n3"],
                              runs=21, seed=0, ks_replicates=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * 2**20


def test_benchmark_records_each_statistic_outside_its_regime_once_in_plan_order():
    # ks runs outside the regime on n = 10, lr on n = 3; ttest has no regime
    rep = ms.evaluate.benchmark(["ks+gap", "lr+gap", "ttest+bh:0.1", "lr+bh", "ks+bh"],
                                ["water-n10", "water-n3", "human-n10"], runs=1, seed=0,
                                ks_replicates=1000)
    assert rep.off_regime == [("ks", "water-n10", "lr"), ("lr", "water-n3", "ks"),
                              ("ks", "human-n10", "lr")]
    assert ms.evaluate.benchmark(["ttest+bh"], ["water-n3"], runs=1).off_regime == []


def test_benchmark_counting_identity():
    rep = ms.evaluate.benchmark(["lr+gap"], ["water-n10"], runs=5, seed=1)
    for run in rep.runs:
        assert run.tp + run.fp == run.selected_count
        assert 0.0 <= run.sensitivity <= 1.0
        assert 0.0 <= run.empirical_fdr <= 1.0


def test_benchmark_strict_gap_flags_exactly_the_runs_that_fall_back():
    rep = ms.evaluate.benchmark(["lr+gap", "lr+gap:strict"], ["water-n10"], runs=3, seed=0)
    plain = {r.seed: r for r in rep.runs if r.method == "lr+gap"}
    strict = {r.seed: r for r in rep.runs if r.method == "lr+gap:strict"}
    assert len(plain) == 3 and plain.keys() == strict.keys()
    for seed, run in plain.items():
        assert run.error is None
        assert run.fallback_used == (strict[seed].error == "no-gap-found")


def test_benchmark_flags_regime_violations_without_aborting():
    # lr on an n=3 preset violates the statistic's regime: rows are flagged,
    # the other preset still completes
    rep = ms.evaluate.benchmark(["lr+bh:0.05"], ["water-n3", "water-n10"],
                                runs=2, seed=0)
    flagged = [r for r in rep.runs if r.error is not None]
    clean = [r for r in rep.runs if r.error is None]
    assert len(flagged) == 2 and all("regime" in r.error for r in flagged)
    assert len(clean) == 2
    agg = {row["preset"]: row for row in rep.aggregate()}
    assert agg["water-n3"]["flagged"] == 2
    assert agg["water-n10"]["flagged"] == 0
    assert not math.isnan(agg["water-n10"]["sensitivity"])


def test_benchmark_rejects_bad_method_ids():
    with pytest.raises(ValueError):
        ms.evaluate.benchmark(["nonsense+gap"], ["water-n10"], runs=1, seed=0)
    with pytest.raises(ValueError):
        ms.evaluate.benchmark(["lr"], ["water-n10"], runs=1, seed=0)


@pytest.mark.parametrize("methods, presets", [
    ([], ["water-n3"]),
    (["lr+gap"], []),
    (["ttest+bh", "ttest+bh"], ["water-n3"]),
    (["lr+gap"], ["water-n10", "water-n10"]),
    (["lr+gap"], ["water-n10", "nope"]),
    (["lr+bogus"], ["water-n3"]),  # lr's regime violation used to come first
    (["ttest+bh", "lr"], ["water-n3"]),
    (["ttest+bh", "nonsense+gap"], ["water-n3"]),
    (["ttest+bh:2"], ["water-n3"]),
    (["ks+gap"], ["water-n3"]),  # 10 replicates, too few for the null table
])
def test_benchmark_refuses_a_bad_plan_before_simulating(monkeypatch, methods, presets):
    simulated = []
    monkeypatch.setattr(ms.evaluate, "generate", simulated.append)
    with pytest.raises(ValueError):  # 10 replicates matter only to a plan with a ks method
        ms.evaluate.benchmark(methods, presets, runs=2, seed=0, ks_replicates=10)
    assert simulated == []


def test_benchmark_water_recovery_near_reference():
    rep = ms.evaluate.benchmark(["lr+gap"], ["water-n10"], runs=50, seed=0)
    agg = rep.aggregate()[0]
    assert abs(agg["sensitivity"] - 0.90) <= 0.10
    assert abs(agg["empirical_fdr"] - 0.15) <= 0.10


@pytest.mark.xfail(
    strict=True,
    reason="the deviance scorer needs the mean shift to clear the pooled "
    "variance inflation; at the human background's error variance the "
    "planted 1.58 shift is undetectable, sensitivity ~0.04 vs the ~0.77 "
    "reference (see decisions ledger D4)",
)
def test_benchmark_human_recovery_near_reference():
    rep = ms.evaluate.benchmark(["lr+gap"], ["human-n10"], runs=50, seed=0)
    agg = rep.aggregate()[0]
    assert abs(agg["sensitivity"] - 0.77) <= 0.12
    assert abs(agg["empirical_fdr"] - 0.17) <= 0.12


@pytest.mark.xfail(
    strict=True,
    reason="a faithful Welch baseline beats the 0.70/0.29 reference row "
    "(measures ~0.85 sensitivity at ~0.04 FDR), landing outside both bands "
    "(see decisions ledger D4)",
)
def test_ttest_water_benchmark_near_reference():
    rep = ms.evaluate.benchmark(["ttest+bh:0.05"], ["water-n10"], runs=50, seed=0)
    agg = rep.aggregate()[0]
    assert abs(agg["sensitivity"] - 0.70) <= 0.15
    assert abs(agg["empirical_fdr"] - 0.29) <= 0.15


@pytest.mark.xfail(
    strict=True,
    reason="small-n kernel scoring has near-zero power on quiet "
    "backgrounds, far from the ~0.67 reference (see decisions ledger D4)",
)
def test_ks_water_n3_benchmark_near_reference():
    rep = ms.evaluate.benchmark(["ks+gap"], ["water-n3"], runs=50, seed=0)
    agg = rep.aggregate()[0]
    assert abs(agg["sensitivity"] - 0.67) <= 0.15
    assert abs(agg["empirical_fdr"] - 0.20) <= 0.15


@pytest.mark.xfail(
    strict=True,
    reason="the calibrated Welch baseline holds lower FDR than the deviance "
    "pipeline at matched-or-higher sensitivity on the quiet background; the "
    "claimed dominance direction does not materialize "
    "(see decisions ledger D4)",
)
def test_deviance_dominates_welch_on_water():
    rep = ms.evaluate.benchmark(["lr+gap", "ttest+bh:0.05"], ["water-n10"],
                                runs=50, seed=0)
    agg = {row["method"]: row for row in rep.aggregate()}
    dev, welch = agg["lr+gap"], agg["ttest+bh:0.05"]
    assert dev["sensitivity"] >= welch["sensitivity"]
    assert dev["empirical_fdr"] < welch["empirical_fdr"]
