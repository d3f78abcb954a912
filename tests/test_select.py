import dataclasses
import math

import numpy as np
import pytest

import markerscreen as ms
import markerscreen.evaluate
from markerscreen.errors import NoGapFound
from markerscreen.evaluate import score_matrix
from markerscreen.select import MIN_GAP_RATIO

from _oracles import bh_oracle
from _policies import select


def _scores(values, pvals=None):
    if pvals is None:
        pvals = [math.exp(-v / 2.0) for v in values]
    ids = [f"P{j + 1:04d}" for j in range(len(values))]
    return ms.ScoreTable(ids, "deviance_lr", values, pvals, [False] * len(values))


def _shuffled(scores, rng):
    perm = rng.permutation(len(scores))
    return ms.ScoreTable([scores.ids[k] for k in perm], scores.kind,
                         scores.value[perm], scores.p_value[perm],
                         scores.degenerate[perm])


# -------------------------------------------------------------- fixed cutoff

def test_fixed_cutoff_includes_ties():
    res = select(_scores([0.1, 3.0, 2.5]), "fixed_cutoff", c=2.5)
    assert res.selected_set == {"P0002", "P0003"}
    assert res.cutoff_used == 2.5


def test_fixed_cutoff_empty_when_all_below():
    res = select(_scores([0.1, 0.2, 0.3]), "fixed_cutoff", c=2.5)
    assert res.selected == ()


def test_fixed_cutoff_on_hrm_style_simulation():
    # 120 proteins, 12 true, n=12, 5-fold effect, quiet background;
    # cutoff 2.5 applied on the log10 ratio scale
    spec = ms.SimSpec(p=120, n_true=12, n_per_condition=12, mu=15.0,
                      sigma2_F=0.98,
                      error_law=ms.ErrorLaw.normal(0.48),
                      fold_change=math.log2(5.0), seed=42)
    lab = ms.generate(spec)
    scores = ms.score_matrix_lr(lab.matrix)
    log10_ratio = dataclasses.replace(
        scores, value=scores.value / (2.0 * math.log(10.0)))
    res = select(log10_ratio, "fixed_cutoff", c=2.5)
    truth = ms.evaluate.score_against_truth(res, lab.truth_map())
    assert 11 <= len(res.selected) <= 15
    assert truth.tp >= 12


# ---------------------------------------------------------------- gap rule

def test_gap_single_cliff():
    vals = [50.0, 48.0, 47.0] + list(np.linspace(2.0, 1.0, 60))
    res = select(_scores(vals), "gap_knee")
    assert len(res.selected) == 3
    assert res.selected_set == {"P0001", "P0002", "P0003"}
    assert 2.0 < res.cutoff_used < 47.0


def test_gap_geometric_decay_finds_nothing():
    vals = [100.0 * 1.05 ** (-k) for k in range(120)]
    with pytest.raises(NoGapFound):
        select(_scores(vals), "gap_knee")


def test_gap_needs_significant_ratio():
    # drop passes the additive guard but the ratio stays below the floor
    assert MIN_GAP_RATIO == 1.5
    vals = [10.0, 9.9, 9.8, 9.0] + list(np.linspace(8.9, 8.0, 40))
    with pytest.raises(NoGapFound):
        select(_scores(vals), "gap_knee")


def test_gap_ties_break_toward_smaller_index():
    # two drops with the same ratio: earliest one wins
    vals = [90.0, 30.0, 10.0] + list(np.linspace(9.0, 8.5, 30))
    res = select(_scores(vals), "gap_knee")
    assert len(res.selected) == 1


def test_gap_window_excludes_cliffs_past_the_edge():
    # smooth inside the top 100; the only cliff sits at rank 100 -> 101
    vals = list(np.linspace(200.0, 101.0, 100)) + [1.0] * 50
    with pytest.raises(NoGapFound):
        select(_scores(vals), "gap_knee")
    # one rank up, the cliff at 99 -> 100 is inside the window
    res = select(_scores(vals[1:]), "gap_knee")
    assert len(res.selected) == 99


def test_gap_fallback_recovers_planted_markers_on_water_background(water10, water10_scores):
    res = ms.apply_policy(water10_scores, ms.parse_policy("gap", 10))
    truth = ms.evaluate.score_against_truth(res, water10.truth_map())
    assert res.fallback_used
    assert 28 <= len(res.selected) <= 32
    assert truth.tp >= 25


# ----------------------------------------------------------------------- BH

def test_bh_hand_checkable():
    scores = _scores([5.0, 1.0, 0.1], pvals=[0.001, 0.2, 0.9])
    res = select(scores, "bh_fdr", q=0.05)
    assert res.selected_set == {"P0001"}
    assert res.cutoff_used == pytest.approx(0.001)


def test_bh_all_ones_empty():
    res = select(_scores([1.0, 1.0], pvals=[1.0, 1.0]), "bh_fdr", q=0.05)
    assert res.selected == ()
    assert math.isnan(res.cutoff_used)


def test_bh_matches_stepup_oracle():
    rng = np.random.default_rng(71)
    for _ in range(25):
        pvals = rng.uniform(0, 1, 40) ** rng.uniform(0.5, 3.0)
        mask_ref = bh_oracle(pvals, 0.1)
        scores = _scores(list(-np.log(pvals + 1e-12)), pvals=list(pvals))
        res = select(scores, "bh_fdr", q=0.1)
        got = np.array([s.protein_id in res.selected_set for s in scores])
        assert np.array_equal(got, mask_ref)


def test_ascending_ids_break_ties_without_an_id_sort(monkeypatch):
    # ids that ascend in row order: the stable sort's order is the tie rule's
    def no_lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort called")
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    scores = _scores([5.0, 7.0, 5.0, 1.0, 7.0, 5.0], pvals=[0.01, 0.001, 0.01, 0.5, 0.001, 0.01])
    res = select(scores, "bh_fdr", q=0.1)
    assert res.selected == ("P0002", "P0005", "P0001", "P0003", "P0006")
    assert res.sorted_preview == ((7.0, "P0002"), (7.0, "P0005"), (5.0, "P0001"),
                                  (5.0, "P0003"), (5.0, "P0006"), (1.0, "P0004"))


def test_bh_null_only_false_selection_budget():
    rng = np.random.default_rng(73)
    p = 200
    total_false = 0
    for _ in range(50):
        pvals = rng.uniform(0, 1, p)
        res = select(_scores([0.0] * p, pvals=list(pvals)), "bh_fdr", q=0.05)
        total_false += len(res.selected)
    assert total_false / 50.0 <= 0.05 * p


def test_bh_empirical_fdr_within_guarantee():
    # realized FDR averaged over 50 seeded runs stays under q + 0.03 when
    # BH runs on calibrated p-values (Welch t here; the deviance p-values
    # are anticonservative at n=10 and get a looser budget by design)
    q = 0.05
    fdrs = []
    for seed in range(50):
        lab = ms.generate(ms.preset("water-n10", seed=seed))
        scores = score_matrix(lab.matrix, "ttest")
        res = select(scores, "bh_fdr", q=q)
        truth = ms.evaluate.score_against_truth(res, lab.truth_map())
        fdrs.append(truth.empirical_fdr)
    assert float(np.mean(fdrs)) <= q + 0.03


# ------------------------------------------------------------------ policies

def test_policy_validation():
    with pytest.raises(ValueError):
        ms.SelectionPolicy(kind="fixed_cutoff", c=-1.0)
    with pytest.raises(ValueError):
        ms.SelectionPolicy(kind="fixed_cutoff", c=float("nan"))
    with pytest.raises(ValueError):
        ms.SelectionPolicy(kind="bh_fdr", q=1.5)
    with pytest.raises(ValueError):
        ms.SelectionPolicy(kind="gap_knee", q=1.5)
    with pytest.raises(ValueError):
        ms.SelectionPolicy(kind="nonsense")


def test_a_gap_selection_reports_the_policy_it_applied():
    vals = [50.0, 48.0, 47.0] + list(np.linspace(2.0, 1.0, 60))
    policy = ms.parse_policy("gap", 10)
    res = ms.apply_policy(_scores(vals), policy)
    assert not res.fallback_used and len(res.selected) == 3
    assert res.policy == policy  # gap keeps its fallback level q even when unused


def test_apply_policy_gap_falls_back_to_bh():
    vals = [100.0 * 1.05 ** (-k) for k in range(120)]
    pvals = list(np.linspace(0.2, 0.9, 120))  # nothing BH-significant
    res = ms.apply_policy(_scores(vals, pvals=pvals),
                          ms.SelectionPolicy(kind="gap_knee", q=0.05))
    assert res.fallback_used
    assert res.policy.kind == "bh_fdr"
    assert res.policy.q == 0.05
    assert res.selected == ()


@pytest.mark.parametrize("spec, n, policy", [
    ("gap", 3, ms.SelectionPolicy(kind="gap_knee", q=0.1)),
    ("gap", 10, ms.SelectionPolicy(kind="gap_knee", q=0.05)),
    ("gap:strict", 3, ms.SelectionPolicy(kind="gap_knee")),
    ("gap:strict", 10, ms.SelectionPolicy(kind="gap_knee")),
    ("bh", 3, ms.SelectionPolicy(kind="bh_fdr", q=0.1)),
    ("bh", 10, ms.SelectionPolicy(kind="bh_fdr", q=0.05)),
    ("bh:0.2", 3, ms.SelectionPolicy(kind="bh_fdr", q=0.2)),
    ("bh:0.2", 10, ms.SelectionPolicy(kind="bh_fdr", q=0.2)),
    ("fixed:2", 3, ms.SelectionPolicy(kind="fixed_cutoff", c=2.0)),
    ("fixed:2", 10, ms.SelectionPolicy(kind="fixed_cutoff", c=2.0)),
])
def test_parse_policy_table(spec, n, policy):
    assert ms.parse_policy(spec, n) == policy


@pytest.mark.parametrize("spec", ["", "gap:loose", "fixed", "fixed:-1", "bh:2", "bh:x"])
def test_parse_policy_rejects_malformed_tokens(spec):
    with pytest.raises(ValueError):
        ms.parse_policy(spec, 10)


def test_strict_gap_raises_instead_of_falling_back():
    vals = [100.0 * 1.05 ** (-k) for k in range(120)]
    with pytest.raises(NoGapFound):
        ms.apply_policy(_scores(vals), ms.parse_policy("gap:strict", 10))


def test_apply_policy_passthrough_for_fixed():
    res = ms.apply_policy(_scores([3.0, 1.0]),
                          ms.SelectionPolicy(kind="fixed_cutoff", c=2.0))
    assert res.selected_set == {"P0001"}
    assert not res.fallback_used


# --------------------------------------------------------------- properties

def test_selection_order_invariance():
    rng = np.random.default_rng(79)
    vals = list(rng.uniform(0, 30, 150))
    scores = _scores(vals)
    shuffled = _shuffled(scores, rng)
    for policy in (
        ms.SelectionPolicy(kind="fixed_cutoff", c=10.0),
        ms.SelectionPolicy(kind="bh_fdr", q=0.1),
    ):
        a = ms.apply_policy(scores, policy).selected_set
        b = ms.apply_policy(shuffled, policy).selected_set
        assert a == b
    cliff = _scores([60.0, 55.0] + list(np.linspace(2, 1, 80)))
    shuffled_cliff = _shuffled(cliff, rng)
    assert (select(cliff, "gap_knee").selected_set
            == select(shuffled_cliff, "gap_knee").selected_set)


def test_raising_statistic_never_drops_a_selection():
    vals = [50.0, 48.0, 47.0] + list(np.linspace(2.0, 1.0, 60))
    res = select(_scores(vals), "gap_knee")
    cutoff = res.cutoff_used
    vals2 = list(vals)
    vals2[5] = 49.0  # promote one below-cutoff protein
    res2 = select(_scores(vals2), "fixed_cutoff", c=cutoff)
    assert res.selected_set <= res2.selected_set


def test_preview_is_descending_and_bounded():
    rng = np.random.default_rng(83)
    scores = _scores(list(rng.uniform(0, 50, 300)))
    res = select(scores, "fixed_cutoff", c=10.0)
    vals = [v for v, _ in res.sorted_preview]
    assert len(res.sorted_preview) <= 100
    assert vals == sorted(vals, reverse=True)
