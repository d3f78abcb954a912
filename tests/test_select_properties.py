"""Property tests: columnar selection against the list-sorting oracles.

Random tables of 1..1,000 rows with heavily tied values, tied p-values,
degenerate rows (value 0, p 1), ties straddling the 100th-largest value
(the edge of the ranked window the gap rule and the preview read) and ids
whose string order differs from their row order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markerscreen as ms
from markerscreen.errors import NoGapFound

from _oracles import bh_selection_oracle, fixed_selection_oracle, gap_selection_oracle

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def tables(draw):
    """Hypothesis picks the shape and the tie and degenerate shares; numpy
    fills the rows from a drawn seed."""
    p = draw(st.one_of(st.integers(1, 200), st.integers(201, 1000)))
    tie_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    degenerate_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    straddle = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.uniform(-5.0, 60.0, draw(st.integers(1, 5)))
    plevels = rng.choice([0.0, 1e-4, 0.01, 0.05, 0.3, 1.0], draw(st.integers(1, 4)))
    tied = rng.random(p) < tie_share
    value = np.where(tied, rng.choice(levels, p), rng.uniform(-5.0, 60.0, p))
    pval = np.where(tied, rng.choice(plevels, p), rng.uniform(0.0, 1.0, p))
    if straddle and p > 100:  # one value from about rank 80 to about rank 130
        ranked = np.argsort(-value, kind="stable")
        value[ranked[rng.integers(80, 100):rng.integers(101, min(p, 130) + 1)]] = value[ranked[99]]
    degenerate = rng.random(p) < degenerate_share
    ids = [f"P{k}" for k in rng.permutation(p)]  # "P10" sorts before "P9"
    return ms.ScoreTable(ids, "deviance_lr", np.where(degenerate, 0.0, value),
                         np.where(degenerate, 1.0, pval), degenerate)


def _rows(table):
    return [(s.protein_id, s.value, s.p_value) for s in table]


def _same(result, expected):
    selected, cutoff, preview = expected
    assert result.selected == selected
    assert (result.cutoff_used == cutoff
            or (math.isnan(result.cutoff_used) and math.isnan(cutoff)))
    assert result.sorted_preview == preview


@PROPERTY
@given(tables(), st.data())
def test_fixed_matches_list_oracle(table, data):
    positive = [v for v in table.value.tolist() if v > 0]
    c = data.draw(st.sampled_from(positive) if positive else st.floats(0.1, 60.0))
    _same(ms.select_fixed(table, c), fixed_selection_oracle(_rows(table), c))


@PROPERTY
@given(tables())
def test_gap_matches_list_oracle(table):
    expected = gap_selection_oracle(_rows(table))
    if expected is None:
        with pytest.raises(NoGapFound):
            ms.select_gap(table)
    else:
        _same(ms.select_gap(table), expected)


@PROPERTY
@given(tables(), st.floats(0.01, 0.5))
def test_bh_matches_list_oracle(table, q):
    _same(ms.select_bh(table, q), bh_selection_oracle(_rows(table), q))


# m*q/m, the largest BH threshold, rounds above q at m = 3 and 12 and below
# it at m = 29 and 43; a row at either value may pass only at rank m.
@pytest.mark.parametrize("m,q", [(3, 0.1), (10, 0.1), (12, 0.05), (29, 0.01), (43, 0.1)])
@pytest.mark.parametrize("at", ["q", "m*q/m"])
@pytest.mark.parametrize("below", [0, 1, 2])
def test_bh_at_the_largest_threshold_matches_list_oracle(m, q, at, below):
    level = q if at == "q" else m * q / m
    rng = np.random.default_rng(m)
    pval = np.full(m, level)
    pval[:below * m // 3] = rng.uniform(0.0, level, below * m // 3)
    ids = [f"P{k}" for k in rng.permutation(m)]
    table = ms.ScoreTable(ids, "deviance_lr", rng.uniform(0.0, 60.0, m), pval, [False] * m)
    result = ms.select_bh(table, q)
    _same(result, bh_selection_oracle(_rows(table), q))
    if below == 0:  # every row at the level: all pass exactly when it is <= m*q/m
        assert len(result.selected) == (m if level <= m * q / m else 0)


def test_bh_on_an_empty_table_selects_nothing():
    empty = ms.ScoreTable((), "deviance_lr", [], [], [])
    for result in (ms.select_bh(empty, 0.1),
                   ms.apply_policy(empty, ms.SelectionPolicy(kind="bh_fdr", q=0.1))):
        assert result.selected == ()
        assert math.isnan(result.cutoff_used)
        assert result.sorted_preview == ()


@PROPERTY
@given(tables(), st.sampled_from(["gap", "bh:0.2", "fixed:1.5"]), st.integers(3, 10))
def test_apply_policy_matches_list_oracle(table, spec, n):
    policy = ms.parse_policy(spec, n)
    rows = _rows(table)
    result = ms.apply_policy(table, policy)
    if spec == "fixed:1.5":
        expected, fallback = fixed_selection_oracle(rows, 1.5), False
    elif spec == "bh:0.2":
        expected, fallback = bh_selection_oracle(rows, 0.2), False
    else:
        expected = gap_selection_oracle(rows)
        fallback = expected is None
        if fallback:
            expected = bh_selection_oracle(rows, policy.q)
    _same(result, expected)
    assert result.fallback_used == fallback


@PROPERTY
@given(tables(), st.randoms(use_true_random=False))
def test_selection_invariant_under_row_permutation(table, rnd):
    perm = list(range(len(table)))
    rnd.shuffle(perm)
    shuffled = ms.ScoreTable(table.ids[perm], table.kind, table.value[perm],
                             table.p_value[perm], table.degenerate[perm])
    for policy in (ms.SelectionPolicy(kind="fixed_cutoff", c=1.5),
                   ms.SelectionPolicy(kind="bh_fdr", q=0.2),
                   ms.SelectionPolicy(kind="gap_knee", q=0.05)):
        a = ms.apply_policy(table, policy)
        b = ms.apply_policy(shuffled, policy)
        assert a.selected == b.selected
        assert a.fallback_used == b.fallback_used
