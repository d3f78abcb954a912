"""Property tests: invariances of the three scorers, run through the one
scorer table (evaluate.score_matrix) or, for runs scored in one stack, each
scorer's columns step, and their rule for constant rows.

Matrices hold values from a small-integer grid, so ties are common, some
rows are constant (degenerate), and a map a*x + b with a a power of two and
b an integer is exact: degeneracy and ties survive it bit for bit.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markerscreen as ms
from markerscreen.errors import DegenerateData
from markerscreen.evaluate import _welch_columns, score_matrix
from markerscreen.ks import _ks_columns
from markerscreen.lr import _lr_columns

from _scoring import lr_row

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
STATS = ("lr", "ks", "ttest")
# smallest samples per condition each scorer accepts; lr below 5 is a
# regime violation, Welch needs two per condition
MIN_N = {"lr": 5, "ks": 1, "ttest": 2}
REPLICATES = 1000  # the ks null table's floor; keeps tables cheap to build

# (p, extra n1, extra n2, seed, degenerate share, grid half-width)
designs = st.tuples(st.integers(1, 25), st.integers(0, 5), st.integers(0, 5),
                    st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0]),
                    st.sampled_from([1, 2, 8]))
SMALLEST = (1, 0, 1, 0, 0.0, 2)  # p = 1 at each scorer's smallest design (ks: N = 3)
ALL_DEGENERATE = (3, 0, 0, 1, 1.0, 2)
WIDE = (25, 6, 7, 3, 0.2, 8)  # 8 or more per condition, which numpy sums pairwise


def _matrix(design, stat) -> ms.ExpressionMatrix:
    p, k1, k2, seed, degenerate_share, half = design
    n1, n2 = MIN_N[stat] + k1, MIN_N[stat] + k2
    n2 = max(n2, 3 - n1)  # ks needs three observations in all
    rng = np.random.default_rng(seed)
    values = rng.integers(-half, half + 1, (p, n1 + n2)).astype(float)
    flat = rng.random(p) < degenerate_share
    values[flat] = values[flat, :1]
    layout = rng.permutation([1] * n1 + [2] * n2)  # conditions interleaved
    return ms.ExpressionMatrix(values=values, layout=layout)


def _score(m, stat):
    return score_matrix(m, stat, REPLICATES)


def _thirds(m) -> ms.ExpressionMatrix:
    """m divided by 3: values off the binary grid, so their sums round, with
    constant rows and ties kept."""
    return ms.ExpressionMatrix(values=m.values / 3, layout=m.layout)


@pytest.mark.parametrize("stat", STATS)
@PROPERTY
@given(design=designs, perm_seed=st.integers(0, 2**32 - 1))
@example(design=SMALLEST, perm_seed=0)
@example(design=ALL_DEGENERATE, perm_seed=0)
def test_row_permutation_is_bit_exact(stat, design, perm_seed):
    m = _matrix(design, stat)
    perm = np.random.default_rng(perm_seed).permutation(m.p)
    shuffled = ms.ExpressionMatrix(values=m.values[perm], layout=m.layout,
                                   protein_ids=tuple(np.asarray(m.protein_ids)[perm]))
    base, moved = _score(m, stat), _score(shuffled, stat)
    assert np.array_equal(moved.ids, np.asarray(base.ids)[perm])
    assert np.array_equal(moved.value, base.value[perm])
    assert np.array_equal(moved.p_value, base.p_value[perm])
    assert np.array_equal(moved.degenerate, base.degenerate[perm])


@pytest.mark.parametrize("stat", STATS)
@PROPERTY
@given(design=designs, perm_seed=st.integers(0, 2**32 - 1))
@example(design=SMALLEST, perm_seed=0)
@example(design=ALL_DEGENERATE, perm_seed=0)
@example(design=WIDE, perm_seed=0)
def test_sample_order_within_a_condition_is_bit_exact(stat, design, perm_seed):
    # the columns move with their labels, then each row's samples are
    # shuffled among the columns of their own condition
    m = _thirds(_matrix(design, stat))
    rng = np.random.default_rng(perm_seed)
    cols = rng.permutation(m.N)
    values, layout = m.values[:, cols], m.layout[cols]
    for label in (1, 2):
        values[:, layout == label] = rng.permuted(values[:, layout == label], axis=1)
    base, moved = _score(m, stat), _score(ms.ExpressionMatrix(values=values, layout=layout), stat)
    assert np.array_equal(moved.value, base.value)
    assert np.array_equal(moved.p_value, base.p_value)
    assert np.array_equal(moved.degenerate, base.degenerate)


@pytest.mark.parametrize("stat", STATS)
@PROPERTY
@given(design=designs)
@example(design=SMALLEST)
@example(design=ALL_DEGENERATE)
@example(design=WIDE)
def test_lone_row_equals_its_matrix_row(stat, design):
    m = _thirds(_matrix(design, stat))
    table = _score(m, stat)
    for j in range(m.p):
        lone = _score(ms.ExpressionMatrix(values=m.values[j:j + 1], layout=m.layout), stat)
        assert (lone.value[0], lone.p_value[0]) == (table.value[j], table.p_value[j])
        assert lone.degenerate[0] == table.degenerate[j]


@pytest.mark.parametrize("stat", STATS)
def test_row_blocks_give_the_bytes_of_each_block_scored_alone(stat, monkeypatch):
    # 2 B + 1 rows in blocks of B end in a one-row block; a constant row
    # opens the second block. ks blocks are sized by N^2 pair terms a row.
    monkeypatch.setattr(ms.matrix, "BLOCK_ELEMENTS", 1000)
    block = ms.matrix.rows_per_block(100 if stat == "ks" else 10)
    values = np.random.default_rng(12).normal(0, 1, (2 * block + 1, 10)) / 3
    values[block] = values[block, 0]
    layout = np.array([1, 2] * 5)
    table = _score(ms.ExpressionMatrix(values=values, layout=layout), stat)
    assert np.flatnonzero(table.degenerate).tolist() == [block]
    for i in range(0, len(values), block):
        alone = _score(ms.ExpressionMatrix(values=values[i:i + block], layout=layout), stat)
        for name in ("value", "p_value", "degenerate"):
            assert getattr(table, name)[i:i + block].tobytes() == getattr(alone, name).tobytes()


# scorer -> (its columns of (matrix, stacked values), its table of a matrix)
STACKED = {
    "lr": (_lr_columns, lambda m: ms.score_matrix_lr(m)),
    "lr diagnostics": (lambda m, values: _lr_columns(m, values, True),
                       lambda m: ms.score_matrix_lr(m, diagnostics=True)),
    "ks": (lambda m, values: _ks_columns(values, REPLICATES), lambda m: _score(m, "ks")),
    "ttest": (_welch_columns, lambda m: _score(m, "ttest")),
}


@pytest.mark.parametrize("scorer", sorted(STACKED))
@PROPERTY
@given(design=designs, runs=st.integers(2, 4), block_rows=st.sampled_from([1, 2, 3, 7, 100]))
@example(design=ALL_DEGENERATE, runs=2, block_rows=2)
@example(design=WIDE, runs=3, block_rows=7)
@example(design=WIDE, runs=4, block_rows=100)
def test_a_run_scored_in_a_stack_has_the_bits_it_has_alone(scorer, design, runs, block_rows):
    # benchmark scores the stacked values of runs of one design in one call
    # (DECISIONS.md D24); each run's rows must keep the bits of the run scored
    # alone, in one row block or in blocks that cut runs apart
    stat = scorer.split()[0]
    p = design[0]
    stack = _thirds(_matrix((p * runs, *design[1:]), stat))
    columns, table = STACKED[scorer]
    width = stack.N**2 if stat == "ks" else stack.N  # the row width of the scorer's blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ms.matrix, "BLOCK_ELEMENTS", block_rows * width)
        stacked = columns(stack, stack.values)
    for k in range(runs):
        run = stack.values[k * p:(k + 1) * p]
        alone = table(ms.ExpressionMatrix(values=run, layout=stack.layout))
        own = [alone.value, alone.p_value, alone.degenerate]
        if alone.fits is not None:
            own.append(alone.fits)
        assert len(stacked) == len(own)
        for column, expected in zip(stacked, own):
            assert column[k * p:(k + 1) * p].tobytes() == expected.tobytes()


@PROPERTY
@given(design=designs)
@example(design=SMALLEST)
@example(design=ALL_DEGENERATE)
@example(design=WIDE)
def test_lr_label_swap_invariance(design):
    m = _thirds(_matrix(design, "lr"))
    swapped = ms.ExpressionMatrix(values=m.values, layout=3 - m.layout)
    base, other = _score(m, "lr"), _score(swapped, "lr")
    assert np.array_equal(other.degenerate, base.degenerate)
    assert np.array_equal(other.value, base.value)
    assert np.array_equal(other.p_value, base.p_value)


# a fixed cutoff that some rows of each statistic clear, the gap rule with
# its BH fallback, and BH at a level loose enough to select
POLICIES = {"lr": ("fixed:2", "gap", "bh:0.5"), "ks": ("fixed:0.1", "gap", "bh:0.5"),
            "ttest": ("fixed:1", "gap", "bh:0.5")}


@pytest.mark.parametrize("stat", STATS)
@PROPERTY
@given(design=designs, perm_seed=st.integers(0, 2**32 - 1))
@example(design=SMALLEST, perm_seed=0)
@example(design=ALL_DEGENERATE, perm_seed=0)
@example(design=WIDE, perm_seed=0)
def test_selection_ignores_labels_and_sample_order(stat, design, perm_seed):
    # swapping the condition labels leaves every score bit for bit (Welch's
    # value is |t|), and neither a swap nor shuffling each row's samples within
    # their condition moves a bit of any policy's selection, cutoff or preview
    m = _thirds(_matrix(design, stat))
    shuffled = m.values.copy()
    rng = np.random.default_rng(perm_seed)
    for label in (1, 2):
        shuffled[:, m.layout == label] = rng.permuted(shuffled[:, m.layout == label], axis=1)
    tables = [_score(other, stat) for other in (
        m, ms.ExpressionMatrix(values=m.values, layout=3 - m.layout),
        ms.ExpressionMatrix(values=shuffled, layout=m.layout))]
    for name in ("value", "p_value", "degenerate"):
        assert getattr(tables[1], name).tobytes() == getattr(tables[0], name).tobytes()
    for spec in POLICIES[stat]:
        policy = ms.parse_policy(spec, min(m.n1, m.n2))
        base, swapped, moved = (ms.apply_policy(table, policy) for table in tables)
        for other in (swapped, moved):
            assert repr(astuple(other)) == repr(astuple(base))


@pytest.mark.parametrize("stat", STATS)
@PROPERTY
@given(design=designs, log2_a=st.integers(-4, 4), b=st.integers(-100, 100))
@example(design=SMALLEST, log2_a=3, b=-7)
@example(design=ALL_DEGENERATE, log2_a=-2, b=50)
def test_affine_invariance(stat, design, log2_a, b):
    m = _matrix(design, stat)
    mapped = ms.ExpressionMatrix(values=2.0**log2_a * m.values + b, layout=m.layout)
    base, other = _score(m, stat), _score(mapped, stat)
    assert np.array_equal(other.degenerate, base.degenerate)
    np.testing.assert_allclose(other.value, base.value, rtol=1e-9, atol=1e-9)
    if stat != "ks":  # ks p-values are steps of the null table; d is compared above
        np.testing.assert_allclose(other.p_value, base.p_value, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("N", [6, 20])
@pytest.mark.parametrize("v", [0.1, 1 / 3, 123456.789, 17.37])
def test_constant_rows_are_degenerate(N, v):
    # N copies of v need not sum to N v, so a rounded mean can miss v
    row, n = np.full(N, v), N // 2
    m = ms.ExpressionMatrix(values=np.vstack([row, np.arange(N, dtype=float)]),
                            layout=np.repeat([1, 2], n))
    lone = lr_row(row, n, n)
    assert (lone.value, lone.p_value, lone.fit_diagnostics) == (0.0, 1.0, None)
    for stat in ("lr", "ks", "ttest") if N == 20 else ("ks", "ttest"):
        table = _score(m, stat)
        assert (table.value[0], table.p_value[0], table.degenerate[0]) == (0.0, 1.0, True)
        assert not table.degenerate[1]
    for fit in (ms.fit_pooled_normal, lambda x: ms.fit_mixture_fixed_weights(x, n, n)):
        with pytest.raises(DegenerateData):
            fit(row)


def test_unknown_statistic_is_an_input_error():
    m = _matrix(SMALLEST, "ttest")
    with pytest.raises(ValueError, match="unknown statistic"):
        score_matrix(m, "auto", REPLICATES)
