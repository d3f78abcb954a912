"""Property tests: invariances of the three scorers, run through the one
scorer table (evaluate.score_matrix).

Matrices hold values from a small-integer grid, so ties are common, some
rows are constant (degenerate), and a map a*x + b with a a power of two and
b an integer is exact: degeneracy and ties survive it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markerscreen as ms
from markerscreen.evaluate import score_matrix

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
STATS = ("lr", "ks", "ttest")
pytestmark = pytest.mark.filterwarnings("ignore:small-sample KS scoring")  # ks at n >= 5
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
    assert np.array_equal(moved.ids, base.ids[perm])
    assert np.array_equal(moved.value, base.value[perm])
    assert np.array_equal(moved.p_value, base.p_value[perm])
    assert np.array_equal(moved.degenerate, base.degenerate[perm])


@PROPERTY
@given(design=designs)
@example(design=SMALLEST)
@example(design=ALL_DEGENERATE)
def test_lr_label_swap_invariance(design):
    m = _matrix(design, "lr")
    swapped = ms.ExpressionMatrix(values=m.values, layout=3 - m.layout)
    base, other = _score(m, "lr"), _score(swapped, "lr")
    assert np.array_equal(other.degenerate, base.degenerate)
    np.testing.assert_allclose(other.value, base.value, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(other.p_value, base.p_value, rtol=1e-9, atol=1e-12)


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


def test_unknown_statistic_is_an_input_error():
    m = _matrix(SMALLEST, "ttest")
    with pytest.raises(ValueError, match="unknown statistic"):
        score_matrix(m, "auto", REPLICATES)
