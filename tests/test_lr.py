import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.stats import chi2

import markerscreen as ms
from markerscreen._rng import substream
from markerscreen.errors import DegenerateData, RegimeViolation
from markerscreen.lr import _deviance_core, _sorted_moments

from _oracles import (
    deviance_column_major_reference,
    em_multistart_reference,
    grid_best_mixture_loglik,
    mixture_loglik_oracle,
    pooled_normal_oracle,
)


# ---------------------------------------------------------------- pooled fit

def test_pooled_fit_two_symmetric_points():
    fit = ms.fit_pooled_normal([0.0, 2.0])
    assert fit.mu == 1.0
    assert fit.sigma2 == 1.0


def test_pooled_fit_zero_variance_raises():
    with pytest.raises(DegenerateData):
        ms.fit_pooled_normal([5.0, 5.0, 5.0, 5.0])


@pytest.mark.parametrize("x", [
    [1e200, -1e200, 0.0, 5.0],  # the squares overflow
    [1e308, 1e308, -1e308, -1e308],  # the sum overflows
])
def test_pooled_and_mixture_fits_reject_an_overflowing_variance(x):
    # finite samples, as deviance_lr rejects them: no inf variance, no NaN loglik
    for fit in (ms.fit_pooled_normal, lambda x: ms.fit_mixture_fixed_weights(x, 2, 2)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="pooled variance overflows"):
            fit(x)


def test_pooled_fit_matches_direct_formula_oracle():
    rng = np.random.default_rng(314)
    x = rng.normal(15.0, math.sqrt(2.23), size=20)
    mu_ref, s2_ref, ll_ref = pooled_normal_oracle(x)
    fit = ms.fit_pooled_normal(x)
    assert abs(fit.mu - mu_ref) < 1e-12
    assert abs(fit.sigma2 - s2_ref) < 1e-12
    assert abs(fit.loglik - ll_ref) < 1e-9


# ------------------------------------------------------------- mixture fit

def test_mixture_all_equal_raises():
    with pytest.raises(DegenerateData):
        ms.fit_mixture_fixed_weights([3.0] * 10, 5, 5)


def test_mixture_two_clusters_beats_grid_oracle():
    rng = np.random.default_rng(11)
    x = np.concatenate([
        np.zeros(5) + rng.uniform(-1e-3, 1e-3, 5),
        np.full(5, 10.0) + rng.uniform(-1e-3, 1e-3, 5),
    ])
    grid_best = grid_best_mixture_loglik(x, 5)

    fit = ms.fit_mixture_fixed_weights(x, 5, 5)
    lo, hi = sorted([fit.mu1, fit.mu2])
    assert abs(lo - 0.0) < 0.05
    assert abs(hi - 10.0) < 0.05
    assert fit.loglik >= grid_best - 1e-3
    pooled = ms.fit_pooled_normal(x)
    assert fit.loglik > pooled.loglik


def test_mixture_loglik_field_is_the_mixture_objective():
    rng = np.random.default_rng(21)
    x = rng.normal(0, 1, 12)
    fit = ms.fit_mixture_fixed_weights(x, 7, 5)
    ll_ref = mixture_loglik_oracle(x, 7 / 12, fit.mu1, fit.mu2,
                                   fit.sigma21, fit.sigma22)
    assert abs(fit.loglik - ll_ref) < 1e-9


def test_mixture_weights_fixed_by_design():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 10)
    fit = ms.fit_mixture_fixed_weights(x, 4, 6)
    assert fit.w1 == pytest.approx(0.4)
    assert fit.w2 == pytest.approx(0.6)


def test_mixture_nonconvergence_is_not_an_error(monkeypatch):
    monkeypatch.setattr(ms.lr, "EM_MAX_ITER", 1)
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.normal(0, 1, 6), rng.normal(8, 1, 6)])
    fit = ms.fit_mixture_fixed_weights(x, 6, 6)
    assert fit.iterations <= 1
    assert isinstance(fit.converged, bool)


def test_mixture_monotone_debug_flag():
    # the reference's debug_monotone check holds along every start of the fit
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.normal(0, 1, 8), rng.normal(3, 2, 8)])
    fit = em_multistart_reference(x, 8, 8, debug_monotone=True)
    assert ms.fit_mixture_fixed_weights(x, 8, 8) == fit
    assert fit.loglik >= ms.fit_pooled_normal(x).loglik - 1e-8


def test_mixture_single_normal_null_tail():
    # 1000 null replicates: the deviance exceeds the chi2(2) 99.9% point
    # (13.8155) in at most 1% of them.
    cutoff = chi2.isf(0.001, df=2)
    rng = np.random.default_rng(2718)
    exceed = 0
    for _ in range(1000):
        x = rng.normal(15.0, math.sqrt(0.48), size=20)
        mix = ms.fit_mixture_fixed_weights(x, 10, 10)
        pooled = ms.fit_pooled_normal(x)
        dev = 2.0 * (mix.loglik - pooled.loglik)
        if dev > cutoff:
            exceed += 1
    assert exceed <= 10


def _em_parity_rows():
    """Seeded rows of every family the batched EM must match the scalar
    reference on, each with its (n1, n2)."""
    rng = np.random.default_rng(4242)
    rows = []
    for k in range(24):
        n1, n2 = (int(n) for n in rng.integers(2, 13, size=2))
        N = n1 + n2
        outlier = rng.normal(0, 1, N)
        outlier[rng.integers(N)] = 1e4
        rows += [
            (rng.normal(15, 0.7, N), n1, n2),
            (np.concatenate([rng.normal(0, 1, n1), rng.normal(rng.uniform(2, 8), 1, n2)]), n1, n2),
            (rng.standard_cauchy(N), n1, n2),
            (np.round(rng.normal(0, 1.5, N)), n1, n2),
            (outlier, n1, n2),
            (rng.normal(0, 1, N), 1, N - 1) if k % 2 else (rng.normal(0, 1, N), N - 1, 1),
        ]
    # the benchmark's diagnose-lr rows: n = 10 + 10, shifted condition 1; in the
    # rows of seeds 649 and 799 the winning start runs to EM_MAX_ITER unconverged
    for row_rng in [rng] * 12 + [np.random.default_rng(seed) for seed in (649, 799)]:
        x = row_rng.uniform(10, 30) + row_rng.normal(0, math.sqrt(2.23), 20)
        x[:10] += math.log2(3)
        rows.append((x, 10, 10))
    # near 1e153 a variance so large that 2 pi v overflows gives its component
    # density 0, so a start stops at its first or a later step on a lost component
    for cells, n1 in (([3, 7, 11, -2], 2), ([6, -8, 3, 0], 3), ([-6, -3, -7, -3, 3, 7], 2)):
        rows.append((np.array(cells) * 1e153, n1, len(cells) - n1))
    # here every start's loglik turns NaN by step 3 and the pooled fit must win
    rows.append((np.array([0, -7, -6, -14, -13, -15]) * 1e153, 4, 2))
    return rows


@pytest.mark.parametrize("max_iter, debug_monotone", [
    (0, False), (1, False), (2, False), (3, False), (ms.lr.EM_MAX_ITER, False),
    (ms.lr.EM_MAX_ITER, True),
])
def test_mixture_matches_scalar_multistart_reference(monkeypatch, max_iter, debug_monotone):
    # the starts batched as columns of one array give the scalar loop's fit
    # exactly, in builtin types, at the cap EM_MAX_ITER = max_iter; only the
    # rows near 1e153 overflow, and the last turns NaN, on purpose: every other
    # row raises on a floating-point fault. With debug_monotone the reference
    # checks that no start's loglik falls, which fails on that last row only.
    monkeypatch.setattr(ms.lr, "EM_MAX_ITER", max_iter)
    rows = _em_parity_rows()
    capped, falls = 0, []
    for j, (x, n1, n2) in enumerate(rows):
        faults = "ignore" if np.abs(x).max() > 1e150 else "raise"
        with np.errstate(over=faults, invalid=faults, divide="raise"):
            fit = ms.fit_mixture_fixed_weights(x, n1, n2)
            try:
                reference = em_multistart_reference(x, n1, n2, max_iter=max_iter,
                                                    debug_monotone=debug_monotone)
            except AssertionError:
                falls.append(j)
                reference = em_multistart_reference(x, n1, n2, max_iter=max_iter)
        assert fit == reference
        assert [type(v) for v in astuple(fit)] == [float] * 7 + [int, bool]
        capped += fit.iterations == max_iter and not fit.converged
    assert capped >= 2  # some winning starts stop only at the iteration cap
    assert falls == ([len(rows) - 1] if debug_monotone else [])


# ----------------------------------------------------------------- deviance

def test_deviance_identical_halves_is_zero():
    score = ms.deviance_lr([0.0, 1.0, 0.0, 1.0], 2, 2)
    assert score.value == 0.0
    assert score.p_value == 1.0


def test_deviance_pvalue_closed_form():
    # chi2(2) survival is exp(-x/2); -2 ln(0.05) lands exactly on p = 0.05
    assert math.exp(-(-2.0 * math.log(0.05)) / 2.0) == pytest.approx(0.05)
    rng = np.random.default_rng(40)
    x = rng.normal(0, 1, 14)
    score = ms.deviance_lr(x, 7, 7)
    assert score.p_value == pytest.approx(math.exp(-score.value / 2.0), abs=1e-15)


def test_deviance_two_clusters_tiny_pvalue():
    rng = np.random.default_rng(12)
    x = np.concatenate([
        rng.uniform(-1e-3, 1e-3, 5),
        10.0 + rng.uniform(-1e-3, 1e-3, 5),
    ])
    score = ms.deviance_lr(x, 5, 5)
    assert score.p_value < 1e-10


def test_deviance_degenerate_data_scores_zero():
    score = ms.deviance_lr([4.0] * 12, 6, 6)
    assert score.value == 0.0
    assert score.p_value == 1.0


def test_deviance_nesting_identity():
    rng = np.random.default_rng(77)
    for _ in range(20):
        x = rng.normal(0, 1, 16) + rng.choice([0.0, 2.0]) * np.repeat([0, 1], 8)
        score = ms.deviance_lr(x, 8, 8)
        mix, pooled = score.fit_diagnostics
        assert mix.loglik >= pooled.loglik - 1e-8
        assert score.value == pytest.approx(
            max(0.0, 2.0 * (mix.loglik - pooled.loglik)), abs=1e-9)
        assert score.value >= 0.0


def test_label_swap_symmetry():
    rng = np.random.default_rng(101)
    x = np.concatenate([rng.normal(0, 1, 6), rng.normal(4, 2, 9)])
    fwd = ms.deviance_lr(x, 6, 9)
    swapped = ms.deviance_lr(np.concatenate([x[6:], x[:6]]), 9, 6)
    assert (fwd.value, fwd.p_value) == (swapped.value, swapped.p_value)
    (m1, p1), (m2, p2) = fwd.fit_diagnostics, swapped.fit_diagnostics
    assert (m1.mu1, m1.mu2, m1.sigma21, m1.sigma22) == (m2.mu2, m2.mu1, m2.sigma22, m2.sigma21)
    assert (m1.loglik, p1) == (m2.loglik, p2)


def test_affine_equivariance_of_deviance():
    rng = np.random.default_rng(55)
    x = np.concatenate([rng.normal(0, 1, 10), rng.normal(1.5, 1, 10)])
    base = ms.deviance_lr(x, 10, 10).value
    for a, b in [(2.0, 0.0), (-3.0, 7.0), (0.25, -40.0)]:
        transformed = ms.deviance_lr(a * x + b, 10, 10).value
        assert abs(transformed - base) < 1e-6


# ------------------------------------------------------------ matrix scoring

def _one_protein_matrix(x, n1):
    layout = np.array([1] * n1 + [2] * (len(x) - n1))
    return ms.ExpressionMatrix(values=np.asarray(x, float)[None, :],
                               layout=layout)


def test_score_matrix_composition_single_protein():
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.normal(0, 1, 5), rng.normal(5, 1, 5)])
    direct = ms.deviance_lr(x, 5, 5)
    via_matrix = ms.score_matrix_lr(_one_protein_matrix(x, 5))
    assert len(via_matrix) == 1
    assert via_matrix[0].value == pytest.approx(direct.value, abs=1e-12)
    assert via_matrix[0].p_value == pytest.approx(direct.p_value, abs=1e-15)


def test_row_scored_alone_matches_its_matrix_score():
    # bit for bit, fits included: a row's sums do not depend on its neighbours
    rng = np.random.default_rng(17)
    values = rng.uniform(10, 30, (40, 1)) + rng.normal(0, 1.5, (40, 20))
    m = ms.ExpressionMatrix(values=values, layout=np.array([1, 2] * 10))
    table = ms.score_matrix_lr(m, diagnostics=True)
    for j, row in enumerate(table):
        alone = ms.deviance_lr(m.row_condition_first(j), m.n1, m.n2)
        assert (alone.value, alone.p_value) == (row.value, row.p_value)
        assert alone.fit_diagnostics == row.fit_diagnostics


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_score_matrix_blocks_match_one_column_major_pass(blocks, extra):
    # p = k B - 1, k B and k B + 1 rows for blocks of B; k B + 1 ends in a
    # one-row block, which numpy alone would sum pairwise
    p = blocks * ms.matrix.rows_per_block(20) + extra
    rng = np.random.default_rng(p)
    values = rng.uniform(10, 30, (p, 1)) + rng.normal(0, 1.5, (p, 20))
    values[-2] = 7.0  # degenerate
    layout = np.array([2, 1] * 10)
    table = ms.score_matrix_lr(ms.ExpressionMatrix(values=values, layout=layout))
    dev = deviance_column_major_reference(values[:, layout.argsort(kind="stable")], 10)
    assert table.value.tobytes() == dev.tobytes()
    assert table.degenerate.tolist() == [False] * (p - 2) + [True, False]


@pytest.mark.parametrize("layout", [[1] * 10 + [2] * 10, [1, 2] * 10])
@pytest.mark.parametrize("p, diagnostics", [(100_000, False), (10_000, True), (100_000, True)])
def test_score_matrix_holds_about_one_block(layout, p, diagnostics):
    # Beside the table it returns, lr scoring holds one sample-major block and
    # column-sized arrays: 1.15-2.72 MiB. A reordered block, its transposed
    # copy and a block of deviations held together came to 4.67-5.45 MiB,
    # and a table that copied its columns to 9.54 MiB at p = 100,000 with fits.
    m = ms.ExpressionMatrix(np.random.default_rng(p).normal(20, 2, (p, 20)), np.array(layout))
    tracemalloc.start()
    try:
        table = ms.score_matrix_lr(m, diagnostics=diagnostics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (table.value, table.p_value, table.degenerate, table.fits)
               if a is not None)
    assert peak - held < 1.5 * ms.matrix.BLOCK_ELEMENTS * 8


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 9])
def test_sorted_moments_sort_every_width(N):
    # rows of 4 or fewer go through a min/max network, wider ones through numpy
    x = np.random.default_rng(N).integers(-3, 4, (500, N)) / 3
    x[:50] = x[:50, :1]  # constant rows
    xs = x.T.copy()  # sample-major, sorted in place
    mean, ss = _sorted_moments(xs)
    assert np.array_equal(xs, np.sort(x, axis=1).T)
    assert np.array_equal(ss == 0.0, (x == x[:, :1]).all(axis=1))
    np.testing.assert_allclose(mean, x.mean(axis=1), rtol=1e-15, atol=1e-15)


def test_score_table_ids_are_read_only():
    m = _one_protein_matrix(np.arange(10.0), 5)  # default ids, shared per p
    for table in (ms.score_matrix_lr(m), ms.ttest_baseline(m)):
        with pytest.raises(TypeError):
            table.ids[0] = "X"
    assert list(ms.score_matrix_lr(m).ids) == ["P0001"]


def test_score_tables_keep_their_own_explicit_ids():
    values = np.arange(20.0).reshape(2, 10) ** 2
    layout = np.array([1] * 5 + [2] * 5)
    for ids in (("A", "B"), ("C", "D"), ("A", "B")):
        m = ms.ExpressionMatrix(values=values, layout=layout, protein_ids=ids)
        assert list(ms.score_matrix_lr(m).ids) == list(ids)
        assert list(ms.ttest_baseline(m).ids) == list(ids)
    for ids in ((1, 2), (1.0, 2.0)):  # equal tuples, different ids
        table = ms.ScoreTable(ids, "deviance_lr", [0.0, 0.0], [1.0, 1.0], [True, True])
        assert list(table.ids) == [str(i) for i in ids]
    with pytest.raises(ValueError, match="one entry per protein id"):  # unhashable ids
        ms.ScoreTable((["A"], ["B"]), "deviance_lr", [0.0, 0.0], [1.0, 1.0], [True, True])


def test_score_tables_hold_the_matrix_ids_tuple_itself():
    values = np.arange(20.0).reshape(2, 10) ** 2
    layout = np.array([1] * 5 + [2] * 5)
    for ids in (("A", "B"), ()):  # explicit and default ids
        m = ms.ExpressionMatrix(values=values, layout=layout, protein_ids=ids)
        assert ms.score_matrix_lr(m).ids is m.protein_ids
        assert ms.ttest_baseline(m).ids is m.protein_ids
    m = ms.ExpressionMatrix(values=values[:, :6], layout=np.array([1, 1, 1, 2, 2, 2]))
    assert ms.score_matrix_ks(m, replicates=1000).ids is m.protein_ids


def test_score_table_checks_and_holds_its_fits():
    values = np.random.default_rng(5).normal(15.0, 1.0, (2, 10))
    m = ms.ExpressionMatrix(values=values, layout=np.array([1] * 5 + [2] * 5))
    table = ms.score_matrix_lr(m, diagnostics=True)
    split_loglik = table[0].fit_diagnostics[0].loglik
    with pytest.raises(ValueError):
        table.fits[0, 6] = 123.0
    assert table[0].fit_diagnostics[0].loglik == split_loglik
    columns = (table.ids, table.kind, table.value, table.p_value, table.degenerate)
    for fits in (np.zeros((2, 3)), np.zeros((5, 10)), np.zeros((1, 10)), np.zeros(10)):
        with pytest.raises(ValueError, match="fits needs one row of 10 per protein id"):
            ms.ScoreTable(*columns, fits)
    own = np.array(table.fits)  # a caller's array is copied, not frozen
    copy = ms.ScoreTable(*columns, own)
    own[0, 6] = 123.0
    assert copy.fits.tolist() == table.fits.tolist() and own.flags.writeable
    assert ms.ScoreTable(*columns, table.fits).fits is table.fits  # read-only: kept
    view = own.view()  # read-only, but its writable base could change it
    view.setflags(write=False)
    assert ms.ScoreTable(*columns, view).fits is not view


def test_score_table_iteration_matches_indexing():
    rng = np.random.default_rng(31)
    values = rng.normal(15.0, 1.0, (6, 10))
    values[2] = 4.0  # degenerate: no fits
    m = ms.ExpressionMatrix(values=values, layout=np.array([1] * 5 + [2] * 5))
    tables = (ms.score_matrix_lr(m, diagnostics=True), ms.score_matrix_lr(m), ms.ttest_baseline(m))
    assert tables[0].degenerate.tolist() == [False, False, True, False, False, False]
    for table in tables:
        rows = list(table)
        indexed = [table[j] for j in range(len(table))]
        assert rows == indexed and table[-1] == rows[-1]
        types = [[type(v) for v in vars(r).values()] for r in rows]
        assert types == [[type(v) for v in vars(r).values()] for r in indexed]
        for j, row in enumerate(rows):
            assert row.protein_id == f"P{j + 1:04d}"
            assert (row.value, row.p_value) == (table.value[j], table.p_value[j])
            assert types[j][2:4] == [float, float]
            if table.fits is None or table.degenerate[j]:
                assert row.fit_diagnostics is None
                continue
            split, pooled = row.fit_diagnostics
            fields = [*vars(split).values(), *vars(pooled).values()]
            assert fields == table.fits[j, :7].tolist() + [0, True] + table.fits[j, 7:].tolist()
            assert [type(v) for v in fields] == [float] * 7 + [int, bool] + [float] * 3


def test_score_matrix_small_design_raises_without_override():
    rng = np.random.default_rng(2)
    m = _one_protein_matrix(rng.normal(0, 1, 6), 3)
    with pytest.raises(RegimeViolation):
        ms.score_matrix_lr(m)


def test_score_matrix_handles_interleaved_layout():
    rng = np.random.default_rng(44)
    x = rng.normal(0, 1, 10)
    inter = ms.ExpressionMatrix(
        values=x[None, :],
        layout=np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2]),
    )
    cond1_first = np.concatenate([x[::2], x[1::2]])
    want = ms.deviance_lr(cond1_first, 5, 5).value
    got = ms.score_matrix_lr(inter)[0].value
    assert got == pytest.approx(want, abs=1e-12)


def test_score_matrix_null_tail_near_nominal(null_matrix_n10):
    scores = ms.score_matrix_lr(null_matrix_n10.matrix)
    cutoff = chi2.isf(0.05, df=2)
    frac = np.mean([s.value > cutoff for s in scores])
    assert 0.05 <= frac <= 0.11


def test_permutation_collapses_true_markers():
    lab = ms.generate(ms.preset("water-n10", seed=7))
    dev = _deviance_core(lab.matrix.n1)(lab.matrix.values.T.copy())[0]
    true_median = float(np.median(dev[lab.truth]))
    null_median = float(np.median(dev[~lab.truth]))
    assert true_median > 15.0

    perm = substream(7, "perm:907").permutation(lab.matrix.N)
    dev_perm = _deviance_core(lab.matrix.n1)(lab.matrix.values[:, perm].T.copy())[0]
    perm_true_median = float(np.median(dev_perm[lab.truth]))
    assert perm_true_median < null_median
    assert perm_true_median < 2.0


# ------------------------------------------------------- chi2(2) calibration

def _null_tail(n, alpha, replicates=20000, seed_label=None):
    rng = substream(0, seed_label or f"cal-test:{n}")
    draws = rng.standard_normal((replicates, 2 * n))
    dev = _deviance_core(n)(draws.T.copy())[0]
    return float(np.mean(dev > chi2.isf(alpha, df=2)))


@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_chi2_calibration_large_n(n, alpha):
    assert abs(_null_tail(n, alpha) - alpha) <= 0.03


@pytest.mark.xfail(
    strict=True,
    reason="n=10 exceedance at the 0.10 point measures ~0.136, outside the "
    "+-0.03 band; the statistic is anticonservative below n~15 "
    "(see decisions ledger D4)",
)
def test_chi2_calibration_n10_at_alpha10():
    assert abs(_null_tail(10, 0.10) - 0.10) <= 0.03
