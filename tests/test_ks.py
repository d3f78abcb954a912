import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import markerscreen as ms
import markerscreen.evaluate
import markerscreen.ks
from markerscreen.cli import RunConfig
from markerscreen.errors import DegenerateData
from markerscreen.evaluate import score_matrix
from markerscreen.ks import _d_rows, _mc_pvalue, _null_table, _sorted_quantile
from markerscreen.lr import _by_row_blocks

from _oracles import bandwidth_oracle, kernel_cdf_oracle, ks_d_oracle, ks_kernel_mean_reference
from _scoring import ks_d, ks_p


# ---------------------------------------------------------------- bandwidth

def test_bandwidth_matches_direct_formula():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(6)
    ref = bandwidth_oracle(x)
    assert abs(ms.ks.select_bandwidth(x) - ref) < 1e-12


def test_bandwidth_scale_equivariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(8)
    h = ms.ks.select_bandwidth(x)
    for c in (0.1, 3.0, 250.0):
        assert ms.ks.select_bandwidth(c * x) == pytest.approx(c * h, rel=1e-12)


def test_bandwidth_constant_sample_raises():
    with pytest.raises(DegenerateData):
        ms.ks.select_bandwidth([1.0, 1.0, 1.0])


@pytest.mark.parametrize("N", range(3, 31))
def test_sorted_row_quantiles_match_percentile(N):
    rng = np.random.default_rng(100 + N)
    rows = np.vstack([rng.normal(0, 3, (40, N)), np.round(rng.normal(0, 1, (40, N)))])
    q75, q25 = np.percentile(rows, [75, 25], axis=1)
    xs = np.sort(rows, axis=1)
    np.testing.assert_allclose(_sorted_quantile(xs, 0.75), q75, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_sorted_quantile(xs, 0.25), q25, rtol=1e-12, atol=0)


def test_single_sample_rejects_non_finite_or_overflowing_spread():
    for x in ([1.0, 2.0, np.nan], [1.0, 2.0, 4.0, np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            ms.ks.select_bandwidth(x)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        ms.ks.select_bandwidth([1e200, 0.0, 1.0, 2.0])


def test_bandwidth_zero_iqr_falls_back_to_sd():
    # more than half the points tied: IQR = 0 but s > 0
    x = np.array([5.0, 5.0, 5.0, 5.0, 5.0, 9.0])
    s = float(np.std(x, ddof=1))
    assert ms.ks.select_bandwidth(x) == pytest.approx(1.06 * s * 6 ** (-0.2))


# --------------------------------------------------------------- kernel CDF

def test_kernel_cdf_symmetry_half():
    est = ms.ks.KernelEstimate(centers=np.array([-2.0, -1.0, 1.0, 2.0]),
                               bandwidth=0.7)
    assert ms.ks.kernel_cdf(est, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_kernel_cdf_upper_limit():
    est = ms.ks.KernelEstimate(centers=np.array([0.0, 4.0, -3.0]), bandwidth=1.0)
    assert ms.ks.kernel_cdf(est, 1e9) == pytest.approx(1.0, abs=1e-12)


def test_kernel_cdf_single_center_is_normal_cdf():
    ref = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # 0.8413...
    est = ms.ks.KernelEstimate(centers=np.array([0.0]), bandwidth=1.0)
    assert ms.ks.kernel_cdf(est, 1.0) == pytest.approx(ref, abs=1e-12)
    assert ref == pytest.approx(0.8413447460685429)


def test_kernel_cdf_matches_loop_oracle():
    rng = np.random.default_rng(23)
    centers = rng.normal(2.0, 3.0, 9)
    h = 0.9
    est = ms.ks.KernelEstimate(centers=centers, bandwidth=h)
    for t in (-1.0, 0.0, 2.5, 7.0):
        ref = kernel_cdf_oracle(centers, h, t)
        assert abs(float(ms.ks.kernel_cdf(est, t)) - ref) < 1e-12


def test_kernel_cdf_rejects_a_bad_bandwidth_or_center():
    centers = np.array([0.0, 1.0, 2.0])
    for h in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            ms.ks.kernel_cdf(ms.ks.KernelEstimate(centers=centers, bandwidth=h), 0.5)
    with pytest.raises(ValueError, match="centers finite"):
        ms.ks.kernel_cdf(ms.ks.KernelEstimate(centers=np.array([0.0, np.nan, 2.0]),
                                              bandwidth=1.0), 0.5)


def test_kernel_cdf_monotone_on_grid():
    rng = np.random.default_rng(31)
    est = ms.ks.KernelEstimate(centers=rng.normal(0, 1, 7), bandwidth=0.5)
    grid = np.linspace(-4, 4, 200)
    vals = ms.ks.kernel_cdf(est, grid)
    assert np.all(np.diff(vals) >= 0)


# ------------------------------------------------------------- d statistic

def test_ks_d_matches_loop_oracle():
    rng = np.random.default_rng(37)
    x = rng.normal(1.0, 2.0, 6)
    ref = ks_d_oracle(x)
    assert abs(ks_d(x) - ref) < 1e-12
    assert ms.ks.select_bandwidth(x) == pytest.approx(bandwidth_oracle(x))


@pytest.mark.parametrize("N", [3, 4, 6, 8, 20])
def test_ks_d_rows_match_loop_oracle_across_families(N):
    rng = np.random.default_rng(200 + N)
    repeated = rng.normal(0, 1, (65, N))
    repeated[:, 1] = repeated[:, 0]
    rows = np.vstack([
        rng.normal(5, 2, (65, N)),
        rng.standard_cauchy((65, N)),
        np.round(rng.normal(0, 2, (65, N))),  # ties
        rng.chisquare(3, (65, N)),
        repeated,
    ])
    rows = rows[np.ptp(rows, axis=1) > 0]
    assert len(rows) >= 300
    d, h, _ = _by_row_blocks(rows, np.arange(N), N * N, _d_rows)
    for x, got_d, got_h in zip(rows, d, h):
        assert abs(got_d - ks_d_oracle(x)) < 1e-12
        assert got_h == pytest.approx(bandwidth_oracle(x), rel=1e-12)


@pytest.mark.parametrize("N", [3, 4, 6, 8, 20, 30, 50])
def test_d_rows_match_the_full_kernel_reference(N):
    # pair-segment sums against the (rows, N^2) kernel averaged by numpy
    rng = np.random.default_rng(300 + N)
    rows = np.vstack([
        rng.normal(5, 2, (100, N)),
        rng.standard_cauchy((100, N)),
        np.round(rng.normal(0, 2, (100, N))),  # ties
        rng.chisquare(3, (100, N)),
        np.full((2, N), 4.0),  # flat
        np.full((2, N), 1e200) * np.arange(N),  # s overflows
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        d, h, _ = _by_row_blocks(rows, np.arange(N), N * N, _d_rows)
        d_ref, h_ref, _ = ks_kernel_mean_reference(rows)
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(h, h_ref, rtol=1e-14, atol=0)
    assert np.all(d[-4:-2] == 0.0) and np.all(h[-4:-2] == 0.0)
    assert np.isnan(d[-2:]).all() and np.isnan(h[-2:]).all()


@pytest.mark.parametrize("N", [3, 4, 5, 6, 8, 10, 20, 40])
def test_scorer_d_uses_the_kernel_cdf_that_acceptance_6_checks(N):
    # d, summed from pair segments, against kernel_cdf at the sample points
    # minus the fitted normal. Rows are centred near 0: far from it in sd
    # units the mean's rounding dominates d's error (DECISIONS.md D18).
    rng = np.random.default_rng(400 + N)
    rows = np.vstack([
        rng.normal(0, 1, (50, N)),
        rng.standard_cauchy((50, N)),
        np.round(rng.normal(0, 2, (50, N))),  # ties
    ])
    worst = 0.0
    for x in rows[np.ptp(rows, axis=1) > 0]:
        est = ms.ks.KernelEstimate(centers=x, bandwidth=ms.ks.select_bandwidth(x))
        kernel = ms.ks.kernel_cdf(est, x)
        fitted = norm.cdf((x - x.mean()) / x.std())
        worst = max(worst, abs(ks_d(x) - np.abs(kernel - fitted).max()))
    assert worst <= 1e-14


def test_d_blocks_memory_stays_below_one_full_kernel():
    # 20,000 x 20 is 31 blocks of 655 rows. Summing pair segments peaks at
    # 0.97 MiB with d, h and degenerate as outputs; building each block's
    # (655, 400) kernel (2 MiB) peaked at 3.76 MiB.
    rows = np.random.default_rng(81).normal(0, 1, (20_000, 20))
    tracemalloc.start()
    try:
        d, _, _ = _by_row_blocks(rows, np.arange(20), 20 * 20, _d_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(d).all()
    assert peak < 2 * 2**20


def test_ks_needs_three_observations():
    values = np.random.default_rng(61).normal(0, 1, (5, 2))
    with pytest.raises(ValueError, match="need at least 3 observations"):
        score_matrix(_matrix(values, 1), "ks", 1000)
    for N in (1, 2):
        with pytest.raises(ValueError, match="need at least 3 observations"):
            ks_p(0.5, N, 1000)


def test_ks_d_near_normal_quantiles_is_small():
    probs = (np.arange(1, 10) - 0.5) / 9.0
    x = norm.ppf(probs)
    assert ks_d(x) < 0.10


@pytest.mark.xfail(
    strict=True,
    reason="two tight 3+3 clusters measure d ~ 0.09 at any separation: the "
    "reference bandwidth over-smooths the kernel CDF toward the fitted "
    "normal at N=6 (see decisions ledger D4)",
)
def test_ks_d_separated_clusters_exceeds_015():
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.uniform(-1e-3, 1e-3, 3),
                        10.0 + rng.uniform(-1e-3, 1e-3, 3)])
    assert ks_d(x) > 0.15


def test_ks_d_affine_invariance():
    rng = np.random.default_rng(43)
    x = rng.normal(0, 1, 6)
    d0 = ks_d(x)
    for a, b in [(2.0, 1.0), (0.5, -3.0), (100.0, 7.0)]:
        assert abs(ks_d(a * x + b) - d0) < 1e-9


# ----------------------------------------------------------- Lilliefors MC

def test_lilliefors_degenerate_endpoints():
    assert ks_p(0.0, 6, 1000) == 1.0
    assert ks_p(1.0, 6, 1000) == pytest.approx(1.0 / 1001.0)


def test_mc_pvalue_matches_brute_force_count():
    rng = np.random.default_rng(67)
    table = np.sort(rng.choice(np.linspace(0.01, 0.5, 40), 1000))  # tied entries
    d = np.concatenate([
        table[[0, 7, 500, 999]],  # equal to entries
        table[[500, 500, 7]],  # repeated
        [0.0, table[0] - 1e-12],  # below the minimum
        [0.9, table[-1] + 1e-12],  # above the maximum
        rng.uniform(0.0, 0.6, 50),
    ])
    d = d[rng.permutation(len(d))]
    brute = np.array([(1 + np.sum(table >= v)) / (table.size + 1) for v in d])
    assert _mc_pvalue(table, d).tobytes() == brute.tobytes()


def test_lilliefors_median_self_consistency():
    table = _null_table(6, 10000)
    med = float(np.median(table))
    p = ks_p(med, 6, 10000)
    assert abs(p - 0.5) < 0.05


def test_lilliefors_null_stream_is_pinned():
    # the table is drawn from substream(0, "ks-null:N:replicates"), the
    # stream seed 0 used when the table was also keyed by a seed
    assert ks_p(0.11, 6, 2000) == 0.08595702148925537


def test_lilliefors_deterministic_given_seed():
    a = ks_p(0.11, 6, 2000)
    b = ks_p(0.11, 6, 2000)
    assert a == b


# ------------------------------------------------------------ matrix scoring

def _matrix(values, n1):
    n2 = values.shape[1] - n1
    return ms.ExpressionMatrix(values=values,
                               layout=np.array([1] * n1 + [2] * n2))


def test_score_matrix_ks_composition_single_protein():
    rng = np.random.default_rng(47)
    x = rng.normal(0, 1, 6)
    direct_d = ks_d(x)
    direct_p = ks_p(direct_d, 6, 2000)
    got = score_matrix(_matrix(x[None, :], 3), "ks", 2000)
    assert len(got) == 1
    assert got[0].statistic_kind == "ks_d"
    assert got[0].value == pytest.approx(direct_d, abs=1e-12)
    assert got[0].p_value == pytest.approx(direct_p, abs=1e-15)


def test_score_matrix_ks_rejects_too_few_replicates():
    values = np.random.default_rng(59).normal(0, 1, (4, 6))
    with pytest.raises(ValueError, match="at least 1000 replicates"):
        score_matrix(_matrix(values, 3), "ks", 999)
    assert len(score_matrix(_matrix(values, 3), "ks", 1000)) == 4


def test_ks_replicates_default_to_one_constant():
    values = np.random.default_rng(73).normal(0, 1, (50, 6))
    default = score_matrix(_matrix(values, 3), "ks")
    pinned = score_matrix(_matrix(values, 3), "ks", 10000)
    for column in ("value", "p_value", "degenerate"):
        assert getattr(default, column).tobytes() == getattr(pinned, column).tobytes()
    assert RunConfig("score").replicates == ms.ks.DEFAULT_REPLICATES == 10000


def test_score_matrix_ks_degenerate_row():
    rng = np.random.default_rng(53)
    values = np.vstack([np.full(6, 2.0), rng.normal(0, 1, 6)])
    got = score_matrix(_matrix(values, 3), "ks", 1000)
    assert got[0].value == 0.0
    assert got[0].p_value == 1.0
    assert got[1].value > 0.0


def test_score_matrix_ks_blocks_match_one_d_rows_call():
    # two full row blocks and a one-row tail, with a flat row opening the second
    block = ms.matrix.rows_per_block(6 * 6)
    values = np.random.default_rng(71).normal(0, 1, (2 * block + 1, 6))
    values[block] = 3.0
    got = score_matrix(_matrix(values, 3), "ks", 1000)
    scored = np.arange(len(values)) != block
    d, _, _ = _by_row_blocks(values[scored], np.arange(6), 1, _d_rows)  # one block
    assert got.value[scored].tobytes() == d.tobytes()
    assert got.value[block] == 0.0 and np.flatnonzero(got.degenerate).tolist() == [block]


@pytest.mark.parametrize("n", [3, 4])
def test_score_matrix_ks_bytes_independent_of_layout_and_sample_order(n):
    # DECISIONS.md D15: each row is sorted once into a C-ordered copy, so
    # neither the memory layout nor the column order changes a bit of d or p
    values = np.random.default_rng(3).normal(0, 1, (200, 2 * n))
    m = _matrix(values, n)
    order = np.random.default_rng(4).permutation(2 * n)
    copies = [
        _matrix(np.asfortranarray(values), n),
        ms.ExpressionMatrix(values=values[:, order], layout=m.layout[order]),
    ]
    ref = score_matrix(m, "ks", 1000)
    for copy in copies:
        got = score_matrix(copy, "ks", 1000)
        assert got.value.tobytes() == ref.value.tobytes()
        assert got.p_value.tobytes() == ref.p_value.tobytes()


def test_ks_in_the_lr_regime_warns_on_no_design():
    # the CLI's stat: lines report a statistic outside its regime; the
    # library scorers, and bench running them, stay silent
    rng = np.random.default_rng(59)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score_matrix(_matrix(rng.normal(0, 1, (2, 12)), 6), "ks", 1000)
        report = ms.evaluate.benchmark(["ks+gap"], ["water-n10"], runs=1, ks_replicates=1000)
    assert [r.error for r in report.runs] == [None]


def test_score_matrix_ks_null_calibration_and_uniformity():
    rng = np.random.default_rng(2024)
    values = rng.standard_normal((5000, 6))
    scores = score_matrix(_matrix(values, 3), "ks", 10000)
    pvals = np.sort([s.p_value for s in scores])
    frac = float(np.mean(pvals <= 0.05))
    assert abs(frac - 0.05) <= 0.02
    # Kolmogorov distance of the p-values to Uniform[0,1]
    k = pvals.size
    upper = np.max(np.arange(1, k + 1) / k - pvals)
    lower = np.max(pvals - np.arange(0, k) / k)
    assert max(upper, lower) < 0.03


@pytest.mark.xfail(
    strict=True,
    reason="heavy-tailed small-n matrices rank many null rows above true "
    "markers, so the sorted curve has no sharp drop near the true count "
    "(see decisions ledger D4)",
)
def test_score_matrix_ks_cauchy_sorted_drop_near_true_count():
    lab = ms.generate(ms.preset("cauchy-n3"))
    scores = score_matrix(lab.matrix, "ks", 2000)
    vals = np.sort([s.value for s in scores])[::-1]
    ratios = vals[:99] / vals[1:100]
    drop_at = int(np.argmax(ratios)) + 1
    assert 27 <= drop_at <= 33
