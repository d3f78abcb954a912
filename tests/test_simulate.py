import math

import numpy as np
import pytest

import markerscreen as ms
from markerscreen.errors import InvalidSpec

from _policies import select


def _spec(**overrides):
    base = dict(p=50, n_true=5, n_per_condition=4, mu=15.0,
                sigma2_F=0.98, error_law=ms.ErrorLaw.normal(0.48),
                fold_change=math.log2(3.0), seed=1)
    base.update(overrides)
    return ms.SimSpec(**base)


def test_generate_shapes_layout_and_truth():
    lab = ms.generate(_spec())
    m = lab.matrix
    assert m.values.shape == (50, 8)
    assert m.n1 == m.n2 == 4
    assert list(m.layout) == [1] * 4 + [2] * 4
    assert lab.truth.sum() == 5
    assert len(lab.truth_map()) == 50


def test_generate_same_seed_bit_identical():
    a = ms.generate(_spec(seed=77))
    b = ms.generate(_spec(seed=77))
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert np.array_equal(a.truth, b.truth)
    c = ms.generate(_spec(seed=78))
    assert not np.array_equal(a.matrix.values, c.matrix.values)


def test_plain_rows_have_equal_condition_effects():
    # shrink every noise source so the condition effect dominates exactly
    spec = _spec(p=400, n_true=40, sigma2_F=1e-14,
                 error_law=ms.ErrorLaw.normal(1e-14), seed=5)
    lab = ms.generate(spec)
    m = lab.matrix
    mean1 = m.values[:, :4].mean(axis=1)
    mean2 = m.values[:, 4:].mean(axis=1)
    diff = mean1 - mean2
    assert np.all(np.abs(diff[~lab.truth]) < 1e-5)
    assert np.allclose(diff[lab.truth], math.log2(3.0), atol=1e-5)


def test_true_rows_use_small_uniform_effect_range():
    # true-marker condition effects come from U[1,10] (plain rows use
    # U[1,100]), so quiet true rows sit in a narrow absolute band
    spec = _spec(p=2000, n_true=1000, sigma2_F=1e-14,
                 error_law=ms.ErrorLaw.normal(1e-14), seed=9)
    lab = ms.generate(spec)
    m2 = lab.matrix.values[:, 4:].mean(axis=1)  # mu + (1 + U)
    true_u = m2[lab.truth] - spec.mu - 1.0
    plain_u = m2[~lab.truth] - spec.mu - 1.0
    assert true_u.min() >= 1.0 - 1e-6 and true_u.max() <= 10.0 + 1e-6
    assert plain_u.max() > 50.0  # wide range for the plain draw
    assert plain_u.min() >= 0.0 - 1e-6  # plain rows carry U directly


def test_marginal_mean_of_plain_rows():
    # mean of a plain cell = mu + E[U[1,100]] = 15 + 50.5
    spec = _spec(p=10000, n_true=0, n_per_condition=10, seed=3)
    lab = ms.generate(spec)
    grand = float(lab.matrix.values.mean())
    per_protein_var = (99.0 ** 2) / 12.0 + 0.98 + 0.48 / 20.0
    se = math.sqrt(per_protein_var / 10000.0)
    assert abs(grand - 65.5) < 3.0 * se


def test_error_law_switch_preserves_effect_draws():
    # same seed, different error law: rows shift by the error term only.
    # shrink both error scales so the shared effect structure shows through
    quiet_normal = ms.generate(_spec(error_law=ms.ErrorLaw.normal(1e-18)))
    quiet_cauchy = ms.generate(
        _spec(error_law=ms.ErrorLaw.cauchy(15.0, 1e-9)))
    gap = quiet_cauchy.matrix.values - quiet_normal.matrix.values
    assert np.allclose(gap, 15.0, atol=1e-5)  # the Cauchy location offset
    assert np.array_equal(quiet_normal.truth, quiet_cauchy.truth)


def test_error_laws_draw_with_documented_shapes():
    rng = np.random.default_rng(0)
    chi = ms.ErrorLaw.chisq(2.0).draw(rng, 200000)
    assert abs(chi.mean() - 2.0) < 0.05  # chi-square df=2 left un-centered
    assert chi.min() >= 0.0
    normal = ms.ErrorLaw.normal(0.48).draw(rng, 200000)
    assert abs(normal.mean()) < 0.01
    assert abs(normal.var() - 0.48) < 0.02
    cauchy = ms.ErrorLaw.cauchy(15.0, 2.0).draw(rng, 200000)
    assert abs(np.median(cauchy) - 15.0) < 0.05  # location, not mean


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        _spec(n_true=51)  # more true markers than proteins
    with pytest.raises(InvalidSpec):
        _spec(sigma2_F=0.0)
    with pytest.raises(InvalidSpec):
        _spec(fold_change=0.0)
    with pytest.raises(InvalidSpec):
        _spec(p=0)
    with pytest.raises(InvalidSpec):
        ms.ErrorLaw.normal(-1.0)


def test_preset_catalog():
    cat = ms.presets()
    assert set(cat) == {
        "water-n10", "human-n10", "water-n3", "human-n3",
        "cauchy-n10", "chisq-n10", "cauchy-n3", "chisq-n3",
    }
    for name, spec in cat.items():
        assert spec.p == 1000
        assert spec.n_true == 30
        assert spec.fold_change == pytest.approx(math.log2(3.0))
        assert spec.n_per_condition == (10 if name.endswith("n10") else 3)
    assert cat["water-n10"].error_law == ms.ErrorLaw.normal(0.48)
    assert cat["human-n10"].error_law == ms.ErrorLaw.normal(2.23)
    assert cat["cauchy-n10"].error_law == ms.ErrorLaw.cauchy(15.0, 2.0)
    assert cat["chisq-n10"].error_law == ms.ErrorLaw.chisq(2.0)
    assert cat["water-n10"].mu == 15.0
    assert cat["water-n10"].sigma2_F == 0.98


def test_preset_lookup_with_seed():
    spec = ms.preset("human-n3", seed=123)
    assert spec.seed == 123
    assert spec.n_per_condition == 3
    with pytest.raises(InvalidSpec):
        ms.preset("no-such-preset")


def test_null_preset_calibrates_like_reference_table(null_matrix_n10):
    # generator + scorer round trip: null tail near the n=10 reference row
    from scipy.stats import chi2
    scores = ms.score_matrix_lr(null_matrix_n10.matrix)
    frac = float(np.mean([s.value > chi2.isf(0.05, 2) for s in scores]))
    assert 0.05 <= frac <= 0.11


@pytest.mark.xfail(
    strict=True,
    reason="heavy-tailed errors flood the top ranks with null rows, so the "
    "drop lands far from the planted count (see decisions ledger D4)",
)
def test_cauchy_preset_gap_lands_near_true_count():
    lab = ms.generate(ms.preset("cauchy-n10", seed=0))
    scores = ms.score_matrix_lr(lab.matrix)
    res = select(scores, "gap_knee")
    assert 27 <= len(res.selected) <= 33
