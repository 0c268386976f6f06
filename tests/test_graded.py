import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frameforge.frames import (
    FrameSystem,
    PerturbationSpec,
    analysis,
    build_perturbed_basis,
    canonical_dual,
    identity_frame,
)
from frameforge.graded import (
    DistributionCoefficients,
    expansion_error_curve,
    fframe_bounds,
    fframe_bounds_estimate,
    graded_level_norm,
    graded_profile,
    pair_distribution,
    property_pg_check,
    standard_sample_set,
)
from frameforge.hermite import HermiteContext, TestFunction, project
from frameforge.weights import _log_grading, sup_graded_norm


@pytest.fixture(scope="module")
def ctx256():
    return HermiteContext(nmax=256)


def perturbed(n, value=0.5):
    system, _ = build_perturbed_basis(PerturbationSpec.constant([value], n=n), n)
    return system


# -------------------------------------------------------------------- profiles


def test_profile_delta1_flat():
    c = np.zeros(8)
    c[0] = 1.0
    prof = graded_profile(c, "poly", levels=range(4))
    assert prof.norms == (1.0, 1.0, 1.0, 1.0)


def test_profile_delta2_powers_of_two():
    c = np.zeros(8)
    c[1] = 1.0
    prof = graded_profile(c, "poly", levels=range(3))
    np.testing.assert_allclose(prof.norms, (1.0, 2.0, 4.0), rtol=1e-12)


def test_profile_monotone_in_level():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.standard_normal(64)
        prof = graded_profile(c, "poly")
        assert all(x <= y for x, y in zip(prof.norms, prof.norms[1:]))
        prof2 = graded_profile(c, "subexp", beta=0.5)
        assert all(x <= y for x, y in zip(prof2.norms, prof2.norms[1:]))


def test_profile_divergence_with_truncation():
    # e^{-n} coefficients: a level below the decay rate saturates under
    # N-doubling, a level above it keeps growing (the divergence flag proxy)
    n1 = np.arange(1, 65, dtype=float)
    n2 = np.arange(1, 129, dtype=float)
    low_small = graded_level_norm(np.exp(-n1), "subexp", 0.5, beta=1.0)
    low_big = graded_level_norm(np.exp(-n2), "subexp", 0.5, beta=1.0)
    hi_small = graded_level_norm(np.exp(-n1), "subexp", 2, beta=1.0)
    hi_big = graded_level_norm(np.exp(-n2), "subexp", 2, beta=1.0)
    assert abs(low_big - low_small) < 1e-6 * low_small
    assert hi_big > 1e10 * hi_small


def test_profile_overflow_guard():
    # level-10 exponential weight at n=512 would overflow term by term
    c = np.exp(-np.arange(1, 513, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the true norms, e^{4608} and 2^1100, are past 1e308: inf, with no warning
        assert graded_level_norm(c, "subexp", 10, beta=1.0) == math.inf
        assert sup_graded_norm(c, "subexp", 10, beta=1.0) == math.inf
        assert sup_graded_norm(np.array([0.0, 1.0]), "poly", 1100) == math.inf
    smaller = graded_level_norm(c * 1e-280, "subexp", 10, beta=1.0)
    assert math.isfinite(smaller)


def _mp_graded_norms(c, family, k, beta):
    """(l2, sup) graded norms of c at 50 digits, with the weight formed in mpmath."""
    with mpmath.workdps(50):
        n = [mpmath.mpf(i) for i in range(1, c.size + 1)]
        weights = [i ** k if family == "poly" else mpmath.exp(k * i ** beta) for i in n]
        terms = [abs(mpmath.mpf(float(x))) * w for x, w in zip(c, weights)]
        return float(mpmath.sqrt(mpmath.fsum(t * t for t in terms))), float(max(terms))


_magnitudes = st.one_of(st.just(0.0), st.floats(-200.0, 100.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
# log|c_37| and the log weight 11.3 * 37^0.9 cancel; each is rounded on its own
@example(c=np.r_[np.zeros(36), math.exp(-11.3 * 37 ** 0.9)], family="subexp", k=11.3, beta=0.9)
@given(
    c=st.lists(st.tuples(_magnitudes, st.booleans()), min_size=1, max_size=40).map(
        lambda xs: np.array([-m if neg else m for m, neg in xs])
    ),
    family=st.sampled_from(["poly", "subexp"]),
    k=st.floats(0.0, 12.0),
    beta=st.floats(0.05, 1.0),
)
def test_graded_norms_match_mpmath(c, family, k, beta):
    want_l2, want_sup = _mp_graded_norms(c, family, k, beta)
    assume(want_l2 < 1e300)
    n = np.arange(1, c.size + 1, dtype=float)
    nonzero = c != 0.0
    # log|c_n| and the log weight l_n are rounded apart, and exp carries their errors
    logs = np.abs(np.log(np.abs(c[nonzero]))) + _log_grading(n[nonzero], family, k, beta)
    unit = 4 * np.finfo(float).eps * (1.0 + np.max(logs, initial=0.0))
    assert abs(graded_level_norm(c, family, k, beta) - want_l2) <= unit * want_l2
    assert abs(sup_graded_norm(c, family, k, beta) - want_sup) <= unit * want_sup


@settings(max_examples=300, deadline=None)
@example(c=np.array([1e-300]), family="poly", k=0.0, beta=1.0)
@example(c=np.r_[np.zeros(36), math.exp(-11.3 * 37 ** 0.9)], family="subexp", k=11.3, beta=0.9)
@given(
    c=st.lists(st.tuples(_magnitudes, st.booleans()), min_size=1, max_size=40).map(
        lambda xs: np.array([-m if neg else m for m, neg in xs])
    ),
    family=st.sampled_from(["poly", "subexp"]),
    k=st.floats(0.0, 12.0),
    beta=st.floats(0.05, 1.0),
)
def test_graded_norms_match_mpmath_within_the_error_of_the_weights(c, family, k, beta):
    # the product |c_n| e^{l_n} carries only the error of exp at the log weight
    # l_n, not that of log|c_n|: the bound has no |log|c_n|| term
    want_l2, want_sup = _mp_graded_norms(c, family, k, beta)
    assume(want_l2 < 1e300)
    l = _log_grading(np.arange(1, c.size + 1, dtype=float), family, k, beta)
    unit = 4 * np.finfo(float).eps * (1.0 + np.max(l[c != 0.0], initial=0.0))
    assert abs(graded_level_norm(c, family, k, beta) - want_l2) <= unit * want_l2
    assert abs(sup_graded_norm(c, family, k, beta) - want_sup) <= unit * want_sup


def test_profile_validation():
    with pytest.raises(ValueError):
        graded_profile(np.ones(4), "poly", levels=[2, 1])
    with pytest.raises(ValueError):
        graded_level_norm(np.ones(4), "poly", -1)
    with pytest.raises(ValueError):
        graded_level_norm(np.ones(4), "nope", 1)


def test_profile_json_form():
    prof = graded_profile(np.ones(4), "subexp", levels=[0, 1], beta=0.5)
    d = prof.to_json()
    assert d["family"] == "subexp" and d["beta"] == 0.5
    assert d["levels"] == [0.0, 1.0]
    assert len(d["norms"]) == 2


# ---------------------------------------------------------------- F-frame


def test_fframe_bounds_onb_unit(ctx256):
    samples = standard_sample_set(ctx256, 64, count=10, seed=0)
    for k in range(0, 6):
        lo, hi = fframe_bounds_estimate(identity_frame(64), samples, "poly", k)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)


def test_fframe_bounds_perturbed_level0(ctx256):
    samples = standard_sample_set(ctx256, 256, count=30, seed=1)
    lo, hi = fframe_bounds_estimate(perturbed(256), samples, "poly", 0)
    assert 0.5 - 1e-9 <= lo <= hi <= 1.5 + 1e-9


def test_fframe_bounds_monte_carlo_stability(ctx256):
    system = perturbed(256)
    s500 = standard_sample_set(ctx256, 256, count=500, seed=2)
    s1000 = standard_sample_set(ctx256, 256, count=1000, seed=3)
    for k in (0, 2):
        lo1, hi1 = fframe_bounds_estimate(system, s500, "poly", k)
        lo2, hi2 = fframe_bounds_estimate(system, s1000, "poly", k)
        assert abs(lo2 - lo1) <= 0.1 * lo1
        assert abs(hi2 - hi1) <= 0.1 * hi1


@pytest.mark.parametrize("family, k", [("poly", 0.0), ("poly", 3.0), ("subexp", 2.0)])
def test_fframe_bounds_match_per_sample_loop(ctx256, family, k):
    system = perturbed(256)
    samples = standard_sample_set(ctx256, 256, count=20, seed=7)
    coeffs = analysis(system, np.asarray(samples))
    ratios = [
        graded_level_norm(a, family, k, 0.5) / graded_level_norm(f, family, k, 0.5)
        for a, f in zip(coeffs, samples)
    ]
    lo, hi = fframe_bounds_estimate(system, samples, family, k, beta=0.5)
    assert (lo, hi) == (min(ratios), max(ratios))


def test_standard_sample_set_needs_no_hermite_context(ctx256, monkeypatch):
    # its two Gaussians come from their closed form, so no quadrature table is built
    with_context = standard_sample_set(ctx256, 256, count=20, seed=7)

    def refuse(*args, **kwargs):
        raise AssertionError("a HermiteContext was built")

    monkeypatch.setattr(HermiteContext, "__init__", refuse)
    without = standard_sample_set(None, 256, count=20, seed=7)
    assert len(without) == len(with_context)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(without, with_context))


def test_fframe_bounds_zero_norm_sample_rejected():
    with pytest.raises(ValueError):
        fframe_bounds_estimate(identity_frame(8), [np.zeros(8)], "poly", 1)


@st.composite
def _localized_systems(draw, max_n):
    """I + a noise e^{-rate |m - n|}, real or complex, full or one-sided, at a random N in 16..max_n."""
    n = draw(st.integers(16, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    noise = rng.standard_normal((n, n))
    if draw(st.booleans()):
        noise = noise + 1j * rng.standard_normal((n, n))
    # a triangular system tells the grading D from D^-1, where a full one is symmetric in law
    noise = draw(st.sampled_from([lambda x: x, np.triu, np.tril]))(noise)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FrameSystem(np.eye(n) + draw(st.floats(0.05, 0.3)) * noise * np.exp(-draw(st.floats(1.0, 2.5)) * d))


_gradings = st.tuples(
    st.sampled_from(["poly", "subexp"]), st.floats(0.0, 4.0), st.floats(0.0, 1.0, exclude_min=True)
)


def _level_log_weights(n, family, k, beta):
    return _log_grading(np.arange(1, n + 1, dtype=float), family, k, beta)


@settings(max_examples=40, deadline=None)
@given(e=_localized_systems(128), grading=_gradings)
def test_fframe_bracket_contains_the_singular_values_and_every_sampled_ratio(ctx256, e, grading):
    # analysis acts on level-k norms as D conj(E) D^-1, D = diag(e^l)
    family, k, beta = grading
    lower, upper = fframe_bounds(e, family, k, beta)
    l = _level_log_weights(e.n, family, k, beta)
    sv = np.linalg.svd(np.exp(np.subtract.outer(l, l)) * e.matrix.conj(), compute_uv=False)
    slack = 1e-12
    assert sv[0] <= upper * (1 + slack)
    # a computed singular value lies within about N eps sigma_max of the exact one
    assert lower <= sv[-1] * (1 + slack) + e.n * np.finfo(float).eps * sv[0]
    lo, hi = fframe_bounds_estimate(e, standard_sample_set(ctx256, e.n), family, k, beta)
    assert lower <= lo * (1 + slack) and hi <= upper * (1 + slack)


@settings(max_examples=10, deadline=None)
@given(e=_localized_systems(32), grading=_gradings)
def test_fframe_bracket_contains_the_mpmath_singular_values(e, grading):
    family, k, beta = grading
    lower, upper = fframe_bounds(e, family, k, beta)
    l = _level_log_weights(e.n, family, k, beta)
    # cond(D conj(E) D^-1) <= e^{2 (max l - min l)} cond(E): enough digits for sigma_min
    with mpmath.workdps(30 + math.ceil(2 * (l.max() - l.min()) / math.log(10))):
        scale = [mpmath.exp(mpmath.mpf(x)) for x in l]
        m = mpmath.matrix(e.n, e.n)
        for i in range(e.n):
            for j in range(e.n):
                m[i, j] = scale[i] * mpmath.conj(mpmath.mpmathify(e.matrix[i, j])) / scale[j]
        sv = (mpmath.svd_c if np.iscomplexobj(e.matrix) else mpmath.svd_r)(m, compute_uv=False)
        slack = mpmath.mpf(1e-12)
        assert mpmath.mpf(lower) <= min(sv) * (1 + slack)
        assert max(sv) <= mpmath.mpf(upper) * (1 + slack)


@pytest.mark.parametrize("family, beta", [("poly", 1.0), ("subexp", 1.0), ("subexp", 0.5)])
def test_fframe_bracket_of_an_onb_closes_at_one(family, beta):
    # at N = 256 the subexp weights e^{4 n} pass the double range
    for n in (64, 256):
        for k in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert fframe_bounds(identity_frame(n), family, k, beta) == (1.0, 1.0)


@pytest.mark.parametrize("family, beta", [("poly", 1.0), ("subexp", 1.0), ("subexp", 0.5)])
def test_fframe_bracket_of_the_half_shift_narrows_with_the_level(family, beta):
    # ||I + 0.5 S|| <= 1.5 and ||(I + 0.5 S)^-1|| <= 2, and the level-0 Schur bounds reach both.
    # E and E^-1 are upper triangular and the grading grows, so D |E| D^-1 <= |E| entrywise.
    system = perturbed(256)
    lower, upper = fframe_bounds(system, family, 0.0, beta)
    assert lower == pytest.approx(0.5, rel=1e-15) and upper == pytest.approx(1.5, rel=1e-15)
    for k in (0.5, 1.0, 2.0, 4.0):
        lo, hi = fframe_bounds(system, family, k, beta)
        assert lower * (1 - 1e-15) <= lo <= hi <= upper * (1 + 1e-15)


# ---------------------------------------------------------------- expansion


def test_expansion_error_finite_combination(ctx256):
    system = perturbed(64)
    f = project(ctx256, TestFunction.hermite_combo([0.0, 0.0, 1.0]), 64)
    errs = expansion_error_curve(f, system, "poly", 2, [4, 8, 16, 64])
    assert np.all(errs < 1e-12)


def test_expansion_error_zero_function():
    system = perturbed(32)
    errs = expansion_error_curve(np.zeros(32), system, "poly", 1, [8, 16, 32])
    assert np.all(errs == 0.0)


def test_expansion_error_gaussian_monotone(ctx256):
    system = perturbed(256)
    f = project(ctx256, TestFunction.gaussian(3.0), 256)
    checkpoints = [4, 8, 16, 32, 64, 128, 256]
    for k in range(5):
        errs = expansion_error_curve(f, system, "poly", k, checkpoints)
        assert np.all(np.diff(errs) <= 1e-10)
        assert errs[-1] < 1e-8


@pytest.mark.parametrize("family, k, beta", [("poly", 0.0, 1.0), ("poly", 4.0, 1.0), ("subexp", 1.5, 0.5)])
def test_expansion_errors_are_level_norms_of_each_residual(ctx256, family, k, beta):
    system = perturbed(128)
    f = project(ctx256, TestFunction.gaussian(3.0), 128)
    checkpoints = [4, 16, 64, 100, 128]
    dual, a = canonical_dual(system), analysis(system, f)
    want = [graded_level_norm(f - dual.matrix[:m, :].T @ a[:m], family, k, beta) for m in checkpoints]
    got = expansion_error_curve(f, system, family, k, checkpoints, beta=beta)
    assert got.tobytes() == np.asarray(want).tobytes()


def test_expansion_checkpoint_validation():
    with pytest.raises(ValueError):
        expansion_error_curve(np.ones(16), identity_frame(16), "poly", 0, [8, 4])
    with pytest.raises(ValueError):
        expansion_error_curve(np.ones(16), identity_frame(16), "poly", 0, [20])


# ------------------------------------------------------------------- pairing


def test_pair_distribution_single_terms(ctx256):
    n = 64
    b = DistributionCoefficients(b=np.eye(1, n, 0).ravel(), q=0.0, c=1.0)
    f = project(ctx256, TestFunction.gaussian(1.0), n)
    out = pair_distribution(b, f, "poly")
    assert out.value.real == pytest.approx(math.pi ** 0.25, abs=1e-10)
    assert out.value.imag == 0.0

    idx = np.arange(1, n + 1, dtype=float)
    b2 = DistributionCoefficients(b=idx ** 2, q=2.0, c=1.0)
    f2 = np.zeros(n)
    f2[4] = 1.0
    assert pair_distribution(b2, f2, "poly").value.real == pytest.approx(25.0)


def test_pair_distribution_two_truncations_within_tail(ctx512=None):
    ctx = HermiteContext(nmax=512)
    idx_small = np.arange(1, 257, dtype=float)
    idx_big = np.arange(1, 513, dtype=float)
    f_small = project(ctx, TestFunction.gaussian(3.0), 256)
    f_big = project(ctx, TestFunction.gaussian(3.0), 512)
    b_small = DistributionCoefficients(b=idx_small, q=1.0, c=1.0)
    b_big = DistributionCoefficients(b=idx_big, q=1.0, c=1.0)
    out_small = pair_distribution(b_small, f_small, "poly")
    out_big = pair_distribution(b_big, f_big, "poly")
    assert abs(out_big.value - out_small.value) <= out_small.tail_bound + 1e-12


def test_pair_distribution_bilinear():
    rng = np.random.default_rng(9)
    n = 64
    decay = np.exp(-np.arange(1, n + 1, dtype=float))
    f1 = rng.standard_normal(n) * decay
    f2 = rng.standard_normal(n) * decay
    b_vals = rng.standard_normal(n)
    b = DistributionCoefficients(b=b_vals, q=0.0, c=float(np.max(np.abs(b_vals)) + 1))
    v1 = pair_distribution(b, f1, "poly").value
    v2 = pair_distribution(b, f2, "poly").value
    v12 = pair_distribution(b, 2.0 * f1 + f2, "poly").value
    assert abs(v12 - (2.0 * v1 + v2)) < 1e-12 * max(1.0, abs(v12))
    b2 = DistributionCoefficients(b=3.0 * b_vals, q=0.0, c=3 * float(np.max(np.abs(b_vals)) + 1))
    v3 = pair_distribution(b2, f1, "poly").value
    assert abs(v3 - 3.0 * v1) < 1e-12 * max(1.0, abs(v3))


def test_pair_distribution_non_summable_rejected():
    n = 64
    idx = np.arange(1, n + 1, dtype=float)
    b = DistributionCoefficients(b=idx ** 3, q=3.0, c=1.0)
    slow = 1.0 / idx ** 2  # poly order 1 cannot dominate growth 3
    with pytest.raises(ValueError, match="non-summable"):
        pair_distribution(b, slow, "poly")


def test_distribution_growth_validated():
    n = 64
    idx = np.arange(1, n + 1, dtype=float)
    b = DistributionCoefficients(b=idx ** 3, q=1.0, c=1.0)
    with pytest.raises(ValueError, match="growth"):
        b.validate_growth("poly")
    # the bound e^{2 n} passes the double range at n = 355; it is compared in log space
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DistributionCoefficients(b=np.ones(512), q=2.0, c=1.0).validate_growth("subexp")
        with pytest.raises(ValueError, match="growth"):
            DistributionCoefficients(b=np.exp(2.0 * idx) * 1.01, q=2.0, c=1.0).validate_growth("subexp")


# ------------------------------------------------------------- P_(g_n) check


def test_property_pg_onb_identical():
    rep = property_pg_check(identity_frame(128), "poly", trials=10, seed=0)
    assert rep.all_matched


def test_property_pg_perturbed_exponential():
    rep = property_pg_check(perturbed(256), "subexp", trials=10, seed=1, beta=1.0)
    assert rep.all_matched
    for rate, g_f, g_a, ok in rep.details:
        assert abs(g_a - g_f) <= 0.1 * g_f


def test_property_pg_perturbed_poly():
    rep = property_pg_check(perturbed(256), "poly", trials=10, seed=2)
    assert rep.all_matched
