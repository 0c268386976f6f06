import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from frameforge import envelopes, frames, graded, weights
from frameforge.envelopes import DecayEnvelope, TruncatedMatrix, envelope_value, fit_decay, p_series, schur_bound
from frameforge.frames import (
    FrameSystem,
    PerturbationSpec,
    analysis,
    build_perturbed_basis,
    canonical_dual,
    cross_gram,
    dual_localization_check,
    frame_bounds,
    identity_frame,
    jaffard_predict,
    spectral_norm,
    synthesis,
    verify_example_inequalities,
    verify_inverse_decay,
    weighted_operator_norms,
)
from frameforge.weights import Weight


def perturbed(n, value=0.5):
    spec = PerturbationSpec.constant([value], n=n)
    system, _ = build_perturbed_basis(spec, n)
    return system


def tridiagonal(n, off=0.3, margin=-1):
    m = np.eye(n) + off * np.eye(n, k=1) + off * np.eye(n, k=-1)
    return TruncatedMatrix(m, margin=margin)


# ---------------------------------------------------------------- gram / ops


def test_cross_gram_of_onb_is_identity():
    onb = identity_frame(16)
    np.testing.assert_array_equal(cross_gram(onb, onb).entries, np.eye(16))


def test_cross_gram_perturbed_vs_onb_pattern():
    n = 16
    system = perturbed(n, 0.3)
    g = cross_gram(system, identity_frame(n)).entries
    expected = np.eye(n) + 0.3 * np.eye(n, k=1)
    np.testing.assert_allclose(g, expected, atol=1e-15)


def test_self_gram_hermitian_psd():
    rng = np.random.default_rng(0)
    system = FrameSystem(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    g = cross_gram(system, system).entries
    np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(g)) > -1e-10


def test_analysis_identity_and_oracle():
    n = 32
    onb = identity_frame(n)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(n)
    np.testing.assert_array_equal(analysis(onb, f), f)

    system = perturbed(128)
    f = rng.standard_normal(128)
    got = analysis(system, f)
    # oracle: direct inner products row by row
    expected = np.array([np.sum(f * np.conj(system.matrix[m])) for m in range(128)])
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_synthesis_identity_delta_and_bound():
    n = 64
    system = perturbed(n)
    c = np.zeros(n)
    c[3] = 1.0
    np.testing.assert_array_equal(synthesis(system, c), system.matrix[3])
    rng = np.random.default_rng(2)
    smax = np.linalg.svd(system.matrix, compute_uv=False)[0]
    for _ in range(20):
        c = rng.standard_normal(n)
        assert np.linalg.norm(synthesis(system, c)) <= smax * np.linalg.norm(c) * (1 + 1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        analysis(identity_frame(8), np.ones(9))
    with pytest.raises(ValueError):
        synthesis(identity_frame(8), np.ones(9))
    with pytest.raises(ValueError):
        cross_gram(identity_frame(8), identity_frame(9))


# ---------------------------------------------------------------- bounds / S


def test_frame_bounds_onb():
    a, b = frame_bounds(identity_frame(16))
    assert a == 1.0 and b == 1.0


def test_frame_bounds_perturbed_within_shift_window():
    a, b = frame_bounds(perturbed(256))
    assert a >= 0.25 - 1e-8
    assert b <= 2.25 + 1e-8


def test_frame_bounds_scaling():
    system = perturbed(64)
    scaled = FrameSystem(2.0 * system.matrix)
    a, b = frame_bounds(system)
    a2, b2 = frame_bounds(scaled)
    assert a2 == pytest.approx(4 * a, rel=1e-12)
    assert b2 == pytest.approx(4 * b, rel=1e-12)


def frame_operator(e):
    """Matrix of S f = sum_n <f, e_n> e_n on Hermite coordinates: column j is the synthesis of the analysis of e_j."""
    return synthesis(e, analysis(e, np.eye(e.n))).T


def test_frame_operator_onb_and_eigenvalue_range():
    np.testing.assert_array_equal(frame_operator(identity_frame(8)), np.eye(8))
    system = perturbed(64)
    s = frame_operator(system)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-14)
    eigs = np.linalg.eigvalsh(s)
    a, b = frame_bounds(system)
    assert eigs.min() >= a - 1e-10 and eigs.max() <= b + 1e-10


def test_frame_operator_matches_accumulation_oracle():
    system = perturbed(48, 0.4)
    acc = np.zeros((48, 48))
    for row in system.matrix:
        acc += np.outer(row, row.conj())  # coefficient form of <., e_n> e_n
    np.testing.assert_allclose(frame_operator(system), acc, atol=1e-12)


# ---------------------------------------------------------------- dual frame


def test_canonical_dual_of_onb_is_onb():
    d = canonical_dual(identity_frame(12))
    np.testing.assert_allclose(d.matrix, np.eye(12), atol=1e-14)


def test_canonical_dual_biorthogonality():
    system = perturbed(128)
    d = canonical_dual(system)
    assert canonical_dual(system) is d  # solved once per system
    g = cross_gram(d, system).entries
    assert np.max(np.abs(g - np.eye(128))) < 1e-8


def test_reconstruction_from_dual():
    system = perturbed(128)
    d = canonical_dual(system)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = rng.standard_normal(128)
        recon = synthesis(system, analysis(d, f))
        assert np.linalg.norm(recon - f) <= 1e-8 * np.linalg.norm(f)


def test_canonical_dual_scaling_inverse():
    system = perturbed(32)
    d = canonical_dual(system)
    d_scaled = canonical_dual(FrameSystem(2.0 * system.matrix))
    np.testing.assert_array_equal(d_scaled.matrix, d.matrix / 2.0)


def test_canonical_dual_complex_system():
    n = 64
    a = np.full((1, n), 0.3j)
    spec = PerturbationSpec(r=1, a=a, eps=(0.3,))
    system, _ = build_perturbed_basis(spec, n)
    assert np.iscomplexobj(system.matrix)
    dual = canonical_dual(system)
    gram = cross_gram(dual, system).entries
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    rng = np.random.default_rng(21)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    recon = synthesis(system, analysis(dual, f))
    assert np.linalg.norm(recon - f) <= 1e-10 * np.linalg.norm(f)


def test_canonical_dual_rank_deficient_rejected():
    mat = np.eye(16)
    mat[7, 7] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        canonical_dual(FrameSystem(mat))


def test_dual_localization_banded_primal_sentinel_exponential_dual():
    system = perturbed(128)
    rep = dual_localization_check(system, beta=1.0)
    assert math.isinf(rep.primal.gamma)  # strictly banded
    assert rep.dual.gamma > 0
    # dual of I + 0.5 shift decays like 2^{-d}: rate ln 2
    assert rep.dual.gamma == pytest.approx(math.log(2.0), rel=1e-6)


def test_dual_localization_poly_mode_runs():
    system = perturbed(96, 0.4)
    rep = dual_localization_check(system, poly=True)
    assert rep.dual.gamma > 0


# ------------------------------------------------------------- perturbations


def test_perturbation_spec_validation_messages():
    with pytest.raises(ValueError, match="eps sum >= 1"):
        PerturbationSpec.constant([0.6, 0.5], n=8)
    with pytest.raises(ValueError, match="first-row sum > 1"):
        PerturbationSpec(r=1, a=np.array([[1.2, 0.1]]), eps=(0.5,))
    with pytest.raises(ValueError, match="entry exceeds eps"):
        PerturbationSpec(r=1, a=np.array([[0.1, 0.7]]), eps=(0.5,))


def test_build_perturbed_zero_is_onb():
    spec = PerturbationSpec.constant([0.0], n=16)
    system, dropped = build_perturbed_basis(spec, 16)
    np.testing.assert_array_equal(system.matrix, np.eye(16))
    assert dropped == 1  # the n = N shift term falls off the truncation


def test_build_perturbed_small_matrix_rows():
    spec = PerturbationSpec.constant([0.5], n=4)
    system, dropped = build_perturbed_basis(spec, 4)
    expected = np.eye(4) + 0.5 * np.eye(4, k=1)
    np.testing.assert_array_equal(system.matrix, expected)
    assert dropped == 1


def test_build_perturbed_two_shifts_admissible():
    rng = np.random.default_rng(4)
    n = 64
    a = np.vstack(
        [
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-0.2, 0.2, n),
        ]
    )
    a[0, 0], a[1, 0] = 0.3, 0.2
    spec = PerturbationSpec(r=2, a=a, eps=(0.3, 0.2))
    system, dropped = build_perturbed_basis(spec, n)
    assert dropped == 3
    lo, _ = frame_bounds(system)
    assert lo > 0


def test_example_inequalities_identity_case():
    spec = PerturbationSpec.constant([0.0], n=64)
    rep = verify_example_inequalities(spec, 64, trials=50, seed=0)
    assert rep.all_hold
    assert rep.contraction_max == 0.0
    assert rep.upper_max == pytest.approx(1.0, rel=1e-12)


def test_example_inequalities_half_perturbation():
    spec = PerturbationSpec.constant([0.5], n=256)
    rep = verify_example_inequalities(spec, 256, trials=200, seed=1)
    assert rep.all_hold


def _example_inequalities_per_trial(spec, n, trials, seed):
    """Reference: one vector, one matrix-vector product and three norms per trial."""
    system, _ = build_perturbed_basis(spec, n)
    c_factor = (3.0 + sum(spec.eps)) / 4.0
    rng = np.random.default_rng(seed)
    contraction, upper, lower = 0.0, 0.0, math.inf
    for _ in range(trials):
        f = rng.standard_normal(n)
        f /= np.linalg.norm(f)
        uf = system.matrix.T @ f
        norm_uf = np.linalg.norm(uf)
        contraction = max(contraction, np.linalg.norm(uf - f) / (c_factor * (norm_uf + 1.0)))
        upper = max(upper, norm_uf)
        if abs(f[0]) > 0:
            lower = min(lower, norm_uf / abs(f[0]))
    return contraction, upper, lower


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 300])
def test_example_inequalities_match_per_trial_loop(trials):
    spec = PerturbationSpec(r=2, a=np.array([[0.3, -0.2] * 48, [0.1, 0.25] * 48]), eps=(0.3, 0.25))
    rep = verify_example_inequalities(spec, 96, trials, seed=4)
    expected = _example_inequalities_per_trial(spec, 96, trials, seed=4)
    assert rep.trials == trials
    got = (rep.contraction_max, rep.upper_max, rep.lower_min)
    assert got == pytest.approx(expected, rel=1e-13, abs=0)


def test_example_adversarial_first_basis_vector():
    n = 64
    system = perturbed(n)
    f = np.zeros(n)
    f[0] = 1.0
    uf = synthesis(system, f)
    assert np.linalg.norm(uf) == pytest.approx(math.sqrt(1 + 0.25), rel=1e-12)
    assert 1.0 <= np.linalg.norm(uf) <= 3.0


# ------------------------------------------------------------ spectral norms


def _rank_one_dominated(n):
    rng = np.random.default_rng(6)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    return rng.standard_normal((n, n)) / n + 3.0 * np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: np.random.default_rng(5).standard_normal((60, 60)), id="random-60"),
        pytest.param(lambda: _rank_one_dominated(300), id="rank-one-300"),
        # no spectral gap: the top singular values of I + 0.5 S crowd near 1.5
        pytest.param(lambda: np.eye(300) + 0.5 * np.eye(300, k=1), id="gapless-shift-300"),
    ],
)
def test_spectral_norm_matches_svd(build):
    m = build()
    assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)


# ------------------------------------------------------------------- jaffard


def test_jaffard_identity_limit():
    a = TruncatedMatrix(np.eye(64))
    rep = jaffard_predict(a, beta=1.0, gamma=1.0)
    assert rep.r_contraction == 0.0
    gpp, eps = rep.gamma_dprime, rep.eps_free
    assert rep.gamma1_pred == pytest.approx(min(gpp * (1 - eps), eps * gpp), rel=1e-12)
    assert rep.k_split > 1.0
    check = verify_inverse_decay(a, rep)
    assert check.violations == 0


def test_jaffard_diagonal_scaling_trivial():
    a = TruncatedMatrix(2.0 * np.eye(64))
    rep = jaffard_predict(a, beta=1.0, gamma=1.0)
    check = verify_inverse_decay(a, rep)
    assert check.violations == 0
    assert check.max_inverse_entry == 0.5


def test_jaffard_tridiagonal_pipeline():
    n = 300
    a = tridiagonal(n, margin=32)
    gamma = math.log(1 / 0.3)
    rep = jaffard_predict(a, beta=1.0, gamma=gamma)
    # eigenvalues of the symmetric Toeplitz band: 1 + 0.6 cos(k pi / (N+1)), k = 1..N
    lam_max = 1.0 + 0.6 * math.cos(math.pi / (n + 1))
    lam_min = 1.0 + 0.6 * math.cos(n * math.pi / (n + 1))
    assert rep.norm_aas == pytest.approx(lam_max ** 2, rel=1e-12)
    assert rep.r_contraction == pytest.approx(1.0 - (lam_min / lam_max) ** 2, rel=1e-12)
    assert 0 < rep.r_contraction < 1
    assert 0 < rep.gamma1_pred < rep.gamma_prime
    assert rep.c_class == pytest.approx(1.0, rel=1e-12)
    check = verify_inverse_decay(a, rep)
    assert check.violations == 0
    assert check.gamma_fit_inverse >= rep.gamma1_pred
    # the inverse of this Toeplitz band decays at rate ln 3
    assert check.gamma_fit_inverse == pytest.approx(math.log(3.0), rel=1e-6)


def test_jaffard_free_parameters_validated():
    a = TruncatedMatrix(np.eye(32))
    with pytest.raises(ValueError):
        jaffard_predict(a, beta=1.0, gamma=1.0, gamma_prime=1.5)
    with pytest.raises(ValueError):
        jaffard_predict(a, beta=1.0, gamma=1.0, gamma_dprime=0.9)
    with pytest.raises(ValueError):
        jaffard_predict(a, beta=1.0, gamma=1.0, eps_free=1.0)


def test_jaffard_singular_matrix_rejected():
    mat = np.eye(32)
    mat[5, 5] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        jaffard_predict(TruncatedMatrix(mat), beta=1.0, gamma=1.0)


def test_jaffard_random_class_members_never_violate():
    # diagonally dominant random band members of the class: the predicted
    # inverse envelope must hold entrywise, whatever the draw
    rng = np.random.default_rng(77)
    n = 200
    gamma = math.log(1 / 0.2)
    for _ in range(5):
        off1 = 0.2 * rng.uniform(-1, 1, n - 1)
        off2 = 0.04 * rng.uniform(-1, 1, n - 2)
        mat = np.eye(n) + np.diag(off1, 1) + np.diag(off1, -1) + np.diag(off2, 2) + np.diag(off2, -2)
        a = TruncatedMatrix(mat, margin=25)
        rep = jaffard_predict(a, beta=1.0, gamma=gamma)
        check = verify_inverse_decay(a, rep)
        assert check.violations == 0


def test_jaffard_rejects_class_violator():
    m = np.eye(64)
    m[0, 63] = 0.9  # nonzero far off the band where the envelope underflows
    with pytest.raises(ValueError, match="decay class"):
        jaffard_predict(TruncatedMatrix(m, margin=0), beta=1.0, gamma=12.0)


def test_jaffard_report_consistency_invariants():
    a = tridiagonal(128)
    rep = jaffard_predict(a, beta=1.0, gamma=math.log(1 / 0.3))
    assert rep.c1 == pytest.approx(1.0 + rep.c_aas / rep.norm_aas, rel=1e-12)
    assert rep.k_split == pytest.approx(2.0 * rep.c1 * rep.p_split, rel=1e-12)
    assert rep.p_split == pytest.approx(
        p_series(rep.gamma_prime - rep.gamma_dprime, rep.beta), rel=1e-12
    )


# Exact oracle: A = I + t(S + S^T) with 0 < t < 1/2 has the closed-form inverse
# (A^-1)_ij = (-t)^|i-j| theta_{min(i,j)-1} theta_{N-max(i,j)} / theta_N, where
# theta_k = theta_{k-1} - t^2 theta_{k-2}, theta_0 = 1, theta_{-1} = 0 (Meurant,
# 1992), and its entries decay at the sharp rate ln(1/|rho|), with |rho| =
# 2t / (1 + sqrt(1 - 4t^2)) (Demko, Moss & Smith, 1984).  Below t = 1e-90
# fewer than 3 distances of the inverse stay above the fitting floor.
_toeplitz_t = st.floats(min_value=1e-90, max_value=0.45)


def exact_tridiagonal_inverse_abs(t, n, idx):
    """|A^-1| at the 1-based indices ``idx`` x ``idx``, evaluated in mpmath."""
    with mp.workdps(40):
        t = mp.mpf(t)
        theta = [mp.mpf(0), mp.mpf(1)]  # theta_{-1}, theta_0
        for _ in range(n):
            theta.append(theta[-1] - t * t * theta[-2])

        def entry(i, j):
            return t ** abs(i - j) * theta[min(i, j)] * theta[n - max(i, j) + 1] / theta[n + 1]

        return np.array([[float(abs(entry(i, j))) for j in idx] for i in idx])


def sharp_toeplitz_rate(t) -> float:
    with mp.workdps(40):
        t = mp.mpf(t)
        return float(mp.log((1 + mp.sqrt(1 - 4 * t * t)) / (2 * t)))


@settings(max_examples=12, deadline=None)
@given(t=_toeplitz_t, n=st.integers(16, 128))
def test_jaffard_prediction_dominates_exact_toeplitz_inverse(t, n):
    a = tridiagonal(n, off=t)
    rep = jaffard_predict(a, beta=1.0, gamma=1.0)
    assert rep.gamma1_pred <= sharp_toeplitz_rate(t)
    idx = a.window_indices()
    env = DecayEnvelope("jaffard", gamma=rep.gamma1_pred, beta=1.0, c=rep.c_inv_pred)
    bound = envelope_value(env, idx[:, None], idx[None, :])
    assert np.all(bound >= exact_tridiagonal_inverse_abs(t, n, idx))
    assert verify_inverse_decay(a, rep).violations == 0


@settings(max_examples=20, deadline=None)
@given(t=_toeplitz_t, n=st.integers(256, 512))
def test_fit_decay_of_toeplitz_inverse_recovers_sharp_rate(t, n):
    # at N = 128 and below the window's edge effects bias the fit (1e-9 at
    # N = 128, 7e-6 at N = 64 for t = 0.45)
    inv = TruncatedMatrix(np.linalg.inv(tridiagonal(n, off=t).entries))
    assert fit_decay(inv, 1.0).gamma == pytest.approx(sharp_toeplitz_rate(t), rel=1e-12)


# Gram spectra.  I + t(S + S^T) is symmetric with eigenvalues
# 1 + 2t cos(k pi / (N+1)), k = 1..N, so its Gram matrix has their squares.


def exact_toeplitz_gram_extremes(t, n):
    with mp.workdps(40):
        lam = [(1 + 2 * mp.mpf(t) * mp.cos(k * mp.pi / (n + 1))) ** 2 for k in (1, n)]
        return float(min(lam)), float(max(lam))


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=0.45, exclude_min=True), n=st.integers(16, 512))
def test_frame_bounds_match_toeplitz_closed_form(t, n):
    lo, hi = frame_bounds(FrameSystem(tridiagonal(n, off=t)))
    want_lo, want_hi = exact_toeplitz_gram_extremes(t, n)
    assert lo == pytest.approx(want_lo, rel=1e-12, abs=0)
    assert hi == pytest.approx(want_hi, rel=1e-12, abs=0)


def shift_gram_eigenvalue(t, n, k=1):
    """The k-th smallest eigenvalue of E^T E, E = I + tS, at 50 digits, by Sturm-count bisection.

    E^T E is tridiagonal with diagonal (1, 1+t^2, ..., 1+t^2) and
    off-diagonal t, and its spectrum lies in [0, (1+t)^2].  k = 1 gives
    sigma_min^2, k = n gives sigma_max^2.
    """
    with mp.workdps(50):
        t = mp.mpf(t)
        diag = [mp.mpf(1)] + [1 + t * t] * (n - 1)

        def below(x):  # eigenvalues of E^T E below x: negative pivots of E^T E - x I
            count, q = 0, mp.mpf(1)
            for i, d in enumerate(diag):
                q = d - x - (t * t / q if i else 0)
                q = q or mp.mpf(10) ** -100
                count += q < 0
            return count

        lo, hi = mp.mpf(0), (1 + t) ** 2
        for _ in range(180):  # 2^-180 (1+t)^2 is below 1e-50
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) >= k else (mid, hi)
        return lo


@settings(max_examples=10, deadline=None)
@given(t=st.floats(min_value=0.9, max_value=1.0), n=st.integers(16, 128))
def test_lower_frame_bound_of_near_singular_shift_matches_mpmath(t, n):
    # sigma_min of I + tS shrinks like 1/N as t -> 1; a computed Gram
    # eigenvalue is good to N eps lambda_max
    lo, hi = frame_bounds(FrameSystem(np.eye(n) + t * np.eye(n, k=1)))
    assert lo > 0
    assert abs(mp.mpf(lo) - shift_gram_eigenvalue(t, n)) <= n * np.finfo(float).eps * hi


@st.composite
def _rank_deficient(draw):
    """A random N x N product of N x (N-1) and (N-1) x N factors, real or complex."""
    n = draw(st.integers(4, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x, y = rng.standard_normal((n, n - 1)), rng.standard_normal((n - 1, n))
    else:
        x = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
        y = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
    return x @ y


@settings(max_examples=40, deadline=None)
@given(m=_rank_deficient())
def test_rank_deficient_product_rejected_by_dual_and_jaffard(m):
    # the computed smallest Gram eigenvalue is rounding noise near eps lambda_max,
    # often positive and far above RANK_TOL^2, so only the N eps lambda_max term rejects it
    with pytest.raises(np.linalg.LinAlgError):
        canonical_dual(FrameSystem(m))
    with pytest.raises(np.linalg.LinAlgError):
        jaffard_predict(TruncatedMatrix(m), beta=1.0, gamma=1.0)


# The shifted-Cholesky certificate of full rank.  It may refuse, but when it
# accepts, the exact Gram eigenvalues pass the rank rule, and so do the
# computed ones, which decide every rejection.


def _gram(e):
    return frames._gram_product(TruncatedMatrix(e), True, "the Gram matrix E^H E")


def _certified_soundly(e, exact_extremes) -> bool:
    """The certificate's verdict on E; when it holds, checked against ``exact_extremes()`` of E^H E."""
    if not frames._certify_full_rank(e):
        return False
    lam_min, lam_max = exact_extremes()
    assert lam_min > max(frames.RANK_TOL ** 2, e.shape[0] * np.finfo(float).eps * lam_max)
    lam = np.linalg.eigvalsh(_gram(e))
    assert frames._full_rank(lam[0], lam[-1], e.shape[0])
    return True


def sandwich(n, sigma_min, cplx, seed):
    """Q1 diag(geomspace(2, sigma_min, n)) Q2^T with Q1, Q2 orthogonal, or unitary when ``cplx``."""
    rng = np.random.default_rng(seed)

    def q():
        z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
        return np.linalg.qr(z)[0]

    return q() @ np.diag(np.geomspace(2.0, sigma_min, n)) @ q().T


def mpmath_gram_extremes(e):
    """sigma_min^2 and sigma_max^2 of E from 40-digit singular values."""
    with mp.workdps(40):
        sv = (mp.svd_c if np.iscomplexobj(e) else mp.svd_r)(mp.matrix(e.tolist()), compute_uv=False)
        return min(sv) ** 2, max(sv) ** 2


@settings(max_examples=10, deadline=None)
@given(t=st.floats(min_value=0.9, max_value=1.0), n=st.integers(16, 128))
def test_full_rank_certificate_on_near_singular_shift_against_sturm(t, n):
    # sigma_min of I + tS is at least about 1/N here, well within the certificate's reach
    e = np.eye(n) + t * np.eye(n, k=1)
    assert _certified_soundly(e, lambda: (shift_gram_eigenvalue(t, n), shift_gram_eigenvalue(t, n, n)))


@settings(max_examples=10, deadline=None)
@given(
    log_sigma_min=st.floats(min_value=-9.0, max_value=-1.0),
    n=st.integers(8, 32),
    cplx=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(log_sigma_min=-4.0, n=32, cplx=True, seed=1)
@example(log_sigma_min=-9.0, n=32, cplx=False, seed=2)
def test_full_rank_certificate_on_sandwiches_against_mpmath(log_sigma_min, n, cplx, seed):
    e = sandwich(n, 10.0 ** log_sigma_min, cplx, seed)
    _certified_soundly(e, lambda: mpmath_gram_extremes(e))


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [16, 128, 512])
def test_full_rank_certificate_holds_up_to_condition_1e3(n, cplx):
    assert frames._certify_full_rank(sandwich(n, 2e-3, cplx, seed=n))


def test_full_rank_certificate_defers_when_its_norms_overflow():
    # G = 1e308 I is finite but ||E||_F^2 is not; the eigenvalues then decide
    e = 1e154 * np.eye(16)
    assert not frames._certify_full_rank(e)
    np.testing.assert_array_equal(canonical_dual(FrameSystem(e)).matrix, np.linalg.inv(e))


def test_full_rank_certificate_charges_each_margin(monkeypatch):
    # A Cholesky that completes proves lambda_min >= sigma - gamma~_{N+1} ||R||_F^2
    # - u (max g_ii + sigma) - gamma~_N ||E||_F^2.  Substitute factors R of chosen
    # size for E = I: one that leaves more than the formation (Weyl) margin above
    # tau certifies; one that leaves half of it, or a far larger one, does not.
    n, u = 16, 2.0 ** -53

    def gamma_tilde(k):
        return 3 * k * u / (1 - 3 * k * u)

    tau = n * 2 * u * (1 + gamma_tilde(n) * n)  # ||I||_F^2 = n, Schur bound of I = 1
    weyl = gamma_tilde(n) * n

    def verdict(spare):
        """The certificate on I when the factor's backward-error charge leaves ``spare`` above tau."""

        def cholesky(h):
            sigma = 1.0 - float(h[0, 0])  # H = I - sigma I, rounded
            charge = sigma - tau - u * (1.0 + sigma) - spare
            return math.sqrt(charge / gamma_tilde(n + 1) / n) * np.eye(n)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", cholesky)
            return frames._certify_full_rank(np.eye(n))

    assert frames._certify_full_rank(np.eye(n))
    assert verdict(2.0 * weyl)
    assert not verdict(0.5 * weyl)
    assert not verdict(-1e3 * weyl)


# Extreme Gram eigenvalues by bisection on the band.  Each converged point
# lies within 4 eps ||G|| of the exact eigenvalue, and each proven end on its
# side of it, against closed forms and 40-digit oracles.

EPS = np.finfo(float).eps


def _mp_positive_definite(g, b, shift, sign=1):
    """Whether sign G - shift I is positive definite, G held as the mpmath lists of its b + 1 lower diagonals."""
    n = len(g[0])
    window = [([mp.mpf(0)] * (b + 1), mp.mpf(1))] * b
    for i in range(n):
        x, new = sign * mp.re(g[0][i]) - shift, [mp.mpf(0)] * (b + 1)
        for k in range(b, 0, -1):
            left, pivot = window[b - k]
            v = sign * g[k][i]
            for j in range(k + 1, b + 1):
                v -= new[j] * mp.conj(left[j - k])
            new[k] = v = v / pivot
            x -= abs(v) ** 2
        if not x > 0:
            return False
        window = window[1:] + [(new, mp.sqrt(x))]
    return True


def _exact_gram_band(e, p, q):
    """The b + 1 lower diagonals of the exact E^H E, b = p + q, at 40 digits."""
    n, b = e.shape[0], p + q
    g = [[mp.mpf(0)] * n for _ in range(b + 1)]
    for i in range(n):
        for k in range(min(b, i) + 1):  # column i of E is held in rows i - q .. i + p
            g[k][i] = mp.fsum(mp.conj(mp.mpc(e[r, i])) * mp.mpc(e[r, i - k])
                              for r in range(max(0, i - q), min(n, i - k + p + 1)))
    return g


def _assert_extremes_against(g, b, extremes):
    """Each converged point within 4 eps lambda_max of the exact extreme of G, each proven end on its side."""
    lam_min, lam_max, lower, upper = extremes
    tol = 4 * EPS * lam_max
    assert _mp_positive_definite(g, b, mp.mpf(lam_min) - tol)
    assert not _mp_positive_definite(g, b, mp.mpf(lam_min) + tol)
    assert _mp_positive_definite(g, b, -(mp.mpf(lam_max) + tol), sign=-1)
    assert not _mp_positive_definite(g, b, -(mp.mpf(lam_max) - tol), sign=-1)
    assert _mp_positive_definite(g, b, mp.mpf(lower))
    assert _mp_positive_definite(g, b, -mp.mpf(upper), sign=-1)


# In the last two, the last test that passed lies past the exact extreme: only
# the charge for the Cholesky's rounding keeps the proven end on its side.
_TOEPLITZ = [(n, t) for n in (16, 257, 1024, 2048) for t in (0.5, 0.45, 0.3, 0.05)] + [
    (443, 0.2351825705740887), (459, 0.31998861430957737)]


@pytest.mark.parametrize("n,t", _TOEPLITZ)
def test_band_extremes_of_tridiagonal_toeplitz_match_the_closed_form(n, t):
    # (1 + t^2) I + t (S + S^T) is the Gram E^T E of the (N+1) x N bidiagonal E = [I; 0] + t [0; I],
    # with eigenvalues 1 + t^2 + 2 t cos(k pi / (N + 1)); it is stored exactly, so nothing is formed
    a = 1.0 + t * t
    bands = np.array([np.full(n, a), np.r_[0.0, np.full(n - 1, t)]])
    lam_min, lam_max, lower, upper = frames._band_extremes(bands, Fraction(0))
    with mp.workdps(40):
        exact = [mp.mpf(a) + 2 * mp.mpf(t) * mp.cos(k * mp.pi / (n + 1)) for k in (n, 1)]
        for got, want in zip((lam_min, lam_max), exact):
            assert abs(got - want) <= 4 * EPS * lam_max
            assert got == pytest.approx(float(want), rel=1e-13)
        assert lower <= exact[0] and exact[1] <= upper


def exact_aas_extremes(n, t=0.3):
    """The extremes of A A^* for A = I + t (S + S^T), (1 - 2t cos(pi/(N+1)))^2 and (1 + 2t cos(pi/(N+1)))^2, at 40 digits."""
    with mp.workdps(40):
        c = 2 * mp.mpf(t) * mp.cos(mp.pi / (n + 1))
        return (1 - c) ** 2, (1 + c) ** 2


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_pentadiagonal_gram_extremes_match_the_closed_form(n):
    # A = I + 0.3 (S + S^T) is symmetric, so A A^* = A^H A = A^2, pentadiagonal
    lo, hi = exact_aas_extremes(n)
    a = tridiagonal(n, margin=64)
    rep = jaffard_predict(a, beta=1.0, gamma=math.log(1 / 0.3))
    system = FrameSystem(a)
    lam_min, lam_max, lower, upper = system.gram_extremes
    assert rep.norm_aas == pytest.approx(float(hi), rel=1e-13)
    assert rep.r_contraction == pytest.approx(float(1 - lo / hi), rel=1e-13)
    assert frame_bounds(system) == (lam_min, lam_max)
    for got_lo, got_hi, proven_lo, proven_hi in ((lam_min, lam_max, lower, upper),
                                                  (rep.norm_aas * (1 - rep.r_contraction), rep.norm_aas,
                                                   rep.lambda_min_lower, rep.lambda_max_upper)):
        assert abs(got_lo - lo) <= 4 * EPS * hi and abs(got_hi - hi) <= 4 * EPS * hi
        assert proven_lo <= lo and hi <= proven_hi


_RANDOM_BANDS = [(n, p, q, cplx) for n in (16, 256) for p, q in ((0, 1), (1, 1), (1, 2)) for cplx in (False, True)]


@pytest.mark.parametrize("n,p,q,cplx", _RANDOM_BANDS)
def test_band_extremes_of_random_banded_grams_against_mpmath(n, p, q, cplx):
    rng = np.random.default_rng(1000 * n + 10 * (p + q) + cplx)
    i, j = np.indices((n, n))
    e = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    e = np.where((j - i <= q) & (i - j <= p), e, 0.0)
    m = TruncatedMatrix(e)
    assert frames._bandwidths(m) == (p, q)
    extremes = frames._band_extremes(*frames._banded_gram(m, p, q, True, "the Gram matrix E^H E"))
    with mp.workdps(40):
        _assert_extremes_against(_exact_gram_band(e, p, q), p + q, extremes)


def test_band_extremes_of_a_diagonal_and_a_singular_band():
    # a diagonal G has its extremes as entries; a singular one proves a lower end just below 0
    bands = np.array([[2.0, 5.0, 3.0, 4.0]])
    lam_min, lam_max, lower, upper = frames._band_extremes(bands, Fraction(0))
    assert (lam_min, lam_max) == (2.0, 5.0) and lower < 2.0 < 5.0 < upper
    assert upper - lower < 5.0 - 2.0 + 100 * EPS * 5.0
    e = np.eye(600)
    e[4, 4] = 0.0
    lam_min, lam_max, lower, upper = FrameSystem(e).gram_extremes
    assert lam_min == 0.0 and lam_max == 1.0 and -1e-14 < lower <= 0.0
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        canonical_dual(FrameSystem(e))


def test_dense_systems_keep_eigvalsh_and_report_no_proven_ends():
    e = sandwich(96, 1e-3, False, seed=4)
    lam = np.linalg.eigvalsh(_gram(e))
    assert FrameSystem(e).gram_extremes == (lam[0], lam[-1], None, None)
    assert frames._gram_extremes(TruncatedMatrix(e), False, "AA*")[2:] == (None, None)


def test_banded_gram_overflow_is_named():
    e = 1e160 * tridiagonal(512).entries
    for call in (lambda: frame_bounds(FrameSystem(e)), lambda: canonical_dual(FrameSystem(e))):
        with pytest.raises(ValueError, match=r"E\^H E overflows the double range"):
            call()
    with pytest.raises(ValueError, match=r"AA\* overflows the double range"):
        jaffard_predict(TruncatedMatrix(e), 1.0, 1.0)


def test_banded_certificate_proves_full_rank_with_no_gram_and_no_lapack(monkeypatch):
    # I + 0.9 S + 0.5 S^2 is not diagonally dominant, so Johnson's bound refuses;
    # its Gram has 3 diagonals, narrow at N = 600: one test of the band proves full rank
    n = 600
    e = np.eye(n) + 0.9 * np.eye(n, k=1) + 0.5 * np.eye(n, k=2)
    assert not frames._prove_full_rank_from_diagonal(e)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense Gram or LAPACK factorization")

    with monkeypatch.context() as patch:
        for owner, name in ((np.linalg, "cholesky"), (np.linalg, "eigvalsh"), (frames, "_gram_product")):
            patch.setattr(owner, name, forbidden)
        assert frames._certify_full_rank(e)
        dual = canonical_dual(FrameSystem(e))
    np.testing.assert_allclose(dual.matrix.T @ e, np.eye(n), atol=1e-10)
    _, upper = frame_bounds(FrameSystem(e))
    with mp.workdps(40):  # the exact Gram passes the rank rule
        tau = max(frames.RANK_TOL ** 2, n * EPS * 1.0001 * upper)
        assert _mp_positive_definite(_exact_gram_band(e, 0, 2), 2, mp.mpf(tau))


@settings(max_examples=10, deadline=None)
@given(t=st.floats(min_value=0.9, max_value=1.0), n=st.integers(16, 128))
def test_banded_certificate_on_near_singular_shift_against_sturm(t, n):
    # the test of the band, called directly below the size where the crossover sends E to it
    e = np.eye(n) + t * np.eye(n, k=1)
    assert frames._certify_band(TruncatedMatrix(e), 0, 1)
    lam_min, lam_max = shift_gram_eigenvalue(t, n), shift_gram_eigenvalue(t, n, n)
    assert lam_min > max(frames.RANK_TOL ** 2, n * EPS * lam_max)


def test_banded_certificate_refuses_below_the_rank_rule():
    # the rule asks lambda_min > max(RANK_TOL^2, N eps lambda_max) = 1.6e-13 at N = 700
    e = np.eye(700)
    for c in (1e-10, 1e-7):  # sigma_min = c: lambda_min = 1e-20 and 1e-14
        e[350, 350] = c
        assert not frames._certify_full_rank(e)
        with pytest.raises(np.linalg.LinAlgError):
            canonical_dual(FrameSystem(e))
    e[350, 350] = 1e-6  # lambda_min = 1e-12
    assert frames._certify_full_rank(e)


def test_gram_extremes_read_the_shipped_systems_as_narrow():
    assert frames._narrow_gram(1024, 1, False) and frames._narrow_gram(1024, 2, False)
    assert not frames._narrow_gram(256, 2, False) and not frames._narrow_gram(96, 95, False)
    assert frames._narrow_gram(1024, 6, True) and not frames._narrow_gram(1024, 8, True)


# The O(N^2) proof from the diagonal (Johnson's bound).  It may refuse, but
# when it accepts, the exact singular values pass the rank rule.


@st.composite
def _near_johnson_boundary(draw):
    """E = scale (D - X) with D - X exceeding Johnson's bound by a chosen margin.

    D_ii exceeds Johnson's (R_i + C_i) / 2 by the margin in the tightest
    rows.  Where X is Hermitian with the moduli of a non-negative matrix up
    to a diagonal unitary similarity (a weighted graph Laplacian plus a
    multiple of I), the bound is sharp: sigma_min is the margin itself.
    """
    n = draw(st.integers(1, 64))
    cplx, sharp = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = 10.0 ** rng.uniform(-4.0, 0.0, (n, n))
    a[rng.random((n, n)) < draw(st.floats(0.0, 0.95))] = 0.0
    np.fill_diagonal(a, 0.0)
    if sharp:
        a = (a + a.T) / 2
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, n)) if cplx else rng.choice([-1.0, 1.0], n)
        x = phase[:, None] * a * phase.conj()[None, :]
    else:
        x = a * (np.exp(1j * rng.uniform(0.0, 2 * math.pi, (n, n))) if cplx else rng.choice([-1.0, 1.0], (n, n)))
    johnson = (a.sum(axis=1) + a.sum(axis=0)) / 2
    # the margin of the tightest rows, relative to the largest of Johnson's sums (or to 1)
    margin = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 0.0))
    unit = max(float(johnson.max()), 1.0)
    slack = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n) * unit)
    d = johnson + margin * unit + slack
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    return scale * (np.diag(d) - x)


def cycle_laplacian(n, shift, cplx=False):
    """2 I - P - P^T + shift I for the cyclic shift P, under a diagonal unitary similarity when ``cplx``.

    Johnson's bound is sharp on it: the bound is ``shift``, and so is
    sigma_min for 0 <= shift <= 2 (an eigenvalue for -2 <= shift < 0).
    """
    p = np.roll(np.eye(n), 1, axis=1)
    e = (2.0 + shift) * np.eye(n) - p - p.T
    if cplx:
        phase = np.exp(1j * np.linspace(0.0, 6.0, n))
        e = phase[:, None] * e * phase.conj()[None, :]
    return e


@settings(max_examples=25, deadline=None)
@given(e=_near_johnson_boundary())
@example(e=np.eye(64) + 0.45 * np.eye(64, k=1) + 0.45 * np.eye(64, k=-1))
@example(e=1e150 * (np.eye(48) + 0.3j * np.eye(48, k=2)))
@example(e=1e-9 * (np.eye(48) + 0.3 * np.eye(48, k=-1)))
@example(e=cycle_laplacian(64, 1e-9))
@example(e=cycle_laplacian(64, -1e-9))
@example(e=cycle_laplacian(40, 1e-3, cplx=True))
def test_proof_from_the_diagonal_against_mpmath(e):
    accepted = frames._prove_full_rank_from_diagonal(e)
    event("accepted" if accepted else "refused")
    if not accepted:
        return
    with mp.workdps(20):  # the proof's margins are near N eps relative, far above 1e-20
        sv = (mp.svd_c if np.iscomplexobj(e) else mp.svd_r)(mp.matrix(e.tolist()), compute_uv=False)
        lam_min, lam_max = min(sv) ** 2, max(sv) ** 2
        assert lam_min > max(frames.RANK_TOL ** 2, e.shape[0] * np.finfo(float).eps * lam_max)


def test_proof_from_the_diagonal_refuses_what_it_cannot_show():
    n = 32
    # sigma_min = 1e-12 is below RANK_TOL: the eigenvalues decide, and reject
    assert not frames._prove_full_rank_from_diagonal(1e-12 * np.eye(n))
    with pytest.raises(np.linalg.LinAlgError):
        canonical_dual(FrameSystem(1e-12 * np.eye(n)))
    # a Gram matrix that overflows is left to _gram_product, which names the overflow
    for scale in (1e154, 1e160):
        assert not frames._prove_full_rank_from_diagonal(scale * np.eye(n))
    with pytest.raises(ValueError, match="overflows the double range"):
        canonical_dual(FrameSystem(1e160 * np.eye(n)))
    # Johnson's bound is 1 - (0.6 + 0.6) / 2 = 0.4 > 0, but a Gram overflows
    assert not frames._prove_full_rank_from_diagonal(1e160 * (np.eye(n) + 0.6 * np.eye(n, k=1)))
    # not diagonally dominant: the sandwiches are the Cholesky's
    e = sandwich(n, 0.5, True, seed=3)
    assert not frames._prove_full_rank_from_diagonal(e) and frames._certify_full_rank(e)
    # sigma_min = c just above RANK_TOL, by less than the charge for rounding the diagonal down
    tol2 = Fraction(frames.RANK_TOL ** 2)
    c = 1e-10
    while Fraction(c) ** 2 <= tol2:
        c = np.nextafter(c, 1.0)
    assert not frames._prove_full_rank_from_diagonal(c * np.eye(n))
    assert frames._prove_full_rank_from_diagonal(c * (1 + 1e-13) * np.eye(n))
    # a diagonal at exactly Johnson's bound proves nothing
    assert not frames._prove_full_rank_from_diagonal(np.eye(n) + np.eye(n, k=1) / 2 + np.eye(n, k=-1) / 2)
    assert not frames._prove_full_rank_from_diagonal(np.full((n, n), np.nan))


def test_proof_from_the_diagonal_accepts_the_perturbations_of_the_identity():
    # |a_1| <= 0.36 and |a_2| <= 0.15 leave Johnson's bound at 1 - 0.51 or more
    n = 256
    rng = np.random.default_rng(5)
    a = [eps * rng.uniform(0.05, 0.95, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n)) for eps in (0.36, 0.15)]
    e = np.eye(n, dtype=complex) + np.diag(a[0][: n - 1], 1) + np.diag(a[1][: n - 2], 2)
    assert frames._prove_full_rank_from_diagonal(e)
    assert frames._prove_full_rank_from_diagonal(e.real)
    assert frames._prove_full_rank_from_diagonal(e.conj().T)
    assert frames._prove_full_rank_from_diagonal(e.astype(np.complex64))  # moduli and sums in double


# The dual is E^{-H}, an inverse through LU with partial pivoting, whose
# normwise relative error is of order cond(E) eps with a modest factor in N.
# The factor is c N with the constant c = 1, which is not to be raised to fit
# an error; normal equations in E^H E miss it on the sandwiches below by
# their squared condition number.
_DUAL_C = 1.0


def _dual_error_bound(e: np.ndarray, kappa: float) -> float:
    return _DUAL_C * e.shape[0] * kappa * np.finfo(float).eps


def shift_inverse(t, n):
    """(I + tS)^{-1}, whose k-th superdiagonal is (-t)^k, from 40-digit powers."""
    with mp.workdps(40):
        powers = np.array([float((-mp.mpf(t)) ** k) for k in range(n)])
    k = np.subtract.outer(np.arange(n), np.arange(n)).T  # k[i, j] = j - i
    return np.where(k >= 0, powers[np.maximum(k, 0)], 0.0)


def refined_inverse(e):
    """E^{-1} as x0 + c: x0 = pinv(E) from the SVD, c = x0 (I - E x0) one Newton step.

    The residual I - E x0 is summed to 40 digits by ``mp.fdot``, so the sum
    x0 + c errs by about ||x0|| ||I - E x0||^2, of order cond(E)^2 eps^2
    relative, far below the bound tested.
    """
    n = e.shape[0]
    x0 = np.linalg.pinv(e)
    with mp.workdps(40):
        rows = [[mp.mpf(v) for v in row] for row in e]
        cols = [[mp.mpf(v) for v in col] for col in x0.T]
        resid = [[float((i == j) - mp.fdot(rows[i], cols[j])) for j in range(n)] for i in range(n)]
    return x0, x0 @ np.array(resid)


@settings(max_examples=10, deadline=None)
@given(t=st.floats(min_value=0.9, max_value=0.999), n=st.integers(2, 128))
def test_canonical_dual_of_near_singular_shift_matches_mpmath_inverse(t, n):
    e = np.eye(n) + t * np.eye(n, k=1)
    dual = canonical_dual(FrameSystem(e)).matrix
    exact = shift_inverse(t, n)
    err = np.linalg.norm(dual.T - exact, 2) / np.linalg.norm(exact, 2)
    assert err <= _dual_error_bound(e, np.linalg.cond(e))


# Sizes past several levels of the blocked triangular inverse: 65 splits once
# into leaves of 32 and 33 rows, 1024 four times into leaves of 64.
_BLOCKED_SIZES = [65, 200, 513, 1024]


@pytest.mark.parametrize("n", _BLOCKED_SIZES)
@settings(max_examples=2, deadline=None)
@given(t=st.floats(min_value=0.3, max_value=0.999))
@example(t=0.999)
def test_blocked_dual_of_shift_matches_mpmath_powers(n, t):
    e = np.eye(n) + t * np.eye(n, k=1)
    dual = canonical_dual(FrameSystem(e)).matrix
    exact = shift_inverse(t, n)
    err = np.linalg.norm(dual.T - exact, 2) / np.linalg.norm(exact, 2)
    assert err <= _dual_error_bound(e, np.linalg.cond(e))


@pytest.mark.parametrize("n", [65, 513])
def test_blocked_dual_of_lower_triangular_shift_matches_mpmath_powers(n):
    # E = I + t S^T is lower triangular: inverted as the transpose of the inverse of E^T
    t = 0.95
    e = np.eye(n) + t * np.eye(n, k=-1)
    dual = canonical_dual(FrameSystem(e)).matrix  # E^{-H} = ((E^T)^{-1})^H, real here
    exact = shift_inverse(t, n)
    err = np.linalg.norm(dual - exact, 2) / np.linalg.norm(exact, 2)
    assert err <= _dual_error_bound(e, np.linalg.cond(e))


def complex_gen_system(n, seed):
    """The r = 2 complex perturbation that ``gen`` writes: moduli eps_i U(0.05, 0.95), uniform phases."""
    rng = np.random.default_rng(seed)
    eps = (0.36, 0.15)
    a = np.array([x * rng.uniform(0.05, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n)) for x in eps])
    return build_perturbed_basis(PerturbationSpec(r=2, a=a, eps=eps), n)[0]


def band_refined_inverse(e, width):
    """E^{-1} as x0 + x0 (I - E x0) for x0 = the LU inverse, E upper triangular with ``width`` superdiagonals.

    Each residual entry is a sum over the width + 1 non-zeros of a row of E,
    taken exactly to 40 digits by ``mp.fdot``, so the sum errs by about
    ||x0|| ||I - E x0||^2, of order cond(E)^2 eps^2 relative.
    """
    n = e.shape[0]
    x0 = np.linalg.inv(e)
    resid = np.empty((n, n), dtype=complex)
    with mp.workdps(40):
        rows = [[mp.mpc(v) for v in row] for row in x0]
        for i in range(n):
            terms = [(mp.mpc(e[i, k]), rows[k]) for k in range(i, min(i + width + 1, n))]
            for j in range(n):
                resid[i, j] = complex((i == j) - mp.fdot((c, row[j]) for c, row in terms))
    return x0 + x0 @ resid


@pytest.mark.parametrize("n, seed", [(200, 3), (300, 4)])
def test_blocked_dual_of_complex_gen_system_matches_refined_inverse(n, seed):
    system = complex_gen_system(n, seed)
    e = system.matrix
    exact = band_refined_inverse(e, width=2)
    dual = canonical_dual(system).matrix
    err = np.linalg.norm(dual.conj().T - exact, 2) / np.linalg.norm(exact, 2)
    assert err <= _dual_error_bound(e, np.linalg.cond(e))


@pytest.mark.parametrize("lower", [False, True])
def test_blocked_dual_inverts_only_leaf_blocks_by_lu(monkeypatch, lower):
    system = complex_gen_system(512, 5)
    if lower:
        system = FrameSystem(system.matrix.T)
    sizes = []
    lu = np.linalg.inv

    def counting(m):
        sizes.append(m.shape[0])
        return lu(m)

    monkeypatch.setattr(np.linalg, "inv", counting)
    dual = canonical_dual(system).matrix
    assert max(sizes) <= frames._LEAF < 512 and sum(sizes) == 512
    assert np.linalg.norm(dual.conj().T @ system.matrix - np.eye(512), 1) < 1e-13


@pytest.mark.parametrize("i, j", [(1, 0), (299, 0), (299, 298), (130, 129), (200, 5)])
@pytest.mark.parametrize("lower", [False, True])
def test_one_entry_off_the_triangle_takes_the_lu(i, j, lower):
    e = np.eye(300) + 0.4 * np.eye(300, k=1) + 0.1j * np.eye(300, k=7)
    e[i, j] = 0.01
    if lower:
        e = e.T.copy()
    assert frames._inverse(TruncatedMatrix(e)).tobytes() == np.linalg.inv(e).tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_dual_of_a_dense_system_keeps_the_lu_bits(cplx):
    rng = np.random.default_rng(8)
    e = np.eye(200) + 0.05 * rng.standard_normal((200, 200))
    if cplx:
        e = e + 0.05j * rng.standard_normal((200, 200))
    dual = canonical_dual(FrameSystem(e)).matrix
    want = np.linalg.inv(e).conj().T
    assert dual.dtype == want.dtype and dual.tobytes() == want.tobytes()


# Banded, non-triangular matrices with p + q <= N / 64 from N = 512 on take the
# band elimination (``frames._narrow_band``); the tests below run at that size.


def no_lu(monkeypatch):
    def refused(m):
        raise AssertionError(f"np.linalg.inv called on a {m.shape[0]} x {m.shape[1]} matrix")

    monkeypatch.setattr(np.linalg, "inv", refused)


@pytest.mark.parametrize("t", [0.3, 0.45])
def test_banded_inverse_of_a_tridiagonal_matrix_matches_the_closed_form(monkeypatch, t):
    n = 512
    a = tridiagonal(n, off=t)
    no_lu(monkeypatch)
    inv = frames._inverse(a)
    idx = np.arange(1, n + 1, 37)
    exact = exact_tridiagonal_inverse_abs(t, n, idx)
    sigma = np.linalg.svd(a.entries, compute_uv=False)
    err = np.max(np.abs(np.abs(inv[np.ix_(idx - 1, idx - 1)]) - exact)) * sigma[-1]  # relative to ||A^-1|| = 1 / sigma_min
    assert err <= _dual_error_bound(a.entries, sigma[0] / sigma[-1])


def random_band(n, p, q, cplx, swap, seed):
    """A matrix of lower bandwidth p and upper bandwidth q with condition number below 7.

    T is strictly diagonally dominant, with diagonal moduli in [1.5, 2.5] and
    off-diagonal row sums below 1, so sigma_min(T) >= 0.5 (Johnson's bound)
    and ||T|| < 3.5.  With ``swap`` the rows of each pair 2j, 2j+1 of a T
    with bandwidths p - 1 and q - 1 are exchanged: the diagonal then holds
    T's small sub- and superdiagonal entries (zeros where p or q is 1),
    the largest entry of each even column lies below it, and the
    elimination swaps rows.
    """
    rng = np.random.default_rng(seed)
    lower, upper = (p - 1, q - 1) if swap else (p, q)

    def entries(d, low, high):
        v = rng.uniform(low, high, n - abs(d)) * rng.choice([-1.0, 1.0], n - abs(d))
        return v * np.exp(2j * np.pi * rng.uniform(size=n - abs(d))) if cplx else v

    t = np.diag(entries(0, 1.5, 2.5)).astype(complex if cplx else float)
    for d in range(-lower, upper + 1):
        if d:
            t += np.diag(entries(d, 0.5, 1.0) / (p + q), d)
    if swap:
        t = t[np.arange(n) ^ 1]
    return t


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.sampled_from([512, 514]), p=st.integers(1, 4), q=st.integers(1, 4), cplx=st.booleans(),
       swap=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=512, p=1, q=1, cplx=False, swap=True, seed=None)  # S + S^T: a zero diagonal
def test_banded_inverse_matches_the_lu(n, p, q, cplx, swap, seed):
    a = np.eye(n, k=1) + np.eye(n, k=-1) if seed is None else random_band(n, p, q, cplx, swap, seed)
    (first, last), i = TruncatedMatrix(a).profile, np.arange(n)
    assert (np.max(i - first), np.max(last - i)) == (p, q) and frames._narrow_band(n, p, q)
    got, want = frames._invert_banded(a, p, q), np.linalg.inv(a)
    sigma = np.linalg.svd(a, compute_uv=False)
    err = np.linalg.norm(got - want) * sigma[-1]  # Frobenius norm of the gap over ||A^-1||_2
    assert err <= _dual_error_bound(a, sigma[0] / sigma[-1])


@pytest.mark.parametrize("n", [513, 1025])
def test_banded_inverse_of_a_singular_matrix_raises_as_the_lu_does(monkeypatch, n):
    # S + S^T has the eigenvalue 2 cos(pi / 2) = 0 at odd N; the elimination meets an exact zero pivot
    a = TruncatedMatrix(np.eye(n, k=1) + np.eye(n, k=-1))
    no_lu(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        frames._inverse(a)


@pytest.mark.parametrize("n, w, banded", [(511, 2, False), (512, 2, True), (512, 8, True), (512, 9, False),
                                          (1024, 16, True), (1024, 17, False), (2048, 32, True)])
def test_narrow_band_rule(n, w, banded):
    assert frames._narrow_band(n, w // 2, w - w // 2) is banded


def untrimmed_invert_upper(u, out):
    """The blocked inverse with full h x h corner products, before they ran over B's non-zeros only."""
    n = u.shape[0]
    if n <= frames._LEAF:
        out[...] = np.linalg.inv(u)
        return
    h = n // 2
    untrimmed_invert_upper(u[:h, :h], out[:h, :h])
    untrimmed_invert_upper(u[h:, h:], out[h:, h:])
    corner = out[:h, :h] @ u[:h, h:]
    np.matmul(np.negative(corner, out=corner), out[h:, h:], out=out[:h, h:])


def trimmed_and_untrimmed_inverses(u):
    got, want = np.zeros_like(u), np.zeros_like(u)
    frames._invert_upper(u, got, TruncatedMatrix(u).profile[1])
    untrimmed_invert_upper(u, want)
    return got, want


def dense_upper(n, cplx, seed):
    rng = np.random.default_rng(seed)
    u = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    if cplx:
        u = u + 0.05j * rng.standard_normal((n, n))
    return np.triu(u)


@pytest.mark.parametrize("n", [65, 200, 1024])
@pytest.mark.parametrize("kind", ["real", "complex", "shift"])
def test_trimmed_inverse_keeps_the_bits_of_the_untrimmed_one(n, kind):
    # a dense B is its own bounding box, so the same products run on the same
    # views; each B of I + 0.5 S holds one non-zero, so each product has one term
    u = np.eye(n) + 0.5 * np.eye(n, k=1) if kind == "shift" else dense_upper(n, kind == "complex", n)
    got, want = trimmed_and_untrimmed_inverses(u)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_trimmed_inverse_of_a_block_diagonal_matrix_is_the_block_inverses(cplx):
    n, h = 300, 150
    u = dense_upper(n, cplx, 9)
    u[:h, h:] = 0.0
    got = np.zeros_like(u)
    frames._invert_upper(u, got, TruncatedMatrix(u).profile[1])
    assert not got[:h, h:].any()
    for block in (slice(0, h), slice(h, n)):
        want = np.zeros_like(u[block, block])
        untrimmed_invert_upper(u[block, block], want)
        assert got[block, block].tobytes() == want.tobytes()


@pytest.mark.parametrize("cplx", [False, True])
def test_one_non_zero_in_the_top_right_cell_of_b_spans_the_whole_block(cplx):
    n, h = 300, 150
    u = dense_upper(n, cplx, 10)
    u[:h, h:] = 0.0
    u[0, n - 1] = 0.7
    got, want = trimmed_and_untrimmed_inverses(u)
    assert got.tobytes() == want.tobytes()
    assert got[0, n - 1] != 0 and np.linalg.norm(got @ u - np.eye(n), 1) < 1e-13


def band_back_substitution(e, width):
    """E^{-1} of an upper triangular E with ``width`` superdiagonals, row by row in extended precision."""
    n = e.shape[0]
    ext = e.astype(np.clongdouble)
    x = np.zeros((n, n), dtype=np.clongdouble)
    for i in range(n - 1, -1, -1):
        row = np.zeros(n, dtype=np.clongdouble)
        row[i] = 1
        for k in range(i + 1, min(i + width + 1, n)):
            row -= ext[i, k] * x[k]
        x[i] = row / ext[i, i]
    return x


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double")
def test_trimmed_dual_of_complex_gen_system_meets_the_error_bound():
    # N = 1024 trims every corner of four levels of blocks to the band
    system = complex_gen_system(1024, 6)
    e = system.matrix
    assert np.count_nonzero(e) == 3 * 1024 - 3
    exact = band_back_substitution(e, width=2).astype(complex)
    dual = canonical_dual(system).matrix
    err = np.linalg.norm(dual.conj().T - exact, 2) / np.linalg.norm(exact, 2)
    assert err <= _dual_error_bound(e, np.linalg.cond(e))


@settings(max_examples=3, deadline=None)
@given(log_sigma_min=st.floats(min_value=-6.0, max_value=-2.0), seed=st.integers(0, 2 ** 32 - 1))
@example(log_sigma_min=-5.0, seed=5)
def test_canonical_dual_of_ill_conditioned_sandwich_matches_mpmath_inverse(log_sigma_min, seed):
    # Q1 diag(geomspace(2, sigma_min, 96)) Q2^T with cond(E) = 2 / sigma_min
    # up to 2e6, which the rank rule still accepts at N = 96
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    q2, _ = np.linalg.qr(rng.standard_normal((96, 96)))
    sigma_min = 10.0 ** log_sigma_min
    e = q1 @ np.diag(np.geomspace(2.0, sigma_min, 96)) @ q2.T
    dual = canonical_dual(FrameSystem(e)).matrix
    x0, correction = refined_inverse(e)
    err = np.linalg.norm((dual.T - x0) - correction, 2) / np.linalg.norm(x0, 2)
    assert err <= _dual_error_bound(e, 2.0 / sigma_min)


def _imports_scipy_linalg(tree: ast.AST) -> bool:
    """Whether a module imports scipy.linalg (or a submodule) or reads ``scipy.linalg``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            return True
    return False


def test_no_module_uses_scipy_linalg():
    # scipy.linalg calls into scipy's own copy of OpenBLAS, beside the one
    # bundled with numpy, and its idle threads then slow numpy's BLAS: on
    # 2 cores (OpenBLAS 0.3.31, 2 BLAS threads), eight (128 x 1024) by
    # (1024 x 1024) numpy GEMMs took 0.122 s right after a scipy
    # cho_factor/cho_solve at N=1024, against 0.028 s alone and 0.035 s
    # after numpy's own solve.  Every factorization goes through
    # numpy.linalg; scipy.special stays allowed.
    package = Path(frames.__file__).parent
    offenders = [p.name for p in sorted(package.glob("*.py")) if _imports_scipy_linalg(ast.parse(p.read_text()))]
    assert offenders == []
    for source in ("import scipy.linalg", "from scipy import linalg", "from scipy.linalg import solve",
                   "import scipy\nscipy.linalg.solve"):
        assert _imports_scipy_linalg(ast.parse(source)), source
    assert not _imports_scipy_linalg(ast.parse("from scipy.special import roots_hermite"))


def _module_level_imports(tree: ast.Module) -> list[str]:
    """Modules a source imports when it is loaded: every import outside a function body."""
    names, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return names


def _imports_scipy_special_at_module_level(tree: ast.Module) -> bool:
    return any(name == "scipy.special" or name.startswith("scipy.special.") for name in _module_level_imports(tree))


def test_no_module_imports_scipy_special_at_module_level():
    # importing scipy.special with the package doubled every subcommand's
    # start-up (0.40 s against 0.20 s on 2 cores), and only the tail
    # integral, the polynomial series and the Hermite nodes call it: they
    # import it on use, so gen, dual, fit, schur and fframe never load it
    package = Path(frames.__file__).parent
    offenders = [p.name for p in sorted(package.glob("*.py"))
                 if _imports_scipy_special_at_module_level(ast.parse(p.read_text()))]
    assert offenders == []
    for source in ("from scipy.special import zeta", "import scipy.special", "from scipy import special",
                   "try:\n    from scipy.special import zeta\nexcept ImportError:\n    pass"):
        assert _imports_scipy_special_at_module_level(ast.parse(source)), source
    for source in ("def f():\n    from scipy.special import zeta", "from scipy import linalg"):
        assert not _imports_scipy_special_at_module_level(ast.parse(source)), source


# ------------------------------------------------- permutation-invariance


def test_synthesis_total_is_permutation_invariant():
    n = 128
    system = perturbed(n)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(n)
    a = analysis(canonical_dual(system), f)
    total_ref = synthesis(system, a)
    for _ in range(50):
        perm = rng.permutation(n)
        acc = np.zeros(n)
        running_max = 0.0
        for idx in perm:
            acc = acc + a[idx] * system.matrix[idx]
            running_max = max(running_max, float(np.linalg.norm(acc)))
        assert np.max(np.abs(acc - total_ref)) < 1e-10
        assert math.isfinite(running_max)


# --------------------------------------------------------- weighted operators


def test_weighted_operator_norms_onb_all_ones():
    rep = weighted_operator_norms(identity_frame(64), Weight("moderate", k=2), 2)
    for bracket in (rep.analysis, rep.synthesis, rep.frame_op, rep.frame_op_min):
        assert bracket == pytest.approx((1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
def test_weighted_operator_norms_reject_p_outside_one_to_inf(p):
    with pytest.raises(ValueError, match=r"p must be in \[1, inf\]"):
        weighted_operator_norms(perturbed(64), Weight("subexponential", beta=0.5, gamma=1.0), p)


def test_weighted_operator_norms_perturbed_stable():
    w = Weight("subexponential", beta=0.5, gamma=1.0)
    r1 = weighted_operator_norms(perturbed(128), w, 2)
    r2 = weighted_operator_norms(perturbed(256), w, 2)
    assert r1.frame_op_min[0] > 0
    assert abs(r2.analysis[1] - r1.analysis[1]) < 0.05 * r1.analysis[1]


def _complex_localized(n):
    rng = np.random.default_rng(9)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FrameSystem(np.eye(n) + 0.2 * noise * np.exp(-1.5 * d))


def _dense_norm(m, p):
    """Exact l^p operator norm of a dense matrix: largest column sum, largest singular value or largest row sum."""
    if p == 1:
        return float(np.abs(m).sum(axis=0).max())
    if p == 2:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    return float(np.abs(m).sum(axis=1).max())


@st.composite
def _localized_systems(draw):
    n = draw(st.integers(16, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    noise = rng.standard_normal((n, n))
    if draw(st.booleans()):
        noise = noise + 1j * rng.standard_normal((n, n))
    return FrameSystem(np.eye(n) + draw(st.floats(0.05, 0.3)) * noise * np.exp(-draw(st.floats(1.0, 2.5)) * d))


_weights = st.one_of(
    st.builds(Weight, kind=st.just("moderate"), k=st.floats(0.0, 3.0)),
    st.builds(Weight, kind=st.just("subexponential"), beta=st.floats(0.1, 0.9), gamma=st.floats(0.05, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(e=_localized_systems(), w=_weights, p=st.sampled_from([1.0, 2.0, math.inf]))
def test_weighted_operator_norm_brackets_contain_the_exact_norms(e, w, p):
    rep = weighted_operator_norms(e, w, p)
    scale = np.exp(np.subtract.outer(*[weights.log_eval_weight(w, np.arange(1, e.n + 1))] * 2))  # w_m / w_n
    s = e.matrix.T @ e.matrix.conj()
    exact = {
        "analysis": _dense_norm(scale * e.matrix.conj(), p),
        "synthesis": _dense_norm(scale * e.matrix.T, p),
        "frame_op": _dense_norm(scale * s, p),
        "frame_op_min": 1.0 / _dense_norm(scale * np.linalg.inv(s), p),
    }
    slack = 1e-12
    for name, value in exact.items():
        lower, upper = getattr(rep, name)
        assert lower <= upper, name
        assert lower <= value * (1 + slack) and value <= upper * (1 + slack), name
    if p == 1:
        for lower, upper in (rep.analysis, rep.synthesis):
            assert upper == pytest.approx(lower, rel=1e-13)


def test_weighted_operator_norm_upper_ends_are_the_schur_bounds_of_the_scaled_matrices():
    e, w = _complex_localized(48), Weight("moderate", k=1.5)
    scale = np.exp(np.subtract.outer(*[weights.log_eval_weight(w, np.arange(1, 49))] * 2))
    rep = weighted_operator_norms(e, w, 3.0)
    assert rep.analysis[1] == pytest.approx(schur_bound(TruncatedMatrix(scale * e.matrix), 3.0), rel=1e-13)
    assert rep.synthesis[1] == pytest.approx(schur_bound(TruncatedMatrix(scale * e.matrix.T), 3.0), rel=1e-13)
    product = (scale * np.abs(e.matrix.T)) @ (scale * np.abs(e.matrix))
    assert rep.frame_op[1] == pytest.approx(schur_bound(TruncatedMatrix(product), 3.0), rel=1e-13)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_implication_chain_forms_no_matrix_of_the_window():
    # every membership constant reads the window in blocks of rows over their spans
    n = 1024
    a = TruncatedMatrix(np.eye(n) + 0.5 * np.eye(n, k=1))
    peak = _traced_peak(lambda: envelopes.check_implication_chain(a, 2.0))
    assert peak < n * n * 8 // 4


def test_inverse_decay_check_forms_no_matrix_beside_the_inverse():
    n = 1024
    a = tridiagonal(n)
    report = jaffard_predict(a, 1.0, math.log(1 / 0.3))
    peak = _traced_peak(lambda: verify_inverse_decay(a, report))
    assert peak < 2 * n * n * 8


def test_decay_sentinel_forms_no_matrix_of_moduli():
    # a banded system has too few populated distances to fit, so the sentinel's
    # max |a| is taken; it runs in row blocks, not over an N x N array of moduli
    n = 1024
    a = TruncatedMatrix(np.eye(n) + 0.5 * np.eye(n, k=1))
    peak = _traced_peak(lambda: frames._fit_or_sentinel(a, 1.0))
    fit = frames._fit_or_sentinel(a, 1.0)
    assert fit.gamma == math.inf and fit.c == 1.0 and fit.residual == 0.0
    assert peak < n * n * 8 // 4


def test_weighted_operator_norms_memory_stays_below_four_matrices():
    # No N x N product is formed (the Schur sums of S run through its two
    # factors, and its unit-vector images in blocks of rows), so the peak
    # holds the Gram matrix and the canonical dual, which the call computes,
    # and block arrays small beside them.
    n = 512
    w = Weight("subexponential", beta=0.5, gamma=1.0)
    for p in (math.inf, 2.0):
        e = perturbed(n)
        peak = _traced_peak(lambda: weighted_operator_norms(e, w, p))
        assert peak < 4 * n * n * 8, p


def test_analysis_copies_no_system_matrix():
    n = 512
    real = perturbed(n)
    cplx = FrameSystem(real.matrix * (0.6 + 0.8j))
    block = np.ones((8, n))
    small = n * n * 8 // 8  # an eighth of one real N x N matrix
    for system in (real, cplx):
        for f in (block[0], block):
            assert _traced_peak(lambda: analysis(system, f)) < small
    # the product itself is the only N x N allocation
    assert _traced_peak(lambda: cross_gram(real, real)) < 1.5 * n * n * 8



@pytest.mark.parametrize("cplx", [False, True])
def test_products_over_spans_allocate_their_output_and_row_blocks(cplx):
    # Besides the N x N output and the N x N booleans of the finiteness check, the
    # span scan holds one block of _ROW_BLOCK x N booleans and each product one
    # tile, conjugated or not, of at most _ROW_BLOCK x N entries; the untrimmed
    # complex Gram held a conjugated copy of E besides.
    n = 512
    e = FrameSystem(perturbed(n).matrix * (0.6 + 0.8j)) if cplx else perturbed(n)
    dual = canonical_dual(e)
    item = e.matrix.itemsize
    bound = n * n * (item + 1) + 2 * weights._ROW_BLOCK * n * item
    fresh = [TruncatedMatrix(x) for x in (e.matrix, e.matrix, dual.matrix)]  # spans not yet scanned
    assert _traced_peak(lambda: frames._gram_product(fresh[0], True, "the Gram matrix E^H E")) <= bound
    assert _traced_peak(lambda: cross_gram(FrameSystem(fresh[2]), FrameSystem(fresh[1]))) <= bound

def test_analysis_and_synthesis_of_a_block_match_each_row():
    e = _complex_localized(40)
    block = np.random.default_rng(2).standard_normal((5, 40))
    for got, ref in ((analysis(e, block), [e.matrix.conj() @ row for row in block]),
                     (synthesis(e, block), [e.matrix.T @ row for row in block]),
                     ([analysis(e, row) for row in block], [e.matrix.conj() @ row for row in block])):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="does not match"):
        analysis(e, np.ones((5, 39)))
    with pytest.raises(ValueError, match="non-finite"):
        synthesis(e, np.full((2, 40), math.nan))


def test_weighted_operator_norms_past_the_double_range_are_inf_not_nan():
    # (1+n)^2000 overflows; an overflowed row sum times an exact zero must not make the product bound nan
    rep = weighted_operator_norms(perturbed(64), Weight("moderate", k=2000.0), 2)
    assert rep.synthesis[1] == math.inf and rep.frame_op[1] == math.inf
    assert not any(math.isnan(x) for bracket in (rep.analysis, rep.frame_op_min) for x in bracket)


def test_weighted_operator_norms_incompatible_weight():
    with pytest.raises(ValueError, match="incompatible weight"):
        weighted_operator_norms(perturbed(64), Weight("exponential", gamma=1.0), 2)


def test_norm_equivalence_interval_for_perturbed_basis():
    from frameforge.weights import weighted_norm

    n = 128
    system = perturbed(n)
    dual = canonical_dual(system)
    w = Weight("subexponential", beta=0.5, gamma=0.5)
    c = weighted_operator_norms(system, w, 2).analysis[1] * weighted_operator_norms(dual, w, 2).analysis[1]
    rng = np.random.default_rng(12)
    for _ in range(1000):
        f = rng.standard_normal(n)
        ratio = weighted_norm(analysis(system, f), w, 2) / weighted_norm(f, w, 2)
        assert 1.0 / c - 1e-12 <= ratio <= c + 1e-12


# ------------------------------------------------------- products over spans
# The products and scaled-moduli passes read each block of rows or columns over
# the range that holds its non-zeros (TruncatedMatrix.spans).  The references
# below are the untrimmed computations.  Rounding: a floating-point sum or dot
# product of k terms, in any order and with or without FMA, is within
# gamma_k = k u / (1 - k u) (u = 2^-53) of the exact value times the sum of
# the moduli of its terms (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, sec. 3.1); with complex arithmetic the real and the
# imaginary part are real sums of 2k products, so gamma_{3k} >= sqrt(2) gamma_{2k}
# covers the modulus (sec. 3.6).  Trimmed and untrimmed values are each within
# that of the exact one, so within twice that of each other; the computed
# |A| |B| lies within gamma_k below the exact one, hence the 1 / (1 - gamma).


def _twice_gamma(k):
    g = 3 * k * 2.0 ** -53 / (1 - 3 * k * 2.0 ** -53)
    return 2 * g / (1 - g)


def untrimmed_scaled_abs_sums(m, r, c):
    """Row and column sums of |m_ij| e^{r_i - c_j} over whole rows, for finite scales."""
    er, ec = np.exp(r), np.exp(-c)
    rows, cols = np.empty(m.shape[0]), np.zeros(m.shape[1])
    for start in range(0, m.shape[0], weights._ROW_BLOCK):
        block = slice(start, start + weights._ROW_BLOCK)
        scaled = np.abs(m[block]) * er[block, None] * ec
        rows[block] = scaled.sum(axis=1)
        cols += scaled.sum(axis=0)
    return rows, cols


def _banded(rng, n, lower, upper, cplx, zero_block):
    i, j = np.indices((n, n))
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    m = np.where((j - i <= upper) & (i - j <= lower), m, 0.0)
    if zero_block:
        start = (n // 2) // weights._ROW_BLOCK * weights._ROW_BLOCK
        m[start : start + weights._ROW_BLOCK] = 0.0
    return m


_BANDS = st.tuples(st.integers(0, 300), st.integers(0, 300))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), bands=st.tuples(_BANDS, _BANDS), cplx=st.booleans(), zero_block=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=300, bands=((300, 300), (300, 300)), cplx=False, zero_block=False, seed=1)  # dense
@example(n=300, bands=((300, 300), (300, 300)), cplx=True, zero_block=False, seed=2)
@example(n=100, bands=((100, 100), (100, 100)), cplx=True, zero_block=False, seed=3)
@example(n=257, bands=((0, 2), (3, 0)), cplx=False, zero_block=True, seed=4)  # upper and lower bands
@example(n=300, bands=((1, 1), (0, 300)), cplx=True, zero_block=True, seed=5)  # tridiagonal, upper triangular
@example(n=128, bands=((2, 0), (5, 7)), cplx=False, zero_block=False, seed=6)
def test_products_over_spans_match_the_untrimmed_products(n, bands, cplx, zero_block, seed):
    rng = np.random.default_rng(seed)
    e_mat, f_mat = (_banded(rng, n, lower, upper, cplx, zero_block) for lower, upper in bands)
    e, f = FrameSystem(e_mat), FrameSystem(f_mat)
    dense = not zero_block and all(min(b) >= n - 1 for b in bands)
    block = rng.standard_normal((5, n)) + (1j * rng.standard_normal((5, n)) if cplx else 0.0)
    vector = block[0]
    u = e_mat.T[: weights._ROW_BLOCK].conj()  # rows of E^H, whose spans are E's column spans
    cases = [  # (trimmed, untrimmed, A, B) for the product A B
        (synthesis(e, block), block @ e_mat, block, e_mat),
        (synthesis(e, vector), vector @ e_mat, vector, e_mat),
        (synthesis(e, u, spans=e.coeffs.spans[1][:1]), u @ e_mat, u, e_mat),
        (analysis(e, block), (block.conj() @ e_mat.T).conj(), block, e_mat.T),
        (analysis(e, vector), (vector.conj() @ e_mat.T).conj(), vector, e_mat.T),
        (cross_gram(e, f).entries, e_mat @ f_mat.conj().T, e_mat, f_mat.T),
        (frames._gram_product(e.coeffs, True, "the Gram matrix E^H E"), e_mat.conj().T @ e_mat, e_mat.T, e_mat),
        (frames._gram_product(e.coeffs, False, "AA*"), e_mat @ e_mat.conj().T, e_mat, e_mat.T),
    ]
    for got, want, a, b in cases:
        assert got.dtype == want.dtype and got.shape == want.shape
        if dense:
            assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(got - want) <= _twice_gamma(n) * (np.abs(a) @ np.abs(b)))
    r, c = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
    trimmed = envelopes._scaled_abs_sums(e_mat, r, c, e.coeffs.spans[0])
    for got, want in zip(trimmed, untrimmed_scaled_abs_sums(e_mat, r, c)):
        if dense:
            assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(got - want) <= _twice_gamma(n) * want)


def test_spans_run_from_the_first_to_the_last_non_zero_of_each_block():
    rng = np.random.default_rng(7)
    n, step = 300, weights._ROW_BLOCK
    m = _banded(rng, n, 3, 1, False, True)
    rows, cols = TruncatedMatrix(m).spans
    for i, (c0, c1) in enumerate(rows):
        nz = np.flatnonzero(m[i * step : (i + 1) * step].any(axis=0))
        assert (c0, c1) == ((nz[0], nz[-1] + 1) if nz.size else (0, 0))
    for j, (r0, r1) in enumerate(cols):
        nz = np.flatnonzero(m[:, j * step : (j + 1) * step].any(axis=1))
        assert (r0, r1) == (nz[0], nz[-1] + 1)
    assert rows[1] == (0, 0)  # the zeroed block
    dense = TruncatedMatrix(np.ones((n, n))).spans
    assert dense == (((0, n),) * 3, ((0, n),) * 3)


# ------------------------------------------------------------ non-zero profile
# TruncatedMatrix.profile holds each row's first and last non-zero column; the
# spans and the triangularity tests of the inverse are read off it.


def exact_spans(m):
    """Per block of rows the exact range of columns holding a non-zero, per block of columns the rows."""
    step = weights._ROW_BLOCK

    def extent(mask):
        nz = np.flatnonzero(mask)
        return (nz[0], nz[-1] + 1) if nz.size else (0, 0)

    starts = range(0, m.shape[0], step)
    return (tuple(extent(m[s : s + step].any(axis=0)) for s in starts),
            tuple(extent(m[:, s : s + step].any(axis=1)) for s in starts))


def gap_covers_a_block(m):
    """Whether some row has no non-zero in a whole block of columns that lies between two of its non-zeros."""
    for row in m:
        nz = np.flatnonzero(row)
        for s in range(0, m.shape[1], weights._ROW_BLOCK):
            stop = min(s + weights._ROW_BLOCK, m.shape[1])
            if nz.size and nz[0] < s and nz[-1] >= stop and not row[s:stop].any():
                return True
    return False


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), bands=_BANDS, cplx=st.booleans(), zero_block=st.booleans(),
       far=st.lists(st.tuples(st.integers(0, 399), st.integers(0, 399), st.integers(0, 399)), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=400, bands=(0, 0), cplx=False, zero_block=False, far=[(5, 0, 399)], seed=1)  # a gap of whole blocks
@example(n=300, bands=(0, 300), cplx=True, zero_block=True, far=[], seed=2)  # upper triangular
@example(n=300, bands=(300, 0), cplx=False, zero_block=False, far=[], seed=3)  # lower triangular
@example(n=257, bands=(1, 1), cplx=False, zero_block=False, far=[(0, 0, 200)], seed=4)
def test_profile_and_spans_hold_every_non_zero(n, bands, cplx, zero_block, far, seed):
    rng = np.random.default_rng(seed)
    m = _banded(rng, n, *bands, cplx, zero_block)
    for i, a, b in far:  # rows with two far-apart non-zeros
        m[i % n] = 0.0
        m[i % n, [a % n, b % n]] = 1.0
    first, last = TruncatedMatrix(m).profile
    for i, row in enumerate(m):
        nz = np.flatnonzero(row)
        assert (first[i], last[i]) == ((nz[0], nz[-1]) if nz.size else (n, -1))
    rows, cols = TruncatedMatrix(m).spans
    step = weights._ROW_BLOCK
    for i, j in zip(*np.nonzero(m)):
        assert rows[i // step][0] <= j < rows[i // step][1] and cols[j // step][0] <= i < cols[j // step][1]
    gap = gap_covers_a_block(m)
    event(f"gap covers a block: {gap}")
    if not gap:
        assert (rows, cols) == exact_spans(m)
    diagonal = np.arange(n)
    assert bool(np.all(first >= diagonal)) == np.array_equal(m, np.triu(m))
    assert bool(np.all(last <= diagonal)) == np.array_equal(m, np.tril(m))


def test_spans_over_a_gap_of_whole_blocks_cover_the_gap():
    # row 5 holds non-zeros in columns 0 and 399 only: the profile cannot see the
    # gap, so the middle column blocks' row ranges reach row 5, a superset
    m = np.eye(400)
    m[5] = 0.0
    m[5, [0, 399]] = 1.0
    spans, exact = TruncatedMatrix(m).spans, exact_spans(m)
    assert spans[0] == exact[0]
    assert spans[1][1] == (5, 256) and exact[1][1] == (128, 256)


def test_integer_and_boolean_matrices_give_the_values_of_the_float_matrix():
    ints = np.eye(16, dtype=int) + np.eye(16, k=1, dtype=int)
    ref = TruncatedMatrix(ints.astype(float))
    env = DecayEnvelope("grdecay", gamma1=1.0, eps=0.5, c=8.0)
    weight = Weight("moderate", k=1.0)

    def values(m):
        system = FrameSystem(m)
        return (envelopes.schur_bound(m, 2.0), canonical_dual(system).matrix.tobytes(),
                graded.fframe_bounds(system, "poly", 1.0), weighted_operator_norms(system, weight, 2),
                envelopes.verify_fixed_level_continuity(m, env))

    for entries in (ints, ints.astype(bool)):
        m = TruncatedMatrix(entries)
        assert m.entries.dtype == np.float64
        assert values(m) == values(ref)
