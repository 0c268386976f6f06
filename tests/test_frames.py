import ast
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameforge import frames, weights
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


def shift_sigma_min_squared(t, n):
    """sigma_min^2 of I + tS at 50 digits, by Sturm-count bisection.

    E^T E is tridiagonal with diagonal (1, 1+t^2, ..., 1+t^2) and
    off-diagonal t, and its spectrum lies in [0, (1+t)^2].
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
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return lo


@settings(max_examples=10, deadline=None)
@given(t=st.floats(min_value=0.9, max_value=1.0), n=st.integers(16, 128))
def test_lower_frame_bound_of_near_singular_shift_matches_mpmath(t, n):
    # sigma_min of I + tS shrinks like 1/N as t -> 1; a computed Gram
    # eigenvalue is good to N eps lambda_max
    lo, hi = frame_bounds(FrameSystem(np.eye(n) + t * np.eye(n, k=1)))
    assert lo > 0
    assert abs(mp.mpf(lo) - shift_sigma_min_squared(t, n)) <= n * np.finfo(float).eps * hi


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
        powers = [float((-mp.mpf(t)) ** k) for k in range(n)]
    return sum(np.diag(np.full(n - k, power), k) for k, power in enumerate(powers))


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
