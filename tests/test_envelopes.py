import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge import envelopes
from frameforge.envelopes import (
    DecayEnvelope,
    InsufficientDecayData,
    TruncatedMatrix,
    check_implication_chain,
    convolution_constant,
    envelope_excess,
    envelope_value,
    fit_decay,
    fit_poly_decay,
    membership_constant,
    p_series,
    poly_continuity_bound,
    poly_series,
    product_envelope,
    schur_bound,
    subexp_continuity_bound,
    verify_fixed_level_continuity,
)
from frameforge.frames import JaffardReport, verify_inverse_decay
from frameforge.weights import sup_graded_norm

# frozen oracle values (mpmath, 30 digits)
P_1_HALF = 2.67040681796633972
ZETA_1P5 = 2.612375348685488


def jaffard_matrix(n, gamma, beta=1.0, margin=-1):
    idx = np.arange(1, n + 1, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    return TruncatedMatrix(np.exp(-gamma * d ** beta), margin=margin)


def minmax_matrix(n, gamma, margin=-1):
    idx = np.arange(1, n + 1, dtype=float)
    lo = np.minimum(idx[:, None], idx[None, :])
    hi = np.maximum(idx[:, None], idx[None, :])
    return TruncatedMatrix((lo / hi) ** gamma, margin=margin)


def test_truncated_matrix_validation():
    with pytest.raises(ValueError):
        TruncatedMatrix(np.ones((3, 4)))
    with pytest.raises(ValueError):
        TruncatedMatrix(np.full((4, 4), np.inf))
    with pytest.raises(ValueError):
        TruncatedMatrix(np.eye(8), margin=4)
    a = TruncatedMatrix(np.eye(16))
    assert a.margin == 2
    assert list(a.window_indices()) == list(range(3, 15))


def test_envelope_value_examples():
    assert envelope_value(DecayEnvelope("jaffard", gamma=2, beta=1), 5, 5) == 1.0
    assert envelope_value(DecayEnvelope("poly_dstar", gamma=3), 1, 3) == pytest.approx(1 / 27)
    env = DecayEnvelope("colrow_subexp", beta=0.5, gamma0=0.0, gamma1=1.0)
    assert envelope_value(env, 9, 4) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_envelope_value_branches_and_symmetry():
    env = DecayEnvelope("poly_star", gamma=2)
    # symmetric in (m, n), diagonal takes the decaying branch
    assert envelope_value(env, 3, 7) == envelope_value(env, 7, 3)
    assert envelope_value(env, 4, 4) == pytest.approx(5.0 ** -2)
    split = DecayEnvelope("subexp_split", beta=1.0, gamma1=2.0, eps=0.5)
    # n = m sits on the decay branch: e^{2m - 2.5m} = e^{-m/2}
    assert envelope_value(split, 4, 4) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_envelope_validation():
    with pytest.raises(ValueError):
        DecayEnvelope("nope")
    with pytest.raises(ValueError):
        DecayEnvelope("jaffard", gamma=-1)
    with pytest.raises(ValueError):
        DecayEnvelope("colrow_subexp", beta=2.0)


def test_membership_identity_under_jaffard():
    a = TruncatedMatrix(np.eye(64))
    for gamma, beta in [(0.5, 1.0), (2.0, 0.5)]:
        env = DecayEnvelope("jaffard", gamma=gamma, beta=beta)
        assert membership_constant(a, env) == 1.0


def test_membership_exact_envelope_is_one():
    a = jaffard_matrix(64, 0.7)
    env = DecayEnvelope("jaffard", gamma=0.7, beta=1.0)
    assert membership_constant(a, env) == pytest.approx(1.0, rel=1e-12)


def test_membership_underflowed_envelope_no_nan():
    # at long distances a steep envelope underflows to 0.0; zero entries
    # there need no constant, nonzero ones honestly report inf
    env = DecayEnvelope("jaffard", gamma=2.0, beta=1.0)
    assert membership_constant(TruncatedMatrix(np.eye(1024)), env) == 1.0
    m = np.eye(1024)
    m[0, 1023] = 0.5
    assert membership_constant(TruncatedMatrix(m, margin=0), env) == math.inf


def test_envelope_excess_declared_constants():
    from frameforge.envelopes import envelope_excess

    a = jaffard_matrix(64, 0.7)
    within = DecayEnvelope("jaffard", gamma=0.7, beta=1.0, c=2.0)
    assert envelope_excess(a, within) == pytest.approx(0.5, rel=1e-12)
    too_tight = DecayEnvelope("jaffard", gamma=0.9, beta=1.0, c=1.0)
    assert envelope_excess(a, too_tight) > 1.0


def test_membership_counterexample_growth():
    # (min/max)^2 satisfies the ratio condition with constant 1 but its
    # distance-form constant blows up with N; brute-force maximization oracle
    big = minmax_matrix(128, 2.0)
    small = big.leading(64)
    env = DecayEnvelope("poly_dstar", gamma=2.0)

    def brute(mat):
        worst = 0.0
        w = mat.window_indices()
        for m in w:
            for n in w:
                worst = max(worst, mat.entries[m - 1, n - 1] * (1 + abs(m - n)) ** 2.0)
        return worst

    c64, c128 = membership_constant(small, env), membership_constant(big, env)
    assert c64 == pytest.approx(brute(small), rel=1e-12)
    assert c128 == pytest.approx(brute(big), rel=1e-12)
    assert c128 >= 1.5 * c64
    env3 = DecayEnvelope("poly_tstar", gamma=2.0)
    assert membership_constant(big, env3) == 1.0
    assert membership_constant(small, env3) == 1.0


def test_implication_pointwise_domination():
    # (**) <= (***) pointwise forces C_tstar <= C_dstar for every matrix
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = TruncatedMatrix(np.abs(rng.standard_normal((48, 48))))
        gamma = float(rng.uniform(0.5, 3.0))
        cd = membership_constant(a, DecayEnvelope("poly_dstar", gamma=gamma))
        ct = membership_constant(a, DecayEnvelope("poly_tstar", gamma=gamma))
        assert ct <= cd * (1 + 1e-12)
        # and (*) <= (**) pointwise likewise orders the constants
        cs = membership_constant(a, DecayEnvelope("poly_star", gamma=gamma))
        assert cd <= cs * (1 + 1e-12)


def test_fit_decay_recovers_exponential():
    a = jaffard_matrix(96, 0.7)
    fit = fit_decay(a, 1.0)
    assert fit.gamma == pytest.approx(0.7, abs=1e-6)
    assert fit.c == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-8


def test_fit_decay_recovers_subexponential():
    idx = np.arange(1, 97, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    a = TruncatedMatrix(np.exp(-1.0 * d ** 0.5))
    fit = fit_decay(a, 0.5)
    assert fit.gamma == pytest.approx(1.0, abs=1e-6)
    assert fit.c == pytest.approx(1.0, abs=1e-6)


def test_fit_decay_identity_sentinel():
    fit = fit_decay(TruncatedMatrix(np.eye(64)), 1.0)
    assert math.isinf(fit.gamma)
    assert fit.c == 1.0


def test_fit_decay_banded_raises():
    a = TruncatedMatrix(np.eye(64) + 0.5 * np.eye(64, k=1))
    with pytest.raises(InsufficientDecayData, match="anti-diagonals"):
        fit_decay(a, 1.0)


def test_fit_decay_random_class_member_rate_not_overstated():
    # dominated by the exact envelope -> fitted gamma at least the true rate
    rng = np.random.default_rng(19)
    idx = np.arange(1, 97, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    a = TruncatedMatrix(np.exp(-0.9 * d) * rng.uniform(0.2, 1.0, (96, 96)))
    fit = fit_decay(a, 1.0)
    assert fit.gamma >= 0.9 - 1e-9


def test_check_implication_chain_on_star_member():
    idx = np.arange(1, 65, dtype=float)
    lo = np.minimum(idx[:, None], idx[None, :])
    hi = np.maximum(idx[:, None], idx[None, :])
    star = TruncatedMatrix((1 + lo) ** 2.0 / (1 + hi) ** 4.0)
    rep = check_implication_chain(star, 2.0)
    assert rep.star == pytest.approx(1.0, rel=1e-12)
    assert not rep.star_diverges and not rep.dstar_diverges and not rep.tstar_diverges
    assert rep.dstar <= 1.0 + 1e-12 and rep.tstar <= 1.0 + 1e-12


def test_check_implication_chain_counterexample():
    rep = check_implication_chain(minmax_matrix(128, 2.0), 2.0)
    assert rep.tstar == 1.0 and not rep.tstar_diverges
    assert rep.dstar_diverges


def test_check_implication_chain_identity():
    # (**) and (***) hold with constant exactly 1; the sharper (*) bound decays
    # on the diagonal, so the identity's (*) constant grows with the window
    rep = check_implication_chain(TruncatedMatrix(np.eye(64)), 2.0)
    assert rep.dstar == 1.0 and rep.tstar == 1.0
    assert not rep.dstar_diverges and not rep.tstar_diverges
    assert rep.star > 1.0 and rep.star_diverges


def test_schur_bound_identity():
    assert schur_bound(TruncatedMatrix(np.eye(16)), 2) == 1.0


def test_schur_bound_p_extremes():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((16, 16))
    a = TruncatedMatrix(m)
    ab = np.abs(m)
    assert schur_bound(a, 1) == pytest.approx(ab.sum(axis=0).max())
    assert schur_bound(a, math.inf) == pytest.approx(ab.sum(axis=1).max())
    with pytest.raises(ValueError):
        schur_bound(a, 0.3)


def test_schur_bound_dominates_spectral_norm():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = rng.standard_normal((16, 16))
        bound = schur_bound(TruncatedMatrix(m), 2)
        sigma = np.linalg.svd(m, compute_uv=False)[0]  # oracle
        assert bound >= sigma - 1e-10


def test_schur_bound_exponential_kernel_vs_series():
    gamma = 0.8
    a = jaffard_matrix(256, gamma)
    bound = schur_bound(a, 2)
    assert bound <= 2 * p_series(gamma, 1.0) + 1e-8


def test_p_series_geometric_cases():
    assert p_series(1.0, 1.0) == pytest.approx(1 / (1 - math.exp(-1)), abs=1e-12)
    assert p_series(math.log(2.0), 1.0) == pytest.approx(2.0, abs=1e-12)


def test_p_series_subexponential_frozen_value():
    assert p_series(1.0, 0.5, tol=1e-12) == pytest.approx(P_1_HALF, abs=1e-11)


def test_p_series_closed_form_property():
    for gamma in (0.25, 0.7, 1.3, 3.0):
        assert p_series(gamma, 1.0) == pytest.approx(1 / (1 - math.exp(-gamma)), rel=1e-12)


def test_poly_series_matches_zeta():
    assert poly_series(1.5) == pytest.approx(ZETA_1P5, abs=1e-12)
    # brute-force partial-sum oracle brackets the full sum
    partial = sum(n ** -3.0 for n in range(1, 20000))
    assert partial < poly_series(3.0) < partial + 2 * 20000 ** -2.0


def test_convolution_constant_center_lower_bound():
    # at m = n the sum dominates the two-sided geometric sum 1 + 2/(e^2 - 1)
    c = convolution_constant(1.0, 1.0, 64)
    assert c >= 1 + 2 / (math.exp(2) - 1) - 1e-12


def test_convolution_constant_stability():
    c1 = convolution_constant(0.8, 1.0, 64)
    c2 = convolution_constant(0.8, 1.0, 128)
    assert abs(c2 - c1) < 0.05 * c1


def test_convolution_constant_covers_extreme_pair():
    # brute-force oracle over all pairs including (1, N)
    n, gamma = 24, 1.0
    idx = np.arange(1, n + 1, dtype=float)
    worst = 0.0
    for m in idx:
        for nn in idx:
            s = np.sum(np.exp(-gamma * np.abs(m - idx)) * np.exp(-gamma * np.abs(idx - nn)))
            worst = max(worst, s * math.exp(0.5 * gamma * abs(m - nn)))
    assert convolution_constant(gamma, 1.0, n) == pytest.approx(worst, rel=1e-12)


def test_product_envelope_identity_case():
    c_ab, rate = product_envelope(1.0, 2.0, 1.0, 1.0, 1.0)
    assert rate == 1.0
    prod = TruncatedMatrix(np.eye(32))
    assert membership_constant(prod, DecayEnvelope("jaffard", gamma=rate, beta=1.0)) <= c_ab


def test_product_envelope_frozen_constant():
    c_ab, rate = product_envelope(3.0, 2.0, 5.0, 1.0, 1.0)
    assert rate == 1.0
    assert c_ab == pytest.approx(30.0 / (1 - math.exp(-1)), rel=1e-12)  # 47.459...


def test_product_envelope_numeric_product_respects_prediction():
    n = 256
    a = jaffard_matrix(n, 2.0)
    b = jaffard_matrix(n, 1.0)
    c_ab, rate = product_envelope(1.0, 2.0, 1.0, 1.0, 1.0)
    prod = TruncatedMatrix(a.entries @ b.entries, margin=n // 8)
    emp = membership_constant(prod, DecayEnvelope("jaffard", gamma=rate, beta=1.0))
    assert emp <= c_ab


def test_product_envelope_equal_rates():
    with pytest.raises(ValueError):
        product_envelope(1.0, 2.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        product_envelope(1.0, 2.0, 1.0, 2.0, 1.0, gamma_target=2.5)
    c_ab, rate = product_envelope(1.0, 2.0, 1.0, 2.0, 1.0, gamma_target=1.0)
    assert rate == 1.0 and c_ab == pytest.approx(2 / (1 - math.exp(-1)), rel=1e-12)


def test_poly_continuity_bound_zeta_case():
    # strictly lower-triangular envelope: K reduces to a single zeta value
    assert poly_continuity_bound(0.0, 1.0, 0.5, 0.0, 1.0) == pytest.approx(ZETA_1P5, abs=1e-12)
    assert poly_continuity_bound(0.0, 1.0, 0.5, 0.0, 0.0) == 0.0


def test_poly_continuity_bound_holds_on_random_matrices():
    from frameforge.weights import sup_graded_norm

    rng = np.random.default_rng(31)
    n = 128
    gamma0, gamma1, eps = 0.0, 2.0, 0.5
    env = DecayEnvelope("colrow_poly", gamma0=gamma0, gamma1=gamma1)
    k = poly_continuity_bound(gamma0, gamma1, eps, 1.0, 1.0)
    idx = np.arange(1, n + 1, dtype=float)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    bound = envelope_value(env, mm, nn)
    for _ in range(20):
        a = bound * rng.uniform(-1, 1, (n, n))
        c = rng.standard_normal(n)
        lhs = sup_graded_norm(a @ c, "poly", gamma1)
        rhs = k * sup_graded_norm(c, "poly", gamma0 + gamma1 + 1 + eps)
        assert lhs <= rhs * (1 + 1e-12)


def test_subexp_continuity_bound_formula_value():
    got = subexp_continuity_bound(1.0, 0.0, 1.0, 0.5, 1.0, 1.0)
    assert got == pytest.approx(2.0 / (math.exp(0.5) - 1.0), rel=1e-11)  # 3.082988...
    assert subexp_continuity_bound(1.0, 0.0, 1.0, 0.5, 0.0, 0.0) == 0.0


def test_subexp_continuity_bound_holds_on_random_matrices():
    from frameforge.weights import sup_graded_norm

    rng = np.random.default_rng(37)
    n = 128
    beta, gamma0, gamma1, eps = 0.5, 0.0, 1.0, 0.5
    env = DecayEnvelope("colrow_subexp", beta=beta, gamma0=gamma0, gamma1=gamma1)
    k = subexp_continuity_bound(beta, gamma0, gamma1, eps, 1.0, 1.0)
    idx = np.arange(1, n + 1, dtype=float)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    bound = envelope_value(env, mm, nn)
    for _ in range(20):
        a = bound * rng.uniform(-1, 1, (n, n))
        c = rng.standard_normal(n)
        lhs = sup_graded_norm(a @ c, "subexp", gamma1, beta)
        rhs = k * sup_graded_norm(c, "subexp", gamma1 + gamma0 + eps, beta)
        assert lhs <= rhs * (1 + 1e-12)


def test_verify_fixed_level_continuity_zero_and_exact():
    zero = TruncatedMatrix(np.zeros((64, 64)))
    env = DecayEnvelope("eq_newdecay", gamma1=2.0, eps=0.5)
    assert verify_fixed_level_continuity(zero, env) == 0.0

    idx = np.arange(1, 65, dtype=float)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    exact = TruncatedMatrix(envelope_value(env, mm, nn))
    ratio = verify_fixed_level_continuity(exact, env)
    assert 0 < ratio < math.inf


def test_verify_fixed_level_continuity_stability_under_doubling():
    env = DecayEnvelope("eq_newdecay", gamma1=2.0, eps=0.5)

    def exact(n):
        idx = np.arange(1, n + 1, dtype=float)
        mm, nn = np.meshgrid(idx, idx, indexing="ij")
        return TruncatedMatrix(envelope_value(env, mm, nn))

    r1 = verify_fixed_level_continuity(exact(64), env)
    r2 = verify_fixed_level_continuity(exact(128), env)
    assert r1 < r2 * 1.05 + 1e-12


def test_verify_fixed_level_continuity_rejects_violator():
    env = DecayEnvelope("grdecay", gamma1=1.0, eps=0.5)
    bad = TruncatedMatrix(np.ones((64, 64)))
    with pytest.raises(ValueError, match="envelope violated"):
        verify_fixed_level_continuity(bad, env)


def _fixed_level_monte_carlo(a, env, trials, seed):
    """The sampled estimate that ``verify_fixed_level_continuity`` used to return: a maximum over random vectors."""
    family, beta = ("subexp", env.beta) if env.kind == "subexp_split" else ("poly", 1.0)
    idx = np.arange(1, a.n + 1, dtype=float)
    base = idx ** -env.gamma1 if family == "poly" else np.exp(-env.gamma1 * idx ** beta)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        c = base if t == 0 else base * rng.uniform(0.5, 1.0, a.n) * rng.choice([-1.0, 1.0], a.n)
        num = sup_graded_norm(a.entries @ c, family, env.gamma1, beta)
        worst = max(worst, num / sup_graded_norm(c, family, env.gamma1, beta))
    return worst


@pytest.mark.parametrize(
    "env",
    [
        DecayEnvelope("subexp_split", beta=0.5, gamma1=1.0, eps=0.5),
        DecayEnvelope("eq_newdecay", gamma1=2.0, eps=0.5),
        DecayEnvelope("grdecay", gamma1=1.0, eps=0.5),
    ],
    ids=lambda env: env.kind,
)
def test_fixed_level_continuity_is_the_exact_norm_of_sign_mixed_matrices(env):
    n = 128
    idx = np.arange(1, n + 1, dtype=float)
    a = envelope_value(env, idx[:, None], idx[None, :]) * np.random.default_rng(3).uniform(-1.0, 1.0, (n, n))
    value = verify_fixed_level_continuity(TruncatedMatrix(a), env)
    family, beta = ("subexp", env.beta) if env.kind == "subexp_split" else ("poly", 1.0)
    w = idx ** env.gamma1 if family == "poly" else np.exp(env.gamma1 * idx ** beta)
    dense = w * (np.abs(a) / w).sum(axis=1)
    assert value == pytest.approx(dense.max(), rel=1e-13)
    aligned = np.sign(a[np.argmax(dense)]) / w  # the vector that attains the norm
    ratio = sup_graded_norm(a @ aligned, family, env.gamma1, beta) / sup_graded_norm(aligned, family, env.gamma1, beta)
    assert ratio == pytest.approx(value, rel=1e-13)
    assert value >= _fixed_level_monte_carlo(TruncatedMatrix(a), env, trials=100, seed=0)


def _log_class_norm(log_env, log_w, log_v):
    """max_m w_m sum_n env(m, n) / v_n, the l^inf_v -> l^inf_w norm of the envelope, summed from logs."""
    return float(np.exp(log_env + log_w[:, None] - log_v[None, :]).sum(axis=1).max())


@settings(max_examples=40, deadline=None)
@given(
    gamma0=st.floats(0.0, 2.0),
    gamma1=st.floats(0.1, 3.0),
    eps=st.floats(0.05, 0.95),
    beta=st.floats(0.2, 1.0),
    n=st.sampled_from([256, 512]),
)
def test_continuity_constants_dominate_the_exact_class_norm(gamma0, gamma1, eps, beta, n):
    # The l^inf_v -> l^inf_w norm is monotone in |a|, so the envelope itself is
    # the worst member of its class; the paper's constant K must dominate it.
    idx = np.arange(1, n + 1, dtype=float)
    m, k = idx[:, None], idx[None, :]
    log_poly = np.where(k > m, gamma0 * np.log(k), gamma1 * (np.log(k) - np.log(m)))
    exact = _log_class_norm(log_poly, gamma1 * np.log(idx), (gamma0 + gamma1 + 1.0 + eps) * np.log(idx))
    assert exact <= poly_continuity_bound(gamma0, gamma1, eps, 1.0, 1.0)
    log_subexp = np.where(k > m, gamma0 * k ** beta, -gamma1 * (m ** beta - k ** beta))
    exact = _log_class_norm(log_subexp, gamma1 * idx ** beta, (gamma1 + gamma0 + eps) * idx ** beta)
    assert exact <= subexp_continuity_bound(beta, gamma0, gamma1, eps, 1.0, 1.0)


@pytest.mark.parametrize("gamma, beta", [(0.3, 0.25), (0.1, 0.5), (0.05, 1.0), (0.02, 0.75)])
def test_p_series_small_rates_match_mpmath(gamma, beta):
    # slow rates used to run into the term cap and raise; the tail is now
    # closed by its Euler-Maclaurin estimate
    with mp.workdps(25):
        ref = mp.nsum(lambda j: mp.exp(-gamma * mp.power(j, beta)), [0, mp.inf], method="euler-maclaurin")
    assert p_series(gamma, beta) == pytest.approx(float(ref), rel=1e-14)


@pytest.mark.parametrize("s", [1.001, 1.01, 1.1])
def test_poly_series_near_one_matches_mpmath(s):
    assert poly_series(s) == pytest.approx(float(mp.zeta(s)), rel=1e-14)


def test_log_linear_fit_past_the_double_range_gives_inf_without_warning():
    x = np.arange(1.0, 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = envelopes._log_linear_fit(x, 800.0 - 2.0 * x)
    assert fit.gamma == pytest.approx(2.0, rel=1e-12)
    assert fit.c == math.inf


# ------------------------------------------- per-distance path vs per cell
#
# References: the per-cell meshgrid evaluation and the per-diagonal loop that
# membership constants, decay fits and the inverse-decay check used before
# they shared one per-distance maxima helper.  The shared path must give the
# same numbers bit for bit, inf included.


def reference_envelope_excess(a, env):
    w = a.window
    sub = np.abs(a.entries[w, w])
    idx = a.window_indices()
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    vals = envelope_value(env, mm, nn)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sub == 0.0, 0.0, sub / vals)
    return float(np.max(ratio))


def reference_fit(a, margin, abscissa):
    """(gamma, c, residual) of the per-diagonal regression, or None for too few diagonals."""
    m = a.margin if margin is None else margin
    sub = np.abs(a.entries[m : a.n - m, m : a.n - m])
    ds, maxima = [], []
    for d in range(1, sub.shape[0]):
        mx = max(np.max(np.diag(sub, d)), np.max(np.diag(sub, -d)))
        if mx >= 1e-300:
            ds.append(d)
            maxima.append(mx)
    if not ds:
        return math.inf, float(np.max(np.diag(sub))), 0.0
    if len(ds) < 3:
        return None
    x, y = abscissa(np.asarray(ds, dtype=float)), np.log(np.asarray(maxima, dtype=float))
    design = np.column_stack([x, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(design @ sol - y)))
    return max(0.0, -float(sol[0])), float(np.exp(sol[1])), resid


def reference_inverse_violations(inv, margin, gamma1, beta, c_inv):
    k = inv.shape[0]
    sub = np.abs(inv[margin : k - margin, margin : k - margin])
    idx = np.arange(margin + 1, k - margin + 1)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    return int(np.sum(sub > c_inv * np.exp(-gamma1 * np.abs(mm - nn) ** beta)))


def hand_built_report(**values):
    """A JaffardReport with every field 1.0 but those given."""
    fields = {f.name: 1.0 for f in dataclasses.fields(JaffardReport)}
    return JaffardReport(**{**fields, **values})


def fit_or_none(fit, *args):
    try:
        f = fit(*args)
    except InsufficientDecayData:
        return None
    return f.gamma, f.c, f.residual


_rates = st.floats(min_value=1e-3, max_value=50.0)
_orders = st.floats(min_value=0.05, max_value=1.0)
_consts = st.floats(min_value=0.0, max_value=1e3)


@st.composite
def _envelopes(draw):
    kind = draw(st.sampled_from(envelopes._ENVELOPE_KINDS))
    # steep rates make the envelope underflow to 0 inside the window
    steep = draw(st.sampled_from([1.0, 1.0, 1.0, 30.0]))
    return DecayEnvelope(
        kind,
        gamma=draw(_rates) * steep,
        beta=draw(_orders),
        gamma0=draw(st.floats(min_value=0.0, max_value=5.0)),
        gamma1=draw(_rates) * steep,
        eps=draw(st.floats(min_value=1e-3, max_value=5.0)),
        c=draw(_consts),
        c0=draw(_consts),
        c1=draw(_consts),
    )


@st.composite
def _windowed_matrices(draw):
    n = draw(st.integers(16, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    # decay from none to far past underflow, with subnormal and exact-zero cells
    rate = draw(st.sampled_from([0.0, 0.3, 2.0, 40.0, 700.0]))
    mat = np.exp(-rate * d ** draw(_orders)) * rng.uniform(0.5, 2.0, (n, n))
    if draw(st.booleans()):
        mat = mat * np.exp(2j * np.pi * rng.random((n, n)))
    mat[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))] = 0.0
    # a strictly dominant diagonal keeps every draw invertible
    mat[idx, idx] = 1.0 + np.abs(mat).sum(axis=1)
    margin = draw(st.integers(0, (n - 1) // 2))
    return TruncatedMatrix(mat, margin=margin)


@settings(max_examples=300, deadline=None)
@given(a=_windowed_matrices(), env=_envelopes())
def test_membership_and_excess_match_per_cell_reference(a, env):
    # the per-cell kinds overflow in n^g1 m^-g1 before their ratio form mends the cell
    with np.errstate(over="ignore", invalid="ignore"):
        got = envelope_excess(a, env), membership_constant(a, env)
        want = reference_envelope_excess(a, env), reference_envelope_excess(a, env.unit())
    np.testing.assert_array_equal(got, want)


def product_form(env, m, n):
    """colrow_poly or eq_newdecay as a product of powers in every cell, as evaluated before the ratio form."""
    if env.kind == "colrow_poly":
        return np.where(n > m, env.c0 * n ** env.gamma0, env.c1 * n ** env.gamma1 * m ** (-env.gamma1))
    return np.where(
        n > m, env.c0 * n ** (-1.0 - env.eps), env.c1 * n ** env.gamma1 * m ** (-env.gamma1 - 1.0 - env.eps)
    )


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["colrow_poly", "eq_newdecay"]),
    gamma1=st.floats(min_value=1e-3, max_value=400.0),
    gamma0=st.floats(min_value=0.0, max_value=5.0),
    eps=st.floats(min_value=1e-3, max_value=5.0),
    c1=st.floats(min_value=0.0, max_value=1e3),
    k=st.integers(1, 64),
)
def test_steep_per_cell_kinds_stay_finite_and_keep_finite_cells(kind, gamma1, gamma0, eps, c1, k):
    env = DecayEnvelope(kind, gamma0=gamma0, gamma1=gamma1, eps=eps, c1=c1)
    mm, nn = np.meshgrid(np.arange(1.0, k + 1), np.arange(1.0, k + 1), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        old = product_form(env, mm, nn)
        got = envelope_value(env, mm, nn)
    finite = np.isfinite(old)
    np.testing.assert_array_equal(got[finite], old[finite])
    assert np.all(np.isfinite(got))
    m, n = mm[~finite], nn[~finite]
    ratio = c1 * (n / m) ** gamma1 * (1.0 if kind == "colrow_poly" else m ** (-1.0 - eps))
    np.testing.assert_array_equal(got[~finite], ratio)


@pytest.mark.parametrize("kind", ["colrow_poly", "eq_newdecay"])
def test_membership_constant_of_steep_per_cell_kind_is_not_nan(kind):
    # gamma1 = 270 puts 48^gamma1 past the double range: the product form gave inf * 0 = nan
    env = DecayEnvelope(kind, gamma1=270.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-zero entry over an envelope that underflows to 0 needs an infinite constant
        assert membership_constant(TruncatedMatrix(np.full((48, 48), 0.5)), env) == math.inf
        diagonal = TruncatedMatrix(0.5 * np.eye(48))
        constant = membership_constant(diagonal, env)
    last = float(diagonal.window_indices()[-1])  # the diagonal envelope n^(-1-eps) is least there
    assert constant == (0.5 if kind == "colrow_poly" else 0.5 / last ** (-1.0 - env.eps))


@settings(max_examples=200, deadline=None)
@given(a=_windowed_matrices(), beta=_orders, margin=st.one_of(st.none(), st.integers(0, 7)))
@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_fits_match_per_diagonal_reference(a, beta, margin):
    windowed = a if margin is None else TruncatedMatrix(a.entries, margin=margin)
    assert fit_or_none(fit_decay, windowed, beta) == reference_fit(a, margin, lambda d: d ** beta)
    assert fit_or_none(fit_poly_decay, windowed) == reference_fit(a, margin, np.log1p)


@settings(max_examples=100, deadline=None)
@given(
    a=_windowed_matrices(),
    gamma1=st.floats(min_value=1e-3, max_value=60.0),
    beta=_orders,
    c_inv=st.floats(min_value=0.0, max_value=10.0),
)
def test_inverse_violations_match_per_cell_reference(a, gamma1, beta, c_inv):
    report = hand_built_report(gamma1_pred=gamma1, beta=beta, c_inv_pred=c_inv)
    inv = TruncatedMatrix(np.linalg.inv(a.entries), margin=a.margin)
    want_fit = reference_fit(inv, None, lambda d: d ** beta)
    check = verify_inverse_decay(a, report)
    assert check.violations == reference_inverse_violations(inv.entries, a.margin, gamma1, beta, c_inv)
    assert check.checked == (a.n - 2 * a.margin) ** 2
    # an inverse with 1 or 2 populated distances cannot be fitted: the +inf sentinel rate
    assert check.gamma_fit_inverse == (math.inf if want_fit is None else want_fit[0])


def test_verify_inverse_decay_rejects_nonpositive_predicted_rate():
    for gamma1 in (0.0, -0.5):
        with pytest.raises(ValueError, match="gamma"):
            verify_inverse_decay(TruncatedMatrix(np.eye(16)), hand_built_report(gamma1_pred=gamma1))
