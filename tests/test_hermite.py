import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from frameforge.hermite import (
    HermiteContext,
    TestFunction,
    classify_coefficient_decay,
    hermite_eval,
    hermite_function_table,
    project,
)


@pytest.fixture(scope="module")
def ctx64():
    return HermiteContext(nmax=64)


def test_ground_state_at_origin(ctx64):
    assert hermite_eval(ctx64, 1, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)


def test_second_function_odd_parity(ctx64):
    assert hermite_eval(ctx64, 2, 0.0) == 0.0
    x = np.linspace(-3, 3, 21)
    np.testing.assert_allclose(hermite_eval(ctx64, 2, x), -hermite_eval(ctx64, 2, -x), atol=1e-15)


def test_index_range_enforced(ctx64):
    with pytest.raises(ValueError):
        hermite_eval(ctx64, 0, 1.0)
    with pytest.raises(ValueError):
        hermite_eval(ctx64, 65, 1.0)


def test_orthonormality_under_rule(ctx64):
    b = ctx64.basis
    gram = (b * ctx64.weights[:, None]).T @ b
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10


def test_quadrature_moments_exact():
    # integral of x^(2k) e^(-x^2) equals Gamma(k + 1/2); Gauss rule is exact
    ctx = HermiteContext(nmax=32)
    g = np.exp(-ctx.nodes ** 2)
    for k in range(0, 41, 5):
        got = ctx.integrate(ctx.nodes ** (2 * k) * g)
        assert got == pytest.approx(float(gamma_fn(k + 0.5)), rel=1e-12)


def test_modified_weights_match_raw_weights_at_low_order():
    # where the classical Gauss-Hermite weights do not underflow, the
    # identity-based modified weights agree with w_i * exp(x_i^2)
    from scipy.special import roots_hermite

    ctx = HermiteContext(nmax=40)
    x, w = roots_hermite(ctx.quad_order)
    mask = w > 1e-280
    np.testing.assert_allclose(ctx.weights[mask], w[mask] * np.exp(x[mask] ** 2), rtol=1e-11)


def test_function_table_degree_zero():
    table = hermite_function_table(0, np.array([0.0, 1.0]))
    assert table.shape == (2, 1)
    np.testing.assert_allclose(table[:, 0], np.pi ** -0.25 * np.exp(-0.5 * np.array([0.0, 1.0]) ** 2))


def test_recurrence_against_high_precision_oracle():
    # exact recurrence in 50-digit arithmetic at x in {0, 1, 2}
    mp.mp.dps = 50
    table = hermite_function_table(128, np.array([0.0, 1.0, 2.0]))
    for xi, x in enumerate([mp.mpf(0), mp.mpf(1), mp.mpf(2)]):
        scale = mp.e ** (-x * x / 2)
        h_prev = mp.pi ** mp.mpf("-0.25")
        h_cur = mp.sqrt(2) * x * h_prev
        assert abs(table[xi, 0] - float(h_prev * scale)) < 1e-12
        if abs(float(h_cur * scale)) > 0:
            assert abs(table[xi, 1] - float(h_cur * scale)) < 1e-12
        for k in range(1, 128):
            h_next = x * mp.sqrt(mp.mpf(2) / (k + 1)) * h_cur - mp.sqrt(mp.mpf(k) / (k + 1)) * h_prev
            h_prev, h_cur = h_cur, h_next
            ref = float(h_cur * scale)
            assert abs(table[xi, k + 1] - ref) <= 1e-12 * max(1.0, abs(ref))



@pytest.mark.parametrize("n", [1000, 1537, 2055])
def test_table_past_degree_1000_against_the_closed_form(n):
    # psi_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) e^(-x^2/2) with mpmath's H_n at 50 digits, at points
    # inside and past the turning point sqrt(2n+1); every point beyond x ~ 34 passes e^(x^2/2) > 1e250 on
    # its way up, so the renormalization runs.  Tolerance: each recurrence step rounds its two terms
    # and their difference, a few eps of the terms, and in the forward direction a three-term
    # recurrence for the dominant (here the only computed) solution carries those errors without
    # amplification, so n steps give at most about 16 n eps of the local amplitude
    # A = sqrt(psi_n^2 + psi_{n-1}^2), the envelope of the oscillation that neither solution
    # exceeds; exp(logscale) adds the error of exp at its argument, |x^2/2| eps relative, with room
    # for the 1e250 divisions that the added logs of 1e250 undo to within an eps each.
    mp.mp.dps = 50
    eps = np.finfo(float).eps
    turning = math.sqrt(2 * n + 1)
    x = np.array([0.5, 17.25, 40.0, 0.95 * turning, turning + 1.0, turning + 4.0])
    table = hermite_function_table(n, x)

    def psi(k, xi):
        xi = mp.mpf(xi)
        return mp.hermite(k, xi) * mp.exp(-xi * xi / 2) / mp.sqrt(mp.mpf(2) ** k * mp.factorial(k) * mp.sqrt(mp.pi))

    for i, xi in enumerate(x):
        ref, prev = psi(n, xi), psi(n - 1, xi)
        amplitude = float(mp.sqrt(ref ** 2 + prev ** 2))
        assert abs(table[i, n] - float(ref)) <= eps * (16 * n + xi * xi) * amplitude, (n, xi)


def reference_table(kmax, x):
    """The recurrence with every column stored and exp(logscale) taken at every degree."""
    out = np.empty((x.size, kmax + 1))
    logscale = -0.5 * x * x
    p_prev = np.full_like(x, math.pi ** -0.25)
    out[:, 0] = p_prev * np.exp(logscale)
    p_cur = math.sqrt(2.0) * x * p_prev
    out[:, 1] = p_cur * np.exp(logscale)
    for k in range(1, kmax):
        p_next = x * math.sqrt(2.0 / (k + 1)) * p_cur - math.sqrt(k / (k + 1)) * p_prev
        p_prev, p_cur = p_cur, p_next
        big = np.abs(p_cur) > 1e250
        if np.any(big):
            p_prev, p_cur, logscale = p_prev.copy(), p_cur.copy(), logscale.copy()
            p_prev[big] /= 1e250
            p_cur[big] /= 1e250
            logscale[big] += 250.0 * math.log(10.0)
        out[:, k + 1] = p_cur * np.exp(logscale)
    return out


def same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=10, deadline=None)
@given(nmax=st.integers(1, 700), pick=st.floats(0.0, 1.0))
@example(nmax=1024, pick=1.0)  # degree 2055, past hundreds of 1e250 renormalizations
def test_context_keeps_the_bits_of_the_full_table(nmax, pick):
    # the context stores only degrees 0..nmax-1 and q-1 of the q x q table
    ctx = HermiteContext(nmax=nmax)
    q = ctx.quad_order
    table = hermite_function_table(q - 1, ctx.nodes)
    same_bits(table, reference_table(q - 1, ctx.nodes))
    same_bits(ctx.basis, table[:, :nmax])
    same_bits(ctx.weights, 1.0 / (q * table[:, q - 1] ** 2))
    n = 1 + round(pick * (nmax - 1))
    same_bits(hermite_eval(ctx, n, ctx.nodes), table[:, n - 1])


def test_evaluation_survives_extreme_arguments():
    # far beyond the turning point the value underflows cleanly to ~0
    ctx = HermiteContext(nmax=8)
    vals = hermite_eval(ctx, 8, np.array([50.0, -50.0]))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1e-200


def test_projection_of_basis_element_is_delta(ctx64):
    combo = np.zeros(8)
    combo[2] = 1.0
    c = project(ctx64, TestFunction.hermite_combo(combo), 16)
    expected = np.zeros(16)
    expected[2] = 1.0
    np.testing.assert_array_equal(c, expected)


def test_projection_gaussian_one_is_ground_state(ctx64):
    c = project(ctx64, TestFunction.gaussian(1.0), 64)
    assert c[0] == pytest.approx(math.pi ** 0.25, abs=1e-10)
    assert np.max(np.abs(c[1:])) < 1e-10


def test_projection_gaussian_three_parity_and_parseval(ctx64):
    c = project(ctx64, TestFunction.gaussian(3.0), 64)
    # odd classical degrees vanish, i.e. even 1-based indices
    assert np.max(np.abs(c[1::2])) < 1e-14
    surviving = np.abs(c[0::2])
    assert np.all(surviving[:-1] > surviving[1:])  # geometric-type decay
    target = TestFunction.gaussian(3.0).norm_squared()
    assert target == pytest.approx(math.sqrt(math.pi / 3.0), rel=1e-15)
    assert float(np.sum(c ** 2)) == pytest.approx(target, abs=1e-8)


def test_parseval_partial_sums_monotone(ctx64):
    c = project(ctx64, TestFunction.gaussian(3.0), 64)
    partial = np.cumsum(np.abs(c) ** 2)
    assert np.all(np.diff(partial) >= 0)
    assert partial[-1] <= TestFunction.gaussian(3.0).norm_squared() + 1e-12


def test_projection_sampled_grid_checked(ctx64):
    vals = np.exp(-ctx64.nodes ** 2)
    c_direct = project(ctx64, TestFunction.gaussian(2.0), 32)
    c_sampled = project(ctx64, TestFunction.sampled(ctx64.nodes, vals), 32)
    np.testing.assert_allclose(c_sampled, c_direct, atol=1e-13)
    with pytest.raises(ValueError, match="grid"):
        project(ctx64, TestFunction.sampled(ctx64.nodes + 0.1, vals), 32)


def test_projection_truncation_range(ctx64):
    with pytest.raises(ValueError):
        project(ctx64, TestFunction.gaussian(1.0), 65)


def test_quad_order_floor():
    with pytest.raises(ValueError):
        HermiteContext(nmax=32, quad_order=60)


def test_testfunction_json_round_trip():
    for f in [
        TestFunction.gaussian(2.5),
        TestFunction.hermite_combo(np.array([1.0, 0.0, -0.5])),
        TestFunction.hermite_combo(np.array([1 + 2j, 0.5j])),
        TestFunction.sampled(np.array([0.0, 1.0]), np.array([1.0, 0.5])),
    ]:
        g = TestFunction.from_json(f.to_json())
        assert g.kind == f.kind
        if f.kind == "gaussian":
            assert g.a == f.a
        elif f.kind == "hermite_combo":
            np.testing.assert_array_equal(g.coeffs, f.coeffs)
        else:
            np.testing.assert_array_equal(g.values, f.values)


def test_testfunction_json_round_trip_complex_combo_bit_for_bit():
    coeffs = np.array([complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0), 5e-324 - 1e300j, 1 + 2j])
    f = TestFunction.hermite_combo(coeffs)
    g = TestFunction.from_json(json.loads(json.dumps(f.to_json())))
    assert g.coeffs.dtype == coeffs.dtype
    assert g.coeffs.tobytes() == coeffs.tobytes()


def test_classify_delta_is_capped():
    c = np.zeros(64)
    c[0] = 1.0
    rep = classify_coefficient_decay(c)
    assert rep.poly_order == 20
    assert all(math.isinf(f.gamma) for f in rep.subexp)


def test_classify_exponential_sequence():
    n = np.arange(1, 129, dtype=float)
    rep = classify_coefficient_decay(np.exp(-n), beta_grid=(1.0,))
    fit = rep.subexp[0]
    assert fit.gamma == pytest.approx(1.0, abs=1e-3)
    assert fit.residual < 1e-9


def test_classify_quartic_poly_order():
    n = np.arange(1, 257, dtype=float)
    rep = classify_coefficient_decay(1.0 / n ** 4)
    assert rep.poly_order == 3


def test_classify_inverse_square():
    n = np.arange(1, 257, dtype=float)
    assert classify_coefficient_decay(1.0 / n ** 2).poly_order == 1


def test_classify_needs_enough_data():
    with pytest.raises(ValueError):
        classify_coefficient_decay(np.ones(16))
