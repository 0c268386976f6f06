import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge import envelopes, frames, weights
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
from frameforge.frames import JaffardReport, jaffard_predict, verify_inverse_decay
from frameforge.weights import Weight, log_eval_weight, sup_graded_norm, weighted_row_norms

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


@pytest.mark.parametrize("kind, field", [
    ("poly_star", "gamma"), ("poly_dstar", "gamma"), ("poly_tstar", "gamma"), ("jaffard", "gamma"),
    ("jaffard", "beta"), ("colrow_subexp", "beta"), ("subexp_split", "beta"),
    ("colrow_poly", "gamma0"), ("colrow_subexp", "gamma0"), ("eq_newdecay", "gamma0"), ("grdecay", "gamma0"),
    ("colrow_poly", "gamma1"), ("subexp_split", "gamma1"), ("grdecay", "gamma1"),
    ("eq_newdecay", "eps"), ("grdecay", "eps"), ("subexp_split", "eps"),
    ("jaffard", "c"), ("colrow_poly", "c0"), ("colrow_poly", "c1"),
])
def test_envelope_rejects_a_nan_rate_or_constant(kind, field):
    with pytest.raises(ValueError):
        DecayEnvelope(kind, **{field: math.nan})


def test_implication_chain_rejects_a_nan_rate():
    with pytest.raises(ValueError, match="gamma must be positive"):
        check_implication_chain(TruncatedMatrix(np.eye(32)), math.nan)


@pytest.mark.parametrize("kind, field", [
    ("poly_star", "gamma"), ("poly_dstar", "gamma"), ("poly_tstar", "gamma"), ("jaffard", "gamma"),
    ("colrow_poly", "gamma0"), ("colrow_subexp", "gamma0"), ("eq_newdecay", "gamma0"), ("grdecay", "gamma0"),
    ("colrow_poly", "gamma1"), ("subexp_split", "gamma1"), ("grdecay", "gamma1"),
    ("eq_newdecay", "eps"), ("grdecay", "eps"), ("subexp_split", "eps"),
])
def test_envelope_rejects_an_infinite_rate(kind, field):
    # +inf passed "not x > 0": a jaffard constant then read e^(-inf * 0) = nan on the diagonal
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DecayEnvelope(kind, **{field: math.inf})


@pytest.mark.parametrize("call", [
    lambda: check_implication_chain(TruncatedMatrix(np.eye(32)), math.inf),
    lambda: jaffard_predict(TruncatedMatrix(np.eye(16)), 1.0, math.inf),
], ids=["implication-chain", "jaffard"])
def test_an_infinite_rate_fails_the_checks_by_name(call):
    with pytest.raises(ValueError, match="gamma must be finite"):
        call()


@pytest.mark.parametrize("kind, field", [
    ("jaffard", "gamma"), ("colrow_subexp", "gamma0"), ("colrow_subexp", "gamma1"),
    ("subexp_split", "gamma1"), ("subexp_split", "eps"),
])
@pytest.mark.parametrize("beta", [1.0, 0.3])
def test_huge_finite_rates_give_finite_or_infinite_constants_without_warning(kind, field, beta):
    # at 1e308 the exponents overflowed with a RuntimeWarning, and subexp_split's
    # g1 n^b - (g1+eps) m^b read inf - inf, so its constant was nan
    n = 160  # the window crosses a row block
    env = DecayEnvelope(kind, beta=beta, **{field: 1e308})
    s = np.eye(n, k=1)
    matrices = [np.eye(n), np.eye(n) + 0.1 * s + 0.2 * s.T, np.full((n, n), 0.5) + np.eye(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        constants = [membership_constant(TruncatedMatrix(m), env) for m in matrices]
        idx = np.arange(1.0, n + 1.0)
        cells = envelope_value(env, idx[:, None], idx[None, :])
    assert not any(math.isnan(c) for c in constants) and constants[0] > 0.0
    assert not np.isnan(cells).any() and np.all(cells >= 0.0)


def test_subexp_split_keeps_the_bits_of_its_finite_cells():
    # only the cells the product form loses (inf - inf, or 0) take the difference form
    env = DecayEnvelope("subexp_split", gamma1=400.0, beta=0.5, eps=0.25, c1=3.0)
    mm, nn = np.meshgrid(np.arange(1.0, 300.0), np.arange(1.0, 300.0), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        old = np.where(nn > mm, np.exp(-0.25 * nn ** 0.5),
                       3.0 * np.exp(400.0 * nn ** 0.5 - 400.25 * mm ** 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = envelope_value(env, mm, nn)
    lost = (nn <= mm) & ((old == 0.0) | ~np.isfinite(old))
    assert got[~lost].tobytes() == old[~lost].tobytes()
    m, n = mm[lost], nn[lost]
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(got[lost], 3.0 * np.exp(400.0 * (n ** 0.5 - m ** 0.5) - 0.25 * m ** 0.5))


@pytest.mark.parametrize("call", [
    lambda: p_series(math.nan, 1.0),
    lambda: p_series(1.0, 1.0, tol=math.nan),
    lambda: convolution_constant(math.nan, 1.0, 16),
    lambda: product_envelope(1.0, math.nan, 1.0, 1.0, 1.0),
    lambda: product_envelope(1.0, 1.0, 1.0, math.nan, 1.0),
    lambda: product_envelope(1.0, 1.0, 1.0, 1.0, 1.0, gamma_target=math.nan),
    lambda: poly_continuity_bound(0.0, math.nan, 0.5, 1.0, 1.0),
    lambda: poly_continuity_bound(math.nan, 1.0, 0.5, 1.0, 1.0),
    lambda: poly_continuity_bound(0.0, 1.0, 0.5, math.nan, 1.0),
    lambda: subexp_continuity_bound(0.5, 0.0, math.nan, 0.5, 1.0, 1.0),
    lambda: subexp_continuity_bound(0.5, math.nan, 1.0, 0.5, 1.0, 1.0),
    lambda: subexp_continuity_bound(0.5, 0.0, 1.0, 0.5, 1.0, math.nan),
    lambda: jaffard_predict(TruncatedMatrix(np.eye(16)), 1.0, math.nan),
], ids=["p_series-gamma", "p_series-tol", "convolution-gamma", "product-gamma_a", "product-gamma_b",
        "product-target", "poly-gamma1", "poly-gamma0", "poly-c0", "subexp-gamma1", "subexp-gamma0", "subexp-c1",
        "jaffard-gamma"])
def test_a_nan_rate_or_constant_fails_the_checks(call):
    # every check reads "not x > 0": a NaN compares false both ways
    with pytest.raises(ValueError, match="must|need"):
        call()


def test_convolution_constant_rejects_an_infinite_rate():
    # "not gamma > 0" let +inf through, and exp(-inf * 0) read nan on the diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma must be finite"):
            convolution_constant(math.inf, 1.0, 16)


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


def _blockwise_scaled_abs_sums(m, r, c, v=None):
    """The scaled sums written out as one pass per call: row sums of B = |m_ij| e^{r_i - c_j}, column sums of diag(v) B.

    Each block of rows is tested for a non-finite cell before it is summed.
    """
    with np.errstate(over="ignore"):
        er, ec = np.exp(r), np.exp(-c)
    row_sums, col_sums = np.empty(m.shape[0]), np.zeros(m.shape[1])
    for start in range(0, m.shape[0], envelopes._ROW_BLOCK):
        rows = slice(start, start + envelopes._ROW_BLOCK)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = np.abs(m[rows])
            block *= er[rows, None]
            block *= ec
            if not np.isfinite(block).all():
                i, j = np.nonzero(~np.isfinite(block))
                block[i, j] = np.exp(np.log(np.abs(m[rows][i, j])) + (r[rows][i] - c[j]))
            row_sums[rows] = block.sum(axis=1)
            if v is not None:
                np.multiply(block, v[rows, None], out=block, where=block > 0.0)
            col_sums += block.sum(axis=0)
    return row_sums, col_sums


def _localized_complex(n, seed):
    rng = np.random.default_rng(seed)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + 0.3 * noise * np.exp(-1.2 * d)


def test_scaled_abs_sums_keep_their_bits_past_the_double_range():
    # inf * 0 in row 0 (e^800 e^-790) and row 3, overflows in rows 0 and 2, an all-zero row 4
    m = np.array([[1.0, 1.0, 1e300], [2.0, 0.0, 3.0], [0.0, 1.0, 1e300], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    r = np.array([800.0, -800.0, 1000.0, 800.0, 5.0])
    c = np.array([790.0, -5.0, 0.0])
    rows, cols = envelopes._scaled_abs_sums(m, r, c)
    assert rows.tobytes() == _blockwise_scaled_abs_sums(m, r, c)[0].tobytes()
    assert cols.tobytes() == _blockwise_scaled_abs_sums(m, r, c)[1].tobytes()
    assert rows[0] == rows[2] == math.inf and rows[4] == 0.0
    assert rows[3] == pytest.approx(math.exp(10.0), rel=1e-13)
    n = 300  # more than two row blocks
    mat = _localized_complex(n, 4)
    idx = np.arange(1, n + 1, dtype=float)
    for l in (2000.0 * np.log1p(idx), np.sqrt(idx), np.zeros(n)):
        for r, c in ((l, l), (-l, -l), (-l, l), (l, -l)):
            got, ref = envelopes._scaled_abs_sums(mat, r, c), _blockwise_scaled_abs_sums(mat, r, c)
            assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_schur_bounds_equal_the_four_pass_composition_bitwise(p):
    n = 300
    idx = np.arange(1, n + 1, dtype=float)
    for mat in (_localized_complex(n, 5), _localized_complex(n, 6).real):
        for l in (2000.0 * np.log1p(idx), 1.5 * np.log1p(idx), np.sqrt(idx)):
            b_rows, b_cols = _blockwise_scaled_abs_sums(mat, l, l)
            g_rows, g_cols = _blockwise_scaled_abs_sums(mat, -l, -l)
            s_rows = _blockwise_scaled_abs_sums(mat, -l, -l, b_rows)[1]
            s_cols = _blockwise_scaled_abs_sums(mat, l, l, g_rows)[1]
            ref = (envelopes._schur(b_rows, b_cols, p), envelopes._schur(g_cols, g_rows, p),
                   envelopes._schur(s_rows, s_cols, p))
            assert np.array(frames._schur_bounds(mat, l, p)).tobytes() == np.array(ref).tobytes()


@st.composite
def _scaled_rows(draw):
    """Rows m, row scales r and a moderate weight; some rows are zero, some hold a cell past the double range."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, n))
    m[rng.random((rows, n)) < draw(st.floats(0.0, 0.9))] = 0.0
    r = rng.uniform(-10.0, 10.0, rows)
    for i in range(rows):
        kind = draw(st.sampled_from(["plain", "zero", "huge"]))
        if kind == "zero":
            m[i] = 0.0
        elif kind == "huge":  # the explicitly scaled cell is finite, its weight >= 2 takes it past the range
            r[i] = abs(r[i])
            m[i, draw(st.integers(0, n - 1))] = 1.7e308 / math.exp(r[i])
    return m, r, Weight("moderate", k=draw(st.floats(1.0, 3.0)))


@settings(max_examples=150, deadline=None)
@given(case=_scaled_rows(), p=st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_scaled_abs_row_norms_match_the_weighted_norms_of_the_scaled_rows(case, p):
    m, r, w = case
    c = -log_eval_weight(w, np.arange(1, m.shape[1] + 1, dtype=float))
    got = weights._scaled_abs_row_norms(m, r, c, p)
    ref = weighted_row_norms(m * np.exp(r)[:, None], w, p)
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_scaled_abs_row_norms_past_the_double_range_against_mpmath(p):
    # With (1+n)^2000 every e^{l_n} overflows, so every cell is recomputed in
    # log form, exp(log|m_ij| + (r_i - c_j)), where r_i = -l_i and c_j = -l_j
    # are near -1e4 and nearly cancel.  Adding log|m_ij| + r_i first lost
    # about |l_i| eps (2000 ulp); the error allowed is that of exp at its
    # argument x_ij, a few |x_ij| eps.  The oracle reads the same doubles.
    n = 48
    rng = np.random.default_rng(3)
    m = (np.eye(n) + np.diag(rng.uniform(-0.4, 0.4, n - 1), 1) + np.diag(rng.uniform(-0.3, 0.3, n - 1), -1)
         + np.diag(rng.uniform(-0.2, 0.2, n - 2), 2))
    l = log_eval_weight(Weight("moderate", k=2000.0), np.arange(1, n + 1, dtype=float))
    got = weights._scaled_abs_row_norms(m, -l, -l, p)
    checked = 0
    with mp.workdps(40):
        for i in range(n):
            x = [mp.log(abs(mp.mpf(m[i, j]))) + mp.mpf(l[j]) - mp.mpf(l[i]) for j in np.flatnonzero(m[i])]
            terms = [mp.exp(v) for v in x]
            ref = max(terms) if p == math.inf else mp.fsum(t ** p for t in terms) ** (1 / mp.mpf(p))
            if ref > mp.mpf(np.finfo(float).max):
                assert got[i] == math.inf
                continue
            tol = np.finfo(float).eps * (2 * float(max(abs(v) for v in x)) + 16)
            assert abs(got[i] - ref) <= tol * ref, i
            checked += 1
    assert checked > n // 2


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


@pytest.mark.parametrize(
    "gamma, beta, j",
    [(0.3, 0.25, 4096), (10.0, 0.005, 4096), (0.5, 0.004, 100), (1e300, 0.5, 4096), (1e-300, 1.0, 4096),
     (7.6e16, 1e-17, 4096), (200.0, 0.004, 10)],
)
def test_subexp_tail_integral_against_mpmath(gamma, beta, j):
    # Gamma(s) or gamma^s past the double range: the integral is formed in logs
    with mp.workdps(30):
        s = 1 / mp.mpf(beta)
        ref = mp.gammainc(s, mp.mpf(gamma) * mp.mpf(j) ** mp.mpf(beta)) / (mp.mpf(beta) * mp.mpf(gamma) ** s)
    got = envelopes._subexp_tail_integral(gamma, beta, j)
    if ref < mp.mpf("1e-300"):
        assert got < 1e-290
    else:
        assert got == pytest.approx(float(ref), rel=1e-9)


@pytest.mark.parametrize("gamma, beta", [(17.94 / 4, 1e-300), (1.0, 0.005), (1e-5, 1e-20)])
def test_p_series_past_the_double_range_raises(gamma, beta):
    # the terms of beta = 1e-300 do not decay in double precision (j^beta rounds to 1);
    # its tail integral overflowed as a Python float power and escaped as OverflowError
    with pytest.raises(ValueError, match="passes the double range"):
        p_series(gamma, beta)


def test_p_series_of_an_enormous_finite_sum_or_rate():
    # Gamma(200) overflows a double, the sum 7.9e174 does not; gamma^2 = 1e600 overflows, the sum is 1
    with mp.workdps(30):
        ref = mp.gammainc(200, 10) / (mp.mpf("0.005") * mp.mpf(10) ** 200)  # the integral from 0
    assert p_series(10.0, 0.005) == pytest.approx(float(ref), rel=1e-9)
    assert p_series(1e300, 0.5) == 1.0


def test_p_series_term_cap_raises_value_error():
    # it raised RuntimeError, which the command line did not catch
    with pytest.raises(ValueError, match="term cap"):
        p_series(1e-6, 1.0, tol=1e-300)


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
    with np.errstate(over="ignore"):  # an intercept past the double range gives c = inf, as the library's rule does
        c = float(np.exp(sol[1]))
    return max(0.0, -float(sol[0])), c, resid


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


@st.composite
def _multi_block_matrices(draw):
    """N over two to four row blocks, margins that cut blocks, and bands, gaps or zero rows."""
    n = draw(st.integers(129, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.arange(n)
    signed = (idx[None, :] - idx[:, None]).astype(float)
    rate = draw(st.sampled_from([0.0, 0.3, 2.0, 40.0, 700.0]))
    mat = np.exp(-rate * np.abs(signed) ** draw(_orders)) * rng.uniform(0.5, 2.0, (n, n))
    if draw(st.booleans()):
        mat = mat * np.exp(2j * np.pi * rng.random((n, n)))
    shape = draw(st.sampled_from(["dense", "band", "gap", "zero rows"]))
    if shape == "band":
        mat[(signed < -draw(st.integers(0, 3))) | (signed > draw(st.integers(0, 3)))] = 0.0
    elif shape == "gap":
        # a band and the last few columns: between them the rows' gaps cover whole blocks of columns
        mat[(np.abs(signed) > 1) & (idx[None, :] < n - draw(st.integers(1, 8)))] = 0.0
    elif shape == "zero rows":
        mat[rng.random(n) < draw(st.sampled_from([0.1, 0.5, 1.0]))] = 0.0
        start = draw(st.integers(0, n - 1))
        mat[start : start + envelopes._ROW_BLOCK] = 0.0  # a block of rows, whole or cut by the window
    return TruncatedMatrix(mat, margin=draw(st.integers(0, (n - 1) // 2)))


@settings(max_examples=120, deadline=None)
@given(a=_multi_block_matrices(), env=_envelopes())
def test_membership_and_excess_over_row_blocks_match_per_cell_reference(a, env):
    with np.errstate(over="ignore", invalid="ignore"):
        got = envelope_excess(a, env), membership_constant(a, env)
        want = reference_envelope_excess(a, env), reference_envelope_excess(a, env.unit())
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n, margin", [(300, 37), (384, 64), (400, 0)])
@pytest.mark.parametrize("build", ["tridiagonal", "triangular", "dense complex"])
def test_inverse_check_over_row_blocks_matches_per_cell_reference(n, margin, build):
    rng = np.random.default_rng(n + margin)
    if build == "tridiagonal":
        mat = np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    elif build == "triangular":
        mat = np.eye(n) + 0.5 * np.eye(n, k=1) + 0.2 * np.eye(n, k=3)
    else:
        d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        mat = np.exp(-0.7 * d) * np.exp(2j * np.pi * rng.random((n, n))) + 2.0 * np.eye(n)
    a = TruncatedMatrix(mat, margin=margin)
    inv = frames._inverse(a)
    k = n - 2 * margin
    for gamma1, c_inv, any_violation in [(0.05, 1e300, False), (0.05, 0.5, True), (3.0, 2.0, True)]:
        check = verify_inverse_decay(a, hand_built_report(gamma1_pred=gamma1, beta=1.0, c_inv_pred=c_inv))
        want = reference_inverse_violations(inv, margin, gamma1, 1.0, c_inv)
        assert (want > 0) == any_violation
        assert check.violations == want and check.checked == k * k
        assert check.max_inverse_entry == float(np.max(np.abs(inv[margin : n - margin, margin : n - margin])))


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
    # the product form loses a cell of the n <= m branch to overflow (inf, nan) or underflow (0)
    lost = (nn <= mm) & ((old == 0.0) | ~np.isfinite(old))
    np.testing.assert_array_equal(got[~lost], old[~lost])
    assert np.all(np.isfinite(got))
    m, n = mm[lost], nn[lost]
    ratio = c1 * (n / m) ** gamma1 * (1.0 if kind == "colrow_poly" else m ** (-1.0 - eps))
    np.testing.assert_array_equal(got[lost], ratio)


@pytest.mark.parametrize("kind", ["colrow_poly", "eq_newdecay"])
def test_membership_constant_of_steep_per_cell_kind_is_not_nan(kind):
    # gamma1 = 270 puts 48^gamma1 past the double range: the product form gave inf * 0 = nan
    env = DecayEnvelope(kind, gamma1=270.0)
    full = TruncatedMatrix(np.full((48, 48), 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-zero entry over an envelope that underflows to 0 needs an infinite constant
        assert membership_constant(full, dataclasses.replace(env, gamma1=1000.0)) == math.inf
        constant_full = membership_constant(full, env)
        diagonal = TruncatedMatrix(0.5 * np.eye(48))
        constant = membership_constant(diagonal, env)
    first, last = (float(i) for i in diagonal.window_indices()[[0, -1]])
    # the envelope is least at (m, n) = (last, first), where (first/last)^270 ~ 1e-210 is a normal double
    with mp.workdps(30):
        want = mp.mpf(0.5) * (mp.mpf(last) / mp.mpf(first)) ** 270
        if kind == "eq_newdecay":
            want *= mp.mpf(last) ** (1 + mp.mpf(env.eps))
    assert constant_full == pytest.approx(float(want), rel=1e-12)
    # the diagonal envelope n^(-1-eps) is least at the last index
    assert constant == (0.5 if kind == "colrow_poly" else 0.5 / last ** (-1.0 - env.eps))


@pytest.mark.parametrize("kind", ["colrow_poly", "eq_newdecay"])
def test_steep_per_cell_kind_raises_no_warning(kind):
    # 48^270 overflows in the product form before the ratio form repairs the cell
    env = DecayEnvelope(kind, gamma1=270.0)
    mm, nn = np.meshgrid(np.arange(1.0, 49.0), np.arange(1.0, 49.0), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        old = product_form(env, mm, nn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = envelope_value(env, mm, nn)
        constant = membership_constant(TruncatedMatrix(0.5 * np.eye(48)), env)
    lost = (nn <= mm) & ((old == 0.0) | ~np.isfinite(old))
    assert lost.any() and np.all(np.isfinite(got))
    assert got[~lost].tobytes() == old[~lost].tobytes()
    assert math.isfinite(constant) and constant > 0.0


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(min_value=1e-3, max_value=1e300), k=st.integers(1, 64))
def test_steep_poly_star_stays_finite_and_keeps_finite_cells(gamma, k):
    env = DecayEnvelope("poly_star", gamma=gamma, c=2.0)
    mm, nn = np.meshgrid(np.arange(1.0, k + 1), np.arange(1.0, k + 1), indexing="ij")
    lo, hi = np.minimum(mm, nn), np.maximum(mm, nn)
    with np.errstate(over="ignore", invalid="ignore"):
        old = 2.0 * (1.0 + lo) ** gamma / (1.0 + hi) ** (2.0 * gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = envelope_value(env, mm, nn)
    # every poly_star cell is in the ratio-form branch; one lost to inf, nan or 0 is recomputed
    lost = (old == 0.0) | ~np.isfinite(old)
    np.testing.assert_array_equal(got[~lost], old[~lost])
    ratio = 2.0 * ((1.0 + lo[lost]) / (1.0 + hi[lost])) ** gamma * (1.0 + hi[lost]) ** -gamma
    np.testing.assert_array_equal(got[lost], ratio)
    assert np.all((got >= 0.0) & (got <= 2.0))


def test_underflowed_poly_star_cell_is_its_ratio_form_against_mpmath():
    # (1+100)^300 overflows, so the product form 101^150 / 101^300 gave 0; 101^-150 is a normal double
    env = DecayEnvelope("poly_star", gamma=150.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = envelope_value(env, 100, 100)
        identity = TruncatedMatrix(np.eye(64))
        constant = membership_constant(identity, env)
    with mp.workdps(40):
        assert cell == pytest.approx(float(mp.mpf(101) ** -150), rel=4e-16)
        # the diagonal envelope (1+m)^-150 is least at the window's last index
        last = int(identity.window_indices()[-1])
        assert constant == pytest.approx(float(mp.mpf(1 + last) ** 150), rel=4e-16)


def test_implication_chain_at_a_rate_past_the_double_range_gives_inf_not_nan():
    # (1+m)^1e300 / (1+n)^2e300 was inf / inf = nan, with RuntimeWarnings
    m = np.eye(64) + 0.5 * np.eye(64, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_implication_chain(TruncatedMatrix(m), 1e300)
        assert envelope_value(DecayEnvelope("poly_star", gamma=1e300), 3, 3) == 0.0
    assert rep.star == rep.dstar == rep.tstar == math.inf


def loop_distance_maxima(win):
    """The per-diagonal loop that ``_distance_maxima`` replaced."""
    k = win.shape[0]
    return np.array([max(np.abs(win.diagonal(d)).max(), np.abs(win.diagonal(-d)).max()) for d in range(k)])


_BLOCK_EDGES = [j * envelopes._ROW_BLOCK + s for j in (1, 2) for s in (-1, 0, 1)]


@settings(max_examples=150, deadline=None)
@given(
    k=st.one_of(st.integers(1, 300), st.sampled_from(_BLOCK_EDGES)),
    cplx=st.booleans(),
    density=st.sampled_from([0.0, 0.005, 0.1, 1.0]),
    strides=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    flip=st.booleans(),
    transpose=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_distance_maxima_match_the_per_diagonal_loop(k, cplx, density, strides, flip, transpose, seed):
    rng = np.random.default_rng(seed)
    rows, cols = strides
    shape = (k * rows + 3, k * cols + 3)
    # moduli over many binades, subnormal and huge ones included, and -0.0 off the mask
    big = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    if cplx:
        big = big + 1j * rng.standard_normal(shape)
    big[rng.random(shape) >= density] = -0.0
    win = big[1 : 1 + k * rows : rows, 2 : 2 + k * cols : cols]
    # numpy's complex modulus runs a scalar loop on negative strides, which can
    # round an ulp away from its vector loop; no window of the library is reversed
    if flip and not cplx:
        win = win[::-1]
    if transpose:
        win = win.T
    assert win.shape == (k, k)
    got, want = envelopes._distance_maxima(win), loop_distance_maxima(win)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
