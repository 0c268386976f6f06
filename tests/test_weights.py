import importlib
import math
import pkgutil

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import frameforge
from frameforge import frames, graded, weights
from frameforge.weights import (
    Weight,
    eval_weight,
    log_eval_weight,
    sup_graded_norm,
    verify_weight_admissibility,
    weighted_norm,
    weighted_row_norms,
)


def test_eval_moderate_order_zero_is_one():
    w = Weight("moderate", k=0)
    assert eval_weight(w, 7.0) == 1.0


def test_eval_moderate_k2():
    assert eval_weight(Weight("moderate", k=2), 3.0) == 16.0


def test_eval_subexponential():
    w = Weight("subexponential", beta=0.5, gamma=1.0)
    assert eval_weight(w, 4.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_eval_exponential_ignores_beta_field():
    w = Weight("exponential", gamma=2.0)
    assert eval_weight(w, 3.0) == pytest.approx(math.exp(6.0), rel=1e-14)


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight("bogus")
    with pytest.raises(ValueError):
        Weight("moderate", k=-1)
    with pytest.raises(ValueError):
        Weight("subexponential", beta=1.5)
    with pytest.raises(ValueError):
        Weight("exponential", gamma=0.0)


@pytest.mark.parametrize("kind, field", [("moderate", "k"), ("moderate", "c"), ("subexponential", "beta"),
                                         ("subexponential", "gamma"), ("exponential", "gamma")])
def test_weight_rejects_a_nan_parameter(kind, field):
    with pytest.raises(ValueError):
        Weight(kind, **{field: math.nan})


@pytest.mark.parametrize("params", [{"k": True}, {"k": "1"}, {"k": 1.0, "beta": "x"}, {"k": 1.0, "gamma": None},
                                    {"k": 1.0, "c": False}])
def test_weight_rejects_a_parameter_that_is_not_a_number(params):
    with pytest.raises(TypeError, match="must be a number"):
        Weight("moderate", **params)


@pytest.mark.parametrize("params", [{"k": math.inf}, {"k": 10 ** 400}, {"k": 1.0, "gamma": -math.inf},
                                    {"k": 1.0, "beta": math.nan}])
def test_weight_rejects_a_parameter_that_is_not_finite(params):
    with pytest.raises(ValueError, match="must be finite"):
        Weight("moderate", **params)


def test_admissibility_moderate_is_submultiplicative():
    # (1 + |t+x|) <= (1 + |t|)(1 + |x|) makes the constant at most 1
    w = Weight("moderate", k=3)
    assert verify_weight_admissibility(w) <= 1.0 + 1e-12


def test_admissibility_subexponential_sqrt():
    # subadditivity of sqrt gives constant 1 on any grid
    w = Weight("subexponential", beta=0.5, gamma=1.0)
    v = np.arange(-20, 21, dtype=float)
    t, x = np.meshgrid(v, v, indexing="ij")
    c = verify_weight_admissibility(w, (t.ravel(), x.ravel()))
    assert c <= 1.0 + 1e-12


def test_admissibility_flags_wrong_declaration():
    # e^{|x|} declared as beta=1/2: the empirical constant diverges with the grid
    w = Weight("subexponential", beta=0.5, gamma=1.0)

    def lattice(extent):
        v = np.arange(-extent, extent + 1, dtype=float)
        t, x = np.meshgrid(v, v, indexing="ij")
        return t.ravel(), x.ravel()

    def const_on(extent):
        t, x = lattice(extent)
        # evaluate mu = e^{|x|} by hand against the declared envelope
        log_ratio = np.abs(t + x) - np.abs(t) ** 0.5 - np.abs(x)
        return float(np.exp(np.max(log_ratio)))

    narrow, wide = const_on(10), const_on(40)
    assert wide > 10 * narrow
    # while the correctly declared weights stayed put above
    assert verify_weight_admissibility(w) <= 1.0 + 1e-12


def test_admissibility_empty_grid():
    with pytest.raises(ValueError):
        verify_weight_admissibility(Weight("moderate", k=1), (np.array([]), np.array([])))


def test_weighted_norm_single_term():
    c = np.zeros(10)
    c[0] = 1.0
    assert weighted_norm(c, Weight("moderate", k=3), 2) == pytest.approx(8.0, rel=1e-13)


def test_weighted_norm_unweighted_l1():
    c = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    assert weighted_norm(c, Weight("moderate", k=0), 1) == pytest.approx(3.0, rel=1e-14)


def test_weighted_norm_sup_maximum_location():
    n = np.arange(1, 101, dtype=float)
    c = 1.0 / n ** 2
    w = Weight("moderate", k=1)
    # oracle: direct maximization of (1+n)/n^2
    expected = max((1.0 + k) / k ** 2 for k in range(1, 101))
    assert expected == 2.0
    assert weighted_norm(c, w, math.inf) == pytest.approx(expected, rel=1e-13)


def test_weighted_norm_invalid_p():
    with pytest.raises(ValueError):
        weighted_norm(np.ones(3), Weight("moderate"), 0.5)


def test_weighted_norm_matches_euclidean_for_trivial_weight():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal(rng.integers(1, 200))
        got = weighted_norm(c, Weight("moderate", k=0), 2)
        assert got == pytest.approx(float(np.linalg.norm(c)), rel=1e-13)


def test_weighted_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(11)
    w = Weight("subexponential", beta=0.5, gamma=0.3)
    for _ in range(50):
        n = int(rng.integers(2, 100))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        lam = float(rng.uniform(-3, 3))
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0, math.inf]))
        na, nb = weighted_norm(a, w, p), weighted_norm(b, w, p)
        assert weighted_norm(lam * a, w, p) == pytest.approx(abs(lam) * na, rel=1e-12)
        assert weighted_norm(a + b, w, p) <= (na + nb) * (1 + 1e-12)


def test_norm_monotone_in_nested_weights():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(64)
    weights = [Weight("moderate", k=k) for k in range(5)]
    norms = [weighted_norm(c, w, 2) for w in weights]
    assert all(x <= y * (1 + 1e-13) for x, y in zip(norms, norms[1:]))


def test_weighted_norm_overflow_guarded():
    # level that would overflow exp() termwise still yields a finite log-path sup
    c = np.exp(-np.arange(1, 50, dtype=float))
    w = Weight("exponential", gamma=2.0)
    out = weighted_norm(c, w, math.inf)
    # sup |c_n| e^{2n} = e^{n} attained at the last index
    assert out == pytest.approx(math.exp(49.0), rel=1e-10)


def test_sup_graded_norm_examples():
    delta1 = np.zeros(16)
    delta1[0] = 1.0
    assert sup_graded_norm(delta1, "poly", 5) == 1.0

    n = np.arange(1, 51, dtype=float)
    c = np.exp(-2 * n)
    # max e^{-2n} e^{n} = e^{-n} at n=1
    assert sup_graded_norm(c, "subexp", 1, beta=1.0) == pytest.approx(math.exp(-1), rel=1e-13)

    n = np.arange(1, 201, dtype=float)
    c = 1.0 / n ** 3
    expected = max(1.0 / k ** 3 * k ** 2 for k in range(1, 201))  # brute force
    assert sup_graded_norm(c, "poly", 2) == pytest.approx(expected, rel=1e-13)
    assert expected == 1.0


def test_sup_graded_norm_of_one_tiny_term_at_level_zero_is_exact():
    # the weight n^0 is 1, so the norm is the term itself; in log space it was 143 ulp off
    assert sup_graded_norm([1e-300], "poly", 0) == 1e-300


def test_sup_graded_norm_rejects_negative_level():
    with pytest.raises(ValueError):
        sup_graded_norm(np.ones(4), "poly", -1)


def test_weighted_norm_sum_is_not_absorbed_by_a_large_term():
    # naive left-to-right summation returns exactly 1: each 2^-53 rounds away
    vals = np.array([1.0] + [2.0 ** -53] * 4096)
    assert weighted_norm(vals, Weight("moderate"), 1) == pytest.approx(1.0 + 2.0 ** -41, rel=1e-14)


def test_as_sequence_rejects_nonfinite():
    with pytest.raises(ValueError):
        weighted_norm(np.array([1.0, np.nan]), Weight("moderate"), 2)


_ENTRIES = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@st.composite
def _row_blocks(draw):
    """Real or complex blocks of up to 6 rows, some of them all zero."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(0, 40)))
    block = draw(arrays(float, shape, elements=_ENTRIES))
    if draw(st.booleans()):
        block = block + 1j * draw(arrays(float, shape, elements=_ENTRIES))
    zero_rows = draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))
    block[zero_rows] = 0.0
    return block


def _weighted_norm_reference(c, w, p):
    """The one-vector weighted norm as it was before the row-wise form."""
    if c.size == 0:
        return 0.0
    n = np.arange(1, c.size + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c).astype(float)) + log_eval_weight(w, n)
    m = np.max(logs)
    if m == -math.inf:
        return 0.0
    if p == math.inf:
        return float(np.exp(m))
    return float(np.exp(m + math.log(math.fsum(np.exp(p * (logs - m)))) / p))


@settings(max_examples=200, deadline=None)
@given(
    block=_row_blocks(),
    p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
    w=st.sampled_from([Weight("moderate"), Weight("moderate", k=2.5), Weight("subexponential", beta=0.5)]),
)
def test_weighted_row_norms_equal_weighted_norm_of_each_row_bitwise(block, p, w):
    rows = weighted_row_norms(block, w, p)
    assert rows.shape == (block.shape[0],)
    n = np.arange(1, block.shape[1] + 1, dtype=float)
    for value, row in zip(rows, block):
        assert value.tobytes() == np.float64(weighted_norm(row, w, p)).tobytes()
        # the log-space reference carries the error of exp at log|c_n| + l_n; a
        # product |c_n| mu(n) in the subnormal range is off by up to half its spacing
        nonzero = row != 0.0
        logs = np.abs(np.log(np.abs(row[nonzero]))) + np.abs(log_eval_weight(w, n[nonzero]))
        expected = _weighted_norm_reference(row, w, p)
        tol = 4 * np.finfo(float).eps * (1.0 + np.max(logs, initial=0.0)) * expected + (row.size + 1) * math.ulp(0.0)
        assert abs(value - expected) <= tol


def test_weighted_row_norms_validation():
    w = Weight("moderate")
    with pytest.raises(ValueError, match="two-dimensional"):
        weighted_row_norms(np.ones(3), w, 2)
    with pytest.raises(ValueError, match="p must be"):
        weighted_row_norms(np.ones((2, 3)), w, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        weighted_row_norms(np.array([[1.0, math.inf]]), w, 2)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, math.inf])
def test_row_norms_of_a_block_without_columns_are_zeros(p):
    zeros = np.zeros(3)
    assert weights._scaled_abs_row_norms(np.zeros((3, 0)), zeros, np.zeros(0), p).tobytes() == zeros.tobytes()
    assert weighted_row_norms(np.zeros((3, 0), complex), Weight("moderate"), p).tobytes() == zeros.tobytes()


def test_row_norms_of_a_block_without_columns_check_p_first():
    with pytest.raises(ValueError, match="p must be"):
        weights._scaled_abs_row_norms(np.zeros((3, 0)), np.zeros(3), np.zeros(0), 0.5)


def _mp_weighted_row_norms(block, w, p):
    """The l^p_mu norm of each row at 40 digits, of the moduli of the same doubles, with mu(n) formed in mpmath."""
    with mp.workdps(40):
        n = [mp.mpf(i) for i in range(1, block.shape[1] + 1)]
        if w.kind == "moderate":
            mu = [(1 + i) ** mp.mpf(w.k) for i in n]
        else:
            mu = [mp.exp(mp.mpf(w.gamma) * i ** mp.mpf(w.effective_beta)) for i in n]
        norms = []
        for row in block:
            terms = [abs(mp.mpc(complex(x))) * m for x, m in zip(row, mu) if x != 0]
            if not terms:
                norms.append(mp.mpf(0))
            elif p == math.inf:
                norms.append(max(terms))
            else:
                norms.append(mp.fsum(t ** mp.mpf(p) for t in terms) ** (1 / mp.mpf(p)))
        return norms


@st.composite
def _norm_blocks(draw):
    """Real or complex blocks of up to 4 rows and 0 to 40 columns, with moduli 0 or 1e-200 to 1e100."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 40)))
    block = 10.0 ** draw(arrays(float, shape, elements=st.floats(-200.0, 100.0)))
    block *= draw(arrays(float, shape, elements=st.sampled_from([0.0, 1.0, -1.0])))
    if draw(st.booleans()):
        block = block * np.exp(1j * draw(arrays(float, shape, elements=st.floats(0.0, 6.3))))
    return block


_GAUSSIAN_ROWS = np.random.default_rng(1).standard_normal((128, 1024))
_SQRT_WEIGHT = Weight("subexponential", beta=0.5, gamma=1.0)


@settings(max_examples=150, deadline=None)
@example(block=_GAUSSIAN_ROWS, w=_SQRT_WEIGHT, p=1.0)
@example(block=_GAUSSIAN_ROWS, w=_SQRT_WEIGHT, p=2.0)
@example(block=_GAUSSIAN_ROWS, w=_SQRT_WEIGHT, p=3.5)
@example(block=np.array([[1e-300], [0.0]]), w=Weight("moderate"), p=2.0)
@example(block=np.zeros((2, 0), complex), w=Weight("moderate"), p=1.5)
@given(
    block=_norm_blocks(),
    w=st.sampled_from([Weight("moderate"), Weight("moderate", k=2.5), _SQRT_WEIGHT, Weight("exponential", gamma=2.0)]),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.5, math.inf]),
)
def test_weighted_row_norms_match_mpmath_within_the_error_of_the_weights(block, w, p):
    # exp rounds each log weight l_n, so a product |c_n| e^{l_n} is off by a few
    # l_n eps; the moduli, the scaling and the power sum add a few eps
    l = log_eval_weight(w, np.arange(1, block.shape[1] + 1, dtype=float))
    for value, want, row in zip(weighted_row_norms(block, w, p), _mp_weighted_row_norms(block, w, p), block):
        unit = 4 * np.finfo(float).eps * (1.0 + np.max(l[row != 0.0], initial=0.0))
        assert abs(mp.mpf(value) - want) <= unit * want


def test_every_sequence_norm_reaches_the_one_kernel(monkeypatch):
    # every binding of the kernel in the package counts its calls, so a norm
    # that stopped reaching it (a second kernel) is caught whichever module it is in
    kernel, calls = weights._scaled_abs_row_norms, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    modules = [importlib.import_module(f"frameforge.{m.name}") for m in pkgutil.iter_modules(frameforge.__path__)]
    bound = [mod for mod in modules if getattr(mod, "_scaled_abs_row_norms", None) is kernel]
    assert weights in bound and frames in bound
    for mod in bound:
        monkeypatch.setattr(mod, "_scaled_abs_row_norms", counting)
    e, c = frames.identity_frame(16), np.exp(-np.arange(1.0, 17.0))
    uses = {
        "weighted_norm": lambda: weighted_norm(c, Weight("moderate", k=1.0), 2),
        "graded_level_norm": lambda: graded.graded_level_norm(c, "poly", 1.0),
        "sup_graded_norm": lambda: sup_graded_norm(c, "subexp", 1.0, beta=0.5),
        "expansion_error_curve": lambda: graded.expansion_error_curve(c, e, "poly", 1.0, [8, 16]),
        "fframe_bounds_estimate": lambda: graded.fframe_bounds_estimate(e, [c], "poly", 1.0),
        "weighted_operator_norms": lambda: frames.weighted_operator_norms(e, Weight("moderate", k=1.0), 2.0),
    }
    for name, use in uses.items():
        calls.clear()
        use()
        assert calls, f"{name} does not reach the row-norm kernel"
