import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frameforge import weights
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
    for value, row in zip(rows, block):
        expected = np.float64(_weighted_norm_reference(row, w, p)).tobytes()
        assert value.tobytes() == np.float64(weighted_norm(row, w, p)).tobytes() == expected


def test_weighted_row_norms_validation():
    w = Weight("moderate")
    with pytest.raises(ValueError, match="two-dimensional"):
        weighted_row_norms(np.ones(3), w, 2)
    with pytest.raises(ValueError, match="p must be"):
        weighted_row_norms(np.ones((2, 3)), w, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        weighted_row_norms(np.array([[1.0, math.inf]]), w, 2)


# Terms of a power sum: zeros, any magnitude from 2^-1074 to 1 (subnormals
# included), and dyadic values whose sums land on rounding ties and on or just
# below powers of two.
_SUM_TERMS = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([math.ldexp(1.0, -k) for k in (0, 1, 2, 51, 52, 53, 54, 55, 105, 106, 107)]
                    + [1.0 - 2.0 ** -53, 0.5 - 2.0 ** -54, 0.75]),
)


@st.composite
def _term_blocks(draw):
    """Blocks of up to 4 rows and 0 to 70 non-negative terms, some rows all zero."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 70)))
    block = draw(arrays(float, shape, elements=_SUM_TERMS))
    block[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))] = 0.0
    return block


@settings(max_examples=400, deadline=None)
@given(block=_term_blocks())
@example(block=np.array([[1.0, 2.0 ** -53]]))
@example(block=np.array([[1.0, 2.0 ** -53, 2.0 ** -106]]))
@example(block=np.array([[2.0 ** -53, 1.0, 2.0 ** -53, 2.0 ** -53]]))
@example(block=np.array([[0.5, 0.5 - 2.0 ** -54, 2.0 ** -55]]))
@example(block=np.array([[0.5, 0.5 - 2.0 ** -54, 2.0 ** -54, 2.0 ** -108]]))
@example(block=np.array([[5e-324, 5e-324, 2.0 ** -1022]]))
@example(block=np.zeros((2, 0)))
def test_exact_row_sums_equal_fsum_bitwise(block):
    expected = np.array([math.fsum(row.tolist()) for row in block])
    assert weights._exact_row_sums(block).tobytes() == expected.tobytes()


def _count_fsum(monkeypatch) -> list:
    calls = []
    fsum = math.fsum

    def counting(values):
        calls.append(len(values))
        return fsum(values)

    monkeypatch.setattr(weights.math, "fsum", counting)
    return calls


def test_exact_row_sums_fall_back_to_fsum_on_a_tie(monkeypatch):
    # 1 + 2^-53 lies halfway between 1 and 1 + 2^-52; the certificate cannot
    # tell on which side of the tie the sum lies, so fsum decides the row
    block = np.array([[0.25, 0.5], [1.0, 2.0 ** -53]])
    calls = _count_fsum(monkeypatch)
    sums = weights._exact_row_sums(block)
    assert calls == [2]
    assert sums.tobytes() == np.array([0.75, math.fsum([1.0, 2.0 ** -53])]).tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_exact_row_sums_certify_gaussian_rows_without_fsum(monkeypatch, p):
    rows = np.random.default_rng(1).standard_normal((128, 1024))
    calls = _count_fsum(monkeypatch)
    norms = weighted_row_norms(rows, Weight("subexponential", beta=0.5, gamma=1.0), p)
    assert calls == []
    assert np.all(np.isfinite(norms)) and np.all(norms > 0)
