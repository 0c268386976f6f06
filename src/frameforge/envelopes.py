"""Off-diagonal decay envelopes and the bounds they induce.

A ``DecayEnvelope`` is a parametrized family of pointwise bounds
``|A[m, n]| <= envelope(m, n)`` on the entries of an infinite matrix,
evaluated here on N x N truncations.  Truncation destroys row and column
tails near the edge, so every envelope check runs on an interior window
``[margin+1, N-margin]`` (logical 1-based indices) and stability under
doubling N is the proxy for statements about the infinite matrix.

Envelope kinds and their bound at (m, n), all with m, n >= 1:

=============  ==========================================================
poly_star      c * (1+m)^g / (1+n)^(2g) for n >= m, symmetric otherwise
poly_dstar     c * (1 + |m-n|)^(-g)
poly_tstar     c * (min(m,n) / max(m,n))^g
colrow_poly    c0 * n^g0 for n > m;  c1 * n^g1 * m^(-g1) for n <= m
eq_newdecay    c0 * n^(-1-eps) for n > m;  c1 * n^g1 * m^(-g1-1-eps) else
grdecay        c * (1 + |m-n|)^(-g1-1-eps)
colrow_subexp  c0 * e^(g0 n^b) for n > m;  c1 * e^(-g1 (m^b - n^b)) else
subexp_split   c0 * e^(-eps n^b) for n > m;  c1 * e^(g1 n^b - (g1+eps) m^b)
jaffard        c * e^(-g |m-n|^b)
=============  ==========================================================

The diagonal n = m always belongs to the decaying branch.

``poly_dstar``, ``grdecay`` and ``jaffard`` depend on (m, n) only through
d = |m-n|: membership constants and excesses evaluate them once per
distance of the window, against the largest |A| there, and the other kinds
at every cell.  A zero entry needs no constant, even where the envelope
underflows to 0; a non-zero entry there gives +inf.  Decay fits regress
the log of the same per-distance maxima, dropping those below
``UNDERFLOW_FLOOR``: the floor applies to fitting only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import gammaincc, zeta

from .weights import _log_grading

__all__ = [
    "DecayEnvelope",
    "DecayFit",
    "ImplicationChainReport",
    "InsufficientDecayData",
    "TruncatedMatrix",
    "check_implication_chain",
    "convolution_constant",
    "envelope_value",
    "fit_decay",
    "fit_poly_decay",
    "membership_constant",
    "p_series",
    "poly_continuity_bound",
    "poly_series",
    "product_envelope",
    "schur_bound",
    "subexp_continuity_bound",
    "verify_fixed_level_continuity",
]

UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class TruncatedMatrix:
    """Dense N x N truncation of an infinite matrix, 1-based logical indices.

    ``margin`` fixes the interior verification window
    ``[margin+1, N-margin]`` in each index; it defaults to ``N // 8``.
    """

    entries: np.ndarray
    margin: int = -1

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.size and not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "entries", a)
        m = self.margin if self.margin >= 0 else a.shape[0] // 8
        if not 0 <= m < max(a.shape[0], 1) / 2:
            raise ValueError("margin must satisfy 0 <= margin < N/2")
        object.__setattr__(self, "margin", int(m))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def window(self) -> slice:
        """0-based slice of the interior window."""
        return slice(self.margin, self.n - self.margin)

    def window_indices(self) -> np.ndarray:
        """Logical (1-based) indices covered by the interior window."""
        return np.arange(self.margin + 1, self.n - self.margin + 1)

    def leading(self, k: int) -> "TruncatedMatrix":
        """Leading k x k corner, margin rescaled proportionally."""
        if not 1 <= k <= self.n:
            raise ValueError("leading block size out of range")
        return TruncatedMatrix(self.entries[:k, :k], margin=(self.margin * k) // self.n)


_ENVELOPE_KINDS = (
    "poly_star",
    "poly_dstar",
    "poly_tstar",
    "colrow_poly",
    "colrow_subexp",
    "grdecay",
    "eq_newdecay",
    "subexp_split",
    "jaffard",
)


@dataclass(frozen=True)
class DecayEnvelope:
    kind: str
    gamma: float = 1.0
    beta: float = 1.0
    gamma0: float = 0.0
    gamma1: float = 1.0
    eps: float = 0.5
    c: float = 1.0
    c0: float = 1.0
    c1: float = 1.0

    def __post_init__(self):
        if self.kind not in _ENVELOPE_KINDS:
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind in ("poly_star", "poly_dstar", "poly_tstar", "jaffard"):
            if self.gamma <= 0:
                raise ValueError("gamma must be positive")
        if self.kind in ("jaffard", "colrow_subexp", "subexp_split"):
            if not 0.0 < self.beta <= 1.0:
                raise ValueError("beta must lie in (0, 1]")
        if self.kind in ("colrow_poly", "colrow_subexp", "eq_newdecay", "subexp_split", "grdecay"):
            if self.gamma0 < 0:
                raise ValueError("gamma0 must be nonnegative")
            if self.gamma1 <= 0:
                raise ValueError("gamma1 must be positive")
        if self.kind in ("eq_newdecay", "grdecay", "subexp_split") and self.eps <= 0:
            raise ValueError("eps must be positive")
        for name in ("c", "c0", "c1"):
            if getattr(self, name) < 0:
                raise ValueError(f"constant {name} must be nonnegative")

    def unit(self) -> "DecayEnvelope":
        """Copy with all constants set to 1 (shape of the bound only)."""
        return dataclasses.replace(self, c=1.0, c0=1.0, c1=1.0)


def _ratio_form_where_nonfinite(out: np.ndarray, m, n, ratio_form) -> np.ndarray:
    """Re-evaluate the non-finite cells of the n <= m branch of ``out`` with ``ratio_form``.

    That branch is c1 n^g1 m^-g1 (times a power of m), evaluated as a
    product of powers: once g1 log N passes ~709, n^g1 overflows and the
    product is inf, or inf * 0 = nan, though (n/m)^g1 <= 1 there.  Only
    those cells are recomputed in ratio form; every finite cell keeps its
    bits.
    """
    m, n = np.broadcast_arrays(m, n)
    bad = (n <= m) & ~np.isfinite(out)
    if np.any(bad):
        out[bad] = ratio_form(m[bad], n[bad])
    return out


def envelope_value(env: DecayEnvelope, m, n):
    """Bound the envelope assigns at logical indices (m, n); broadcasts."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    if np.any(m < 1) or np.any(n < 1):
        raise ValueError("indices are 1-based")
    k = env.kind
    if k == "poly_star":
        lo, hi = np.minimum(m, n), np.maximum(m, n)
        out = env.c * (1.0 + lo) ** env.gamma / (1.0 + hi) ** (2.0 * env.gamma)
    elif k == "poly_dstar":
        out = env.c * (1.0 + np.abs(m - n)) ** (-env.gamma)
    elif k == "poly_tstar":
        lo, hi = np.minimum(m, n), np.maximum(m, n)
        out = env.c * (lo / hi) ** env.gamma
    elif k == "colrow_poly":
        out = np.where(
            n > m,
            env.c0 * n ** env.gamma0,
            env.c1 * n ** env.gamma1 * m ** (-env.gamma1),
        )
        out = _ratio_form_where_nonfinite(out, m, n, lambda m, n: env.c1 * (n / m) ** env.gamma1)
    elif k == "eq_newdecay":
        out = np.where(
            n > m,
            env.c0 * n ** (-1.0 - env.eps),
            env.c1 * n ** env.gamma1 * m ** (-env.gamma1 - 1.0 - env.eps),
        )
        out = _ratio_form_where_nonfinite(
            out, m, n, lambda m, n: env.c1 * (n / m) ** env.gamma1 * m ** (-1.0 - env.eps)
        )
    elif k == "grdecay":
        out = env.c * (1.0 + np.abs(m - n)) ** (-env.gamma1 - 1.0 - env.eps)
    elif k == "colrow_subexp":
        out = np.where(
            n > m,
            env.c0 * np.exp(env.gamma0 * n ** env.beta),
            env.c1 * np.exp(-env.gamma1 * (m ** env.beta - n ** env.beta)),
        )
    elif k == "subexp_split":
        out = np.where(
            n > m,
            env.c0 * np.exp(-env.eps * n ** env.beta),
            env.c1 * np.exp(env.gamma1 * n ** env.beta - (env.gamma1 + env.eps) * m ** env.beta),
        )
    else:  # jaffard
        out = env.c * np.exp(-env.gamma * np.abs(m - n) ** env.beta)
    if out.ndim == 0:
        return float(out)
    return out


def _max_ratio(sub: np.ndarray, vals) -> float:
    # zero entries need no constant even where the envelope underflows;
    # a nonzero entry over an underflowed envelope honestly reports inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sub == 0.0, 0.0, sub / vals)
    return float(np.max(ratio))


def _distance_maxima(win: np.ndarray) -> np.ndarray:
    """max |entry| of the square ``win`` at each distance d = |m-n|, one diagonal view at a time."""
    k = win.shape[0]
    return np.array([max(np.abs(win.diagonal(d)).max(), np.abs(win.diagonal(-d)).max()) for d in range(k)])


_DISTANCE_KINDS = ("poly_dstar", "grdecay", "jaffard")


def membership_constant(a: TruncatedMatrix, env: DecayEnvelope) -> float:
    """Smallest constant making |A| <= C * envelope hold on the window.

    The envelope's own constants are ignored (set to 1), so the return
    value is directly comparable across matrices.  ``poly_dstar``,
    ``grdecay`` and ``jaffard`` are evaluated once per distance |m-n|.  A
    zero entry counts 0 even over an envelope that underflows to 0, a
    non-zero one there gives +inf; ``UNDERFLOW_FLOOR`` is not applied.
    """
    return envelope_excess(a, env.unit())


def envelope_excess(a: TruncatedMatrix, env: DecayEnvelope) -> float:
    """max |A| / envelope on the window, with declared constants in place.

    <= 1 means the matrix satisfies the declared envelope there.
    """
    w = a.window
    win = a.entries[w, w]
    if win.size == 0:
        raise ValueError("interior window is empty")
    idx = a.window_indices()
    if env.kind in _DISTANCE_KINDS:
        # d = |m - n| runs over 0 .. k-1 down the first column; rounded division
        # by one positive value is monotone, so the largest entry gives the max
        return _max_ratio(_distance_maxima(win), envelope_value(env, idx, idx[0]))
    return _max_ratio(np.abs(win), envelope_value(env, idx[:, None], idx[None, :]))


class InsufficientDecayData(ValueError):
    """Fewer than 3 populated anti-diagonals: too little data to fit a rate."""


@dataclass(frozen=True)
class DecayFit:
    gamma: float
    c: float
    residual: float

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.gamma)


def _log_linear_fit(x: np.ndarray, y: np.ndarray) -> DecayFit:
    """Least-squares line y ~ intercept - gamma * x: the rate, e^intercept and the max residual.

    An intercept past log(DBL_MAX) ~ 709.78 gives c = +inf: a constant past
    the double range is inf, as a norm is in ``weights._row_norms``.
    """
    design = np.column_stack([x, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.max(np.abs(design @ sol - y)))
    with np.errstate(over="ignore"):
        c = float(np.exp(sol[1]))
    return DecayFit(gamma=max(0.0, -float(sol[0])), c=c, residual=resid)


def _fit_antidiagonals(a: TruncatedMatrix, abscissa) -> DecayFit:
    # regress log anti-diagonal maxima on abscissa(distance)
    if a.n < 16:
        raise ValueError("need N >= 16 to fit a decay profile")
    maxima = _distance_maxima(a.entries[a.window, a.window])
    ds = np.flatnonzero(maxima[1:] >= UNDERFLOW_FLOOR) + 1
    if ds.size == 0:
        return DecayFit(gamma=math.inf, c=float(maxima[0]), residual=0.0)
    if ds.size < 3:
        raise InsufficientDecayData("fewer than 3 usable anti-diagonals")
    return _log_linear_fit(abscissa(ds.astype(float)), np.log(maxima[ds]))


def fit_decay(a: TruncatedMatrix, beta: float) -> DecayFit:
    """Fit |A[m,n]| ~ C exp(-gamma |m-n|^beta) on the interior window.

    Regresses log of the per-anti-diagonal maxima against distance^beta
    for distances d = 1 .. N - 2*margin - 1, skipping anti-diagonals whose
    maximum is below ``UNDERFLOW_FLOOR``.  A matrix with no off-diagonal
    mass at all is reported with the +inf sentinel rate (it decays faster
    than any envelope of this form); one with fewer than 3 populated
    anti-diagonals carries too little data to fit and raises
    InsufficientDecayData.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    return _fit_antidiagonals(a, lambda d: d ** beta)


def fit_poly_decay(a: TruncatedMatrix) -> DecayFit:
    """Fit |A[m,n]| ~ C (1 + |m-n|)^(-gamma); same protocol as fit_decay."""
    return _fit_antidiagonals(a, np.log1p)


@dataclass(frozen=True)
class ImplicationChainReport:
    """Membership constants under the three nested polynomial conditions.

    ``*_diverges`` flags a constant that grew by factor >= 1.5 when
    re-evaluated on the full matrix versus its leading half, the finite
    signature of a condition the infinite matrix does not satisfy.
    """

    star: float
    dstar: float
    tstar: float
    star_diverges: bool
    dstar_diverges: bool
    tstar_diverges: bool


def check_implication_chain(a: TruncatedMatrix, gamma: float) -> ImplicationChainReport:
    if a.n < 32:
        raise ValueError("need N >= 32 for the doubling comparison")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    envs = {
        "star": DecayEnvelope("poly_star", gamma=gamma),
        "dstar": DecayEnvelope("poly_dstar", gamma=gamma),
        "tstar": DecayEnvelope("poly_tstar", gamma=gamma),
    }
    half = a.leading(a.n // 2)
    consts, flags = {}, {}
    for name, env in envs.items():
        c_half = membership_constant(half, env)
        c_full = membership_constant(a, env)
        consts[name] = c_full
        flags[name] = c_full >= 1.5 * c_half if c_half > 0 else c_full > 0
    return ImplicationChainReport(
        star=consts["star"],
        dstar=consts["dstar"],
        tstar=consts["tstar"],
        star_diverges=flags["star"],
        dstar_diverges=flags["dstar"],
        tstar_diverges=flags["tstar"],
    )


_ROW_BLOCK = 128


def _scaled_abs_sums(m: np.ndarray, r: np.ndarray, c: np.ndarray, v=None) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of B = |m_ij| e^{r_i - c_j} and column sums of diag(v) B (v defaults to ones).

    B is formed in blocks of rows as the plain product |m| e^r e^-c; a cell
    where that is not finite (a factor overflowed, or inf * 0) is recomputed
    as exp(log|m_ij| + r_i - c_j), as in ``_ratio_form_where_nonfinite``, so
    an entry past the double range is inf.  The sums are numpy reductions,
    not BLAS matrix-vector products, whose bits can depend on the thread count.
    """
    with np.errstate(over="ignore"):
        er, ec = np.exp(r), np.exp(-c)
    row_sums, col_sums = np.empty(m.shape[0]), np.zeros(m.shape[1])
    for start in range(0, m.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = np.abs(m[rows])
            block *= er[rows, None]
            block *= ec
            if not np.isfinite(block).all():
                i, j = np.nonzero(~np.isfinite(block))
                block[i, j] = np.exp(np.log(np.abs(m[rows][i, j])) + r[rows][i] - c[j])
            row_sums[rows] = block.sum(axis=1)
            if v is not None:  # an exact zero adds 0, also beside an infinite v_i
                np.multiply(block, v[rows, None], out=block, where=block > 0.0)
            col_sums += block.sum(axis=0)
    return row_sums, col_sums


def _schur(row_sums: np.ndarray, col_sums: np.ndarray, p: float) -> float:
    """K1^(1/p') K2^(1/p) for the largest row sum K1, the largest column sum K2 and p' = p/(p-1)."""
    inv_p = 0.0 if p == math.inf else 1.0 / p
    return float(np.max(row_sums)) ** (1.0 - inv_p) * float(np.max(col_sums)) ** inv_p


def schur_bound(a: TruncatedMatrix, p: float) -> float:
    """Schur-test bound K1^(1/p') K2^(1/p) on the l^p operator norm.

    K1 is the largest absolute row sum, K2 the largest absolute column
    sum, and p' the conjugate exponent.
    """
    if not (p == math.inf or p >= 1):
        raise ValueError("p must be in [1, inf]")
    zero = np.zeros(a.n)
    return _schur(*_scaled_abs_sums(a.entries, zero, zero), p)


def _subexp_tail_integral(gamma: float, beta: float, j: float) -> float:
    # sum_{k > j} e^{-gamma k^beta} <= integral_j^inf e^{-gamma x^beta} dx
    s = 1.0 / beta
    return float(_gamma_fn(s) / (beta * gamma ** s) * gammaincc(s, gamma * j ** beta))


def p_series(gamma: float, beta: float, tol: float = 1e-12) -> float:
    """Sum of e^{-gamma j^beta} over j >= 0, within ``tol`` of the infinite sum.

    Terms are summed in chunks.  After each chunk, summation stops once the
    integral bound on the remaining tail sum_{k >= j} f(k), f(x) = e^{-gamma x^beta},
    drops below ``tol``; failing that, the tail is closed by the integral
    plus f(j)/2 - f'(j)/12 once the Euler-Maclaurin error bound is below
    ``tol``.  f is completely monotone, so f^(4) >= 0: the remainder past
    the next term, f^(3)(j)/720, is at most 2 zeta(4)/(2 pi)^4 = 1/720 times
    the integral of f^(4) from j, |f^(3)(j)|, and the error is at most
    |f^(3)(j)|/360.  With s = beta gamma j^beta, f'(j) = -s f(j)/j and
    |f^(3)(j)| = f(j) s (s^2 + 3 (1-beta) s + (1-beta)(2-beta)) / j^3.  A slow
    rate such as (gamma, beta) = (0.3, 0.25) closes after the first chunk.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = 1.0  # j = 0 term
    carry = 0.0
    j = 1
    chunk = 4096
    cap = 50_000_000
    while True:
        upper = min(j + chunk, cap + 1)
        block = np.arange(j, upper, dtype=float)
        v = float(np.sum(np.exp(-gamma * block ** beta))) - carry
        t = total + v
        carry = (t - total) - v
        total = t
        j = upper
        if _subexp_tail_integral(gamma, beta, j - 1) < tol:
            return total
        f, s = math.exp(-gamma * j ** beta), beta * gamma * j ** beta
        if f * s * (s * s + 3.0 * (1.0 - beta) * s + (1.0 - beta) * (2.0 - beta)) / j ** 3 / 360.0 < tol:
            return total + (_subexp_tail_integral(gamma, beta, j) + f / 2.0 + s * f / j / 12.0 - carry)
        if j > cap:
            raise RuntimeError("series did not reach tolerance within the term cap")


def poly_series(s: float) -> float:
    """Sum of n^(-s) over n >= 1 (requires s > 1)."""
    if s <= 1:
        raise ValueError("polynomial series needs exponent > 1")
    return float(zeta(s, 1))


def convolution_constant(gamma: float, beta: float, n: int) -> float:
    """Empirical constant of the kernel self-convolution bound.

    Returns ``max_{m,n <= N} [sum_k e^{-g|m-k|^b} e^{-g|k-n|^b}] * e^{(g/2)|m-n|^b}``,
    the finite-N constant for absorbing a convolution of two kernels of
    rate gamma into a single kernel of rate gamma/2.  Stability under
    doubling N is the caller's check.
    """
    if n < 16:
        raise ValueError("need N >= 16")
    if gamma <= 0 or not 0.0 < beta <= 1.0:
        raise ValueError("need gamma > 0 and beta in (0, 1]")
    idx = np.arange(1, n + 1, dtype=float)
    dist = np.abs(idx[:, None] - idx[None, :]) ** beta
    e = np.exp(-gamma * dist)
    conv = e @ e
    return float(np.max(conv * np.exp(0.5 * gamma * dist)))


def product_envelope(
    c_a: float,
    gamma_a: float,
    c_b: float,
    gamma_b: float,
    beta: float,
    gamma_target: float | None = None,
):
    """Predicted class constant for a product of two decay-class members.

    For distinct rates the product keeps the smaller rate with constant
    ``c_a * c_b * 2 * p_series(|gamma_a - gamma_b|, beta)``.  For equal
    rates the caller must supply a strictly smaller ``gamma_target``; the
    same formula applies with gap ``gamma_a - gamma_target``.
    Returns ``(predicted constant, product rate)``.
    """
    if gamma_a <= 0 or gamma_b <= 0:
        raise ValueError("rates must be positive")
    if gamma_a != gamma_b:
        rate = min(gamma_a, gamma_b)
        gap = abs(gamma_a - gamma_b)
    else:
        if gamma_target is None:
            raise ValueError("equal rates: supply gamma_target < the common rate")
        if gamma_target >= gamma_a:
            raise ValueError("gamma_target must be strictly below min(gamma_a, gamma_b)")
        rate = gamma_target
        gap = gamma_a - gamma_target
    return c_a * c_b * 2.0 * p_series(gap, beta), rate


def poly_continuity_bound(gamma0: float, gamma1: float, eps: float, c0: float, c1: float) -> float:
    """Operator constant K for the column-decay/row-growth polynomial condition.

    Any matrix dominated entrywise by the ``colrow_poly`` envelope with
    these parameters maps c with finite sup-norm at level
    ``gamma0 + gamma1 + 1 + eps`` to output with sup-norm at level
    ``gamma1`` at most K times larger.  K is the exact two-series constant
    from splitting the sum at the diagonal:
    ``K = c1 * sum n^-(gamma0+1+eps) + c0 * sum n^-(1+eps)``.
    """
    if gamma0 < 0 or gamma1 <= 0 or not 0 < eps < 1:
        raise ValueError("need gamma0 >= 0, gamma1 > 0, eps in (0, 1)")
    if c0 < 0 or c1 < 0:
        raise ValueError("constants must be nonnegative")
    total = 0.0
    if c1 > 0:
        total += c1 * poly_series(gamma0 + 1.0 + eps)
    if c0 > 0:
        total += c0 * poly_series(1.0 + eps)
    return total


def subexp_continuity_bound(
    beta: float, gamma0: float, gamma1: float, eps: float, c0: float, c1: float
) -> float:
    """Sub-exponential analogue of :func:`poly_continuity_bound`.

    ``K = c1 * sum_{n>=1} e^{-(gamma0+eps) n^beta} + c0 * sum_{n>=1} e^{-eps n^beta}``,
    bounding the sup-norm at level gamma1 of the output by K times the
    input's sup-norm at level ``gamma1 + gamma0 + eps``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if gamma0 < 0 or gamma1 <= 0 or not 0 < eps < 1:
        raise ValueError("need gamma0 >= 0, gamma1 > 0, eps in (0, 1)")
    if c0 < 0 or c1 < 0:
        raise ValueError("constants must be nonnegative")
    total = 0.0
    if c1 > 0:
        total += c1 * (p_series(gamma0 + eps, beta) - 1.0)
    if c0 > 0:
        total += c0 * (p_series(eps, beta) - 1.0)
    return total


def verify_fixed_level_continuity(a: TruncatedMatrix, env: DecayEnvelope) -> float:
    """Exact operator norm of A on l^inf at the envelope's own grading level.

    For the self-mapping envelope kinds (``eq_newdecay``, ``grdecay``,
    ``subexp_split``) boundedness is claimed without an explicit constant.
    With the level-gamma1 weights w_n = n^gamma1 (``subexp_split``:
    e^{gamma1 n^beta}) the norm of c is sup_n |c_n| w_n, and the norm of A
    is max_m w_m sum_n |a_mn| / w_n, attained at c_n = sign(conj a_mn) / w_n
    for the maximizing row m.  Requires A to actually satisfy the declared
    envelope on the interior window.
    """
    if env.kind not in ("eq_newdecay", "grdecay", "subexp_split"):
        raise ValueError("envelope kind has no fixed-level continuity claim")
    if envelope_excess(a, env) > 1.0 + 1e-9:
        raise ValueError("envelope violated on the interior window")
    family, beta = ("subexp", env.beta) if env.kind == "subexp_split" else ("poly", 1.0)
    level = _log_grading(np.arange(1, a.n + 1, dtype=float), family, env.gamma1, beta)
    return float(np.max(_scaled_abs_sums(a.entries, level, level)[0]))
