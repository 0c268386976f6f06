"""Truncated frame systems in Hermite coordinates.

A system is stored through its coefficient matrix E with ``E[m-1, n-1] =
<e_m, g_n>`` against the reference orthonormal basis (g_n), so every
frame-theoretic operation becomes linear algebra on E:

* analysis of f (coefficients c):   ``conj(E) @ c``
* synthesis of a sequence a:        ``E.T @ a``
* the same on a block of rows F:    ``F @ conj(E).T`` and ``F @ E``
* frame operator on coordinates:    ``E.T @ conj(E)``
* canonical dual system:            rows of ``E @ (E^H E)^{-1} = E^{-H}``,
  from one inverse of E: by 2 x 2 block products when E is triangular,
  by elimination within the band when E is narrowly banded

Every product with E (Gram matrices included) and every pass over the scaled
moduli of E or of its dual reads each block of ``_ROW_BLOCK`` rows or columns
only over the range that holds its non-zeros (``TruncatedMatrix.spans``, read
off one scan of each row's first and last non-zero column, its ``profile``):
with w bands a Gram matrix costs O(N (w + b)^2) and a pass O(N (w + b)) for
blocks of b rows, and a dense E runs the untrimmed products, bit for bit.

E is square, so the dual is solved from E itself, as ``inv(E)^H``, with an
error of order cond(E) eps; the normal equations in E^H E would square the
condition number.  An upper triangular E, such as every perturbation of the
identity I + sum_i a_i S^i, is inverted through
[A B; 0 D]^-1 = [A^-1, -A^-1 B D^-1; 0, D^-1], recursing on A and D down to
blocks of at most ``_LEAF`` = 64 rows that go to LAPACK's LU, with the corner
products cut to the rows and columns of B that the profile reaches; a lower
triangular E, read off the profile too, through its transpose.  Any other E
whose lower and upper bandwidths p and q (off the profile) are narrow for
its size, such as a tridiagonal E from N = 512 on, is inverted by Gaussian
elimination with partial pivoting confined to the band, in O(N^2 (p + q))
flops (``_invert_banded``, the method of LAPACK's ``gbtrf``/``gbtrs``); every
other E takes the LU whole.  The inverse-decay check reads the same
inverse.  Of the Gram matrices E^H E and AA* only the extreme eigenvalues
are read (the frame bounds, the spectral norm, the rank rule and Jaffard's
contraction).  When the Gram's band of b = p + q is narrow for its size
(``_narrow_gram``), they come from bisection on a Cholesky test of its
b + 1 diagonals, O(N b^2) per test, with proven ends (``_band_extremes``),
and E^H E is formed only as those diagonals; any other E takes
``eigvalsh`` of the whole Gram, which is not kept.  When no eigenvalue is
asked for, the dual's rank rule is first tried on a Gershgorin-type bound
read off E's diagonal in O(N^2), which proves full rank for diagonally
dominant systems, then on one shifted Cholesky test of E^H E: of its band
when that is narrow, of the whole Gram otherwise.

The reference basis is the Hermite basis throughout; a general Riesz
reference is obtained by composing coefficient matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .envelopes import (
    DecayEnvelope,
    DecayFit,
    InsufficientDecayData,
    TruncatedMatrix,
    _check_rate,
    _envelope_blocks,
    _scaled_abs_sums,
    _schur,
    fit_decay,
    fit_poly_decay,
    membership_constant,
    p_series,
)
from .weights import (
    _ROW_BLOCK,
    Weight,
    _scaled_abs_blocks,
    _scaled_abs_row_norms,
    _to_json_list,
    as_sequence,
    log_eval_weight,
)

__all__ = [
    "DualLocalizationReport",
    "ExampleInequalityReport",
    "FrameSystem",
    "IncompatibleWeight",
    "InverseDecayReport",
    "JaffardReport",
    "OperatorNormReport",
    "PerturbationSpec",
    "analysis",
    "build_perturbed_basis",
    "canonical_dual",
    "cross_gram",
    "dual_localization_check",
    "frame_bounds",
    "identity_frame",
    "jaffard_predict",
    "spectral_norm",
    "synthesis",
    "verify_example_inequalities",
    "verify_inverse_decay",
    "weighted_operator_norms",
]

RANK_TOL = 1e-10


class IncompatibleWeight(ValueError):
    """The weight grows too fast for the system's localization order."""


def _full_rank(lam_min: float, lam_max: float, n: int) -> bool:
    """Whether the extreme eigenvalues of an N x N Gram matrix show full rank.

    The smallest eigenvalue must exceed RANK_TOL**2 (sigma_min > RANK_TOL)
    and N eps lambda_max: an eigenvalue from ``eigvalsh`` is only accurate
    to about N eps lambda_max, so below that it cannot be told from 0.  The
    bisection of ``_band_extremes`` is accurate to 4 eps lambda_max, and the
    rule stays the same for either.
    """
    return lam_min > max(RANK_TOL ** 2, n * np.finfo(float).eps * lam_max)


def _product(a: np.ndarray, a_spans, b: np.ndarray, b_spans, conj_a: bool = False, conj_b: bool = False) -> np.ndarray:
    """``a @ b``, with a or b conjugated when asked, read only where they hold non-zeros.

    ``a_spans`` are the column ranges of a's blocks of ``_ROW_BLOCK`` rows
    and ``b_spans`` the row ranges of b's blocks of columns, as in
    ``TruncatedMatrix.spans``; None stands for one block of all of a (a
    1-D a is one row).  The tile of row block i and column block j is one
    product over the intersection of their ranges, which holds all non-zero
    terms of its entries, so each entry stays one dot product, never a sum
    of partial products whose bits could differ; with no intersection the
    tile stays zero.  Neighbouring tiles over the same range run as one
    product: a dense pair is the untrimmed product, bit for bit.
    """
    rows, cols = (a.shape[0] if a.ndim == 2 else 1), b.shape[1]
    step = _ROW_BLOCK if a_spans is not None else max(rows, 1)
    plan = []  # [first row, row stop, [[k0, k1, first column, column stop], ...]]
    for i, (a0, a1) in enumerate(a_spans if a_spans is not None else [(0, a.shape[-1])]):
        tiles = []
        for j, (b0, b1) in enumerate(b_spans):
            k0, k1, c0 = max(a0, b0), min(a1, b1), j * _ROW_BLOCK
            if k0 >= k1:
                continue
            if tiles and tiles[-1][:2] == [k0, k1] and tiles[-1][3] == c0:
                tiles[-1][3] = min(c0 + _ROW_BLOCK, cols)
            else:
                tiles.append([k0, k1, c0, min(c0 + _ROW_BLOCK, cols)])
        if plan and plan[-1][2] == tiles:
            plan[-1][1] = min((i + 1) * step, rows)
        else:
            plan.append([i * step, min((i + 1) * step, rows), tiles])
    out = np.zeros(a.shape[:-1] + (cols,), np.result_type(a, b))
    for r0, r1, tiles in plan:
        lhs, dst = (a[r0:r1], out[r0:r1]) if a.ndim == 2 else (a, out)
        for k0, k1, c0, c1 in tiles:
            x, y = lhs[..., k0:k1], b[k0:k1, c0:c1]
            np.matmul(x.conj() if conj_a else x, y.conj() if conj_b else y, out=dst[..., c0:c1])
    return out


def _gram_product(m: TruncatedMatrix, adjoint_first: bool, name: str) -> np.ndarray:
    """The Gram matrix ``name`` of M: M^H M when ``adjoint_first``, else M M^H; raises ValueError when it overflows.

    ``_product`` forms it over M's spans, conjugating one tile at a time.
    The stored matrix is finite, so a non-finite Gram means that entries of
    about 1e154 or more squared past the double range; ``eigvalsh`` would
    then fail to converge rather than say why.
    """
    e, (rows, cols) = m.entries, m.spans
    with np.errstate(over="ignore"):
        gram = _product(e.T, cols, e, cols, conj_a=True) if adjoint_first else _product(e, rows, e.T, rows, conj_b=True)
    _require_finite(gram, name)
    return gram


def _require_finite(gram: np.ndarray, name: str) -> None:
    """Raise ValueError naming the Gram matrix ``name`` (or its diagonals) when it overflowed."""
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"{name} overflows the double range: matrix entries near 1e154 or larger")


def _require_full_rank(lam_min: float, lam_max: float, n: int, message: str) -> None:
    """Raise LinAlgError unless ``_full_rank`` holds."""
    if not _full_rank(lam_min, lam_max, n):
        raise np.linalg.LinAlgError(message)


_U = Fraction(1, 2 ** 53)  # unit roundoff of IEEE double precision


_ETA = Fraction(1, 2 ** 1074)  # the least subnormal double: the absolute part of a rounding below the normal range
_MAX = Fraction(np.finfo(float).max)


def _gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), exactly."""
    return k * _U / (1 - k * _U)


def _gamma_tilde(k: int) -> Fraction:
    """Higham's complex-safe constant, exactly: gamma_{3k}, with gamma_j = j u / (1 - j u)."""
    return _gamma(3 * k)


def _prove_full_rank_from_diagonal(e: np.ndarray) -> bool:
    """Whether a Gershgorin-type bound on E's diagonal proves that E^H E has full rank.

    True proves lambda_min(E^H E) > tau = max(RANK_TOL^2, N eps lambda_bar)
    for a proven lambda_bar >= lambda_max(E^H E), the claim of
    ``_certify_full_rank``, in one O(N^2) pass over the moduli of E and no
    Gram matrix.  It covers systems dominated by their diagonal, such as
    the localized perturbations of the identity that ``gen`` writes; False
    proves nothing, and the caller goes on to the shifted Cholesky.

    With d_i = |e_ii| and the deleted row and column sums
    R_i = sum_{j != i} |e_ij| and C_i = sum_{j != i} |e_ji|,
    sigma_min(E) >= L = min_i (d_i - (R_i + C_i) / 2)
    (C. R. Johnson, "A Gersgorin-type lower bound for the smallest singular
    value", Linear Algebra Appl. 112, 1989), and
    lambda_max(E^H E) = sigma_max(E)^2 <= ||E||_inf ||E||_1, the Schur
    bound: the largest row sum of |E| times its largest column sum.  So
    L > 0 with L^2 > tau proves the claim.

    Rounding, charged in exact rational arithmetic; u = 2^-53 = eps/2,
    eta = 2^-1074 (the least subnormal) and gamma_k = k u / (1 - k u).

    1. Moduli.  A modulus a = |e_ij|, computed in double precision
       whatever the dtype of E, is within an ulp of it (exact for real E):
       |a^ - a| <= 2u a + eta.  So a <= (a^ + eta) / (1 - 2u),
       and the diagonal is rounded down: d_i >= (d^_i - eta) / (1 + 2u).
    2. Sums.  R^_i and C^_i are floating-point sums of N non-negative
       moduli (the diagonal zeroed, so adding an exact 0) in some order,
       within gamma_N of the exact sums of the a^ (Higham, *Accuracy and
       Stability of Numerical Algorithms*, 2002, sec. 4.2).  With step 1,
       R_i <= (R^_i / (1 - gamma_N) + N eta) / (1 - 2u), and the same for C_i.
    3. The minimum.  t^_i = fl(d^_i - fl(fl(R^_i + C^_i) / 2)) is computed
       for every row.  Addition and subtraction round with a relative error
       of at most u, also below the normal range; halving is exact but
       below it, where it is within eta / 2.  So for s_i = R^_i + C^_i and t^_i > 0,
       q_i = d^_i - s_i / 2 >= t^_i / (1 + u) - u s_i / 2 - eta / 2, and with
       S = max R^ + max C^ >= s_i,  min q >= min t^ / (1 + u) - u S / 2 - eta / 2.
    4. Together, for a = 1 / (1 + 2u) and b = 1 / (2 (1 - gamma_N) (1 - 2u)),
       d_i - (R_i + C_i) / 2 >= a d^_i - b s_i - a eta - N eta / (1 - 2u)
       = a q_i - (b - a/2) s_i - a eta - N eta / (1 - 2u), so
       L >= a min q - (b - a/2) S - a eta - N eta / (1 - 2u).
    5. Upper bound.  Each row sum d_i + R_i is at most
       (max d^ + max R^ / (1 - gamma_N) + (N + 1) eta) / (1 - 2u), by steps 1
       and 2, and each column sum likewise; lambda_bar is their product.

    A sum that is not finite proves nothing.  Neither does a lambda_bar
    above half the largest double: the Gram matrix might then overflow, and
    ``_gram_product`` is left to say so.
    """
    n = e.shape[0]
    diag, rows, cols = np.empty(n), np.empty(n), np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _ROW_BLOCK):
            block = np.abs(e[start : start + _ROW_BLOCK], dtype=float)
            i = np.arange(block.shape[0])
            diag[start + i] = block[i, start + i]
            block[i, start + i] = 0.0
            rows[start + i] = block.sum(axis=1)
            cols += block.sum(axis=0)
        t_min = float(np.min(diag - (rows + cols) / 2))
    d_max, r_max, c_max = (float(np.max(x)) for x in (diag, rows, cols))
    if not (all(map(math.isfinite, (d_max, r_max, c_max))) and t_min > 0):
        return False
    sums = 1 / (1 - _gamma(n))
    s_max = Fraction(r_max) + Fraction(c_max)
    q_min = Fraction(t_min) / (1 + _U) - _U * s_max / 2 - _ETA / 2
    a, b = 1 / (1 + 2 * _U), sums / (2 * (1 - 2 * _U))
    lower = a * q_min - (b - a / 2) * s_max - a * _ETA - n * _ETA / (1 - 2 * _U)
    row_bar, col_bar = ((Fraction(d_max) + Fraction(x) * sums + (n + 1) * _ETA) / (1 - 2 * _U) for x in (r_max, c_max))
    lam_bar = row_bar * col_bar
    if lower <= 0 or lam_bar > _MAX / 2:
        return False
    return lower ** 2 > max(Fraction(RANK_TOL ** 2), n * 2 * _U * lam_bar)


# Triangular systems are inverted by 2 x 2 blocking down to diagonal blocks of
# at most this many rows, which go to LAPACK's LU (``np.linalg.inv``).
_LEAF = 64
# The dtypes that the block products keep; any other E goes to the LU whole.
_BLOCKED_DTYPES = (np.dtype(float), np.dtype(complex))


def _narrow_band(n: int, p: int, q: int) -> bool:
    """Whether ``_invert_banded`` is faster than the LU for size N, lower bandwidth p and upper bandwidth q.

    The elimination costs O(N^2 (p+q)) flops plus O(N p (p+q)) interpreted
    steps, the LU O(N^3), so the ratio of their times follows (p+q)/N once
    N is large.  Measured in process with 2 BLAS threads on N in {256, 512,
    1024, 2048} and p+q in {2, 4, 8, 16, 32}: at N = 256 the elimination
    loses at every real width (a complex band wins narrowly up to p+q = 4
    and is left to the LU); real and complex, it wins up to p+q = 8 at
    N = 512, 16 at N = 1024 and 32 at N = 2048.
    """
    return n >= 512 and 64 * (p + q) <= n


def _invert_upper(u: np.ndarray, out: np.ndarray, last: np.ndarray) -> None:
    """Write the inverse of the upper triangular U into ``out``, whose part below the diagonal is zero.

    With U = [A B; 0 D] and A of half the rows,
    U^-1 = [A^-1, -A^-1 B D^-1; 0, D^-1]: A^-1 and D^-1 come from the
    recursion, and the corner is two matrix products.  Blocks of at most
    ``_LEAF`` rows are inverted by ``np.linalg.inv``.  About 2N^3/3 flops
    of GEMM against 8N^3/3 for the LU of E and its solve; the residual
    ||X U - I|| keeps the order of the LU's (J. Du Croz and N. J. Higham,
    "Stability of methods for matrix inversion", IMA J. Numer. Anal. 12,
    1992).

    ``last`` is U's ``TruncatedMatrix.profile`` of last columns, shifted
    with each D, so it may run past U's last column.  The corner is
    -(A^-1[:, r0:] B[r0:, :c1]) D^-1[:c1, :] for r0 the first row of A with
    last >= h and c1 = min(max last, n - 1) + 1 - h, and zero when no row of
    A reaches B.  A banded U of bandwidth w thus costs O(N^2 w); a dense B
    gives r0 = 0 and c1 = n - h, the untrimmed products on the same views
    and bits.
    """
    n = u.shape[0]
    if n <= _LEAF:
        out[...] = np.linalg.inv(u)
        return
    h = n // 2
    _invert_upper(u[:h, :h], out[:h, :h], last[:h])
    _invert_upper(u[h:, h:], out[h:, h:], last[h:] - h)
    rows = np.flatnonzero(last[:h] >= h)
    if rows.size == 0:
        return
    r0, c1 = rows[0], min(int(last[:h].max()), n - 1) + 1 - h
    corner = out[:h, r0:h] @ u[r0:h, h : h + c1]
    np.matmul(np.negative(corner, out=corner), out[h : h + c1, h:], out=out[:h, h:])


def _invert_banded(e: np.ndarray, p: int, q: int) -> np.ndarray:
    """E^-1 for an E with lower bandwidth p and upper bandwidth q, by Gaussian elimination confined to the band.

    LAPACK's ``gbtrf``/``gbtrs`` in three passes:

    1. Elimination with partial pivoting on the band, in Python scalars: at
       column k the pivot is the largest modulus among rows k..k+p, the
       first on a tie; after the swap, rows k+1..k+p lose their column k.
       U then has upper bandwidth p+q, and the pass costs O(N p (p+q)).
    2. The identity, swept through the recorded swaps and multipliers,
       becomes L^-1 P.  Before step k only rows up to k-1+p have been
       mixed, starting from unit rows, so the rows of step k hold no
       column past k+p, and each row operation stops there.
    3. Back substitution by U: row k of E^-1 is row k of L^-1 P less one
       product of at most p+q rows below it, divided by u_kk.

    O(N^2 (p+q)) flops and no N x N array besides the result.  The growth
    factor of banded partial pivoting is at most 2^(2p-1) - (p-1) 2^(p-2)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 9),
    so the error is of the order of the LU's.  An exact zero pivot raises
    ``np.linalg.LinAlgError("Singular matrix")``, as ``np.linalg.inv`` does.
    """
    n, w = e.shape[0], p + q
    band = np.zeros((n, 2 * p + q + 1), dtype=e.dtype)  # row i holds columns i - p .. i + p + q
    for d in range(-p, q + 1):
        band[max(-d, 0) : n - max(d, 0), p + d] = e.diagonal(d)
    rows, steps = band.tolist(), []
    for k in range(n):
        last, span = min(k + p, n - 1), min(w, n - 1 - k) + 1  # column k of row i is rows[i][k - i + p]
        r = max(range(k, last + 1), key=lambda i: abs(rows[i][k - i + p]))
        top, other, o = rows[k], rows[r], k - r + p
        top[p : p + span], other[o : o + span] = other[o : o + span], top[p : p + span]
        if top[p] == 0:
            raise np.linalg.LinAlgError("Singular matrix")
        multipliers = []
        for i in range(k + 1, last + 1):
            row, o = rows[i], k - i + p
            l = row[o] / top[p]
            for c in range(1, span):
                row[o + c] -= l * top[p + c]
            multipliers.append(l)
        steps.append((r, multipliers))
    out = np.eye(n, dtype=e.dtype)
    for k, (r, multipliers) in enumerate(steps):
        reach = min(k + p + 1, n)
        if r != k:
            out[[k, r], :reach] = out[[r, k], :reach]
        if multipliers:
            out[k + 1 : k + 1 + len(multipliers), :reach] -= np.multiply.outer(multipliers, out[k, :reach])
    u = np.array([row[p : p + w + 1] for row in rows], dtype=e.dtype)
    for k in range(n - 1, -1, -1):
        stop = min(k + w + 1, n)
        out[k] -= u[k, 1 : stop - k] @ out[k + 1 : stop]
        out[k] /= u[k, 0]
    return out


def _inverse(m: TruncatedMatrix) -> np.ndarray:
    """E^-1, for the dual and for the inverse-decay check: the one inverse of a system.

    Triangularity and the bandwidths are read off E's ``profile``.  An upper
    triangular E (no row's first non-zero left of the diagonal) of dtype
    float or complex is inverted by ``_invert_upper``; a lower triangular
    one (no row's last non-zero right of it) as the transpose of the inverse
    of E^T.  Any other such E whose band is narrow for its size, by the
    rule of ``_narrow_band``, is inverted by ``_invert_banded``.  Every
    other E goes to ``np.linalg.inv`` whole, so its bits are those of the
    LU.  Which path runs depends on E's dtype and zero pattern alone.
    """
    e = m.entries
    if e.dtype in _BLOCKED_DTYPES:
        first, last = m.profile
        diagonal = np.arange(m.n)
        if np.all(first >= diagonal):
            out = np.zeros_like(e)
            _invert_upper(e, out, last)
            return out
        if np.all(last <= diagonal):
            return _inverse(TruncatedMatrix(e.T)).T
        p, q = _bandwidths(m)
        if _narrow_band(m.n, p, q):
            return _invert_banded(e, p, q)
    return np.linalg.inv(e)


def _bandwidths(m: TruncatedMatrix) -> tuple[int, int]:
    """M's lower and upper bandwidths p and q, off its ``profile``: 0 for a triangle or a zero matrix."""
    first, last = m.profile
    diagonal = np.arange(m.n)
    return int(np.max(diagonal - first, initial=0)), int(np.max(last - diagonal, initial=0))


# The extreme eigenvalues of a Gram matrix G whose stored matrix G^ has b + 1
# diagonals (b = p + q for a factor of bandwidths p and q) come from bisection
# on a Cholesky test of the band, the method of W. Barth, R. S. Martin and
# J. H. Wilkinson ("Calculation of the eigenvalues of a symmetric tridiagonal
# matrix by the method of bisection", Numer. Math. 9, 1967) for a test that
# stops at its first pivot that is not positive.  Notation as in
# ``_certify_full_rank``: u = eps/2 and gamma~_k = gamma_{3k}.


def _narrow_gram(n: int, b: int, cplx: bool) -> bool:
    """Whether ``_band_extremes`` is faster than ``eigvalsh`` for an N x N Gram matrix with b + 1 diagonals.

    ``eigvalsh`` costs O(N^3); bisection about 90 tests of O(N b^2) each,
    interpreted (``_cholesky_passes``): in a loop written out for a real
    band of b <= 2, in one generic loop, slower by a factor that grows
    with b, otherwise.  Measured in process with 2 BLAS threads on random
    bands, as ms for the Gram product and ``eigvalsh`` / the diagonals and
    the bisection (median of 3; the box is noisy):

    ======  ======  ======================  ========================
    N       b       real                    complex
    ======  ======  ======================  ========================
    256     1, 2    4 / 2, 4 / 4            9 / 9, 9 / 13
    512     1, 2    17 / 3, 21 / 6          62 / 36, 73 / 54
    512     3, 4    19 / 41, 18 / 62        67 / 89, 70 / 87
    1024    3, 4    125 / 70, 131 / 107     491 / 106, 550 / 229
    1024    6, 8    113 / 233, 96 / 235     475 / 352, 471 / 437
    2048    8, 10   843 / 750, 800 / 722    4151 / 856, 3373 / 1007
    2048    12, 16  784 / 1244, 648 / 1330  3310 / 2275, 2631 / 2763
    ======  ======  ======================  ========================

    So a real band of b <= 2 goes to bisection from N = 512 on (at 256 the
    two tie), and any other band while b + 1 stays below N / 192 (real) or
    N / 128 (complex).
    """
    if b <= 2 and not cplx:
        return n >= 512
    return (128 if cplx else 192) * (b + 1) < n


def _column_diagonals(x: np.ndarray, p: int, q: int) -> np.ndarray:
    """X's diagonals -p..q, column-aligned: row d + p holds X[c - d, c] at column c, zero past X's edge."""
    n = x.shape[0]
    out = np.zeros((p + q + 1, n), x.dtype)
    for d in range(-p, q + 1):
        out[d + p, max(d, 0) : n + min(d, 0)] = x.diagonal(d)
    return out


def _band_gram(cols: np.ndarray) -> np.ndarray:
    """The b + 1 lower diagonals of X^H X from X's ``_column_diagonals`` (b + 1 rows): row k holds (X^H X)[i, i - k] at i.

    (X^H X)[i, i - k] = sum_r conj(X[r, i]) X[r, i - k] over the at most
    b + 1 rows r where both are held, summed in a fixed order, one
    vectorized product per pair of diagonals.
    """
    w, n = cols.shape
    out = np.zeros((w, n), cols.dtype)
    for k in range(w):
        for d in range(k, w):
            out[k, k:] += cols[d, k:].conj() * cols[d - k, : n - k]
    return out


def _band_row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric matrix whose b + 1 lower diagonals are ``a``, stored as ``_band_gram`` stores them."""
    sums = a.sum(axis=0)
    for k in range(1, a.shape[0]):
        sums[: a.shape[1] - k] += a[k, k:]
    return sums


def _banded_gram(m: TruncatedMatrix, p: int, q: int, adjoint_first: bool, name: str,
                 gram: np.ndarray | None = None) -> tuple[np.ndarray, Fraction | None]:
    """The b + 1 lower diagonals of G^, the computed M^H M (``adjoint_first``) or M M^H, and a bound on ||G^ - G||_2.

    The diagonals are read off ``gram`` when the caller holds it
    (``_gram_product``'s), else formed from M's diagonals by ``_band_gram``,
    with X = M or X = M^H; no N x N array is formed.  Either way each entry
    of G^ is a dot product of at most b + 1 = p + q + 1 non-zero terms, so
    |G^ - G| <= gamma~_{b+1} |X|^T |X| entrywise, and
    ||G^ - G||_2 <= gamma~_{b+1} || |X|^T |X| ||_inf: the formation error,
    charged per band entry from the diagonals of |X|^T |X|.  Their computed
    row sums (moduli within an ulp, one product, at most 3b additions of
    non-negative terms) are divided by 1 - gamma~_{b+2} to bound the exact
    ones.  None when they overflow; a non-finite G^ raises ValueError, as
    in ``_gram_product``.
    """
    b = p + q
    cols = _column_diagonals(m.entries, p, q) if adjoint_first else _column_diagonals(m.entries.T, q, p).conj()
    with np.errstate(over="ignore", invalid="ignore"):
        if gram is None:
            bands = _band_gram(cols)
        else:
            bands = np.zeros((b + 1, m.n), gram.dtype)
            for k in range(b + 1):
                bands[k, k:] = gram.diagonal(-k)
        _require_finite(bands, name)
        moduli = float(np.max(_band_row_sums(_band_gram(np.abs(cols)))))
    if not math.isfinite(moduli):
        return bands, None
    return bands, _gamma_tilde(b + 1) * Fraction(moduli) / (1 - _gamma_tilde(b + 2))


def _cholesky_passes(rows: list, b: int, shift: float) -> bool:
    """Whether the Cholesky factorization of H = fl(G^ - shift I) completes: every pivot positive.

    ``rows`` holds G^ by rows, row i as (g_ii, g_i,i-1, ..., g_i,i-b),
    zero left of the first column, with g_ii a float.  The factor R of
    R^H R = H is formed row by row of R^H from the b rows before, and the
    test stops at the first radicand that is not positive.  A real band of
    b = 1 or 2 runs a loop written out for it; any other band runs one
    loop over the b previous rows.
    """
    if b == 1 and type(rows[0][1]) is float:
        q1 = 1.0
        for a, h1 in rows:
            r1 = h1 / q1
            x = a - shift - r1 * r1
            if not x > 0.0:
                return False
            q1 = math.sqrt(x)
        return True
    if b == 2 and type(rows[0][1]) is float:
        q2 = q1 = 1.0
        m = 0.0  # r_{i-2,i-1}
        for a, h1, h2 in rows:
            r2 = h2 / q2
            r1 = (h1 - r2 * m) / q1
            x = a - shift - r2 * r2 - r1 * r1
            if not x > 0.0:
                return False
            q2, q1, m = q1, math.sqrt(x), r1
        return True
    steps = [(k, b - k, [(j, j - k) for j in range(k + 1, b + 1)]) for k in range(b, 0, -1)]
    window = [[1.0] + [0.0] * b] * b  # rows i-b..i-1 of R^H: their diagonal, then their entries 1..b left of it
    for row in rows:
        x, new = row[0] - shift, [0.0] * (b + 1)
        for k, t, terms in steps:  # the entry k left of the diagonal, from row i - k = window[t]
            left = window[t]
            v = row[k]
            for j, jk in terms:
                v -= new[j] * left[jk].conjugate()
            new[k] = v = v / left[0]
            x -= (v * v.conjugate()).real
        if not x > 0.0:
            return False
        new[0] = math.sqrt(x)
        del window[0]
        window.append(new)
    return True


def _test_charge(b: int) -> Fraction:
    """c_b with lambda_min(G^) >= shift - c_b max_i fl(g^_ii - shift) when the test at ``shift`` passes (``_proven_least``)."""
    g = _gamma_tilde(b + 2)
    return (2 * b + 1) * g / (1 - g) + _U


def _proven_least(top: float, b: int, shift: float) -> Fraction:
    """A lower bound on lambda_min(G^) from a Cholesky test at ``shift`` that passed; ``top`` is max_i g^_ii.

    With H = fl(G^ - shift I), the computed factor satisfies
    R^H R = H + dH, |dH| <= gamma~_{b+2} |R^H| |R| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, Thm 10.3: each entry is an
    inner product of at most b + 1 terms and a square root or division; in
    complex arithmetic as in ``_certify_full_rank``).  |R^H| |R| has
    entries at most ||R e_i|| ||R e_j||, within the band, and
    ||R e_j||^2 = h_jj + dh_jj <= h_jj / (1 - gamma~_{b+2}), so
    ||dH||_2 <= gamma~_{b+2} || |R^H| |R| ||_inf
             <= (2b + 1) gamma~_{b+2} / (1 - gamma~_{b+2}) max h_jj:
    a charge that does not grow with N, unlike ||R||_F^2.  R^H R is
    positive semidefinite, so lambda_min(H) >= -||dH||_2 (Rump,
    "Verification of positive definiteness", BIT 46, 2006).  The shift
    rounds each diagonal entry by at most u h_jj, and max h_jj is
    fl(top - shift), as rounding is monotone.
    """
    return Fraction(shift) - _test_charge(b) * Fraction(top - shift)


def _least_eigenvalue(rows: list, b: int, lo: float, hi: float, scale: float, top: float) -> tuple[float, Fraction]:
    """Bisect [lo, hi] on lambda_min of the G^ in ``rows``: the converged point, and the proof of the last test that passed.

    Tests pass below lambda_min and fail above it, up to rounding; lo is
    below it and hi above.  Bisection stops at a width of 4 eps times the
    largest of ``scale``, |lo| and |hi|.  When no test passed, shifts
    further below lo are tried, at distances that double, until one does.
    """
    eps, passed = np.finfo(float).eps, None
    while hi - lo > 4.0 * eps * max(scale, abs(lo), abs(hi)):
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if _cholesky_passes(rows, b, mid):
            lo = passed = mid
        else:
            hi = mid
    value, step = lo + 0.5 * (hi - lo), max(4.0 * eps * max(scale, abs(lo), abs(hi)), np.finfo(float).tiny)
    while passed is None:
        if _cholesky_passes(rows, b, lo - step):
            passed = lo - step
        step *= 2.0
    return value, _proven_least(top, b, passed)


def _float_down(x: Fraction) -> float:
    """The greatest double at most x."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _real_if_possible(bands: np.ndarray) -> tuple[np.ndarray, int]:
    """The band in real arithmetic when its imaginary parts are zero, and b; a diagonal band gains a zero subdiagonal."""
    if np.iscomplexobj(bands) and not np.any(bands.imag):
        bands = bands.real
    if bands.shape[0] == 1:
        bands = np.vstack([bands, np.zeros_like(bands)])
    return bands, bands.shape[0] - 1


def _band_rows(bands: np.ndarray) -> list:
    """The rows of ``_cholesky_passes`` from the b + 1 lower diagonals: (g_ii, g_i,i-1, ..., g_i,i-b), g_ii a float."""
    return list(zip(bands[0].real.tolist(), *bands[1:].tolist()))


def _band_extremes(bands: np.ndarray, formation: Fraction | None) -> tuple[float, float, float, float]:
    """lambda_min and lambda_max of a Hermitian G^ held as its b + 1 lower diagonals, and proven ends for G.

    ``bands[k, i]`` is G^[i, i - k] (zero for i < k) and ``formation``
    bounds ||G^ - G||_2 (None: unbounded).  Returns the two converged
    points, each within about 4 eps ||G^|| of the exact eigenvalue of G^,
    and lower <= lambda_min(G), upper >= lambda_max(G), proven with every
    rounding charged (``_proven_least``); -inf and +inf when ``formation``
    is None.  lambda_max is the least eigenvalue of -G^, tested on the
    mirrored band.  The brackets start from Gershgorin's discs and from
    the diagonal and the Rayleigh quotients of the constant and the
    alternating vector, the extreme eigenvectors of a banded Toeplitz
    matrix with off-diagonals of one sign in the limit.  lambda_max is
    bisected first, to a width of 4 eps max(|lambda_max|, max_i |g_ii|),
    then lambda_min to 4 eps max(|lambda_min|, |lambda_max|), both at most
    4 eps ||G^||_2: about 90 tests in all.  A non-finite Gershgorin bound
    raises ValueError: the band sits at the edge of the double range.
    """
    bands, b = _real_if_possible(bands)
    diag = bands[0].real
    moduli = np.abs(bands)
    moduli[0] = 0.0
    radius = _band_row_sums(moduli)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError("a Gram matrix sits at the edge of the double range: matrix entries near 1e154 or larger")
    n = diag.size
    # the quotients sum N row terms, each at most max(-lo, hi) / N in modulus
    margin = (n + 2 * b + 4) * np.finfo(float).eps * max(-lo, hi)
    off, mean = 2.0 * (bands[1:].real / n).sum(axis=1), float((diag / n).sum())
    quotients = [mean + float(off.sum()), mean + float(off[1::2].sum() - off[::2].sum())]
    scale = float(np.max(np.abs(diag)))  # at most ||G^||_2
    neg_max, most = _least_eigenvalue(_band_rows(-bands), b, -hi,
                                      -max(float(diag.max()), *(x - margin for x in quotients)), scale,
                                      -float(diag.min()))
    lam_min, least = _least_eigenvalue(_band_rows(bands), b, lo,
                                       min(float(diag.min()), *(x + margin for x in quotients)),
                                       max(scale, abs(neg_max)), float(diag.max()))
    lam_max = 0.0 - neg_max  # +0.0 for a zero band
    if formation is None:
        return lam_min, lam_max, -math.inf, math.inf
    return lam_min, lam_max, _float_down(least - formation), -_float_down(most - formation)


def _certify_full_rank(e: TruncatedMatrix | np.ndarray) -> bool:
    """Whether one shifted Cholesky of fl(E^H E) proves that E^H E has full rank.

    True proves lambda_min(E^H E) > tau = max(RANK_TOL^2, N eps lambda_bar)
    for a proven lambda_bar >= lambda_max(E^H E), so the exact eigenvalues
    pass the rule of ``_full_rank``, with a margin.  False proves nothing;
    the caller then decides on the eigenvalues.  An E whose Gram has a
    narrow band (``_narrow_gram``) is tested on that band alone
    (``_certify_band``); the steps below are those of any other E.

    Notation: u = 2^-53 = eps/2, gamma_j = j u / (1 - j u), and the
    complex-safe gamma~_k = gamma_{3k} (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 3.6).  With conventional complex
    arithmetic, the real and the imaginary part of a computed complex inner
    product of length k are real inner products of length 2k, each in
    error by at most gamma_{2k} sum |x_i| |y_i| in any order of summation,
    so the modulus of the error is at most sqrt(2) gamma_{2k} <= gamma~_k
    times that sum.  Real E takes the same constants.  G = E^H E is exact,
    G^ = fl(E^H E) is the stored matrix, and sigma >= 0 is a double.

    1. Formation.  |G^ - G| <= gamma~_N |E|^T |E| entrywise.  LAPACK reads
       one triangle of G^ and the real part of its diagonal; the Hermitian
       matrix G~ they define obeys the same entrywise bound, so
       ||G~ - G||_2 <= ||G~ - G||_F <= gamma~_N || |E|^T |E| ||_F
       <= gamma~_N ||E||_F^2, and by Weyl's inequality
       lambda_min(G) >= lambda_min(G~) - gamma~_N ||E||_F^2.
    2. Shift.  The diagonal is overwritten with fl(g~_ii - sigma), within
       u |g~_ii - sigma| <= u (max |g~_ii| + sigma) of g~_ii - sigma, so the
       matrix H that is factored has
       lambda_min(G~ - sigma I) >= lambda_min(H) - u (max |g~_ii| + sigma).
    3. Cholesky.  If it completes with factor R, then R^H R = H + dH with
       |dH| <= gamma~_{N+1} |R^H| |R| (Higham, Thm 10.3; each entry is an
       inner product of at most N + 1 terms, in any order, so the bound
       holds for blocked LAPACK too, and in complex arithmetic by the
       argument above).  R^H R is positive semidefinite, so
       lambda_min(H) >= -||dH||_2 >= -gamma~_{N+1} ||R||_F^2
       (Rump, "Verification of positive definiteness", BIT 46, 2006).
       Together:
       lambda_min(G) >= sigma - gamma~_{N+1} ||R||_F^2
                        - u (max |g~_ii| + sigma) - gamma~_N ||E||_F^2.
    4. Upper bound.  lambda_max(G) = ||G||_2 <= ||G^||_2 + gamma~_N ||E||_F^2,
       and ||G^||_2 <= (||G^||_1 ||G^||_inf)^(1/2), the Schur bound, which
       is ||G^||_inf when G^ is Hermitian.  That sum is lambda_bar.
    5. Rounding of the bounds.  The computed ||E||_F^2 and ||R||_F^2 are
       sums of at most 2 N^2 rounded squares, within gamma_{2N^2} of the
       exact sums; the computed Schur bound (moduli within an ulp, sums of
       N terms, two square roots and a product) is within gamma_{N+6}.
       Both are below gamma~_{N^2+2} = gamma_{3N^2+6}, so each computed
       value divided by 1 - gamma~_{N^2+2} bounds the exact one from above.
       Everything after is exact rational arithmetic.

    sigma = 2 (tau + (gamma~_{N+1} + gamma~_N) ||E||_F^2 + u max |g~_ii|).
    As ||R||_F^2 = trace(H + dH) is at most about ||E||_F^2, a Cholesky that
    completes leaves the bound of step 3 near sigma / 2 + tau; it completes
    when lambda_min(G) exceeds sigma by a little.  G^ is formed through
    ``_gram_product``, so an overflow raises the same ValueError as the
    eigenvalues do.
    """
    m = e if isinstance(e, TruncatedMatrix) else TruncatedMatrix(e)
    p, q = _bandwidths(m)
    if _narrow_gram(m.n, p + q, np.iscomplexobj(m.entries)):
        return _certify_band(m, p, q)
    e, n = m.entries, m.n
    g = _gram_product(m, True, "the Gram matrix E^H E")
    zero = np.zeros(n)
    fro_e, schur_g = float(np.vdot(e, e).real), _schur(*_scaled_abs_sums(g, zero, zero), 2.0)
    if not (math.isfinite(fro_e) and math.isfinite(schur_g)):  # sums past the double range prove nothing
        return False
    rounding = 1 / (1 - _gamma_tilde(n * n + 2))
    fro_e, schur_g = Fraction(fro_e) * rounding, Fraction(schur_g) * rounding
    weyl = _gamma_tilde(n) * fro_e
    tau = max(Fraction(RANK_TOL ** 2), n * 2 * _U * (schur_g + weyl))
    diag = g.real.diagonal()
    d = Fraction(float(np.max(np.abs(diag))))
    sigma = float(2 * (tau + (_gamma_tilde(n + 1) + _gamma_tilde(n)) * fro_e + _U * d))
    g[np.diag_indices(n)] -= sigma
    try:
        r = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    fro_r = Fraction(float(np.vdot(r, r).real)) * rounding
    shift = Fraction(sigma)  # a float operand would turn the Fractions below into floats
    return shift - _gamma_tilde(n + 1) * fro_r - _U * (d + shift) - weyl > tau


def _certify_band(m: TruncatedMatrix, p: int, q: int) -> bool:
    """``_certify_full_rank`` for an E of bandwidths p and q: one ``_cholesky_passes`` test of the band of E^H E.

    The b + 1 diagonals of G^ (b = p + q) come from ``_banded_gram``, with
    the formation bound F >= ||G^ - G||_2.  lambda_bar is the largest row
    sum of |G^|, divided by 1 - gamma~_{b+2} for its rounding, plus F.  A
    test at sigma that passes proves
    lambda_min(G) >= sigma - c_b fl(max g^_ii - sigma) - F
    (``_proven_least``), so sigma = 2 (tau + F + c_b max g^_ii) leaves the
    bound near sigma / 2 + tau, with tau = max(RANK_TOL^2, N eps lambda_bar)
    as in the dense proof.  No N x N array is formed and no LAPACK routine
    runs.
    """
    bands, formation = _banded_gram(m, p, q, True, "the Gram matrix E^H E")
    bands, b = _real_if_possible(bands)
    with np.errstate(over="ignore"):
        row_sum = float(np.max(_band_row_sums(np.abs(bands))))
    if formation is None or not math.isfinite(row_sum):  # sums past the double range prove nothing
        return False
    lam_bar = Fraction(row_sum) / (1 - _gamma_tilde(b + 2)) + formation
    tau = max(Fraction(RANK_TOL ** 2), m.n * 2 * _U * lam_bar)
    top = float(np.max(bands[0].real))
    sigma = float(2 * (tau + formation + _test_charge(b) * Fraction(top)))
    return _cholesky_passes(_band_rows(bands), b, sigma) and _proven_least(top, b, sigma) - formation > tau


def _gram_extremes(m: TruncatedMatrix, adjoint_first: bool, name: str,
                   gram: np.ndarray | None = None) -> tuple[float, float, float | None, float | None]:
    """lambda_min and lambda_max of the Gram matrix ``name`` of M (M^H M when ``adjoint_first``, else M M^H), and proven ends.

    When M's bandwidths p and q (off its profile) make the Gram's band of
    b = p + q narrow for its size, by the rule of ``_narrow_gram``: bisection
    on its b + 1 diagonals (``_banded_gram``, ``_band_extremes``), with proven
    lower <= lambda_min and upper >= lambda_max of the exact Gram.
    Otherwise ``eigvalsh`` of the Gram, ``gram`` when the caller holds it,
    with no proven ends (None).  Either way a Gram that overflows raises
    ValueError naming it.
    """
    p, q = _bandwidths(m)
    if _narrow_gram(m.n, p + q, np.iscomplexobj(m.entries)):
        return _band_extremes(*_banded_gram(m, p, q, adjoint_first, name, gram))
    lam = np.linalg.eigvalsh(_gram_product(m, adjoint_first, name) if gram is None else gram)
    return float(lam[0]), float(lam[-1]), None, None


class FrameSystem:
    """A truncated frame given by its coefficient matrix against the ONB.

    Row m holds the Hermite coefficients of the m-th frame element.
    The extreme eigenvalues of the Gram matrix E^H E (the extreme squared
    singular values of E, the frame bounds) and the canonical dual E^{-H}
    are computed lazily, once per system: the extremes by ``_gram_extremes``
    (bisection on the Gram's band for a banded E, ``eigvalsh`` otherwise),
    the dual from ``_inverse``, by block products when E is triangular.
    The Gram matrix is not kept: it is formed, as its band for a banded E,
    for the extremes, and for the dual's shifted-Cholesky proof of full
    rank only when the extremes have not been computed and E's diagonal
    does not dominate enough to prove it in O(N^2).  Instances are treated
    as immutable after construction.
    """

    def __init__(self, coeffs, label: str = ""):
        if not isinstance(coeffs, TruncatedMatrix):
            coeffs = TruncatedMatrix(np.asarray(coeffs))
        self.coeffs = coeffs
        self.label = label

    @property
    def n(self) -> int:
        return self.coeffs.n

    @property
    def matrix(self) -> np.ndarray:
        return self.coeffs.entries

    @cached_property
    def gram_extremes(self) -> tuple[float, float, float | None, float | None]:
        """lambda_min and lambda_max of the Gram matrix E^H E, and their proven ends (``_gram_extremes``)."""
        return _gram_extremes(self.coeffs, True, "the Gram matrix E^H E")

    @cached_property
    def canonical_dual(self) -> "FrameSystem":
        """Rows S^{-1} e_n: E (E^H E)^{-1}, which is E^{-H} for the square E.

        The rank rule of ``_full_rank`` decides whether the dual exists.
        Gram extremes already computed decide it directly.  Otherwise
        two proofs are tried in turn: Johnson's bound on the diagonal of E
        (``_prove_full_rank_from_diagonal``, O(N^2), no Gram matrix), then
        one shifted Cholesky of E^H E (``_certify_full_rank``).  Only when
        both fail are the extremes computed to decide, so every
        rejection comes from the extremes.  Which proof runs depends on
        E alone.  The dual itself is solved from E, not from E^H E, by
        ``_inverse``: a triangular E through the block identity
        [A B; 0 D]^-1 = [A^-1, -A^-1 B D^-1; 0, D^-1] down to blocks of at
        most ``_LEAF`` rows, a narrowly banded E by elimination within its
        band, any other E by one LU.  The inverse is
        conjugated in place and transposed, with no further N x N copy.
        """
        if "gram_extremes" in self.__dict__ or not (
            _prove_full_rank_from_diagonal(self.matrix) or _certify_full_rank(self.coeffs)
        ):
            lam_min, lam_max, _, _ = self.gram_extremes
            _require_full_rank(lam_min, lam_max, self.n, "frame operator is rank-deficient at this truncation")
        inverse = _inverse(self.coeffs)
        dual = (np.conjugate(inverse, out=inverse) if np.iscomplexobj(inverse) else inverse).T
        return FrameSystem(
            TruncatedMatrix(dual, margin=self.coeffs.margin),
            label=f"dual({self.label})" if self.label else "dual",
        )

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<FrameSystem{tag} n={self.n}>"


def identity_frame(n: int, margin: int = -1, label: str = "onb") -> FrameSystem:
    return FrameSystem(TruncatedMatrix(np.eye(n), margin=margin), label=label)


def cross_gram(e: FrameSystem, f: FrameSystem) -> TruncatedMatrix:
    """Matrix of inner products <e_m, f_n> in coefficient space."""
    if e.n != f.n:
        raise ValueError("systems have different truncation sizes")
    product = _product(e.matrix, e.coeffs.spans[0], f.matrix.T, f.coeffs.spans[0], conj_b=True)
    return TruncatedMatrix(product, margin=e.coeffs.margin)


def _coefficients(f, n: int) -> np.ndarray:
    """One coefficient sequence, or a 2-D block whose rows are sequences."""
    f = np.asarray(f)
    f = as_sequence(f, ndim=2 if f.ndim == 2 else 1)
    if f.shape[-1] != n:
        raise ValueError("coefficient length does not match the system")
    return f


def analysis(e: FrameSystem, f) -> np.ndarray:
    """Analysis coefficients (<f, e_m>)_m of f given by Hermite coefficients.

    A (b, N) block f gives the analysis of each row, by ``_product`` over
    E's spans.  The conjugate is taken of f and of the result, never of E,
    so a complex system copies no N x N array (``conj`` of a real array is
    the array).
    """
    f = _coefficients(f, e.n)
    return _product(f.conj(), None, e.matrix.T, e.coeffs.spans[0]).conj()


def synthesis(e: FrameSystem, c, spans=None) -> np.ndarray:
    """Hermite coefficients of sum_n c_n e_n; a (b, N) block c gives one row per row.

    The product reads E's spans and, when the caller knows them, ``spans``,
    the column ranges of c's blocks of ``_ROW_BLOCK`` rows (``_product``).
    """
    c = _coefficients(c, e.n)
    return _product(c, spans, e.matrix, e.coeffs.spans[1])


def frame_bounds(e: FrameSystem) -> tuple[float, float]:
    """Truncated frame bounds: the extreme eigenvalues of the Gram matrix E^H E.

    Both are accurate to about N eps times the upper bound from
    ``eigvalsh``, and to about 4 eps times it from the bisection of a banded
    E (``_gram_extremes``), so a lower bound below that carries no correct
    digit.  It is clipped at 0, where rounding can leave a singular
    system's smallest eigenvalue negative.  Proven ends are in
    ``e.gram_extremes``.
    """
    lam_min, lam_max, _, _ = e.gram_extremes
    return max(lam_min, 0.0), lam_max


def canonical_dual(e: FrameSystem) -> FrameSystem:
    """The system with rows S^{-1} e_n; biorthogonal to E when E is a basis.

    Solved once per system: repeated calls return the same cached object.
    """
    return e.canonical_dual


def _fit_or_sentinel(a: TruncatedMatrix, beta: float | None, poly: bool = False) -> DecayFit:
    """``fit_decay`` of ``a`` at order ``beta`` (``fit_poly_decay`` with ``poly``), or the sentinel.

    A window with too few populated distances to regress (a strictly
    banded matrix, or a window only one or two entries wide) is reported
    with rate +inf, c = max |a| and residual 0: it decays faster than any
    envelope of either family.  The maximum is taken in blocks of rows, so
    no N x N array of moduli is formed.
    """
    try:
        return fit_poly_decay(a) if poly else fit_decay(a, beta)
    except InsufficientDecayData:
        rows = range(0, a.n, _ROW_BLOCK)
        c = max(float(np.max(np.abs(a.entries[start : start + _ROW_BLOCK]))) for start in rows)
        return DecayFit(gamma=math.inf, c=c, residual=0.0)


@dataclass(frozen=True)
class DualLocalizationReport:
    primal: DecayFit
    dual: DecayFit


def dual_localization_check(
    e: FrameSystem, beta: float | None = 1.0, poly: bool = False
) -> DualLocalizationReport:
    """Decay fits of the cross-Grams of E and of its canonical dual.

    With ``poly=True`` both sides are fitted against ``(1+d)^(-gamma)``,
    otherwise against ``exp(-gamma d^beta)``.  A strictly banded primal
    is reported with the +inf sentinel rate of ``_fit_or_sentinel``.
    """
    dual = canonical_dual(e)
    return DualLocalizationReport(
        primal=_fit_or_sentinel(e.coeffs, beta, poly), dual=_fit_or_sentinel(dual.coeffs, beta, poly)
    )


@dataclass(frozen=True)
class PerturbationSpec:
    """Banded perturbation of the reference basis: e_n = h_n + sum_i a_i[n] h_{n+i}.

    ``a`` has shape (r, M); row i holds the coefficients multiplying the
    shift by i.  Admissibility: every entry of row i beyond the first is
    at most eps_i in modulus, the first entries sum to at most 1 in
    modulus, and the eps_i sum to strictly less than 1 (this keeps the
    perturbed system a Riesz basis).
    """

    r: int
    a: np.ndarray
    eps: tuple[float, ...]

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a))
        if self.r < 1 or a.shape[0] != self.r:
            raise ValueError("a must have one row per shift, r >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("perturbation entries must be finite")
        eps = tuple(float(x) for x in self.eps)
        if len(eps) != self.r or any(x < 0 for x in eps):
            raise ValueError("eps must hold r nonnegative reals")
        if sum(eps) >= 1.0:
            raise ValueError("eps sum >= 1")
        for i in range(self.r):
            if a.shape[1] > 1 and np.max(np.abs(a[i, 1:])) > eps[i]:
                raise ValueError("entry exceeds eps")
        if float(np.sum(np.abs(a[:, 0]))) > 1.0:
            raise ValueError("first-row sum > 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def constant(cls, values, eps=None, n: int = 1) -> "PerturbationSpec":
        """Spec with constant coefficient sequences of length n per shift."""
        values = np.atleast_1d(np.asarray(values))
        if eps is None:
            eps = np.abs(values)
        a = np.repeat(values[:, None], n, axis=1)
        return cls(r=values.size, a=a, eps=tuple(np.atleast_1d(eps)))

    def to_json(self) -> dict:
        return {"r": self.r, "eps": list(self.eps), "a": [_to_json_list(row) for row in self.a]}


def build_perturbed_basis(spec: PerturbationSpec, n: int) -> tuple[FrameSystem, int]:
    """Coefficient matrix Identity + sum_i shift(a_i, offset i), truncated.

    Shift terms that would land past index n are dropped; the count of
    dropped terms is returned alongside the system.
    """
    if n < 1:
        raise ValueError("truncation size must be positive")
    if spec.a.shape[1] < n:
        raise ValueError(f"perturbation sequences cover {spec.a.shape[1]} < {n} indices")
    dtype = complex if np.iscomplexobj(spec.a) else float
    mat = np.eye(n, dtype=dtype)
    dropped = 0
    for i in range(1, spec.r + 1):
        keep = max(n - i, 0)
        rows = np.arange(keep)
        mat[rows, rows + i] += spec.a[i - 1, :keep]
        dropped += min(i, n)
    return FrameSystem(TruncatedMatrix(mat), label="perturbed"), dropped


@dataclass(frozen=True)
class ExampleInequalityReport:
    """Extrema of the three perturbation inequalities over random trials.

    ``contraction_max`` is max ||Uf - f|| / (c (||Uf|| + ||f||)) with
    c = (3 + sum eps_i)/4, ``upper_max`` is max ||Uf|| / ||f||, and
    ``lower_min`` is min ||Uf|| / |<f, h_1>| over trials with nonzero
    first coefficient.  All three hold iff contraction_max <= 1,
    upper_max <= 3, lower_min >= 1.
    """

    contraction_max: float
    upper_max: float
    lower_min: float
    trials: int

    @property
    def all_hold(self) -> bool:
        return self.contraction_max <= 1.0 and self.upper_max <= 3.0 and self.lower_min >= 1.0


def verify_example_inequalities(
    spec: PerturbationSpec, n: int, trials: int, seed: int = 0, system: FrameSystem | None = None
) -> ExampleInequalityReport:
    """Extrema of the three inequalities over ``trials`` random unit vectors.

    The trials run in seeded blocks of rows, one synthesis product per
    block; the blocks draw from the generator in the same order as one
    vector per trial would, so the trial vectors do not depend on the
    block size.  ``system`` is ``build_perturbed_basis(spec, n)``'s, when
    the caller holds it already; otherwise it is built here.
    """
    if system is None:
        system, _ = build_perturbed_basis(spec, n)
    c_factor = (3.0 + sum(spec.eps)) / 4.0
    rng = np.random.default_rng(seed)
    contraction = 0.0
    upper = 0.0
    lower = math.inf
    for start in range(0, trials, _ROW_BLOCK):
        f = rng.standard_normal((min(_ROW_BLOCK, trials - start), n))
        f /= np.linalg.norm(f, axis=1)[:, None]
        uf = synthesis(system, f)
        norm_uf = np.linalg.norm(uf, axis=1)
        diff = np.linalg.norm(uf - f, axis=1)
        contraction = max(contraction, float(np.max(diff / (c_factor * (norm_uf + 1.0)))))
        upper = max(upper, float(np.max(norm_uf)))
        first = np.abs(f[:, 0])
        nonzero = first > 0
        if np.any(nonzero):
            lower = min(lower, float(np.min(norm_uf[nonzero] / first[nonzero])))
    return ExampleInequalityReport(
        contraction_max=contraction, upper_max=upper, lower_min=lower, trials=trials
    )


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, from an SVD without singular vectors."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class JaffardReport:
    """Inverse-decay prediction for an invertible decay-class matrix.

    Given |A[m,n]| <= C_A e^{-gamma |m-n|^beta} and A invertible, the
    inverse stays in the class with some smaller rate.  Writing AA* =
    ||AA*|| (Id - R) with contraction R, summing the Neumann series in
    two regimes splits at K = 2 (1 + C_AA*/||AA*||) P_{gamma'-gamma'',beta}
    and yields the rate

        gamma1 = min( ln(1/r)/ln(K/r) * gamma'' (1-eps), eps * gamma'' )

    (limit value 1 of the log ratio as r -> 0) and the constant

        C_inv = C_A (1 + r/(1-r) * 1/(2P) + 1/(1-r)) * 2 P_{gamma-gamma1,beta}.

    ``lambda_min_lower`` and ``lambda_max_upper`` are proven ends of the
    spectrum of the exact AA*, from the bisection on its band; None when
    ``eigvalsh`` gave the extremes (an A whose band is not narrow).
    """

    beta: float
    gamma: float
    gamma_prime: float
    gamma_dprime: float
    eps_free: float
    c_class: float
    norm_aas: float
    r_contraction: float
    c_aas: float
    c1: float
    p_split: float
    k_split: float
    gamma1_pred: float
    c_inv_pred: float
    lambda_min_lower: float | None = None
    lambda_max_upper: float | None = None

    def to_json(self) -> dict:
        return {k: None if v is None else float(v) for k, v in self.__dict__.items()}


def jaffard_predict(
    a: TruncatedMatrix,
    beta: float,
    gamma: float,
    gamma_prime: float | None = None,
    gamma_dprime: float | None = None,
    eps_free: float = 0.5,
) -> JaffardReport:
    """Run the inverse-decay pipeline and return the predicted envelope.

    Free parameters default to the midpoints gamma' = gamma/2 (the rate
    the product AA* retains), gamma'' = gamma'/2 and eps_free = 1/2; all
    are overridable.  Raises when AA* fails to normalize to a contraction
    (the matrix is singular at this truncation) or the declared rate
    makes the split degenerate.
    """
    _check_rate("gamma", gamma)
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if not 0.0 < eps_free < 1.0:
        raise ValueError("eps_free must lie in (0, 1)")
    gp = gamma / 2.0 if gamma_prime is None else float(gamma_prime)
    gpp = gp / 2.0 if gamma_dprime is None else float(gamma_dprime)
    if not 0.0 < gp < gamma:
        raise ValueError("gamma_prime must lie in (0, gamma)")
    if not 0.0 < gpp < gp:
        raise ValueError("gamma_dprime must lie in (0, gamma_prime)")
    # depends on the rates alone: a bad rate fails before AA* is formed, and
    # scipy.special loads before the N x N arrays are live
    p_split = p_series(gp - gpp, beta)

    aas = _gram_product(a, False, "AA*")
    lam_min, lam_max, lower, upper = _gram_extremes(a, False, "AA*", aas)
    _require_full_rank(lam_min, lam_max, a.n, "matrix is singular at truncation")
    c_class = membership_constant(a, DecayEnvelope("jaffard", gamma=gamma, beta=beta))
    if not math.isfinite(c_class):
        raise ValueError("matrix does not satisfy the declared decay class on the window")
    # AA* is Hermitian positive definite, so ||AA*|| = lambda_max(AA*) and the
    # contraction R = Id - AA*/||AA*|| has norm r = 1 - lambda_min/lambda_max:
    # only the two extremes are read, by bisection on AA*'s b + 1 diagonals
    # (b = p + q) for a banded A, so no eigensolve of AA* runs.
    norm_aas = lam_max
    r = 1.0 - lam_min / norm_aas
    if r >= 1.0:
        raise np.linalg.LinAlgError("matrix is singular at truncation")
    c_aas = membership_constant(
        TruncatedMatrix(aas, margin=a.margin), DecayEnvelope("jaffard", gamma=gp, beta=beta)
    )
    c1 = 1.0 + c_aas / norm_aas
    k_split = 2.0 * c1 * p_split
    if k_split <= r:
        raise ValueError("degenerate log ratio: K <= r")
    log_ratio = 1.0 if r == 0.0 else math.log(1.0 / r) / math.log(k_split / r)
    gamma1 = min(log_ratio * gpp * (1.0 - eps_free), eps_free * gpp)
    neumann = 1.0 + (r / (1.0 - r)) / (2.0 * p_split) + 1.0 / (1.0 - r)
    c_inv = c_class * neumann * 2.0 * p_series(gamma - gamma1, beta)
    return JaffardReport(
        beta=beta,
        gamma=gamma,
        gamma_prime=gp,
        gamma_dprime=gpp,
        eps_free=eps_free,
        c_class=c_class,
        norm_aas=norm_aas,
        r_contraction=r,
        c_aas=c_aas,
        c1=c1,
        p_split=p_split,
        k_split=k_split,
        gamma1_pred=gamma1,
        c_inv_pred=c_inv,
        lambda_min_lower=lower,
        lambda_max_upper=upper,
    )


@dataclass(frozen=True)
class InverseDecayReport:
    violations: int
    checked: int
    gamma_fit_inverse: float
    max_inverse_entry: float


def verify_inverse_decay(a: TruncatedMatrix, report: JaffardReport) -> InverseDecayReport:
    """Entrywise check of |A^{-1}| <= C_inv e^{-gamma1 |m-n|^beta} on the window, read in blocks of rows.

    The inverse is the dual's (``_inverse``: block products when A is
    triangular, elimination within the band when A is narrowly banded, such
    as a tridiagonal A from N = 512 on, one LU otherwise); also reports the
    fitted decay rate of the inverse, which should dominate the predicted
    rate, or the +inf sentinel rate of ``_fit_or_sentinel`` when the
    window is too narrow to fit.  The bound is the ``jaffard`` envelope,
    so a report whose ``gamma1_pred`` is not positive raises ValueError.
    """
    env = DecayEnvelope("jaffard", gamma=report.gamma1_pred, beta=report.beta, c=report.c_inv_pred)
    inv = TruncatedMatrix(_inverse(a), margin=a.margin)
    violations, peak = 0, 0.0
    for sub, vals in _envelope_blocks(inv, env):  # over whole window rows: the inverse is dense
        violations += int(np.count_nonzero(sub > vals))
        peak = max(peak, float(np.max(sub)))
    return InverseDecayReport(
        violations=violations,
        checked=(a.n - 2 * a.margin) ** 2,
        gamma_fit_inverse=_fit_or_sentinel(inv, report.beta).gamma,
        max_inverse_entry=peak,
    )


@dataclass(frozen=True)
class OperatorNormReport:
    """(lower, upper) brackets of the norms of conj(E), E^T and S = E^T conj(E), and of inf ||S f|| / ||f||."""

    analysis: tuple[float, float]
    synthesis: tuple[float, float]
    frame_op: tuple[float, float]
    frame_op_min: tuple[float, float]


def _schur_bounds(mat: np.ndarray, log_w: np.ndarray, p: float, spans=None) -> tuple[float, float, float]:
    """Schur bounds of B = D |conj(E)| D^-1, G^T = D |E^T| D^-1 and of G^T B >= |D S D^-1|, D = diag(e^log_w).

    Both factors come from ``_scaled_abs_blocks``, block by block of rows,
    over the block's column range in ``spans`` when given.  The product is
    never formed: its row sums are G^T (B 1) and its column sums (G 1)^T B,
    and a block's rows of B 1 and G 1 are in hand with the block.
    """
    b_rows, g_rows = np.empty(mat.shape[0]), np.empty(mat.shape[0])
    b_cols, g_cols, s_rows, s_cols = np.zeros((4, mat.shape[1]))
    blocks = zip(_scaled_abs_blocks(mat, log_w, log_w, np.sum, spans),
                 _scaled_abs_blocks(mat, -log_w, -log_w, np.sum, spans))
    for (rows, cols, b, b_sums), (_, _, g, g_sums) in blocks:
        b_rows[rows], g_rows[rows] = b_sums, g_sums
        with np.errstate(over="ignore", invalid="ignore"):
            b_cols[cols] += b.sum(axis=0)
            g_cols[cols] += g.sum(axis=0)
            # an exact zero adds 0, also beside an infinite row sum
            s_rows[cols] += np.multiply(g, b_rows[rows, None], out=g, where=g > 0.0).sum(axis=0)
            s_cols[cols] += np.multiply(b, g_rows[rows, None], out=b, where=b > 0.0).sum(axis=0)
    return _schur(b_rows, b_cols, p), _schur(g_cols, g_rows, p), _schur(s_rows, s_cols, p)


def weighted_operator_norms(e: FrameSystem, w: Weight, p: float, loc_beta: float = 1.0) -> OperatorNormReport:
    """Brackets of the weighted l^p norms of analysis, synthesis and frame operator S.

    Norms are taken on coefficient sequences (the Hermite-coordinate proxy
    for the weighted function spaces), so an operator M has the norm of
    D M D^-1, D = diag(w(n)).  The system must be localized at order
    ``loc_beta``, and a sub-exponential weight must have a smaller order:
    the hypothesis under which these operators act boundedly.  Each norm
    runs from the best ratio ||M e_j|| / ||e_j|| over the unit vectors up
    to the Schur bound of D |M| D^-1, exact at p = 1 and p = inf.  The
    infimum of S is 1 / ||S^-1||, and S^-1 = conj(E^-1) E^-T is the frame
    operator of the canonical dual: it runs from 1 / (the dual's Schur
    bound) up to the least unit-vector ratio of S.  Both ends read the
    same scaled moduli |m_ij| e^{l_i - l_j}, l = log w, formed in blocks of
    rows over their spans (``weights._scaled_abs_blocks``): a ratio is the
    l^p norm of one row of them, and the Schur bounds sum them.  The ratios
    are attained values, computed in product form: within a few ulp while
    the weights stay in the double range, past it within a few |log B_ij|
    eps relative for the scaled moduli B_ij of the row.  A p outside
    [1, inf] raises ValueError.
    """
    if w.kind != "moderate" and w.effective_beta >= loc_beta:
        raise IncompatibleWeight("incompatible weight: weight order must be below the localization order")
    if not _fit_or_sentinel(e.coeffs, loc_beta).gamma > 0:
        raise ValueError("system is not localized; weighted bounds do not apply")
    log_w = log_eval_weight(w, np.arange(1, e.n + 1, dtype=float))
    ratios = np.empty((3, e.n))
    row_spans, col_spans = e.coeffs.spans
    for i, start in enumerate(range(0, e.n, _ROW_BLOCK)):
        j = slice(start, start + _ROW_BLOCK)
        u = e.matrix.T[j].conj()  # the analysis of e_j is conj(column j of E), its synthesis row j of E
        with np.errstate(over="ignore"):  # an image past the double range gives an infinite ratio
            images = synthesis(e, u, spans=col_spans[i : i + 1])
        # ||M e_j|| / ||e_j|| is the norm of the row |(M e_j)_i| e^{l_i - l_j}, read over its block's span
        cols = np.flatnonzero(images.any(axis=0))
        spans = (col_spans[i], row_spans[i], (cols[0], cols[-1] + 1) if cols.size else (0, 0))
        ratios[:, j] = [_scaled_abs_row_norms(m[:, c0:c1], -log_w[j], -log_w[c0:c1], p)
                        for m, (c0, c1) in zip((u, e.matrix[j], images), spans)]
    # where rounding inverts a bracket that closes (p = 1), the proven end yields to the attained one
    upper = _schur_bounds(e.matrix, log_w, p, row_spans)
    norms = [(float(lo), max(hi, float(lo))) for lo, hi in zip(ratios.max(axis=1), upper)]
    dual = canonical_dual(e).coeffs
    s_lo, s_hi = 1.0 / _schur_bounds(dual.entries, log_w, p, dual.spans[0])[2], float(ratios[2].min())
    return OperatorNormReport(*norms, frame_op_min=(min(s_lo, s_hi), s_hi))
