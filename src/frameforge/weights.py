"""Weight functions and weighted sequence norms.

Coefficient sequences are plain 1-D numpy arrays indexed logically from 1:
position ``i`` of an array holds the value at index ``n = i + 1``.  All
weight evaluation goes through log space so that sub-exponential and
exponential weights stay usable far past the overflow point of ``exp``.

Every weighted and graded sequence norm goes through one kernel: log weights
are added to ``log|c_n|``, the terms scaled by the largest, and the power
sums of a block of rows correctly rounded in one vectorized pass
(``_exact_row_sums``; ``math.fsum`` sums only the rows it cannot certify).
The graded weights n^k (family ``poly``) and e^{k n^beta} (``subexp``)
are written once, in ``_log_grading``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Weight",
    "as_sequence",
    "eval_weight",
    "log_eval_weight",
    "sup_graded_norm",
    "verify_weight_admissibility",
    "weighted_norm",
    "weighted_row_norms",
]

_KINDS = ("moderate", "subexponential", "exponential")
_FAMILIES = ("poly", "subexp")
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Weight:
    """A positive weight function on the real line.

    ``moderate`` evaluates to ``(1+|x|)**k``, ``subexponential`` to
    ``exp(gamma*|x|**beta)`` with ``beta`` in (0, 1], and ``exponential``
    to ``exp(gamma*|x|)``.  ``c`` is the declared constant of the
    translation inequality ``mu(t+x) <= c * envelope(t) * mu(x)``; it is
    never assumed, only compared against empirical constants.
    """

    kind: str
    k: float = 0.0
    beta: float = 1.0
    gamma: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "moderate":
            if self.k < 0:
                raise ValueError("moderate weight needs k >= 0")
        else:
            if not 0.0 < self.beta <= 1.0:
                raise ValueError("weight beta must lie in (0, 1]")
            if self.gamma <= 0:
                raise ValueError("(sub-)exponential weight needs gamma > 0")
        if self.c <= 0:
            raise ValueError("declared constant c must be positive")

    @property
    def effective_beta(self) -> float:
        """Growth order actually used in evaluation (1 for exponential)."""
        return 1.0 if self.kind == "exponential" else self.beta


def log_eval_weight(w: Weight, x) -> np.ndarray:
    """log mu(x), vectorized over x."""
    ax = np.abs(np.asarray(x, dtype=float))
    if w.kind == "moderate":
        return w.k * np.log1p(ax)
    return w.gamma * ax ** w.effective_beta


def eval_weight(w: Weight, x):
    """mu(x) = (1+|x|)^k, exp(gamma |x|^beta) or exp(gamma |x|)."""
    ax = np.abs(np.asarray(x, dtype=float))
    if w.kind == "moderate":
        out = (1.0 + ax) ** w.k
    else:
        out = np.exp(w.gamma * ax ** w.effective_beta)
    return float(out) if np.isscalar(x) else out


def default_admissibility_grid(extent: int = 50):
    """Integer lattice of (t, x) pairs on [-extent, extent]^2."""
    v = np.arange(-extent, extent + 1, dtype=float)
    t, x = np.meshgrid(v, v, indexing="ij")
    return t.ravel(), x.ravel()


def verify_weight_admissibility(w: Weight, grid=None) -> float:
    """Smallest constant making the translation inequality hold on a grid.

    Returns ``max mu(t+x) / (envelope(t) * mu(x))`` over the grid; the
    caller compares it with the declared ``w.c``.  A constant that keeps
    growing as the grid widens indicates the declared kind/order is wrong
    for the weight at hand.
    """
    if grid is None:
        t, x = default_admissibility_grid()
    else:
        t, x = grid
        t = np.asarray(t, dtype=float).ravel()
        x = np.asarray(x, dtype=float).ravel()
        if t.size == 0 or t.shape != x.shape:
            raise ValueError("admissibility grid must be nonempty pairs (t, x)")
    # the c-normalized translation envelope of mu is mu itself
    log_ratio = log_eval_weight(w, t + x) - log_eval_weight(w, t) - log_eval_weight(w, x)
    return float(np.exp(np.max(log_ratio)))


def as_sequence(values, ndim: int = 1) -> np.ndarray:
    """Validate a coefficient sequence (``ndim=1``) or a block of them as rows (``ndim=2``)."""
    c = np.asarray(values)
    if c.ndim != ndim:
        raise ValueError("coefficient sequence must be one-dimensional" if ndim == 1
                         else "coefficient block must be two-dimensional")
    if c.size and not np.all(np.isfinite(c)):
        raise ValueError("coefficient sequence has non-finite entries")
    return c


def _to_json_list(values: np.ndarray) -> list:
    """JSON form of a 1-D array: floats, or [re, im] pairs when it is complex."""
    if np.iscomplexobj(values):
        return [[float(v.real), float(v.imag)] for v in values]
    return [float(v) for v in values]


def _from_json_list(data) -> np.ndarray:
    """Inverse of ``_to_json_list``; pairs become complex bit for bit (``re + 1j*im`` loses a -0.0 real part)."""
    arr = np.asarray(data)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return np.ascontiguousarray(arr, dtype=float).view(complex)[:, 0]
    return arr.astype(float)


def _log_abs(c: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(c).astype(float))


def _log_grading(n, family: str, k: float, beta: float = 1.0) -> np.ndarray:
    """Log of the level-k grading weight at indices n: k log n ("poly") or k n^beta ("subexp")."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown norm family {family!r}")
    if k < 0:
        raise ValueError("grading level k must be nonnegative")
    if family == "poly":
        return k * np.log(n)
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    return k * n ** beta


def weighted_norm(c, w: Weight, p: float) -> float:
    """The l^p_mu norm ``(sum |c_n|^p mu(n)^p)^(1/p)`` over n = 1..N.

    ``p = inf`` gives ``sup |c_n| mu(n)``.  Terms are formed in log space
    and, after scaling by the largest term, summed with correct rounding
    (the bits of ``math.fsum``), so the result overflows only when the
    true norm does.  This is the one-row case of ``weighted_row_norms``.
    """
    return float(weighted_row_norms(as_sequence(c)[None, :], w, p)[0])


def weighted_row_norms(rows, w: Weight, p: float) -> np.ndarray:
    """``weighted_norm`` of each row of a 2-D array, one value per row.

    A row's value does not depend on the other rows in the block: the
    elementwise steps and the correctly rounded power sums
    (``_exact_row_sums``) run on the whole block, and the final
    ``exp``/``log`` take the scalar path row by row.
    """
    rows = as_sequence(rows, ndim=2)
    n = np.arange(1, rows.shape[1] + 1, dtype=float)
    return _row_norms(rows, log_eval_weight(w, n), p)


def _graded_row_norms(rows: np.ndarray, family: str, k: float, beta: float, p: float) -> np.ndarray:
    """The level-k graded l^p norm of each row of a validated 2-D block."""
    n = np.arange(1, rows.shape[1] + 1, dtype=float)
    return _row_norms(rows, _log_grading(n, family, k, beta), p)


def _row_norms(rows: np.ndarray, log_weights: np.ndarray, p: float) -> np.ndarray:
    """``(sum_n |c_n|^p e^{p l_n})^(1/p)`` of each row c, for log weights l; p = inf gives the sup.

    ``log_weights`` is one vector for every row, or a 2-D array with one row
    of log weights per row.  Overflow is ignored: a true norm past the
    double range is inf.
    """
    if not (p == math.inf or p >= 1):
        raise ValueError("p must be in [1, inf]")
    out = np.zeros(rows.shape[0])
    if rows.shape[1] == 0:
        return out
    logs = _log_abs(rows) + log_weights
    peaks = np.max(logs, axis=1)
    if p != math.inf:
        # an all-zero row is shifted by 0, not by -inf, so its terms are 0, not NaN
        shift = np.where(peaks == -math.inf, 0.0, peaks)
        sums = _exact_row_sums(np.exp(p * (logs - shift[:, None])))
    with np.errstate(over="ignore"):
        for i, m in enumerate(peaks):
            if m == -math.inf:
                continue
            if p == math.inf:
                out[i] = np.exp(m)
            else:
                out[i] = np.exp(m + math.log(sums[i]) / p)
    return out


def _two_sum(a, b):
    """``s = fl(a + b)`` and its rounding error ``e``, so that ``a + b = s + e`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_row_sums(terms: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of a 2-D block of finite, non-negative terms.

    The block is folded in contiguous halves with an exact TwoSum at each
    level (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005); an odd
    last column is folded into column 0.  For the final column ``hi`` and
    the error terms ``e`` of a row, ``sum(row) = hi + sum(e)`` holds
    exactly.  The ``e`` are summed in floating point into ``err`` and their
    magnitudes into ``mag``; over the m = width - 1 error terms of a row,
    ``err`` is off by at most gamma_m sum|e| <= ``bound = 2 (m+1) u mag``
    (u = 2^-53; Higham).  With ``res, tail = TwoSum(hi, err)`` the exact sum
    lies within ``|tail| + bound`` of ``res``, so ``res`` is the correctly
    rounded sum when that distance is below half the spacing of the doubles
    at ``res``, or a quarter at a power of two, whose lower neighbour is
    twice as close.  A correctly rounded sum is unique, so a certified row
    has the bits ``math.fsum`` returns.  Every row the certificate does not
    cover (a tie or near-tie) is summed by ``math.fsum`` itself.
    """
    rows, width = terms.shape
    if width == 0:
        return np.zeros(rows)
    err = np.zeros(rows)
    mag = np.zeros(rows)
    hi = terms
    while hi.shape[1] > 1:
        h = hi.shape[1] // 2
        last = hi[:, 2 * h:]
        hi, e = _two_sum(hi[:, :h], hi[:, h:2 * h])
        err += e.sum(axis=1)
        mag += np.abs(e).sum(axis=1)
        if last.shape[1]:
            hi[:, 0], e = _two_sum(hi[:, 0], last[:, 0])
            err += e
            mag += np.abs(e)
    res, tail = _two_sum(hi[:, 0], err)
    slack = np.abs(tail) + 2.0 * width * _UNIT_ROUNDOFF * mag
    # 2 slack < spacing and 4 slack < spacing scale exactly; a NaN compares false
    certified = np.where(np.frexp(res)[0] == 0.5, 4.0, 2.0) * slack < np.spacing(res)
    for i in np.flatnonzero(~certified):
        res[i] = math.fsum(terms[i].tolist())
    return res


def sup_graded_norm(c, family: str, k: float, beta: float = 1.0) -> float:
    """sup_n |c_n| n^k (family "poly") or sup_n |c_n| e^{k n^beta} ("subexp")."""
    return float(_graded_row_norms(as_sequence(c)[None, :], family, k, beta, math.inf)[0])
