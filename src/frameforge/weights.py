"""Weight functions and weighted sequence norms.

Coefficient sequences are plain 1-D numpy arrays indexed logically from 1:
position ``i`` of an array holds the value at index ``n = i + 1``.  All
weight evaluation goes through log space so that sub-exponential and
exponential weights stay usable far past the overflow point of ``exp``.

Every weighted and graded sequence norm goes through one kernel,
``_scaled_abs_row_norms``: the l^p norm of each row of the scaled moduli
|m_ij| e^{r_i - c_j}, formed as a plain product and summed after scaling
each row by its largest term.  A norm c -> (sum |c_n|^p e^{p l_n})^(1/p)
is the row norm at r = 0 and c = -l, within 4 eps (1 + max l_n) relative
of the exact value while e^{l_n} stays in the double range; a cell past
it is recomputed in log form, so a norm overflows only when the true norm
does.  The graded weights n^k (family ``poly``) and e^{k n^beta}
(``subexp``) are written once, in ``_log_grading``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class Weight:
    """A positive weight function on the real line.

    ``moderate`` evaluates to ``(1+|x|)**k``, ``subexponential`` to
    ``exp(gamma*|x|**beta)`` with ``beta`` in (0, 1], and ``exponential``
    to ``exp(gamma*|x|)``.  ``c`` is the declared constant of the
    translation inequality ``mu(t+x) <= c * envelope(t) * mu(x)``; it is
    never assumed, only compared against empirical constants.  Every
    parameter, also one that the kind ignores, must be a finite number: a
    boolean or a string raises TypeError, an infinity or NaN ValueError.
    """

    kind: str
    k: float = 0.0
    beta: float = 1.0
    gamma: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        for field in fields(self)[1:]:  # every number, also one the kind ignores
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"weight {field.name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer past the double range
                finite = False
            if not finite:
                raise ValueError(f"weight {field.name} must be finite, got {value!r}")
        if self.kind == "moderate":
            if not self.k >= 0:
                raise ValueError("moderate weight needs k >= 0")
        else:
            if not 0.0 < self.beta <= 1.0:
                raise ValueError("weight beta must lie in (0, 1]")
            if not self.gamma > 0:
                raise ValueError("(sub-)exponential weight needs gamma > 0")
        if not self.c > 0:
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


# Every row-blocked pass takes at most this many rows at a time, so its block
# arrays stay small beside N x N: the non-zero profile and the products over
# spans (``envelopes``, ``frames``), the scaled-moduli blocks below and every
# pass over them, the envelope blocks of the membership constants and of the
# inverse-decay check, the per-distance maxima of the decay fits, the decay
# sentinel, the example's trial vectors and the CSV reader (``matio``).  At N = 512 the weighted norms of
# I + 0.5 S (sub-exponential weight) peak at 2.20 N^2 doubles, dual included.
_ROW_BLOCK = 128


def _scaled_abs_blocks(m: np.ndarray, r: np.ndarray, c: np.ndarray, reduce, spans=None):
    """For each block of ``_ROW_BLOCK`` rows of m, yield (rows, cols, B, reduce(B, axis=1)), B = |m_ij| e^{r_i - c_j}.

    B covers whole rows, or each block's column range in ``spans``
    (``TruncatedMatrix.spans``) when given, so w bands cost O(N (w + b)) for
    blocks of b rows.  B is a new array, the plain product of the moduli (as
    doubles), e^r and e^-c; a cell where that is not finite (a factor
    overflowed, or inf * 0) is recomputed as exp(log|m_ij| + (r_i - c_j)),
    so an entry past the double range is inf.  The nearly cancelling
    r_i - c_j is taken first, so the cell is within a few |log B_ij| eps
    relative, the error of exp at its own argument, however large r_i and
    c_j are.  Cells are searched only when a reduced value is not finite,
    and then reduced again.
    """
    with np.errstate(over="ignore"):
        er, ec = np.exp(r), np.exp(-c)
    for i, start in enumerate(range(0, m.shape[0], _ROW_BLOCK)):
        rows, cols = slice(start, start + _ROW_BLOCK), slice(*spans[i]) if spans else slice(None)
        sub = m[rows, cols]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = np.abs(sub, dtype=float)
            block *= er[rows, None]
            block *= ec[cols]
            reduced = reduce(block, axis=1)
            if not np.isfinite(reduced).all():
                bi, bj = np.nonzero(~np.isfinite(block))
                block[bi, bj] = np.exp(np.log(np.abs(sub[bi, bj])) + (r[rows][bi] - c[cols][bj]))
                reduced = reduce(block, axis=1)
        yield rows, cols, block, reduced


def _scaled_abs_row_norms(m: np.ndarray, r: np.ndarray, c: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of each row of B = |m_ij| e^{r_i - c_j}, formed by ``_scaled_abs_blocks``.

    A row with peak b reduces to b at p = inf, to its sum at p = 1 and to
    b (sum_j (B_ij / b)^p)^(1/p) otherwise; a row with an entry past the
    double range gives inf, an all-zero row 0, and a block with no columns
    zeros (p is checked first).  Every step is elementwise or a reduction
    along one row, so a row's value does not depend on the other rows of
    its block.  While e^{r_i} and e^{-c_j} stay in the double range the
    value is within 4 eps (1 + |r_i| + max_j |c_j|) relative, the error of
    exp at the scales; past it within a few |log B_ij| eps relative (a
    cell recomputed in log form carries the error of exp at its own
    argument).  A cell in the subnormal range is off by up to half its
    spacing, 2^-1075, besides.
    """
    if not (p == math.inf or p >= 1):
        raise ValueError("p must be in [1, inf]")
    out = np.zeros(m.shape[0])
    if m.shape[1] == 0:
        return out
    for rows, _, block, peaks in _scaled_abs_blocks(m, r, c, np.max):
        with np.errstate(over="ignore"):
            if p == math.inf:
                out[rows] = peaks
            elif p == 1:
                out[rows] = block.sum(axis=1)
            else:
                # a zero or infinite peak divides by 1, so the row yields 0 or inf, never nan
                block /= np.where((peaks > 0.0) & (peaks < math.inf), peaks, 1.0)[:, None]
                block **= p
                out[rows] = peaks * block.sum(axis=1) ** (1.0 / p)
    return out


def weighted_norm(c, w: Weight, p: float) -> float:
    """The l^p_mu norm ``(sum |c_n|^p mu(n)^p)^(1/p)`` over n = 1..N.

    ``p = inf`` gives ``sup |c_n| mu(n)``.  Terms are the products
    |c_n| mu(n), summed after scaling by the largest, so the result
    overflows only when the true norm does.  This is the one-row case of
    ``weighted_row_norms``.
    """
    return float(weighted_row_norms(as_sequence(c)[None, :], w, p)[0])


def weighted_row_norms(rows, w: Weight, p: float) -> np.ndarray:
    """``weighted_norm`` of each row of a 2-D array, one value per row; a row's value does not depend on the others."""
    rows = as_sequence(rows, ndim=2)
    n = np.arange(1, rows.shape[1] + 1, dtype=float)
    return _scaled_abs_row_norms(rows, np.zeros(rows.shape[0]), -log_eval_weight(w, n), p)


def _graded_row_norms(rows: np.ndarray, family: str, k: float, beta: float, p: float) -> np.ndarray:
    """The level-k graded l^p norm of each row of a validated 2-D block."""
    n = np.arange(1, rows.shape[1] + 1, dtype=float)
    return _scaled_abs_row_norms(rows, np.zeros(rows.shape[0]), -_log_grading(n, family, k, beta), p)


def sup_graded_norm(c, family: str, k: float, beta: float = 1.0) -> float:
    """sup_n |c_n| n^k (family "poly") or sup_n |c_n| e^{k n^beta} ("subexp")."""
    return float(_graded_row_norms(as_sequence(c)[None, :], family, k, beta, math.inf)[0])
