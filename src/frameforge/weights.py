"""Weight functions and weighted sequence norms.

Coefficient sequences are plain 1-D numpy arrays indexed logically from 1:
position ``i`` of an array holds the value at index ``n = i + 1``.  All
weight evaluation goes through log space so that sub-exponential and
exponential weights stay usable far past the overflow point of ``exp``.
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


def _log_abs(c: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(c).astype(float))


def weighted_norm(c, w: Weight, p: float) -> float:
    """The l^p_mu norm ``(sum |c_n|^p mu(n)^p)^(1/p)`` over n = 1..N.

    ``p = inf`` gives ``sup |c_n| mu(n)``.  Terms are formed in log space
    and the power sum is accumulated with exactly rounded summation
    (``math.fsum``) after scaling by the largest term, so the result
    overflows only when the true norm does.  This is the one-row case of
    ``weighted_row_norms``.
    """
    return float(_row_norms(as_sequence(c)[None, :], w, p)[0])


def weighted_row_norms(rows, w: Weight, p: float) -> np.ndarray:
    """``weighted_norm`` of each row of a 2-D array, one value per row.

    A row's value does not depend on the other rows in the block: the
    elementwise steps run on the whole block, the power sum of each row
    is exactly rounded, and the final ``exp``/``log`` take the scalar path
    row by row.
    """
    return _row_norms(as_sequence(rows, ndim=2), w, p)


def _row_norms(rows: np.ndarray, w: Weight, p: float) -> np.ndarray:
    if not (p == math.inf or p >= 1):
        raise ValueError("p must be in [1, inf]")
    out = np.zeros(rows.shape[0])
    if rows.shape[1] == 0:
        return out
    n = np.arange(1, rows.shape[1] + 1, dtype=float)
    logs = _log_abs(rows) + log_eval_weight(w, n)
    peaks = np.max(logs, axis=1)
    if p != math.inf:
        with np.errstate(invalid="ignore"):  # all-zero rows give -inf - -inf; they are skipped
            scaled = np.exp(p * (logs - peaks[:, None]))
    for i, m in enumerate(peaks):
        if m == -math.inf:
            continue
        if p == math.inf:
            out[i] = np.exp(m)
        else:
            out[i] = np.exp(m + math.log(math.fsum(scaled[i].tolist())) / p)
    return out


def sup_graded_norm(c, family: str, k: float, beta: float = 1.0) -> float:
    """sup_n |c_n| n^k (family "poly") or sup_n |c_n| e^{k n^beta} ("subexp")."""
    c = as_sequence(c)
    if k < 0:
        raise ValueError("grading level k must be nonnegative")
    if family not in ("poly", "subexp"):
        raise ValueError(f"unknown norm family {family!r}")
    if c.size == 0:
        return 0.0
    n = np.arange(1, c.size + 1, dtype=float)
    if family == "poly":
        logs = _log_abs(c) + k * np.log(n)
    else:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        logs = _log_abs(c) + k * n ** beta
    m = np.max(logs)
    return 0.0 if m == -math.inf else float(np.exp(m))
