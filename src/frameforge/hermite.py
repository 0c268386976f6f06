"""Hermite orthonormal basis: stable evaluation, quadrature, projection.

Basis functions are indexed from 1, so ``h_n`` here is the classical
Hermite function of degree ``n - 1``; ``h_1`` is the Gaussian ground
state ``pi^(-1/4) exp(-x^2/2)``.

Evaluation runs the orthonormal three-term recurrence on the polynomial
part (the function divided by the Gaussian), renormalizing whenever the
iterates grow past 1e250 and folding the accumulated scale back together
with ``exp(-x^2/2)`` at the end.  Neither the Gaussian underflow at large
|x| nor the polynomial overflow at large degree can then corrupt the
product.

Quadrature weights come from the identity ``w_i e^{x_i^2} = 1 / (Q *
h_{Q}(x_i)^2)`` (classical degree Q-1 on the right), which sidesteps the
raw Gauss-Hermite weights underflowing at high order.  ``ctx.weights``
are these modified weights: ``integral g(x) dx ~= sum_i weights[i] *
g(nodes[i])``, exact for g = polynomial times e^{-x^2} up to degree
2Q - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .envelopes import UNDERFLOW_FLOOR, _log_linear_fit
from .weights import _from_json_list, _to_json_list, as_sequence

__all__ = [
    "CoefficientDecayReport",
    "HermiteContext",
    "SubexpFit",
    "TestFunction",
    "classify_coefficient_decay",
    "hermite_eval",
    "hermite_function_table",
    "project",
]

_RENORM_THRESHOLD = 1e250
_RENORM_LOG = 250.0 * math.log(10.0)


def hermite_function_table(kmax: int, x) -> np.ndarray:
    """Orthonormal Hermite functions of classical degrees 0..kmax at points x.

    Returns an array of shape ``(len(x), kmax + 1)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, kmax + 1))
    logscale = -0.5 * x * x
    p_prev = np.full_like(x, math.pi ** -0.25)
    out[:, 0] = p_prev * np.exp(logscale)
    if kmax == 0:
        return out
    p_cur = math.sqrt(2.0) * x * p_prev
    out[:, 1] = p_cur * np.exp(logscale)
    for k in range(1, kmax):
        p_next = x * math.sqrt(2.0 / (k + 1)) * p_cur - math.sqrt(k / (k + 1)) * p_prev
        p_prev, p_cur = p_cur, p_next
        big = np.abs(p_cur) > _RENORM_THRESHOLD
        if np.any(big):
            p_prev = p_prev.copy()
            p_cur = p_cur.copy()
            p_prev[big] /= _RENORM_THRESHOLD
            p_cur[big] /= _RENORM_THRESHOLD
            logscale = logscale.copy()
            logscale[big] += _RENORM_LOG
        out[:, k + 1] = p_cur * np.exp(logscale)
    return out


class HermiteContext:
    """Quadrature rule plus cached basis values for indices 1..nmax.

    The rule order defaults to ``2*nmax + 8`` so that every inner product
    of two basis functions in range is integrated exactly (with headroom).
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, nmax: int = 512, quad_order: int | None = None):
        if nmax < 1:
            raise ValueError("nmax must be positive")
        q = 2 * nmax + 8 if quad_order is None else int(quad_order)
        if q < 2 * nmax:
            raise ValueError("quadrature order must be at least 2*nmax")
        nodes = roots_hermite(q)[0]
        table = hermite_function_table(q - 1, nodes)
        self.nmax = int(nmax)
        self.quad_order = q
        self.nodes = nodes
        self.weights = 1.0 / (q * table[:, q - 1] ** 2)
        self.basis = table[:, :nmax]  # column j holds h_{j+1} at the nodes

    def integrate(self, values_at_nodes) -> float:
        return float(np.dot(self.weights, values_at_nodes))


def hermite_eval(ctx: HermiteContext, n: int, x):
    """Value of h_n at x (n is the 1-based index; x scalar or array)."""
    if not 1 <= n <= ctx.nmax:
        raise ValueError(f"index n must lie in 1..{ctx.nmax}")
    scalar = np.isscalar(x)
    vals = hermite_function_table(n - 1, x)[:, n - 1]
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class TestFunction:
    """Closed-form or sampled test input for projection.

    Kinds: ``gaussian`` is ``exp(-a x^2 / 2)``; ``hermite_combo`` is a
    finite combination with the stored coefficients (1-based indices);
    ``sampled`` carries values on the quadrature grid of the context it
    will be projected with.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    a: float | None = None
    coeffs: np.ndarray | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.a is None or self.a <= 0:
                raise ValueError("gaussian needs a > 0")
        elif self.kind == "hermite_combo":
            if self.coeffs is None:
                raise ValueError("hermite_combo needs coefficients")
            object.__setattr__(self, "coeffs", as_sequence(self.coeffs))
        elif self.kind == "sampled":
            if self.grid is None or self.values is None:
                raise ValueError("sampled needs grid and values")
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values)
            if g.ndim != 1 or g.shape != v.shape:
                raise ValueError("sampled grid and values must be matching 1-D arrays")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "values", v)
        else:
            raise ValueError(f"unknown test function kind {self.kind!r}")

    @classmethod
    def gaussian(cls, a: float) -> "TestFunction":
        return cls(kind="gaussian", a=float(a))

    @classmethod
    def hermite_combo(cls, coeffs) -> "TestFunction":
        return cls(kind="hermite_combo", coeffs=np.asarray(coeffs))

    @classmethod
    def sampled(cls, grid, values) -> "TestFunction":
        return cls(kind="sampled", grid=grid, values=values)

    def norm_squared(self) -> float | None:
        """Closed-form L2 norm squared, where one exists."""
        if self.kind == "gaussian":
            return math.sqrt(math.pi / self.a)
        if self.kind == "hermite_combo":
            return float(np.sum(np.abs(self.coeffs) ** 2))
        return None

    def to_json(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "a": self.a}
        if self.kind == "hermite_combo":
            return {"kind": "hermite_combo", "coeffs": _to_json_list(self.coeffs)}
        return {
            "kind": "sampled",
            "grid": self.grid.tolist(),
            "values": _to_json_list(self.values),
        }

    @classmethod
    def from_json(cls, d: dict) -> "TestFunction":
        kind = d.get("kind")
        if kind == "gaussian":
            return cls.gaussian(d["a"])
        if kind == "hermite_combo":
            return cls.hermite_combo(_from_json_list(d["coeffs"]))
        if kind == "sampled":
            return cls.sampled(d["grid"], _from_json_list(d["values"]))
        raise ValueError(f"unknown test function kind {kind!r}")


def project(ctx: HermiteContext, f: TestFunction, n: int) -> np.ndarray:
    """Coefficients (<f, h_k>)_{k=1..n} by quadrature.

    ``hermite_combo`` inputs return their stored coefficients exactly,
    bypassing quadrature; ``sampled`` inputs must live on the context's
    grid.
    """
    if not 1 <= n <= ctx.nmax:
        raise ValueError(f"truncation n must lie in 1..{ctx.nmax}")
    if f.kind == "hermite_combo":
        out = np.zeros(n, dtype=f.coeffs.dtype)
        k = min(n, f.coeffs.size)
        out[:k] = f.coeffs[:k]
        return out
    if f.kind == "gaussian":
        vals = np.exp(-0.5 * f.a * ctx.nodes ** 2)
    else:
        if f.grid.shape != ctx.nodes.shape or not np.allclose(
            f.grid, ctx.nodes, rtol=0.0, atol=1e-12
        ):
            raise ValueError("sampled grid incompatible with the quadrature rule")
        vals = f.values
    return ctx.basis[:, :n].T @ (ctx.weights * vals)


@dataclass(frozen=True)
class SubexpFit:
    beta: float
    gamma: float
    c: float
    residual: float


@dataclass(frozen=True)
class CoefficientDecayReport:
    poly_order: int
    subexp: tuple[SubexpFit, ...]


_POLY_CAP = 20


def classify_coefficient_decay(c, beta_grid=(0.25, 0.5, 0.75, 1.0)) -> CoefficientDecayReport:
    """Classify coefficient decay: best stable polynomial order, plus
    sub-exponential rate fits over a grid of orders beta.

    A polynomial level k counts as stable when the sup of |c_n| n^k over
    the second half of the indices stays at least 5% below the overall
    sup, i.e. the weighted sup is still carried by the head of the
    sequence; the reported order is the last stable level before the
    first unstable one (capped at 20).  Rate fits regress log|c_n| on
    n^beta, skipping entries below ``UNDERFLOW_FLOOR``; fewer than 3
    usable entries yields the +inf sentinel rate.
    """
    c = as_sequence(c)
    if c.size < 32:
        raise ValueError("need at least 32 coefficients to classify")
    n = np.arange(1, c.size + 1, dtype=float)
    absc = np.abs(c).astype(float)
    half = c.size // 2

    poly_order = _POLY_CAP
    with np.errstate(divide="ignore"):
        logc = np.log(absc)
    for k in range(_POLY_CAP + 1):
        logs = logc + k * np.log(n)
        full = np.max(logs)
        tail = np.max(logs[half:])
        if full == -math.inf:
            continue  # zero sequence is stable at every level
        if not (tail == -math.inf or tail <= full + math.log(0.95)):
            poly_order = k - 1
            break

    fits = []
    usable = absc >= UNDERFLOW_FLOOR
    for beta in beta_grid:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta grid entries must lie in (0, 1]")
        if np.count_nonzero(usable) < 3:
            fits.append(SubexpFit(beta=beta, gamma=math.inf, c=float(np.max(absc, initial=0.0)), residual=0.0))
            continue
        fit = _log_linear_fit(n[usable] ** beta, logc[usable])
        fits.append(SubexpFit(beta=beta, gamma=fit.gamma, c=fit.c, residual=fit.residual))
    return CoefficientDecayReport(poly_order=max(poly_order, 0), subexp=tuple(fits))
