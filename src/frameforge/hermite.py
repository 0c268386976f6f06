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

Projection of a Gaussian ``exp(-a x^2/2)`` or of a finite combination
is exact and needs no quadrature (``project``); only a sampled function
is integrated by a ``HermiteContext``.

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

from .envelopes import UNDERFLOW_FLOOR, _log_linear_fit
from .weights import _check_finite_number, _from_json_list, _log_grading, _to_json_list, as_sequence

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
    return _hermite_columns(range(kmax + 1), x)


def _hermite_columns(degrees, x) -> np.ndarray:
    """Orthonormal Hermite functions of the ascending classical ``degrees`` at x.

    Runs the recurrence up to the last degree but stores only the requested
    columns, so the result has shape ``(len(x), len(degrees))`` whatever the
    degrees skipped in between.  ``exp(logscale)`` is recomputed only when a
    renormalization changes the scale.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, len(degrees)))
    logscale = -0.5 * x * x
    scale = np.exp(logscale)
    p_prev, p_cur = None, np.full_like(x, math.pi ** -0.25)
    j = 0
    for k in range(degrees[-1] + 1):
        if k == 1:
            p_prev, p_cur = p_cur, math.sqrt(2.0) * x * p_cur
        elif k > 1:
            p_prev, p_cur = p_cur, x * math.sqrt(2.0 / k) * p_cur - math.sqrt((k - 1) / k) * p_prev
            big = np.abs(p_cur) > _RENORM_THRESHOLD
            if np.any(big):
                p_prev[big] /= _RENORM_THRESHOLD
                p_cur[big] /= _RENORM_THRESHOLD
                logscale[big] += _RENORM_LOG
                scale = np.exp(logscale)
        if k == degrees[j]:
            out[:, j] = p_cur * scale
            j += 1
    return out


class HermiteContext:
    """Quadrature rule plus cached basis values for indices 1..nmax.

    The rule order defaults to ``2*nmax + 8`` so that every inner product
    of two basis functions in range is integrated exactly (with headroom).
    Building one imports ``scipy.special`` for the nodes and forms a
    ``q x (nmax + 1)`` table, 17 MB at nmax = 1024; ``project`` needs it
    only for a ``sampled`` function.  Its absolute error grows with q, about
    3e-16 at nmax = 64 and 8e-14 at nmax = 1024, so a Gaussian's
    coefficients past index ~100 would be quadrature noise; ``project``
    takes them from the closed form instead.  Instances are immutable
    after construction and safe to share.
    """

    def __init__(self, nmax: int = 512, quad_order: int | None = None):
        if nmax < 1:
            raise ValueError("nmax must be positive")
        q = 2 * nmax + 8 if quad_order is None else int(quad_order)
        if q < 2 * nmax:
            raise ValueError("quadrature order must be at least 2*nmax")
        # imported on use: scipy.special takes longer to import than most subcommands run
        from scipy.special import roots_hermite

        nodes = roots_hermite(q)[0]
        # Only degrees 0..nmax-1 (the basis) and q-1 (the weights) are kept.
        table = _hermite_columns([*range(nmax), q - 1], nodes)
        self.nmax = int(nmax)
        self.quad_order = q
        self.nodes = nodes
        self.weights = 1.0 / (q * table[:, nmax] ** 2)
        self.basis = table[:, :nmax]  # column j holds h_{j+1} at the nodes

    def integrate(self, values_at_nodes) -> float:
        return float(np.dot(self.weights, values_at_nodes))


def hermite_eval(ctx: HermiteContext, n: int, x):
    """Value of h_n at x (n is the 1-based index; x scalar or array)."""
    if not 1 <= n <= ctx.nmax:
        raise ValueError(f"index n must lie in 1..{ctx.nmax}")
    scalar = np.isscalar(x)
    vals = _hermite_columns([n - 1], x)[:, 0]
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
            _check_finite_number("gaussian a", self.a)  # a boolean, a string, NaN or an infinity
            if self.a <= 0:
                raise ValueError("gaussian needs a > 0")
            object.__setattr__(self, "a", float(self.a))
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
        return cls(kind="gaussian", a=a)

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


def _gaussian_coefficients(a: float, n: int) -> np.ndarray:
    """The first n coefficients <exp(-a x^2/2), h_k> in closed form.

    By the generating function of the Hermite polynomials, classical
    degree 2j gives pi^(1/4) sqrt(2/(1+a)) r^j t_j, with r = (1-a)/(1+a)
    and t_j = sqrt((2j)!)/(2^j j!), the square root of the product of
    (2i-1)/(2i) over i = 1..j; every odd degree gives exactly 0.  Each r^j
    is one ``pow``, so the relative error is j times that of r plus about
    j eps from the product, under 1e-12 through degree 4100 where the
    value is a normal double.  Below the double range an entry becomes
    subnormal or 0, never NaN: every factor is finite and |r| <= 1.
    """
    out = np.zeros(n)
    j = np.arange((n + 1) // 2)
    t = np.sqrt(np.cumprod(np.concatenate(([1.0], (2 * j[1:] - 1) / (2 * j[1:])))))
    out[0::2] = (math.pi ** 0.25 * math.sqrt(2.0 / (1.0 + a))) * t * np.power((1.0 - a) / (1.0 + a), j)
    return out


def project(ctx: HermiteContext | None, f: TestFunction, n: int) -> np.ndarray:
    """Coefficients (<f, h_k>)_{k=1..n}.

    ``gaussian`` inputs return the closed form (``_gaussian_coefficients``)
    and ``hermite_combo`` inputs their stored coefficients, both exactly
    and without quadrature, so ``ctx`` may be None for them.  Only
    ``sampled`` inputs are integrated, by the rule of ``ctx``, on whose
    grid they must live.  When a context is passed, ``n`` must lie in
    1..ctx.nmax whatever the kind.
    """
    nmax = math.inf if ctx is None else ctx.nmax
    if not 1 <= n <= nmax:
        raise ValueError(f"truncation n must lie in 1..{nmax}")
    if f.kind == "hermite_combo":
        out = np.zeros(n, dtype=f.coeffs.dtype)
        k = min(n, f.coeffs.size)
        out[:k] = f.coeffs[:k]
        return out
    if f.kind == "gaussian":
        return _gaussian_coefficients(f.a, n)
    if ctx is None:
        raise ValueError("a sampled function is projected by quadrature and needs a HermiteContext")
    if f.grid.shape != ctx.nodes.shape or not np.allclose(f.grid, ctx.nodes, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"sampled grid incompatible with the quadrature rule: the grid must be the {ctx.nodes.size}"
            f" Gauss-Hermite nodes of order {ctx.quad_order} (HermiteContext({ctx.nmax}).nodes) within 1e-12,"
            f" got {f.grid.size} points"
        )
    return ctx.basis[:, :n].T @ (ctx.weights * f.values)


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
        logs = logc + _log_grading(n, "poly", k)
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
