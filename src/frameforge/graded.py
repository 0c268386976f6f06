"""Graded-norm diagnostics: the finite-data proxies for nested smooth spaces.

The two norm families are

* ``poly``:   ||f||_k = l2 norm of (c_n * n^k)
* ``subexp``: ||f||_k = l2 norm of (c_n * e^{k n^beta})

indexed by a grading level k >= 0.  They are computed by the one row-norm
kernel of ``weights``, on the products |c_n| e^{l_n} of the level-k log
grading l (a product past the double range is formed in log form), so a
level norm overflows only when its true value does.  Membership of an
object in the full projective limit cannot be certified from finite data;
the honest proxy used throughout is stability of these norms across
levels and under doubling the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import _scaled_abs_sums, _schur, _subexp_tail_integral
from .frames import FrameSystem, analysis, canonical_dual
from .hermite import HermiteContext, TestFunction, classify_coefficient_decay, project
from .weights import _graded_row_norms, _log_abs, _log_grading, as_sequence, sup_graded_norm

__all__ = [
    "DistributionCoefficients",
    "GradedNormProfile",
    "PairingResult",
    "PropertyPgReport",
    "expansion_error_curve",
    "fframe_bounds",
    "fframe_bounds_estimate",
    "graded_level_norm",
    "graded_profile",
    "pair_distribution",
    "property_pg_check",
    "standard_sample_set",
]


def graded_level_norm(c, family: str, k: float, beta: float = 1.0) -> float:
    """l2 norm of the level-k weighted sequence; a true norm past 1e308 is inf."""
    return float(_graded_row_norms(as_sequence(c)[None, :], family, k, beta, 2.0)[0])


@dataclass(frozen=True)
class GradedNormProfile:
    """Norms of one object across grading levels; nondecreasing in the level."""

    family: str
    beta: float
    levels: tuple[float, ...]
    norms: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.norms):
            raise ValueError("levels and norms must align")
        for lo, hi in zip(self.norms, self.norms[1:]):
            if lo > hi * (1.0 + 1e-13):
                raise ValueError("profile norms must be nondecreasing in the level")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "beta": self.beta,
            "levels": list(self.levels),
            "norms": [float(x) for x in self.norms],
        }


def graded_profile(c, family: str, levels=None, beta: float = 1.0) -> GradedNormProfile:
    """Profile of level norms of c at the given levels (default 0..10)."""
    if levels is None:
        levels = tuple(range(11))
    levels = tuple(float(k) for k in levels)
    if any(k < 0 for k in levels) or list(levels) != sorted(levels):
        raise ValueError("levels must be nonnegative and sorted")
    norms = tuple(graded_level_norm(c, family, k, beta) for k in levels)
    return GradedNormProfile(family=family, beta=beta, levels=levels, norms=norms)


def fframe_bounds(e: FrameSystem, family: str, k: float, beta: float = 1.0) -> tuple[float, float]:
    """Proven graded frame bounds (A_k, B_k) at one level: A_k ||c||_k <= ||analysis(c)||_k <= B_k ||c||_k.

    With D = diag(e^l) for the level-k log grading l, analysis acts on
    level-k norms as D conj(E) D^-1.  B_k is the Schur bound of its moduli,
    and A_k is 1 / the Schur bound of D |conj(E^-1)| D^-1, the inverse read
    off the canonical dual: conj(E^-1) is the transpose of the dual's
    matrix E^-H, so its row and column sums are the dual's column and row
    sums at the negated grading.  A_k = 0 or B_k = inf when a bound passes
    the double range.  Raises LinAlgError when the system has no dual.
    """
    l = _log_grading(np.arange(1, e.n + 1, dtype=float), family, k, beta)
    dual = canonical_dual(e).coeffs
    dual_rows, dual_cols = _scaled_abs_sums(dual.entries, -l, -l, dual.spans[0])
    return 1.0 / _schur(dual_cols, dual_rows, 2.0), _schur(*_scaled_abs_sums(e.matrix, l, l, e.coeffs.spans[0]), 2.0)


def fframe_bounds_estimate(
    e: FrameSystem, samples, family: str, k: float, beta: float = 1.0
) -> tuple[float, float]:
    """Inner estimates of the graded frame bounds on given vectors: the reference for ``fframe_bounds``.

    Returns (min, max) over the samples of the ratio between the level-k
    norm of the analysis coefficients and the level-k norm of the sample
    itself, so the true bounds lie outside this interval, and the proven
    bracket of ``fframe_bounds`` contains it.  The samples are analysed
    together, in one matrix product, and each block of norms is one
    kernel call.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    samples = as_sequence(np.asarray(samples), ndim=2)
    dens = _graded_row_norms(samples, family, k, beta, 2.0)
    if not np.all((dens > 0.0) & np.isfinite(dens)):
        raise ValueError("sample with zero or non-finite level norm")
    ratios = _graded_row_norms(analysis(e, samples), family, k, beta, 2.0) / dens
    return float(np.min(ratios)), float(np.max(ratios))


def standard_sample_set(ctx: HermiteContext | None, n: int, count: int = 20, seed: int = 0):
    """Vectors for inner estimates with ``fframe_bounds_estimate``: the reference for the bracket.

    Deterministic structured samples plus seeded random decaying vectors.
    The structured part is h_1..h_8 and the projections of the two
    reference Gaussians, which ``project`` takes from their closed form, so
    ``ctx`` may be None; a passed context only checks ``n <= ctx.nmax``.
    The random part draws coefficients with e^{-n} decay and random signs.
    """
    samples = []
    for j in range(min(8, n)):
        delta = np.zeros(n)
        delta[j] = 1.0
        samples.append(delta)
    samples.append(project(ctx, TestFunction.gaussian(1.0), n))
    samples.append(project(ctx, TestFunction.gaussian(3.0), n))
    rng = np.random.default_rng(seed)
    decay = np.exp(-np.arange(1, n + 1, dtype=float))
    for _ in range(count):
        u = rng.uniform(0.5, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        samples.append(u * decay)
    return samples


def expansion_error_curve(
    f,
    e: FrameSystem,
    family: str,
    k: float,
    checkpoints,
    beta: float = 1.0,
) -> np.ndarray:
    """Level-k norm of f minus its M-term dual-frame expansion, per checkpoint.

    The expansion is sum_{n<=M} <f, e_n> d_n with d the canonical dual, so
    an f whose analysis against a banded system is finitely supported is
    captured exactly once M passes that support; at M = N the expansion
    reproduces every f up to solver roundoff (finite-rank exactness).
    """
    f = as_sequence(f)
    checkpoints = [int(m) for m in checkpoints]
    if any(m < 1 or m > e.n for m in checkpoints) or checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted within 1..N")
    dual = canonical_dual(e)
    a = analysis(e, f)
    residuals = np.stack([f - dual.matrix[:m, :].T @ a[:m] for m in checkpoints])
    return _graded_row_norms(residuals, family, k, beta, 2.0)


@dataclass(frozen=True)
class DistributionCoefficients:
    """Coefficients of a distribution-like functional with declared growth.

    The declared bound is |b_n| <= c * n^q (poly family) or
    |b_n| <= c * e^{q n^beta} (subexp family); it is validated against
    the stored entries when the coefficients are used in a pairing.
    """

    b: np.ndarray
    q: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "b", as_sequence(self.b))
        if self.q < 0:
            raise ValueError("growth order q must be nonnegative")
        if self.c <= 0:
            raise ValueError("growth constant c must be positive")

    def validate_growth(self, family: str, beta: float = 1.0):
        n = np.arange(1, self.b.size + 1, dtype=float)
        log_bound = math.log(self.c) + _log_grading(n, family, self.q, beta) + math.log1p(1e-12)
        if np.any(_log_abs(self.b) > log_bound):
            raise ValueError("stored entries violate the declared growth bound")


@dataclass(frozen=True)
class PairingResult:
    value: complex
    tail_bound: float


def _poly_tail_integral(s: float, n: int) -> float:
    # sum_{m > n} m^-s <= integral_n^inf x^-s dx, s > 1
    return n ** (1.0 - s) / (s - 1.0)


def pair_distribution(
    b: DistributionCoefficients, f, family: str, beta: float = 1.0
) -> PairingResult:
    """Finite pairing sum_n f_n b_n with an extrapolated tail estimate.

    The truncated coefficients of f are classified first; the pairing is
    accepted only if the classified decay beats the declared growth of b
    by a summable margin, and the tail bound extrapolates both behaviours
    past the truncation.
    """
    b.validate_growth(family, beta)
    f = as_sequence(f)
    if f.size != b.b.size:
        raise ValueError("pairing requires matching lengths")
    n_trunc = f.size
    report = classify_coefficient_decay(f)
    if family == "poly":
        k_f = report.poly_order
        if k_f <= b.q + 1.0:
            raise ValueError("non-summable pairing declared: decay does not dominate growth")
        majorant = sup_graded_norm(f, "poly", k_f)
        tail = b.c * majorant * _poly_tail_integral(k_f - b.q, n_trunc)
    else:
        fit = next((s for s in report.subexp if s.beta == beta), None)
        if fit is None:
            raise ValueError(f"classification grid does not include beta={beta}")
        if math.isinf(fit.gamma):
            tail = 0.0
        else:
            if fit.gamma <= b.q:
                raise ValueError("non-summable pairing declared: decay does not dominate growth")
            majorant = sup_graded_norm(f, "subexp", fit.gamma, beta)
            tail = b.c * majorant * _subexp_tail_integral(fit.gamma - b.q, beta, n_trunc)
    value = complex(np.sum(f * b.b))
    return PairingResult(value=value, tail_bound=float(tail))


@dataclass(frozen=True)
class PropertyPgReport:
    matched: int
    total: int
    details: tuple

    @property
    def all_matched(self) -> bool:
        return self.matched == self.total


def property_pg_check(
    e: FrameSystem,
    family: str,
    trials: int = 20,
    seed: int = 0,
    beta: float = 1.0,
) -> PropertyPgReport:
    """Coefficient-decay transfer check between a function and its analysis.

    Draws random coefficient vectors with a prescribed decay class,
    classifies the vector and its analysis coefficients, and counts how
    often the classes agree: polynomial order within +-1, or
    sub-exponential rate within 10%.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(1, e.n + 1, dtype=float)
    _log_grading(idx, family, 0.0, beta)  # rejects an unknown family or beta
    matched = 0
    details = []
    for _ in range(trials):
        u = rng.uniform(0.5, 1.0, size=e.n) * rng.choice([-1.0, 1.0], size=e.n)
        if family == "poly":
            order = int(rng.integers(1, 5))
            f = u * idx ** (-(order + 1.0))
            rep_f = classify_coefficient_decay(f).poly_order
            rep_a = classify_coefficient_decay(analysis(e, f)).poly_order
            ok = abs(rep_f - rep_a) <= 1
            details.append((order, rep_f, rep_a, ok))
        else:
            rate = float(rng.uniform(0.5, 2.0))
            f = u * np.exp(-rate * idx ** beta)
            fit_f = classify_coefficient_decay(f, (beta,)).subexp[0]
            fit_a = classify_coefficient_decay(analysis(e, f), (beta,)).subexp[0]
            ok = (
                math.isfinite(fit_f.gamma)
                and math.isfinite(fit_a.gamma)
                and abs(fit_a.gamma - fit_f.gamma) <= 0.1 * fit_f.gamma
            )
            details.append((rate, fit_f.gamma, fit_a.gamma, ok))
        matched += ok
    return PropertyPgReport(matched=matched, total=trials, details=tuple(details))
