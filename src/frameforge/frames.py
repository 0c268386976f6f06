"""Truncated frame systems in Hermite coordinates.

A system is stored through its coefficient matrix E with ``E[m-1, n-1] =
<e_m, g_n>`` against the reference orthonormal basis (g_n), so every
frame-theoretic operation becomes dense linear algebra:

* analysis of f (coefficients c):   ``conj(E) @ c``
* synthesis of a sequence a:        ``E.T @ a``
* the same on a block of rows F:    ``F @ conj(E).T`` and ``F @ E``
* frame operator on coordinates:    ``E.T @ conj(E)``
* canonical dual system:            rows of ``E @ (E^H E)^{-1} = E^{-H}``

E is square, so the dual is solved from E itself, as ``inv(E)^H``, with an
error of order cond(E) eps; the normal equations in E^H E would square the
condition number.  The Gram matrix E^H E is formed only for its
eigenvalues (the frame bounds and the rank rule) and is not kept.

The reference basis is the Hermite basis throughout; a general Riesz
reference is obtained by composing coefficient matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envelopes import (
    DecayEnvelope,
    DecayFit,
    InsufficientDecayData,
    TruncatedMatrix,
    _scaled_abs_sums,
    _schur,
    envelope_value,
    fit_decay,
    fit_poly_decay,
    membership_constant,
    p_series,
)
from .weights import Weight, _row_norms, _to_json_list, as_sequence, log_eval_weight

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

# Trial vectors and unit vectors go through the operators in blocks of at most
# this many rows: one GEMM per block, with block arrays small beside N x N (at
# N = 512 ``weighted_operator_norms`` peaks at 2.1 N^2 doubles, dual solve included).
_TRIAL_BLOCK = 128


class IncompatibleWeight(ValueError):
    """The weight grows too fast for the system's localization order."""


def _full_rank(eigenvalues: np.ndarray) -> bool:
    """Whether the ascending eigenvalues of a Gram matrix show full rank.

    The smallest eigenvalue must exceed RANK_TOL**2 (sigma_min > RANK_TOL)
    and N eps lambda_max: a computed Gram eigenvalue is only accurate to
    about N eps lambda_max, so below that it cannot be told from 0.
    """
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    return lam_min > max(RANK_TOL ** 2, eigenvalues.size * np.finfo(float).eps * lam_max)


def _gram_product(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """``a @ b`` for a Gram matrix ``name``; raises ValueError when it overflows.

    The stored matrix is finite, so a non-finite Gram means that entries of
    about 1e154 or more squared past the double range; ``eigvalsh`` would
    then fail to converge rather than say why.
    """
    with np.errstate(over="ignore"):
        gram = a @ b
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"{name} overflows the double range: matrix entries near 1e154 or larger")
    return gram


def _require_full_rank(eigenvalues: np.ndarray, message: str) -> None:
    """Raise LinAlgError unless ``_full_rank`` holds."""
    if not _full_rank(eigenvalues):
        raise np.linalg.LinAlgError(message)


class FrameSystem:
    """A truncated frame given by its coefficient matrix against the ONB.

    Row m holds the Hermite coefficients of the m-th frame element.
    The ascending eigenvalues of the Gram matrix E^H E (the squared
    singular values of E, whose extremes are the frame bounds) and the
    canonical dual E^{-H} are computed lazily, once per system; the Gram
    matrix itself is formed once, for its eigenvalues, and not kept.
    Instances are treated as immutable after construction.
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
    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the Gram matrix E^H E in ascending order."""
        return np.linalg.eigvalsh(_gram_product(self.matrix.conj().T, self.matrix, "the Gram matrix E^H E"))

    @cached_property
    def canonical_dual(self) -> "FrameSystem":
        """Rows S^{-1} e_n: E (E^H E)^{-1}, which is E^{-H} for the square E.

        The rank rule on the Gram eigenvalues decides whether the dual
        exists; the dual itself is solved from E, not from E^H E.
        """
        _require_full_rank(self.gram_eigenvalues, "frame operator is rank-deficient at this truncation")
        dual = np.linalg.inv(self.matrix).conj().T
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
    return TruncatedMatrix(e.matrix @ f.matrix.conj().T, margin=e.coeffs.margin)


def _coefficients(f, n: int) -> np.ndarray:
    """One coefficient sequence, or a 2-D block whose rows are sequences."""
    f = np.asarray(f)
    f = as_sequence(f, ndim=2 if f.ndim == 2 else 1)
    if f.shape[-1] != n:
        raise ValueError("coefficient length does not match the system")
    return f


def analysis(e: FrameSystem, f) -> np.ndarray:
    """Analysis coefficients (<f, e_m>)_m of f given by Hermite coefficients.

    A (b, N) block f gives the analysis of each row, in one matrix product.
    The conjugate is taken of f and of the result, never of E, so a complex
    system copies no N x N array (``conj`` of a real array is the array).
    """
    f = _coefficients(f, e.n)
    return (f.conj() @ e.matrix.T).conj()


def synthesis(e: FrameSystem, c) -> np.ndarray:
    """Hermite coefficients of sum_n c_n e_n; a (b, N) block c gives one row per row."""
    c = _coefficients(c, e.n)
    return c @ e.matrix


def frame_bounds(e: FrameSystem) -> tuple[float, float]:
    """Truncated frame bounds: the extreme eigenvalues of the Gram matrix E^H E.

    Both are accurate to about N eps times the upper bound, so a lower
    bound below that carries no correct digit.  It is clipped at 0, where
    rounding can leave a singular system's smallest eigenvalue negative.
    """
    lam = e.gram_eigenvalues
    return max(float(lam[0]), 0.0), float(lam[-1])


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
    envelope of either family.
    """
    try:
        return fit_poly_decay(a) if poly else fit_decay(a, beta)
    except InsufficientDecayData:
        return DecayFit(gamma=math.inf, c=float(np.max(np.abs(a.entries))), residual=0.0)


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
    spec: PerturbationSpec, n: int, trials: int, seed: int = 0
) -> ExampleInequalityReport:
    """Extrema of the three inequalities over ``trials`` random unit vectors.

    The trials run in seeded blocks of rows, one synthesis product per
    block; the blocks draw from the generator in the same order as one
    vector per trial would, so the trial vectors do not depend on the
    block size.
    """
    system, _ = build_perturbed_basis(spec, n)
    c_factor = (3.0 + sum(spec.eps)) / 4.0
    rng = np.random.default_rng(seed)
    contraction = 0.0
    upper = 0.0
    lower = math.inf
    for start in range(0, trials, _TRIAL_BLOCK):
        f = rng.standard_normal((min(_TRIAL_BLOCK, trials - start), n))
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

    def to_json(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


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
    if gamma <= 0 or not 0.0 < beta <= 1.0:
        raise ValueError("need gamma > 0 and beta in (0, 1]")
    if not 0.0 < eps_free < 1.0:
        raise ValueError("eps_free must lie in (0, 1)")
    gp = gamma / 2.0 if gamma_prime is None else float(gamma_prime)
    gpp = gp / 2.0 if gamma_dprime is None else float(gamma_dprime)
    if not 0.0 < gp < gamma:
        raise ValueError("gamma_prime must lie in (0, gamma)")
    if not 0.0 < gpp < gp:
        raise ValueError("gamma_dprime must lie in (0, gamma_prime)")

    aas = _gram_product(a.entries, a.entries.conj().T, "AA*")
    lam = np.linalg.eigvalsh(aas)
    _require_full_rank(lam, "matrix is singular at truncation")
    c_class = membership_constant(a, DecayEnvelope("jaffard", gamma=gamma, beta=beta))
    if not math.isfinite(c_class):
        raise ValueError("matrix does not satisfy the declared decay class on the window")
    # AA* is Hermitian positive definite, so ||AA*|| = lambda_max(AA*) and the
    # contraction R = Id - AA*/||AA*|| has norm r = 1 - lambda_min/lambda_max.
    norm_aas = float(lam[-1])
    r = 1.0 - float(lam[0]) / norm_aas
    if r >= 1.0:
        raise np.linalg.LinAlgError("matrix is singular at truncation")
    c_aas = membership_constant(
        TruncatedMatrix(aas, margin=a.margin), DecayEnvelope("jaffard", gamma=gp, beta=beta)
    )
    c1 = 1.0 + c_aas / norm_aas
    p_split = p_series(gp - gpp, beta)
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
    )


@dataclass(frozen=True)
class InverseDecayReport:
    violations: int
    checked: int
    gamma_fit_inverse: float
    max_inverse_entry: float


def verify_inverse_decay(a: TruncatedMatrix, report: JaffardReport) -> InverseDecayReport:
    """Entrywise check of |A^{-1}| <= C_inv e^{-gamma1 |m-n|^beta} on the window.

    The inverse is computed by direct dense solve; also reports the
    fitted decay rate of the inverse, which should dominate the predicted
    rate, or the +inf sentinel rate of ``_fit_or_sentinel`` when the
    window is too narrow to fit.  The bound is the ``jaffard`` envelope,
    so a report whose ``gamma1_pred`` is not positive raises ValueError.
    """
    env = DecayEnvelope("jaffard", gamma=report.gamma1_pred, beta=report.beta, c=report.c_inv_pred)
    inv = np.linalg.inv(a.entries)
    inv_mat = TruncatedMatrix(inv, margin=a.margin)
    w = inv_mat.window
    sub = np.abs(inv[w, w])
    idx = inv_mat.window_indices()
    violations = int(np.sum(sub > envelope_value(env, idx[:, None], idx[None, :])))
    return InverseDecayReport(
        violations=violations,
        checked=int(sub.size),
        gamma_fit_inverse=_fit_or_sentinel(inv_mat, report.beta).gamma,
        max_inverse_entry=float(np.max(sub)),
    )


@dataclass(frozen=True)
class OperatorNormReport:
    """(lower, upper) brackets of the norms of conj(E), E^T and S = E^T conj(E), and of inf ||S f|| / ||f||."""

    analysis: tuple[float, float]
    synthesis: tuple[float, float]
    frame_op: tuple[float, float]
    frame_op_min: tuple[float, float]


def _schur_bounds(mat: np.ndarray, log_w: np.ndarray, p: float) -> tuple[float, float, float]:
    """Schur bounds of B = D |conj(E)| D^-1, G^T = D |E^T| D^-1 and of G^T B >= |D S D^-1|, D = diag(e^log_w).

    The product is never formed: its row sums are G^T (B 1), its column sums (G 1)^T B.
    """
    b_rows, b_cols = _scaled_abs_sums(mat, log_w, log_w)
    g_rows, g_cols = _scaled_abs_sums(mat, -log_w, -log_w)
    s_rows = _scaled_abs_sums(mat, -log_w, -log_w, b_rows)[1]
    s_cols = _scaled_abs_sums(mat, log_w, log_w, g_rows)[1]
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
    bound) up to the least unit-vector ratio of S.
    """
    if w.kind != "moderate" and w.effective_beta >= loc_beta:
        raise IncompatibleWeight("incompatible weight: weight order must be below the localization order")
    if not _fit_or_sentinel(e.coeffs, loc_beta).gamma > 0:
        raise ValueError("system is not localized; weighted bounds do not apply")
    log_w = log_eval_weight(w, np.arange(1, e.n + 1, dtype=float))
    ratios = np.empty((3, e.n))
    for start in range(0, e.n, _TRIAL_BLOCK):
        j = slice(start, start + _TRIAL_BLOCK)
        scale = log_w - log_w[j, None]  # ||M e_j|| / ||e_j|| is the norm of M e_j at these log weights
        u = e.matrix.T[j].conj()  # the analysis of e_j is conj(column j of E), its synthesis row j of E
        ratios[:, j] = [_row_norms(m, scale, p) for m in (u, e.matrix[j], synthesis(e, u))]
    # where rounding inverts a bracket that closes (p = 1), the proven end yields to the attained one
    norms = [(float(lo), max(hi, float(lo))) for lo, hi in zip(ratios.max(axis=1), _schur_bounds(e.matrix, log_w, p))]
    s_lo, s_hi = 1.0 / _schur_bounds(canonical_dual(e).matrix, log_w, p)[2], float(ratios[2].min())
    return OperatorNormReport(*norms, frame_op_min=(min(s_lo, s_hi), s_hi))
