"""frame-forge: numerics for localized frames at finite truncation.

The package verifies, on dense N x N truncations, the machinery that
off-diagonal matrix decay buys for frame expansions: membership in decay
classes and their algebra, operator bounds (Schur test, fixed-level
continuity constants), inverse-decay predictions for invertible class
members, canonical dual frames over the Hermite basis, and graded-norm
diagnostics for rapidly decreasing and sub-exponentially decreasing
coefficient spaces.
"""

from .envelopes import (
    DecayEnvelope,
    DecayFit,
    TruncatedMatrix,
    check_implication_chain,
    convolution_constant,
    envelope_value,
    fit_decay,
    fit_poly_decay,
    membership_constant,
    p_series,
    poly_continuity_bound,
    poly_series,
    product_envelope,
    schur_bound,
    subexp_continuity_bound,
    verify_fixed_level_continuity,
)
from .frames import (
    FrameSystem,
    JaffardReport,
    PerturbationSpec,
    analysis,
    build_perturbed_basis,
    canonical_dual,
    cross_gram,
    dual_localization_check,
    frame_bounds,
    identity_frame,
    jaffard_predict,
    spectral_norm,
    synthesis,
    verify_example_inequalities,
    verify_inverse_decay,
    weighted_operator_norms,
)
from .graded import (
    DistributionCoefficients,
    GradedNormProfile,
    expansion_error_curve,
    fframe_bounds,
    fframe_bounds_estimate,
    graded_level_norm,
    graded_profile,
    pair_distribution,
    property_pg_check,
    standard_sample_set,
)
from .hermite import (
    HermiteContext,
    TestFunction,
    classify_coefficient_decay,
    hermite_eval,
    project,
)
from .weights import (
    Weight,
    eval_weight,
    sup_graded_norm,
    verify_weight_admissibility,
    weighted_norm,
)

__version__ = "0.1.0"
