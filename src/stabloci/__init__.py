"""Exact stability loci, stratifications and invariant rings for linear
actions of tori and graded unipotent groups on projective space."""

from .actions import (
    ActionDocument,
    Bounds,
    GradingData,
    ProjectivePoint,
    TorusWeights,
    UnipotentData,
    WeightedAction,
    aut_p112_example,
    jet_group_example,
    jordan_embed_ga,
    parse_document,
    serialize_document,
)
from .graded import (
    AdaptedWindow,
    BlowupCentre,
    ConditionReport,
    ConditionVerdict,
    StabDimReport,
    SweepCertificate,
    adapted_window,
    blowup_centre,
    check_condition_cstar,
    check_condition_cstar_tilde,
    hat_stable_minplus,
    in_X0_min,
    in_Z_min,
    m_lower_bound,
    q_hat_stable,
    stab_dim_u,
    u_sweep_membership,
)
from .hull import HullPosition, closest_point_to_origin, hull_origin_position
from .invariants import (
    GradedInvariantSpace,
    invariant_nonvanishing_verdict,
    points_at_infinity_classifier,
    product_sl2_invariants,
    restriction_to_slice,
    sl2_invariants_binary_form,
    unipotent_invariants,
)
from .linalg import RatMatrix, rref_kernel
from .poly import MultiPoly, poly_gcd_univariate
from .torus import (
    StabilityVerdict,
    Status,
    StratumIndex,
    limit_point,
    stratification_indices,
    stratum_of,
    stratum_quotient_data,
    torus_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
