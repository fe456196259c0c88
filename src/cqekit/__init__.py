"""Entanglement-assisted classical-quantum capacity regions of quantum channels."""

from .channels import (
    IsometricExtension,
    apply_isometry,
    builtin_isometry,
    dephasing,
    depolarizing_complete,
    erasure_kraus,
    isometric_extension,
)
from .entropics import (
    CQEJointState,
    CQEnsemble,
    EntropyProfile,
    channel_output_ensemble,
    make_ensemble,
    mu_ensemble,
    verify_identities,
)
from .qlinalg import (
    PureStateVector,
    binary_entropy,
    trace_norm,
)
from .regions import (
    OneShotRegion,
    RateTriple,
    cef_point,
    contains,
    corner_points,
    derive_children,
    region_from_state,
    union_membership,
)

__version__ = "0.1.0"
