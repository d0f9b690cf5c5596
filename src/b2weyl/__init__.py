"""Exact affine Weyl orbit engine for quantized blow-up masses.

The package enumerates, classifies and verifies the reflection orbit of
the origin for the three-component affine Toda coupling of type B2(1),
entirely in exact integer/rational arithmetic: the orbit itself, its
eight closed-form families, the rank-one (sinh-Gordon) reduction, the
finite rank-two subsystem tables, and a simulator of the bubbling
mass-combination algebra.  All of the reflection systems involved are
instances of one rank-generic ``ReflectionSystem``.
"""

from .algebra import (
    B2,
    CARTAN_MATRIX,
    GENERATORS,
    MassVector,
    ReflectionSystem,
    UNIT_WEIGHTS,
    Weights,
    ZERO,
    apply_word,
    eval_at,
    pohozaev_residual,
    quadric_form,
    reflect,
)
from .cascade import (
    CascadeState,
    Collapse,
    InvalidSatellite,
    NonPhysicalMove,
    SatelliteMerge,
    initial_state,
    replay,
    step,
)
from .closedform import (
    ClosedFormId,
    closed_form_eval,
    invert_to_closed_form,
    special_case_table,
    transition,
    type_of,
    type_transition,
)
from .orbit import (
    MembershipCertificate,
    OrbitElement,
    OrbitWalk,
    check_relations,
    descend_to_origin,
    enumerate_orbit,
    is_member_gamma_N,
)
from .sinh import SINH, sinh_closed_form, sinh_invert, sinh_orbit
from .weyl2 import SUBSYSTEMS, Subsystem, appendix_table, finite_orbit, longest_element

__version__ = "0.1.0"

__all__ = [
    "B2", "CARTAN_MATRIX", "GENERATORS", "MassVector",
    "ReflectionSystem", "UNIT_WEIGHTS", "Weights", "ZERO", "apply_word",
    "eval_at", "pohozaev_residual", "quadric_form", "reflect",
    "CascadeState", "Collapse", "InvalidSatellite", "NonPhysicalMove",
    "SatelliteMerge", "initial_state", "replay", "step",
    "ClosedFormId", "closed_form_eval", "invert_to_closed_form",
    "special_case_table", "transition", "type_of", "type_transition",
    "MembershipCertificate", "OrbitElement", "OrbitWalk",
    "check_relations", "descend_to_origin", "enumerate_orbit", "is_member_gamma_N",
    "SINH", "sinh_closed_form", "sinh_invert", "sinh_orbit",
    "SUBSYSTEMS", "Subsystem", "appendix_table", "finite_orbit", "longest_element",
    "__version__",
]
