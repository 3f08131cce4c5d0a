"""Semiclassical propagation of quantum states in phase space.

The package evolves wave functions through their wave-packet (coherent-state)
transform: position-space states map to phase-space fields, single Gaussian
packets evolve along classical characteristics with complex variational
frames, and superpositions of evolved packets reconstruct both the propagated
phase-space field and the position-space solution.  WKB initial data is
supported through leading-order phase-space lifts, transported Lagrangian
manifolds, and stationary-phase solution values on the manifold.  Closed-form
reference solutions for three linear-flow models (free motion, a constant
force, and a harmonic trap) validate every pipeline end to end.
"""

from .errors import (
    BranchError,
    CausticError,
    ConfigurationError,
    DomainError,
    EhrenfestWarning,
    GridRangeError,
    IntegrationError,
    ModelError,
    PhasePropError,
    ProjectionError,
    SpacingWarning,
    TruncationError,
)
from .flow import (
    FlowOptions,
    SiegelMatrix,
    TrajectoryBundle,
    VariationalFrame,
    amplitude_a,
    anisotropy_Z,
    ehrenfest_guard,
    flow_jacobian,
    integrate_characteristics,
    symplectic_J,
)
from .models import HamiltonianModel, PhasePoint, builtin_model, polynomial_model
from .oracles import (
    OracleCase,
    exact_action_S,
    exact_kernel,
    exact_manifold,
    exact_phase_field,
    exact_phase_solution,
    exact_position_solution,
    exact_van_vleck,
    harmonic_vertical_time,
    initial_phase_state,
    initial_position_state,
    load_deviations,
)
from .propagator import (
    PropagatedPacket,
    apply_propagator,
    double_anisotropy_Q,
    eval_packet,
    kernel_Ksc,
    position_space_solution,
    propagate_packet,
    van_vleck_kernel,
)
from .transform import (
    ComplexField,
    bergmann_kernel,
    field_metadata,
    fock_bargmann_residual,
    gaussian_packet,
    husimi_check,
    inverse_transform,
    overlap,
    wave_packet_transform,
    write_field_csv,
)
from .wkb import (
    GaussianPoly,
    LagrangianManifold,
    WKBData,
    asymptotic_phase_Fsc,
    gaussian_integral,
    lift_wkb,
    r_analytic_extension,
    solution_on_manifold,
    stationary_point_z,
    transport_manifold,
    vertical_tangent_time,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PhasePropError", "ConfigurationError", "ModelError", "GridRangeError",
    "CausticError", "TruncationError", "BranchError", "ProjectionError",
    "DomainError", "IntegrationError", "SpacingWarning", "EhrenfestWarning",
    # models
    "PhasePoint", "HamiltonianModel", "builtin_model", "polynomial_model",
    # flow
    "symplectic_J", "VariationalFrame", "SiegelMatrix", "FlowOptions",
    "TrajectoryBundle", "integrate_characteristics", "anisotropy_Z",
    "flow_jacobian", "amplitude_a", "ehrenfest_guard",
    # transform
    "ComplexField", "gaussian_packet", "wave_packet_transform",
    "inverse_transform", "overlap", "bergmann_kernel",
    "fock_bargmann_residual", "husimi_check", "field_metadata",
    "write_field_csv",
    # propagator
    "PropagatedPacket", "propagate_packet", "eval_packet",
    "double_anisotropy_Q", "kernel_Ksc", "apply_propagator",
    "position_space_solution", "van_vleck_kernel",
    # wkb
    "GaussianPoly", "WKBData", "LagrangianManifold", "r_analytic_extension",
    "stationary_point_z", "lift_wkb", "transport_manifold",
    "vertical_tangent_time", "asymptotic_phase_Fsc", "solution_on_manifold",
    "gaussian_integral",
    # oracles
    "OracleCase", "initial_position_state", "initial_phase_state",
    "exact_position_solution", "exact_phase_solution", "exact_phase_field",
    "exact_kernel", "exact_manifold", "exact_action_S", "exact_van_vleck",
    "harmonic_vertical_time", "load_deviations",
]
