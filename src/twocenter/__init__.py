"""Two-fixed-center dynamics and its central projection onto an ellipsoid.

The package simulates the classical problem of a particle attracted by two
fixed Newtonian centers, projects the motion onto a weighted-norm
ellipsoid in R^4, and verifies (pointwise and along trajectories) that the
projected motion conserves an "ellipsoidal energy" expressible in the
problem's first integrals.
"""

from .dynamics import (
    PhasePoint,
    Problem,
    acceleration,
    axial_angular_momentum,
    center_distances,
    euler_integral,
    first_integrals,
    hamiltonian,
    kepler_limit_residual,
    rotate_about_axis,
)
from .ellipsoidal import (
    EllipsoidalPosition,
    from_ellipsoidal,
    rotational_invariance_residual,
    to_ellipsoidal,
)
from .errors import (
    CenterRayError,
    InvalidInputError,
    NearCollisionError,
    RankDeficientError,
    WrongBranchError,
)
from .geometry import (
    EllipsoidPoint,
    StarMetric,
    check_finite,
    duality_residual,
    embed,
    project,
    star_inner,
    star_norm,
    unproject,
)
from .integrate import (
    DriftReport,
    IntegratorConfig,
    Trajectory,
    cubic_hermite,
    drift_report,
    ellipsoid_state_at,
    integrate_ellipsoid,
    integrate_planar,
)
from .projective import (
    EllipsoidState,
    IntegralRelation,
    ellipsoid_potential,
    ellipsoidal_energy,
    energy_arrays,
    fd_tangential_acceleration,
    fit_integral_relation,
    intrinsic_rhs,
    lift_arrays,
    lift_velocity,
    lifted_speed_squared,
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    tangential_field,
    velocity_independence_residual,
)
from .sampling import make_rng, sample_phase_points

__version__ = "0.1.0"

__all__ = [
    "CenterRayError",
    "DriftReport",
    "EllipsoidPoint",
    "EllipsoidState",
    "EllipsoidalPosition",
    "IntegralRelation",
    "IntegratorConfig",
    "InvalidInputError",
    "NearCollisionError",
    "PhasePoint",
    "Problem",
    "RankDeficientError",
    "StarMetric",
    "Trajectory",
    "WrongBranchError",
    "acceleration",
    "axial_angular_momentum",
    "center_distances",
    "check_finite",
    "cubic_hermite",
    "drift_report",
    "duality_residual",
    "ellipsoid_potential",
    "ellipsoid_state_at",
    "ellipsoidal_energy",
    "embed",
    "energy_arrays",
    "euler_integral",
    "fd_tangential_acceleration",
    "first_integrals",
    "fit_integral_relation",
    "from_ellipsoidal",
    "hamiltonian",
    "integrate_ellipsoid",
    "integrate_planar",
    "intrinsic_rhs",
    "kepler_limit_residual",
    "lift_arrays",
    "lift_velocity",
    "lifted_speed_squared",
    "make_rng",
    "project",
    "relation_coefficients",
    "relation_residual",
    "reparametrize_time",
    "rotate_about_axis",
    "rotational_invariance_residual",
    "sample_phase_points",
    "star_inner",
    "star_norm",
    "tangential_field",
    "to_ellipsoidal",
    "unproject",
    "velocity_independence_residual",
]
