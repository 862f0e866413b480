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
from .ellipsoidal import EllipsoidalPosition, from_ellipsoidal, to_ellipsoidal
from .errors import CenterRayError, InvalidInputError, NearCollisionError, RankDeficientError
from .geometry import StarMetric, check_finite, embed, project, star_inner, star_norm
from .integrate import (
    DriftReport,
    IntegratorConfig,
    Trajectory,
    cubic_hermite,
    drift_report,
    integrate_ellipsoid,
    integrate_planar,
)
from .projective import (
    IntegralRelation,
    energy_arrays,
    fd_tangential_acceleration,
    fit_integral_relation,
    lift_arrays,
    lifted_speed_squared,
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    velocity_independence_residual,
)
from .sampling import make_rng, sample_phase_points

__version__ = "0.1.0"

__all__ = [
    "CenterRayError",
    "DriftReport",
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
    "acceleration",
    "axial_angular_momentum",
    "center_distances",
    "check_finite",
    "cubic_hermite",
    "drift_report",
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
    "kepler_limit_residual",
    "lift_arrays",
    "lifted_speed_squared",
    "make_rng",
    "project",
    "relation_coefficients",
    "relation_residual",
    "reparametrize_time",
    "rotate_about_axis",
    "sample_phase_points",
    "star_inner",
    "star_norm",
    "to_ellipsoidal",
    "velocity_independence_residual",
]
