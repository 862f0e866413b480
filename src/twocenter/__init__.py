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
    first_integrals,
    kepler_limit_residual,
)
from .errors import InvalidInputError, NearCollisionError, RankDeficientError
from .geometry import project, star_inner, star_norm
from .integrate import (
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
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    velocity_independence_residual,
)
from .sampling import make_rng, sample_phase_points

__version__ = "0.1.0"

__all__ = [
    "IntegralRelation",
    "IntegratorConfig",
    "InvalidInputError",
    "NearCollisionError",
    "PhasePoint",
    "Problem",
    "RankDeficientError",
    "Trajectory",
    "acceleration",
    "cubic_hermite",
    "drift_report",
    "energy_arrays",
    "fd_tangential_acceleration",
    "first_integrals",
    "fit_integral_relation",
    "integrate_ellipsoid",
    "integrate_planar",
    "kepler_limit_residual",
    "lift_arrays",
    "make_rng",
    "project",
    "relation_coefficients",
    "relation_residual",
    "reparametrize_time",
    "sample_phase_points",
    "star_inner",
    "star_norm",
    "velocity_independence_residual",
]
