"""Classical ellipsoidal position coordinates of the two-center problem.

alpha and beta are the half-sum and half-difference of the distances to
the centers, theta the rotation angle about the centers axis with the
convention theta = atan2(-y, z).  Coordinates are stored scaled by 1/a so
the invariants alpha >= 1, |beta| <= 1 are the same for every center
half-distance; for a = 1 the scaling is the identity.

Level sets of alpha are confocal ellipsoids of revolution about the
centers axis, and both alpha and beta are invariant under rotations about
that axis (theta shifts by the rotation angle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Problem, center_distances, rotate_about_axis
from .errors import InvalidInputError
from .geometry import check_finite

_INVARIANT_SLACK = 1e-12

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class EllipsoidalPosition:
    """Scaled coordinates (alpha, beta, theta) with alpha >= 1, |beta| <= 1.

    ``degenerate`` marks points on the centers axis (y = z = 0), where
    theta is reported as 0 by convention instead of raising; axis points
    are legitimate dynamical states.
    """

    alpha: float
    beta: float
    theta: float
    degenerate: bool = False

    def __post_init__(self):
        alpha = float(self.alpha)
        beta = float(self.beta)
        theta = float(self.theta)
        if not (np.isfinite(alpha) and np.isfinite(beta) and np.isfinite(theta)):
            raise InvalidInputError("coordinates must be finite")
        if alpha < 1.0 - _INVARIANT_SLACK:
            raise InvalidInputError(f"alpha must be >= 1, got {alpha!r}")
        if abs(beta) > 1.0 + _INVARIANT_SLACK:
            raise InvalidInputError(f"|beta| must be <= 1, got {beta!r}")
        object.__setattr__(self, "alpha", max(alpha, 1.0))
        object.__setattr__(self, "beta", min(1.0, max(-1.0, beta)))
        object.__setattr__(self, "theta", theta % TWO_PI)


def to_ellipsoidal(q: np.ndarray, prob: Problem) -> EllipsoidalPosition:
    """Convert a Cartesian position to scaled ellipsoidal coordinates."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise InvalidInputError(f"q must have shape (3,), got {q.shape}")
    check_finite(q, "q")
    d_minus, d_plus = center_distances(q, prob)
    if d_minus == 0.0 or d_plus == 0.0:
        raise InvalidInputError("q coincides with an attracting center")
    a = prob.a
    alpha = (d_minus + d_plus) / (2.0 * a)
    beta = (d_minus - d_plus) / (2.0 * a)
    degenerate = q[1] == 0.0 and q[2] == 0.0
    theta = 0.0 if degenerate else float(np.arctan2(-q[1], q[2]) % TWO_PI)
    return EllipsoidalPosition(alpha, beta, theta, degenerate)


def from_ellipsoidal(ep: EllipsoidalPosition, prob: Problem) -> np.ndarray:
    """Cartesian position with the given scaled ellipsoidal coordinates.

    Uses x = a alpha beta and the transverse radius
    rho = a sqrt((alpha^2 - 1)(1 - beta^2)), with (y, z) =
    (-rho sin theta, rho cos theta) matching the theta = atan2(-y, z)
    convention.
    """
    a = prob.a
    alpha, beta = ep.alpha, ep.beta
    x = a * alpha * beta
    # (alpha - 1)(alpha + 1) keeps precision when alpha is barely above 1
    rho2 = (alpha - 1.0) * (alpha + 1.0) * (1.0 - beta) * (1.0 + beta)
    rho = a * np.sqrt(max(rho2, 0.0))
    return np.array([x, -rho * np.sin(ep.theta), rho * np.cos(ep.theta)])


def rotational_invariance_residual(q: np.ndarray, prob: Problem, angle: float) -> float:
    """Max change of (alpha, beta) under a rotation about the centers axis.

    Vanishes up to roundoff for every angle; theta itself shifts by the
    angle mod 2 pi, which the test suite checks separately.
    """
    before = to_ellipsoidal(q, prob)
    after = to_ellipsoidal(rotate_about_axis(q, angle), prob)
    return max(abs(after.alpha - before.alpha), abs(after.beta - before.beta))
