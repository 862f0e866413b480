"""Two-fixed-center dynamics in R^3 and its three commuting invariants.

A particle moves under Newtonian attraction by masses m_minus at
(-a, 0, 0) and m_plus at (+a, 0, 0) (gravitational constant 1, everything
dimensionless).  Along any trajectory three quantities are conserved: the
energy, the angular-momentum component along the centers axis, and the
Euler integral

    E = |q x p|^2 + (c . p)^2 + 2 (q . c) (m_minus/|q + c| - m_plus/|q - c|)

with c = (a, 0, 0).  Evaluation functions broadcast over leading axes, so
whole sweeps go through the same code path as single points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NearCollisionError
from .geometry import StarMetric, check_finite, columns

# Evaluations closer to a center than this are refused instead of blowing up.
COLLISION_GUARD = 1e-8


@dataclass(frozen=True)
class Problem:
    """Masses and half-distance of the two fixed centers."""

    m_minus: float = 1.0
    m_plus: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        for name in ("m_minus", "m_plus", "a"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.m_minus < 0.0 or self.m_plus < 0.0:
            raise InvalidInputError("masses must be nonnegative")
        if self.a <= 0.0:
            raise InvalidInputError(f"half-distance a must be positive, got {self.a!r}")

    @property
    def center_minus(self) -> np.ndarray:
        return np.array([-self.a, 0.0, 0.0])

    @property
    def center_plus(self) -> np.ndarray:
        return np.array([self.a, 0.0, 0.0])

    @property
    def is_kepler(self) -> bool:
        """True when exactly one mass vanishes (single-center limit)."""
        return (self.m_minus == 0.0) != (self.m_plus == 0.0)

    def metric(self) -> StarMetric:
        """The star metric whose ellipsoid this problem projects onto."""
        return StarMetric(self.a)


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Position and velocity of the moving particle (p = dq/dt)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != (3,) or p.shape != (3,):
            raise InvalidInputError("q and p must have shape (3,)")
        check_finite(q, "q")
        check_finite(p, "p")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def _angular_momentum(x, y, z, px, py, pz):
    """Components of q x p from coordinate columns, in np.cross's operation order."""
    return y * pz - z * py, z * px - x * pz, x * py - y * px


def _distances(x, y, z, a: float):
    """(d_minus, d_plus) from coordinate columns.

    The sums run left to right, the order numpy reduces a length-3 last
    axis in, so the result is bit-identical to the (..., 3) form.
    """
    yy = y * y
    zz = z * z
    x_minus = x + a
    x_plus = x - a
    return np.sqrt(x_minus * x_minus + yy + zz), np.sqrt(x_plus * x_plus + yy + zz)


def center_distances(q: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distances (d_minus, d_plus) to the two centers, batched."""
    return _distances(*columns(np.asarray(q, dtype=float), 3, "q"), prob.a)


def _check_guard(d_minus, d_plus) -> None:
    if np.any(d_minus < COLLISION_GUARD) or np.any(d_plus < COLLISION_GUARD):
        raise NearCollisionError(
            f"point within {COLLISION_GUARD:g} of an attracting center"
        )


def acceleration(q: np.ndarray, prob: Problem) -> np.ndarray:
    """Right-hand side of the two-center ODE, -sum_j m_j (q - c_j)/|q - c_j|^3."""
    q = np.asarray(q, dtype=float)
    check_finite(q, "q")
    d_minus, d_plus = center_distances(q, prob)
    _check_guard(d_minus, d_plus)
    acc = -prob.m_minus * (q - prob.center_minus) / np.expand_dims(d_minus**3, -1)
    acc -= prob.m_plus * (q - prob.center_plus) / np.expand_dims(d_plus**3, -1)
    return acc


def planar_kernel(prob: Problem):
    """Plain-float right-hand side of the two-center system, for the integrator.

    Returns ``rhs(y)``, which maps (x, y, z, px, py, pz) to (p, acceleration)
    as a tuple of Python floats.  It is :func:`acceleration` for one point,
    with the same finite check and collision guard, without the numpy call
    overhead that dominates length-3 arrays.
    """
    m_minus, m_plus, a = prob.m_minus, prob.m_plus, prob.a
    isfinite, sqrt = math.isfinite, math.sqrt

    def rhs(state):
        x, y, z, px, py, pz = state
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise InvalidInputError("q must have finite components")
        x_minus = x + a
        x_plus = x - a
        d2_minus = x_minus * x_minus + y * y + z * z
        d2_plus = x_plus * x_plus + y * y + z * z
        d_minus = sqrt(d2_minus)
        d_plus = sqrt(d2_plus)
        if d_minus < COLLISION_GUARD or d_plus < COLLISION_GUARD:
            raise NearCollisionError(f"point within {COLLISION_GUARD:g} of an attracting center")
        k_minus = m_minus / (d2_minus * d_minus)
        k_plus = m_plus / (d2_plus * d_plus)
        return (
            px,
            py,
            pz,
            -k_minus * x_minus - k_plus * x_plus,
            -k_minus * y - k_plus * y,
            -k_minus * z - k_plus * z,
        )

    return rhs


def first_integrals(
    q: np.ndarray, p: np.ndarray, prob: Problem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, Theta, E) at once, batched over leading axes.

    q and p are checked for finite components once, the two center
    distances are computed once and the collision guard is applied once;
    :func:`hamiltonian` and :func:`euler_integral` are views of this.
    Every expression keeps the operation order of the (..., 3) reductions
    and ``np.cross`` it replaces, so the values are bit-identical to them.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    x, y, z = columns(q, 3, "q")
    px, py, pz = columns(p, 3, "p")
    check_finite(q, "q")
    check_finite(p, "p")
    a = prob.a
    d_minus, d_plus = _distances(x, y, z, a)
    _check_guard(d_minus, d_plus)
    k_minus = prob.m_minus / d_minus
    k_plus = prob.m_plus / d_plus
    j = 0.5 * (px * px + py * py + pz * pz) - k_minus - k_plus
    theta, ly, lz = _angular_momentum(x, y, z, px, py, pz)
    e = theta * theta + ly * ly + lz * lz + (a * px) ** 2 + 2.0 * a * x * (k_minus - k_plus)
    return j, theta, e


def hamiltonian(q: np.ndarray, p: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Total energy |p|^2/2 - m_minus/|q + c| - m_plus/|q - c|."""
    return first_integrals(q, p, prob)[0]


def axial_angular_momentum(q: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """Angular-momentum component along the centers axis, (q x p)_x.

    The unit axis direction is used for every a; conservation only depends
    on the direction, and relation fits absorb any constant rescaling.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return q[..., 1] * p[..., 2] - q[..., 2] * p[..., 1]


def euler_integral(q: np.ndarray, p: np.ndarray, prob: Problem) -> float | np.ndarray:
    """The nontrivial quadratic first integral of the two-center problem.

    Uses c = (a, 0, 0).  Conservation along numerically integrated
    trajectories is verified by the test suite rather than assumed.
    """
    return first_integrals(q, p, prob)[2]


def kepler_limit_residual(
    q: np.ndarray, p: np.ndarray, prob: Problem, a_small: float
) -> float | np.ndarray:
    """|E(a_small) - |q x p|^2|, the defect of the merged-centers limit.

    As the centers merge the Euler integral degenerates to the squared
    angular momentum; the residual is O(a_small).  The first-order slope is
    visible only when the linear term 2 a x (m_minus/d - m_plus/d) does not
    cancel (x != 0 and unequal masses, or a single center off x = 0).
    """
    if not np.isfinite(a_small) or a_small <= 0.0:
        raise InvalidInputError(f"a_small must be positive, got {a_small!r}")
    shrunk = Problem(prob.m_minus, prob.m_plus, a_small)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    lx, ly, lz = _angular_momentum(*columns(q, 3, "q"), *columns(p, 3, "p"))
    return np.abs(euler_integral(q, p, shrunk) - (lx * lx + ly * ly + lz * lz))


def rotate_about_axis(v: np.ndarray, angle: float) -> np.ndarray:
    """Right-handed rotation of 3-vectors about the centers (x) axis."""
    v = np.asarray(v, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(v)
    out[..., 0] = v[..., 0]
    out[..., 1] = c * v[..., 1] - s * v[..., 2]
    out[..., 2] = s * v[..., 1] + c * v[..., 2]
    return out
