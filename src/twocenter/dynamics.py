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

from dataclasses import dataclass, field

import numpy as np

from .codegen import RhsTemplate, compile_kernel
from .errors import InvalidInputError, NearCollisionError
from .geometry import check_finite, columns, pair_columns

# Evaluations closer to a center than this are refused instead of blowing up.
COLLISION_GUARD = 1e-8


@dataclass(frozen=True)
class Problem:
    """Masses and half-distance of the two fixed centers.

    a also fixes the ellipsoid: the unit set of the norm with ``weights``
    (1, wyz, wyz, 1), wyz = 1/(1+a^2), so (1, 1/2, 1/2, 1) at a = 1.
    ``wyz`` is a Python float, as the kernels need."""

    m_minus: float = 1.0
    m_plus: float = 1.0
    a: float = 1.0
    wyz: float = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m_minus", "m_plus", "a"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.m_minus < 0.0 or self.m_plus < 0.0:
            raise InvalidInputError("masses must be nonnegative")
        a = self.a
        if a <= 0.0:
            raise InvalidInputError(f"half-distance a must be positive, got {a!r}")
        if not np.isfinite(1.0 + a * a):  # above about 1.34e154 the norm would lose y and z
            raise InvalidInputError(f"half-distance a must keep 1 + a^2 finite, got {a!r}")
        wyz = 1.0 / (1.0 + a * a)
        object.__setattr__(self, "wyz", wyz)
        object.__setattr__(self, "weights", np.array([1.0, wyz, wyz, 1.0]))

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


def rhs_params(prob: Problem) -> dict[str, float]:
    """The constants of the right-hand-side templates for ``prob``, by name.

    Each system template lists all of these names as its ``params``, read or
    not, so this one dict binds every kernel and generated run.  The values
    are Python floats: a numpy scalar would slow every stage.
    ``COLLISION_GUARD`` is read here, at call time.
    """
    return {"a": prob.a, "m_minus": prob.m_minus, "m_plus": prob.m_plus,
            "wyz": prob.wyz, "guard": COLLISION_GUARD}


def kernel(template: RhsTemplate, prob: Problem):
    """``rhs(state)``: ``template`` compiled (once, see codegen) and bound to
    ``prob``; it maps a sequence of floats to the tuple of derivative components."""
    return compile_kernel(template)(**rhs_params(prob))


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


def distance_columns(x, y, z, a):
    """(d_minus, d_plus), the distances to (-a, 0, 0) and (a, 0, 0), from
    coordinate columns, with no check.

    The sums run left to right, the order numpy reduces a length-3 last
    axis in, so the result is bit-identical to the (..., 3) form.  ``a`` may
    be a column too: with a W it gives the distances of a point Q of the
    ellipsoid to the scaled centers (+-a W, 0, 0), as ``INTRINSIC_RHS`` does.
    """
    yy = y * y
    zz = z * z
    x_minus = x + a
    x_plus = x - a
    return np.sqrt(x_minus * x_minus + yy + zz), np.sqrt(x_plus * x_plus + yy + zz)


def center_distances(q: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distances (d_minus, d_plus) to the two centers, batched."""
    return distance_columns(*columns(np.asarray(q, dtype=float), 3, "q"), prob.a)


def check_guard(d_minus, d_plus) -> None:
    """The one near-center rule: refuse any distance below ``COLLISION_GUARD``."""
    if np.any(d_minus < COLLISION_GUARD) or np.any(d_plus < COLLISION_GUARD):
        raise NearCollisionError(
            f"point within {COLLISION_GUARD:g} of an attracting center"
        )


def acceleration(q: np.ndarray, prob: Problem) -> np.ndarray:
    """Right-hand side of the two-center ODE, -sum_j m_j (q - c_j)/|q - c_j|^3."""
    q = np.asarray(q, dtype=float)
    check_finite(q, "q")
    d_minus, d_plus = center_distances(q, prob)
    check_guard(d_minus, d_plus)
    # float_power is libm's pow on every element, as ``**`` is for one point;
    # ``**`` on an array may take a SIMD pow that differs in the last bit.
    acc = -prob.m_minus * (q - prob.center_minus) / np.expand_dims(np.float_power(d_minus, 3), -1)
    acc -= prob.m_plus * (q - prob.center_plus) / np.expand_dims(np.float_power(d_plus, 3), -1)
    return acc


# The planar right-hand side, (q, p) -> (p, acceleration): :func:`acceleration`
# for one point, with the same collision guard, as a template (see codegen).
# It checks no finiteness: ``PhasePoint`` refuses a non-finite start, and a
# non-finite derivative at any stage makes the step's error estimate
# non-finite, so the integrator rejects the step.  It leaves ``wyz`` unread.
PLANAR_RHS = RhsTemplate(
    name="planar t",
    state=("x", "y", "z", "px", "py", "pz"),
    params=("a", "m_minus", "m_plus", "wyz", "guard"),
    body="""\
x_minus = x + a
x_plus = x - a
yy = y * y
zz = z * z
d2_minus = x_minus * x_minus + yy + zz
d2_plus = x_plus * x_plus + yy + zz
d_minus = sqrt(d2_minus)
d_plus = sqrt(d2_plus)
if d_minus < guard or d_plus < guard:
    raise NearCollisionError(f"point within {guard:g} of an attracting center")
k_minus = m_minus / (d2_minus * d_minus)
k_plus = m_plus / (d2_plus * d_plus)
nk_minus = -k_minus""",
    derivative=(
        "px",
        "py",
        "pz",
        "nk_minus * x_minus - k_plus * x_plus",
        "nk_minus * y - k_plus * y",
        "nk_minus * z - k_plus * z",
    ),
)

# The same orbit in the intrinsic time, dtau/dt = 1/|q|_*^2, with p still
# dq/dt: every component times |q|_*^2.
PLANAR_TAU_RHS = RhsTemplate(
    name="planar tau",
    state=PLANAR_RHS.state,
    params=PLANAR_RHS.params,
    body=PLANAR_RHS.body + "\nn2 = x * x + wyz * y * y + wyz * z * z + 1.0",
    derivative=tuple(f"n2 * ({expr})" for expr in PLANAR_RHS.derivative),
)


def first_integrals(q: np.ndarray, p: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, Theta, E) at once, batched over leading axes.

    q and p are validated once, and the collision guard is applied once to
    the pair of center distances :func:`integral_columns` then reads;
    :func:`hamiltonian` and :func:`euler_integral` are views of this.
    """
    x, y, z, px, py, pz = pair_columns(q, p)
    d_minus, d_plus = distance_columns(x, y, z, prob.a)
    check_guard(d_minus, d_plus)
    return integral_columns(x, y, z, px, py, pz, d_minus, d_plus, prob)


def integral_columns(x, y, z, px, py, pz, d_minus, d_plus, prob: Problem):
    """(J, Theta, E) of trusted columns of (q, p) and their center distances,
    unchecked.  Each expression keeps the operation order of the (..., 3)
    reductions and ``np.cross`` it replaces, so the values are bit-identical."""
    a = prob.a
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
    _, y, z, _, py, pz = pair_columns(q, p)
    return y * pz - z * py


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
    lx, ly, lz = _angular_momentum(*pair_columns(q, p))
    return np.abs(euler_integral(q, p, shrunk) - (lx * lx + ly * ly + lz * lz))


def rotate_about_axis(v: np.ndarray, angle: float) -> np.ndarray:
    """Right-handed rotation of 3-vectors about the centers (x) axis."""
    x, y, z = columns(np.asarray(v, dtype=float), 3, "v")
    c, s = np.cos(angle), np.sin(angle)
    return np.stack((x, c * y - s * z, s * y + c * z), axis=-1)
