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

from .codegen import Guard, RhsTemplate, compile_columns, compile_kernel
from .errors import InvalidInputError, NearCollisionError
from .geometry import LIFT, check_finite, check_number, columns, pair_columns

# Evaluations closer to a center than this are refused instead of blowing up.
COLLISION_GUARD = 1e-8


@dataclass(frozen=True)
class Problem:
    """Masses and half-distance of the two fixed centers.

    a also fixes the ellipsoid: the unit set of the norm with weights
    (1, wyz, wyz, 1), wyz = 1/(1+a^2), so (1, 1/2, 1/2, 1) at a = 1
    (``geometry.star``).  ``wyz`` is a Python float, as the kernels need."""

    m_minus: float = 1.0
    m_plus: float = 1.0
    a: float = 1.0
    wyz: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("m_minus", "m_plus", "a"):  # masses may vanish, a may not
            object.__setattr__(self, name, check_number(getattr(self, name), name, closed=name != "a"))
        a = self.a
        if not np.isfinite(1.0 + a * a):  # above about 1.34e154 the norm would lose y and z
            raise InvalidInputError(f"half-distance a must keep 1 + a^2 finite, got {a!r}")
        object.__setattr__(self, "wyz", 1.0 / (1.0 + a * a))

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


def on_columns(template: RhsTemplate, prob: Problem, *state) -> tuple:
    """The outputs of ``template``'s column form (see codegen) for ``prob`` on numpy
    columns ``state``, unchecked but for the template's guard."""
    return compile_columns(template)(*state, **rhs_params(prob))


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


# Template lines that assign d_minus and d_plus, the distances of (x, y, z) to (-c, 0, 0)
# and (c, 0, 0) (``.format(c=...)``), summed left to right as numpy reduces a last axis.
CENTER_DISTANCE_LINES = """\
x_minus = x + {c}
x_plus = x - {c}
yy = y * y
zz = z * z
d2_minus = x_minus * x_minus + yy + zz
d2_plus = x_plus * x_plus + yy + zz
d_minus = sqrt(d2_minus)
d_plus = sqrt(d2_plus)"""

# The one near-center rule of the planar templates, at ``COLLISION_GUARD``.
CENTER_GUARD = Guard(CENTER_DISTANCE_LINES.format(c="a"), "d_minus < guard or d_plus < guard",
                     NearCollisionError, "point within {guard:g} of an attracting center")

# The planar right-hand side, (q, p) -> (p, acceleration), as a template (see
# codegen); :func:`acceleration` is its column form.  It checks no
# finiteness: ``PhasePoint`` refuses a non-finite start, and a non-finite
# derivative at any stage makes the step's error estimate non-finite, so the
# integrator rejects the step.  It leaves ``wyz`` unread.
PLANAR_RHS = RhsTemplate(
    name="planar t",
    state=("x", "y", "z", "px", "py", "pz"),
    params=("a", "m_minus", "m_plus", "wyz", "guard"),
    guard=CENTER_GUARD,
    body="""\
k_minus = m_minus / (d2_minus * d_minus)
k_plus = m_plus / (d2_plus * d_plus)
nk_minus = -k_minus""",
    derivative=("px", "py", "pz",
                "nk_minus * x_minus - k_plus * x_plus", "nk_minus * y - k_plus * y", "nk_minus * z - k_plus * z"),
)

# The same orbit in the intrinsic time, dtau/dt = 1/|q|_*^2, with p still
# dq/dt: every component times |q|_*^2, the n2 of ``LIFT``.
PLANAR_TAU_RHS = RhsTemplate(
    name="planar tau",
    state=PLANAR_RHS.state,
    params=PLANAR_RHS.params,
    guard=CENTER_GUARD,
    body=PLANAR_RHS.body + "\n" + LIFT.guard.lines,
    derivative=tuple(f"n2 * ({expr})" for expr in PLANAR_RHS.derivative),
)

# q x p in np.cross's operation order; its x component is Theta.
_ANGULAR_MOMENTUM = RhsTemplate("q x p", PLANAR_RHS.state, (), """\
theta = y * pz - z * py
ly = z * px - x * pz
lz = x * py - y * px""", ("theta", "ly", "lz"))

# (J, Theta, E) of a planar state, on the distances and under the guard of
# ``PLANAR_RHS``; :func:`first_integrals` is its column form.
INTEGRALS = RhsTemplate(
    name="J, Theta, E",
    state=PLANAR_RHS.state,
    params=PLANAR_RHS.params,
    guard=CENTER_GUARD,
    body=_ANGULAR_MOMENTUM.body + """
u_minus = m_minus / d_minus
u_plus = m_plus / d_plus
apx = a * px""",
    derivative=("0.5 * (px * px + py * py + pz * pz) - u_minus - u_plus", "theta",
                "theta * theta + ly * ly + lz * lz + apx * apx + 2.0 * a * x * (u_minus - u_plus)"),
)

# The Euclidean distances (d_minus, d_plus) of (x, y, z) to the two centers, unguarded.
CENTER_DISTANCES = RhsTemplate("center distances", ("x", "y", "z"), PLANAR_RHS.params, CENTER_GUARD.lines,
                               ("d_minus", "d_plus"))


def acceleration(q: np.ndarray, prob: Problem) -> np.ndarray:
    """Right-hand side of the two-center ODE, -sum_j m_j (q - c_j)/|q - c_j|^3:
    the column form of ``PLANAR_RHS``, so each row gives the scalar kernel's bits."""
    return np.stack(on_columns(PLANAR_RHS, prob, *columns(q, 3, "q"), 0.0, 0.0, 0.0)[3:], axis=-1)


def first_integrals(q: np.ndarray, p: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, Theta, E) at once, batched over leading axes: the column form of
    ``INTEGRALS`` after one validation of q and p."""
    return on_columns(INTEGRALS, prob, *pair_columns(q, p))


def axial_angular_momentum(q: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """Angular-momentum component along the centers axis, (q x p)_x.

    The unit axis direction is used for every a; conservation only depends
    on the direction, and relation fits absorb any constant rescaling.
    """
    return compile_columns(_ANGULAR_MOMENTUM)(*pair_columns(q, p))[0]


def kepler_limit_residual(q: np.ndarray, p: np.ndarray, prob: Problem, a_small: float) -> float | np.ndarray:
    """|E(a_small) - |q x p|^2|, the defect of the merged-centers limit.

    As the centers merge the Euler integral degenerates to the squared
    angular momentum; the residual is O(a_small).  The first-order slope is
    visible only when the linear term 2 a x (m_minus/d - m_plus/d) does not
    cancel (x != 0 and unequal masses, or a single center off x = 0).
    """
    shrunk = Problem(prob.m_minus, prob.m_plus, check_number(a_small, "a_small"))
    lx, ly, lz = compile_columns(_ANGULAR_MOMENTUM)(*pair_columns(q, p))
    return np.abs(first_integrals(q, p, shrunk)[2] - (lx * lx + ly * ly + lz * lz))
