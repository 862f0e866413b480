"""Projected dynamics on the ellipsoid.

A planar trajectory q(t) on the slice w = 1 is pushed through the central
projection and a time change dtau/dt = W(t)^2, where W is the height of
the projected point.  The resulting curve Q(tau) obeys an intrinsic
second-order ODE on the ellipsoid whose tangential part does not depend on
the velocity, and it conserves the "ellipsoidal energy"

    G = |Q'|_*^2 - (2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2),
    u_j = (c_j . Q) / sqrt(1+a^2),  c_- = (-a, 0, 0, 1),  c_+ = (a, 0, 0, 1).

On the ellipsoid 1 - u_j^2 = d_j^2/(1+a^2), d_j = |Q - W c_j| the distance
to the scaled center (-+a W, 0, 0), so the code evaluates, with the
distances and the collision guard of ``INTRINSIC_RHS`` and no cancellation,

    G = |Q'|_*^2 - (2/(1+a^2)) [m_- (W - a X)/d_- + m_+ (W + a X)/d_+].

At every phase point, whatever the masses, G = (2J + E)/(1+a^2) -
a^2 Theta^2/(1+a^2)^2 in the planar first integrals (J + E/2 - Theta^2/4
for a = 1; :func:`relation_coefficients`): the templates ``INTEGRALS``,
``LIFT`` and ``ENERGY`` evaluated in turn give (J, E, Theta^2, G).  The test
suite proves this symbolically; :func:`fit_integral_relation` recovers it
independently.

A projected state is held only as the (..., 4) arrays (Q, Q') that
:func:`lift_arrays` makes from a planar (q, p).  That loses nothing: the
projection maps the slice one-to-one onto the W > 0 sheet, and its
differential maps velocities onto the tangent space, so every state on the
ellipsoid is the lift of exactly one (q, p), the template ``geometry.LIFT``.
The intrinsic ODE is the template ``INTRINSIC_RHS``; G is the template
``ENERGY``, which shares its distance, guard and |Q'|_*^2 lines.  All are
evaluated on numpy columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codegen import RhsTemplate, compile_columns
from .dynamics import CENTER_DISTANCE_LINES, CENTER_GUARD, INTEGRALS, PLANAR_RHS, Problem
from .errors import InvalidInputError, RankDeficientError
from .geometry import LIFT, STAR, check_count, check_grid, pair_columns, star
from .sampling import make_rng, sample_phase_points

# Finite-difference step in t of the oracle for the tangential field, and the
# number of velocities its spread is taken over; at this step the spread stays
# at differencing-error level, below verify.TOL_INDEPENDENCE.
_FD_STEP = 1e-5
_INDEPENDENCE_VELOCITIES = 10

_ROWS = 16384  # rows per block of the relation residual and per chunk of the fit's draw: temporaries stay in L2


@dataclass(frozen=True)
class IntegralRelation:
    """Coefficients of G = l_J J + l_E E + l_T2 Theta^2 + l_0 and the fit residual."""

    lambda_J: float
    lambda_E: float
    lambda_theta2: float
    lambda_0: float
    max_residual: float


def lift_arrays(q: np.ndarray, p: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Batched projection and tau-velocity: Q = q/|q|_*, Q' = qdot |q|_* - q (Q, qdot)_*.

    ``q`` and ``p`` have shape (..., 3) and stand for (q, 1) and (p, 0)
    of R^4; returns (Q, Q') with shape (..., 4).  A q whose |(q, 1)|_*
    overflows raises :class:`InvalidInputError`, naming the first such q:
    the column form of ``LIFT``.
    """
    lifted = compile_columns(LIFT)(*pair_columns(q, p), prob)
    return np.stack(lifted[:4], axis=-1), np.stack(lifted[4:], axis=-1)


# The one near-center rule of the ellipsoid templates, at the scaled centers (+-a W, 0, 0).
SCALED_CENTER_GUARD = CENTER_GUARD._replace(lines="aw = a * w\n" + CENTER_DISTANCE_LINES.format(c="aw"),
                                            message="ellipsoid point within {guard:g} of a scaled center")

# A state (Q, Q') of the ellipsoid templates, and |Q'|_*^2 on it.
_STATE = ("x", "y", "z", "w", "xp", "yp", "zp", "wp")
_SPEED2 = f"speed2 = {star(_STATE[4:], _STATE[4:])}"

# The intrinsic right-hand side, [Q, Q'] -> [Q', Q''], as a template (see codegen):
#
#     Q'' = F(Q) - ((Q, F)_* + |Q'|_*^2) / (Q, Q)_* Q,
#     F(Q) = sum_j m_j c_j / |Q - c_j W|^3,
#
# with Euclidean distances and c_j = (+-a, 0, 0, 1).  At Q' = 0 it is the
# velocity-independent tangential field; the normal term is forced by
# differentiating the tangency constraint (Q, Q')_* = 0.  Stage values of an
# explicit step are not exactly on the ellipsoid, so the projector and the
# normal closure divide by (Q, Q)_* instead of assuming it is one.
INTRINSIC_RHS = RhsTemplate(
    name="ellipsoid",
    state=_STATE,
    params=("a", "m_minus", "m_plus", "wyz", "guard"),
    guard=SCALED_CENTER_GUARD,
    body=f"""\
s_minus = m_minus / (d2_minus * d_minus)
s_plus = m_plus / (d2_plus * d_plus)
f_x = a * s_plus - a * s_minus
f_w = s_minus + s_plus
qq = {star(_STATE[:4], _STATE[:4])}
{_SPEED2}
c = (x * f_x + w * f_w + speed2) / qq
nc = -c""",
    derivative=("xp", "yp", "zp", "wp", "f_x - c * x", "nc * y", "nc * z", "f_w - c * w"),
)

# G of a state (Q, Q'), on the distances, the guard and the |Q'|_*^2 of
# ``INTRINSIC_RHS``; :func:`energy_arrays` is its column form.
ENERGY = RhsTemplate(
    name="G",
    state=INTRINSIC_RHS.state,
    params=INTRINSIC_RHS.params,
    guard=SCALED_CENTER_GUARD,
    body=_SPEED2 + "\nax = a * x",
    derivative=("speed2 - (2.0 / (1.0 + a * a)) * (m_minus * (w - ax) / d_minus + m_plus * (w + ax) / d_plus)",),
)


def energy_arrays(big_q: np.ndarray, qp: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Batched ellipsoidal energy G of points Q and tau-velocities Q' of shape (..., 4);
    a Q within ``COLLISION_GUARD`` of a scaled center raises :class:`NearCollisionError`."""
    return compile_columns(ENERGY)(*pair_columns(big_q, qp, 4, ("Q", "Q'")), prob)[0]


def relation_coefficients(a: float) -> tuple[float, float, float, float]:
    """(l_J, l_E, l_T2, l_0) = (2/(1+a^2), 1/(1+a^2), -a^2/(1+a^2)^2, 0) of
    G = l_J J + l_E E + l_T2 Theta^2 + l_0; exactly (1, 1/2, -1/4, 0) at a = 1."""
    s = 1.0 + a * a
    return 2.0 / s, 1.0 / s, -(a * a) / (s * s), 0.0


def _relation(prob: Problem, x, y, z, px, py, pz) -> tuple:
    """(J, E, Theta^2, G) on the planar columns (q, p): ``INTEGRALS``, then ``ENERGY``
    at their lift ``LIFT``, each refusing under its guard in that order.  The fit's
    columns, and the residual's terms in :func:`relation_coefficients`."""
    j, theta, e = compile_columns(INTEGRALS)(x, y, z, px, py, pz, prob)
    g, = compile_columns(ENERGY)(*compile_columns(LIFT)(x, y, z, px, py, pz, prob), prob)
    return j, e, theta * theta, g


def relation_residual(q: np.ndarray, p: np.ndarray, prob: Problem) -> float | np.ndarray:
    """G(lift(q, p)) - (l_J J + l_E E + l_T2 Theta^2), zero up to roundoff, in the
    coefficients of :func:`relation_coefficients`; a numpy float for one point.

    q and p of any shapes that broadcast are checked finite whole, then go
    through ``INTEGRALS``, ``LIFT`` and ``ENERGY`` a block of ``_ROWS`` rows
    at a time, copied column-major so that the temporaries stay in cache:
    bit-identical to one pass, with each block's refusals in that order.  A
    residual that overflows (E grows as a^2 p^2) reads inf or nan, without a
    numpy warning."""
    pair_columns(q, p)  # validates q and p
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    lam_j, lam_e, lam_t2, _ = relation_coefficients(prob.a)
    out = np.empty(q.shape[:-1])
    q, p, flat = q.reshape(-1, 3), p.reshape(-1, 3), out.reshape(-1)
    for start in range(0, len(flat), _ROWS):
        rows = slice(start, start + _ROWS)
        j, e, theta2, g = _relation(prob, *np.asfortranarray(q[rows]).T, *np.asfortranarray(p[rows]).T)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
            flat[rows] = g - (lam_j * j + lam_e * e + lam_t2 * theta2)
        del j, e, theta2, g  # not held while the next block runs
    return out if out.ndim else out[()]


def fit_integral_relation(prob: Problem, sample_count: int, seed: int = 0) -> IntegralRelation:
    """Least-squares recovery of G as an affine combination of (J, E, Theta^2, 1).

    Independent cross-check of :func:`relation_coefficients`: the fit
    residual sits at roundoff and the coefficients match the closed form to
    about 1e-13 at unit masses.  The sample is drawn from one seeded stream
    in chunks of ``_ROWS`` points, so a fit of at most ``_ROWS`` points draws
    it with one ``sample_phase_points`` call.  Each chunk is checked and
    copied column-major, as in :func:`relation_residual`; its rows
    [J, E, Theta^2, 1, G] are reduced to their 5 x 5 QR factor, its
    [J, E, Theta^2, G] are kept for the residual, 32 B per point, and the
    rest is freed before the next draw; no array has the sample's length.
    The stacked factors have the singular values of the whole design; they
    are solved with each column scaled by its largest magnitude, so the fit
    keeps full rank at any mass.  G carries roundoff of about mass x 1e-16,
    which bounds how well l_T2 and l_0 (columns of size one) can be
    recovered.  A rank-deficient draw raises :class:`RankDeficientError`; a
    draw whose rows overflow (E grows as a^2 p^2) is refused once every
    chunk has passed the guards.
    """
    sample_count = check_count(sample_count, "sample_count", 8)
    rng = make_rng(seed)
    # kept holds each chunk's rows [J, E, Theta^2, G] for the residual, one array per
    # chunk: one (n, 4) array, freed by every fit, at times left glibc's heap that much larger
    factors, kept = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        for start in range(0, sample_count, _ROWS):
            q, p = sample_phase_points(prob, min(_ROWS, sample_count - start), rng)
            pair_columns(q, p)  # checks the chunk
            q, p = np.asfortranarray(q), np.asfortranarray(p)  # the C-ordered draw is freed here
            j, e, theta2, g = _relation(prob, *q.T, *p.T)
            block = np.stack((j, e, theta2, np.ones_like(j), g), axis=-1)
            # an overflowing block is refused after the loop, so that a guard row in a later one wins
            factors.append(np.linalg.qr(block, mode="r") if np.isfinite(block).all() else np.full((1, 5), np.inf))
            kept.append(np.stack((j, e, theta2, g), axis=-1))
            del q, p, j, e, theta2, g, block  # not held while the next chunk is drawn
        r = np.concatenate(factors)
        if not np.isfinite(r).all():
            raise InvalidInputError(f"(J, E, Theta^2) or G overflows on the fit's sample of {prob}")
        # unscaled, the J and E of large masses push Theta^2 and 1 below the rank
        # cut-off, which is lstsq's own for the whole (n, 4) design: eps * n
        scale = np.abs(r[:, :4]).max(axis=0)
        scale[scale == 0.0] = 1.0  # a zero column (Theta = 0 throughout) stays zero: rank 3
        coeffs, _, rank, _ = np.linalg.lstsq(r[:, :4] / scale, r[:, 4], rcond=np.finfo(float).eps * sample_count)
        if rank < 4:
            raise RankDeficientError(f"the fit's sample of {sample_count} points is rank deficient (rank {rank} of 4)")
        coeffs /= scale
        residual = max(float(np.max(np.abs(rows[:, :3] @ coeffs[:3] + coeffs[3] - rows[:, 3]))) for rows in kept)
    return IntegralRelation(*map(float, coeffs), residual)


# The velocity half of ``LIFT`` on its own lines, unguarded: the states that the oracle's RK4
# step makes are its own, so where one overflows |(q, 1)|_* its Q' reads inf or NaN.
_STEP_LIFT = RhsTemplate("lift of a step", LIFT.state, LIFT.params, LIFT.guard.lines + "\n" + LIFT.body,
                         LIFT.derivative[4:])


def fd_tangential_acceleration(q: np.ndarray, p: np.ndarray, prob: Problem) -> np.ndarray:
    """Tangential Q'' obtained by differencing the lifted planar flow.

    Independent oracle for the tangential field, ``INTRINSIC_RHS`` at
    Q' = 0: the planar system is advanced by +-``_FD_STEP`` with single
    classical RK4 steps (local error O(h^5)) on the column form of
    ``PLANAR_RHS``, the lifted velocities are centrally differenced in t, and
    the chain rule dtau/dt = W^2, the height of the projected Q, converts to
    the intrinsic time.  Batched over (..., 3) states, each bit-identical to
    evaluating it alone.  It refuses the caller's q and p as
    :func:`lift_arrays` does, and a state within ``COLLISION_GUARD`` of a
    center by the guard of ``PLANAR_RHS``; its own states go unchecked to the
    column forms, so an overflow (masses of about 1e163 and up) reads inf or
    NaN, without a warning.
    """
    state = pair_columns(q, p)
    big_q = compile_columns(LIFT)(*state, prob)[:4]
    rhs, velocities = compile_columns(PLANAR_RHS), []
    with np.errstate(over="ignore", invalid="ignore"):
        for h in (_FD_STEP, -_FD_STEP):
            k1 = rhs(*state, prob)
            k2 = rhs(*(y + 0.5 * h * k for y, k in zip(state, k1)), prob)
            k3 = rhs(*(y + 0.5 * h * k for y, k in zip(state, k2)), prob)
            k4 = rhs(*(y + h * k for y, k in zip(state, k3)), prob)
            stepped = (y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4))
            velocities.append(compile_columns(_STEP_LIFT)(*stepped, prob))
        divisor = 2.0 * _FD_STEP * (big_q[3] * big_q[3])  # the t span, and dtau/dt = W^2
        qpp = [(fwd - bwd) / divisor for fwd, bwd in zip(*velocities)]
        radial = compile_columns(STAR)(*big_q, *qpp, prob)[0]
        return np.stack([u - radial * v for u, v in zip(qpp, big_q)], axis=-1)


def velocity_independence_residual(q3: np.ndarray, prob: Problem, seed: int = 0) -> float:
    """Max pairwise spread of the differenced tangential Q'' over velocities.

    Lifts ``_INDEPENDENCE_VELOCITIES`` planar states at the position ``q3``
    with random velocities, so all through the same projected point, and
    measures how much the finite-differenced tangential acceleration varies;
    the theorem says it should not, so the spread stays at differencing-error
    level; an overflow (masses of about 1e100 and up) reads inf or NaN.
    """
    q3 = np.asarray(q3, dtype=float)
    if q3.shape != (3,):
        raise InvalidInputError(f"q3 must have shape (3,), got {q3.shape}")
    rng = make_rng(seed)
    velocities = rng.normal(0.0, 1.0, size=(_INDEPENDENCE_VELOCITIES, 3))
    accs = fd_tangential_acceleration(np.broadcast_to(q3, velocities.shape), velocities, prob)
    with np.errstate(over="ignore", invalid="ignore"):
        differences = np.moveaxis(accs[:, None] - accs[None], -1, 0)  # unchecked, as the oracle's own values
    return float(np.max(np.sqrt(compile_columns(STAR)(*differences, *differences, prob)[0])))


# The tau rate g = dtau/dt = 1/|(q, 1)|_*^2 on the n2 of ``LIFT``, refused on overflow in the
# quadrature's words, and its t rate dg/dt = -2 ((q, 1), (p, 0))_* g^2 for p = dq/dt.
_TAU_RATE = RhsTemplate("tau rate", LIFT.state, LIFT.params, "",
                        ("1.0 / n2", "-2.0 * (x * px + wyz * (y * py + z * pz)) / (n2 * n2)"),
                        LIFT.guard._replace(message="|q|_*^2 overflows on the grid"))


def reparametrize_time(times: np.ndarray, q: np.ndarray, p: np.ndarray, prob: Problem) -> np.ndarray:
    """Map the t grid of a planar trajectory to the intrinsic time tau.

    ``times`` is a t grid (``geometry.check_grid``) and ``q``, ``p`` the (N, 3)
    positions and velocities dq/dt on it (``geometry.pair_columns``).  tau(t) = integral of
    W(s)^2 ds with W = 1/|q(s)|_*, evaluated by the derivative-corrected
    trapezoid rule (two-point Hermite quadrature, fourth order on smooth
    data) on W^2 and its t rate, the column form of ``_TAU_RATE``.  Returns
    tau at the nodes; strictly increasing, and tau(t) <= t because |q|_* >= 1
    on the slice.  A step whose tau increment exceeds its t step breaks that
    bound, which happens only when p is not dq/dt (the derivative term grows
    with p): it raises, naming the first such row.
    """
    times = check_grid(times)
    for name, values in (("q", q), ("p", p)):
        if np.shape(values) != (len(times), 3):
            raise InvalidInputError(f"{name} must have shape ({len(times)}, 3), got {np.shape(values)}")
    g, gdot = compile_columns(_TAU_RATE)(*pair_columns(q, p), prob)
    h = np.diff(times)
    with np.errstate(over="ignore", invalid="ignore"):
        dtau = 0.5 * h * (g[:-1] + g[1:]) + (h * h / 12.0) * (gdot[:-1] - gdot[1:])
    if not np.all(np.isfinite(dtau) & (dtau > 0.0)):
        raise InvalidInputError("quadrature produced a nonincreasing or non-finite tau grid")
    longer = np.flatnonzero(dtau > h)
    if len(longer):
        row = longer[0] + 1
        raise InvalidInputError(
            f"tau step to row {row} (t = {float(times[row])!r}) exceeds its t step: p is not dq/dt on the grid"
        )
    tau = np.empty_like(times)
    tau[0] = 0.0
    np.cumsum(dtau, out=tau[1:])
    return tau
