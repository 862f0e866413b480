"""Projected dynamics on the ellipsoid.

A planar trajectory q(t) on the slice w = 1 is pushed through the central
projection and a time change dtau/dt = W(t)^2, where W is the height of
the projected point.  The resulting curve Q(tau) obeys an intrinsic
second-order ODE on the ellipsoid whose tangential part does not depend on
the velocity, and it conserves the "ellipsoidal energy"

    G = |Q'|_*^2 - (2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2),
    u_j = (c_j . Q) / sqrt(1+a^2),  c_j = (+-a, 0, 0, 1).

For a = 1 this coincides pointwise with J + E/2 - Theta^2/4 in the planar
first integrals; for general a the affine combination is recovered
numerically by least squares (:func:`fit_integral_relation`).  The
coefficient 2/(1+a^2) above is not taken on faith: the test suite checks
conservation of G along intrinsic trajectories for several a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import COLLISION_GUARD, Problem, acceleration, first_integrals
from .errors import (
    CenterRayError,
    InvalidInputError,
    NearCollisionError,
    RankDeficientError,
    UnsupportedParameterError,
)
from .geometry import (
    EllipsoidPoint,
    StarMetric,
    check_finite,
    columns,
    embed,
    star_inner,
    star_norm,
    unproject,
)
from .sampling import make_rng, sample_phase_points

# Admission tolerance on the tangency constraint of ellipsoid states.
TANGENCY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EllipsoidState:
    """Point on the ellipsoid together with its tau-velocity.

    The velocity must be star-orthogonal to the point (|(Q, Q')_*| within
    ``TANGENCY_TOL``); lifted planar states satisfy this identically.
    """

    point: EllipsoidPoint
    velocity: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (4,):
            raise InvalidInputError(f"velocity must have shape (4,), got {v.shape}")
        check_finite(v, "velocity")
        tangency = float(star_inner(self.point.vec, v, self.point.metric))
        if abs(tangency) > TANGENCY_TOL:
            raise InvalidInputError(
                f"|(Q, Q')_*| = {abs(tangency):.3e} exceeds {TANGENCY_TOL:g}"
            )
        object.__setattr__(self, "velocity", v)

    @property
    def metric(self) -> StarMetric:
        return self.point.metric


@dataclass(frozen=True)
class IntegralRelation:
    """Coefficients of G = l_J J + l_E E + l_T2 Theta^2 + l_0 and the fit residual."""

    lambda_J: float
    lambda_E: float
    lambda_theta2: float
    lambda_0: float
    max_residual: float


def _lift_columns(x, y, z, px, py, pz, wyz):
    """Column form of the lift: ((Q_x, Q_y, Q_z, Q_w), (Q'_x, Q'_y, Q'_z, Q'_w)).

    The sums keep the left-to-right order of the weighted (..., 4)
    reductions ``star_norm``/``star_inner`` on the embedded (q, 1) and
    (p, 0), so the values are bit-identical to them.  The "+ 0.0" is the W
    term Q_w * 0 of that sum: it turns a radial part of -0.0 into +0.0.
    """
    n = np.sqrt(x * x + wyz * y * y + wyz * z * z + 1.0)
    big_q = (x / n, y / n, z / n, 1.0 / n)
    qx, qy, qz, _ = big_q
    radial = qx * px + wyz * qy * py + wyz * qz * pz + 0.0
    return big_q, (px * n - x * radial, py * n - y * radial, pz * n - z * radial, 0.0 - radial)


def lift_arrays(
    q: np.ndarray, p: np.ndarray, metric: StarMetric
) -> tuple[np.ndarray, np.ndarray]:
    """Batched projection and tau-velocity: Q = q/|q|_*, Q' = qdot |q|_* - q (Q, qdot)_*.

    ``q`` and ``p`` have shape (..., 3) and are embedded as (q, 1) and
    (p, 0); returns (Q, Q') with shape (..., 4).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    x, y, z = columns(q, 3, "q")
    px, py, pz = columns(p, 3, "p")
    check_finite(q, "q")
    check_finite(p, "p")
    big_q, qp = _lift_columns(x, y, z, px, py, pz, metric.weights[1])
    return np.stack(big_q, axis=-1), np.stack(qp, axis=-1)


def lift_velocity(q: np.ndarray, p: np.ndarray, metric: StarMetric) -> EllipsoidState:
    """Lift a planar phase point to the projected point and its tau-velocity."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != (3,) or p.shape != (3,):
        raise InvalidInputError("q and p must have shape (3,)")
    big_q, qp = lift_arrays(q, p, metric)
    return EllipsoidState(EllipsoidPoint(big_q, metric), qp)


def lifted_speed_squared(q: np.ndarray, p: np.ndarray, metric: StarMetric) -> float | np.ndarray:
    """Closed-form |Q'|_*^2 for a = 1, bypassing the lift.

    Expands to xd^2 + yd^2/2 + zd^2/2 + (x yd - y xd)^2/2
    + (y zd - z yd)^2/4 + (z xd - x zd)^2/2.  Only the printed a = 1 form
    is supported; for other a use :func:`lift_velocity`.
    """
    if metric.a != 1.0:
        raise UnsupportedParameterError(
            f"closed-form speed expansion is only available for a = 1, got a = {metric.a}"
        )
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    check_finite(q, "q")
    check_finite(p, "p")
    x, y, z = q[..., 0], q[..., 1], q[..., 2]
    xd, yd, zd = p[..., 0], p[..., 1], p[..., 2]
    return (
        xd**2
        + 0.5 * yd**2
        + 0.5 * zd**2
        + 0.5 * (x * yd - y * xd) ** 2
        + 0.25 * (y * zd - z * yd) ** 2
        + 0.5 * (z * xd - x * zd) ** 2
    )


def _potential(x, w, prob: Problem):
    """-(2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2), u_j = (c_j . Q)/sqrt(1+a^2), from Q_x, Q_w."""
    a = prob.a
    scale = np.sqrt(1.0 + a * a)
    u_minus = (-a * x + w) / scale
    u_plus = (a * x + w) / scale
    uu_minus = u_minus * u_minus
    uu_plus = u_plus * u_plus
    if np.any(uu_minus >= 1.0) or np.any(uu_plus >= 1.0):
        raise CenterRayError("point lies on a projection ray of an attracting center")
    coeff = 2.0 / (1.0 + a * a)
    return -coeff * (
        prob.m_minus * u_minus / np.sqrt(1.0 - uu_minus)
        + prob.m_plus * u_plus / np.sqrt(1.0 - uu_plus)
    )


def _potential_arrays(big_q: np.ndarray, prob: Problem) -> float | np.ndarray:
    x, _, _, w = columns(np.asarray(big_q, dtype=float), 4, "Q")
    return _potential(x, w, prob)


def _energy_columns(x, w, qp, prob: Problem):
    """G from the Q_x and Q_w columns and the four Q' columns, summed left to right."""
    xp, yp, zp, wp = qp
    wyz = prob.metric().weights[1]
    return xp * xp + wyz * yp * yp + wyz * zp * zp + wp * wp + _potential(x, w, prob)


def energy_arrays(big_q: np.ndarray, qp: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Batched ellipsoidal energy G of points Q and tau-velocities Q' of shape (..., 4).

    Raises :class:`CenterRayError` for a point on the projection ray of a
    center.
    """
    x, _, _, w = columns(np.asarray(big_q, dtype=float), 4, "Q")
    return _energy_columns(x, w, columns(np.asarray(qp, dtype=float), 4, "Q'"), prob)


def _lifted_energy(q: np.ndarray, p: np.ndarray, prob: Problem) -> np.ndarray:
    """G(lift(q, p)) from validated (..., 3) arrays, without building the (..., 4) ones."""
    (x, _, _, w), qp = _lift_columns(*columns(q, 3, "q"), *columns(p, 3, "p"), prob.metric().weights[1])
    return _energy_columns(x, w, qp, prob)


def ellipsoidal_energy(state: EllipsoidState, prob: Problem) -> float:
    """The conserved energy of the projected motion."""
    _require_matching_a(state.metric, prob)
    return float(energy_arrays(state.point.vec, state.velocity, prob))


def ellipsoid_potential(point: EllipsoidPoint, prob: Problem) -> float:
    """Potential part of the ellipsoidal energy at a point.

    Pulled back through the projection (a = 1) it equals
    m_minus (x-1)/|q + c| - m_plus (x+1)/|q - c| on the slice w = 1.
    """
    _require_matching_a(point.metric, prob)
    return float(_potential_arrays(point.vec, prob))


def _require_matching_a(metric: StarMetric, prob: Problem) -> None:
    if metric.a != prob.a:
        raise InvalidInputError(
            f"metric half-distance {metric.a} does not match problem half-distance {prob.a}"
        )


def intrinsic_kernel(prob: Problem):
    """Plain-float right-hand side of the intrinsic ellipsoid system.

    Returns ``rhs(y)``, which maps y = [Q, Q'] (eight Python floats) to
    [Q', Q''] with

        Q'' = F(Q) - ((Q, F)_* + |Q'|_*^2) / (Q, Q)_* Q,
        F(Q) = sum_j m_j c_j / |Q - c_j W|^3,

    Euclidean distances and c_j = (+-a, 0, 0, 1).  Stage values of an
    explicit step are not exactly on the ellipsoid, so the projector and
    the normal closure divide by (Q, Q)_* instead of assuming it is one.
    Raises :class:`NearCollisionError` within ``COLLISION_GUARD`` of a
    scaled center.
    """
    a, m_minus, m_plus = prob.a, prob.m_minus, prob.m_plus
    wyz = 1.0 / (1.0 + a * a)
    sqrt = math.sqrt

    def rhs(state):
        x, y, z, w, xp, yp, zp, wp = state
        x_minus = x + a * w
        x_plus = x - a * w
        d2_minus = x_minus * x_minus + y * y + z * z
        d2_plus = x_plus * x_plus + y * y + z * z
        d_minus = sqrt(d2_minus)
        d_plus = sqrt(d2_plus)
        if d_minus < COLLISION_GUARD or d_plus < COLLISION_GUARD:
            raise NearCollisionError(f"ellipsoid point within {COLLISION_GUARD:g} of a scaled center")
        s_minus = m_minus / (d2_minus * d_minus)
        s_plus = m_plus / (d2_plus * d_plus)
        f_x = a * s_plus - a * s_minus
        f_w = s_minus + s_plus
        qq = x * x + wyz * y * y + wyz * z * z + w * w
        speed2 = xp * xp + wyz * yp * yp + wyz * zp * zp + wp * wp
        c = (x * f_x + w * f_w + speed2) / qq
        return (xp, yp, zp, wp, f_x - c * x, -c * y, -c * z, f_w - c * w)

    return rhs


def tangential_field(point: EllipsoidPoint, prob: Problem) -> np.ndarray:
    """Velocity-independent tangential part of the projected acceleration.

    Returns P_Q[sum_j m_j c_j / |Q - c_j W|^3] with the star-orthogonal
    tangent projector P_Q v = v - (Q, v)_* Q and Euclidean distances: the
    intrinsic right-hand side at Q' = 0.
    """
    _require_matching_a(point.metric, prob)
    return np.array(intrinsic_kernel(prob)((*point.vec.tolist(), 0.0, 0.0, 0.0, 0.0))[4:])


def intrinsic_rhs(state: EllipsoidState, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """(Q', Q'') of the intrinsic ellipsoid ODE.

    The normal closure Q'' = F_tan(Q) - |Q'|_*^2 Q is forced by
    differentiating the tangency constraint; no other normal term is
    compatible with motion on the ellipsoid.
    """
    _require_matching_a(state.metric, prob)
    y = intrinsic_kernel(prob)((*state.point.vec.tolist(), *state.velocity.tolist()))
    return state.velocity, np.array(y[4:])


def relation_residual(q: np.ndarray, p: np.ndarray, prob: Problem) -> float | np.ndarray:
    """G(lift(q, p)) - (J + E/2 - Theta^2/4) for a = 1; zero up to roundoff."""
    if prob.a != 1.0:
        raise UnsupportedParameterError(
            "the printed relation holds for a = 1; use fit_integral_relation otherwise"
        )
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    j, theta, e = first_integrals(q, p, prob)  # validates q and p
    return _lifted_energy(q, p, prob) - (j + 0.5 * e - 0.25 * theta**2)


def _design_matrix(q: np.ndarray, p: np.ndarray, prob: Problem) -> np.ndarray:
    """Columns (J, E, Theta^2, 1) of the relation fit; validates q and p."""
    j, theta, e = first_integrals(q, p, prob)
    design = np.empty(j.shape + (4,))
    design[:, 0] = j
    design[:, 1] = e
    design[:, 2] = theta**2
    design[:, 3] = 1.0
    return design


def fit_integral_relation(
    prob: Problem,
    sample_count: int,
    seed: int = 0,
    sampler=None,
) -> IntegralRelation:
    """Least-squares recovery of G as an affine combination of (J, E, Theta^2, 1).

    The relation is exact, so the fit residual sits at roundoff; the
    recovered coefficients are the general-a analogue of the a = 1 values
    (1, 1/2, -1/4, 0).  A rank-deficient draw is resampled up to 5 times.
    """
    if sample_count < 8:
        raise InvalidInputError(f"sample_count must be >= 8, got {sample_count}")
    rng = make_rng(seed)
    if sampler is None:
        sampler = lambda n, r: sample_phase_points(prob, n, r)
    for _ in range(5):
        q, p = (np.asarray(arr, dtype=float) for arr in sampler(sample_count, rng))
        if q.shape != (sample_count, 3) or p.shape != (sample_count, 3):
            raise InvalidInputError(
                f"sampler must return two ({sample_count}, 3) arrays, got {q.shape} and {p.shape}"
            )
        design = _design_matrix(q, p, prob)
        g = _lifted_energy(q, p, prob)
        coeffs, _, rank, _ = np.linalg.lstsq(design, g, rcond=None)
        if rank < 4:
            continue
        residual = float(np.max(np.abs(design @ coeffs - g)))
        return IntegralRelation(*map(float, coeffs), residual)
    raise RankDeficientError("sample set stayed rank deficient after 5 resampling attempts")


def _rk4_planar_step(
    q: np.ndarray, p: np.ndarray, prob: Problem, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of the planar system (local error O(h^5))."""
    k1q, k1p = p, acceleration(q, prob)
    k2q, k2p = p + 0.5 * h * k1p, acceleration(q + 0.5 * h * k1q, prob)
    k3q, k3p = p + 0.5 * h * k2p, acceleration(q + 0.5 * h * k2q, prob)
    k4q, k4p = p + h * k3p, acceleration(q + h * k3q, prob)
    return (
        q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
        p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def fd_tangential_acceleration(
    q: np.ndarray, p: np.ndarray, prob: Problem, step: float = 1e-5
) -> np.ndarray:
    """Tangential Q'' obtained by differencing the lifted planar flow.

    Independent oracle for :func:`tangential_field`: the planar system is
    advanced by +-step with single RK4 steps, the lifted velocities are
    centrally differenced in t, and the chain rule dtau/dt = 1/|q|_*^2
    converts to the intrinsic time.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    metric = prob.metric()
    q_fwd, p_fwd = _rk4_planar_step(q, p, prob, step)
    q_bwd, p_bwd = _rk4_planar_step(q, p, prob, -step)
    _, qp_fwd = lift_arrays(q_fwd, p_fwd, metric)
    _, qp_bwd = lift_arrays(q_bwd, p_bwd, metric)
    n2 = float(star_norm(embed(q), metric)) ** 2
    qpp = n2 * (qp_fwd - qp_bwd) / (2.0 * step)
    big_q, _ = lift_arrays(q, p, metric)
    return qpp - float(star_inner(big_q, qpp, metric)) * big_q


def velocity_independence_residual(
    point: EllipsoidPoint,
    prob: Problem,
    samples: int = 10,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max pairwise spread of the differenced tangential Q'' over velocities.

    Lifts ``samples`` planar states through the same projected point with
    random velocities and measures how much the finite-differenced
    tangential acceleration varies; the theorem says it should not, so the
    spread stays at differencing-error level (<= 1e-6 for step 1e-5).
    """
    if samples < 2:
        raise InvalidInputError(f"samples must be >= 2, got {samples}")
    _require_matching_a(point.metric, prob)
    q3 = unproject(point)[:3]
    rng = make_rng(seed)
    velocities = rng.normal(0.0, 1.0, size=(samples, 3))
    accs = [fd_tangential_acceleration(q3, v, prob, step) for v in velocities]
    worst = 0.0
    for i in range(samples):
        for j in range(i + 1, samples):
            worst = max(worst, float(star_norm(accs[i] - accs[j], point.metric)))
    return worst


def reparametrize_time(traj) -> np.ndarray:
    """Map the t grid of a planar trajectory to the intrinsic time tau.

    tau(t) = integral of W(s)^2 ds with W = 1/|q(s)|_*, evaluated by the
    derivative-corrected trapezoid rule (two-point Hermite quadrature,
    fourth order on smooth data).  Returns tau at the trajectory nodes;
    strictly increasing, and tau(t) <= t because |q|_* >= 1 on the slice.
    """
    if getattr(traj, "kind", None) != "planar":
        raise InvalidInputError("time reparametrization expects a planar trajectory")
    times = np.asarray(traj.times, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    wyz = traj.problem.metric().weights[1]
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    px, py, pz = states[:, 3], states[:, 4], states[:, 5]
    n2 = x * x + wyz * (y * y + z * z) + 1.0
    g = 1.0 / n2
    gdot = -2.0 * (x * px + wyz * (y * py + z * pz)) / (n2 * n2)
    h = np.diff(times)
    dtau = 0.5 * h * (g[:-1] + g[1:]) + (h * h / 12.0) * (gdot[:-1] - gdot[1:])
    if np.any(dtau <= 0.0):
        raise InvalidInputError("quadrature produced a nonincreasing tau grid")
    tau = np.empty_like(times)
    tau[0] = 0.0
    np.cumsum(dtau, out=tau[1:])
    return tau
