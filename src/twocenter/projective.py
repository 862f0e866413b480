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

from .dynamics import (
    COLLISION_GUARD,
    Problem,
    acceleration,
    axial_angular_momentum,
    euler_integral,
    hamiltonian,
)
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
    _check_finite,
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
        _check_finite(v, "velocity")
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


def _lift_arrays(
    q: np.ndarray, p: np.ndarray, metric: StarMetric
) -> tuple[np.ndarray, np.ndarray]:
    """Batched projection and tau-velocity: Q' = qdot |q|_* - q (Q, qdot)_*."""
    q4 = embed(q)
    qdot4 = np.concatenate([np.asarray(p, dtype=float), np.zeros(q4.shape[:-1] + (1,))], axis=-1)
    n = star_norm(q4, metric)
    big_q = q4 / np.expand_dims(n, -1)
    radial = star_inner(big_q, qdot4, metric)
    qp = qdot4 * np.expand_dims(n, -1) - q4 * np.expand_dims(radial, -1)
    return big_q, qp


def lift_velocity(q: np.ndarray, p: np.ndarray, metric: StarMetric) -> EllipsoidState:
    """Lift a planar phase point to the projected point and its tau-velocity."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != (3,) or p.shape != (3,):
        raise InvalidInputError("q and p must have shape (3,)")
    big_q, qp = _lift_arrays(q, p, metric)
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
    _check_finite(q, "q")
    _check_finite(p, "p")
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


def _axis_inner_fractions(big_q: np.ndarray, prob: Problem) -> np.ndarray:
    """u_j = (c_j . Q)/sqrt(1+a^2) for j in (minus, plus), stacked on the last axis."""
    a = prob.a
    scale = np.sqrt(1.0 + a * a)
    x = big_q[..., 0]
    w = big_q[..., 3]
    return np.stack([(-a * x + w) / scale, (a * x + w) / scale], axis=-1)


def _potential_arrays(big_q: np.ndarray, prob: Problem) -> float | np.ndarray:
    u = _axis_inner_fractions(big_q, prob)
    if np.any(u * u >= 1.0):
        raise CenterRayError("point lies on a projection ray of an attracting center")
    masses = np.array([prob.m_minus, prob.m_plus])
    coeff = 2.0 / (1.0 + prob.a * prob.a)
    return -coeff * np.sum(masses * u / np.sqrt(1.0 - u * u), axis=-1)


def _energy_arrays(
    big_q: np.ndarray, qp: np.ndarray, prob: Problem, metric: StarMetric
) -> float | np.ndarray:
    kinetic = np.sum(metric.weights * qp * qp, axis=-1)
    return kinetic + _potential_arrays(big_q, prob)


def ellipsoidal_energy(state: EllipsoidState, prob: Problem) -> float:
    """The conserved energy of the projected motion."""
    _require_matching_a(state.metric, prob)
    return float(_energy_arrays(state.point.vec, state.velocity, prob, state.metric))


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
    metric = prob.metric()
    big_q, qp = _lift_arrays(q, p, metric)
    g = _energy_arrays(big_q, qp, prob, metric)
    j = hamiltonian(q, p, prob)
    e = euler_integral(q, p, prob)
    theta = axial_angular_momentum(q, p)
    return g - (j + 0.5 * e - 0.25 * theta**2)


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
    metric = prob.metric()
    for _ in range(5):
        q, p = sampler(sample_count, rng)
        big_q, qp = _lift_arrays(q, p, metric)
        g = _energy_arrays(big_q, qp, prob, metric)
        design = np.column_stack(
            [
                hamiltonian(q, p, prob),
                euler_integral(q, p, prob),
                axial_angular_momentum(q, p) ** 2,
                np.ones(sample_count),
            ]
        )
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
    _, qp_fwd = _lift_arrays(q_fwd, p_fwd, metric)
    _, qp_bwd = _lift_arrays(q_bwd, p_bwd, metric)
    n2 = float(star_norm(embed(q), metric)) ** 2
    qpp = n2 * (qp_fwd - qp_bwd) / (2.0 * step)
    big_q, _ = _lift_arrays(q, p, metric)
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
