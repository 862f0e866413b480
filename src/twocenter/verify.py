"""End-to-end checks of the projection theorem and its identities.

Each check returns a :class:`CheckResult` carrying the measured worst-case
value and the tolerance it was judged against, so reports always quote the
documented thresholds.  The functions here are shared by the command-line
front end and the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, Problem, kepler_limit_residual
from .errors import InvalidInputError
from .geometry import embed, project, star_norm
from .integrate import (
    IntegratorConfig, Trajectory, cubic_hermite, drift_report, integrate_ellipsoid, integrate_planar
)
from .projective import (
    IntegralRelation,
    fd_tangential_acceleration,
    lift_arrays,
    lift_velocity,
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    tangential_field,
    velocity_independence_residual,
)
from .sampling import make_rng, sample_phase_points

TOL_POINTWISE_RELATION = 1e-10
TOL_FIRST_INTEGRAL_DRIFT = 1e-8
TOL_ENERGY_DRIFT = 1e-8
TOL_TWO_ROUTES = 1e-6
TOL_INDEPENDENCE = 1e-6
TOL_FIT_RESIDUAL = 1e-8
TOL_KEPLER_RESIDUAL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{verdict} {self.name}: measured {self.measured:.3g} (tol {self.tolerance:.0e}){extra}"


def check_pointwise_relation(prob: Problem, samples: int = 10_000, seed: int = 42) -> CheckResult:
    """Max |G - (l_J J + l_E E + l_T2 Theta^2)| over a seeded sweep, at any a."""
    rng = make_rng(seed)
    q, p = sample_phase_points(prob, samples, rng)
    worst = float(np.max(np.abs(relation_residual(q, p, prob))))
    return CheckResult("pointwise-relation", worst, TOL_POINTWISE_RELATION, f"{samples} points")


def check_first_integral_drift(
    start: PhasePoint, prob: Problem, t_end: float = 50.0, cfg: IntegratorConfig | None = None
) -> CheckResult:
    """Relative drift of J, Theta, E along one planar trajectory."""
    traj = integrate_planar(start, prob, t_end, cfg)
    if traj.status != "ok":
        return CheckResult("first-integral-drift", np.inf, TOL_FIRST_INTEGRAL_DRIFT, traj.status)
    drifts = drift_report(traj).drifts
    detail = ", ".join(f"{name} {drifts[name]:.2g}" for name in ("J", "Theta", "E"))
    return CheckResult("first-integral-drift", max(drifts.values()), TOL_FIRST_INTEGRAL_DRIFT, detail)


def check_fitted_relation(fitted: IntegralRelation, prob: Problem) -> CheckResult:
    """The least-squares fit against the closed form: the larger of its
    residual and its largest coefficient gap to :func:`relation_coefficients`."""
    fitted_coeffs = (fitted.lambda_J, fitted.lambda_E, fitted.lambda_theta2, fitted.lambda_0)
    gap = max(abs(f - c) for f, c in zip(fitted_coeffs, relation_coefficients(prob.a)))
    detail = f"residual {fitted.max_residual:.2g}, vs closed form {gap:.2g}"
    return CheckResult("fit-relation", max(fitted.max_residual, gap), TOL_FIT_RESIDUAL, detail)


def planar_route(
    q0: np.ndarray,
    p0: np.ndarray,
    prob: Problem,
    tau_end: float,
    cfg: IntegratorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar integration, projected and reparametrized, up to tau_end.

    The planar horizon needed to cover [0, tau_end] is not known a priori
    (dtau/dt = 1/|q|_*^2 varies along the orbit), so the integration is
    extended in chunks until the accumulated tau passes the target.
    Returns (tau, Q, Q') sampled on the accepted planar grid.
    """
    metric = prob.metric()
    times_all: list[np.ndarray] = []
    states_all: list[np.ndarray] = []
    q, p = np.asarray(q0, dtype=float), np.asarray(p0, dtype=float)
    t_base = 0.0
    tau_last = 0.0
    for _ in range(64):
        n2 = float(star_norm(embed(q), metric)) ** 2
        t_chunk = max(0.5, 1.25 * (tau_end - tau_last) * n2)
        traj = integrate_planar(PhasePoint(q, p), prob, t_chunk, cfg)
        if traj.status != "ok":
            raise RuntimeError(f"planar route aborted with status {traj.status}")
        skip = 1 if times_all else 0  # chunk start repeats the previous end state
        times_all.append(traj.times[skip:] + t_base)
        states_all.append(traj.states[skip:])
        t_base = times_all[-1][-1]
        q, p = traj.states[-1, :3], traj.states[-1, 3:]
        merged = Trajectory(
            np.concatenate(times_all), np.concatenate(states_all), {}, prob, "planar"
        )
        tau = reparametrize_time(merged)
        tau_last = float(tau[-1])
        if tau_last >= tau_end:
            big_q, qp = lift_arrays(merged.states[:, :3], merged.states[:, 3:], metric)
            return tau, big_q, qp
    raise RuntimeError("tau target not reached; the orbit may be escaping")


def check_two_routes(
    start: PhasePoint,
    prob: Problem,
    tau_end: float = 5.0,
    cfg: IntegratorConfig | None = None,
    n_samples: int = 801,
) -> CheckResult:
    """Max star-distance between the projected planar curve and the intrinsic one."""
    metric = prob.metric()
    try:
        tau_a, q_a, qp_a = planar_route(start.q, start.p, prob, tau_end, cfg)
    except RuntimeError as exc:
        return CheckResult("two-route-equivalence", np.inf, TOL_TWO_ROUTES, str(exc))
    state0 = lift_velocity(start.q, start.p, metric)
    traj_b = integrate_ellipsoid(state0, prob, tau_end, cfg)
    if traj_b.status != "ok":
        return CheckResult("two-route-equivalence", np.inf, TOL_TWO_ROUTES, traj_b.status)
    t_hi = min(tau_a[-1], traj_b.times[-1], tau_end)
    queries = np.linspace(0.0, t_hi, n_samples)
    curve_a = cubic_hermite(tau_a, q_a, qp_a, queries)
    curve_b = cubic_hermite(traj_b.times, traj_b.states[:, :4], traj_b.states[:, 4:], queries)
    worst = float(np.max(star_norm(curve_a - curve_b, metric)))
    return CheckResult("two-route-equivalence", worst, TOL_TWO_ROUTES, f"tau in [0, {t_hi:.3g}]")


def check_energy_drift(
    start: PhasePoint,
    prob: Problem,
    tau_end: float = 5.0,
    cfg: IntegratorConfig | None = None,
) -> CheckResult:
    """|G(tau) - G(0)| along the intrinsic trajectory lifted from ``start``."""
    state0 = lift_velocity(start.q, start.p, prob.metric())
    traj = integrate_ellipsoid(state0, prob, tau_end, cfg)
    if traj.status != "ok":
        return CheckResult("ellipsoidal-energy-drift", np.inf, TOL_ENERGY_DRIFT, traj.status)
    g = traj.diagnostics["G"]
    worst = float(np.max(np.abs(g - g[0])))
    return CheckResult("ellipsoidal-energy-drift", worst, TOL_ENERGY_DRIFT, f"G(0) = {g[0]:.6g}")


def check_velocity_independence(
    prob: Problem,
    n_states: int = 50,
    samples: int = 10,
    seed: int = 42,
) -> CheckResult:
    """Pairwise spread of the differenced tangential acceleration, and its
    agreement with the closed-form tangential field at random states."""
    metric = prob.metric()
    anchor = project(embed(np.array([0.0, 1.0, 0.0])), metric)
    spread = velocity_independence_residual(anchor, prob, samples=samples, seed=seed)

    rng = make_rng(seed)
    qs, ps = sample_phase_points(prob, n_states, rng, q_radius=3.0, min_center_distance=0.5)
    agreement = 0.0
    for q, p in zip(qs, ps):
        oracle = fd_tangential_acceleration(q, p, prob)
        field = tangential_field(project(embed(q), metric), prob)
        agreement = max(agreement, float(star_norm(oracle - field, metric)))
    worst = max(spread, agreement)
    detail = f"pairwise {spread:.2g}, vs field {agreement:.2g}"
    return CheckResult("velocity-independence", worst, TOL_INDEPENDENCE, detail)


def check_kepler_limit(
    start: PhasePoint, prob: Problem, a_small: float = 1e-4
) -> CheckResult:
    """Residual |E - |q x p|^2| at a_small, with the halving ratio reported."""
    if not prob.is_kepler:
        raise InvalidInputError("the merged-centers check expects exactly one nonzero mass")
    res = float(kepler_limit_residual(start.q, start.p, prob, a_small))
    res_half = float(kepler_limit_residual(start.q, start.p, prob, a_small / 2.0))
    ratio = res / res_half if res_half > 0.0 else np.inf
    return CheckResult("kepler-limit", res, TOL_KEPLER_RESIDUAL, f"halving ratio {ratio:.3g}")
