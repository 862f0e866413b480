"""End-to-end checks of the projection theorem and its identities.

Each check returns a :class:`CheckResult` carrying the measured worst-case
value and the tolerance it was judged against, so reports always quote the
documented thresholds.  The functions here are shared by the command-line
front end and the acceptance test suite.
The caller makes one intrinsic (ellipsoid) run and passes it to both
:func:`check_two_routes` and :func:`check_energy_drift`; a planar run's
``integrate.drift_report`` is judged against ``TOL_FIRST_INTEGRAL_DRIFT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, Problem, kepler_limit_residual, on_columns
from .errors import InvalidInputError
from .geometry import project, star_norm
from .integrate import DEFAULT_TOL, Trajectory, cubic_hermite, integrate_planar
from .projective import (
    INTRINSIC_RHS,
    IntegralRelation,
    fd_tangential_acceleration,
    lift_arrays,
    relation_coefficients,
    relation_residual,
    velocity_independence_residual,
)
from .sampling import make_rng, sample_phase_points

TOL_POINTWISE_RELATION = 1e-10
TOL_FIRST_INTEGRAL_DRIFT = 1e-8
TOL_ENERGY_DRIFT = 1e-8
TOL_TWO_ROUTES = 1e-6
_TWO_ROUTE_QUERIES = 801  # tau points, end points included, at which the routes are compared
TOL_INDEPENDENCE = 1e-6
_INDEPENDENCE_STATES = 50  # random states at which the oracle is held against the field
TOL_FIT_RESIDUAL = 1e-8
TOL_KEPLER_RESIDUAL = 1e-3
_KEPLER_A_SMALL = 1e-4  # half-distance of the merged-centers check, then halved once


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
    """Max |G - (l_J J + l_E E + l_T2 Theta^2)| over a seeded sweep, at any a,
    divided by max(1, m_-, m_+): G, J and E grow with the masses, and so
    does their roundoff.  E grows as a^2 p^2: where a residual overflows
    (a above about 1e154), it reads inf or nan, and the check fails with
    measured inf."""
    rng = make_rng(seed)
    q, p = sample_phase_points(prob, samples, rng)
    scale = max(1.0, prob.m_minus, prob.m_plus)
    worst = float(np.max(np.abs(relation_residual(q, p, prob)))) / scale
    detail = f"{samples} points" if scale == 1.0 else f"{samples} points, divided by mass {scale:.3g}"
    if not np.isfinite(worst):
        worst, detail = np.inf, f"{detail}: the residual overflows"
    return CheckResult("pointwise-relation", worst, TOL_POINTWISE_RELATION, detail)


def check_fitted_relation(fitted: IntegralRelation, prob: Problem) -> CheckResult:
    """The least-squares fit against the closed form: the larger of its
    residual and its largest coefficient gap to :func:`relation_coefficients`."""
    fitted_coeffs = (fitted.lambda_J, fitted.lambda_E, fitted.lambda_theta2, fitted.lambda_0)
    gap = max(abs(f - c) for f, c in zip(fitted_coeffs, relation_coefficients(prob.a)))
    detail = f"residual {fitted.max_residual:.2g}, vs closed form {gap:.2g}"
    return CheckResult("fit-relation", max(fitted.max_residual, gap), TOL_FIT_RESIDUAL, detail)


def check_two_routes(start: PhasePoint, intrinsic: Trajectory, tol: float = DEFAULT_TOL) -> CheckResult:
    """Max star-distance between route A, the planar run from ``start`` in the time tau (``clock="tau"``,
    at tolerance ``tol``) lifted to (Q, dQ/dtau), and ``intrinsic``, the ellipsoid run lifted from
    ``start``, over the intrinsic run's tau range, on which route A ends unless it aborts."""
    name = "two-route-equivalence"
    if intrinsic.status != "ok":
        return CheckResult(name, np.inf, TOL_TWO_ROUTES, intrinsic.status)
    prob = intrinsic.problem
    tau_end = float(intrinsic.times[-1])
    route = integrate_planar(start, prob, tau_end, tol, clock="tau")
    q_a, qp_a = lift_arrays(route.states[:, :3], route.states[:, 3:], prob)
    if route.times[-1] < tau_end:
        return CheckResult(name, np.inf, TOL_TWO_ROUTES, f"planar route stopped at tau = {route.times[-1]:.3g}")
    queries = np.linspace(0.0, tau_end, _TWO_ROUTE_QUERIES)
    curve_a = cubic_hermite(route.times, q_a, qp_a, queries)
    curve_b = cubic_hermite(intrinsic.times, intrinsic.states[:, :4], intrinsic.states[:, 4:], queries)
    worst = float(np.max(star_norm(curve_a - curve_b, prob)))
    return CheckResult(name, worst, TOL_TWO_ROUTES, f"tau in [0, {tau_end:.3g}]")


def check_energy_drift(intrinsic: Trajectory) -> CheckResult:
    """|G(tau) - G(0)| along an intrinsic (ellipsoid) trajectory."""
    if intrinsic.status != "ok":
        return CheckResult("ellipsoidal-energy-drift", np.inf, TOL_ENERGY_DRIFT, intrinsic.status)
    g = intrinsic.diagnostics["G"]
    worst = float(np.max(np.abs(g - g[0])))
    return CheckResult("ellipsoidal-energy-drift", worst, TOL_ENERGY_DRIFT, f"G(0) = {g[0]:.6g}")


def check_velocity_independence(prob: Problem, seed: int = 42) -> CheckResult:
    """Pairwise spread of the differenced tangential acceleration, and its
    agreement with the closed-form tangential field at random states; an
    overflow of the finite-difference oracle fails it with measured inf."""
    name = "velocity-independence"
    qs, ps = sample_phase_points(prob, _INDEPENDENCE_STATES, make_rng(seed), q_radius=3.0, min_center_distance=0.5)
    # the tangential field is INTRINSIC_RHS at Q' = 0; like the scalar kernel, it overflows silently
    with np.errstate(over="ignore", invalid="ignore"):
        field = np.stack(on_columns(INTRINSIC_RHS, prob, *project(qs, prob).T, 0.0, 0.0, 0.0, 0.0)[4:], axis=-1)
    try:
        with np.errstate(over="raise"):
            spread = velocity_independence_residual(np.array([0.0, 1.0, 0.0]), prob, seed=seed)
            oracle = fd_tangential_acceleration(qs, ps, prob)
            agreement = float(np.max(star_norm(oracle - field, prob)))
    except FloatingPointError as exc:
        return CheckResult(name, np.inf, TOL_INDEPENDENCE, f"finite-difference oracle: {exc}")
    worst = max(spread, agreement)
    detail = f"pairwise {spread:.2g}, vs field {agreement:.2g}"
    return CheckResult(name, worst, TOL_INDEPENDENCE, detail)


def check_kepler_limit(start: PhasePoint, prob: Problem) -> CheckResult:
    """Residual |E - |q x p|^2| at ``_KEPLER_A_SMALL``, with the halving ratio reported."""
    if not prob.is_kepler:
        raise InvalidInputError("the merged-centers check expects exactly one nonzero mass")
    res = float(kepler_limit_residual(start.q, start.p, prob, _KEPLER_A_SMALL))
    res_half = float(kepler_limit_residual(start.q, start.p, prob, _KEPLER_A_SMALL / 2.0))
    ratio = res / res_half if res_half > 0.0 else np.inf
    return CheckResult("kepler-limit", res, TOL_KEPLER_RESIDUAL, f"halving ratio {ratio:.3g}")
