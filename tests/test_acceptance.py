"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with the measured value and the
documented tolerance (run with ``pytest tests/test_acceptance.py -v -s``
to see every line).  Tolerances are fixed here, not tuned.
"""

import time

import numpy as np

from twocenter import (
    PhasePoint,
    Problem,
    StarMetric,
    embed,
    energy_arrays,
    fit_integral_relation,
    integrate_ellipsoid,
    kepler_limit_residual,
    lift_arrays,
    lifted_speed_squared,
    project,
    relation_residual,
    star_norm,
)
from twocenter.ellipsoidal import EllipsoidalPosition, from_ellipsoidal, to_ellipsoidal
from twocenter.sampling import make_rng, sample_phase_points
from twocenter.verify import (
    TOL_ENERGY_DRIFT,
    TOL_FIRST_INTEGRAL_DRIFT,
    TOL_FIT_RESIDUAL,
    TOL_INDEPENDENCE,
    TOL_KEPLER_RESIDUAL,
    TOL_POINTWISE_RELATION,
    TOL_TWO_ROUTES,
    check_energy_drift,
    check_first_integral_drift,
    check_two_routes,
    check_velocity_independence,
)

EQUAL = Problem(1.0, 1.0, 1.0)
DEFAULT_START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))


def _intrinsic_run(prob, tau_end=5.0):
    """The ellipsoid run lifted from DEFAULT_START, as verify-theorem makes it."""
    return integrate_ellipsoid(DEFAULT_START, prob, tau_end)


def _report(criterion, measured, tol, passed=None):
    passed = measured <= tol if passed is None else passed
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: measured {measured:.3g} (tol {tol:.0e})")
    return passed


def test_criterion_1_pointwise_identity():
    """G = J + E/2 - Theta^2/4 over 10^4 seeded points, under 1 second."""
    start = time.perf_counter()
    rng = make_rng(42)
    qs, ps = sample_phase_points(EQUAL, 10_000, rng)
    worst = float(np.max(np.abs(relation_residual(qs, ps, EQUAL))))
    elapsed = time.perf_counter() - start
    ok = _report("1 pointwise identity (a=1)", worst, TOL_POINTWISE_RELATION)
    print(f"       runtime {elapsed:.3f} s (limit 1 s)")
    assert ok and elapsed < 1.0


def test_criterion_2_first_integral_conservation():
    """Relative drift of J, Theta, E over t in [0, 50] at tolerance 1e-12."""
    start = time.perf_counter()
    result = check_first_integral_drift(DEFAULT_START, EQUAL, t_end=50.0)
    elapsed = time.perf_counter() - start
    ok = _report("2 first-integral drift", result.measured, TOL_FIRST_INTEGRAL_DRIFT)
    print(f"       per-integral: {result.detail}; runtime {elapsed:.2f} s (limit 5 s)")
    assert ok and elapsed < 5.0


def test_criterion_3_ellipsoidal_energy_conservation():
    """|G(tau) - G(0)| along the lifted intrinsic trajectory, tau in [0, 5]."""
    result = check_energy_drift(_intrinsic_run(EQUAL))
    assert _report("3 ellipsoidal energy drift", result.measured, TOL_ENERGY_DRIFT)


def test_criterion_4_two_route_equivalence():
    """Project-then-integrate vs integrate-intrinsically, max star distance."""
    result = check_two_routes(DEFAULT_START, _intrinsic_run(EQUAL))
    assert _report("4 two-route equivalence", result.measured, TOL_TWO_ROUTES)


def test_criterion_5_velocity_independence():
    """Tangential acceleration independent of the lifted velocity."""
    result = check_velocity_independence(EQUAL, seed=42)
    ok = _report("5 velocity independence", result.measured, TOL_INDEPENDENCE)
    print(f"       {result.detail}")
    assert ok


def test_criterion_6_general_a():
    """Energy conservation for a in {1/2, 2} and relation-fit quality."""
    worst_drift = 0.0
    for a in (0.5, 2.0):
        result = check_energy_drift(_intrinsic_run(Problem(1.0, 1.0, a)))
        worst_drift = max(worst_drift, result.measured)
    ok = _report("6a general-a energy drift (a=1/2, 2)", worst_drift, TOL_ENERGY_DRIFT)

    fit = fit_integral_relation(EQUAL, 512, seed=1)
    ok_fit = _report("6b fit residual (a=1)", fit.max_residual, TOL_FIT_RESIDUAL)
    coeff_err = max(
        abs(fit.lambda_J - 1.0),
        abs(fit.lambda_E - 0.5),
        abs(fit.lambda_theta2 + 0.25),
        abs(fit.lambda_0),
    )
    ok_coeff = _report("6c fitted coefficients vs (1, 1/2, -1/4, 0)", coeff_err, 1e-9)
    assert ok and ok_fit and ok_coeff


def test_criterion_7_kepler_limit():
    """Euler integral degenerates to the squared angular momentum as a -> 0."""
    prob = Problem(1.0, 0.0, 1e-4)
    q = np.array([1.0, 1.0, 0.5])
    p = np.array([0.2, 0.4, 0.1])
    res = float(kepler_limit_residual(q, p, prob, 1e-4))
    res_half = float(kepler_limit_residual(q, p, prob, 5e-5))
    ratio = res / res_half
    ok = _report("7a kepler-limit residual at a=1e-4", res, TOL_KEPLER_RESIDUAL)
    ok_ratio = _report("7b halving ratio in [1.8, 2.2]", ratio, 2.2, 1.8 <= ratio <= 2.2)
    assert ok and ok_ratio


def test_criterion_8_geometry_suite():
    """Duality, projection and coordinate roundtrips, speed expansion."""
    metric = StarMetric(1.0)
    rng = make_rng(8)

    qs = rng.uniform(-10, 10, size=(1000, 3))
    points = project(qs, metric)
    # duality: the projected height W times the source norm |(q, 1)|_* is 1
    worst_duality = float(np.max(np.abs(points[:, 3] * star_norm(embed(qs), metric) - 1.0)))
    ok_duality = _report("8a duality residual", worst_duality, 1e-13)

    # the inverse projection Q -> Q / W, then project again
    back = project(points[:, :3] / points[:, 3:], metric)
    worst_round = float(np.max(np.abs(back - points)))
    ok_round = _report("8b projection roundtrip", worst_round, 1e-12)

    worst_coords = 0.0
    for alpha, beta, theta in zip(
        rng.uniform(1.0, 4.0, 1000), rng.uniform(-1.0, 1.0, 1000), rng.uniform(0.0, 2 * np.pi, 1000)
    ):
        back = to_ellipsoidal(from_ellipsoidal(EllipsoidalPosition(alpha, beta, theta), EQUAL), EQUAL)
        err = max(abs(back.alpha - alpha), abs(back.beta - beta))
        if not back.degenerate:
            d = (back.theta - theta) % (2 * np.pi)
            err = max(err, min(d, 2 * np.pi - d))
        worst_coords = max(worst_coords, err)
    ok_coords = _report("8c ellipsoidal-coordinate roundtrip", worst_coords, 1e-12)

    q3 = rng.uniform(-5, 5, size=(1000, 3))
    p3 = rng.uniform(-3, 3, size=(1000, 3))
    formula = lifted_speed_squared(q3, p3, metric)
    speed2 = star_norm(lift_arrays(q3, p3, metric)[1], metric) ** 2
    worst_speed = float(np.max(np.abs(formula - speed2)))
    ok_speed = _report("8d speed expansion vs lift", worst_speed, 1e-12)

    assert ok_duality and ok_round and ok_coords and ok_speed


def test_criterion_9_pullback_identity():
    """Projected potential equals its closed form on the slice, a in {1, 1/2, 2}."""
    rng = make_rng(9)
    worst = 0.0
    for a in (1.0, 0.5, 2.0):
        prob = Problem(1.3, 0.6, a)
        metric = prob.metric()
        qs, _ = sample_phase_points(prob, 1000, rng)
        x = qs[:, 0]
        d_minus = np.linalg.norm(qs + prob.center_plus, axis=1)
        d_plus = np.linalg.norm(qs - prob.center_plus, axis=1)
        closed = (2 / (1 + a * a)) * (
            prob.m_minus * (a * x - 1) / d_minus - prob.m_plus * (a * x + 1) / d_plus
        )
        projected = energy_arrays(project(qs, metric), np.zeros(4), prob)  # G at Q' = 0 is its potential
        worst = max(worst, float(np.max(np.abs(projected - closed))))
    assert _report("9 pullback identity", worst, 1e-12)
