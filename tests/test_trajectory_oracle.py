"""Both integrators, route A of the two-route check and the tau quadrature
against scipy's DOP853 at tight tolerance.

The oracle's right-hand sides are written here with numpy and share no code
with twocenter's kernels or stepper; only the ODEs are the same.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twocenter import PhasePoint, Problem, integrate_ellipsoid, integrate_planar, lift_arrays, reparametrize_time

from oracles import star_weights

START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))
PROBLEMS = [Problem(1.0, m_plus, a) for a in (1.0, 2.0) for m_plus in (1.0, 0.5)]
ORACLE_TOL = 1e-13
MAX_STATE_DIFF = 1e-9
MAX_TAU_DIFF = 1e-8  # measured on the default orbit at t = 50: 1.0e-9


def planar_rhs(t, y, prob):
    q, p = y[:3], y[3:]
    acc = np.zeros(3)
    for m, cx in ((prob.m_minus, -prob.a), (prob.m_plus, prob.a)):
        d = q - np.array([cx, 0.0, 0.0])
        acc -= m * d / np.linalg.norm(d) ** 3
    return np.concatenate([p, acc])


def planar_tau_rhs(tau, y, prob):
    """The planar system in the intrinsic time: d/dtau = |q|_*^2 d/dt."""
    q = y[:3]
    n2 = q[0] ** 2 + (q[1] ** 2 + q[2] ** 2) / (1.0 + prob.a**2) + 1.0
    return n2 * planar_rhs(tau, y, prob)


def intrinsic_rhs(t, y, prob):
    """Q'' = F(Q) - ((Q, F)_* + |Q'|_*^2)/(Q, Q)_* Q with F = sum_j m_j c_j / |Q - c_j W|^3."""
    a = prob.a
    weights = np.array([1.0, 1.0 / (1.0 + a * a), 1.0 / (1.0 + a * a), 1.0])
    big_q, qp = y[:4], y[4:]
    field = np.zeros(4)
    for m, c in ((prob.m_minus, np.array([-a, 0.0, 0.0, 1.0])), (prob.m_plus, np.array([a, 0.0, 0.0, 1.0]))):
        field += m * c / np.linalg.norm(big_q - c * big_q[3]) ** 3
    closure = (weights @ (big_q * field) + weights @ (qp * qp)) / (weights @ (big_q * big_q))
    return np.concatenate([qp, field - closure * big_q])


def max_diff_to_oracle(traj, rhs, y0, prob):
    sol = solve_ivp(
        rhs, (0.0, traj.times[-1]), y0, method="DOP853",
        rtol=ORACLE_TOL, atol=ORACLE_TOL, dense_output=True, args=(prob,),
    )
    assert sol.success
    return float(np.max(np.abs(traj.states - sol.sol(traj.times).T)))


@pytest.mark.parametrize("prob", PROBLEMS, ids=lambda p: f"a{p.a:g}-m{p.m_plus:g}")
def test_planar_run_matches_dop853(prob):
    traj = integrate_planar(START, prob, 10.0)
    assert traj.status == "ok"
    y0 = np.concatenate([START.q, START.p])
    assert max_diff_to_oracle(traj, planar_rhs, y0, prob) <= MAX_STATE_DIFF


@pytest.mark.parametrize("prob", PROBLEMS, ids=lambda p: f"a{p.a:g}-m{p.m_plus:g}")
def test_ellipsoid_run_matches_dop853(prob):
    traj = integrate_ellipsoid(START, prob, 5.0)
    assert traj.status == "ok"
    y0 = np.concatenate(lift_arrays(START.q, START.p, prob))
    assert max_diff_to_oracle(traj, intrinsic_rhs, y0, prob) <= MAX_STATE_DIFF


@pytest.mark.parametrize("prob", PROBLEMS, ids=lambda p: f"a{p.a:g}-m{p.m_plus:g}")
def test_tau_clock_planar_run_matches_dop853(prob):
    traj = integrate_planar(START, prob, 5.0, clock="tau")
    assert traj.status == "ok"
    y0 = np.concatenate([START.q, START.p])
    assert max_diff_to_oracle(traj, planar_tau_rhs, y0, prob) <= MAX_STATE_DIFF


@pytest.mark.parametrize("prob", PROBLEMS, ids=lambda p: f"a{p.a:g}-m{p.m_plus:g}")
def test_route_a_ends_on_tau_end(prob):
    """Route A of the two-route check, the planar run in tau, lands on tau_end, and its
    lift, the curve that the check compares, lies on the ellipsoid and is tangent to it."""
    traj = integrate_planar(START, prob, 5.0, clock="tau")
    assert traj.status == "ok" and traj.times[0] == 0.0 and traj.times[-1] == 5.0
    big_q, qp = lift_arrays(traj.states[:, :3], traj.states[:, 3:], prob)
    assert np.max(np.abs(big_q * big_q @ star_weights(prob) - 1.0)) <= 1e-15
    assert np.max(np.abs(big_q * qp @ star_weights(prob))) <= 1e-14 * np.max(np.abs(qp))


def planar_clock_rhs(t, y, prob):
    """The planar system with tau as a seventh component: dtau/dt = 1/|q|_*^2."""
    q = y[:3]
    n2 = q[0] ** 2 + (q[1] ** 2 + q[2] ** 2) / (1.0 + prob.a**2) + 1.0
    return np.append(planar_rhs(t, y[:6], prob), 1.0 / n2)


def test_tau_quadrature_matches_dop853():
    """tau(t) of ``reparametrize_time`` on the default orbit's grid, to t = 50,
    against the oracle's tau integrated with the orbit."""
    prob = Problem()
    traj = integrate_planar(START, prob, 50.0)
    assert traj.status == "ok"
    tau = reparametrize_time(traj.times, traj.states[:, :3], traj.states[:, 3:], prob)
    sol = solve_ivp(
        planar_clock_rhs, (0.0, 50.0), np.concatenate([START.q, START.p, [0.0]]), method="DOP853",
        rtol=ORACLE_TOL, atol=ORACLE_TOL, args=(prob,),
    )
    assert sol.success
    assert abs(tau[-1] - sol.y[6, -1]) <= MAX_TAU_DIFF
