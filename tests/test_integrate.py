"""Adaptive integration, constraint handling, and drift diagnostics."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twocenter import (
    IntegratorConfig,
    InvalidInputError,
    NearCollisionError,
    PhasePoint,
    Problem,
    Trajectory,
    cubic_hermite,
    drift_report,
    energy_arrays,
    first_integrals,
    integrate_ellipsoid,
    integrate_planar,
    lift_arrays,
    project,
    reparametrize_time,
    star_inner,
    star_norm,
)
from twocenter import dynamics, integrate, verify
from twocenter.cli import main
from twocenter.codegen import RhsTemplate
from twocenter.verify import check_energy_drift, check_first_integral_drift, check_two_routes

EQUAL = Problem(1.0, 1.0, 1.0)
DEFAULT_START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))


def test_free_motion_is_linear():
    free = Problem(0.0, 0.0, 1.0)
    start = PhasePoint(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    traj = integrate_planar(start, free, 1.0)
    assert traj.status == "ok"
    assert np.allclose(traj.states[-1, :3], [1.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(traj.states[-1, 3:], [1.0, 0.0, 0.0], atol=1e-12)


def test_default_orbit_drift():
    traj = integrate_planar(DEFAULT_START, EQUAL, 10.0)
    report = drift_report(traj)
    assert traj.status == "ok"
    for name in ("J", "Theta", "E"):
        assert report.drifts[name] <= 1e-8


def test_start_at_center_raises():
    with pytest.raises(NearCollisionError):
        integrate_planar(PhasePoint(np.array([1.0, 0.0, 0.0]), np.zeros(3)), EQUAL, 1.0)


def test_start_inside_guard_raises_for_both_systems():
    q = np.array([1.0 + 0.5 * dynamics.COLLISION_GUARD, 0.0, 0.0])
    p = np.array([0.0, 0.3, 0.0])
    with pytest.raises(NearCollisionError):
        integrate_planar(PhasePoint(q, p), EQUAL, 1.0)
    with pytest.raises(NearCollisionError):
        integrate_ellipsoid(PhasePoint(q, p), EQUAL, 1.0)


def test_collision_abort_returns_partial_trajectory(monkeypatch):
    # released at rest between the centers, slightly closer to the plus one;
    # at the default guard this infall ends in step_underflow instead
    monkeypatch.setattr(dynamics, "COLLISION_GUARD", 0.01)
    infall = PhasePoint(np.array([0.5, 0.0, 0.0]), np.zeros(3))
    traj = integrate_planar(infall, EQUAL, 10.0)
    assert traj.status == "collision"
    assert len(traj) > 1
    assert traj.times[-1] < 10.0


def test_step_budget_abort_returns_partial_trajectory(monkeypatch, tmp_path):
    monkeypatch.setattr(integrate, "_MAX_STEPS", 5)
    traj = integrate_planar(DEFAULT_START, EQUAL, 10.0)
    assert traj.status == "step_budget"
    assert 1 < len(traj) <= 6
    assert traj.times[-1] < 10.0
    assert main(["simulate", "--t-end", "10", "--out", str(tmp_path / "orbit.csv")]) == 2


def test_step_budget_leaves_room_for_the_default_orbit():
    """The default orbit (t = 50) uses less than a fiftieth of the budget,
    while the whole budget, at the per-attempt cost of an ellipsoid run (the
    costliest kind), ends a runaway horizon in seconds, not minutes."""
    traj = integrate_planar(DEFAULT_START, EQUAL, 50.0)
    assert traj.status == "ok"
    assert 50 * (len(traj) - 1 + traj.rejected_steps) <= integrate._MAX_STEPS
    costs = []
    for _ in range(3):
        started = time.perf_counter()
        run = integrate_ellipsoid(DEFAULT_START, EQUAL, 5.0)
        costs.append((time.perf_counter() - started) / (len(run) - 1 + run.rejected_steps))
    assert integrate._MAX_STEPS * min(costs) <= 30.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_derivative_ends_in_step_underflow(bad, monkeypatch):
    """The kernel checks no finiteness: a derivative that turns non-finite
    (here for x > 0.5) makes every step there fail its error test, so the
    run ends in step_underflow with every stored state finite."""
    template, real = dynamics.PLANAR_RHS, integrate.rhs_params
    spoiled = RhsTemplate(
        name="planar t spoiled",
        state=template.state,
        params=(*template.params, "bad"),
        body=template.body,
        derivative=tuple(f"bad if x > 0.5 else ({expr})" for expr in template.derivative),
        guard=template.guard,
    )
    monkeypatch.setitem(integrate._CLOCKS, "t", spoiled)
    monkeypatch.setattr(integrate, "rhs_params", lambda prob: {**real(prob), "bad": bad})
    traj = integrate_planar(DEFAULT_START, EQUAL, 10.0)
    assert traj.status == "step_underflow"
    assert len(traj) > 10 and traj.times[-1] < 10.0
    assert np.all(np.isfinite(traj.states)) and np.all(traj.states[:, 0] <= 0.5)


@pytest.mark.parametrize("mass", [1e160, 1e300])
def test_overflowing_derivative_is_step_underflow(mass):
    # the initial derivative overflows the error scale, so no step fits
    prob = Problem(mass, mass, 1.0)
    for traj in (integrate_planar(DEFAULT_START, prob, 1.0), integrate_ellipsoid(DEFAULT_START, prob, 1.0)):
        assert traj.status == "step_underflow"
        assert len(traj) == 1


def test_invalid_horizons():
    with pytest.raises(InvalidInputError):
        integrate_planar(DEFAULT_START, EQUAL, 0.0)
    with pytest.raises(InvalidInputError):
        integrate_ellipsoid(DEFAULT_START, EQUAL, -1.0)


def test_unknown_clock_is_rejected():
    with pytest.raises(InvalidInputError, match="clock must be 't' or 'tau'"):
        integrate_planar(DEFAULT_START, EQUAL, 1.0, clock="s")
    # a bad end time is reported first
    with pytest.raises(InvalidInputError, match="t_end must be positive"):
        integrate_planar(DEFAULT_START, EQUAL, 0.0, clock="s")


def test_fifth_order_convergence(monkeypatch):
    """Forced constant steps via huge tolerances; error ratio ~ 2^5."""
    ref = integrate_planar(DEFAULT_START, EQUAL, 1.0, IntegratorConfig(rel_tol=1e-14, abs_tol=1e-14))
    errors = []
    for h in (0.2, 0.1):
        monkeypatch.setattr(integrate, "_MAX_STEP", h)
        traj = integrate_planar(DEFAULT_START, EQUAL, 1.0, IntegratorConfig(rel_tol=10.0, abs_tol=10.0))
        assert np.allclose(np.diff(traj.times), h, atol=1e-12)
        errors.append(np.max(np.abs(traj.states[-1] - ref.states[-1])))
    assert 24.0 <= errors[0] / errors[1] <= 45.0


def test_reversibility():
    fwd = integrate_planar(DEFAULT_START, EQUAL, 10.0)
    flipped = PhasePoint(fwd.states[-1, :3], -fwd.states[-1, 3:])
    back = integrate_planar(flipped, EQUAL, 10.0)
    assert np.max(np.abs(back.states[-1, :3] - DEFAULT_START.q)) <= 1e-8
    assert np.max(np.abs(back.states[-1, 3:] + DEFAULT_START.p)) <= 1e-8


def test_tolerance_scaling_improves_accuracy():
    ref = integrate_planar(DEFAULT_START, EQUAL, 5.0, IntegratorConfig(rel_tol=1e-14, abs_tol=1e-14))
    errs = []
    for tol in (1e-6, 1e-9):
        traj = integrate_planar(DEFAULT_START, EQUAL, 5.0, IntegratorConfig(rel_tol=tol, abs_tol=tol))
        errs.append(np.max(np.abs(traj.states[-1] - ref.states[-1])))
    assert errs[1] < errs[0] * 1e-1


_BOX = st.tuples(*[st.floats(-5.0, 5.0)] * 3)


@settings(max_examples=60, deadline=None)
@given(_BOX, _BOX, st.floats(0.25, 4.0))
def test_ellipsoid_run_starts_on_the_lift(q, p, a):
    """The start of an ellipsoid run is the lift of its planar start: Q =
    project(q0), Q' from lift_arrays, on the manifold and tangent to it at
    roundoff.  No other form of a projected state can be passed in, so
    there is no start off the manifold or on the W < 0 sheet to refuse; a
    q0 whose |(q0, 1)|_* overflows is refused by name before numpy warns."""
    q0, p0 = np.array(q), np.array(p)
    assume(min(np.linalg.norm(q0 - [a, 0, 0]), np.linalg.norm(q0 + [a, 0, 0])) >= 0.1)
    prob = Problem(1.0, 0.7, a)
    first = integrate_ellipsoid(PhasePoint(q0, p0), prob, 1e-6).states[0]
    big_q, qp = first[:4], first[4:]
    assert np.array_equal(big_q, project(q0, prob))
    assert np.array_equal(qp, lift_arrays(q0, p0, prob)[1])
    eps = np.finfo(float).eps
    assert abs(star_norm(big_q, prob) - 1.0) <= 2 * eps
    assert abs(star_inner(big_q, qp, prob)) <= 16 * eps * (1.0 + star_norm(qp, prob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"\|\(q, 1\)\|_\* overflows at q = \[0.0, 0.0, 1e\+155\]"):
            integrate_ellipsoid(PhasePoint(np.array([0.0, 0.0, 1e155]), p0), prob, 1.0)


def test_ellipsoid_equilibrium():
    traj = integrate_ellipsoid(PhasePoint(np.zeros(3), np.zeros(3)), EQUAL, 5.0)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.states - traj.states[0])) <= 1e-12


def test_free_flow_conserves_speed_and_matches_closed_form():
    """m = 0 gives star-circular motion Q0 cos(w tau) + (Q'0/w) sin(w tau)."""
    free = Problem(0.0, 0.0, 1.0)
    traj = integrate_ellipsoid(PhasePoint(np.array([0.3, 1.0, -0.2]), np.array([0.4, -0.1, 0.5])), free, 10.0)
    assert traj.status == "ok"
    speeds = star_norm(traj.states[:, 4:], free)
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-10
    omega = float(speeds[0])
    q0, qp0 = traj.states[0, :4], traj.states[0, 4:]
    tau = traj.times[-1]
    closed = q0 * np.cos(omega * tau) + (qp0 / omega) * np.sin(omega * tau)
    assert np.max(np.abs(traj.states[-1, :4] - closed)) <= 1e-9


def test_lifted_orbit_constraints_and_energy():
    traj = integrate_ellipsoid(DEFAULT_START, EQUAL, 5.0)
    assert traj.status == "ok"
    g = traj.diagnostics["G"]
    assert np.max(np.abs(g - g[0])) <= 1e-8
    assert np.max(traj.diagnostics["norm_residual"]) <= 1e-9
    assert np.max(traj.diagnostics["tangency_residual"]) <= 1e-9
    # every accepted state is renormalized, so the stored ones sit on the
    # manifold and tangent space to roundoff (about 1e-12 without it)
    assert np.max(np.abs(star_norm(traj.states[:, :4], EQUAL) - 1.0)) <= 1e-14
    assert np.max(np.abs(star_inner(traj.states[:, :4], traj.states[:, 4:], EQUAL))) <= 1e-14


def test_integrity_abort_on_loose_unrenormalized_run(monkeypatch):
    # the residuals are judged on each step's result, before it is renormalized
    monkeypatch.setattr(integrate, "_MAX_STEP", 0.5)
    traj = integrate_ellipsoid(DEFAULT_START, EQUAL, 50.0, IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3))
    assert traj.status == "integrity"
    assert traj.times[-1] < 50.0


def test_rejected_steps_are_counted(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEP", 5.0)
    traj = integrate_planar(DEFAULT_START, EQUAL, 20.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6))
    assert traj.status == "ok"
    assert traj.rejected_steps > 0


def test_intrinsic_infall_aborts_cleanly():
    # falling toward the scaled center: the run must stop with a
    # partial trajectory, whether the guard or the step floor fires first
    traj = integrate_ellipsoid(PhasePoint(np.array([0.5, 0.0, 0.0]), np.zeros(3)), EQUAL, 10.0)
    assert traj.status in ("collision", "step_underflow")
    assert 0.0 < traj.times[-1] < 10.0


def test_general_a_energy_rate_vanishes():
    """dG/dtau by finite differences along route B, for a in {1/2, 1, 2}."""
    for a in (0.5, 1.0, 2.0):
        prob = Problem(1.0, 1.0, a)
        traj = integrate_ellipsoid(DEFAULT_START, prob, 5.0)
        rate = np.abs(np.diff(traj.diagnostics["G"]) / np.diff(traj.times))
        assert np.max(rate) <= 1e-8


def test_drift_report_examples():
    times = np.array([0.0, 1.0])
    states = np.zeros((2, 6))
    constant = Trajectory(times, states, {"J": np.array([2.5, 2.5])}, EQUAL)
    assert drift_report(constant).drifts["J"] == 0.0
    tiny = Trajectory(times, states, {"J": np.array([1.0, 1.0 + 1e-9])}, EQUAL)
    assert drift_report(tiny).drifts["J"] == pytest.approx(1e-9, rel=1e-6)
    assert any("1e-09" in line or "1.0" in line for line in drift_report(tiny).lines())


# Samples up to the largest doubles, whose spread overflows, and -0.0, whose
# spread from 0.0 must read +0.0 as |I - I(0)| does.
_SAMPLES = st.floats(-1.7e308, 1.7e308) | st.sampled_from([1.7e308, -1.7e308, -0.0, np.inf, -np.inf, np.nan])


@settings(derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(st.lists(_SAMPLES, min_size=n, max_size=n), max_size=4)))
@example([[0.0, -0.0], [-0.0, 0.0], [1.7e308, -1.7e308]])  # numpy's max of (0.0, -0.0) is -0.0
def test_drift_report_matches_the_per_invariant_formula(columns):
    """max |I - I(0)| / max(1, |I(0)|) per invariant, in Python floats, or inf
    with any non-finite sample or spread; compared by repr, so a drift of
    -0.0 for 0.0 fails."""
    n = len(columns[0]) if columns else 1
    names = ["J", "Theta", "E", "G"][: len(columns)]
    traj = Trajectory(np.arange(float(n)), np.zeros((n, 6)), dict(zip(names, map(np.array, columns))), EQUAL)
    want = {}
    for name, values in traj.diagnostics.items():
        v0 = float(values[0])
        spread = max(abs(v - v0) for v in values.tolist()) if np.isfinite(values).all() else math.inf
        want[name] = repr(spread / max(1.0, abs(v0)) if math.isfinite(spread) else math.inf)
    assert {name: repr(drift) for name, drift in drift_report(traj).drifts.items()} == want


def test_drift_of_an_overflowing_spread_is_inf():
    """Two finite samples whose difference overflows drift by inf, without a numpy warning."""
    traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 6)), {"J": np.array([1.7e308, -1.7e308])}, Problem())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert drift_report(traj).drifts == {"J": math.inf}


@pytest.mark.parametrize(
    "e_column", [[1.0, 2.0, np.inf], [np.inf, 2.0, 3.0], [1.0, -np.inf, np.nan], [np.inf, np.inf, np.inf]]
)
def test_nonfinite_invariant_fails_the_drift_check(e_column, monkeypatch):
    """An overflowed invariant drifts by inf, with no warning, and fails the
    check; as nan, ``max`` over J, Theta and E passed over it when it came last."""
    diagnostics = {"J": np.ones(3), "Theta": np.ones(3), "E": np.array(e_column)}
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.zeros((3, 6)), diagnostics, EQUAL)
    report = drift_report(traj)
    assert report.drifts == {"J": 0.0, "Theta": 0.0, "E": np.inf}
    assert "E: max relative drift inf" in report.lines()
    monkeypatch.setattr(verify, "integrate_planar", lambda *args: traj)
    result = check_first_integral_drift(DEFAULT_START, EQUAL, t_end=1.0)
    assert result.measured == np.inf and not result.passed
    assert result.detail == "J 0, Theta 0, E inf"


def test_first_integral_drift_check_reports_the_largest_drift(monkeypatch):
    result = check_first_integral_drift(DEFAULT_START, EQUAL, t_end=10.0)
    drifts = drift_report(integrate_planar(DEFAULT_START, EQUAL, 10.0)).drifts
    assert drifts["E"] > drifts["J"]  # so a check reporting only J would differ
    assert result.measured == max(drifts.values())
    assert all(name in result.detail for name in ("J", "Theta", "E"))
    monkeypatch.setattr(integrate, "_MAX_STEPS", 5)
    aborted = check_first_integral_drift(DEFAULT_START, EQUAL, t_end=10.0)
    assert aborted.measured == np.inf and not aborted.passed
    assert aborted.detail == "step_budget"


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("clock", ["t", "tau"])
def test_run_diagnostics_equal_the_validating_evaluators(clock, a):
    """The runs evaluate J, Theta and E with the column kernel, unchecked;
    the public, validating evaluator gives the same bits on their states."""
    prob = Problem(1.0, 0.7, a)
    traj = integrate_planar(DEFAULT_START, prob, 5.0, clock=clock)
    assert traj.status == "ok" and len(traj) > 10
    for name, values in zip(("J", "Theta", "E"), first_integrals(traj.states[:, :3], traj.states[:, 3:], prob)):
        assert np.array_equal(traj.diagnostics[name], values)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_ellipsoid_energy_equals_the_validating_evaluator(a):
    prob = Problem(1.0, 0.7, a)
    traj = integrate_ellipsoid(DEFAULT_START, prob, 3.0)
    assert traj.status == "ok" and len(traj) > 10
    assert np.array_equal(traj.diagnostics["G"], energy_arrays(traj.states[:, :4], traj.states[:, 4:], prob))


@pytest.mark.parametrize("system", ["t", "ellipsoid"])
def test_nonfinite_state_from_a_run_is_refused(system, monkeypatch):
    """The diagnostics trust a run's states but for one finiteness check."""
    width, residuals = (8, ([0.0, 0.0], [0.0, 0.0])) if system == "ellipsoid" else (6, ())
    output = ([0.0, 1.0], [0.5] * width + [np.nan] * width, 0, "ok", *residuals)  # flat states
    monkeypatch.setattr(integrate, "_make_run", lambda *args, **kwargs: lambda *args, **params: output)
    with pytest.raises(InvalidInputError, match="states must have finite components"):
        if system == "ellipsoid":
            integrate_ellipsoid(DEFAULT_START, EQUAL, 1.0)
        else:
            integrate_planar(DEFAULT_START, EQUAL, 1.0)


def test_trajectory_validation():
    with pytest.raises(InvalidInputError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 6)), {}, EQUAL)
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        Trajectory(np.array([0.0, 2.0, 1.0]), np.zeros((3, 6)), {}, EQUAL)
    with pytest.raises(InvalidInputError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 6)), {}, EQUAL)
    with pytest.raises(InvalidInputError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 6)), {"J": np.zeros(3)}, EQUAL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_a_nonfinite_grid_as_reparametrize_time_does(bad):
    """One rule for a time grid: a NaN or an infinite time is refused with the
    message of ``reparametrize_time``, not kept for ``drift_report`` to read
    as h in [nan, nan]."""
    times = np.array([0.0, 1.0, bad])
    with pytest.raises(InvalidInputError) as in_trajectory:
        Trajectory(times, np.zeros((3, 6)), {}, EQUAL)
    with pytest.raises(InvalidInputError) as in_reparametrize:
        reparametrize_time(times, np.zeros((3, 3)), np.zeros((3, 3)), EQUAL)
    assert str(in_trajectory.value) == str(in_reparametrize.value) == "times must have finite components"


def test_config_validation():
    with pytest.raises(InvalidInputError):
        IntegratorConfig(rel_tol=0.0)


def test_cubic_hermite_reproduces_cubics():
    ts = np.linspace(0.0, 2.0, 9)
    ys = (ts**3 - 2 * ts**2 + ts)[:, None]
    dys = (3 * ts**2 - 4 * ts + 1)[:, None]
    queries = np.linspace(0.0, 2.0, 101)
    exact = (queries**3 - 2 * queries**2 + queries)[:, None]
    assert np.max(np.abs(cubic_hermite(ts, ys, dys, queries) - exact)) <= 1e-13
    with pytest.raises(InvalidInputError):
        cubic_hermite(ts, ys, dys, np.array([2.5]))


def test_two_route_check_fails_when_a_route_stops_early():
    """An aborted intrinsic run, or a route A that falls into a center before
    the intrinsic run's end, fails the check with measured inf."""
    intrinsic = integrate_ellipsoid(DEFAULT_START, EQUAL, 2.0)
    infall = PhasePoint(np.array([0.5, 0.0, 0.0]), np.zeros(3))
    result = check_two_routes(infall, intrinsic)
    assert result.measured == np.inf and result.detail.startswith("planar route stopped at tau = ")
    aborted = integrate_ellipsoid(infall, EQUAL, 2.0)
    assert aborted.status != "ok"
    for check in (check_two_routes(infall, aborted), check_energy_drift(aborted)):
        assert check.measured == np.inf and check.detail == aborted.status
