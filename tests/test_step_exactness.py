"""The generated Dormand-Prince runs against the loop stepper they replaced.

``integrate._make_run`` writes each system's run out in full: the state in
locals, the right-hand side's template inlined at every stage and, for the
ellipsoid, the renormalization.  It must reproduce, bit for bit, the stepper
that called the kernel as a function, combined the stages with list
comprehensions over zipped sequences and renormalized in a ``postprocess``
hook; that stepper and its tableau are copied below as the oracle, and runs
through both are compared with ``np.array_equal`` on times, states and
diagnostics, for every status a run can end in.
"""

import inspect
import math
import traceback
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocenter import (
    PhasePoint,
    Problem,
    Trajectory,
    energy_arrays,
    first_integrals,
    integrate_ellipsoid,
    integrate_planar,
    lift_arrays,
    project,
)
from twocenter import dynamics, integrate
from twocenter.codegen import RhsTemplate, compile_kernel
from twocenter.dynamics import PLANAR_RHS
from twocenter.errors import NearCollisionError
from twocenter.projective import INTRINSIC_RHS

# --- oracle: the comprehension stepper ------------------------------------------


class AbortRun(Exception):
    def __init__(self, status):
        self.status = status


(
    (A21,),
    (A31, A32),
    (A41, A42, A43),
    (A51, A52, A53, A54),
    (A61, A62, A63, A64, A65),
    (A71, _, A73, A74, A75, A76),
) = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
E1, _, E3, E4, E5, E6, E7 = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# The PI step-size controller of Hairer, Norsett & Wanner, Solving ODEs I, II.4 (and
# the ellipsoid's constraint limit), typed here so that the oracle does not read
# them from ``integrate``: the safety factor, the exponents alpha = 1/5 - 0.75 beta
# and beta = 0.04 of err^-alpha errold^beta, and the factor's clip [_FACMIN, _FACMAX].
# ``integrate._MAX_STEP``, ``_MAX_STEPS`` and ``_initial_step`` stay shared: tests
# monkeypatch or stub them in both steppers at once.
_SAFETY = 0.9
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA
_FACMIN = 0.2
_FACMAX = 10.0
_INTEGRITY_LIMIT = 1e-6


def ref_dopri5(f, y0, t_end, tol, max_step, postprocess=None):
    n = len(y0)
    t = 0.0
    y = list(y0)
    times = [t]
    states = [y]
    status = "ok"
    rejected = 0
    errold = 1e-4
    k1 = f(y)
    try:
        h = integrate._initial_step(f, y, k1, t_end, tol, max_step)
        just_rejected = False
        for _ in range(integrate._MAX_STEPS):
            if t >= t_end:
                break
            h = min(h, t_end - t, max_step)
            if h < 1e-14 * max(1.0, abs(t)):
                status = "step_underflow"
                break
            k2 = f([v + h * (A21 * a) for v, a in zip(y, k1)])
            k3 = f([v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)])
            k4 = f([v + h * (A41 * a + A42 * b + A43 * c) for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f([
                v + h * (A51 * a + A52 * b + A53 * c + A54 * d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ])
            k6 = f([
                v + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                v + h * (A71 * a + A73 * c + A74 * d + A75 * e + A76 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = f(y_new)
            total = 0.0  # added left to right, as the generated run does: no compensated sum
            for v, u, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                total += (h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * k) / (tol + tol * max(abs(v), abs(u)))) ** 2
            err = math.sqrt(total / n)
            if err <= 1.0:
                t = t_end if h == t_end - t else t + h  # the cut last step lands on t_end, not an ulp off
                if postprocess is None:
                    y = y_new
                    k1 = k7
                else:
                    y = postprocess(y_new)
                    k1 = f(y)
                times.append(t)
                states.append(y)
                facmax = 1.0 if just_rejected else _FACMAX
                fac = facmax if err == 0.0 else _SAFETY * err**-_ALPHA * errold**_BETA
                h *= min(facmax, max(_FACMIN, fac))
                errold = max(err, 1e-4)
                just_rejected = False
            else:
                rejected += 1
                just_rejected = True
                h *= min(1.0, max(_FACMIN, _SAFETY * err**-_ALPHA))
        else:
            if t < t_end:
                status = "step_budget"
    except NearCollisionError:
        status = "collision"
    except AbortRun as abort:
        status = abort.status
    return np.array(times), np.array(states, dtype=float), rejected, status


def reference(system, start, prob, end, tol=integrate.DEFAULT_TOL):
    """The run of ``integrate_planar``/``integrate_ellipsoid`` through the oracle
    stepper, with the kernel compiled from the system template (possibly patched)
    and bound to ``prob``."""
    template = integrate.INTRINSIC_RHS if system == "ellipsoid" else integrate._CLOCKS[system]
    f = compile_kernel(template)(prob)
    if system != "ellipsoid":
        y0 = [*start.q.tolist(), *start.p.tolist()]
        times, states, rejected, status = ref_dopri5(f, y0, end, tol, integrate._MAX_STEP)
        j, theta, e = first_integrals(states[:, :3], states[:, 3:], prob)
        diagnostics = {"J": np.atleast_1d(j), "Theta": np.atleast_1d(theta), "E": np.atleast_1d(e)}
        return Trajectory(times, states, diagnostics, prob, status, rejected)
    wyz = prob.wyz

    def star(u, v):
        return u[0] * v[0] + wyz * u[1] * v[1] + wyz * u[2] * v[2] + u[3] * v[3]

    # the lift integrate_ellipsoid starts from: Q = project(q), Q' of lift_arrays
    y0 = [*project(start.q, prob).tolist(), *lift_arrays(start.q, start.p, prob)[1].tolist()]
    norm_residuals = [abs(math.sqrt(star(y0[:4], y0[:4])) - 1.0)]
    tangency_residuals = [abs(star(y0[:4], y0[4:]))]

    def cleanup(y):
        big_q, qp = y[:4], y[4:]
        norm = math.sqrt(star(big_q, big_q))
        tangency = star(big_q, qp)
        if abs(norm - 1.0) > _INTEGRITY_LIMIT or abs(tangency) > _INTEGRITY_LIMIT:
            raise AbortRun("integrity")
        norm_residuals.append(abs(norm - 1.0))
        tangency_residuals.append(abs(tangency))
        big_q = [v / norm for v in big_q]
        radial = star(big_q, qp)
        return big_q + [v - radial * u for v, u in zip(qp, big_q)]

    times, states, rejected, status = ref_dopri5(f, y0, end, tol, integrate._MAX_STEP, cleanup)
    n = len(times)
    diagnostics = {
        "G": np.atleast_1d(energy_arrays(states[:, :4], states[:, 4:], prob)),
        "norm_residual": np.array(norm_residuals[:n]),
        "tangency_residual": np.array(tangency_residuals[:n]),
    }
    return Trajectory(times, states, diagnostics, prob, status, rejected)


# --- comparisons ----------------------------------------------------------------

START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))
INFALL = PhasePoint(np.array([0.5, 0.0, 0.0]), np.zeros(3))
EQUAL = Problem()
SYSTEMS = ["t", "tau", "ellipsoid"]
# (tolerance, step cap): the loose runs take longer steps and reject some
CONFIGS = [(integrate.DEFAULT_TOL, 0.1), (1e-6, 0.5)]


def generated(system, start, prob, end, tol=integrate.DEFAULT_TOL):
    if system == "ellipsoid":
        return integrate_ellipsoid(start, prob, end, tol)
    return integrate_planar(start, prob, end, tol, clock=system)


def both_steppers(system, start, prob, end, tol=integrate.DEFAULT_TOL):
    return generated(system, start, prob, end, tol), reference(system, start, prob, end, tol)


def assert_same_run(got, want):
    assert got.status == want.status
    assert got.rejected_steps == want.rejected_steps
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for name, values in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[name], values)


def test_oracle_controller_constants_are_the_generated_runs():
    """The oracle's own controller constants equal those ``integrate`` writes into its runs."""
    ours = (_SAFETY, _ALPHA, _BETA, _FACMIN, _FACMAX, _INTEGRITY_LIMIT)
    theirs = (integrate._SAFETY, integrate._ALPHA, integrate._BETA, integrate._FACMIN, integrate._FACMAX,
              integrate._INTEGRITY_LIMIT)
    assert ours == theirs


@pytest.mark.parametrize("tol, max_step", CONFIGS, ids=["tight", "loose"])
@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("clock", ["t", "tau"])
def test_planar_runs_match_loop_stepper(clock, a, tol, max_step, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEP", max_step)
    got, want = both_steppers(clock, START, Problem(1.0, 0.7, a), 10.0, tol)
    assert got.status == "ok" and len(got) > 10
    assert_same_run(got, want)


@pytest.mark.parametrize("tol, max_step", CONFIGS, ids=["tight", "loose"])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_ellipsoid_runs_match_loop_stepper(a, tol, max_step, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEP", max_step)
    got, want = both_steppers("ellipsoid", START, Problem(1.0, 0.7, a), 3.0, tol)
    assert got.status == "ok" and len(got) > 10
    assert_same_run(got, want)


def test_aborted_run_matches_loop_stepper():
    """Released at rest between the centers: the partial grid up to the abort."""
    got, want = both_steppers("t", INFALL, EQUAL, 10.0)
    assert got.status != "ok"
    assert_same_run(got, want)


# --- every status through the generated runs ------------------------------------


@pytest.mark.parametrize("system", SYSTEMS)
def test_collision_matches_loop_stepper(system, monkeypatch):
    # at the default guard this infall ends in step_underflow instead
    monkeypatch.setattr(dynamics, "COLLISION_GUARD", 0.01)
    got, want = both_steppers(system, INFALL, EQUAL, 10.0)
    assert got.status == "collision" and len(got) > 100
    assert_same_run(got, want)


@pytest.mark.parametrize("system", SYSTEMS)
def test_overflowing_initial_derivative_matches_loop_stepper(system):
    got, want = both_steppers(system, START, Problem(1e160, 1e160, 1.0), 1.0)
    assert got.status == "step_underflow" and len(got) == 1
    assert_same_run(got, want)


def spoiled(template, threshold):
    """``template`` with every derivative component replaced by ``bad`` for x > threshold."""
    return RhsTemplate(
        name=f"{template.name} spoiled",
        state=template.state,
        params=(*template.params, "bad"),
        body=template.body,
        derivative=tuple(f"bad if x > {threshold!r} else ({expr})" for expr in template.derivative),
        guard=template.guard,
    )


@dataclass(frozen=True)
class Spoiling(Problem):
    """A problem that also carries ``bad``, the constant the spoiled templates read."""

    bad: float = 0.0


SPOILED = {"t": spoiled(PLANAR_RHS, 0.5), "tau": spoiled(dynamics.PLANAR_TAU_RHS, 0.5), "ellipsoid": spoiled(INTRINSIC_RHS, 0.3)}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("system", SYSTEMS)
def test_nonfinite_derivative_mid_run_matches_loop_stepper(system, bad, monkeypatch):
    """A derivative that turns non-finite past x = threshold fails every step
    there, down to step_underflow; the stored states stay finite."""
    if system == "ellipsoid":
        monkeypatch.setattr(integrate, "INTRINSIC_RHS", SPOILED[system])
    else:
        monkeypatch.setitem(integrate._CLOCKS, system, SPOILED[system])
    got, want = both_steppers(system, START, Spoiling(bad=bad), 5.0)
    assert got.status == "step_underflow" and len(got) > 10
    assert np.all(np.isfinite(got.states))
    assert_same_run(got, want)


def test_integrity_matches_loop_stepper(monkeypatch):
    # the residuals are judged on each step's result, before it is renormalized
    monkeypatch.setattr(integrate, "_MAX_STEP", 0.5)
    got, want = both_steppers("ellipsoid", START, EQUAL, 50.0, 1e-3)
    assert got.status == "integrity" and len(got) > 1
    assert_same_run(got, want)


@pytest.mark.parametrize("system", SYSTEMS)
def test_step_budget_matches_loop_stepper(system, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEPS", 5)
    got, want = both_steppers(system, START, EQUAL, 5.0)
    assert got.status == "step_budget" and 1 < len(got) <= 6
    assert_same_run(got, want)


# --- test-supplied templates ----------------------------------------------------


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 9))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    y0 = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n, max_size=n))
    tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    return matrix, y0, tol


@settings(max_examples=60, deadline=None)
@given(linear_systems())
def test_linear_systems_match_loop_stepper(system):
    matrix, y0, tol = system
    names = [f"s{j}" for j in range(len(y0))]
    template = RhsTemplate(
        name="linear",
        state=tuple(names),
        params=(),
        body="",
        derivative=tuple(f"sum([{', '.join(f'{m!r} * {v}' for m, v in zip(row, names))}])" for row in matrix),
    )

    def f(y):
        return [sum(m * v for m, v in zip(row, y)) for row in matrix]

    times, states, rejected, status = integrate._make_run(template)(list(y0), 2.0, tol, 0.5, integrate._MAX_STEPS)
    want = ref_dopri5(f, y0, 2.0, tol, 0.5)
    assert (rejected, status) == want[2:]
    assert np.array_equal(times, want[0])
    assert np.array_equal(np.array(states).reshape(-1, len(y0)), want[1])  # a run returns its states flat


def test_run_is_compiled_once_per_system():
    """A run and a kernel take the problem as an argument, so no other problem compiles them again."""

    def integrate_each_system(prob):
        for system in SYSTEMS:
            generated(system, START, prob, 0.5)

    integrate_each_system(EQUAL)
    compiled = integrate._make_run.cache_info().misses, compile_kernel.cache_info().misses
    for prob in (Problem(1.0, 0.7, 2.0), Problem(0.0, 3.0, 0.5), Problem(2.0, 1.0, 1.0)):
        integrate_each_system(prob)
    assert (integrate._make_run.cache_info().misses, compile_kernel.cache_info().misses) == compiled
    assert integrate._make_run(PLANAR_RHS) is integrate._make_run(PLANAR_RHS)


def test_generated_source_is_shown_in_tracebacks():
    run = integrate._make_run(INTRINSIC_RHS)
    assert run.__code__.co_filename == "<twocenter generated: ellipsoid run>"
    source = inspect.getsource(run)
    assert source.startswith("def run(start, t_end, tol, max_step, max_steps, prob):")
    assert "norm_residuals.append(abs(norm - 1.0))" in source
    rhs = compile_kernel(PLANAR_RHS)(EQUAL)
    assert inspect.getsource(rhs).startswith("    def rhs(state):")
    with pytest.raises(NearCollisionError) as caught:
        rhs([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    shown = "".join(traceback.format_exception(caught.type, caught.value, caught.tb))
    assert 'File "<twocenter generated: planar t kernel>"' in shown
    assert 'raise NearCollisionError(f"point within {guard:g} of an attracting center")' in shown
