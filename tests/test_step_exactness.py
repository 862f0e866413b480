"""The generated Dormand-Prince step against the loop form it replaced.

``integrate._make_step`` writes every stage as a scalar expression.  It must
reproduce, bit for bit, the stepper that combined the stages with list
comprehensions over zipped sequences; that stepper and its tableau are
copied below as the oracle, and runs through both are compared with
``np.array_equal`` on times and states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocenter import (
    IntegratorConfig,
    PhasePoint,
    Problem,
    integrate_ellipsoid,
    integrate_planar,
    lift_velocity,
)
from twocenter import integrate
from twocenter.errors import NearCollisionError

# --- oracle: the comprehension stepper ------------------------------------------

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


def ref_dopri5(f, y0, t_end, cfg, postprocess=None):
    rtol, atol, max_step = cfg.rel_tol, cfg.abs_tol, integrate._MAX_STEP
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
        h = integrate._initial_step(f, y, k1, t_end, cfg)
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
            err = math.sqrt(sum([
                (h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * k) / (atol + rtol * max(abs(v), abs(u)))) ** 2
                for v, u, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7)
            ]) / n)
            if err <= 1.0:
                t += h
                if postprocess is None:
                    y = y_new
                    k1 = k7
                else:
                    y = postprocess(y_new)
                    k1 = f(y)
                times.append(t)
                states.append(y)
                facmax = 1.0 if just_rejected else integrate._FACMAX
                fac = facmax if err == 0.0 else integrate._SAFETY * err**-integrate._ALPHA * errold**integrate._BETA
                h *= min(facmax, max(integrate._FACMIN, fac))
                errold = max(err, 1e-4)
                just_rejected = False
            else:
                rejected += 1
                just_rejected = True
                h *= min(1.0, max(integrate._FACMIN, integrate._SAFETY * err**-integrate._ALPHA))
        else:
            if t < t_end:
                status = "step_budget"
    except NearCollisionError:
        status = "collision"
    except integrate._AbortRun as abort:
        status = abort.status
    return np.array(times), np.array(states, dtype=float), rejected, status


# --- comparisons ----------------------------------------------------------------

START = PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6]))
INFALL = PhasePoint(np.array([0.5, 0.0, 0.0]), np.zeros(3))
# (tolerances, step cap): the loose runs take longer steps and reject some
CONFIGS = [(IntegratorConfig(), 0.1), (IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6), 0.5)]


def both_steppers(monkeypatch, run):
    """``run()`` with the generated step, then with the oracle stepper."""
    generated = run()
    with monkeypatch.context() as patch:
        patch.setattr(integrate, "_dopri5", ref_dopri5)
        reference = run()
    return generated, reference


def assert_same_run(got, want):
    assert got.status == want.status
    assert got.rejected_steps == want.rejected_steps
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    for name, values in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[name], values)


@pytest.mark.parametrize("cfg, max_step", CONFIGS, ids=["tight", "loose"])
@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("clock", ["t", "tau"])
def test_planar_runs_match_loop_stepper(clock, a, cfg, max_step, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEP", max_step)
    prob = Problem(1.0, 0.7, a)
    got, want = both_steppers(monkeypatch, lambda: integrate_planar(START, prob, 10.0, cfg, clock=clock))
    assert got.status == "ok" and len(got) > 10
    assert_same_run(got, want)


@pytest.mark.parametrize("cfg, max_step", CONFIGS, ids=["tight", "loose"])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_ellipsoid_runs_match_loop_stepper(a, cfg, max_step, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEP", max_step)
    prob = Problem(1.0, 0.7, a)
    start = lift_velocity(START.q, START.p, prob.metric())
    got, want = both_steppers(monkeypatch, lambda: integrate_ellipsoid(start, prob, 3.0, cfg))
    assert got.status == "ok" and len(got) > 10
    assert_same_run(got, want)


def test_aborted_run_matches_loop_stepper(monkeypatch):
    """Released at rest between the centers: the partial grid up to the abort."""
    got, want = both_steppers(monkeypatch, lambda: integrate_planar(INFALL, Problem(), 10.0))
    assert got.status != "ok"
    assert_same_run(got, want)


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 9))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    y0 = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n, max_size=n))
    rel_tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    return matrix, y0, IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol)


@settings(max_examples=60, deadline=None)
@given(linear_systems())
def test_linear_systems_match_loop_stepper(system):
    matrix, y0, cfg = system

    def f(y):
        return [sum(m * v for m, v in zip(row, y)) for row in matrix]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate, "_MAX_STEP", 0.5)
        got = integrate._dopri5(f, y0, 2.0, cfg)
        want = ref_dopri5(f, y0, 2.0, cfg)
    assert got[2:] == want[2:]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_step_is_built_once_per_state_size():
    assert integrate._make_step(6) is integrate._make_step(6)
    assert integrate._make_step(6) is not integrate._make_step(8)
