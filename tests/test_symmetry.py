"""Mirror symmetries of the two-center problem, exact in floating point.

Reflecting y -> -y with p_y -> -p_y, or z -> -z with p_z -> -p_z, maps the
problem onto itself.  IEEE negation is exact and a - b = -(b - a), so a
formula written sign-symmetrically maps exactly under either reflection:
J, E and G are unchanged, Theta = y p_z - z p_y changes sign, and so does
the mirrored component of the lift's Q and Q'.  A template edit that breaks
that sign symmetry fails here, with no tolerance.  (Equal as floats: a
zero may change its sign.)

Reflecting x -> -x with p_x -> -p_x and the masses swapped maps the
problem onto itself too, and the centers onto each other: each center's
distance becomes the other's, and a sum of the two centers' terms only
changes its order, which IEEE addition ignores.  So the acceleration and
the lift change the sign of their x components, Theta, E and G are
unchanged, and the three generated runs give the same grid and the
mirrored states.  J is left out of that mirror: its text
``0.5 |p|^2 - u_minus - u_plus`` subtracts the two potentials in a fixed
order, so J moves in the last bit on about a fifth of sampled points, and
with it the relation residual, on about 2 % of them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twocenter import (
    PhasePoint,
    Problem,
    acceleration,
    energy_arrays,
    first_integrals,
    integrate_ellipsoid,
    integrate_planar,
    lift_arrays,
    make_rng,
    relation_residual,
    sample_phase_points,
)
from twocenter import projective

ROWS = projective._ROWS
# one row, a few, and both sides of _ROWS rows (3 * _ROWS components), where relation_residual
# once switched from one whole-array pass to row blocks
SIZES = [1, 7, ROWS, ROWS + 1, 3 * ROWS + 7]
masses = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


def mirrored(v, *axes):
    v = v.copy()
    v[..., axes] = -v[..., axes]
    return v


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.25, 4.0), masses, masses, st.sampled_from(SIZES), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
@example(1.0, 1.0, 1.0, 100_000, 1, 7)
@example(1.5, 1.0, 0.4, 100_000, 2, 7)
@example(0.5, 0.7, 2.0, 100_000, 1, 7)
def test_mirror_maps_the_evaluators_exactly(a, m_minus, m_plus, n, axis, seed):
    prob = Problem(m_minus, m_plus, a)
    q, p = sample_phase_points(prob, n, make_rng(seed))
    qm, pm = mirrored(q, axis), mirrored(p, axis)

    (j, theta, e), (jm, theta_m, em) = first_integrals(q, p, prob), first_integrals(qm, pm, prob)
    assert np.array_equal(jm, j) and np.array_equal(theta_m, -theta) and np.array_equal(em, e)

    (big_q, qp), (big_qm, qpm) = lift_arrays(q, p, prob), lift_arrays(qm, pm, prob)
    assert np.array_equal(big_qm, mirrored(big_q, axis)) and np.array_equal(qpm, mirrored(qp, axis))
    assert np.array_equal(energy_arrays(big_qm, qpm, prob), energy_arrays(big_q, qp, prob))

    assert np.array_equal(relation_residual(qm, pm, prob), relation_residual(q, p, prob))


# Unequal masses, so that swapping them changes the problem.
X_MIRROR_PROBLEMS = [Problem(1.0, 0.4, 1.5), Problem(0.7, 2.0, 0.5), Problem(0.0, 1.3, 2.0)]


def x_mirror(prob):
    return Problem(prob.m_plus, prob.m_minus, prob.a)


@pytest.mark.parametrize("prob", X_MIRROR_PROBLEMS, ids=str)
def test_x_mirror_with_the_masses_swapped_maps_the_evaluators_exactly(prob):
    probm = x_mirror(prob)
    q, p = sample_phase_points(prob, 20_000, make_rng(7))
    qm, pm = mirrored(q, 0), mirrored(p, 0)

    assert np.array_equal(acceleration(qm, probm), mirrored(acceleration(q, prob), 0))
    (_, theta, e), (_, theta_m, em) = first_integrals(q, p, prob), first_integrals(qm, pm, probm)
    assert np.array_equal(theta_m, theta) and np.array_equal(em, e)

    (big_q, qp), (big_qm, qpm) = lift_arrays(q, p, prob), lift_arrays(qm, pm, probm)
    assert np.array_equal(big_qm, mirrored(big_q, 0)) and np.array_equal(qpm, mirrored(qp, 0))
    assert np.array_equal(energy_arrays(big_qm, qpm, probm), energy_arrays(big_q, qp, prob))


@pytest.mark.parametrize("run, axes", [
    (lambda start, prob: integrate_planar(start, prob, 5.0), (0, 3)),
    (lambda start, prob: integrate_planar(start, prob, 5.0, clock="tau"), (0, 3)),
    (lambda start, prob: integrate_ellipsoid(start, prob, 5.0), (0, 4)),
], ids=["planar-t", "planar-tau", "ellipsoid"])
def test_x_mirror_with_the_masses_swapped_maps_the_runs_exactly(run, axes):
    """The same grid, the mirrored states, and every diagnostic but J unchanged."""
    prob, q0, p0 = X_MIRROR_PROBLEMS[0], np.array([0.3, 2.0, 0.1]), np.array([0.3, -0.1, 0.6])
    traj = run(PhasePoint(q0, p0), prob)
    traj_m = run(PhasePoint(mirrored(q0, 0), mirrored(p0, 0)), x_mirror(prob))
    assert traj.status == traj_m.status == "ok" and traj.rejected_steps == traj_m.rejected_steps
    assert np.array_equal(traj_m.times, traj.times)
    assert np.array_equal(traj_m.states, mirrored(traj.states, *axes))
    for name in traj.diagnostics.keys() - {"J"}:
        assert np.array_equal(traj_m.diagnostics[name], traj.diagnostics[name]), name
