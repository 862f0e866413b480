"""Mirror symmetries of the two-center problem, exact in floating point.

Reflecting y -> -y with p_y -> -p_y, or z -> -z with p_z -> -p_z, maps the
problem onto itself.  IEEE negation is exact and a - b = -(b - a), so a
formula written sign-symmetrically maps exactly under either reflection:
J, E and G are unchanged, Theta = y p_z - z p_y changes sign, and so does
the mirrored component of the lift's Q and Q'.  A template edit that breaks
that sign symmetry fails here, with no tolerance.  (Equal as floats: a
zero may change its sign.)

x -> -x with the masses swapped is left out: J's text
``0.5 |p|^2 - u_minus - u_plus`` subtracts the two potentials in a fixed
order, so J moves in the last bit on about a fifth of sampled points.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from twocenter import (
    Problem,
    energy_arrays,
    first_integrals,
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


def mirrored(v, axis):
    v = v.copy()
    v[..., axis] = -v[..., axis]
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
