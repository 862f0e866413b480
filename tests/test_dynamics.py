"""Vector field, first integrals, and their symmetries."""

import math
import sys

import numpy as np
import pytest

from twocenter import (
    InvalidInputError,
    NearCollisionError,
    PhasePoint,
    Problem,
    acceleration,
    first_integrals,
    kepler_limit_residual,
)
from twocenter.dynamics import axial_angular_momentum
from twocenter.sampling import make_rng, sample_phase_points

EQUAL = Problem(1.0, 1.0, 1.0)


def rotate_about_axis(v, angle):
    """Right-handed rotation of 3-vectors about the centers (x) axis."""
    x, y, z = v
    c, s = np.cos(angle), np.sin(angle)
    return np.array([x, c * y - s * z, s * y + c * z])


def test_acceleration_symmetric_midpoint():
    assert np.array_equal(acceleration(np.zeros(3), EQUAL), np.zeros(3))


def test_acceleration_single_center():
    # m_minus only, |q - c_minus| = sqrt(5)
    acc = acceleration(np.array([1.0, 1.0, 0.0]), Problem(1.0, 0.0, 1.0))
    expected = -np.array([2.0, 1.0, 0.0]) / 5**1.5
    assert np.allclose(acc, expected, atol=1e-15)
    assert acc[0] == pytest.approx(-0.178885, abs=1e-6)
    assert acc[1] == pytest.approx(-0.089443, abs=1e-6)


def test_acceleration_free_motion():
    free = Problem(0.0, 0.0, 1.0)
    rng = make_rng(0)
    for q in rng.uniform(-3, 3, size=(20, 3)):
        assert np.array_equal(acceleration(q, free), np.zeros(3))


def test_near_collision_guard():
    with pytest.raises(NearCollisionError):
        acceleration(np.array([1.0, 0.0, 0.0]), EQUAL)
    with pytest.raises(NearCollisionError):
        first_integrals(np.array([-1.0, 1e-9, 0.0]), np.zeros(3), EQUAL)
    with pytest.raises(NearCollisionError):
        first_integrals(np.array([1.0, 0.0, 1e-10]), np.zeros(3), EQUAL)


def test_hamiltonian_examples():
    """J, the energy, of ``first_integrals``."""
    assert first_integrals(np.zeros(3), np.zeros(3), EQUAL)[0] == -2.0
    value = first_integrals(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), EQUAL)[0]
    assert value == pytest.approx(0.5 - np.sqrt(2), abs=1e-15)
    free = Problem(0.0, 0.0, 1.0)
    assert first_integrals(np.array([0.0, 1, 0]), np.array([1.0, 1, 0]), free)[0] == 1.0


def test_axial_angular_momentum_examples():
    assert axial_angular_momentum(np.array([0.0, 1, 0]), np.array([0.0, 0, 1])) == 1.0
    q = np.array([0.4, -1.2, 2.0])
    assert axial_angular_momentum(q, 3.0 * q) == 0.0
    assert axial_angular_momentum(np.array([0.0, 0, 1]), np.array([0.0, 1, 0])) == -1.0


def test_euler_integral_examples():
    """E, the Euler integral, of ``first_integrals``."""
    assert first_integrals(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), EQUAL)[2] == 1.0
    assert first_integrals(np.array([0.0, 1, 0]), np.zeros(3), Problem(0.7, 2.3, 1.0))[2] == 0.0
    free = Problem(0.0, 0.0, 1.0)
    assert first_integrals(np.array([0.0, 1, 0]), np.array([1.0, 0, 0]), free)[2] == 2.0


def test_acceleration_is_negative_potential_gradient():
    """Central differences of the potential part of J, step 1e-6."""
    def potential(q, prob):
        c = np.array([prob.a, 0.0, 0.0])
        d_minus = np.linalg.norm(q + c)
        d_plus = np.linalg.norm(q - c)
        return -prob.m_minus / d_minus - prob.m_plus / d_plus

    rng = make_rng(5)
    prob = Problem(1.3, 0.4, 1.0)
    qs, _ = sample_phase_points(prob, 100, rng, min_center_distance=0.5)
    h = 1e-6
    for q in qs:
        acc = acceleration(q, prob)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (potential(q + e, prob) - potential(q - e, prob)) / (2 * h)
            assert abs(acc[i] + fd) <= 1e-6


def test_rotational_symmetry_of_invariants():
    rng = make_rng(8)
    prob = Problem(0.8, 1.7, 1.0)
    qs, ps = sample_phase_points(prob, 50, rng)
    angles = rng.uniform(0, 2 * np.pi, size=50)
    for q, p, angle in zip(qs, ps, angles):
        qr, pr = rotate_about_axis(q, angle), rotate_about_axis(p, angle)
        (j_r, _, e_r), (j, _, e) = first_integrals(qr, pr, prob), first_integrals(q, p, prob)
        assert abs(j_r - j) <= 1e-12
        assert abs(axial_angular_momentum(qr, pr) - axial_angular_momentum(q, p)) <= 1e-12
        assert abs(e_r - e) <= 1e-12


def test_single_mass_reduction():
    """With m_plus = 0 the integral reduces to its one-center form exactly."""
    prob = Problem(1.4, 0.0, 1.0)
    rng = make_rng(13)
    qs, ps = sample_phase_points(prob, 200, rng)
    c = np.array([prob.a, 0.0, 0.0])
    for q, p in zip(qs, ps):
        cross = np.cross(q, p)
        one_center = (
            cross @ cross + (c @ p) ** 2 + 2 * (q @ c) * prob.m_minus / np.linalg.norm(q + c)
        )
        assert abs(first_integrals(q, p, prob)[2] - one_center) <= 1e-12


def test_kepler_limit_examples():
    # equal masses and q . c = 0: residual collapses to (a px)^2 = a^2
    res = kepler_limit_residual(np.array([0.0, 1, 0]), np.array([1.0, 0, 0]), EQUAL, 1e-4)
    assert res <= 1e-3
    # p = 0 and q . c = 0 kills every term
    assert kepler_limit_residual(np.array([0.0, 1, 0]), np.zeros(3), EQUAL, 0.37) == 0.0


def test_kepler_limit_first_order_slope():
    """Halving a halves the residual when the linear term survives."""
    prob = Problem(1.0, 0.0, 1e-4)
    q = np.array([1.0, 1.0, 0.5])
    p = np.array([0.2, 0.4, 0.1])
    r1 = kepler_limit_residual(q, p, prob, 1e-4)
    r2 = kepler_limit_residual(q, p, prob, 5e-5)
    assert 1.8 <= r1 / r2 <= 2.2


def test_kepler_limit_rejects_bad_a():
    with pytest.raises(InvalidInputError):
        kepler_limit_residual(np.ones(3), np.ones(3), EQUAL, 0.0)


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        Problem(-1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        Problem(1.0, 1.0, 0.0)
    # a is at most sqrt(float max), where 1 + a^2 is finite; at the next float the ellipsoid would lose y and z
    largest = math.sqrt(sys.float_info.max)
    assert Problem(1.0, 1.0, largest).a == largest and math.isfinite(1.0 + largest * largest)
    for a in (math.nextafter(largest, math.inf), 1e300):
        with pytest.raises(InvalidInputError) as refused:
            Problem(1.0, 1.0, a)
        assert str(refused.value) == f"a must be positive and at most {largest!r}, got {a!r}"
    assert Problem(1.0, 0.0, 1.0).is_kepler
    assert not Problem(1.0, 1.0, 1.0).is_kepler
    assert not Problem(0.0, 0.0, 1.0).is_kepler


def test_phase_point_validation():
    with pytest.raises(InvalidInputError):
        PhasePoint(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(InvalidInputError):
        PhasePoint(np.array([0.0, np.inf, 0.0]), np.zeros(3))
