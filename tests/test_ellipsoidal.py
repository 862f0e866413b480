"""Ellipsoidal position coordinates (alpha, beta, theta)."""

import numpy as np
import pytest

from twocenter import (
    EllipsoidalPosition,
    InvalidInputError,
    Problem,
    from_ellipsoidal,
    hamiltonian,
    rotate_about_axis,
    to_ellipsoidal,
)
from twocenter.sampling import make_rng

EQUAL = Problem(1.0, 1.0, 1.0)
TWO_PI = 2.0 * np.pi


def _angle_distance(t1, t2):
    d = (t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def test_forward_examples():
    ep = to_ellipsoidal(np.array([0.0, 1.0, 0.0]), EQUAL)
    assert ep.alpha == pytest.approx(np.sqrt(2), abs=1e-15)
    assert ep.beta == 0.0
    assert ep.theta == pytest.approx(1.5 * np.pi, abs=1e-15)
    assert not ep.degenerate

    ep = to_ellipsoidal(np.array([2.0, 0.0, 0.0]), EQUAL)
    assert ep.alpha == 2.0 and ep.beta == 1.0 and ep.degenerate

    ep = to_ellipsoidal(np.array([0.5, 0.0, 0.0]), EQUAL)
    assert ep.alpha == 1.0 and ep.beta == 0.5 and ep.degenerate


def test_inverse_examples():
    q = from_ellipsoidal(EllipsoidalPosition(np.sqrt(2), 0.0, 1.5 * np.pi), EQUAL)
    assert np.allclose(q, [0.0, 1.0, 0.0], atol=1e-12)
    for beta in (-1.0, -0.3, 0.0, 0.8, 1.0):
        q = from_ellipsoidal(EllipsoidalPosition(1.0, beta, 0.0), EQUAL)
        assert np.allclose(q, [beta, 0.0, 0.0], atol=1e-15)


def test_roundtrip_sweep():
    rng = make_rng(31)
    for a in (0.5, 1.0, 2.0):
        prob = Problem(1.0, 1.0, a)
        n = 1000 if a == 1.0 else 200
        alphas = rng.uniform(1.0, 4.0, size=n)
        betas = rng.uniform(-1.0, 1.0, size=n)
        thetas = rng.uniform(0.0, TWO_PI, size=n)
        for alpha, beta, theta in zip(alphas, betas, thetas):
            q = from_ellipsoidal(EllipsoidalPosition(alpha, beta, theta), prob)
            back = to_ellipsoidal(q, prob)
            assert abs(back.alpha - alpha) <= 1e-12
            assert abs(back.beta - beta) <= 1e-12
            if not back.degenerate:
                assert _angle_distance(back.theta, theta) <= 1e-12


def test_invariants_hold_for_random_points():
    rng = make_rng(37)
    for q in rng.uniform(-5, 5, size=(500, 3)):
        ep = to_ellipsoidal(q, EQUAL)
        assert ep.alpha >= 1.0 - 1e-14
        assert abs(ep.beta) <= 1.0 + 1e-14


def test_rotational_invariance():
    """alpha and beta do not change under a rotation about the centers axis;
    theta shifts by the angle."""

    def rotated(q, angle):
        return to_ellipsoidal(q, EQUAL), to_ellipsoidal(rotate_about_axis(q, angle), EQUAL)

    before, after = rotated(np.array([0.3, 1.2, -0.7]), 0.0)
    assert (after.alpha, after.beta) == (before.alpha, before.beta)

    before, after = rotated(np.array([0.0, 1.0, 0.0]), np.pi / 2)
    assert max(abs(after.alpha - before.alpha), abs(after.beta - before.beta)) <= 1e-15
    assert _angle_distance(after.theta, before.theta + np.pi / 2) <= 1e-12

    rng = make_rng(41)
    qs = rng.uniform(-4, 4, size=(100, 3))
    angles = rng.uniform(0, TWO_PI, size=100)
    for q, angle in zip(qs, angles):
        before, after = rotated(q, angle)
        assert max(abs(after.alpha - before.alpha), abs(after.beta - before.beta)) <= 1e-12
        if not (before.degenerate or after.degenerate):
            assert _angle_distance(after.theta, before.theta + angle) <= 1e-12


def test_energy_is_theta_independent():
    """J evaluated through the inverse map does not depend on theta."""
    prob = Problem(0.9, 1.6, 1.0)
    p0 = np.array([0.2, -0.4, 0.3])
    values = []
    for theta in np.linspace(0.0, TWO_PI, 25):
        q = from_ellipsoidal(EllipsoidalPosition(1.7, 0.4, theta), prob)
        p = rotate_about_axis(p0, theta)
        values.append(hamiltonian(q, p, prob))
    assert np.max(np.abs(np.diff(values))) <= 1e-12


def test_constant_alpha_is_confocal_level_set():
    prob = Problem(1.0, 1.0, 1.5)
    rng = make_rng(43)
    alpha = 2.2
    sums = []
    for beta, theta in zip(rng.uniform(-1, 1, 50), rng.uniform(0, TWO_PI, 50)):
        q = from_ellipsoidal(EllipsoidalPosition(alpha, beta, theta), prob)
        sums.append(
            np.linalg.norm(q - prob.center_minus) + np.linalg.norm(q - prob.center_plus)
        )
    assert np.max(np.abs(np.diff(sums))) <= 1e-12


def test_validation():
    with pytest.raises(InvalidInputError):
        EllipsoidalPosition(0.9, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        EllipsoidalPosition(1.5, 1.5, 0.0)
    with pytest.raises(InvalidInputError):
        to_ellipsoidal(np.array([1.0, 0.0, 0.0]), EQUAL)  # at the plus center
