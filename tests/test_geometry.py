"""Weighted norm, central projection, and duality.

A projected point is the (..., 4) array ``project`` returns; its inverse
Q -> Q / W and the duality W |(q, 1)|_* = 1 are computed here from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocenter import InvalidInputError, StarMetric, embed, project, star_inner, star_norm
from twocenter.sampling import make_rng

M1 = StarMetric(1.0)

coord = st.floats(-10.0, 10.0)


def duality_residual(q3, metric):
    """W |(q, 1)|_* - 1: the projected height times the source norm is one."""
    return project(q3, metric)[..., 3] * star_norm(embed(q3), metric) - 1.0


def test_metric_weights():
    assert np.allclose(M1.weights, [1.0, 0.5, 0.5, 1.0], atol=0)
    m2 = StarMetric(2.0)
    assert np.allclose(m2.weights, [1.0, 0.2, 0.2, 1.0], atol=1e-16)
    assert StarMetric(1e150).weights[1] == 1e-300  # 1 + a^2 is finite up to about 1.34e154


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, 1.35e154, 1e300])
def test_metric_rejects_bad_a(bad):
    with pytest.raises(InvalidInputError):
        StarMetric(bad)


def test_star_norm_examples():
    assert star_norm(np.array([0.0, 0, 0, 1]), M1) == 1.0
    assert star_norm(np.array([1.0, 0, 0, 1]), M1) == pytest.approx(np.sqrt(2), abs=0)
    assert star_norm(np.array([0.0, 1, 1, 0]), M1) == 1.0


def test_star_inner_examples():
    assert star_inner(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1]), M1) == 0.0
    assert star_inner(np.array([0.0, 1, 0, 0]), np.array([0.0, 1, 0, 0]), M1) == 0.5
    # direct evaluation 1 + 1/2 + 1/2 + 1
    assert star_inner(np.ones(4), np.ones(4), M1) == 3.0


def test_nonfinite_rejected():
    bad = np.array([np.nan, 0, 0, 1])
    with pytest.raises(InvalidInputError):
        star_norm(bad, M1)
    with pytest.raises(InvalidInputError):
        star_inner(bad, np.ones(4), M1)


@given(u=st.tuples(coord, coord, coord, coord), v=st.tuples(coord, coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(u, v):
    u, v = np.array(u), np.array(v)
    lhs = abs(star_inner(u, v, M1))
    rhs = star_norm(u, M1) * star_norm(v, M1)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_project_examples():
    assert np.array_equal(project(np.array([0.0, 0, 0]), M1), [0, 0, 0, 1])
    q = project(np.array([1.0, 0, 0]), M1)
    assert np.allclose(q, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-16)
    q = project(np.array([0.0, 1, 0]), M1)
    assert np.allclose(q, [0, np.sqrt(2 / 3), 0, np.sqrt(2 / 3)], atol=1e-15)
    assert project(np.zeros((2, 5, 3)), M1).shape == (2, 5, 4)


def test_project_requires_affine_slice():
    """``project`` takes the (x, y, z) of a slice point, w = 1 implied: a
    4-vector is refused, like any other last axis but 3, and so is a NaN."""
    for bad in (np.array([0.0, 0, 0, 2.0]), np.array([0.0, 0])):
        with pytest.raises(InvalidInputError, match=r"shape \(\.\.\., 3\)"):
            project(bad, M1)
    with pytest.raises(InvalidInputError, match="finite"):
        project(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), M1)


def test_projection_lands_on_ellipsoid():
    rng = make_rng(7)
    for metric in (M1, StarMetric(0.5), StarMetric(2.0)):
        points = project(rng.uniform(-10, 10, size=(500, 3)), metric)
        assert np.max(np.abs(star_norm(points, metric) - 1.0)) <= 1e-12
        assert np.all(points[:, 3] > 0)


def test_unproject_examples():
    """The inverse of the projection is Q -> Q / W."""
    top = project(np.zeros(3), M1)
    assert np.array_equal(top[:3] / top[3:], [0, 0, 0])
    side = project(np.array([1.0, 0, 0]), M1)
    assert np.allclose(side[:3] / side[3:], [1, 0, 0], atol=1e-15)


def test_roundtrip_project_unproject():
    rng = make_rng(11)
    qs = rng.uniform(-10, 10, size=(1000, 3))
    points = project(qs, M1)
    assert np.max(np.abs(points[:, :3] / points[:, 3:] - qs)) <= 1e-13
    back = project(points[:, :3] / points[:, 3:], M1)
    assert np.max(np.abs(back - points)) <= 1e-12


def test_duality_examples():
    assert duality_residual(np.array([0.0, 0, 0]), M1) == 0.0
    # one rounding off: project divides by the norm twice
    assert abs(duality_residual(np.array([1.0, 0, 0]), M1)) <= np.finfo(float).eps


def test_duality_sweep():
    rng = make_rng(3)
    res = duality_residual(rng.uniform(-10, 10, size=(1000, 3)), M1)
    assert np.max(np.abs(res)) <= 1e-13


@given(q3=st.tuples(coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_duality_property(q3):
    assert abs(duality_residual(np.array(q3), M1)) <= 1e-13


def test_ellipsoid_membership_identity():
    # (-X+W)^2/2 + (X+W)^2/2 + Y^2/2 + Z^2/2 = 1 on the a=1 ellipsoid, and
    # the general-a analogue with (-aX+W)^2, (X+aW)^2 over (1+a^2)
    rng = make_rng(19)
    for a in (0.5, 1.0, 2.0):
        x, y, z, w = project(rng.uniform(-5, 5, size=(200, 3)), StarMetric(a)).T
        lhs = ((-a * x + w) ** 2 + (x + a * w) ** 2 + y * y + z * z) / (1 + a * a)
        assert np.max(np.abs(lhs - 1.0)) <= 1e-12

