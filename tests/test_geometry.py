"""Weighted norm, central projection, and duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocenter import (
    EllipsoidPoint,
    InvalidInputError,
    StarMetric,
    WrongBranchError,
    duality_residual,
    embed,
    project,
    star_inner,
    star_norm,
    unproject,
)
from twocenter.sampling import make_rng

M1 = StarMetric(1.0)

coord = st.floats(-10.0, 10.0)


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
    assert np.array_equal(project(np.array([0.0, 0, 0, 1]), M1).vec, [0, 0, 0, 1])
    q = project(np.array([1.0, 0, 0, 1]), M1).vec
    assert np.allclose(q, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-16)
    q = project(np.array([0.0, 1, 0, 1]), M1).vec
    assert np.allclose(q, [0, np.sqrt(2 / 3), 0, np.sqrt(2 / 3)], atol=1e-15)


def test_project_requires_affine_slice():
    with pytest.raises(InvalidInputError):
        project(np.array([0.0, 0, 0, 2.0]), M1)
    with pytest.raises(InvalidInputError):
        project(np.array([0.0, 0, 0]), M1)


def test_projection_lands_on_ellipsoid():
    rng = make_rng(7)
    for metric in (M1, StarMetric(0.5), StarMetric(2.0)):
        qs = embed(rng.uniform(-10, 10, size=(500, 3)))
        for q in qs:
            pt = project(q, metric)
            assert abs(star_norm(pt.vec, metric) - 1.0) <= 1e-12
            assert pt.w > 0


def test_unproject_examples():
    pt = EllipsoidPoint(np.array([0.0, 0, 0, 1]), M1)
    assert np.array_equal(unproject(pt), [0, 0, 0, 1])
    pt = EllipsoidPoint(np.array([1.0, 0, 0, 1]) / np.sqrt(2), M1)
    assert np.allclose(unproject(pt), [1, 0, 0, 1], atol=1e-15)


def test_unproject_overflow_guard():
    pt = EllipsoidPoint(np.array([1.0, 0, 0, 1e-300]), M1)
    with pytest.raises(WrongBranchError):
        unproject(pt)


def test_roundtrip_project_unproject():
    rng = make_rng(11)
    qs = embed(rng.uniform(-10, 10, size=(1000, 3)))
    for q in qs:
        pt = project(q, M1)
        back = project(unproject(pt), M1)
        assert np.max(np.abs(back.vec - pt.vec)) <= 1e-12


def test_duality_examples():
    assert duality_residual(np.array([0.0, 0, 0, 1]), M1) == 0.0
    assert duality_residual(np.array([1.0, 0, 0, 1]), M1) == 0.0


def test_duality_sweep():
    rng = make_rng(3)
    qs = embed(rng.uniform(-10, 10, size=(1000, 3)))
    res = duality_residual(qs, M1)
    assert np.max(np.abs(res)) <= 1e-13


@given(q3=st.tuples(coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_duality_property(q3):
    assert abs(duality_residual(embed(np.array(q3)), M1)) <= 1e-13


def test_ellipsoid_membership_identity():
    # (-X+W)^2/2 + (X+W)^2/2 + Y^2/2 + Z^2/2 = 1 on the a=1 ellipsoid, and
    # the general-a analogue with (-aX+W)^2, (X+aW)^2 over (1+a^2)
    rng = make_rng(19)
    for a in (0.5, 1.0, 2.0):
        metric = StarMetric(a)
        for q3 in rng.uniform(-5, 5, size=(200, 3)):
            x, y, z, w = project(embed(q3), metric).vec
            lhs = ((-a * x + w) ** 2 + (x + a * w) ** 2 + y * y + z * z) / (1 + a * a)
            assert abs(lhs - 1.0) <= 1e-12


def test_point_renormalizes_small_drift():
    drifted = np.array([0.0, 0, 0, 1]) * (1.0 + 5e-10)
    pt = EllipsoidPoint(drifted, M1)
    assert abs(star_norm(pt.vec, M1) - 1.0) <= 1e-15


def test_point_rejects_large_drift():
    with pytest.raises(InvalidInputError):
        EllipsoidPoint(np.array([0.0, 0, 0, 1 + 1e-8]), M1)


def test_point_rejects_wrong_sheet():
    with pytest.raises(WrongBranchError):
        EllipsoidPoint(np.array([0.0, 0, 0, -1.0]), M1)
