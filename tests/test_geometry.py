"""Weighted norm, central projection, and duality.

A projected point is the (..., 4) array ``project`` returns; its inverse
Q -> Q / W and the duality W |(q, 1)|_* = 1 are computed here from it.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocenter import InvalidInputError, Problem, project, star_inner, star_norm
from twocenter.sampling import make_rng

from oracles import slice_point, star_weights

A1 = Problem(a=1.0)

coord = st.floats(-10.0, 10.0)


def duality_residual(q3, prob):
    """W |(q, 1)|_* - 1: the projected height times the source norm is one."""
    return project(q3, prob)[..., 3] * star_norm(slice_point(q3), prob) - 1.0


def test_metric_weights():
    """The weights of (u, v)_* are its values on the unit vectors: (1, 1/(1+a^2), 1/(1+a^2), 1)."""
    unit = np.eye(4)
    assert np.array_equal(star_inner(unit, unit, A1), [1.0, 0.5, 0.5, 1.0])
    m2 = Problem(a=2.0)
    assert np.array_equal(star_inner(unit, unit, m2), [1.0, 0.2, 0.2, 1.0])
    assert Problem(a=1e150).wyz == 1e-300  # 1 + a^2 is finite up to about 1.34e154
    assert type(m2.wyz) is float  # the kernels close over it: a numpy scalar would slow them


def test_star_inner_is_the_weighted_reduction_bit_for_bit():
    """(u, v)_* adds its terms left to right onto +0.0, as numpy's reduction of a last
    axis does: the same bits on values with signed zeros, subnormals and overflows, so
    a sum of four -0.0 terms reads +0.0."""
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, 3.3, -2.2e-300])
    rng = np.random.default_rng(3)
    u, v = rng.choice(values, size=(2, 20_000, 4))
    for prob in (A1, Problem(a=1.7)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = star_inner(u, v, prob), np.sum(star_weights(prob) * u * v, axis=-1)
            one = [star_inner(a, b, prob) for a, b in zip(u[:500], v[:500])]
        assert got.tobytes() == want.tobytes() and np.array(one).tobytes() == want[:500].tobytes()
    assert repr(star_inner(np.zeros(4), -np.ones(4), A1)) == repr(np.float64(0.0))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, 1.35e154, 1e300])
def test_metric_rejects_bad_a(bad):
    with pytest.raises(InvalidInputError):
        Problem(a=bad)


def test_star_norm_examples():
    assert star_norm(np.array([0.0, 0, 0, 1]), A1) == 1.0
    assert star_norm(np.array([1.0, 0, 0, 1]), A1) == pytest.approx(np.sqrt(2), abs=0)
    assert star_norm(np.array([0.0, 1, 1, 0]), A1) == 1.0


def test_star_inner_examples():
    assert star_inner(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1]), A1) == 0.0
    assert star_inner(np.array([0.0, 1, 0, 0]), np.array([0.0, 1, 0, 0]), A1) == 0.5
    # direct evaluation 1 + 1/2 + 1/2 + 1
    assert star_inner(np.ones(4), np.ones(4), A1) == 3.0


def test_nonfinite_rejected():
    bad = np.array([np.nan, 0, 0, 1])
    with pytest.raises(InvalidInputError):
        star_norm(bad, A1)
    with pytest.raises(InvalidInputError):
        star_inner(bad, np.ones(4), A1)


@pytest.mark.parametrize(
    "call, shape",
    [
        (lambda: star_norm(np.zeros((5, 4, 1)), A1), (5, 4, 1)),  # not read as 5 x 4 norms over the wrong axis
        (lambda: star_norm(np.zeros((5, 3)), A1), (5, 3)),
        (lambda: star_inner(np.zeros(4), np.zeros(3), A1), (3,)),
        (lambda: star_inner(np.zeros((5, 2)), np.zeros(4), A1), (5, 2)),
    ],
    ids=["norm-trailing-axis", "norm-3", "inner-v-3", "inner-u-2"],
)
def test_wrong_last_axis_is_refused_by_name(call, shape):
    """The norm and the inner product validate by the rule of ``columns``, not numpy's ValueError."""
    with pytest.raises(InvalidInputError, match=rf"must have shape \(\.\.\., 4\), got {re.escape(str(shape))}$"):
        call()


@given(u=st.tuples(coord, coord, coord, coord), v=st.tuples(coord, coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(u, v):
    u, v = np.array(u), np.array(v)
    lhs = abs(star_inner(u, v, A1))
    rhs = star_norm(u, A1) * star_norm(v, A1)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_project_examples():
    assert np.array_equal(project(np.array([0.0, 0, 0]), A1), [0, 0, 0, 1])
    q = project(np.array([1.0, 0, 0]), A1)
    assert np.allclose(q, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-16)
    q = project(np.array([0.0, 1, 0]), A1)
    assert np.allclose(q, [0, np.sqrt(2 / 3), 0, np.sqrt(2 / 3)], atol=1e-15)
    assert project(np.zeros((2, 5, 3)), A1).shape == (2, 5, 4)


def test_project_requires_affine_slice():
    """``project`` takes the (x, y, z) of a slice point, w = 1 implied: a
    4-vector is refused, like any other last axis but 3, and so is a NaN."""
    for bad in (np.array([0.0, 0, 0, 2.0]), np.array([0.0, 0])):
        with pytest.raises(InvalidInputError, match=r"shape \(\.\.\., 3\)"):
            project(bad, A1)
    with pytest.raises(InvalidInputError, match="finite"):
        project(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), A1)


def test_project_refuses_an_overflowing_norm():
    """A q whose |(q, 1)|_* overflows is refused before numpy can warn,
    naming the point, or the first such row of a batch."""
    batch = np.zeros((5, 3))
    batch[2] = (0.0, -3e200, 1.0)  # overflows through the y term alone
    batch[4] = (1e155, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"^\|\(q, 1\)\|_\* overflows at q = \[1e\+155, 0\.0, 0\.0\]$"):
            project(np.array([1e155, 0.0, 0.0]), A1)
        with pytest.raises(InvalidInputError, match=r"^\|\(q, 1\)\|_\* overflows at q = \[0\.0, -3e\+200, 1\.0\]$"):
            project(batch, A1)


def test_projection_lands_on_ellipsoid():
    rng = make_rng(7)
    for prob in (A1, Problem(a=0.5), Problem(a=2.0)):
        points = project(rng.uniform(-10, 10, size=(500, 3)), prob)
        assert np.max(np.abs(star_norm(points, prob) - 1.0)) <= 1e-12
        assert np.all(points[:, 3] > 0)


def test_unproject_examples():
    """The inverse of the projection is Q -> Q / W."""
    top = project(np.zeros(3), A1)
    assert np.array_equal(top[:3] / top[3:], [0, 0, 0])
    side = project(np.array([1.0, 0, 0]), A1)
    assert np.allclose(side[:3] / side[3:], [1, 0, 0], atol=1e-15)


def test_roundtrip_project_unproject():
    rng = make_rng(11)
    qs = rng.uniform(-10, 10, size=(1000, 3))
    points = project(qs, A1)
    assert np.max(np.abs(points[:, :3] / points[:, 3:] - qs)) <= 1e-13
    back = project(points[:, :3] / points[:, 3:], A1)
    assert np.max(np.abs(back - points)) <= 1e-12


def test_duality_examples():
    assert duality_residual(np.array([0.0, 0, 0]), A1) == 0.0
    # within one rounding: W is the rounded quotient 1/|(q, 1)|_*
    assert abs(duality_residual(np.array([1.0, 0, 0]), A1)) <= np.finfo(float).eps


def test_duality_sweep():
    rng = make_rng(3)
    res = duality_residual(rng.uniform(-10, 10, size=(1000, 3)), A1)
    assert np.max(np.abs(res)) <= 1e-13


@given(q3=st.tuples(coord, coord, coord))
@settings(max_examples=200, deadline=None)
def test_duality_property(q3):
    assert abs(duality_residual(np.array(q3), A1)) <= 1e-13


def test_ellipsoid_membership_identity():
    # (-X+W)^2/2 + (X+W)^2/2 + Y^2/2 + Z^2/2 = 1 on the a=1 ellipsoid, and
    # the general-a analogue with (-aX+W)^2, (X+aW)^2 over (1+a^2)
    rng = make_rng(19)
    for a in (0.5, 1.0, 2.0):
        x, y, z, w = project(rng.uniform(-5, 5, size=(200, 3)), Problem(a=a)).T
        lhs = ((-a * x + w) ** 2 + (x + a * w) ** 2 + y * y + z * z) / (1 + a * a)
        assert np.max(np.abs(lhs - 1.0)) <= 1e-12

