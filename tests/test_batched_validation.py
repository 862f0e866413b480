"""Error paths of the batched evaluators, which validate once per call.

One bad row anywhere in a large batch must still be refused: a non-finite
component with :class:`InvalidInputError`, a point inside the collision
guard with :class:`NearCollisionError`, a projected point on a center ray
with :class:`CenterRayError`.  The sampler refuses unusable radii and gives
up after a bounded number of rejection batches instead of spinning.
"""

import numpy as np
import pytest

from twocenter import (
    CenterRayError,
    InvalidInputError,
    NearCollisionError,
    Problem,
    embed,
    energy_arrays,
    euler_integral,
    fit_integral_relation,
    hamiltonian,
    lift_arrays,
    make_rng,
    project,
    relation_residual,
    sample_phase_points,
)
from twocenter import projective
from twocenter.dynamics import COLLISION_GUARD

PROB = Problem(1.0, 1.0, 1.0)
ROWS = 100_000
MIDDLE = ROWS // 2


@pytest.fixture(scope="module")
def batch():
    return sample_phase_points(PROB, ROWS, make_rng(5))


def evaluators(q, p):
    """Each batched entry point on (q, p), fit_integral_relation through its sample draw."""
    return {
        "hamiltonian": lambda: hamiltonian(q, p, PROB),
        "euler_integral": lambda: euler_integral(q, p, PROB),
        "relation_residual": lambda: relation_residual(q, p, PROB),
        "fit_integral_relation": lambda: fit_on(q, p),
    }


def fit_on(q, p):
    """fit_integral_relation with its sample draw replaced by (q, p)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projective, "sample_phase_points", lambda prob, n, rng: (q, p))
        return fit_integral_relation(PROB, ROWS)


@pytest.mark.parametrize("name", list(evaluators(None, None)))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["q", "p"])
def test_one_nonfinite_row_is_refused(batch, name, bad, which):
    q, p = (arr.copy() for arr in batch)
    (q if which == "q" else p)[MIDDLE, 1] = bad
    with pytest.raises(InvalidInputError, match=which):
        evaluators(q, p)[name]()


@pytest.mark.parametrize("name", list(evaluators(None, None)))
@pytest.mark.parametrize("center", [-1.0, 1.0])
def test_one_row_inside_collision_guard_is_refused(batch, name, center):
    q, p = batch[0].copy(), batch[1]
    q[MIDDLE] = (center + 0.5 * COLLISION_GUARD, 0.0, 0.0)
    with pytest.raises(NearCollisionError):
        evaluators(q, p)[name]()


def test_batched_energy_refuses_a_center_ray(batch):
    big_q, qp = lift_arrays(*batch, PROB.metric())
    big_q[MIDDLE] = project(embed(np.array([PROB.a, 0.0, 0.0])), PROB.metric()).vec
    with pytest.raises(CenterRayError):
        energy_arrays(big_q, qp, PROB)


@pytest.mark.parametrize(
    "shape_q, shape_p",
    [((5, 4), (5, 3)), ((5, 3), (5, 2)), ((2,), (3,))],
)
def test_wrong_last_axis_is_refused(shape_q, shape_p):
    q, p = np.zeros(shape_q), np.ones(shape_p)
    for fn in (lambda: hamiltonian(q, p, PROB), lambda: lift_arrays(q, p, PROB.metric())):
        with pytest.raises(InvalidInputError, match="shape"):
            fn()


def test_sampler_gives_up_when_no_point_clears_the_centers():
    # every point of the radius-0.5 ball lies within 0.75 of a center at +-0.25
    with pytest.raises(InvalidInputError, match="batches"):
        sample_phase_points(Problem(1, 1, 0.25), 4, make_rng(0), q_radius=0.5, min_center_distance=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q_radius": np.nan},
        {"q_radius": np.inf},
        {"q_radius": 0.0},
        {"p_radius": -1.0},
        {"p_radius": np.nan},
        {"min_center_distance": -0.1},
        {"min_center_distance": np.nan},
        {"min_center_distance": np.inf},
    ],
)
def test_sampler_refuses_bad_radii(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(InvalidInputError, match=name):
        sample_phase_points(PROB, 4, make_rng(0), **kwargs)


def test_sampler_accepts_zero_min_center_distance():
    q, p = sample_phase_points(PROB, 16, make_rng(0), min_center_distance=0.0)
    assert q.shape == p.shape == (16, 3)


def test_seeds_outside_the_uint64_range_are_refused():
    make_rng(0), make_rng(2**64 - 1)  # both ends of the range
    for seed in (-1, 2**64):
        with pytest.raises(InvalidInputError, match="seed"):
            make_rng(seed)
