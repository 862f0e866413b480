"""Error paths of the batched evaluators, which validate once per call.

One bad row anywhere in a large batch must still be refused: a non-finite
component with :class:`InvalidInputError`, a point inside the collision
guard with :class:`NearCollisionError`, and so, by the same guard, a
projected point Q within it of a scaled center (+-a W, 0, 0).  The sampler
refuses unusable radii and gives up after a bounded number of rejection
batches instead of spinning.
"""

import math
import re

import numpy as np
import pytest

from twocenter import (
    InvalidInputError,
    NearCollisionError,
    Problem,
    energy_arrays,
    fd_tangential_acceleration,
    first_integrals,
    fit_integral_relation,
    kepler_limit_residual,
    lift_arrays,
    make_rng,
    project,
    relation_residual,
    sample_phase_points,
)
from twocenter import projective
from twocenter.dynamics import CENTER_DISTANCES, COLLISION_GUARD, axial_angular_momentum, on_columns

PROB = Problem(1.0, 1.0, 1.0)
ROWS = 100_000
MIDDLE = ROWS // 2


@pytest.fixture(scope="module")
def batch():
    return sample_phase_points(PROB, ROWS, make_rng(5))


def evaluators(q, p):
    """The batched entry points that apply the collision guard, fit_integral_relation through its sample draw;
    the Hamiltonian J and the Euler integral E are read from ``first_integrals``."""
    return {
        "hamiltonian": lambda: first_integrals(q, p, PROB)[0],
        "euler_integral": lambda: first_integrals(q, p, PROB)[2],
        "relation_residual": lambda: relation_residual(q, p, PROB),
        "fit_integral_relation": lambda: fit_on(q, p),
    }


def fit_on(q, p):
    """fit_integral_relation on len(q) points, its sampler stubbed to hand out
    successive slices of (q, p) as the chunks it asks for."""
    drawn = 0

    def slices(prob, n, rng):
        nonlocal drawn
        drawn += n
        return q[drawn - n:drawn], p[drawn - n:drawn]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projective, "sample_phase_points", slices)
        return fit_integral_relation(PROB, len(q))


PAIR_EVALUATORS = {
    "first_integrals": lambda q, p: first_integrals(q, p, PROB),
    "hamiltonian": lambda q, p: first_integrals(q, p, PROB)[0],
    "euler_integral": lambda q, p: first_integrals(q, p, PROB)[2],
    "axial_angular_momentum": axial_angular_momentum,
    "kepler_limit_residual": lambda q, p: kepler_limit_residual(q, p, PROB, 0.1),
    "lift_arrays": lambda q, p: lift_arrays(q, p, PROB),
    "relation_residual": lambda q, p: relation_residual(q, p, PROB),
    "fd_tangential_acceleration": lambda q, p: fd_tangential_acceleration(q, p, PROB),
}
# Every evaluator of two batches; energy_arrays takes the lifted (Q, Q') of the batch.
BATCH_EVALUATORS = {
    **PAIR_EVALUATORS,
    "fit_integral_relation": fit_on,
    "energy_arrays": lambda big_q, qp: energy_arrays(big_q, qp, PROB),
}


@pytest.mark.parametrize("name", list(BATCH_EVALUATORS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["q", "p"])
def test_one_nonfinite_row_is_refused(batch, name, bad, which):
    """In every column in turn, also one the evaluator never reads."""
    label = which
    if name == "energy_arrays":
        batch, label = lift_arrays(*batch, PROB), {"q": "Q", "p": "Q'"}[which]
    for column in range(batch[0].shape[-1]):
        q, p = (arr.copy() for arr in batch)
        (q if which == "q" else p)[MIDDLE, column] = bad
        with pytest.raises(InvalidInputError, match=f"^{label} must have finite"):
            BATCH_EVALUATORS[name](q, p)


@pytest.mark.parametrize("name", list(evaluators(None, None)))
@pytest.mark.parametrize("center", [-1.0, 1.0])
def test_one_row_inside_collision_guard_is_refused(batch, name, center):
    q, p = batch[0].copy(), batch[1]
    q[MIDDLE] = (center + 0.5 * COLLISION_GUARD, 0.0, 0.0)
    with pytest.raises(NearCollisionError):
        evaluators(q, p)[name]()


def test_batched_energy_refuses_a_center_ray(batch):
    big_q, qp = lift_arrays(*batch, PROB)
    big_q[MIDDLE] = project(np.array([PROB.a, 0.0, 0.0]), PROB)
    with pytest.raises(NearCollisionError):
        energy_arrays(big_q, qp, PROB)


@pytest.mark.parametrize(
    "shape_q, shape_p",
    [((5, 4), (5, 3)), ((5, 3), (5, 2)), ((2,), (3,)), ((5, 2), (5, 2))],
)
def test_wrong_last_axis_is_refused(shape_q, shape_p):
    """Every evaluator of (..., 3) batches and energy_arrays of (..., 4) ones."""
    q, p = np.zeros(shape_q), np.ones(shape_p)
    fns = [*PAIR_EVALUATORS.values(), lambda q, p: energy_arrays(q, p, PROB)]
    for fn in fns:
        with pytest.raises(InvalidInputError, match="shape"):
            fn(q, p)


@pytest.mark.parametrize("name", list(PAIR_EVALUATORS))
@pytest.mark.parametrize("rows_q, rows_p", [(5, 4), (2 * projective._ROWS, projective._ROWS + 1)])
def test_shapes_that_do_not_broadcast_are_refused(name, rows_q, rows_p):
    """q and p with different row counts: the documented error, not numpy's ValueError."""
    q = np.tile([0.0, 2.0, 0.0], (rows_q, 1))
    p = np.tile([0.3, 0.0, 0.6], (rows_p, 1))
    with pytest.raises(InvalidInputError, match="do not broadcast"):
        PAIR_EVALUATORS[name](q, p)


@pytest.mark.parametrize("name", list(PAIR_EVALUATORS))
@pytest.mark.parametrize(
    "shape_q, q_last, shape_p, p_last, message",
    [((5, 3), np.nan, (5, 2), 0.5, "^q must have finite"),  # q whole before p's last axis
     ((5, 3), 2.0, (4, 3), np.inf, "^p must have finite"),  # p whole before the broadcast
     ((5, 2), 2.0, (5, 3), np.nan, r"^q must have shape \(\.\.\., 3\)")],
    ids=["q-nonfinite-then-p-axis", "p-nonfinite-then-broadcast", "q-axis-then-p-nonfinite"],
)
def test_pair_rule_refuses_in_its_documented_order(name, shape_q, q_last, shape_p, p_last, message):
    """``pair_columns`` checks q by the rule of ``columns`` (last axis, then
    finiteness), then p, then that the shapes broadcast: of two faults, the first
    in that order is the one named."""
    q, p = np.full(shape_q, 2.0), np.full(shape_p, 0.5)
    q[-1, 0], p[-1, 0] = q_last, p_last
    with pytest.raises(InvalidInputError, match=message):
        PAIR_EVALUATORS[name](q, p)


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
        {"q_radius": 1e308},  # finite, but the cube side 2r overflows
        {"p_radius": np.float64(1e308)},
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


@pytest.mark.parametrize(
    "call, name",
    [(lambda: sample_phase_points(PROB, 10.0, make_rng(1)), "sample count"),
     (lambda: sample_phase_points(PROB, "10", make_rng(1)), "sample count"),
     (lambda: fit_integral_relation(PROB, 50.5), "sample_count"),
     (lambda: fit_integral_relation(PROB, 64, seed=1.0), "seed"),
     (lambda: make_rng(1.5), "seed"),
     (lambda: make_rng(np.float64(2.0)), "seed")],
    ids=["sample-float", "sample-str", "fit-count-float", "fit-seed-float", "seed-float", "seed-numpy-float"],
)
def test_counts_and_seeds_that_are_not_integers_are_refused(call, name):
    """Refused by name at the range check, not with a ``TypeError`` traceback; numpy integers pass (below)."""
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
        call()


def test_numpy_integer_counts_and_seeds_pass():
    q, _ = sample_phase_points(PROB, np.int64(16), make_rng(np.uint64(3)))
    assert np.array_equal(q, sample_phase_points(PROB, 16, make_rng(3))[0])
    assert fit_integral_relation(PROB, np.int32(64), np.int8(2)) == fit_integral_relation(PROB, 64, 2)


def test_seeds_outside_the_uint64_range_are_refused():
    make_rng(0), make_rng(2**64 - 1)  # both ends of the range
    for seed in (-1, 2**64):
        with pytest.raises(InvalidInputError, match="seed"):
            make_rng(seed)


# --- error order across the row blocks of relation_residual and the fit ----------
# relation_residual evaluates q and p of any shapes in blocks of projective._ROWS
# rows; it must still raise what one whole-array pass raised: a non-finite
# component anywhere before any collision-guard row.  The fit draws its
# sample in chunks of as many points and checks each chunk before evaluating
# it, so it refuses a non-finite row before a guard row of the same chunk or a
# later one.  The energy refuses Q within the same guard of a scaled center,
# with the same error.  The fit refuses a row whose (J, E, Theta^2) or G
# overflows only after a guard row in any chunk.

BLOCK = projective._ROWS
BLOCKED = 3 * BLOCK + 7  # three full blocks and a short last one
FIRST, LAST = 3, BLOCKED - 2
# 1.35e-8 from the center at +1 in the slice, so outside the guard there, but
# its projected point is 9.6e-9 from the scaled center: the energy refuses it.
CENTER_RAY = (0.9999999881299886, -1.1170000752134424e-09, -6.360766204602685e-09)
LIFT_OVERFLOW_ROW = (1e155, 0.0, 0.0)  # outside the planar guard; its |(q, 1)|_*^2 overflows


@pytest.fixture(scope="module")
def blocked_batch():
    return sample_phase_points(PROB, BLOCKED, make_rng(6))


def blocked_evaluators(q, p):
    return {
        "relation_residual": lambda: relation_residual(q, p, PROB),
        "fit_integral_relation": lambda: fit_on(q, p),
    }


def test_center_ray_row_is_outside_the_guard():
    q = np.array([CENTER_RAY])
    d_minus, d_plus = on_columns(CENTER_DISTANCES, PROB, *q.T)
    assert min(d_minus[0], d_plus[0]) > COLLISION_GUARD
    x, y, z, w = project(q, PROB)[0]
    assert min(math.dist((x, y, z), (side * PROB.a * w, 0.0, 0.0)) for side in (-1.0, 1.0)) < COLLISION_GUARD
    with pytest.raises(NearCollisionError):
        relation_residual(q, np.zeros((1, 3)), PROB)


@pytest.mark.parametrize("name", ["relation_residual"])  # the fit's order is by chunk, below
@pytest.mark.parametrize("which", ["q", "p"])
def test_nonfinite_row_in_last_block_comes_before_guard_row_in_first(blocked_batch, name, which):
    q, p = (arr.copy() for arr in blocked_batch)
    q[FIRST] = (1.0 + 0.5 * COLLISION_GUARD, 0.0, 0.0)
    (q if which == "q" else p)[LAST, 2] = np.nan
    with pytest.raises(InvalidInputError, match=which):
        blocked_evaluators(q, p)[name]()


@pytest.mark.parametrize("row, error", [(FIRST + 1, InvalidInputError), (LAST, NearCollisionError)],
                         ids=["same-chunk", "later-chunk"])
@pytest.mark.parametrize("which", ["q", "p"])
def test_fit_refuses_chunks_in_draw_order(blocked_batch, which, row, error):
    """A non-finite row comes before a guard row of its own chunk, and after
    one of an earlier chunk: the fit evaluates a chunk before it draws the next."""
    q, p = (arr.copy() for arr in blocked_batch)
    q[FIRST] = (1.0 + 0.5 * COLLISION_GUARD, 0.0, 0.0)
    (q if which == "q" else p)[row, 2] = np.nan
    with pytest.raises(error, match=which if error is InvalidInputError else "attracting center"):
        fit_on(q, p)


@pytest.mark.parametrize("name", list(blocked_evaluators(None, None)))
@pytest.mark.parametrize(
    "row, error, message",
    [((-1.0, 0.5 * COLLISION_GUARD, 0.0), NearCollisionError, "attracting center"),
     (LIFT_OVERFLOW_ROW, InvalidInputError, re.escape("|(q, 1)|_* overflows at q = [1e+155, 0.0, 0.0]"))],
    ids=["guard", "lift-overflow"],
)
def test_guard_row_in_last_block_is_refused(blocked_batch, name, row, error, message):
    """A row of the short last block that a guard refuses is refused by name, with no numpy warning."""
    q, p = blocked_batch[0].copy(), blocked_batch[1]
    q[LAST] = row
    with pytest.raises(error, match=message):
        blocked_evaluators(q, p)[name]()


@pytest.mark.parametrize("name", list(blocked_evaluators(None, None)))
def test_center_ray_in_first_block_comes_before_guard_row_in_last(blocked_batch, name):
    """Both evaluators raise the first block's scaled-center refusal, not the
    planar guard's of the last block."""
    q, p = blocked_batch[0].copy(), blocked_batch[1]
    q[FIRST] = CENTER_RAY
    q[LAST] = (-1.0, 0.5 * COLLISION_GUARD, 0.0)
    with pytest.raises(NearCollisionError, match="ellipsoid point within 1e-08 of a scaled center"):
        blocked_evaluators(q, p)[name]()


@pytest.mark.parametrize("name", list(blocked_evaluators(None, None)))
@pytest.mark.parametrize("row", [FIRST, LAST])
def test_center_ray_row_alone_is_refused(blocked_batch, name, row):
    q, p = blocked_batch[0].copy(), blocked_batch[1]
    q[row] = CENTER_RAY
    with pytest.raises(NearCollisionError):
        blocked_evaluators(q, p)[name]()


# Within one block the rows go through INTEGRALS, LIFT and ENERGY in turn, each
# refusing under its guard: a planar guard row anywhere in the block comes before
# a q whose |(q, 1)|_* overflows, and that before a point on a center's ray.
GUARD_ROW = (1.0 + 0.5 * COLLISION_GUARD, 0.0, 0.0)


@pytest.mark.parametrize("name", list(blocked_evaluators(None, None)))
@pytest.mark.parametrize(
    "row_3, row_10, error, message",
    [(LIFT_OVERFLOW_ROW, GUARD_ROW, NearCollisionError, "attracting center"),
     (CENTER_RAY, LIFT_OVERFLOW_ROW, InvalidInputError, re.escape("overflows at q = [1e+155, 0.0, 0.0]")),
     (GUARD_ROW, CENTER_RAY, NearCollisionError, "attracting center")],
    ids=["overflow-then-guard", "center-ray-then-overflow", "guard-then-center-ray"],
)
def test_refusals_within_one_block_follow_the_chain(batch, name, row_3, row_10, error, message):
    q, p = batch[0][:100].copy(), batch[1][:100]
    q[3], q[10] = row_3, row_10
    with pytest.raises(error, match=message):
        blocked_evaluators(q, p)[name]()


# E grows as p^2: this row's E overflows, though every component is finite
OVERFLOW_P = (1e200, 0.0, 0.0)


def test_fit_refuses_an_overflow_row_in_a_block(blocked_batch):
    q, p = blocked_batch[0], blocked_batch[1].copy()
    p[FIRST] = OVERFLOW_P
    with pytest.raises(InvalidInputError, match="overflows"):
        fit_on(q, p)


def test_guard_row_in_last_block_comes_before_overflow_row_in_first(blocked_batch):
    q, p = (arr.copy() for arr in blocked_batch)
    p[FIRST] = OVERFLOW_P
    q[LAST] = (-1.0, 0.5 * COLLISION_GUARD, 0.0)
    with pytest.raises(NearCollisionError):
        fit_on(q, p)
