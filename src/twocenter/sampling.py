"""Reproducible phase-space sampling.

All random sweeps in the package draw from a PCG64 generator seeded by a
64-bit integer, so fixture values are bit-reproducible across platforms
and process counts, and a stream can jump ahead (``advance``, ``jumped``).
"""

from __future__ import annotations

import numpy as np

from .dynamics import CENTER_DISTANCES, Problem, on_columns
from .errors import InvalidInputError
from .geometry import check_count, check_number

# Rejection batches of 2n + 16 candidates drawn before giving up on n points.
MAX_BATCHES = 100

# Candidate rows drawn and tested at a time within a batch.
_BLOCK = 65536


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 for a 64-bit seed, 0 <= seed < 2^64 (named, as ``default_rng``'s generator may change)."""
    return np.random.Generator(np.random.PCG64(check_count(seed, "seed", 0, 64)))


def sample_phase_points(
    prob: Problem,
    n: int,
    rng: np.random.Generator,
    q_radius: float = 5.0,
    p_radius: float = 3.0,
    min_center_distance: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n valid phase points, uniform in position/velocity balls.

    Positions are rejection-sampled from the cube into the ball of radius
    ``q_radius`` and kept only when farther than ``min_center_distance``
    from both centers; velocities fill the ball of radius ``p_radius``.
    Returns arrays of shape (n, 3).  Raises :class:`InvalidInputError` for an n not an integer in [1, 2^58),
    radii not positive or with no finite diameter, a negative or non-finite ``min_center_distance``, or when
    ``MAX_BATCHES`` batches yield fewer than n positions (too little room away from the centers).
    """
    n = check_count(n, "sample count", 1, 58)  # the (n, 3) output's 24 n bytes stay below numpy's 2^63
    half_max = 0.5 * float(np.finfo(float).max)  # the cube is drawn as -r + 2r u: a radius needs a finite diameter
    q_radius, p_radius = check_number(q_radius, "q_radius", half_max), check_number(p_radius, "p_radius", half_max)
    min_center_distance = check_number(min_center_distance, "min_center_distance", closed=True)

    def clear_of_centers(batch):
        d_minus, d_plus = on_columns(CENTER_DISTANCES, prob, *batch.T)  # drawn here: finite, (m, 3)
        return (d_minus > min_center_distance) & (d_plus > min_center_distance)

    qs = _ball_points(rng, n, q_radius, clear_of_centers)
    ps = _ball_points(rng, n, p_radius)
    return qs, ps


def _ball_points(rng, n, radius, accept=None):
    """n points uniform in the ball of ``radius`` (and passing ``accept``), from cube batches.

    Each batch of 2n + 16 candidates is drawn into one reused buffer and tested
    in blocks of ``_BLOCK`` rows, which keeps the work in cache.  The blocks
    consume the generator numbers of one draw of the batch, and -r + 2r u is how
    ``rng.uniform(-r, r)`` computes a point, so the points are bit-identical.
    Accepted rows go straight into the one (n, 3) output.  Once it is full, the
    batch's remaining blocks are drawn but not tested, so that later draws see
    the same stream.
    """
    size = 2 * n + 16
    buffer = np.empty((min(_BLOCK, size), 3))
    points = np.empty((n, 3))
    found = 0
    for _ in range(MAX_BATCHES):
        for start in range(0, size, _BLOCK):
            block = rng.random(out=buffer[: size - start])
            if found == n:
                continue  # drawn all the same: the p ball sees the same stream
            block *= 2.0 * radius
            block += -radius
            x, y, z = block[:, 0], block[:, 1], block[:, 2]
            # np.compress selects the same rows as boolean indexing, several times faster
            block = np.compress(x * x + y * y + z * z <= radius * radius, block, axis=0)
            if accept is not None:
                block = np.compress(accept(block), block, axis=0)
            taken = min(len(block), n - found)
            points[found : found + taken] = block[:taken]
            found += taken
        if found == n:
            return points
    raise InvalidInputError(
        f"only {found} of {n} points accepted in {MAX_BATCHES} batches; "
        "the ball leaves too little room farther than min_center_distance from both centers"
    )
