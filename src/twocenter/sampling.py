"""Reproducible phase-space sampling.

All random sweeps in the package draw from a counter-based Philox
generator keyed by a 64-bit seed, so fixture values are bit-reproducible
across platforms and process counts.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Problem, center_distances
from .errors import InvalidInputError

# Rejection batches of 2n + 16 candidates drawn before giving up on n points.
MAX_BATCHES = 100

# Candidate rows drawn and tested at a time within a batch.
_BLOCK = 65536


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


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
    Returns arrays of shape (n, 3).  Raises :class:`InvalidInputError` for
    radii that are not finite and positive, a negative or non-finite
    ``min_center_distance``, or when ``MAX_BATCHES`` batches yield fewer
    than n positions (the ball has too little room away from the centers).
    """
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    for name, radius in (("q_radius", q_radius), ("p_radius", p_radius)):
        if not 0.0 < radius < np.inf:
            raise InvalidInputError(f"{name} must be finite and positive, got {radius!r}")
    if not 0.0 <= min_center_distance < np.inf:
        raise InvalidInputError(
            f"min_center_distance must be finite and nonnegative, got {min_center_distance!r}"
        )

    def clear_of_centers(batch):
        d_minus, d_plus = center_distances(batch, prob)
        return (d_minus > min_center_distance) & (d_plus > min_center_distance)

    qs = _ball_points(rng, n, q_radius, clear_of_centers)
    ps = _ball_points(rng, n, p_radius)
    return qs, ps


def _ball_points(rng, n, radius, accept=None):
    """n points uniform in the ball of ``radius`` (and passing ``accept``), from cube batches.

    Each batch of 2n + 16 candidates is drawn and tested in blocks of
    ``_BLOCK`` rows, which keeps the work in cache; the blocks consume the
    same generator numbers in the same order as one draw of the batch.
    """
    size = 2 * n + 16
    chunks = []
    found = 0
    for _ in range(MAX_BATCHES):
        for start in range(0, size, _BLOCK):
            block = rng.uniform(-radius, radius, size=(min(_BLOCK, size - start), 3))
            x, y, z = block[:, 0], block[:, 1], block[:, 2]
            # np.compress selects the same rows as boolean indexing, several times faster
            block = np.compress(x * x + y * y + z * z <= radius * radius, block, axis=0)
            if accept is not None:
                block = np.compress(accept(block), block, axis=0)
            chunks.append(block)
            found += len(block)
        if found >= n:
            return np.concatenate(chunks)[:n]
    raise InvalidInputError(
        f"only {found} of {n} points accepted in {MAX_BATCHES} batches; "
        "the ball leaves too little room farther than min_center_distance from both centers"
    )
