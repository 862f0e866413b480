"""Closed-form oracles that the tests hold the package's evaluators against."""

import numpy as np


def lifted_speed_squared(q, p, prob):
    """Closed-form |Q'|_*^2 of the lift, bypassing it.

    The weighted Lagrange identity |q|_*^2 |p|_*^2 - (q, p)_*^2 for the
    embedded (q, 1) and (p, 0), term by term with w = 1/(1+a^2):
    xd^2 + w yd^2 + w zd^2 + w (x yd - y xd)^2 + w^2 (y zd - z yd)^2
    + w (z xd - x zd)^2.  ``q`` and ``p`` have shape (..., 3).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    x, y, z = q[..., 0], q[..., 1], q[..., 2]
    xd, yd, zd = p[..., 0], p[..., 1], p[..., 2]
    w = prob.wyz
    return (
        xd**2
        + w * yd**2
        + w * zd**2
        + w * (x * yd - y * xd) ** 2
        + w * w * (y * zd - z * yd) ** 2
        + w * (z * xd - x * zd) ** 2
    )


def star_weights(prob):
    """The weights (1, 1/(1+a^2), 1/(1+a^2), 1) of |.|_*, from ``prob.a`` alone, for
    numpy reductions over a last axis of size 4."""
    wyz = 1.0 / (1.0 + prob.a * prob.a)
    return np.array([1.0, wyz, wyz, 1.0])


def slice_point(q):
    """(q, 1): points q of shape (..., 3) as points of the slice w = 1 of R^4."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([q, np.ones(q.shape[:-1] + (1,))], axis=-1)
