"""Weighted geometry behind the ellipsoid projection.

The ambient space is R^4 with coordinates (x, y, z, w).  A diagonal norm
with weights (1, 1/(1+a^2), 1/(1+a^2), 1) turns its unit set into an
axis-aligned ellipsoid of revolution; points of the affine slice w = 1 are
carried onto the W > 0 half of that ellipsoid by central projection
through the origin.  That map is one-to-one, with inverse Q -> Q / W, so a
point of the ellipsoid is always held as the (..., 4) array of its
projection, never as an object of its own.  The weights depend on the
half-distance a alone, so the functions here take the ``dynamics.Problem``
and read its ``weights``.  All operations here are pure and accept batches
(leading axes broadcast).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:  # dynamics imports this module
    from .dynamics import Problem


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise :class:`InvalidInputError` unless every component of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must have finite components")


def columns(v: np.ndarray, size: int, name: str) -> tuple[np.ndarray, ...]:
    """Views of the components of a (..., size) array, for column-by-column kernels."""
    if v.shape[-1:] != (size,):
        raise InvalidInputError(f"{name} must have shape (..., {size}), got {v.shape}")
    return tuple(v[..., i] for i in range(size))


def pair_columns(q, p, size: int = 3, names: tuple[str, str] = ("q", "p")) -> tuple[np.ndarray, ...]:
    """The 2 x ``size`` column views of two (..., size) batches, q's then p's.

    The one validation rule of the public evaluators of two batches: the
    last axis of q, then of p, then that the shapes broadcast, then that q
    and then p are finite, each refused with :class:`InvalidInputError`.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    views = columns(q, size, names[0]) + columns(p, size, names[1])
    try:
        np.broadcast_shapes(q.shape, p.shape)
    except ValueError:
        shapes = f"{names[0]} of shape {q.shape} and {names[1]} of shape {p.shape}"
        raise InvalidInputError(f"{shapes} do not broadcast") from None
    check_finite(q, names[0])
    check_finite(p, names[1])
    return views


def star_norm(v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Weighted norm sqrt(x^2 + y^2/(1+a^2) + z^2/(1+a^2) + w^2), a = ``prob.a``.

    ``v`` has shape (..., 4); the norm is taken over the last axis.
    """
    v = np.asarray(v, dtype=float)
    check_finite(v, "v")
    return np.sqrt(np.sum(prob.weights * v * v, axis=-1))


def star_inner(u: np.ndarray, v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Symmetric bilinear form associated with :func:`star_norm`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    check_finite(u, "u")
    check_finite(v, "v")
    return np.sum(prob.weights * u * v, axis=-1)


def project_columns(x, y, z, wyz):
    """Column form of the projection: ((Q_x, Q_y, Q_z, Q_w), n) for q's columns
    x, y, z, with n = |(q, 1)|_* and Q = (q, 1)/n, the one division.

    ``wyz`` is 1/(1+a^2).  The sum keeps the left-to-right order of the
    weighted reduction ``star_norm`` on (q, 1).  A q whose |(q, 1)|_*^2
    overflows is refused, naming the first: its projected point would be lost.
    """
    with np.errstate(over="ignore"):
        n2 = x * x + wyz * y * y + wyz * z * z + 1.0
    finite = np.isfinite(n2)
    if not finite.all():
        row = np.unravel_index(np.argmin(finite), finite.shape)
        raise InvalidInputError(f"|(q, 1)|_* overflows at q = {[float(c[row]) for c in (x, y, z)]}")
    n = np.sqrt(n2)
    return (x / n, y / n, z / n, 1.0 / n), n


def project(q3: np.ndarray, prob: Problem) -> np.ndarray:
    """Centrally project points q of the slice w = 1, given as (..., 3), onto the ellipsoid.

    Each (q, 1) is divided by its norm, which is positive because w = 1, so
    the (..., 4) result lies on the W > 0 sheet; a q whose norm overflows
    is refused (:func:`project_columns`).
    """
    q3 = np.asarray(q3, dtype=float)
    q_columns = columns(q3, 3, "q")
    check_finite(q3, "q")
    return np.stack(project_columns(*q_columns, prob.wyz)[0], axis=-1)
