"""Weighted geometry behind the ellipsoid projection.

The ambient space is R^4 with coordinates (x, y, z, w).  A diagonal norm
with weights (1, 1/(1+a^2), 1/(1+a^2), 1) turns its unit set into an
axis-aligned ellipsoid of revolution; points of the affine slice w = 1 are
carried onto the W > 0 half of that ellipsoid by central projection
through the origin.  That map is one-to-one, with inverse Q -> Q / W, so a
point of the ellipsoid is always held as the (..., 4) array of its
projection, never as an object of its own; with its velocity, it is the
lift ``LIFT`` of a planar state.  The weights depend on the
half-distance a alone, so the functions here take the ``dynamics.Problem``
and read its ``weights``.  All operations here are pure and accept batches
(leading axes broadcast).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .codegen import Guard, RhsTemplate, compile_columns
from .errors import InvalidInputError

if TYPE_CHECKING:  # dynamics imports this module
    from .dynamics import Problem


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise :class:`InvalidInputError` unless every component of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must have finite components")


def columns(v, size: int, name: str) -> tuple[np.ndarray, ...]:
    """Views of the components of a (..., size) batch, for column-by-column kernels, by
    the one validation rule of a batch: ``v`` as a float array, then its last axis, then
    its finiteness, each refused with :class:`InvalidInputError` naming ``name``."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (size,):
        raise InvalidInputError(f"{name} must have shape (..., {size}), got {v.shape}")
    check_finite(v, name)
    return tuple(v[..., i] for i in range(size))


def pair_columns(q, p, size: int = 3, names: tuple[str, str] = ("q", "p")) -> tuple[np.ndarray, ...]:
    """The 2 x ``size`` column views of two (..., size) batches, q's then p's, broadcast to
    one shape, as the in-place column forms need (see codegen), by the one validation rule
    of two batches: q by the rule of :func:`columns` (its last axis, then its finiteness),
    then p by it, then that the two shapes broadcast, each refused with :class:`InvalidInputError`."""
    views = columns(q, size, names[0]) + columns(p, size, names[1])
    if views[0].shape == views[size].shape:
        return views
    try:
        return tuple(np.broadcast_arrays(*views))
    except ValueError:
        shapes = f"{names[0]} of shape {(*views[0].shape, size)} and {names[1]} of shape {(*views[size].shape, size)}"
        raise InvalidInputError(f"{shapes} do not broadcast") from None


def check_grid(times) -> np.ndarray:
    """``times`` as a float array, by the one validation rule of a time grid: 1-d and
    nonempty, then finite, then strictly increasing, each refused with :class:`InvalidInputError`."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidInputError("times must be a nonempty 1-d grid")
    check_finite(times, "times")
    if (times[1:] <= times[:-1]).any():
        raise InvalidInputError("times must be strictly increasing")
    return times


def star_norm(v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Weighted norm sqrt(x^2 + y^2/(1+a^2) + z^2/(1+a^2) + w^2), a = ``prob.a``, over
    the last axis of a (..., 4) ``v``, checked by :func:`columns`."""
    v = np.asarray(v, dtype=float)
    columns(v, 4, "v")
    return np.sqrt(np.sum(prob.weights * v * v, axis=-1))


def star_inner(u: np.ndarray, v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Symmetric bilinear form associated with :func:`star_norm`, on (..., 4) batches
    that broadcast, checked by :func:`pair_columns`."""
    pair_columns(u, v, 4, ("u", "v"))
    return np.sum(prob.weights * np.asarray(u, dtype=float) * np.asarray(v, dtype=float), axis=-1)


# The lift of a slice point and its velocity, (q, p) -> (Q, Q'), as a template (see
# codegen): Q = (q, 1)/n with n = |(q, 1)|_*, the one division, and
# Q' = (p, 0) n - (q, 1) (Q, (p, 0))_*.  The sums keep the left-to-right order of
# the weighted reductions ``star_norm`` on (q, 1) and ``star_inner`` on Q and
# (p, 0), so they are bit-identical to them; the "+ 0.0" is the W term Q_w * 0 of
# the radial sum, which turns a radial part of -0.0 into +0.0.  A q whose
# |(q, 1)|_*^2 overflows is refused, naming the first: its projected point would be lost.
LIFT = RhsTemplate(
    name="lift",
    state=("x", "y", "z", "px", "py", "pz"),
    params=("wyz",),
    guard=Guard("n2 = x * x + wyz * y * y + wyz * z * z + 1.0", "n2 == inf", InvalidInputError,
                "|(q, 1)|_* overflows at q = {[x, y, z]}"),
    body="""\
n = sqrt(n2)
qx = x / n
qy = y / n
qz = z / n
radial = qx * px + wyz * qy * py + wyz * qz * pz + 0.0""",
    derivative=("qx", "qy", "qz", "1.0 / n", "px * n - x * radial", "py * n - y * radial", "pz * n - z * radial",
                "0.0 - radial"),
)


def project(q3: np.ndarray, prob: Problem) -> np.ndarray:
    """Centrally project points q of the slice w = 1, given as (..., 3), onto the ellipsoid.

    Each (q, 1) is divided by its norm, which is positive because w = 1, so
    the (..., 4) result lies on the W > 0 sheet: the Q half of ``LIFT`` at
    p = 0, which refuses a q whose norm overflows; q is checked by :func:`columns`.
    """
    return np.stack(compile_columns(LIFT)(*columns(q3, 3, "q"), 0.0, 0.0, 0.0, prob.wyz)[:4], axis=-1)
