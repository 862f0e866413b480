"""Weighted geometry behind the ellipsoid projection.

The ambient space is R^4 with coordinates (x, y, z, w).  A diagonal norm
with weights (1, 1/(1+a^2), 1/(1+a^2), 1) turns its unit set into an
axis-aligned ellipsoid of revolution; points of the affine slice w = 1 are
carried onto the W > 0 half of that ellipsoid by central projection
through the origin.  That map is one-to-one, with inverse Q -> Q / W, so a
point of the ellipsoid is always held as the (..., 4) array of its
projection, never as an object of its own; with its velocity, it is the
lift ``LIFT`` of a planar state.  The weights depend on a alone, through
``wyz`` = 1/(1+a^2) of the ``dynamics.Problem``, and :func:`star` spells the
product (u, v)_* for every template.  All operations here are pure and
accept batches (leading axes broadcast).
"""

from __future__ import annotations

import math
import numbers
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


def _shown(value) -> str:  # repr, but an int beyond the float range may be too long to print
    return "an int beyond the float range" if isinstance(value, int) and not -2**1024 < value < 2**1024 else repr(value)


def check_number(value, name: str, high: float = math.inf, closed: bool = False) -> float:
    """``value`` as a Python float, by the one validation rule of a real input: a real number
    (numpy's too, not a ``bool``), then finite, then above 0 (or at 0 when ``closed``) and at
    most ``high``, each refused with :class:`InvalidInputError` naming ``name`` and the value."""
    try:  # float is tested before the numbers.Real ABC, whose check alone takes about 0.35 us
        number = float(value) if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if number == math.inf or not (0.0 <= number if closed else 0.0 < number) or number > high:  # NaN is in no range
        rule = ("nonnegative" if closed else "positive") + ("" if high == math.inf else f" and at most {high!r}")
        raise InvalidInputError(f"{name} must be {'finite' if number == math.inf else rule}, got {_shown(value)}")
    return number


def check_count(value, name: str, least: int, bits: int = 63) -> int:
    """``value`` as an int, by the one validation rule of a count or a seed: an integer (numpy's too,
    not a ``bool``) with least <= value < 2^bits (63: a numpy index), else :class:`InvalidInputError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not least <= value < 2**bits:
        raise InvalidInputError(f"{name} must be an integer in [{least}, 2^{bits}), got {_shown(value)}")
    return int(value)


def star(u, v) -> str:
    """Source of (u, v)_* = u0 v0 + wyz u1 v1 + wyz u2 v2 + u3 v3 on the names ``u`` and ``v``."""
    return f"{u[0]} * {v[0]} + wyz * {u[1]} * {v[1]} + wyz * {u[2]} * {v[2]} + {u[3]} * {v[3]}"


# (u, v)_* of two (..., 4) batches, as a template (see codegen).  It adds the terms onto
# +0.0, as numpy's reduction of a last axis does, so a sum of four -0.0 reads +0.0.
_U, _V = ("u0", "u1", "u2", "u3"), ("v0", "v1", "v2", "v3")
STAR = RhsTemplate("(u, v)_*", _U + _V, ("wyz",), "", ("0.0 + " + star(_U, _V),))


def star_norm(v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Weighted norm sqrt(x^2 + y^2/(1+a^2) + z^2/(1+a^2) + w^2), a = ``prob.a``, over
    the last axis of a (..., 4) ``v``, checked by :func:`columns`: the root of ``STAR`` on (v, v)."""
    v = columns(v, 4, "v")
    return np.sqrt(compile_columns(STAR)(*v, *v, prob.wyz)[0])


def star_inner(u: np.ndarray, v: np.ndarray, prob: Problem) -> float | np.ndarray:
    """Symmetric bilinear form associated with :func:`star_norm`, on (..., 4) batches
    that broadcast, checked by :func:`pair_columns`: the column form of ``STAR``."""
    return compile_columns(STAR)(*pair_columns(u, v, 4, ("u", "v")), prob.wyz)[0]


# The lift of a slice point and its velocity, (q, p) -> (Q, Q'), as a template (see
# codegen): Q = (q, 1)/n with n = |(q, 1)|_*, the one division, and
# Q' = (p, 0) n - (q, 1) (Q, (p, 0))_*.  The sums are ``star`` on (q, 1) and on Q and
# (p, 0), folded where a factor is the literal 1 (1 * u is u) or 0: the "+ 0.0" is the
# W term Q_w * 0 of the radial sum, which turns a radial part of -0.0 into +0.0.  A q
# whose |(q, 1)|_*^2 overflows is refused, naming the first: its projected point would be lost.
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
