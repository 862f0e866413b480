"""Weighted geometry behind the ellipsoid projection.

The ambient space is R^4 with coordinates (x, y, z, w).  A diagonal norm
with weights (1, 1/(1+a^2), 1/(1+a^2), 1) turns its unit set into an
axis-aligned ellipsoid of revolution; points of the affine slice w = 1 are
carried onto the W > 0 half of that ellipsoid by central projection
through the origin.  That map is one-to-one, with inverse Q -> Q / W, so a
point of the ellipsoid is always held as the (..., 4) array of its
projection, never as an object of its own.  All operations here are pure
and accept batches (leading axes broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


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


@dataclass(frozen=True)
class StarMetric:
    """Diagonal metric (1, 1/(1+a^2), 1/(1+a^2), 1) on R^4.

    ``a`` is the half-distance between the attracting centers; the unit set
    of the induced norm is the ellipsoid the planar problem projects onto.
    For a = 1 the weights are (1, 1/2, 1/2, 1).
    """

    a: float = 1.0

    def __post_init__(self):
        a = float(self.a)
        if not np.isfinite(a) or a <= 0.0:
            raise InvalidInputError(f"half-distance a must be finite and positive, got {self.a!r}")
        if not np.isfinite(1.0 + a * a):  # above about 1.34e154 the norm would lose y and z
            raise InvalidInputError(f"half-distance a must keep 1 + a^2 finite, got {self.a!r}")
        object.__setattr__(self, "a", a)
        wyz = 1.0 / (1.0 + a * a)
        object.__setattr__(self, "_weights", np.array([1.0, wyz, wyz, 1.0]))

    @property
    def weights(self) -> np.ndarray:
        """The four diagonal weights as an array."""
        return self._weights


def star_norm(v: np.ndarray, metric: StarMetric) -> float | np.ndarray:
    """Weighted norm sqrt(x^2 + y^2/(1+a^2) + z^2/(1+a^2) + w^2).

    ``v`` has shape (..., 4); the norm is taken over the last axis.
    """
    v = np.asarray(v, dtype=float)
    check_finite(v, "v")
    return np.sqrt(np.sum(metric.weights * v * v, axis=-1))


def star_inner(u: np.ndarray, v: np.ndarray, metric: StarMetric) -> float | np.ndarray:
    """Symmetric bilinear form associated with :func:`star_norm`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    check_finite(u, "u")
    check_finite(v, "v")
    return np.sum(metric.weights * u * v, axis=-1)


def embed(q3: np.ndarray) -> np.ndarray:
    """Embed 3-vectors (..., 3) into the affine slice w = 1 of R^4."""
    q3 = np.asarray(q3, dtype=float)
    return np.concatenate([q3, np.ones(q3.shape[:-1] + (1,))], axis=-1)


def project(q3: np.ndarray, metric: StarMetric) -> np.ndarray:
    """Centrally project points q of the slice w = 1, given as (..., 3), onto the ellipsoid.

    Each (q, 1) is divided by its norm, which is positive because w = 1, so
    the (..., 4) result lies on the W > 0 sheet.  The quotient is divided by
    its own norm once more.  That moves only last bits, but the recorded
    figures and trajectory hashes were taken with it: without it for the
    field points alone, the a = 2 velocity-independence figure moves from
    8.27320961560851e-09 to 8.27320644726578e-09.
    """
    q3 = np.asarray(q3, dtype=float)
    if q3.shape[-1:] != (3,):
        raise InvalidInputError(f"q must have shape (..., 3), got {q3.shape}")
    check_finite(q3, "q")
    big_q = embed(q3)
    big_q = big_q / np.expand_dims(star_norm(big_q, metric), -1)
    return big_q / np.expand_dims(star_norm(big_q, metric), -1)
