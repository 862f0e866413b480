"""Weighted geometry behind the ellipsoid projection.

The ambient space is R^4 with coordinates (x, y, z, w).  A diagonal norm
with weights (1, 1/(1+a^2), 1/(1+a^2), 1) turns its unit set into an
axis-aligned ellipsoid of revolution; points of the affine slice w = 1 are
carried onto the W > 0 half of that ellipsoid by central projection
through the origin.  All operations here are pure and accept batches
(leading axes broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, WrongBranchError

# Constructor renormalization window for points claiming to sit on the ellipsoid.
NORM_TOL = 1e-9

# Below this W the inverse projection would overflow when squaring 1/W downstream.
UNPROJECT_GUARD = 1e-150


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


@dataclass(frozen=True, eq=False)
class EllipsoidPoint:
    """Point Q on the unit star-norm set, restricted to the W > 0 sheet.

    Construction renormalizes inputs whose norm is within ``NORM_TOL`` of
    unity (this absorbs integrator drift) and rejects anything farther out,
    so a silently off-manifold point can never enter downstream operations.
    """

    vec: np.ndarray
    metric: StarMetric

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float)
        if vec.shape != (4,):
            raise InvalidInputError(f"Q must have shape (4,), got {vec.shape}")
        check_finite(vec, "Q")
        n = float(star_norm(vec, self.metric))
        if abs(n - 1.0) > NORM_TOL:
            raise InvalidInputError(f"|star_norm(Q) - 1| = {abs(n - 1.0):.3e} exceeds {NORM_TOL:g}")
        vec = vec / n
        if vec[3] <= 0.0:
            raise WrongBranchError("Q lies on the W <= 0 sheet; only W > 0 points are admitted")
        object.__setattr__(self, "vec", vec)

    @property
    def w(self) -> float:
        """The W coordinate (value of the height function at Q)."""
        return float(self.vec[3])


def embed(q3: np.ndarray) -> np.ndarray:
    """Embed 3-vectors (..., 3) into the affine slice w = 1 of R^4."""
    q3 = np.asarray(q3, dtype=float)
    return np.concatenate([q3, np.ones(q3.shape[:-1] + (1,))], axis=-1)


def _project_array(q: np.ndarray, metric: StarMetric) -> np.ndarray:
    """Raw central projection q / star_norm(q) for batched input."""
    q = np.asarray(q, dtype=float)
    n = star_norm(q, metric)
    return q / np.expand_dims(n, -1)


def project(q: np.ndarray, metric: StarMetric) -> EllipsoidPoint:
    """Centrally project a point of the slice w = 1 onto the ellipsoid.

    The result is the intersection of the ray through the origin and ``q``
    with the W > 0 sheet; it is well defined because w = 1 forces a
    positive norm.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise InvalidInputError(f"q must have shape (4,), got {q.shape}")
    check_finite(q, "q")
    if q[3] != 1.0:
        raise InvalidInputError(f"q must lie on the slice w = 1, got w = {q[3]!r}")
    return EllipsoidPoint(_project_array(q, metric), metric)


def unproject(point: EllipsoidPoint) -> np.ndarray:
    """Map an ellipsoid point back to the slice w = 1 (inverse of :func:`project`)."""
    w = point.w
    if w <= UNPROJECT_GUARD:
        raise WrongBranchError(f"W = {w:.3e} is too small to invert without overflow")
    q = point.vec / w
    q[3] = 1.0
    return q


def duality_residual(q: np.ndarray, metric: StarMetric) -> float | np.ndarray:
    """Residual of the pairing between projection height and source norm.

    For every q on the slice w = 1 the product of the projected point's W
    coordinate and star_norm(q) equals 1 exactly; the returned value is
    that product minus one and stays at roundoff level (|r| <= 1e-13).
    """
    q = np.asarray(q, dtype=float)
    check_finite(q, "q")
    n = star_norm(q, metric)
    proj = q / np.expand_dims(n, -1)
    return proj[..., 3] * n - 1.0
