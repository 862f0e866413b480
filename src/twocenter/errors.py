"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Non-finite, mis-shaped, or invariant-violating input."""


class NearCollisionError(RuntimeError):
    """Evaluation requested closer to an attracting center than the guard distance."""


class CenterRayError(ValueError):
    """Ellipsoid point on the projection ray of an attracting center."""


class RankDeficientError(RuntimeError):
    """Least-squares sample set remained rank deficient after resampling."""
