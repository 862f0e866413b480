"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Non-finite, mis-shaped, or invariant-violating input."""


class NearCollisionError(RuntimeError):
    """Evaluation requested closer to an attracting center than the guard distance."""


class RankDeficientError(RuntimeError):
    """Least-squares sample set is rank deficient."""
