"""Typed failure modes shared across the library."""


class CholeskyBreakdown(Exception):
    """Cholesky hit a non-positive or a non-finite pivot.

    The Gram matrix was numerically indefinite, or it overflowed.
    ``pivot_index`` is 0-based; ``stage`` is set when the breakdown happened
    inside a multi-stage algorithm (1 or 2 for the two-stage variant).
    """

    def __init__(self, pivot_index, pivot_value, stage=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.stage = stage
        msg = f"unusable pivot {pivot_value!r} at index {pivot_index}"
        if stage is not None:
            msg += f" (stage {stage})"
        super().__init__(msg)


class SingularTriangularError(Exception):
    """Triangular solve against a matrix with a zero/non-finite diagonal entry."""


class NoConvergenceError(Exception):
    """An iterative eigenvalue/singular-value computation failed to converge."""


class NotOrthonormalError(Exception):
    """Input expected to have (nearly) orthonormal columns does not."""


class RankDeficientSampleError(Exception):
    """The sampled row matrix is numerically rank deficient.

    The harness records it as a breakdown row, on the row's own seed; no
    code retries with another seed.
    """


class DomainError(ValueError):
    """A scalar argument is outside its mathematically valid range."""
