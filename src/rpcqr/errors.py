"""Typed failure modes shared across the library."""


class CholeskyBreakdown(Exception):
    """Cholesky hit a non-positive or a non-finite pivot.

    The Gram matrix was numerically indefinite, or it overflowed.
    ``pivot_index`` is 0-based; ``stage`` is set when the breakdown happened
    inside a multi-stage algorithm (1 or 2 for the two-stage variant).
    """

    def __init__(self, pivot_index, pivot_value, stage=None):
        super().__init__(pivot_index, pivot_value, stage)  # args for pickle
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.stage = stage

    def __str__(self):
        stage = "" if self.stage is None else f" (stage {self.stage})"
        return (f"unusable pivot {float(self.pivot_value)} at index "
                f"{self.pivot_index}{stage}")


class NoConvergenceError(Exception):
    """An iterative eigenvalue/singular-value computation failed to converge."""


class RankDeficientSampleError(Exception):
    """The sampled row matrix is numerically rank deficient.

    The harness records it as a breakdown row, on the row's own seed; no
    code retries with another seed.
    """


class DomainError(ValueError):
    """A scalar argument is outside its mathematically valid range."""
