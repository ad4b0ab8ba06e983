"""Randomized preconditioned Cholesky-QR for tall-skinny matrices.

Library layout:

* :mod:`rpcqr.kernels` -- internal dense linear-algebra primitives, which
  trust their callers: each exported function checks its own arguments
* :mod:`rpcqr.transforms` -- internal too: the preconditioner's sign flip,
  DCT and row sampling stages, and the seed rule
* :mod:`rpcqr.algorithms` -- three Cholesky-QR factorizations, two of them
  over one internal preconditioned pass
* :mod:`rpcqr.bounds` -- closed-form accuracy bound evaluators
* :mod:`rpcqr.genmat` -- seeded test-matrix generators
* :mod:`rpcqr.metrics` -- measured accuracy quantities
* :mod:`rpcqr.harness` / :mod:`rpcqr.cli` -- experiment sweeps and CSV output
"""

from .algorithms import cholesky_qr, cholesky_qr2, rp_cholesky_qr
from .bounds import (
    BoundSet,
    GrowthFactors,
    PerturbationSet,
    SamplingBound,
    basic_bounds,
    first_order_bounds,
    growth_factors,
    ortho_estimate,
    preconditioned_bounds,
    sampling_lower_bound,
)
from .errors import (
    CholeskyBreakdown,
    DomainError,
    NoConvergenceError,
    RankDeficientSampleError,
)
from .genmat import (
    haar_frame,
    haar_rotated,
    randsvd,
    worst_coherence_stack,
)
from .kernels import EPS, QRFactors
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    format_summary,
    load_config,
    run_experiment,
)
from .metrics import ortho_deviation, rel_residual

__version__ = "0.1.0"
