"""Randomized preconditioned Cholesky-QR for tall-skinny matrices.

Library layout:

* :mod:`rpcqr.kernels` -- dense linear-algebra primitives
* :mod:`rpcqr.transforms` -- sign flip / DCT smoothing, row sampling and
  the seed rule
* :mod:`rpcqr.algorithms` -- the Cholesky-QR family of factorizations
* :mod:`rpcqr.bounds` -- closed-form accuracy bound evaluators
* :mod:`rpcqr.genmat` -- seeded test-matrix generators
* :mod:`rpcqr.metrics` -- measured accuracy quantities
* :mod:`rpcqr.harness` / :mod:`rpcqr.cli` -- experiment sweeps and CSV output
"""

from .algorithms import (
    build_preconditioner,
    cholesky_qr,
    cholesky_qr2,
    preconditioned_cholesky_qr,
    rp_cholesky_qr,
)
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
    NotOrthonormalError,
    RankDeficientSampleError,
    SingularTriangularError,
)
from .genmat import (
    haar_frame,
    haar_rotated,
    randsvd,
    worst_coherence_stack,
)
from .kernels import (
    EPS,
    QRFactors,
    cholesky,
    gram,
    householder_qr,
    singular_values,
    spectral_norm,
    sym_eigenvalues,
    tri_solve_right,
)
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    format_summary,
    load_config,
    run_experiment,
)
from .metrics import coherence, cond2, eta, ortho_deviation, rel_residual
from .transforms import dct_columns, rademacher_diag, sample_rows

__version__ = "0.1.0"
