import types

import rpcqr

# Every name the package exports.  Adding or removing one is a deliberate
# change to the public API, so it is an edit of this list too.
EXPORTS = [
    "BoundSet", "CSV_COLUMNS", "CholeskyBreakdown", "ConfigError",
    "DomainError", "EPS", "ExperimentConfig", "GrowthFactors",
    "NoConvergenceError", "PerturbationSet",
    "QRFactors", "RankDeficientSampleError", "SamplingBound", "basic_bounds",
    "cholesky_qr", "cholesky_qr2", "emit_csv",
    "first_order_bounds", "format_summary", "growth_factors", "haar_frame",
    "haar_rotated", "load_config", "ortho_deviation", "ortho_estimate",
    "preconditioned_bounds", "randsvd", "rel_residual", "rp_cholesky_qr",
    "run_experiment", "sampling_lower_bound", "worst_coherence_stack",
]


def test_exported_names():
    # Submodules (rpcqr.kernels, ...) are attributes too once imported, but
    # they are layers, not exports.
    names = sorted(name for name, value in vars(rpcqr).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == EXPORTS
