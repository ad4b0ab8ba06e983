"""How accuracy improves with the number of sampled rows.

Sweeps the sampling amount c from 2n to 8n on a numerically singular
matrix and prints, per c: the geometric-mean deviation from orthonormality,
the residual, and the condition number of the preconditioned matrix.
More samples -> better preconditioner -> smaller deviation, while the
residual sits at roundoff regardless.
"""

from rpcqr import ExperimentConfig, format_summary, run_experiment

config = ExperimentConfig(
    matrix_kind="worst_coherence",
    m=1000,
    n=50,
    kappa=1e15,
    c_list=[100, 150, 200, 300, 400],
    trials=10,
    method="rp",
    master_seed=42,
)

rows = run_experiment(config)
print(format_summary(config, rows))

breakdowns = sum(r["breakdown"] for r in rows)
print(f"\n{len(rows)} trials, {breakdowns} breakdowns")
print("`rpcqr run` prints the same table for these settings "
      "and, with --out, writes the rows as CSV")
