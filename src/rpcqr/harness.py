"""Seeded experiment sweeps and CSV emission.

Every trial seed derives from (master_seed, sweep point index, trial index,
method) through ``numpy.random.SeedSequence``, whose hashing is documented
stable, so any CSV row can be replayed in isolation.  The test matrix is
fixed per sweep point; only the sampling seed varies across trials.

Breakdowns never abort a sweep: they become rows with breakdown=true and
empty metric cells.
"""

import csv
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional

import numpy as np

from .algorithms import cholesky_qr, cholesky_qr2, preconditioned_cholesky_qr, rp_cholesky_qr
from .bounds import ortho_estimate
from .errors import CholeskyBreakdown, RankDeficientSampleError
from .genmat import haar_rotated, worst_coherence_stack
from .kernels import householder_r
from .metrics import cond2, eta, ortho_deviation, rel_residual

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "experiment",
    "matrix_kind",
    "m",
    "n",
    "c",
    "kappa_target",
    "trial",
    "seed",
    "method",
    "breakdown",
    "deviation",
    "residual",
    "kappa_A1",
    "eta",
    "estimate_5_2",
    "wall_time_s",
]

_MATRIX_TAG = 0xA117  # reserved tag for matrix-generation seeds
RANK_DEFICIENT_RETRIES = 3  # fresh-seed reruns of rp after a bad row sample


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    matrix_kind: str = "worst_coherence"
    m: int = 2000
    n: Optional[int] = None
    n_list: Optional[List[int]] = None
    c: Optional[int] = None
    c_list: Optional[List[int]] = None
    kappa: float = 1e15
    method: str = "rp"
    trials: int = 10
    master_seed: int = 0
    output_path: Optional[str] = None

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.matrix_kind not in MATRIX_KINDS:
            raise ConfigError(f"unknown matrix_kind {self.matrix_kind!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        ints = [self.m, self.trials, self.master_seed, self.n, self.c,
                *(self.n_list or ()), *(self.c_list or ())]
        if any(type(v) is not int for v in ints if v is not None):
            raise ConfigError("m, n, c, n_list, c_list, trials and "
                              "master_seed must be integers")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if not (self.kappa >= 1.0 and math.isfinite(self.kappa)):
            raise ConfigError(f"kappa must be finite and >= 1, got {self.kappa}")
        if (self.experiment == "compare_cqr2"
                and self.matrix_kind != "haar_rotated"):
            raise ConfigError("compare_cqr2 requires matrix_kind=haar_rotated")
        for n, c in sweep_points(self):
            if not 1 <= n <= self.m:
                raise ConfigError(f"every n must satisfy 1 <= n <= m={self.m}")
            if c is not None and c < n:
                raise ConfigError(f"every c must be >= n, got c={c}, n={n}")
        return self


def load_config(path):
    """Load an ExperimentConfig from a JSON key-value file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid config syntax: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if raw.pop("schema_version", None) != SCHEMA_VERSION:
        raise ConfigError(f"{path}: missing or unsupported schema_version")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        return ExperimentConfig(**raw).validate()
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def derive_seed(master_seed, point_index, trial_index, method):
    """Stable per-trial seed; distinct (point, trial, method) never collide."""
    ss = np.random.SeedSequence(
        [int(master_seed), int(point_index), int(trial_index),
         METHODS[method].code]
    )
    return int(ss.generate_state(1, np.uint64)[0])


def derive_matrix_seed(master_seed, point_index):
    ss = np.random.SeedSequence([int(master_seed), int(point_index),
                                 _MATRIX_TAG])
    return int(ss.generate_state(1, np.uint64)[0])


def sweep_points(config):
    """The (n, c) points of ``config``'s experiment, in run order.

    ``sweep_n``, and ``compare_cqr2`` given ``n_list``, sample c = 3n rows;
    ``sweep_c``, and ``compare_cqr2`` given ``c_list``, sweep c at fixed n;
    ``single`` takes ``c``, or 3n when its method samples rows.
    """
    experiment, n, c = config.experiment, config.n, config.c
    compare = experiment == "compare_cqr2"
    if experiment == "sweep_n" or (compare and config.n_list):
        if not config.n_list:
            raise ConfigError("n_list is required for sweep_n")
        return [(k, 3 * k) for k in config.n_list]
    if n is None:
        raise ConfigError(f"n is required for {experiment}")
    if experiment == "sweep_c" or (compare and config.c_list):
        if not config.c_list:
            raise ConfigError("c_list is required for sweep_c")
        return [(n, k) for k in config.c_list]
    if c is None and compare:
        raise ConfigError("compare_cqr2 needs c, c_list or n_list")
    if c is None and METHODS[config.method].samples_c:
        c = 3 * n
    return [(n, c)]


# The tables below reach every library function through a lambda or a
# runner, so the name is looked up when a trial runs: a rebinding of, say,
# ``harness.rp_cholesky_qr`` by a test or a tracer takes effect.

#: Test-matrix generators, called as ``make(m, n, kappa, seed)``.
MATRIX_KINDS = {
    "worst_coherence": lambda m, n, kappa, seed:
        worst_coherence_stack(m, n, kappa, seed),
    "haar_rotated": lambda m, n, kappa, seed: haar_rotated(m, n, kappa, seed),
}


def _run_precond(A, c, seed):
    # Ideal-preconditioner baseline: exact triangular factor of A.
    R_s = householder_r(A)
    f, A1 = preconditioned_cholesky_qr(A, R_s)
    return f, A1, R_s


def _run_rp(A, c, seed):
    attempt_seed = seed
    for attempt in range(RANK_DEFICIENT_RETRIES + 1):
        try:
            f, info, A1 = rp_cholesky_qr(A, c, attempt_seed)
            return f, A1, info.R_s
        except RankDeficientSampleError:
            if attempt == RANK_DEFICIENT_RETRIES:
                raise
            ss = np.random.SeedSequence([int(seed), attempt + 1])
            attempt_seed = int(ss.generate_state(1, np.uint64)[0])


Method = namedtuple("Method", "code samples_c run")

#: Factorization methods.  ``code`` enters every trial seed, so it must never
#: change; ``samples_c`` marks the methods that use the sampling amount c;
#: ``run(A, c, seed)`` returns (factors, A1 or None, R_s or None).
METHODS = {
    "basic": Method(0, False, lambda A, c, seed: (cholesky_qr(A), None, None)),
    "cqr2": Method(1, False, lambda A, c, seed: (cholesky_qr2(A), None, None)),
    "precond": Method(2, False, _run_precond),
    "rp": Method(3, True, _run_rp),
}


def run_trial(config, A, n, c, trial, method, seed):
    """One factorization plus metrics, as a CSV row.

    Breakdowns are recorded, not raised.  ``wall_time_s`` times the
    factorization alone, retries included.
    """
    t0 = time.perf_counter()
    try:
        f, A1, R_s = METHODS[method].run(A, c, seed)
    except (CholeskyBreakdown, RankDeficientSampleError):
        f = A1 = R_s = None
    wall = time.perf_counter() - t0
    row = dict(
        experiment=config.experiment, matrix_kind=config.matrix_kind,
        m=config.m, n=n, c=c if METHODS[method].samples_c else None,
        kappa_target=float(config.kappa), trial=trial, seed=seed,
        method=method, breakdown=f is None, deviation=None, residual=None,
        kappa_A1=None, eta=None, estimate_5_2=None, wall_time_s=wall,
    )
    if f is not None:
        row["deviation"] = ortho_deviation(f.Q)
        row["residual"] = rel_residual(A, f)
    if A1 is not None:
        row["kappa_A1"] = cond2(A1)
        row["eta"] = eta(A, A1, R_s)
        row["estimate_5_2"] = ortho_estimate(row["kappa_A1"])
    return row


@dataclass
class SweepPointSummary:
    """Min/arith-mean/geo-mean/max statistics for one sweep point+method."""

    n: int
    c: Optional[int]
    method: str
    trials: int
    breakdown_count: int
    stats: dict = field(default_factory=dict)  # metric -> (min, max, mean, gmean)


def _stat_tuple(values):
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None
    gmean = math.exp(sum(math.log(v) for v in vals) / len(vals)) \
        if all(v > 0 for v in vals) else None
    return (min(vals), max(vals), sum(vals) / len(vals), gmean)


def summarize_point(rows, n, c, method):
    rows = [r for r in rows if r["method"] == method]
    ok = [r for r in rows if not r["breakdown"]]
    stats = {name: _stat_tuple([r[name] for r in ok])
             for name in ("deviation", "residual", "kappa_A1", "estimate_5_2")}
    return SweepPointSummary(
        n=n, c=c, method=method, trials=len(rows),
        breakdown_count=sum(r["breakdown"] for r in rows), stats=stats,
    )


#: Experiment names; each is also a CLI subcommand (``_`` becomes ``-``).
EXPERIMENTS = ("single", "sweep_c", "sweep_n", "compare_cqr2")


def run_experiment(config):
    """Run ``config``'s experiment over :func:`sweep_points`.

    Returns (rows, summaries).  ``compare_cqr2`` runs ``rp`` and ``cqr2``,
    the others ``config.method``; ``single`` runs one trial.
    """
    config.validate()
    if config.experiment == "single":
        config = replace(config, trials=1)
    methods = (["rp", "cqr2"] if config.experiment == "compare_cqr2"
               else [config.method])
    rows, summaries = [], []
    for point_index, (n, c) in enumerate(sweep_points(config)):
        mseed = derive_matrix_seed(config.master_seed, point_index)
        point_rows = []
        for trial in range(config.trials):
            A = MATRIX_KINDS[config.matrix_kind](config.m, n, config.kappa,
                                                 mseed)
            for method in methods:
                seed = derive_seed(config.master_seed, point_index, trial,
                                   method)
                point_rows.append(run_trial(config, A, n, c, trial, method,
                                            seed))
        rows += point_rows
        summaries += [summarize_point(point_rows, n, c, method)
                      for method in methods]
    return rows, summaries


# Kept only for the benchmark (perfbench/), which calls these names and
# monkeypatches ``sweep_c``; ``config.experiment`` still picks the points.
sweep_c = compare_cqr2 = run_experiment


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows, path):
    """Write the trial table; floats as shortest round-trip decimals."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"{path}: cannot write CSV: {exc}") from exc


def format_summary(summaries):
    """Human-readable per-point summary table (printed by the CLI)."""
    lines = [
        f"{'n':>6} {'c':>6} {'method':>8} {'broke':>5} "
        f"{'dev(gmean)':>12} {'res(gmean)':>12} {'kA1(mean)':>12} "
        f"{'est(gmean)':>12}"
    ]
    for s in summaries:
        def pick(name, idx):
            t = s.stats.get(name)
            if t is None or t[idx] is None:
                return "-"
            return f"{t[idx]:.3e}"

        lines.append(
            f"{s.n:>6} {s.c if s.c is not None else '-':>6} {s.method:>8} "
            f"{s.breakdown_count:>5} {pick('deviation', 3):>12} "
            f"{pick('residual', 3):>12} {pick('kappa_A1', 2):>12} "
            f"{pick('estimate_5_2', 3):>12}"
        )
    return "\n".join(lines)
