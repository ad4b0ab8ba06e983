"""Seeded experiment sweeps and CSV emission.

Every trial seed derives from (master_seed, sweep point index, trial index,
method) through :func:`rpcqr.transforms.child_seeds`, whose hashing is
documented stable, so any CSV row can be replayed in isolation.  The test
matrix is fixed per sweep point, so it is generated, and its norm taken,
once per point; only the sampling seed varies across trials.

Breakdowns never abort a sweep: they become rows with breakdown=true and
empty metric cells.
"""

import csv
import json
import math
import numbers
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import List, Optional

from .algorithms import cholesky_qr, cholesky_qr2, preconditioned_cholesky_qr, rp_cholesky_qr
from .errors import CholeskyBreakdown, RankDeficientSampleError
from .genmat import haar_rotated, worst_coherence_stack
from .kernels import householder_r, spectral_norm
from .metrics import measure
from .transforms import child_seeds

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
        if any(not isinstance(v, list) for v in (self.n_list, self.c_list)
               if v is not None):
            raise ConfigError("n_list and c_list must be lists of integers")
        ints = [self.m, self.trials, self.master_seed, self.n, self.c,
                *(self.n_list or ()), *(self.c_list or ())]
        if any(type(v) is not int for v in ints if v is not None):
            raise ConfigError("m, n, c, n_list, c_list, trials and "
                              "master_seed must be integers")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        k = self.kappa
        if (isinstance(k, bool) or not isinstance(k, numbers.Real)
                or not (k >= 1.0 and math.isfinite(k))):
            raise ConfigError(f"kappa must be a finite number >= 1, got {k!r}")
        if (self.experiment == "compare_cqr2"
                and self.matrix_kind != "haar_rotated"):
            raise ConfigError("compare_cqr2 requires matrix_kind=haar_rotated")
        if self.experiment == "compare_cqr2" and self.method != "rp":
            raise ConfigError(f"compare_cqr2 ignores method={self.method}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(
                f"output_path must be a string, got {self.output_path!r}")
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
    return child_seeds([master_seed, point_index, trial_index,
                        METHODS[method].code])[0]


def derive_matrix_seed(master_seed, point_index):
    """Seed of the test matrix shared by every trial of a sweep point."""
    return child_seeds([master_seed, point_index, _MATRIX_TAG])[0]


def sweep_points(config):
    """The (n, c) points of ``config``'s experiment, in run order.

    ``sweep_n``, and ``compare_cqr2`` given ``n_list``, sample c = 3n rows;
    ``sweep_c``, and ``compare_cqr2`` given ``c_list``, sweep c at fixed n;
    ``single`` takes ``c``, or 3n when its method samples rows.  Setting
    one of ``n``, ``c``, ``n_list`` and ``c_list`` that the rule ignores is
    a ConfigError, so no key is silently dropped; so is a c or ``c_list``
    for a ``single`` or ``sweep_c`` whose method samples no rows.
    """
    experiment, n, c = config.experiment, config.n, config.c
    compare = experiment == "compare_cqr2"
    samples = compare or METHODS[config.method].samples_c
    if experiment == "sweep_n" or (compare and config.n_list):
        if not config.n_list:
            raise ConfigError("n_list is required for sweep_n")
        return _only(config, ("n_list",), [(k, 3 * k) for k in config.n_list])
    if n is None:
        raise ConfigError(f"n is required for {experiment}")
    if experiment == "sweep_c" or (compare and config.c_list):
        if not config.c_list:
            raise ConfigError("c_list is required for sweep_c")
        if not samples:
            raise ConfigError(f"method {config.method} samples no rows, so "
                              f"sweep_c would ignore c_list")
        return _only(config, ("n", "c_list"), [(n, k) for k in config.c_list])
    if c is None and compare:
        raise ConfigError("compare_cqr2 needs c, c_list or n_list")
    if c is None and samples:
        c = 3 * n
    return _only(config, ("n", "c") if samples else ("n",), [(n, c)])


def _only(config, used, points):
    """``points``, unless ``config`` sets a point key outside ``used``."""
    unused = [k for k in ("n", "c", "n_list", "c_list")
              if k not in used and getattr(config, k) is not None]
    if unused:
        raise ConfigError(f"{config.experiment} reads {' and '.join(used)}, "
                          f"so it would ignore {' and '.join(unused)}")
    return points


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
    return f, R_s, A1


Method = namedtuple("Method", "code samples_c run")

#: Factorization methods.  ``code`` enters every trial seed, so it must never
#: change; ``samples_c`` marks the methods that use the sampling amount c;
#: ``run(A, c, seed)`` returns (factors, R_s or None, A1 or None), the order
#: of ``rp_cholesky_qr``, which runs once, on exactly the row's seed.
METHODS = {
    "basic": Method(0, False, lambda A, c, seed: (cholesky_qr(A), None, None)),
    "cqr2": Method(1, False, lambda A, c, seed: (cholesky_qr2(A), None, None)),
    "precond": Method(2, False, _run_precond),
    "rp": Method(3, True, lambda A, c, seed: rp_cholesky_qr(A, c, seed)),
}


def run_trial(config, A, norm_A, n, c, trial, method, seed):
    """One factorization plus metrics, as a CSV row.

    ``norm_A`` is ‖A‖₂.  Breakdowns, and rank-deficient row samples, are
    recorded, not raised.  ``wall_time_s`` times the factorization alone.
    """
    t0 = time.perf_counter()
    try:
        f, R_s, A1 = METHODS[method].run(A, c, seed)
    except (CholeskyBreakdown, RankDeficientSampleError):
        f = R_s = A1 = None
    wall = time.perf_counter() - t0
    row = dict(
        experiment=config.experiment, matrix_kind=config.matrix_kind,
        m=config.m, n=n, c=c if METHODS[method].samples_c else None,
        kappa_target=float(config.kappa), trial=trial, seed=seed,
        method=method, breakdown=f is None, deviation=None, residual=None,
        kappa_A1=None, eta=None, estimate_5_2=None, wall_time_s=wall,
    )
    if f is not None:
        row.update(measure(A, norm_A, f, A1, R_s))
    return row


#: Experiment names; each is also a CLI subcommand (``_`` becomes ``-``).
EXPERIMENTS = ("single", "sweep_c", "sweep_n", "compare_cqr2")


def run_experiment(config):
    """Run ``config``'s experiment over :func:`sweep_points`; return its rows.

    ``compare_cqr2`` runs ``rp`` and ``cqr2``, the others ``config.method``;
    ``single`` runs one trial.  Rows come point by point, trial by trial.
    """
    config.validate()
    if config.experiment == "single":
        config = replace(config, trials=1)
    methods = (["rp", "cqr2"] if config.experiment == "compare_cqr2"
               else [config.method])
    rows = []
    for point_index, (n, c) in enumerate(sweep_points(config)):
        A = MATRIX_KINDS[config.matrix_kind](
            config.m, n, config.kappa,
            derive_matrix_seed(config.master_seed, point_index))
        A.setflags(write=False)  # shared by every trial of the point
        norm_A = spectral_norm(A)
        for trial in range(config.trials):
            for method in methods:
                seed = derive_seed(config.master_seed, point_index, trial,
                                   method)
                rows.append(run_trial(config, A, norm_A, n, c, trial,
                                      method, seed))
    return rows


# Kept only for the benchmark (perfbench/), which calls these names,
# unpacks ``rows, _`` and monkeypatches ``sweep_c``; ``config.experiment``
# still picks the points.  Both go with ROADMAP item 1.
def sweep_c(config):
    return run_experiment(config), None


compare_cqr2 = sweep_c


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


def _mean(values, geometric):
    """Mean of the finite ``values``, or None if there are none (or, for a
    geometric mean, if one is <= 0)."""
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals or (geometric and min(vals) <= 0):
        return None
    if geometric:
        return math.exp(sum(math.log(v) for v in vals) / len(vals))
    return sum(vals) / len(vals)


def format_summary(config, rows):
    """Per-point, per-method table of ``rows`` (printed by the CLI).

    ``rows`` is :func:`run_experiment`'s result for ``config``: each sweep
    point owns the same number of consecutive rows.
    """
    points = sweep_points(config)
    per_point = len(rows) // len(points)
    lines = [
        f"{'n':>6} {'c':>6} {'method':>8} {'broke':>5} "
        f"{'dev(gmean)':>12} {'res(gmean)':>12} {'kA1(mean)':>12} "
        f"{'est(gmean)':>12}"
    ]
    for i, (n, c) in enumerate(points):
        point = rows[i * per_point:(i + 1) * per_point]
        for method in dict.fromkeys(r["method"] for r in point):
            mine = [r for r in point if r["method"] == method]
            ok = [r for r in mine if not r["breakdown"]]

            def cell(name, geometric=True):
                value = _mean([r[name] for r in ok], geometric)
                return "-" if value is None else f"{value:.3e}"

            lines.append(
                f"{n:>6} {c if c is not None else '-':>6} {method:>8} "
                f"{len(mine) - len(ok):>5} {cell('deviation'):>12} "
                f"{cell('residual'):>12} {cell('kappa_A1', False):>12} "
                f"{cell('estimate_5_2'):>12}"
            )
    return "\n".join(lines)
