"""Seeded experiment sweeps and CSV emission.

An ``rp`` row's seed derives from (master_seed, sweep point index, trial
index) through :func:`rpcqr.transforms.child_seeds`, whose hashing is
documented stable, so any CSV row can be replayed in isolation.  The test
matrix is fixed per sweep point, so each task that runs trials of a point
makes it column-major, and takes its norm, once; a seed-free method (all
but ``rp``) runs once per point, at trial 0.  Serial or forked, a run deals
the same tasks and places each row by its (point, trial, method).

Breakdowns never abort a sweep: they become rows with breakdown=true and
empty metric cells.
"""

import csv
import json
import math
import multiprocessing as mp
import os
import time
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .algorithms import (MAX_C, cholesky_qr, cholesky_qr2,
                         preconditioned_cholesky_qr, rp_cholesky_qr)
from .errors import CholeskyBreakdown, RankDeficientSampleError
from .genmat import _check, haar_rotated, worst_coherence_stack
from .kernels import householder_r, spectral_norm
from .metrics import measure
from .transforms import child_seeds

SCHEMA_VERSION = 3

CSV_COLUMNS = [
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
    """One sweep's settings, from a config file or the CLI's flags.

    ``matrix_kind`` names an entry of :data:`MATRIX_KINDS`, and ``method``
    one of :data:`METHODS` or a list of distinct ones, run in its order.
    The points' matrices are ``m`` x n, of condition number ``kappa``; each
    n of ``n`` (an int or a list) runs at every c of ``c_list``, else at
    3n.  Each point runs ``trials`` trials of every method, seeded from
    ``master_seed``, in up to ``jobs`` forked workers.
    """

    matrix_kind: str = "worst_coherence"
    m: int = 2000
    n: Union[int, List[int], None] = None
    c_list: Optional[List[int]] = None
    kappa: float = 1e15
    method: Union[str, List[str]] = "rp"
    trials: int = 10
    master_seed: int = 0
    jobs: int = 1

    def validate(self):
        """Return self, or raise a ConfigError that names an offending key."""
        if (not isinstance(self.matrix_kind, str)
                or self.matrix_kind not in MATRIX_KINDS):
            raise ConfigError(f"unknown matrix_kind {self.matrix_kind!r}")
        methods = _methods(self)
        if not (methods and all(isinstance(m, str) and m in METHODS
                                for m in methods)
                and len(set(methods)) == len(methods)):
            raise ConfigError(
                f"method must be one of {', '.join(METHODS)} or a non-empty "
                f"list of distinct ones, got {self.method!r}")
        one, many = "an integer", "a non-empty list of integers"
        for key, values, kind in (
                *((k, [getattr(self, k)], one)
                  for k in ("m", "trials", "master_seed", "jobs")),
                ("n", self.n if isinstance(self.n, list) else [self.n],
                 f"{one} or {many}"),
                ("c_list", [0] if self.c_list is None else self.c_list, many)):
            if not (isinstance(values, list) and values
                    and all(type(v) is int for v in values)):
                raise ConfigError(
                    f"{key} must be {kind}, got {getattr(self, key)!r}")
        if self.trials < 1 or self.jobs < 1 or self.master_seed < 0:
            raise ConfigError("trials and jobs must be >= 1, master_seed >= 0")
        if self.c_list is not None and not any(
                METHODS[m].samples_c for m in methods):
            raise ConfigError(f"method {self.method!r} samples no rows, so "
                              "it takes no c_list")
        for n, c in sweep_points(self):
            _check(self.m, n, self.kappa, ConfigError)
            if self.m * n * 8 > np.iinfo(np.intp).max:
                raise ConfigError(f"an m x n float64 array is beyond numpy's "
                                  f"size limit, got m={self.m}, n={n}")
            if c < n:
                raise ConfigError(f"every c must be >= n, got c={c}, n={n}")
            if c > MAX_C:
                raise ConfigError(f"every c must be <= {MAX_C}, got c={c}")
        return self


def load_config(path):
    """Load an ExperimentConfig from a JSON key-value file."""
    return _read_config(path).validate()


def _read_config(path):
    """The file's ExperimentConfig, unvalidated, so flags can override it."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid config syntax: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = raw.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: missing or unsupported schema_version")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return ExperimentConfig(**raw)


def derive_seed(master_seed, point_index, trial_index):
    """Stable seed of an ``rp`` row; distinct (point, trial) never collide."""
    # The 3 was rp's method code in schema 2: every rp seed keeps its bits.
    return child_seeds([master_seed, point_index, trial_index, 3])[0]


def derive_matrix_seed(master_seed, point_index):
    """Seed of the test matrix shared by every trial of a sweep point."""
    return child_seeds([master_seed, point_index, _MATRIX_TAG])[0]


def sweep_points(config):
    """The (n, c) points of a validated ``config``, in run order.

    Each n of ``n`` (one or a list) runs at every c of ``c_list``, else at
    3n, in n-major order.  A method that samples no rows ignores c, and its
    rows leave the c and seed cells empty.
    """
    ns = config.n if isinstance(config.n, list) else [config.n]
    return [(n, c) for n in ns for c in config.c_list or [3 * n]]


def _methods(config):
    """``config.method`` as a list: the methods each trial runs, in order."""
    method = config.method
    return method if isinstance(method, list) else [method]


# The tables below reach every library function through a lambda or a
# runner, so the name is looked up when a trial runs: a rebinding of, say,
# ``harness.rp_cholesky_qr`` by a test or a tracer takes effect.

#: Test-matrix generators, called as ``make(m, n, kappa, seed)``.
MATRIX_KINDS = {
    "worst_coherence": lambda m, n, kappa, seed:
        worst_coherence_stack(m, n, kappa, seed),
    "haar_rotated": lambda m, n, kappa, seed: haar_rotated(m, n, kappa, seed),
}


Method = namedtuple("Method", "samples_c run")

#: Factorization methods.  ``samples_c`` marks the one method that draws a
#: row sample, and so takes c and a seed; the others get None for both.
#: ``run(A, c, seed)`` returns (factors, R_s or None, R2 or None), the
#: triple of ``preconditioned_cholesky_qr`` and of ``rp_cholesky_qr``, which
#: runs once, on exactly the row's seed.
METHODS = {
    "basic": Method(False, lambda A, c, seed: (cholesky_qr(A), None, None)),
    "cqr2": Method(False, lambda A, c, seed: (cholesky_qr2(A), None, None)),
    # Ideal-preconditioner baseline: exact triangular factor of A, unchecked.
    "precond": Method(False, lambda A, c, seed: preconditioned_cholesky_qr(
        A, householder_r(A), "preconditioned")),
    "rp": Method(True, lambda A, c, seed: rp_cholesky_qr(A, c, seed)),
}


def run_trial(config, A, norm_A, n, c, trial, method, seed):
    """One factorization plus metrics, as a CSV row.

    ``norm_A`` is ‖A‖₂; breakdowns and rank-deficient samples become rows.
    A method that draws no sample gets no c or seed: both cells stay empty.
    ``wall_time_s`` times the factorization; sweeps reuse seed-free rows.
    """
    c, seed = (c, seed) if METHODS[method].samples_c else (None, None)
    t0 = time.perf_counter()
    try:
        f, R_s, R2 = METHODS[method].run(A, c, seed)
    except (CholeskyBreakdown, RankDeficientSampleError):
        f = R_s = R2 = None
    wall = time.perf_counter() - t0
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(
        matrix_kind=config.matrix_kind, m=config.m, n=n, c=c,
        kappa_target=float(config.kappa), trial=trial, seed=seed,
        method=method, breakdown=f is None, wall_time_s=wall)
    if f is not None:
        row.update(measure(A, norm_A, f, R2=R2, R_s=R_s))
    return row


def run_experiment(config):
    """Run ``config`` over :func:`sweep_points`; return its rows.

    Each point runs ``trials`` trials of every method of ``method``, in the
    list's order.  Its :func:`_tasks`, dealt for ``min(jobs, points, cores)``
    jobs, the cores being those of the CPU affinity mask (else
    ``os.cpu_count()``), run here at one job (also without ``fork``, as on
    Windows), else in forked workers, which inherit the modules, rebound names
    and BLAS threads.  Rows come point by point, trial by trial, each found by
    its (point, trial, method); a seed-free row copies trial 0's.
    """
    config.validate()
    points = [(i, n, c) for i, (n, c) in enumerate(sweep_points(config))]
    methods = _methods(config)
    run_task = partial(_task_rows, config, methods)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    jobs = (min(config.jobs, len(points), cores)
            if "fork" in mp.get_all_start_methods() else 1)
    tasks = _tasks(points, config.trials, jobs)
    if jobs == 1:
        done = [run_task(*task) for task in tasks]
    else:
        with mp.get_context("fork").Pool(  # an error terminates it
                jobs, initializer=_keep_freed_pages) as pool:
            done = pool.starmap(run_task, tasks, chunksize=1)
            pool.close()
            pool.join()
    ran = {(task[0], row["trial"], row["method"]): row
           for task, task_rows in zip(tasks, done) for row in task_rows}
    return [ran.get((i, t, meth)) or dict(ran[i, 0, meth], trial=t)
            for i, _, _ in points for t in range(config.trials)
            for meth in methods]


def _tasks(points, trials, jobs):
    """``(index, n, c, start, stop)`` tasks: trials start..stop-1 of a point.

    Whole points come first, largest (n * c) first; then each of the
    ``len(points) % jobs`` smallest is split into ``jobs`` contiguous trial
    ranges of near-equal length, the one holding trial 0 the shortest; an
    empty range is left out.
    """
    by_size = sorted(points, key=lambda p: -p[1] * p[2])
    whole = len(points) - len(points) % jobs
    cuts = [k * trials // jobs for k in range(jobs + 1)]
    return [(*p, 0, trials) for p in by_size[:whole]] + [
        (*p, start, stop) for p in by_size[whole:]
        for start, stop in zip(cuts, cuts[1:]) if start < stop]


def _keep_freed_pages():
    """Pool initializer: keep the worker's freed arrays mapped (glibc).

    Else glibc gives large freed blocks back to the kernel, and each row
    faults them in again (~200k faults, 0.6 s system time per fig2 sweep).
    A worker keeps at most its peak; the caller's allocator is left alone.
    """
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        for param in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
            mallopt(param, 1 << 30)


def _task_rows(config, methods, point_index, n, c, start, stop):
    """The rows that trials start..stop-1 of a point run, on one A and ‖A‖.

    A seed-free method runs at trial 0 only; the caller copies its row by key.
    """
    A = np.asfortranarray(MATRIX_KINDS[config.matrix_kind](
        config.m, n, config.kappa,
        derive_matrix_seed(config.master_seed, point_index)))
    A.setflags(write=False)
    norm_A = spectral_norm(A)
    seed = partial(derive_seed, config.master_seed, point_index)
    return [run_trial(config, A, norm_A, n, c, t, meth, seed(t))
            for t in range(start, stop) for meth in methods
            if t == 0 or METHODS[meth].samples_c]


# Kept only for the benchmark (perfbench/), which calls these names,
# unpacks ``rows, _`` and monkeypatches ``sweep_c``; each runs its config
# as ``run_experiment`` does.  Both go with ROADMAP item 1.
def sweep_c(config):
    return run_experiment(config), None


compare_cqr2 = sweep_c


def emit_csv(rows, path):
    """Write the trial table: ``csv`` writes None as an empty cell and a
    float as its shortest round-trip ``repr``; a bool is true or false."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([str(v).lower() if isinstance(v, bool) else v
                                 for v in (row[col] for col in CSV_COLUMNS)])
    except OSError as exc:
        raise OSError(f"{path}: cannot write CSV: {exc}") from exc


def _mean(values, geometric):
    """Mean of the finite ``values``, or None if there are none; a geometric
    mean of non-negative values (norms, estimates) is 0 if one is 0."""
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None
    if geometric:
        return 0.0 if min(vals) == 0 else math.exp(
            sum(math.log(v) for v in vals) / len(vals))
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
    for i, (n, _) in enumerate(points):
        point = rows[i * per_point:(i + 1) * per_point]
        for method in dict.fromkeys(r["method"] for r in point):
            mine = [r for r in point if r["method"] == method]
            ok = [r for r in mine if not r["breakdown"]]

            def cell(name, geometric=True):
                value = _mean([r[name] for r in ok], geometric)
                return "-" if value is None else f"{value:.3e}"

            lines.append(
                f"{n:>6} {mine[0]['c'] or '-':>6} {method:>8} "
                f"{len(mine) - len(ok):>5} {cell('deviation'):>12} "
                f"{cell('residual'):>12} {cell('kappa_A1', False):>12} "
                f"{cell('estimate_5_2'):>12}"
            )
    return "\n".join(lines)
