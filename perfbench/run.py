"""rpcqr benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload paper_factor --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  BLAS is pinned to one thread before numpy is
imported (see ``perfbench/README.md`` for why).  The workload is a closed
loop with one caller: operations run back to back until their summed time
reaches ``--seconds`` (and at least ``MIN_OPS`` ran), each checked for
correctness outside its timed call.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones.  The line before the result is a full record with the
environment fingerprint; ``perfbench/compare.py`` reads saved outputs.
Exit status: 0 all checks passed, 1 a correctness check failed, 2 the
program or its configs could not be loaded (no result is printed).
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_PROBES = 2  # fresh-process set-ups timed besides this process's own
MIN_OPS = 2  # the sweeps' reproducibility check compares two calls
TAIL_PERCENTILES = (0.999, 0.99, 0.9, 0.5)
SPANS_DIR = ROOT / "perfbench" / "out"


def pin_blas_threads():
    """Must run before numpy is first imported to take effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import rpcqr from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rpcqr

    if not Path(rpcqr.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rpcqr resolved to {rpcqr.__file__}, not {src}")
    return rpcqr


def probe_setup(args, overrides):
    """Seconds one set-up takes in a fresh interpreter (see setup_probe.py)."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = subprocess.run(
        [sys.executable, str(probe), args.workload, str(args.seed),
         json.dumps(overrides)],
        capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.split()[-1])


def tail(samples):
    """(value, percentile, n): the highest listed percentile with at least
    ten samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(round(q * n, 9))  # nearest rank, 1-based
        if n - rank >= 10:
            return xs[rank - 1], q, n
    return xs[-1], 1.0, n


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper_factor", "fig7_compare", "fig2_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, rpcqr, import_s, overrides):
    import envinfo
    import tracing
    import workloads

    wl = workloads.make(args.workload, rpcqr, ROOT, **overrides)
    t0 = time.perf_counter()
    state = wl.prepare(args.seed)
    setup_s = [import_s + time.perf_counter() - t0]
    setup_s += [probe_setup(args, overrides) for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer(rpcqr) if args.trace else None
    op_s = {False: [], True: []}  # traced? -> operation times
    factor_s, devs, ress, failures = [], [], [], []
    attempted = failed = traced_rp_trials = patched_ops = 0
    measured, i = 0.0, 0
    while i < MIN_OPS or measured < args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        elif tracing.patched_names(rpcqr):
            patched_ops += 1
        t0 = time.perf_counter()
        try:
            result = wl.op(state)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=2).strip().splitlines()[-1]
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                tracer.remove()
        measured += seconds
        i += 1
        op_s[traced].append(seconds)
        if error is not None:
            failures.append(f"op {i - 1}: {error}")
            attempted += 1
            failed += 1
            continue
        out = wl.check(state, result, seconds)
        attempted += out.attempted
        failed += out.failed
        failures += out.failures
        devs += out.deviations
        ress += out.residuals
        if traced:
            traced_rp_trials += out.rp_trials
        else:
            factor_s += out.factor_times
    left = tracing.patched_names(rpcqr)
    if patched_ops or left:
        failures.append(f"{patched_ops} untraced operations ran patched "
                        f"code; still patched at the end: {left}")
        failed += 1

    untraced = op_s[False]
    f_val, f_q, f_n = tail(factor_s or [math.nan])
    s_val, s_q, s_n = tail(untraced)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "factor_s_p50": (statistics.median(factor_s or [math.nan]), "s"),
        "factor_s_tail": (f_val, "s"),
        "sweep_s_p50": (statistics.median(untraced), "s"),
        "sweep_s_tail": (s_val, "s"),
        "deviation_max_digits": (-math.log10(max(devs)) if devs else 0.0,
                                 "digits"),
        "residual_max_digits": (-math.log10(max(ress)) if ress else 0.0,
                                "digits"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {
        "ops": i,
        "op_s": op_s[False],
        "measured_s": measured,
        "setup_samples_s": setup_s,
        "factor_samples": f_n,
        "factor_tail_percentile": f_q,
        "sweep_samples": s_n,
        "sweep_tail_percentile": s_q,
        "deviation_max": max(devs) if devs else None,
        "residual_max": max(ress) if ress else None,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "untraced_ops_patched": patched_ops,
    }
    per_layer = None
    if args.trace:
        n_traced = len(op_s[True])
        per_layer, largest = tracing.layer_metrics(
            tracer, n_traced, sum(op_s[True]), max(traced_rp_trials, 1))
        per_layer["trace.overhead_s"] = (
            statistics.median(op_s[True]) - statistics.median(untraced), "s")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        detail.update(traced_ops=n_traced, spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(ROOT)),
                      largest_self_time=largest)

    def as_json(ms):
        return {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": envinfo.fingerprint(ROOT, args.seed),
        "metrics": as_json(metrics),
        "per_layer": as_json(per_layer) if per_layer else None,
        "detail": detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(per_layer if args.trace else metrics),
    }
    return record, result


def main(argv=None, overrides=None):
    args = parse_args(argv)
    pin_blas_threads()
    t0 = time.perf_counter()
    try:
        rpcqr = import_program()
    except ImportError as exc:
        print(f"error: cannot import rpcqr: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    try:
        record, result = run(args, rpcqr, import_s, overrides or {})
    except rpcqr.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in record["metrics"].items():
        print(f"# {name:>22} {m['value']:.6g} {m['unit']}")
    for line in record["detail"]["failures"]:
        print(f"# FAILED {line}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
