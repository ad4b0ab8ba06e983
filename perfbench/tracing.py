"""Span tracing of the rpcqr layers, installed from outside the package.

The tracer rebinds every public function of the six layer modules at each
name its callers import it under (``algorithms.cholesky``,
``harness.cond2``, ``kernels.householder_qr``, the package namespace, ...),
records one span per call in memory, and restores the original bindings on
:meth:`Tracer.remove`.  Nothing in ``src/`` knows about it, so a run that
never installs a tracer executes the unpatched library; :func:`patched_names`
proves that.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` numbers the benchmark operation
that caused it.  Self time is a span's duration minus that of its direct
children.
"""

import functools
import json
import time
import types

import numpy as np

LAYERS = ("genmat", "transforms", "kernels", "algorithms", "metrics", "harness")

_MARK = "__perfbench_wrapped__"


def _gram_work(args):
    m, n = np.shape(args[0])
    return m * n * n, 8 * (m * n + n * n)  # symmetric rank-m update


def _cholesky_work(args):
    n = np.shape(args[0])[0]
    return n ** 3 / 3, 8 * 2 * n * n


def _tri_solve_work(args):
    m, n = np.shape(args[0])
    return m * n * n, 8 * (2 * m * n + n * n)


def _householder_work(args):
    m, n = np.shape(args[0])
    # geqrf (2mn^2 - 2n^3/3) plus forming the thin Q (the same again).
    return 4 * m * n * n - 4 * n ** 3 / 3, 8 * (2 * m * n + n * n)


#: Operation counts and compulsory bytes (inputs read once, outputs written
#: once), computed from array sizes, not measured.
WORK = {
    "kernels.gram": _gram_work,
    "kernels.cholesky": _cholesky_work,
    "kernels.tri_solve_right": _tri_solve_work,
    "kernels.householder_qr": _householder_work,
}


class Tracer:
    """Wrap the layer functions of ``package`` and collect call spans."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.spans = []
        self.work = {}  # span index -> (flop, bytes)
        self.keys = {}  # span index -> argument tuple (genmat only)
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        homes = {m.__name__ for m in self.modules}
        wrappers = {}
        for ns in [self.package, *self.modules]:
            for attr, obj in list(vars(ns).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in homes):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
        return self

    def remove(self):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work = WORK.get(name)
        keyed = name.startswith("genmat.")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if work is not None:
                self.work[idx] = work(args)
            if keyed:
                self.keys[idx] = (name, args, tuple(sorted(kwargs.items())))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        setattr(wrapper, _MARK, True)
        return wrapper

    def self_times(self):
        """Duration minus the direct children's durations, per span."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def patched_names(package):
    """Names in the package and its layers currently bound to a wrapper."""
    found = []
    for ns in [package, *(getattr(package, n) for n in LAYERS)]:
        for attr, obj in vars(ns).items():
            if getattr(obj, _MARK, False):
                found.append(f"{ns.__name__}.{attr}")
    return found


def layer_metrics(tracer, n_ops, op_seconds, rp_trials):
    """Per-layer metrics, each per traced operation unless a ratio."""
    spans, own = tracer.spans, tracer.self_times()
    layer = [s[0].split(".", 1)[0] for s in spans]
    by_name = {}
    for i, s in enumerate(spans):
        entry = by_name.setdefault(s[0], {"self": 0.0, "incl": 0.0, "calls": 0,
                                          "flop": 0.0, "bytes": 0.0})
        entry["self"] += own[i]
        entry["incl"] += s[2] - s[1]
        entry["calls"] += 1
        flop, nbytes = tracer.work.get(i, (0.0, 0.0))
        entry["flop"] += flop
        entry["bytes"] += nbytes

    def get(name, key):
        return by_name.get(name, {}).get(key, 0.0)

    def outermost(lay):
        """Spans of layer ``lay`` not nested inside another of its spans."""
        return [i for i, s in enumerate(spans)
                if layer[i] == lay and (s[3] < 0 or layer[s[3]] != lay)]

    def self_s(lay):
        return sum(t for t, l in zip(own, layer) if l == lay) / n_ops

    def share(lay):
        return sum(spans[i][2] - spans[i][1] for i in outermost(lay)) / op_seconds

    out = {}
    for name in ("kernels.cholesky", "kernels.householder_qr",
                 "kernels.singular_values", "kernels.spectral_norm",
                 "kernels.tri_solve_right", "kernels.gram",
                 "transforms.rademacher_diag", "transforms.dct_columns",
                 "transforms.sample_rows", "algorithms.build_preconditioner",
                 "algorithms.preconditioned_cholesky_qr",
                 "algorithms.cholesky_qr2", "genmat.haar_rotated",
                 "genmat.worst_coherence_stack", "metrics.ortho_deviation",
                 "metrics.rel_residual", "metrics.cond2", "metrics.eta",
                 "harness.run_trial"):
        out[f"{name}.s"] = (get(name, "self") / n_ops, "s")
    for name in ("kernels.cholesky", "kernels.householder_qr",
                 "kernels.spectral_norm", "kernels.as_matrix"):
        out[f"{name}.calls"] = (get(name, "calls") / n_ops, "count")
    for name in WORK:
        flop, incl = get(name, "flop"), get(name, "incl")
        out[f"{name}.gflop_computed"] = (flop / 1e9 / n_ops, "GFLOP")
        out[f"{name}.gbyte_computed"] = (get(name, "bytes") / 1e9 / n_ops, "GB")
        out[f"{name}.gflops_computed"] = (flop / 1e9 / incl if incl else 0.0,
                                          "GFLOP/s")
    out["algorithms.self_s"] = (self_s("algorithms"), "s")
    out["harness.self_s"] = (self_s("harness"), "s")
    out["algorithms.rp_attempts_per_trial"] = (
        get("algorithms.rp_cholesky_qr", "calls") / rp_trials, "ratio")
    # Distinct generator inputs per generator call, within each operation.
    top_gen = outermost("genmat")
    distinct = len({(spans[i][4], tracer.keys[i]) for i in top_gen})
    out["genmat.calls"] = (len(top_gen) / n_ops, "count")
    out["genmat.unique_ratio"] = (distinct / len(top_gen) if top_gen else 0.0,
                                  "ratio")
    out["genmat.share"] = (share("genmat"), "ratio")
    out["metrics.calls"] = (layer.count("metrics") / n_ops, "count")
    out["metrics.share"] = (share("metrics"), "ratio")
    largest = sorted(by_name, key=lambda k: -by_name[k]["self"])[:5]
    return out, largest
