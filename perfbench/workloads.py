"""The three benchmark workloads, each driven through public entry points.

Each workload has ``prepare(seed)`` (set-up: config load and matrix
generation, before the timed loop), ``op(state)`` (the one timed call) and
``check(state, result)`` (correctness, outside the timed call).  Calls go
through module attributes looked up at call time, so a tracer installed on
those attributes sees them.

Accuracy thresholds are the acceptance gate's for the same regime
(``tests/test_acceptance.py``): criterion 1 for worst-coherence kappa=1e15
input with ``rp``, criterion 4 for Haar-rotated kappa=1e7 input with ``rp``
and ``cqr2``.  fig2 also samples c = 2n, below criterion 1's c = 3n, where an
unlucky sample gives a large kappa(A1); there a row's deviation may instead
lie within criterion 3's band of 100 times its 4*u*kappa(A1) estimate.
"""

import dataclasses
import math

import numpy as np

#: (max deviation ||I - Q^T Q||_2, max residual ||A - QR||_2 / ||A||_2)
SINGULAR_REGIME = (1e-11, 5e-15)  # criterion 1
HAAR_1E7_REGIME = (1e-13, 1e-14)  # criterion 4
ESTIMATE_BAND = 1e2  # criterion 3


@dataclasses.dataclass
class Outcome:
    """What ``check`` found in one operation's output."""

    attempted: int
    failed: int
    failures: list  # one message per failed unit
    deviations: list
    residuals: list
    factor_times: list
    rp_trials: int


def _sym_norm(S):
    w = np.linalg.eigvalsh(S)
    return float(max(abs(w[0]), abs(w[-1])))


class PaperFactor:
    """``rp_cholesky_qr(A, c, seed_i)`` on one matrix built during set-up.

    Accuracy is computed here with numpy, independently of
    ``rpcqr.metrics``, so no metrics span enters the timed loop.
    """

    def __init__(self, rpcqr, m=6000, n=1000, c=3000, kappa=1e15):
        self.rpcqr = rpcqr
        self.m, self.n, self.c, self.kappa = m, n, c, kappa

    def prepare(self, seed):
        ss = np.random.SeedSequence([int(seed), 0x5EED])
        matrix_seed, call_seeds = ss.spawn(2)
        A = self.rpcqr.genmat.worst_coherence_stack(
            self.m, self.n, self.kappa, int(matrix_seed.generate_state(1)[0]))
        norm_A = math.sqrt(np.linalg.eigvalsh(A.T @ A)[-1])
        return {"A": A, "norm_A": norm_A, "calls": call_seeds, "count": 0}

    def op(self, state):
        seed = int(state["calls"].spawn(1)[0].generate_state(1)[0])
        state["count"] += 1
        return self.rpcqr.algorithms.rp_cholesky_qr(state["A"], self.c, seed)

    def check(self, state, result, seconds):
        f, _, _ = result
        Q, R = f.Q, f.R
        failures = []
        if Q.shape != (self.m, self.n) or R.shape != (self.n, self.n):
            failures.append(f"factor shapes {Q.shape}, {R.shape}")
            return Outcome(1, 1, failures, [], [], [seconds], 1)
        problems = []
        if np.any(np.tril(R, -1) != 0.0) or not np.all(np.diag(R) > 0.0):
            problems.append("R not upper triangular with a positive diagonal")
        dev = _sym_norm(np.eye(self.n) - Q.T @ Q)
        E = state["A"] - Q @ R
        res = math.sqrt(_sym_norm(E.T @ E)) / state["norm_A"]
        max_dev, max_res = SINGULAR_REGIME
        if not dev <= max_dev:
            problems.append(f"deviation {dev:.3e} > {max_dev:g}")
        if not res <= max_res:
            problems.append(f"residual {res:.3e} > {max_res:g}")
        if problems:
            failures.append(f"call {state['count']}: " + "; ".join(problems))
        return Outcome(1, len(failures), failures, [dev], [res], [seconds], 1)


class Sweep:
    """One whole ``harness`` sweep call on a shipped figure config.

    The master seed comes from the benchmark's seed.  Every row is checked
    against the regime's thresholds, and every call after the first must
    reproduce the first call's rows exactly, apart from ``wall_time_s``.
    """

    def __init__(self, rpcqr, root, config, entry, methods, regime,
                 estimate_band=None, **overrides):
        self.rpcqr = rpcqr
        self.path = root / "configs" / config
        self.entry = entry
        self.methods = methods
        self.regime = regime
        self.estimate_band = estimate_band
        self.overrides = overrides

    def _accurate(self, row):
        max_dev, max_res = self.regime
        dev = row["deviation"]
        if not row["residual"] <= max_res:
            return False
        return dev <= max_dev or (
            self.estimate_band is not None and row["estimate_5_2"] is not None
            and dev <= self.estimate_band * row["estimate_5_2"])

    def prepare(self, seed):
        harness = self.rpcqr.harness
        cfg = dataclasses.replace(harness.load_config(self.path),
                                  master_seed=int(seed), **self.overrides)
        cfg.validate()
        expected = len(cfg.c_list) * cfg.trials * len(self.methods)
        return {"config": cfg, "expected": expected, "reference": None}

    def op(self, state):
        rows, _ = getattr(self.rpcqr.harness, self.entry)(state["config"])
        return rows

    def check(self, state, rows, seconds):
        expected = state["expected"]
        bad = {}  # row index -> first problem found
        for i in range(len(rows), expected):
            bad[i] = f"missing (got {len(rows)} rows, expected {expected})"
        for i, r in enumerate(rows):
            if r["method"] not in self.methods or r["breakdown"]:
                bad.setdefault(i, f"{r['method']} breakdown={r['breakdown']}")
            elif not self._accurate(r):
                bad.setdefault(i, f"deviation {r['deviation']:.3e}, "
                                  f"residual {r['residual']:.3e}")
        stripped = [{k: v for k, v in r.items() if k != "wall_time_s"}
                    for r in rows]
        if state["reference"] is None:
            state["reference"] = stripped
        else:
            ref = state["reference"]
            for i in range(max(len(ref), len(stripped))):
                if i >= len(ref) or i >= len(stripped) or ref[i] != stripped[i]:
                    bad.setdefault(i, "differs from the first call's row")
        ok = [r for r in rows if not r["breakdown"]]
        return Outcome(
            attempted=max(len(rows), expected),
            failed=len(bad),
            failures=[f"row {i}: {msg}" for i, msg in sorted(bad.items())],
            deviations=[r["deviation"] for r in ok],
            residuals=[r["residual"] for r in ok],
            factor_times=[r["wall_time_s"] for r in rows],
            rp_trials=sum(r["method"] == "rp" for r in rows),
        )


def make(name, rpcqr, root, **overrides):
    """Build the named workload; ``overrides`` shrink shapes for tests."""
    if name == "paper_factor":
        return PaperFactor(rpcqr, **overrides)
    if name == "fig7_compare":
        return Sweep(rpcqr, root, "fig7.json", "compare_cqr2",
                     ("rp", "cqr2"), HAAR_1E7_REGIME, **overrides)
    if name == "fig2_sweep":
        return Sweep(rpcqr, root, "fig2.json", "sweep_c", ("rp",),
                     SINGULAR_REGIME, ESTIMATE_BAND, **overrides)
    raise KeyError(name)
