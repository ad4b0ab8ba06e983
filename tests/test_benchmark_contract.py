"""The benchmark's contract with the library, checked in the test suite.

``perfbench/`` drives rpcqr through its public names and unpacks what they
return: ``rp_cholesky_qr``'s three values and the sweeps' ``rows, _``.
Each workload runs here at the smoke test's tiny shapes, so a library
change that breaks that contract fails a test, not only a benchmark run.
"""

import sys
from pathlib import Path

import pytest

import rpcqr

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from test_smoke import TINY  # noqa: E402


@pytest.mark.parametrize("name", list(TINY))
def test_workload_checks_clean_twice(name):
    wl = workloads.make(name, rpcqr, ROOT, **TINY[name])
    state = wl.prepare(5)
    for _ in range(2):  # a sweep's second call must reproduce its first
        out = wl.check(state, wl.op(state), 0.0)
        assert out.attempted > 0
        assert out.failed == 0, out.failures
