"""Time one benchmark set-up in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED [OVERRIDES_JSON]

Set-up is the import of rpcqr (numpy and scipy included) plus the
workload's ``prepare``.  ``run.py`` starts this a few times per run, so that
``setup_s`` is a median over fresh imports rather than one import.
"""

import json
import sys
import time

import run


def main(argv):
    workload, seed = argv[0], int(argv[1])
    overrides = json.loads(argv[2]) if len(argv) > 2 else {}
    run.pin_blas_threads()
    t0 = time.perf_counter()
    rpcqr = run.import_program()
    import workloads

    workloads.make(workload, rpcqr, run.ROOT, **overrides).prepare(seed)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
