"""One BLAS thread for every test, unless the caller sets the count.

pytest imports this file before any test module, so before numpy loads and
reads these variables; the demos' and README blocks' subprocesses inherit
them.  The README's quoted test figures were measured at one thread.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
