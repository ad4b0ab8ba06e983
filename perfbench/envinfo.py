"""Environment fingerprint attached to every benchmark result."""

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

#: Fields that must agree between two result sets for them to be compared.
ENV_FIELDS = ("blas", "blas_threads", "cpu_count", "python", "numpy",
              "scipy", "openblas")


def _openblas_libs():
    """(package, config string, thread count) of each bundled OpenBLAS."""
    found = []
    for pkg in (np, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in sorted(glob.glob(os.path.join(
                site, f"{pkg.__name__}.libs", "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    found.append((pkg.__name__, config().decode(), threads()))
                    break
    return found


def _git_commit(root):
    """HEAD of the checkout's git repository, read from files; else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = _openblas_libs()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {pkg: threads for pkg, _, threads in libs},
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {pkg: config for pkg, config, _ in libs},
        "commit": _git_commit(root),
        "seed": int(seed),
    }
