"""Environment block recorded with every benchmark result.

BLAS is pinned to one thread through the environment, before numpy is
imported, because threadpoolctl is not available to pin it at run time.
The pin is then confirmed by asking the OpenBLAS library that numpy loaded
how many threads it uses; when that cannot be asked, the block says so.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads(env=None) -> dict:
    """Set every BLAS thread variable to 1 in ``env`` (default: this process)."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def blas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas_runtime_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_runtime_threads": threads,
        "blas_pin": "confirmed" if threads == 1 else (
            "unconfirmed: the BLAS library could not be asked" if threads is None
            else f"not in effect: BLAS reports {threads} threads"
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "loadavg_1m": os.getloadavg()[0],
    }
