"""Host stamp: what every result must say about the machine it ran on.

BLAS threading is read, never set: the benchmark runs with the threading
a user gets by default.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

__all__ = ["host_stamp", "blas_threads"]

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def _loaded_blas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return []
    return sorted(
        p for p in paths if any(k in p.lower() for k in ("blas", "mkl", "blis"))
    )


def blas_threads() -> int:
    """Threads the loaded BLAS will use (0 when it cannot be asked)."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return 0


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas_name(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
