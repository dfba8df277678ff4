"""Environment record written with every benchmark run.

``pin_blas_threads`` must run before numpy is first imported; everything
else here may import numpy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Ask every BLAS build numpy may load for one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _openblas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, read back through ctypes.

    Returns None when numpy does not bundle ``libscipy_openblas64_``.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])  # already loaded by numpy: same handle
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return int(get())


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def git_commit(root: str):
    """Commit of ``root`` read from ``.git`` without running git; None outside a clone."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git_dir, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def snapshot(root: str) -> dict:
    import numpy as np

    return {
        "blas": _blas_info(np),
        "blas_threads": _openblas_threads(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }


def contended(load_before: float, load_after: float, nproc: int) -> bool:
    """True when the 1-minute load average shows another busy process.

    The benchmark itself keeps one CPU busy, so a load above ``nproc - 0.5``
    means something else was competing for the remaining CPUs.
    """
    return max(load_before, load_after) > nproc - 0.5
