"""The environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Variables that cap the BLAS and OpenMP thread pools. They only take effect
# when set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads(count: int = 1) -> None:
    """Cap the BLAS pool; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def _loaded_openblas() -> str | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    return path
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS name from numpy's build config and the pool size it runs with."""
    import numpy as np

    name = "unknown"
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    threads = None
    lib_path = _loaded_openblas()
    if lib_path is not None:
        lib = ctypes.CDLL(lib_path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return {"name": name, "threads": threads}


def git_sha(root: Path) -> str | None:
    """HEAD's commit id, read from ``root/.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "seed": seed,
    }
