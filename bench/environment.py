"""What a result was measured on: CPUs, BLAS and its threads, versions, commit."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy
import scipy

# symbol prefixes of OpenBLAS builds: scipy-openblas (with and without the
# 64-bit-integer suffix) and a plain system OpenBLAS
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _symbol(lib, name, restype):
    try:
        fn = getattr(lib, name)
    except AttributeError:
        return None
    fn.argtypes, fn.restype = [], restype
    return fn


def openblas_libraries():
    """Each OpenBLAS loaded in this process, with the thread count it uses.

    Read from the loaded libraries themselves (threadpoolctl is not a
    dependency): numpy and scipy each bundle their own copy."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({fields[-1] for fields in map(str.split, maps)
                            if len(fields) == 6 and ".so" in fields[-1]
                            and "openblas" in fields[-1].lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path),
                 "bundled_with": os.path.basename(os.path.dirname(path))}
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                threads = _symbol(lib, f"{prefix}_get_num_threads{suffix}", ctypes.c_int)
                config = _symbol(lib, f"{prefix}_get_config{suffix}", ctypes.c_char_p)
                if threads and "threads" not in entry:
                    entry["threads"] = threads()
                if config and "config" not in entry:
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def git_commit(root):
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(root, workload, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": openblas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }
