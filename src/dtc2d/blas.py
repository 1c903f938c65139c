"""One BLAS thread per process, for the bundled OpenBLAS libraries.

The numpy and scipy wheels each bundle their own OpenBLAS, each with a
thread pool of one thread per core. Every process then runs two pools,
every phase-diagram worker included, so the cores are oversubscribed, and
code that alternates between numpy's and scipy's BLAS makes the two pools
stall each other. `limit_blas_threads` sets both pools to one thread. It
runs in `cli.main` and in every phase-diagram pool worker, not on import,
so a library user keeps the process-wide setting they chose.

OpenBLAS reads OPENBLAS_NUM_THREADS and OMP_NUM_THREADS when it loads; if
either is set, the user's value stands. A library that is not found (a
build without bundled OpenBLAS, such as an MKL install) is skipped.
"""
from __future__ import annotations

import ctypes
import glob
import importlib
import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# package, its bundled library in <site-packages>/<package>.libs, and the
# suffix of the library's exported symbols
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_-*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)


def _thread_functions() -> dict:
    """(get, set) thread-count functions of each bundled OpenBLAS found,
    keyed by package name."""
    found = {}
    for package, pattern, suffix in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        paths = sorted(glob.glob(os.path.join(site, f"{package}.libs", pattern)))
        try:
            # the dynamic loader keeps one copy per file: the one the
            # package itself calls, whether it loaded it yet or not
            library = ctypes.CDLL(paths[0])
            getter = library[f"scipy_openblas_get_num_threads{suffix}"]
            setter = library[f"scipy_openblas_set_num_threads{suffix}"]
        except (IndexError, OSError, AttributeError):
            continue  # no such library, or one without these functions
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        found[package] = (getter, setter)
    return found


def blas_threads() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS, keyed by package name."""
    return {package: get() for package, (get, _) in _thread_functions().items()}


def limit_blas_threads() -> dict[str, int]:
    """Set every bundled OpenBLAS to one thread unless a thread variable is
    set; returns the counts read back, keyed by package name."""
    if not any(os.environ.get(name) for name in THREAD_VARIABLES):
        for get_threads, set_threads in _thread_functions().values():
            # after a fork, a set starts the library's thread pool anew, and
            # its threads spin a while before they sleep; a worker forked
            # from a one-thread process needs no set
            if get_threads() != 1:
                set_threads(1)
    return blas_threads()
