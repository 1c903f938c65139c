"""One BLAS thread per process, for numpy's bundled OpenBLAS.

The numpy wheel bundles OpenBLAS with a thread pool of one thread per
core. Every process then runs such a pool, every phase-diagram worker
included, so the workers oversubscribe the cores. `one_thread_at_load`
has the library load with one thread; it runs when `dtc2d.cli` is
imported, before numpy. `limit_blas_threads` sets a loaded pool to one
thread; it runs in `cli.main` and in every phase-diagram pool worker.
Neither runs on `import dtc2d`, so a library user keeps the process-wide
setting they chose.

OpenBLAS reads OPENBLAS_NUM_THREADS and OMP_NUM_THREADS when it loads; if
either is set, the user's value stands. A numpy without bundled OpenBLAS
(such as an MKL or system build) is left as it is.
"""
from __future__ import annotations

import ctypes
import glob
import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# numpy's bundled library, in <site-packages>/numpy.libs; lib<name>64_-<hash>.so
# exports its functions as <name>_<function>64_
_OPENBLAS = "lib*openblas64_-*.so"


def _thread_functions() -> tuple | None:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None without one."""
    import numpy as np  # here, so that one_thread_at_load can run before numpy loads

    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = sorted(glob.glob(os.path.join(site, "numpy.libs", _OPENBLAS)))
    try:
        # the dynamic loader keeps one copy per file: the one numpy calls
        library = ctypes.CDLL(paths[0])
        name = os.path.basename(paths[0])[len("lib"):].partition("64_-")[0]
        getter = library[f"{name}_get_num_threads64_"]
        setter = library[f"{name}_set_num_threads64_"]
    except (IndexError, OSError, AttributeError):
        return None  # no such library, or one without these functions
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return getter, setter


def one_thread_at_load() -> None:
    """Have numpy's OpenBLAS load with one thread, unless numpy has loaded
    or a thread variable is set (an empty one counts as unset). Loaded with
    one thread per core, the library starts idle threads that spin about
    0.1 s of CPU before they first sleep."""
    if "numpy" not in sys.modules and not any(
        os.environ.get(name) for name in THREAD_VARIABLES
    ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def blas_threads() -> dict[str, int]:
    """``{"numpy": thread count}`` of numpy's bundled OpenBLAS, or ``{}``
    without one."""
    functions = _thread_functions()
    return {"numpy": functions[0]()} if functions else {}


def limit_blas_threads() -> dict[str, int]:
    """Set numpy's bundled OpenBLAS to one thread unless a thread variable
    is set; returns ``blas_threads()`` read back."""
    functions = _thread_functions()
    if functions and not any(os.environ.get(name) for name in THREAD_VARIABLES):
        get_threads, set_threads = functions
        # after a fork, a set starts the library's thread pool anew, and its
        # threads spin a while before they sleep; a worker forked from a
        # one-thread process needs no set
        if get_threads() != 1:
            set_threads(1)
    return blas_threads()
