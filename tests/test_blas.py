import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from dtc2d import blas, runner
from dtc2d.blas import THREAD_VARIABLES, blas_threads, limit_blas_threads
from dtc2d.cli import main as cli_main
from dtc2d.runner import RunConfig, run_phase_diagram


def set_threads(count):
    blas._thread_functions()[1](count)


@pytest.fixture
def two_threads(monkeypatch):
    """numpy's pool at two threads and no thread variable set; restores the
    count it found."""
    before = blas_threads()
    if not before:
        pytest.skip("numpy has no bundled OpenBLAS")
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    set_threads(2)
    assert blas_threads() == {"numpy": 2}
    yield
    set_threads(before["numpy"])


def test_sets_one_thread(two_threads):
    assert limit_blas_threads() == {"numpy": 1}
    assert blas_threads() == {"numpy": 1}


def test_one_thread_is_not_set_again(monkeypatch):
    # after a fork a set starts a spinning thread pool, so a library that
    # already runs one thread is left alone
    calls = []
    monkeypatch.setattr(blas, "_thread_functions", lambda: (lambda: 1, calls.append))
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert limit_blas_threads() == {"numpy": 1}
    assert calls == []


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_thread_variable_wins(two_threads, monkeypatch, name):
    monkeypatch.setenv(name, "2")
    assert limit_blas_threads() == {"numpy": 2}


def test_no_library_found_is_a_no_op(two_threads, monkeypatch):
    found = blas._OPENBLAS
    monkeypatch.setattr(blas, "_OPENBLAS", "no-such-library-*.so")
    assert limit_blas_threads() == {}
    monkeypatch.setattr(blas, "_OPENBLAS", found)
    assert blas_threads() == {"numpy": 2}


def test_cli_sets_one_thread(two_threads, capsys):
    assert cli_main(["export-lattice", "--rows", "1", "--cols", "1"]) == 0
    assert blas_threads() == {"numpy": 1}


def _threads_in_worker(barrier):
    # both tasks wait for each other, so each runs in its own worker
    barrier.wait()
    return os.getpid(), blas_threads()


def test_phase_diagram_workers_run_one_thread(two_threads, monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    config = RunConfig(cycles=1, epsilons=(0.0,), phis=(0.2, 1.2), workers=2)
    assert len(run_phase_diagram(config)) == 2
    (kwargs,) = pools
    # the parent still runs two threads, which forked workers would inherit
    assert blas_threads() == {"numpy": 2}
    with multiprocessing.Manager() as manager, ProcessPoolExecutor(**kwargs) as pool:
        barrier = manager.Barrier(2, timeout=60)
        reports = list(pool.map(_threads_in_worker, [barrier, barrier], timeout=120))
    assert len({pid for pid, _ in reports}) == 2
    for _, counts in reports:
        assert counts == {"numpy": 1}


# the state of a new process after `import_line`: whether numpy has loaded,
# its OS threads (None without /proc), numpy's thread count and the thread
# variables it holds
_REPORT = """
import json, os, sys
{import_line}
numpy_loaded = "numpy" in sys.modules
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
from dtc2d.blas import THREAD_VARIABLES, blas_threads
print(json.dumps({{
    "numpy_loaded": numpy_loaded,
    "tasks": tasks,
    "blas": blas_threads(),
    "variables": {{name: os.environ.get(name) for name in THREAD_VARIABLES}},
}}))
"""


@pytest.fixture
def after_import(fresh_python):
    """``report(import_line, **variables)``: `_REPORT` in a new process."""
    if not blas_threads():
        pytest.skip("numpy has no bundled OpenBLAS")

    def report(import_line, **variables):
        return fresh_python(_REPORT.format(import_line=import_line), **variables)

    return report


def test_package_import_loads_no_numpy(after_import):
    assert after_import("import dtc2d")["numpy_loaded"] is False


@pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": ""}])
def test_cli_loads_blas_with_one_thread(after_import, variables):
    report = after_import("import dtc2d.cli", **variables)
    assert report["blas"] == {"numpy": 1}
    # the library started no idle thread of its own
    if report["tasks"] is not None and (os.cpu_count() or 1) > 1:
        assert report["tasks"] == 1


def test_cli_keeps_a_set_thread_count(after_import):
    bare = after_import("import numpy", OPENBLAS_NUM_THREADS="2")
    cli = after_import("import dtc2d.cli", OPENBLAS_NUM_THREADS="2")
    assert cli["blas"] == bare["blas"]
    assert cli["variables"]["OPENBLAS_NUM_THREADS"] == "2"


# a library import, and the CLI module imported after numpy has loaded
@pytest.mark.parametrize("import_line", ["import dtc2d.runner", "import numpy, dtc2d.cli"])
def test_library_import_keeps_the_thread_setting(after_import, import_line):
    bare = after_import("import numpy")
    library = after_import(import_line)
    assert library["blas"] == bare["blas"]
    assert library["variables"] == dict.fromkeys(THREAD_VARIABLES)
