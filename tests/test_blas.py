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
