"""Run the dtc2d CLI with the benchmark's probes installed.

    python3 perfbench/launch.py PROBE_DIR TRACE -- <dtc2d CLI arguments>

The benchmark starts every CLI call through this file instead of
``python -m dtc2d.cli``. The probes live here, in the benchmark's own
files; nothing under ``src/`` is changed.

- Always: each process that runs a Floquet cycle appends
  ``<pid> <monotonic time>`` of its first cycle call to
  ``PROBE_DIR/first_cycle``. The benchmark's ``setup_s`` is that time
  minus the launch time. ``time.monotonic`` reads the system-wide
  CLOCK_MONOTONIC, so the two processes share a clock.
- With TRACE=1: spans (name, id, parent, start, end, pid) around each
  layer's public entry points, exact work counters, and the bond
  dimension and truncation error of the first MPS state. Records are kept
  in memory and written to ``PROBE_DIR/trace.<pid>.jsonl``: by the main
  process when ``main`` returns, and by pool workers after each grid cell,
  because workers leave through ``os._exit`` and never run ``atexit``.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# the package modules whose entry points are traced; `cli`, `lattice` and
# `circuit` are set-up work and show in the benchmark's setup_s
LAYERS = ("exact", "mps", "observables", "noise", "recovery", "runner")

# runner's own entry points; its small helpers (such as the number
# formatter, called once per CSV cell) are left unwrapped
RUNNER_ENTRY_POINTS = (
    "run_point",
    "_simulate_system",
    "run_phase_diagram",
    "_phase_cell",
    "recover_from_raw",
    "write_point_outputs",
    "write_raw_bundle",
    "write_phase_grid",
    "write_resolved_config",
)

BACKEND_METHODS = ("apply_cycle", "per_site_z", "zz_pairs", "zz_matrix", "sample_bits")


def install_first_cycle_probe(probe_dir: str) -> None:
    from dtc2d.exact import StateVector
    from dtc2d.mps import MPSState

    seen: set[int] = set()
    path = os.path.join(probe_dir, "first_cycle")

    def wrap(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid not in seen:
                seen.add(pid)
                with open(path, "a") as fh:
                    fh.write(f"{pid} {time.monotonic()!r}\n")
            return method(*args, **kwargs)

        return wrapper

    for cls in (StateVector, MPSState):
        cls.apply_cycle = wrap(cls.apply_cycle)


class Recorder:
    """Spans and counters of one process tree, written per process."""

    def __init__(self, probe_dir: str):
        self.probe_dir = probe_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.records: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.stack: list[str] = []
        self.base_depth = 0
        self.next_id = 0

    def _own(self) -> None:
        # a forked worker inherits the parent's buffers: drop them, keep
        # the open stack so the worker's spans link to the span that forked it
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.records = []
            self.counts = defaultdict(float)
            self.gauges = {}
            self.base_depth = len(self.stack)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            span_id = f"{self.pid}.{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.records.append(
                    {"span": name, "id": span_id, "parent": parent,
                     "start": start, "end": end, "pid": self.pid}
                )
                if self.pid != self.main_pid and len(self.stack) == self.base_depth:
                    self.flush()

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self._own()
        self.counts[name] += amount

    def gauge(self, name: str, value: float) -> None:
        self._own()
        self.gauges[name] = value

    def flush(self) -> None:
        self._own()
        path = os.path.join(self.probe_dir, f"trace.{self.pid}.jsonl")
        with open(path, "a") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
            fh.write(
                json.dumps({"pid": self.pid, "main": self.pid == self.main_pid,
                            "counts": dict(self.counts), "gauges": self.gauges})
                + "\n"
            )
        self.records = []
        self.counts = defaultdict(float)
        self.gauges = {}


def install_tracer(recorder: Recorder) -> None:
    import scipy.linalg

    import dtc2d.cli
    import dtc2d.recovery
    import dtc2d.runner
    from dtc2d.exact import StateVector
    from dtc2d.mps import MPSState

    # module-level functions: wrap the names `runner` and `cli` call, once
    # per function object so both namespaces share one wrapper
    wrapped = {}
    for module in (dtc2d.runner, dtc2d.cli):
        for name, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("dtc2d."):
                continue
            layer = obj.__module__.split(".")[1]
            if layer not in LAYERS:
                continue
            if layer == "runner" and obj.__name__ not in RUNNER_ENTRY_POINTS:
                continue
            if obj not in wrapped:
                wrapped[obj] = recorder.span(f"{layer}.{obj.__name__}", obj)
            setattr(module, name, wrapped[obj])

    for cls, layer in ((StateVector, "exact"), (MPSState, "mps")):
        for name in BACKEND_METHODS:
            if hasattr(cls, name):
                setattr(cls, name, recorder.span(f"{layer}.{name}", getattr(cls, name)))

    # bond dimension and truncation error of the first MPS state a process
    # builds: the target system, which run_point simulates first
    n_states = [0]
    original_init = MPSState.__init__
    traced_apply = MPSState.apply_cycle

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._bench_index = n_states[0]
        n_states[0] += 1

    @functools.wraps(traced_apply)
    def apply_cycle(self, *args, **kwargs):
        result = traced_apply(self, *args, **kwargs)
        if getattr(self, "_bench_index", None) == 0:
            chain = getattr(self, "mps", None)
            bonds = getattr(chain, "bond_dims", None)
            if bonds:
                recorder.gauge("mps.max_bond", max(bonds))
            error = getattr(self, "truncation_error", None)
            if error is not None:
                recorder.gauge("mps.truncation_error", float(error))
        return result

    MPSState.__init__ = init
    MPSState.apply_cycle = apply_cycle

    svd = scipy.linalg.svd

    @functools.wraps(svd)
    def counted_svd(a, *args, **kwargs):
        m, n = a.shape[-2], a.shape[-1]
        recorder.count("mps.svd_calls")
        recorder.count("mps.svd_flops", m * n * min(m, n))
        return svd(a, *args, **kwargs)

    scipy.linalg.svd = counted_svd

    if hasattr(dtc2d.recovery, "minimize"):
        minimize = dtc2d.recovery.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            recorder.count("recovery.optimizer_calls")
            recorder.count("recovery.optimizer_nfev", int(getattr(result, "nfev", 0)))
            return result

        dtc2d.recovery.minimize = counted_minimize

    if hasattr(dtc2d.recovery, "kernel_column"):
        kernel_column = dtc2d.recovery.kernel_column

        @functools.wraps(kernel_column)
        def counted_kernel_column(*args, **kwargs):
            recorder.count("recovery.kernel_column_calls")
            return kernel_column(*args, **kwargs)

        dtc2d.recovery.kernel_column = counted_kernel_column


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: launch.py PROBE_DIR TRACE -- <dtc2d CLI arguments>")
    probe_dir, trace, cli_args = argv[0], argv[1] == "1", argv[3:]

    import dtc2d.cli

    install_first_cycle_probe(probe_dir)
    if not trace:
        return dtc2d.cli.main(cli_args)
    recorder = Recorder(probe_dir)
    install_tracer(recorder)
    try:
        return recorder.span("cli.main", dtc2d.cli.main)(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
