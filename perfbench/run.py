"""Benchmark of the dtc2d command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real `dtc2d` CLI as a subprocess, closed loop: one CLI call at a
time from this single process, each started only when the previous one
has ended. One iteration is the workload's CLI calls; iterations repeat
until ``--seconds`` have passed, and the reported figures are medians over
iterations. Every iteration's outputs are checked; an iteration whose exit
code or check fails counts in ``failed``.

Workloads (see ``WORKLOADS``; why each was chosen is in its ``why``):

- ``dense12-recover``: ``simulate`` on 1x1 (12 qubits), exact backend,
  noise, 2000 shots, recovery with deconvolution, then ``recover`` on the
  raw bundle it wrote. Mostly the recovery learners.
- ``mps35-chi32``: ``simulate`` on 2x2 (35 qubits), MPS at chi 32, noise,
  500 shots, offsets learned on 1x1. Mostly the MPS cycle.
- ``dense21-phase``: ``phase-diagram`` on 1x2 (21 qubits), exact backend,
  a 2x2 grid on 2 pool workers. Mostly the dense cycle and its
  observables, and the process pool.

The program gets its inputs from the workload alone. The disorder and shot
seed is the fixed ``CONFIG_SEED`` (``--config-seed``), because the
committed references in ``references/`` hold for that seed only and the
accuracy figures must repeat exactly; ``--seed`` is recorded in the run
record and changes nothing else.

The program runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed from its environment, so that its own thread
policy is what gets measured.

With ``--trace 0`` the last line holds the end-to-end metrics: ``wall_s``
(the main CLI call, launch to exit), ``cpu_s`` (user+sys of that call and
the processes it waited for), ``setup_s`` (launch to the first Floquet
cycle call) and ``peak_rss_mb`` (largest max RSS of any process of that
call). With ``--trace 1`` iterations alternate untraced and traced, and
the last line holds the per-layer metrics of the traced ones, plus the
tracing overhead and the share of traced time no layer span covers.

The line before the last is the run record: every timing as median and
sample count (``recover_wall_s`` too), the accuracy figures against the
committed references, failures, and the machine fingerprint.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"
REFERENCES = BENCH_DIR / "references"
RUNS = ROOT / ".perfbench_runs"

CONFIG_SEED = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; no iteration starts that could pass this
HARD_LIMIT_S = 165.0
# outputs that must match a committed reference, or each other
MATCH_TOL = 1e-10
# an accuracy figure may exceed its committed value by this share before the
# output counts as wrong: a faster but less accurate change fails the run
ACCURACY_SLACK = 0.25

PHI_DTC = 0.45 * math.pi
NOISE = {
    "kind": "uniform",
    "decay": 0.97,
    "bias_even": 0.03,
    "bias_odd": -0.03,
    "align_bias_with_initial": True,
    "flip_slope": 0.01,
}

POINT_COLUMNS = ["t", "delta", "chi_nn", "chi_sg", "qfi", "hamming_mean", "hamming_var"]
NOISY_POINT_COLUMNS = (
    POINT_COLUMNS
    + [c + "_noisy" for c in POINT_COLUMNS[1:]]
    + ["delta_recovered", "delta_recovered_flag", "chi_recovered",
       "chi_recovered_flag", "p_flip"]
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "exact.apply_cycle_s": "s",
    "exact.apply_cycle_calls": "count",
    "exact.zz_pairs_s": "s",
    "exact.per_site_z_s": "s",
    "exact.zz_matrix_s": "s",
    "exact.sample_bits_s": "s",
    "mps.apply_cycle_s": "s",
    "mps.apply_cycle_calls": "count",
    "mps.svd_calls": "count",
    "mps.svd_flops": "flop",
    "mps.zz_matrix_s": "s",
    "mps.zz_pairs_s": "s",
    "mps.per_site_z_s": "s",
    "mps.sample_bits_s": "s",
    "mps.build_cycle_mpos_s": "s",
    "mps.max_bond": "count",
    "mps.truncation_error": "weight",
    "observables.s": "s",
    "noise.s": "s",
    "noise.corrupt_correlators_s": "s",
    "recovery.deconvolve_hamming_s": "s",
    "recovery.optimizer_calls": "count",
    "recovery.optimizer_nfev": "count",
    "recovery.learn_flip_schedule_s": "s",
    "recovery.kernel_column_calls": "count",
    "recovery.learn_offsets_s": "s",
    "recovery.learn_chi_coefficients_s": "s",
    "runner.simulate_system_calls": "count",
    "runner.write_s": "s",
    "runner.pool_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}
LAYERS = ("exact", "mps", "observables", "noise", "recovery", "runner")


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


# --- workloads ---


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # the main CLI call: "simulate" or "phase-diagram"
    config: dict
    check: Callable[["Outputs", dict, bool], dict]
    recover: bool = False  # also run `recover` on the raw bundle


@dataclass
class Outputs:
    out: Path  # output directory of the main call
    recovered: Path | None  # output directory of `recover`
    cycles: int


def _one(directory: Path, pattern: str) -> Path:
    found = sorted(directory.glob(pattern))
    if len(found) != 1:
        raise CheckFailed(f"expected one {pattern} in {directory.name}, found {len(found)}")
    return found[0]


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def read_point_csv(path: Path, columns: list[str], cycles: int) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != columns:
            raise CheckFailed(f"{path.name} columns {header} != {columns}")
        rows = [dict(zip(header, map(float, line))) for line in reader]
    if [int(r["t"]) for r in rows] != list(range(cycles + 1)):
        raise CheckFailed(f"{path.name} has {len(rows)} rows, expected t = 0..{cycles}")
    return rows


def _max_deviation(values, reference) -> float:
    if len(values) != len(reference):
        raise CheckFailed(f"length {len(values)} != reference length {len(reference)}")
    worst = max((abs(a - b) for a, b in zip(values, reference)), default=0.0)
    if not math.isfinite(worst):
        raise CheckFailed("non-finite value")
    return worst


def _expect_match(label: str, values, reference) -> None:
    worst = _max_deviation(values, reference)
    if worst > MATCH_TOL:
        raise CheckFailed(f"{label} differs from its reference by {worst:.3e}")


def recovery_errors(rows: list[dict]) -> dict:
    """Max over unflagged t >= 1 of |recovered - clean| for Delta and chi_nn."""
    errors = {}
    for key, recovered, clean in (
        ("recovery_delta_err", "delta_recovered", "delta"),
        ("recovery_chi_err", "chi_recovered", "chi_nn"),
    ):
        deviations = [
            abs(r[recovered] - r[clean])
            for r in rows
            if r["t"] >= 1 and r[recovered + "_flag"] == 0
        ]
        if not deviations:
            raise CheckFailed(f"every cycle of {recovered} is flagged")
        errors[key] = max(deviations)
    return errors


def trial_pmf(d0: float, sigma: float, k: float, q: float, n_bits: int) -> list[float]:
    """Gaussian-times-logistic trial distribution over d = 0..n_bits."""

    def expit(x: float) -> float:
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        return math.exp(x) / (1.0 + math.exp(x))

    weights = [
        math.exp(-((d - d0) ** 2) / (2 * sigma**2)) * expit(-(k * d + q))
        for d in range(n_bits + 1)
    ]
    total = sum(weights)
    if not total > 0:
        raise CheckFailed("deconvolved trial distribution has no weight")
    return [w / total for w in weights]


def deconvolution_tv(report: dict, hamming: dict, cycles: int) -> float:
    """Mean over t of TV(deconvolved trial pmf, clean Hamming distribution)."""
    trials = report.get("deconvolved")
    if not trials or len(trials) != cycles + 1:
        raise CheckFailed("recovery report lacks one deconvolved trial per cycle")
    distances = []
    for t, trial in enumerate(trials):
        clean = hamming["clean"][str(t)]
        pmf = trial_pmf(trial["d0"], trial["sigma"], trial["k"], trial["q"], len(clean) - 1)
        distances.append(0.5 * sum(abs(a - b) for a, b in zip(pmf, clean)))
    return sum(distances) / len(distances)


def _check_accuracy(accuracy: dict, ceilings: dict) -> None:
    for key, value in accuracy.items():
        if not math.isfinite(value):
            raise CheckFailed(f"{key} is not finite")
        ceiling = ceilings[key] * (1 + ACCURACY_SLACK)
        if value > ceiling:
            raise CheckFailed(f"{key} = {value:.6e} exceeds {ceiling:.6e}")


def accuracy_dense12(outputs: Outputs) -> dict:
    rows = read_point_csv(_one(outputs.out, "point_*.csv"), NOISY_POINT_COLUMNS, outputs.cycles)
    report = _load_json(_one(outputs.out, "recovery_*.json"))
    hamming = _load_json(_one(outputs.out, "hamming_*.json"))
    accuracy = recovery_errors(rows)
    accuracy["deconv_tv"] = deconvolution_tv(report, hamming, outputs.cycles)
    return accuracy


def check_dense12(outputs: Outputs, reference: dict, full_size: bool) -> dict:
    for name in ("config.resolved.json", "raw_*.csv"):
        _one(outputs.out, name)
    rows = read_point_csv(_one(outputs.out, "point_*.csv"), NOISY_POINT_COLUMNS, outputs.cycles)
    _expect_match("clean delta", [r["delta"] for r in rows],
                  reference["delta"][: outputs.cycles + 1])
    in_run = _load_json(_one(outputs.out, "recovery_*.json"))["delta_recovered"]
    offline = _load_json(_one(outputs.recovered, "recovery_*.json"))["delta_recovered"]
    if _max_deviation(offline, in_run) > MATCH_TOL:
        raise CheckFailed("recover's delta_recovered differs from the in-run report")
    accuracy = accuracy_dense12(outputs)
    if full_size:
        _check_accuracy(accuracy, reference["accuracy"])
    return accuracy


def accuracy_mps35(outputs: Outputs, reference: dict) -> dict:
    rows = read_point_csv(_one(outputs.out, "point_*.csv"), NOISY_POINT_COLUMNS, outputs.cycles)
    accuracy = recovery_errors(rows)
    accuracy["mps_delta_err"] = _max_deviation(
        [r["delta"] for r in rows], reference["delta"][: outputs.cycles + 1]
    )
    return accuracy


def check_mps35(outputs: Outputs, reference: dict, full_size: bool) -> dict:
    for name in ("config.resolved.json", "raw_*.csv", "hamming_*.json", "recovery_*.json"):
        _one(outputs.out, name)
    rows = read_point_csv(_one(outputs.out, "point_*.csv"), NOISY_POINT_COLUMNS, outputs.cycles)
    if abs(rows[0]["delta"] - 1.0) > MATCH_TOL:
        raise CheckFailed(f"delta(0) = {rows[0]['delta']!r}, expected 1")
    accuracy = accuracy_mps35(outputs, reference)
    if full_size:
        _check_accuracy(accuracy, reference["accuracy"])
    return accuracy


def check_dense21(outputs: Outputs, reference: dict, full_size: bool) -> dict:
    _one(outputs.out, "config.resolved.json")
    grid = _load_json(_one(outputs.out, "phase_grid.json"))
    expected = reference["phase_grid"]
    if len(grid) != len(expected):
        raise CheckFailed(f"phase grid has {len(grid)} cells, expected {len(expected)}")
    for got, want in zip(grid, expected):
        if (got["eps"], got["phi"]) != (want["eps"], want["phi"]):
            raise CheckFailed(f"phase grid cell {got['eps']}, {got['phi']} out of order")
        values = [got["delta_mbl"], got["delta_dtc"]]
        if full_size:
            _expect_match("phase grid", values, [want["delta_mbl"], want["delta_dtc"]])
        elif not all(math.isfinite(v) for v in values):
            raise CheckFailed("phase grid value is not finite")
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense12-recover",
            why="recovery learners dominate (deconvolution, flip schedule); "
            "the dense backend is a few percent; the only workload on the recover path",
            command="simulate",
            config={
                "rows": 1, "cols": 1, "epsilons": [0.05], "phis": [PHI_DTC],
                "cycles": 12, "initial_state": "neel", "backend": "exact",
                "shots": 2000, "workers": 1, "full_correlations": True,
                "noise": NOISE,
                "recovery": {"learn_rows": None, "learn_cols": None, "deconvolve": True},
            },
            check=check_dense12,
            recover=True,
        ),
        Workload(
            name="mps35-chi32",
            why="the MPS cycle dominates and chi 32 truncates, so speed trades "
            "against accuracy; offsets transfer from 12 to 35 qubits",
            command="simulate",
            config={
                "rows": 2, "cols": 2, "epsilons": [0.05], "phis": [PHI_DTC],
                "cycles": 2, "initial_state": "neel", "backend": "mps",
                "mps": {"chi_max": 32, "cutoff": 1e-12, "zip_factor": 4},
                "shots": 500, "workers": 1, "full_correlations": True,
                "noise": NOISE,
                "recovery": {"learn_rows": 1, "learn_cols": 1, "deconvolve": False},
            },
            check=check_mps35,
        ),
        Workload(
            name="dense21-phase",
            why="the dense oracle at 21 qubits on 32 MB states, over a process "
            "pool of 2 workers; no MPS, recovery, sampling or noise",
            command="phase-diagram",
            config={
                "rows": 1, "cols": 2, "epsilons": [0.05, 0.3],
                "phis": [0.3, PHI_DTC], "cycles": 1, "initial_state": "neel",
                "backend": "exact", "shots": 0, "workers": 2,
                "full_correlations": False,
            },
            check=check_dense21,
        ),
    )
}


# --- running the program ---


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exit_code: int
    probe: Path


class Child:
    """The one CLI process running at a time; killed with its group on exit."""

    def __init__(self):
        self.process: subprocess.Popen | None = None

    def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """Kill the running call, if any, and wait until it has ended."""
        self.kill()
        if self.process is not None and self.process.returncode is None:
            self.process.wait()


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(child: Child, cli_args: list[str], call_dir: Path, trace: bool,
           timeout: float) -> Call:
    """Run one CLI call to completion; time it from launch to exit."""
    probe = call_dir / "probe"
    probe.mkdir(parents=True)
    command = [sys.executable, str(LAUNCHER), str(probe), "1" if trace else "0", "--"]
    with open(call_dir / "stdout", "wb") as out, open(call_dir / "stderr", "wb") as err:
        start = time.monotonic()
        child.process = subprocess.Popen(
            command + cli_args, cwd=call_dir, env=program_env(),
            stdout=out, stderr=err, start_new_session=True,
        )
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            # wait4 gives this child's rusage, which includes the pool
            # workers it waited for
            _, status, usage = os.wait4(child.process.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    exit_code = os.waitstatus_to_exitcode(status)
    child.process.returncode = exit_code
    first_cycle = []
    if (probe / "first_cycle").exists():
        first_cycle = [float(line.split()[1]) for line in open(probe / "first_cycle")]
    return Call(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=min(first_cycle) - start if first_cycle else None,
        exit_code=exit_code,
        probe=probe,
    )


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


@dataclass
class Iteration:
    traced: bool
    main: Call | None = None
    recover: Call | None = None
    accuracy: dict = field(default_factory=dict)
    error: str | None = None
    layers: dict | None = None


def run_iteration(child: Child, workload: Workload, config_path: Path,
                  directory: Path, cycles: int, reference: dict, full_size: bool,
                  traced: bool, deadline: float) -> Iteration:
    it = Iteration(traced=traced)
    out = directory / "out"
    try:
        it.main = launch(
            child,
            [workload.command, "--config", str(config_path), "--out", str(out)],
            directory / "main", traced, deadline - time.monotonic(),
        )
        if it.main.exit_code != 0:
            raise CheckFailed(f"{workload.command} exited with {it.main.exit_code}: "
                              + _tail(directory / "main" / "stderr"))
        recovered = None
        if workload.recover:
            recovered = directory / "recovered"
            raw = _one(out, "raw_*.csv")
            it.recover = launch(
                child,
                ["recover", "--config", str(config_path), "--raw", str(raw),
                 "--out", str(recovered)],
                directory / "recover", traced, deadline - time.monotonic(),
            )
            if it.recover.exit_code != 0:
                raise CheckFailed(f"recover exited with {it.recover.exit_code}: "
                                  + _tail(directory / "recover" / "stderr"))
        if it.main.setup_s is None:
            raise CheckFailed("no Floquet cycle ran")
        it.accuracy = workload.check(Outputs(out, recovered, cycles), reference, full_size)
        if traced:
            calls = [c for c in (it.main, it.recover) if c is not None]
            it.layers = layer_metrics(calls, workload.config.get("workers", 1))
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        it.error = f"{type(exc).__name__}: {exc}"
    return it


# --- per-layer metrics from the traced calls ---


def read_trace(probe: Path) -> tuple[list[dict], dict, dict, int | None]:
    spans, counts, gauges, main_pid = [], defaultdict(float), {}, None
    for path in sorted(probe.glob("trace.*.jsonl")):
        for line in open(path):
            record = json.loads(line)
            if "span" in record:
                spans.append(record)
                continue
            for name, value in record["counts"].items():
                counts[name] += value
            if record["main"]:
                main_pid = record["pid"]
                gauges.update(record["gauges"])
    return spans, counts, gauges, main_pid


def layer_metrics(calls: list[Call], workers: int) -> dict:
    """Per-layer metrics summed over the traced CLI calls of one iteration."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    covered = wall = 0.0
    cell_busy = pool_wall = 0.0
    for call in calls:
        spans, counts, gauges, main_pid = read_trace(call.probe)
        by_id = {s["id"]: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            parent = by_id.get(s["parent"])
            if parent is not None and parent["pid"] == s["pid"]:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name, duration = s["span"], s["end"] - s["start"]
            layer = name.split(".")[0]
            self_time = duration - child_time[s["id"]]
            if f"{name}_s" in metrics:
                metrics[f"{name}_s"] += self_time
            if f"{name}_calls" in metrics:
                metrics[f"{name}_calls"] += 1
            if layer in ("observables", "noise"):
                metrics[f"{layer}.s"] += self_time
            if name.startswith("runner.write_"):
                metrics["runner.write_s"] += self_time
            if name == "runner._simulate_system":
                metrics["runner.simulate_system_calls"] += 1
            if name == "runner._phase_cell" and s["pid"] != main_pid:
                cell_busy += duration
            if name == "runner.run_phase_diagram":
                pool_wall += duration
            parent = by_id.get(s["parent"])
            top_layer = parent is None or parent["span"].split(".")[0] not in LAYERS
            if s["pid"] == main_pid and layer in LAYERS and top_layer:
                covered += duration
        for name, value in counts.items():
            if name in metrics:
                metrics[name] += value
        for name, value in gauges.items():
            if name in metrics and metrics[name] == 0.0:
                metrics[name] = float(value)
        wall += call.wall_s
    if cell_busy and pool_wall and workers > 1:
        metrics["runner.pool_efficiency"] = cell_busy / (workers * pool_wall)
    metrics["trace.uncovered_frac"] = (wall - covered) / wall
    return metrics


# --- run record ---


def fingerprint() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "thread_vars": {var: "unset" for var in THREAD_VARS},
    }
    try:
        import numpy
        import scipy

        record["numpy"] = numpy.__version__
        record["scipy"] = scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        record["blas"] = f"unknown ({exc})"
    record["src_lines"] = sum(
        sum(1 for _ in open(path)) for path in sorted(SRC.rglob("*.py"))
    )
    return record


def _median(values: list[float]) -> dict:
    return {"median": statistics.median(values) if values else None, "n": len(values),
            "samples": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="recorded only; see above")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config-seed", type=int, default=CONFIG_SEED,
                        help="disorder and shot seed of the program's config")
    parser.add_argument("--cycles", type=int, default=None,
                        help="shorten the workload (self-test only; skips the "
                        "checks that hold only at full size)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "dtc2d" / "cli.py").is_file():
        print(f"no dtc2d sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference_path = REFERENCES / f"{workload.name}.json"
    if not reference_path.is_file():
        print(f"missing reference {reference_path}", file=sys.stderr)
        return 2
    with open(reference_path) as fh:
        reference = json.load(fh)
    cycles = args.cycles or workload.config["cycles"]
    full_size = cycles == workload.config["cycles"] and args.config_seed == CONFIG_SEED

    run_dir = RUNS / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config = dict(workload.config, cycles=cycles, seed=args.config_seed)
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    child = Child()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    iterations: list[Iteration] = []
    try:
        while True:
            elapsed = time.monotonic() - started
            traced = bool(args.trace) and len(iterations) % 2 == 1
            have_both = not args.trace or len(iterations) >= 2
            if iterations and elapsed >= args.seconds and have_both:
                break
            last = iterations[-1].main.wall_s if iterations and iterations[-1].main else 0.0
            if iterations and elapsed + 2 * last > HARD_LIMIT_S:
                break
            directory = run_dir / f"iter-{len(iterations)}"
            it = run_iteration(child, workload, config_path, directory, cycles,
                               reference, full_size, traced,
                               started + HARD_LIMIT_S)
            iterations.append(it)
            if it.error:
                print(f"iteration {len(iterations) - 1}: {it.error}", file=sys.stderr)
                if it.main is None or it.main.exit_code != 0:
                    break
            else:
                shutil.rmtree(directory)
    finally:
        child.stop()
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        RUNS.rmdir()
    except OSError:
        pass  # another run still uses it

    failed = sum(1 for it in iterations if it.error)
    plain = [it for it in iterations if not it.traced and it.main is not None]
    traced_runs = [it for it in iterations if it.traced and it.layers is not None]
    samples = {
        "wall_s": [it.main.wall_s for it in plain],
        "cpu_s": [it.main.cpu_s for it in plain],
        "setup_s": [it.main.setup_s for it in plain if it.main.setup_s is not None],
        "peak_rss_mb": [it.main.peak_rss_mb for it in plain],
        "recover_wall_s": [it.recover.wall_s for it in plain if it.recover],
    }
    accuracy = {}
    for it in iterations:
        for key, value in it.accuracy.items():
            accuracy[key] = max(value, accuracy.get(key, value))

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [it.layers[name] for it in traced_runs]
            metrics[name] = {"value": statistics.median(values) if values else None,
                             "unit": unit}
        traced_wall = [it.main.wall_s for it in traced_runs]
        if traced_wall and samples["wall_s"]:
            plain_wall = statistics.median(samples["wall_s"])
            metrics["trace.overhead_frac"]["value"] = (
                statistics.median(traced_wall) / plain_wall - 1.0
            )
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]) if samples[name] else None,
                   "unit": unit}
            for name, unit in END_TO_END.items()
        }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "config_seed": args.config_seed,
        "cycles": cycles,
        "trace": args.trace,
        "closed_loop": "one CLI call at a time, 1 client",
        "timings": {name: _median(values) for name, values in samples.items()},
        "accuracy": accuracy,
        "attempted": len(iterations),
        "failed": failed,
        "fail_frac": failed / len(iterations) if iterations else 1.0,
        "errors": [it.error for it in iterations if it.error],
        "fingerprint": fingerprint(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and bool(iterations),
        "attempted": max(len(iterations), 1),
        "failed": failed if iterations else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
