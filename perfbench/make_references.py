"""Write the committed references the benchmark checks against.

    python3 perfbench/make_references.py [--workload NAME ...]

One-off: the benchmark only reads ``perfbench/references/<workload>.json``
and generates nothing per run. Rerun this only when a change is meant to
alter the program's outputs, and commit the new files with that change.
Each file records the config it came from, the machine, and:

- ``dense12-recover``: the clean-channel Delta(t) (exact backend), and
  the accuracy figures of the workload itself (recovery errors and the
  deconvolution's total-variation distance).
- ``mps35-chi32``: Delta(t) and chi_nn(t) of the same 2x2 system at chi 128,
  with that run's own truncation error and largest bond, and the chi-32
  workload's accuracy figures against it.
- ``dense21-phase``: the workload's ``phase_grid.json``.

The chi-128 run takes the longest, about a minute on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from datetime import datetime, timezone

import run


def run_program(child: run.Child, name: str, command: str, config: dict,
                trace: bool = False) -> tuple[run.Call, run.Outputs]:
    directory = run.RUNS / f"references-{name}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    out = directory / "out"
    call = run.launch(child, [command, "--config", str(config_path), "--out", str(out)],
                      directory / "call", trace, timeout=3600.0)
    if call.exit_code != 0:
        raise SystemExit(f"{name}: {command} exited with {call.exit_code}: "
                         + run._tail(directory / "call" / "stderr"))
    return call, run.Outputs(out, None, config["cycles"])


def workload_config(workload: run.Workload) -> dict:
    return dict(workload.config, seed=run.CONFIG_SEED)


def make_dense12(child: run.Child, workload: run.Workload) -> dict:
    config = workload_config(workload)
    _, outputs = run_program(child, workload.name, workload.command, config)
    rows = run.read_point_csv(run._one(outputs.out, "point_*.csv"),
                              run.NOISY_POINT_COLUMNS, outputs.cycles)
    return {
        "config": config,
        "delta": [r["delta"] for r in rows],
        "accuracy": run.accuracy_dense12(outputs),
    }


def make_mps35(child: run.Child, workload: run.Workload) -> dict:
    config = workload_config(workload)
    reference_chi = 128
    exact_config = dict(
        config,
        mps=dict(config["mps"], chi_max=reference_chi),
        shots=0, noise=None, recovery=None, full_correlations=False,
    )
    call, outputs = run_program(child, workload.name + "-chi128", workload.command,
                                exact_config, trace=True)
    rows = run.read_point_csv(run._one(outputs.out, "point_*.csv"),
                              run.POINT_COLUMNS, outputs.cycles)
    _, _, gauges, _ = run.read_trace(call.probe)
    reference = {
        "config": config,
        "reference_chi": reference_chi,
        "reference_truncation_error": gauges["mps.truncation_error"],
        "reference_max_bond": gauges["mps.max_bond"],
        "delta": [r["delta"] for r in rows],
        "chi_nn": [r["chi_nn"] for r in rows],
    }
    _, outputs = run_program(child, workload.name, workload.command, config)
    reference["accuracy"] = run.accuracy_mps35(outputs, reference)
    return reference


def make_dense21(child: run.Child, workload: run.Workload) -> dict:
    config = workload_config(workload)
    _, outputs = run_program(child, workload.name, workload.command, config)
    with open(run._one(outputs.out, "phase_grid.json")) as fh:
        grid = json.load(fh)
    return {"config": config, "phase_grid": grid}


MAKERS = {
    "dense12-recover": make_dense12,
    "mps35-chi32": make_mps35,
    "dense21-phase": make_dense21,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(MAKERS))
    args = parser.parse_args(argv)
    run.REFERENCES.mkdir(exist_ok=True)
    child = run.Child()
    try:
        for name in args.workload or sorted(MAKERS):
            reference = MAKERS[name](child, run.WORKLOADS[name])
            reference["made_by"] = {
                "command": f"python3 perfbench/make_references.py --workload {name}",
                "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
                "fingerprint": run.fingerprint(),
            }
            path = run.REFERENCES / f"{name}.json"
            path.write_text(json.dumps(reference, indent=1) + "\n")
            print(path)
    finally:
        child.stop()
        for directory in run.RUNS.glob("references-*"):
            shutil.rmtree(directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
