"""Command-line interface.

    dtc2d simulate --config run.json [--seed N] [--backend exact|mps]
                   [--out DIR] [--chi-max N | --chi-sweep 32,64,128]
    dtc2d phase-diagram --config run.json [...]
    dtc2d recover --config run.json --raw raw_eps..._phi....csv [--out DIR]
    dtc2d export-lattice --rows R --cols C

`simulate` evolves every grid point of the config, writing one CSV per
point plus Hamming-distribution and recovery JSON files; with noise
configured it also writes the raw bundle that `recover` consumes.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .blas import limit_blas_threads, one_thread_at_load

one_thread_at_load()  # before the first import that loads numpy
from .config import RunConfig, point_tag
from .lattice import build_lattice
from .runner import (
    recover_from_raw,
    run_phase_diagram,
    run_point,
    write_phase_grid,
    write_point_outputs,
    write_recovery_report,
    write_resolved_config,
)


def _add_common(parser: argparse.ArgumentParser, evolves: bool = True) -> None:
    parser.add_argument("--config", required=True, help="run config JSON")
    if evolves:  # overrides of the evolution, for a command that runs one
        parser.add_argument("--seed", type=int, default=None, help="override config seed")
        parser.add_argument("--backend", choices=("exact", "mps"), default=None)
        parser.add_argument("--chi-max", type=int, default=None, help="override MPS bond cap")
    parser.add_argument("--out", default=None, help="override output directory")


def _parse_chi_sweep(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"invalid --chi-sweep value {text!r}") from exc
    if not values:
        raise SystemExit("--chi-sweep needs at least one bond dimension")
    for i, chi in enumerate(values):
        if chi in values[:i]:
            raise SystemExit(f"--chi-sweep repeats the bond cap {chi}")
    return values


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file with the given overrides, checked as a loaded config is."""
    config = RunConfig.load(args.config)
    overrides = {"output_dir": args.out}
    if "seed" in args:  # a command that evolves, with its overrides
        overrides.update(seed=args.seed, backend=args.backend)
        if args.chi_max is not None:
            overrides["mps"] = replace(config.mps, chi_max=args.chi_max)
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return config if config.output_dir else replace(config, output_dir="runs")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.chi_sweep and (args.chi_max is not None or args.backend == "exact"):
        flag = "--chi-max" if args.chi_max is not None else "--backend exact"
        raise SystemExit(f"{flag} conflicts with --chi-sweep, which runs MPS at each cap")
    config = _load_config(args)
    if args.chi_sweep:
        # convergence protocol: one sub-run per bond cap, no automatic
        # convergence verdict; compare the per-chi curves by eye. Every
        # sub-config is built, and so validated, before the first one runs.
        subs = [
            replace(
                config,
                backend="mps",
                mps=replace(config.mps, chi_max=chi),
                output_dir=os.path.join(config.output_dir, f"chi_{chi}"),
            )
            for chi in _parse_chi_sweep(args.chi_sweep)
        ]
        for sub in subs:
            _simulate_config(sub)
        return 0
    _simulate_config(config)
    return 0


def _simulate_config(config: RunConfig) -> None:
    out = config.output_dir
    write_resolved_config(config, out)
    for eps in config.epsilons:
        for phi in config.phis:
            result = run_point(config, eps, phi)
            for path in write_point_outputs(result, out):
                print(path)


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.output_dir
    write_resolved_config(config, out)
    points = run_phase_diagram(config)
    path = write_phase_grid(points, out)
    print(path)
    return 0


def _bundle_point(config: RunConfig, raw_path: str) -> tuple[float, float]:
    """The grid point whose tag the raw bundle's name raw_<tag>.csv carries."""
    name = os.path.basename(raw_path)
    tag = name.removeprefix("raw_").removesuffix(".csv")
    matches = [
        (eps, phi)
        for eps in config.epsilons
        for phi in config.phis
        if point_tag(eps, phi) == tag
    ]
    if len(matches) != 1:
        raise SystemExit(
            f"raw bundle {name!r}: {len(matches)} grid points of the config "
            f"have the tag {tag!r}, need exactly one"
        )
    return matches[0]


def cmd_recover(args: argparse.Namespace) -> int:
    config = _load_config(args)
    eps, phi = _bundle_point(config, args.raw)
    report = recover_from_raw(config, args.raw, phi)
    print(write_recovery_report(report, point_tag(eps, phi), config.output_dir))
    return 0


def cmd_export_lattice(args: argparse.Namespace) -> int:
    lattice = build_lattice(args.rows, args.cols)
    print(lattice.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dtc2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evolve every grid point of a config")
    _add_common(p)
    p.add_argument(
        "--chi-sweep",
        default=None,
        help="comma-separated bond caps; runs the MPS backend once per value",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("phase-diagram", help="order parameters over the grid")
    _add_common(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("recover", help="re-run recovery on an exported raw bundle")
    _add_common(p, evolves=False)
    p.add_argument("--raw", required=True, help="raw bundle CSV from simulate")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("export-lattice", help="print the lattice graph as JSON")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cmd_export_lattice)

    args = parser.parse_args(argv)
    limit_blas_threads()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
