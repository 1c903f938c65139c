"""The outputs of the three benchmark configs, against committed golden files.

``tests/golden/<name>.json`` is a benchmark config at config seed 7 (the
phase grid runs serially); ``tests/golden/<name>/`` holds what the CLI
wrote for it: the ``simulate`` or ``phase-diagram`` files and, for a run
with a raw bundle, the offline ``recover`` report in ``recovered/``.
``python tests/golden/regenerate.py`` rewrites them.

Each file is compared by what its values are: the Hamming JSON, ``t``,
flags and ``config.resolved.json`` (apart from ``output_dir``) as text,
other numbers within ``FLOAT_TOL`` relative to max(1, |value|), and each
deconvolved trial through the pmf it gives, within ``PMF_TV_TOL`` in total
variation: flat directions of the fit move its parameters far more than
its pmf. No numerical guard of the program may warn while they are made.
"""
import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtc2d.cli import main as cli_main
from dtc2d.lattice import build_lattice
from dtc2d.recovery import TrialDistribution

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "dense12-recover": "simulate",
    "mps35-chi32": "simulate",
    "dense21-phase": "phase-diagram",
}
FLOAT_TOL = 1e-12
PMF_TV_TOL = 1e-10


def produce(name: str, out: Path) -> None:
    """Write the outputs of golden config ``name`` into ``out``."""
    config = str(GOLDEN / f"{name}.json")
    assert cli_main([COMMANDS[name], "--config", config, "--out", str(out)]) == 0
    for raw in sorted(out.glob("raw_*.csv")):
        recovered = ["--raw", str(raw), "--out", str(out / "recovered")]
        assert cli_main(["recover", "--config", config, *recovered]) == 0


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _close_float(got: float, want: float, where: str) -> None:
    if math.isnan(want):
        assert math.isnan(got), where
    else:
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (where, got, want)


def _pmf(trial: dict, n_bits: int) -> np.ndarray:
    params = {k: trial[k] for k in ("d0", "sigma", "k", "q")}
    log_w = TrialDistribution(**params).log_weights(n_bits)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def _close_json(got, want, where: str, n_bits: int) -> None:
    """Numbers within tolerance, trials by pmf, everything else exactly."""
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        _close_float(float(got), want, where)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _close_json(got[key], want[key], f"{where}.{key}", n_bits)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        trials = where.endswith(".deconvolved")
        for i, (g, w) in enumerate(zip(got, want)):
            if trials:
                assert g["at_bound"] == w["at_bound"], (where, i)
                tv = 0.5 * np.abs(_pmf(g, n_bits) - _pmf(w, n_bits)).sum()
                assert tv <= PMF_TV_TOL, (where, i, tv)
            else:
                _close_json(g, w, f"{where}[{i}]", n_bits)
    else:  # integers, flags, booleans and strings
        assert type(got) is type(want) and got == want, (where, got, want)


def _compare_csv(got: Path, want: Path, where: str) -> None:
    got_rows, want_rows = (list(csv.reader(p.open())) for p in (got, want))
    assert got_rows[0] == want_rows[0], where
    assert len(got_rows) == len(want_rows), where
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        for column, g, w in zip(want_rows[0], got_row, want_row):
            cell = f"{where}[t={want_row[0]}].{column}"
            if column == "t" or column.endswith("_flag"):
                assert g == w, cell
            else:
                _close_float(float(g), float(w), cell)


def _without_output_dir(path: Path) -> list[str]:
    return [
        line for line in path.read_text().splitlines()
        if not line.lstrip().startswith('"output_dir"')
    ]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_golden_files(name, tmp_path):
    want_root = GOLDEN / name
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # no numerical guard fires
        produce(name, tmp_path)
    assert _files(tmp_path) == _files(want_root)
    config = json.loads((GOLDEN / f"{name}.json").read_text())
    n_bits = build_lattice(config["rows"], config["cols"]).n_qubits
    for relative in sorted(_files(want_root)):
        got, want = tmp_path / relative, want_root / relative
        if got.name == "config.resolved.json":
            assert _without_output_dir(got) == _without_output_dir(want), relative
        elif got.name.startswith("hamming_"):
            assert got.read_text() == want.read_text(), relative
        elif got.suffix == ".csv":
            _compare_csv(got, want, relative)
        else:
            _close_json(
                json.loads(got.read_text()), json.loads(want.read_text()),
                relative, n_bits,
            )
