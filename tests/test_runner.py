import json
import math
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dtc2d import runner
from dtc2d.cli import main as cli_main
from dtc2d.config import MPSOptions, RecoverySettings, RunConfig, point_tag
from dtc2d.exact import CapacityError, StateVector
from dtc2d.lattice import build_lattice
from dtc2d.mps import MPSState
from dtc2d.noise import NoiseSpec
from dtc2d.observables import TimeSeries
from dtc2d.recovery import TRIAL_CURVATURE_FLOOR, clifford_delta
from dtc2d.runner import (
    point_csv_rows,
    recover_from_raw,
    run_phase_diagram,
    run_point,
    write_point_outputs,
    write_raw_bundle,
    write_recovery_report,
    write_resolved_config,
    _raw_bundle,
    _simulate_system,
)

DTC_PHI = 0.45 * np.pi


def small_config(**overrides):
    base = dict(
        rows=1,
        cols=1,
        epsilons=(0.05,),
        phis=(DTC_PHI,),
        cycles=4,
        backend="exact",
        seed=7,
        full_correlations=True,
        shots=0,
    )
    base.update(overrides)
    return RunConfig(**base)


# configs that were accepted before, only to fail once a grid point ran
INVALID_CONFIGS = {
    "exact-35-qubits": {"rows": 2, "cols": 2},
    "exact-learns-on-35-qubits": {"recovery": {"learn_rows": 2, "learn_cols": 2}},
    "no-rows": {"rows": 0},
    "no-cols": {"cols": 0},
    "fractional-cycles": {"cycles": 1.5},
    "bool-shots": {"shots": True},
    "float-workers": {"workers": 2.0},
    "string-seed": {"seed": "7"},
    "negative-seed": {"seed": -1},
    "fractional-learn-rows": {"recovery": {"learn_rows": 1.5}},
    "bool-learn-cols": {"recovery": {"learn_cols": True}},
    "fractional-chi-max": {"mps": {"chi_max": 2.5}},
    "bool-chi-max": {"mps": {"chi_max": True}},
    "unknown-noise-kind": {"noise": {"kind": "bogus"}},
    "noise-decay-above-1": {"noise": {"decay": 1.5}},
    "noise-flip-cap-above-half": {"noise": {"flip_cap": 0.9}},
    "negative-flip-slope": {"noise": {"flip_slope": -1}},
    "nan-flip-slope": {"noise": {"flip_slope": float("nan")}},
    "fractional-noise-seed": {"noise": {"kind": "mismatched", "seed": 1.5}},
    "unknown-mps-key": {"mps": {"chi": 3}},
    "unknown-noise-key": {"noise": {"decai": 0.9}},
    "unknown-recovery-key": {"recovery": {"ridg": 1}},
    "unknown-top-level-key": {"cycle": 3},
    "negative-epsilon": {"epsilons": [-0.1], "cycles": 1},
    "nan-noise-decay": {"noise": {"decay": float("nan")}},
    "nan-noise-bias-even": {"noise": {"bias_even": float("nan")}},
    "nan-decay-spread": {"noise": {"kind": "mismatched", "decay_spread": float("nan")}},
    "nan-mismatched-decay": {"noise": {"kind": "mismatched", "decay": float("nan")}},
    "empty-epsilons": {"epsilons": []},
    "empty-phis": {"phis": []},
    # the 2x2 target draws biases inside [-1, 1]; the 12-qubit learn lattice
    # draws one past 1, which used to fail only after the target had run
    "mismatched-bias-scale-above-1": {
        "rows": 2, "cols": 2, "backend": "mps", "mps": {"chi_max": 8}, "shots": 10,
        "noise": {"kind": "mismatched", "seed": 3, "bias_scale": 1.02},
        "recovery": {"learn_rows": 1, "learn_cols": 1},
    },
    # boolean keys take JSON booleans only: "false" and "no" are truthy
    "string-checkpoint": {"backend": "mps", "checkpoint": "false"},
    "string-full-correlations": {"full_correlations": "no"},
    "int-full-correlations": {"full_correlations": 0},
    "string-deconvolve": {"shots": 10, "recovery": {"deconvolve": "yes"}},
    "string-align-bias": {"noise": {"align_bias_with_initial": "no"}},
    # each section is a JSON object, and numbers, strings and the grid lists
    # have their JSON types
    "number-mps-section": {"mps": 5},
    "list-noise-section": {"noise": []},
    "number-epsilons": {"epsilons": 0.05},
    "null-epsilon": {"epsilons": [None]},
    "string-phis": {"phis": "1"},
    "number-initial-state": {"initial_state": 5},
    "string-ridge": {"recovery": {"ridge": "1"}},
    "string-cutoff": {"mps": {"cutoff": "1"}},
    "string-flip-cap": {"noise": {"flip_cap": "0.1"}},
    # a section that may not be null, and a field that defaults to None, have
    # kinds too
    "null-mps-section": {"backend": "mps", "mps": None, "cycles": 1},
    "number-output-dir": {"output_dir": 5},
    # json.loads reads the literals NaN and Infinity: every number is finite
    "inf-ridge": {"recovery": {"ridge": math.inf}},
    "inf-guard": {"recovery": {"guard": math.inf}},
    "inf-lambda-mean": {"shots": 10, "recovery": {"lambda_mean": math.inf}},
    "inf-cutoff": {"mps": {"cutoff": math.inf}},
    "inf-flip-slope": {"noise": {"flip_slope": math.inf}},
    # nor may an integer be too large for a float
    "huge-int-cutoff": {"mps": {"cutoff": 10**400}},
    "huge-int-epsilon": {"epsilons": [10**400]},
    "huge-int-noise-decay": {"noise": {"decay": 10**400}},
    "huge-int-ridge": {"recovery": {"ridge": 10**400}},
    # "" would write into the working directory and skip checkpoints
    "empty-output-dir": {"output_dir": ""},
}


class TestConfig:
    def test_json_roundtrip(self):
        config = small_config(
            noise=NoiseSpec(decay=0.95, bias_even=0.01),
            recovery=RecoverySettings(ridge=1e-3, learn_rows=1, learn_cols=1),
            mps=MPSOptions(chi_max=32),
            backend="mps",
            shots=100,
        )
        restored = RunConfig.from_json(config.to_json())
        assert restored == config
        # an empty section stands for that section's defaults
        assert RunConfig.from_json('{"mps": {}, "recovery": {}}') == RunConfig(
            recovery=RecoverySettings()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(cycles=0)
        with pytest.raises(ValueError):
            small_config(backend="dense")
        with pytest.raises(ValueError):
            small_config(shots=-1)

    def test_point_tag_collision_rejected(self):
        with pytest.raises(ValueError, match="file tag"):
            small_config(phis=(1.2345671, 1.2345674))
        with pytest.raises(ValueError, match="file tag"):
            small_config(epsilons=(0.05, 0.05))
        small_config(phis=(1.23456, 1.23457))

    @pytest.mark.parametrize(
        "override, message",
        [
            pytest.param({"phis": [-0.1]}, "phi", id="phi-below-0"),
            pytest.param({"phis": [0.1, 1.6]}, "phi", id="phi-above-pi/2"),
            pytest.param({"epsilons": [float("nan")]}, "epsilon", id="eps-nan"),
            pytest.param({"epsilons": [float("inf")]}, "epsilon", id="eps-inf"),
            pytest.param({"workers": 0}, "workers", id="workers-0"),
            pytest.param({"mps": {"chi_max": 0}}, "chi_max", id="chi-max-0"),
            pytest.param({"mps": {"cutoff": -1e-12}}, "cutoff", id="cutoff-negative"),
            pytest.param({"recovery": {"ridge": 0.0}}, "ridge", id="ridge-0"),
            pytest.param({"recovery": {"guard": 0.0}}, "guard", id="guard-0"),
            pytest.param({"recovery": {"lambda_mean": 0.0}}, "lambda_mean", id="mean-0"),
            pytest.param({"recovery": {"lambda_var": -1.0}}, "lambda_var", id="var-neg"),
            pytest.param({"recovery": {"learn_rows": 0}}, "learn_rows", id="rows-0"),
            pytest.param({"recovery": {"learn_cols": 0}}, "learn_cols", id="cols-0"),
            pytest.param({"mps": {"chi": 3}}, "mps.chi", id="key-mps.chi"),
            pytest.param({"cycle": 3}, "key.*: cycle", id="key-cycle"),
            pytest.param({"checkpoint": "false"}, "checkpoint", id="bool-checkpoint"),
            pytest.param(
                {"full_correlations": 0}, "full_correlations", id="bool-full-corr"
            ),
            pytest.param(
                {"recovery": {"deconvolve": "yes"}},
                "recovery.deconvolve",
                id="bool-deconvolve",
            ),
            pytest.param(
                {"noise": {"align_bias_with_initial": "no"}},
                "noise.align_bias_with_initial",
                id="bool-align-bias",
            ),
            pytest.param({"phis": "1"}, "phis", id="phis-string"),
            pytest.param({"noise": []}, "noise", id="noise-list"),
            pytest.param(
                {"recovery": {"deconvolve": True}, "shots": 0},
                "deconvolve",
                id="deconvolve-without-shots",
            ),
            pytest.param(
                {"recovery": {"deconvolve": True}, "full_correlations": False},
                "deconvolve",
                id="deconvolve-without-full-correlations",
            ),
            pytest.param(
                {"recovery": {"ridge": math.inf}}, "recovery.ridge", id="ridge-inf"
            ),
            pytest.param(
                {"recovery": {"guard": math.inf}}, "recovery.guard", id="guard-inf"
            ),
            pytest.param(
                {"recovery": {"lambda_mean": math.inf, "deconvolve": True}},
                "recovery.lambda_mean",
                id="mean-inf",
            ),
            pytest.param({"mps": {"cutoff": math.inf}}, "mps.cutoff", id="cutoff-inf"),
            pytest.param(
                {"noise": {"flip_slope": math.inf}},
                "noise.flip_slope",
                id="flip-slope-inf",
            ),
            pytest.param({"mps": {"cutoff": 10**400}}, "mps.cutoff", id="cutoff-huge-int"),
            pytest.param({"epsilons": [10**400]}, "epsilons", id="epsilon-huge-int"),
            pytest.param(
                {"noise": {"decay": 10**400}}, "noise.decay", id="decay-huge-int"
            ),
            pytest.param(
                {"recovery": {"ridge": 10**400}}, "recovery.ridge", id="ridge-huge-int"
            ),
            pytest.param({"output_dir": ""}, "output_dir", id="empty-output-dir"),
            pytest.param(
                {"initial_state": "0101010101x1"}, "initial_state", id="bits-not-0/1"
            ),
            pytest.param(
                {"initial_state": "01010101010"}, "initial_state", id="bits-too-short"
            ),
            pytest.param(
                {"cols": 2, "initial_state": "010101010101"},
                "initial_state",
                id="bits-of-another-lattice",
            ),
            pytest.param(
                {
                    "cols": 2,
                    "initial_state": "01" * 10 + "0",
                    "recovery": {"learn_rows": 1, "learn_cols": 1},
                },
                "initial_state",
                id="bits-on-another-learn-lattice",
            ),
        ],
    )
    def test_bad_config_rejected_before_any_evolution(self, override, message):
        payload = json.loads(small_config(shots=100).to_json())
        payload.update(override)
        with pytest.raises(ValueError, match=message):
            RunConfig.from_json(json.dumps(payload))

    def test_retired_zip_factor_is_ignored_with_warning(self):
        config = small_config(backend="mps", mps=MPSOptions(chi_max=32))
        payload = json.loads(config.to_json())
        payload["mps"]["zip_factor"] = 4
        with pytest.warns(UserWarning, match="zip_factor"):
            restored = RunConfig.from_json(json.dumps(payload))
        assert restored == config

    def test_exact_backend_qubit_cap(self):
        # rejected when the config is built, before any evolution
        with pytest.raises(CapacityError):
            small_config(rows=2, cols=2)  # 35 qubits
        with pytest.raises(CapacityError):
            small_config(recovery=RecoverySettings(learn_rows=2, learn_cols=2))
        assert small_config(rows=2, cols=2, backend="mps").rows == 2

    @pytest.mark.parametrize(
        "override", INVALID_CONFIGS.values(), ids=list(INVALID_CONFIGS)
    )
    def test_invalid_config_fails_before_any_file(self, tmp_path, override):
        payload = json.loads(small_config().to_json())
        payload.update(override)
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps(payload))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        for command in ("simulate", "phase-diagram"):
            with pytest.raises(ValueError):
                cli_main([command, "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_config_must_be_a_json_object(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_json("[]")
        path = tmp_path / "run.json"
        path.write_text("[]")
        out = tmp_path / "out"
        for command in ("simulate", "phase-diagram"):
            with pytest.raises(ValueError, match="JSON object"):
                cli_main([command, "--config", str(path), "--out", str(out)])
        assert not out.exists()


class TestRunPoint:
    def test_clifford_flip_delta_column(self):
        config = small_config(cycles=6)
        result = run_point(config, 0.0, np.pi / 2)
        np.testing.assert_allclose(
            result.clean.delta, (-1.0) ** np.arange(7), atol=1e-12
        )

    def test_emits_t_plus_one_rows(self):
        config = small_config(cycles=8, shots=50)
        result = run_point(config, 0.05, DTC_PHI)
        rows = point_csv_rows(result)
        assert len(rows) == 1 + 9  # header + t = 0..8

    def test_exact_and_mps_agree(self):
        exact = run_point(small_config(cycles=6), 0.05, DTC_PHI)
        mps = run_point(
            small_config(cycles=6, backend="mps", mps=MPSOptions(chi_max=256)),
            0.05,
            DTC_PHI,
        )
        for field in ("delta", "chi_nn", "chi_sg", "qfi"):
            np.testing.assert_allclose(
                getattr(exact.clean, field), getattr(mps.clean, field), atol=1e-6
            )

    def test_deterministic_rerun(self, tmp_path):
        config = small_config(shots=200, noise=NoiseSpec(decay=0.96, flip_slope=0.01))
        rows_a = point_csv_rows(run_point(config, 0.05, DTC_PHI))
        rows_b = point_csv_rows(run_point(config, 0.05, DTC_PHI))
        assert rows_a == rows_b

    def test_recovery_channel(self):
        config = small_config(
            cycles=12,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, 0.05, DTC_PHI)
        assert result.recovery is not None
        clean = np.array(result.clean.delta)
        rec = np.array(result.recovery["delta_recovered"])
        keep = ~np.array(result.recovery["delta_flags"], dtype=bool)
        assert np.max(np.abs(rec[keep] - clean[keep])) < 0.02

    @pytest.mark.parametrize("full", [True, False], ids=["full", "edges"])
    @pytest.mark.parametrize("backend", ["exact", "mps"])
    def test_one_read_per_cycle(self, monkeypatch, backend, full):
        reads = []
        for cls in (StateVector, MPSState):

            def counted(state, pairs=None, read=cls.zz_matrix):
                reads.append(pairs is None)
                return read(state, pairs)

            monkeypatch.setattr(cls, "zz_matrix", counted)
        config = small_config(
            backend=backend,
            mps=MPSOptions(chi_max=32),
            full_correlations=full,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = _simulate_system(config, 1, 1, 0.05, DTC_PHI)
        assert reads == [full] * (config.cycles + 1)
        for series in (result.clean, result.noisy):
            assert np.all(np.isfinite(series.chi_nn))
            assert np.all(np.isfinite(series.corr_avg))
            assert len(series.qfi) == (config.cycles + 1 if full else 0)

    @pytest.mark.parametrize("learn", [False, True], ids=["self", "learn-1x1"])
    @pytest.mark.parametrize("backend", ["exact", "mps"])
    def test_no_backend_evolves_a_clifford_reference(self, monkeypatch, backend, learn):
        kicks = []  # the kick of each cycle that a backend applies
        for cls in (StateVector, MPSState):

            def counted(state, cycle, evolve=cls.apply_cycle):
                kicks.append(cycle.kick[0, 0])
                evolve(state, cycle)

            monkeypatch.setattr(cls, "apply_cycle", counted)
        config = small_config(
            cols=2 if learn else 1,
            cycles=2,
            backend=backend,
            mps=MPSOptions(chi_max=16),
            shots=20,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(learn_rows=1, learn_cols=1),
        )
        result = run_point(config, 0.05, DTC_PHI)
        # the target, and the learn target on 1x1; never a reference
        assert kicks == [np.cos(DTC_PHI)] * config.cycles * (2 if learn else 1)
        assert ("learn_delta_noisy_ref" in result.raw) is learn
        assert len(result.raw["delta_noisy_ref"]) == config.cycles + 1

    def test_initial_state_options(self):
        # the t = 0 correlator average is the mean of s_i s_j over the lattice
        # edges of the initial state: 1 when polarized, -2/3 for this bitstring
        polarized = run_point(small_config(initial_state="polarized"), 0.0, 0.0)
        assert polarized.clean.corr_avg[0] == pytest.approx(1.0)
        bits = "010101010101"
        spins = np.array([1 - 2 * int(b) for b in bits])
        i, j = np.array(build_lattice(1, 1).edges).T
        custom = run_point(small_config(initial_state=bits), 0.0, 0.0)
        assert custom.clean.corr_avg[0] == pytest.approx(np.mean(spins[i] * spins[j]))


class TestPhaseDiagram:
    def test_clifford_grid(self):
        config = small_config(cycles=9, epsilons=(0.0,), phis=(0.0, np.pi / 2))
        points = run_phase_diagram(config)
        by_phi = {round(p["phi"], 6): p for p in points}
        glass = by_phi[0.0]
        flip = by_phi[round(np.pi / 2, 6)]
        assert glass["delta_mbl"] == pytest.approx(1.0, abs=1e-12)
        assert abs(glass["delta_dtc"]) < 1e-12  # odd horizon cancels exactly
        assert flip["delta_mbl"] == pytest.approx(1.0, abs=1e-12)
        assert flip["delta_dtc"] == pytest.approx(1.0, abs=1e-12)

    def test_parallel_matches_serial(self):
        config = small_config(cycles=3, epsilons=(0.0, 0.1), phis=(0.2, 1.2))
        serial = run_phase_diagram(config)
        parallel = run_phase_diagram(
            RunConfig(**{**config.__dict__, "workers": 2, "mps": config.mps})
        )
        for a, b in zip(serial, parallel):
            assert a == b

    @pytest.mark.parametrize("workers, cells, pool", [(4, 2, [2]), (2, 3, [2]), (4, 1, [])])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, workers, cells, pool):
        sizes = []

        class RecordingPool:  # records its size and runs the cells here
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        phis = (0.3, DTC_PHI, 1.0)[:cells]
        config = small_config(cycles=1, phis=phis, full_correlations=False, workers=workers)
        assert len(run_phase_diagram(config)) == cells
        assert sizes == pool

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_phase_diagram(small_config(epsilons=()))


@pytest.fixture(scope="class")
def scipy_blocked(fresh_python, tmp_path_factory):
    """Every CLI path, run in one new interpreter in which any import of
    scipy or a scipy submodule raises (scipy is a test-only dependency).

    Returns the output directory, each path's traceback (None if it ran),
    and the scipy modules the interpreter holds at the end. The
    phase-diagram pool workers fork from that interpreter and inherit the
    block.
    """
    out = tmp_path_factory.mktemp("scipy-blocked")
    noise = NoiseSpec(decay=0.97, bias_even=0.03, flip_slope=0.01)
    mps = MPSOptions(chi_max=16)
    configs = {
        "exact": small_config(
            cycles=2, shots=100, noise=noise, recovery=RecoverySettings(deconvolve=True)
        ),
        "mps": small_config(
            cols=2, cycles=2, shots=100, noise=noise, backend="mps", mps=mps,
            recovery=RecoverySettings(learn_rows=1, learn_cols=1),
        ),
        "exact-phase": small_config(
            cycles=1, phis=(0.3, DTC_PHI), full_correlations=False, workers=2
        ),
        "mps-phase": small_config(
            cycles=1, phis=(0.3, DTC_PHI), full_correlations=False, workers=2,
            backend="mps", mps=mps,
        ),
    }
    for name, config in configs.items():
        (out / f"{name}.json").write_text(config.to_json())

    def args(command, name, into=None):
        return [command, "--config", str(out / f"{name}.json"),
                "--out", str(out / (into or name))]

    raw = str(out / "exact" / f"raw_{point_tag(0.05, DTC_PHI)}.csv")
    calls = {
        "simulate-exact": args("simulate", "exact"),
        "recover-exact": args("recover", "exact", "recovered") + ["--raw", raw],
        "simulate-mps": args("simulate", "mps"),
        "phase-exact": args("phase-diagram", "exact-phase"),
        "phase-mps": args("phase-diagram", "mps-phase"),
        "export-lattice": ["export-lattice", "--rows", "1", "--cols", "1"],
    }
    report = fresh_python(
        f"""
import json, sys, traceback
sys.modules["scipy"] = None  # any import of scipy or a submodule raises
errors = {{}}

def attempt(name, run):
    try:
        run()
        errors[name] = None
    except (Exception, SystemExit):
        errors[name] = traceback.format_exc()

attempt("import", lambda: __import__("dtc2d.cli"))
from dtc2d.cli import main
for name, args in {calls!r}.items():
    attempt(name, lambda: main(args))
loaded = [m for m, v in sys.modules.items() if m.partition(".")[0] == "scipy" and v]
print(json.dumps({{"errors": errors, "loaded": loaded}}))
"""
    )
    return out, report["errors"], report["loaded"]


class TestImports:
    """Each CLI path runs with every scipy import blocked."""

    def test_importing_the_program_loads_none(self, scipy_blocked):
        _, errors, loaded = scipy_blocked
        assert errors["import"] is None, errors["import"]
        assert loaded == []

    def test_deconvolving_simulate_and_recover_load_none(self, scipy_blocked):
        out, errors, _ = scipy_blocked
        for name in ("simulate-exact", "recover-exact"):
            assert errors[name] is None, errors[name]
        (in_run,) = out.glob("exact/recovery_*.json")
        offline = out / "recovered" / in_run.name
        assert offline.read_bytes() == in_run.read_bytes()
        assert len(json.loads(offline.read_text())["deconvolved"]) == 3

    def test_mps_run_learning_on_a_smaller_lattice_loads_none(self, scipy_blocked):
        out, errors, _ = scipy_blocked
        assert errors["simulate-mps"] is None, errors["simulate-mps"]
        assert list(out.glob("mps/recovery_*.json"))

    def test_exact_noiseless_phase_diagram_loads_none(self, scipy_blocked):
        out, errors, _ = scipy_blocked
        assert errors["phase-exact"] is None, errors["phase-exact"]
        assert len(json.loads((out / "exact-phase" / "phase_grid.json").read_text())) == 2

    def test_mps_phase_diagram_pool_loads_none(self, scipy_blocked):
        out, errors, _ = scipy_blocked
        assert errors["phase-mps"] is None, errors["phase-mps"]
        assert len(json.loads((out / "mps-phase" / "phase_grid.json").read_text())) == 2

    def test_export_lattice_loads_none(self, scipy_blocked):
        _, errors, _ = scipy_blocked
        assert errors["export-lattice"] is None, errors["export-lattice"]


class TestOutputs:
    def test_point_files(self, tmp_path):
        config = small_config(shots=100, noise=NoiseSpec(decay=0.95))
        result = run_point(config, 0.05, DTC_PHI)
        files = write_point_outputs(result, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert any(n.startswith("point_") and n.endswith(".csv") for n in names)
        assert any(n.startswith("hamming_") for n in names)
        csv_file = next(f for f in files if f.endswith(".csv"))
        header = Path(csv_file).read_text().splitlines()[0].split(",")
        assert header[:7] == [
            "t", "delta", "chi_nn", "chi_sg", "qfi", "hamming_mean", "hamming_var",
        ]
        assert "delta_noisy" in header

    def test_recovery_report_flags_fits_on_the_bound(self, tmp_path):
        config = small_config(
            cycles=6,
            shots=400,
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02, flip_slope=0.01),
            recovery=RecoverySettings(deconvolve=True),
        )
        result = run_point(config, 0.05, DTC_PHI)
        path = write_recovery_report(result.recovery, "point", str(tmp_path))
        with open(path) as fh:
            trials = json.load(fh)["deconvolved"]
        assert len(trials) == 7
        # sigma = N / sqrt(2 delta) exactly when beta ended on -delta
        n_qubits = build_lattice(config.rows, config.cols).n_qubits
        sigma_at_bound = n_qubits / math.sqrt(2 * TRIAL_CURVATURE_FLOOR)
        for trial in trials:
            assert set(trial) == {"d0", "sigma", "k", "q", "at_bound"}
            assert trial["at_bound"] is (trial["sigma"] == pytest.approx(sigma_at_bound))
        assert any(trial["at_bound"] for trial in trials)
        assert not all(trial["at_bound"] for trial in trials)

        broken = {**result.recovery, "offsets_objective": float("nan")}
        with pytest.raises(ValueError, match="JSON compliant"):
            write_recovery_report(broken, "broken", str(tmp_path))
        assert not (tmp_path / "recovery_broken.json").exists()

    def test_in_run_report_is_plain_json(self, tmp_path):
        config = small_config(
            cycles=3,
            shots=400,
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02, flip_slope=0.01),
            recovery=RecoverySettings(deconvolve=True),
        )
        report = run_point(config, 0.05, DTC_PHI).recovery
        assert len(report["deconvolved"]) == 4

        def leaves(value):
            if isinstance(value, dict):
                assert all(isinstance(key, str) for key in value)
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        # no numpy scalar: np.float64 subclasses float, so compare types
        assert {type(leaf) for leaf in leaves(report)} <= {float, int, bool}
        assert json.loads(json.dumps(report)) == report
        path = write_recovery_report(report, "point", str(tmp_path))
        assert Path(path).read_text() == json.dumps(report, indent=2)

    def test_raw_bundle_recovery_roundtrip(self, tmp_path):
        config = small_config(
            cycles=12,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, 0.05, DTC_PHI)
        raw = write_raw_bundle(result, str(tmp_path))
        report = recover_from_raw(config, raw, DTC_PHI)
        np.testing.assert_allclose(
            report["delta_recovered"], result.recovery["delta_recovered"], atol=1e-9
        )

    def test_learned_offsets_outside_the_unit_interval_are_rejected(self):
        # the reference columns are Clifford-exact, so the best target
        # offsets are the 1.5 by which the noisy series sits above the clean
        cycles = 6
        exact = clifford_delta(np.pi / 2, cycles)
        clean = exact * (0.9 - 0.05 * np.arange(cycles + 1))
        ones = np.ones(cycles + 1)
        bundle = {
            "delta_noisy": clean,
            "delta_noisy_ref": exact,
            "delta_sim": clean,
            "chi_noisy": 0.5 * ones,
            "corr_noisy": 0.5 * ones,
            "chi_noisy_ref": ones,
            "corr_noisy_ref": ones,
            "chi_sim": 0.5 * ones,
        }
        config = small_config(cycles=cycles, recovery=RecoverySettings())
        report = runner._recover(bundle, config, DTC_PHI)
        assert np.max(np.abs(report["offsets"])) < 1e-3
        bundle["delta_noisy"] = clean + 1.5
        with pytest.raises(ValueError, match=r"offsets .* within \[-1, 1\]"):
            runner._recover(bundle, config, DTC_PHI)

    def test_run_point_reference_writes_same_raw_bundle(self, tmp_path):
        config = small_config(
            cycles=6, shots=50,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, 0.05, DTC_PHI)
        separate = _simulate_system(config, 1, 1, 0.0, np.pi / 2)
        reused = write_raw_bundle(result, str(tmp_path / "a"))
        bundle = _raw_bundle({"target": result, "reference": separate})
        fresh = write_raw_bundle(replace(result, raw=bundle), str(tmp_path / "b"))
        assert Path(reused).read_bytes() == Path(fresh).read_bytes()


    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        config = small_config(cycles=2)
        result = run_point(config, 0.05, DTC_PHI)
        (point_csv,) = write_point_outputs(result, str(tmp_path))
        resolved = write_resolved_config(config, str(tmp_path))
        before = {path: Path(path).read_bytes() for path in (point_csv, resolved)}

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        longer = replace(config, cycles=3)
        with pytest.raises(OSError, match="rename failed"):
            write_point_outputs(run_point(longer, 0.05, DTC_PHI), str(tmp_path))
        with pytest.raises(OSError, match="rename failed"):
            write_resolved_config(longer, str(tmp_path))
        for path, data in before.items():
            assert Path(path).read_bytes() == data
        assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, before))


class TestCheckpointing:
    def test_resume_extends_run(self, tmp_path):
        base = dict(
            rows=1, cols=1, epsilons=(0.05,), phis=(DTC_PHI,),
            backend="mps", mps=MPSOptions(chi_max=32), seed=7,
            full_correlations=True, shots=50,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, flip_slope=0.02),
            output_dir=str(tmp_path), checkpoint=True,
        )
        short = RunConfig(**{**base, "cycles": 3})
        run_point(short, 0.05, DTC_PHI)
        assert os.listdir(tmp_path / "checkpoints")

        extended = RunConfig(**{**base, "cycles": 6})
        resumed = run_point(extended, 0.05, DTC_PHI)

        fresh_cfg = RunConfig(**{**base, "cycles": 6, "checkpoint": False})
        fresh = run_point(fresh_cfg, 0.05, DTC_PHI)
        # every field of both channels, restored and then extended, exactly
        for channel in ("clean", "noisy"):
            for name in vars(TimeSeries()):
                got = getattr(getattr(resumed, channel), name)
                want = getattr(getattr(fresh, channel), name)
                assert len(want) == 7, (channel, name)
                np.testing.assert_array_equal(got, want, err_msg=f"{channel}.{name}")

    def test_other_initial_state_does_not_resume(self, tmp_path):
        base = dict(
            rows=1, cols=1, epsilons=(0.05,), phis=(DTC_PHI,), cycles=3,
            backend="mps", mps=MPSOptions(chi_max=32), seed=7,
            full_correlations=False, shots=0,
        )
        checkpointed = dict(base, output_dir=str(tmp_path), checkpoint=True)
        run_point(RunConfig(**checkpointed, initial_state="neel"), 0.05, DTC_PHI)
        second = run_point(
            RunConfig(**checkpointed, initial_state="polarized"), 0.05, DTC_PHI
        )
        fresh = run_point(RunConfig(**base, initial_state="polarized"), 0.05, DTC_PHI)
        np.testing.assert_array_equal(second.clean.delta, fresh.clean.delta)
        assert len(os.listdir(tmp_path / "checkpoints")) == 2

    def test_other_chain_order_does_not_resume(self, monkeypatch, tmp_path):
        # the tensors follow the chain order, so a checkpoint written under
        # one order must not be resumed under another
        base = dict(
            rows=1, cols=1, epsilons=(0.05,), phis=(DTC_PHI,), cycles=3,
            backend="mps", mps=MPSOptions(chi_max=32), seed=7,
            full_correlations=True, shots=0,
        )
        checkpointed = RunConfig(**base, output_dir=str(tmp_path), checkpoint=True)
        run_point(checkpointed, 0.05, DTC_PHI)

        column_sweep = runner.unroll

        def reversed_order(lattice):
            n = lattice.n_qubits
            return tuple(n - 1 - p for p in column_sweep(lattice))

        monkeypatch.setattr(runner, "unroll", reversed_order)
        second = run_point(checkpointed, 0.05, DTC_PHI)
        fresh = run_point(RunConfig(**base), 0.05, DTC_PHI)
        assert len(os.listdir(tmp_path / "checkpoints")) == 2
        for name in vars(TimeSeries()):
            got, want = getattr(second.clean, name), getattr(fresh.clean, name)
            np.testing.assert_array_equal(got, want, err_msg=name)


    def test_one_file_per_point_and_a_shorter_run_starts_fresh(self, tmp_path):
        base = dict(
            rows=1, cols=1, epsilons=(0.05,), phis=(DTC_PHI,),
            backend="mps", mps=MPSOptions(chi_max=32), seed=7,
            full_correlations=True, shots=20,
        )
        checkpointed = dict(base, output_dir=str(tmp_path), checkpoint=True)
        run_point(RunConfig(**checkpointed, cycles=3), 0.05, DTC_PHI)
        (name,) = os.listdir(tmp_path / "checkpoints")
        assert re.fullmatch(r"eps0\.05_phi1\.41372_[0-9a-f]{16}\.npz", name)
        path = tmp_path / "checkpoints" / name
        with np.load(path) as data:
            assert int(data["t"]) == 3

        shorter = run_point(RunConfig(**checkpointed, cycles=2), 0.05, DTC_PHI)
        fresh = run_point(RunConfig(**base, cycles=2), 0.05, DTC_PHI)
        assert os.listdir(tmp_path / "checkpoints") == [name]
        with np.load(path) as data:
            assert int(data["t"]) == 2
        for key in vars(TimeSeries()):
            got, want = getattr(shorter.clean, key), getattr(fresh.clean, key)
            np.testing.assert_array_equal(got, want, err_msg=key)

    def test_checkpoint_without_output_dir_fails_before_evolving(self, monkeypatch):
        config = small_config(backend="mps", mps=MPSOptions(chi_max=32), checkpoint=True)

        def evolve(*args):
            raise AssertionError("the point was evolved")

        monkeypatch.setattr(runner, "_simulate_system", evolve)
        with pytest.raises(ValueError, match="output_dir"):
            run_point(config, 0.05, DTC_PHI)


class TestCLI:
    def write_config(self, tmp_path, **overrides):
        config = small_config(**overrides)
        path = tmp_path / "run.json"
        path.write_text(config.to_json())
        return str(path)

    def test_simulate(self, tmp_path, capsys):
        path = self.write_config(tmp_path, shots=50)
        code = cli_main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert any(p.endswith(".csv") for p in printed)
        assert (tmp_path / "out" / "config.resolved.json").exists()

    def test_simulate_with_overrides(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli_main(
            [
                "simulate", "--config", path, "--out", str(tmp_path / "o2"),
                "--backend", "mps", "--chi-max", "64", "--seed", "3",
            ]
        )
        assert code == 0
        resolved = json.loads((tmp_path / "o2" / "config.resolved.json").read_text())
        assert resolved["backend"] == "mps"
        assert resolved["mps"]["chi_max"] == 64
        assert resolved["seed"] == 3

    def test_phase_diagram(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, cycles=3, epsilons=(0.0,), phis=(0.0, np.pi / 2)
        )
        code = cli_main(
            ["phase-diagram", "--config", path, "--out", str(tmp_path / "pd")]
        )
        assert code == 0
        grid = json.loads((tmp_path / "pd" / "phase_grid.json").read_text())
        assert len(grid) == 2
        assert {"eps", "phi", "delta_mbl", "delta_dtc"} <= set(grid[0])

    def test_recover_cli(self, tmp_path, capsys):
        noise = NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02, flip_slope=0.01)
        path = self.write_config(
            tmp_path,
            cycles=10,
            shots=200,
            noise=noise,
            recovery=RecoverySettings(ridge=1e-4, deconvolve=True),
        )
        out = str(tmp_path / "sim")
        assert cli_main(["simulate", "--config", path, "--out", out]) == 0
        raw = [f for f in os.listdir(out) if f.startswith("raw_")]
        assert raw
        code = cli_main(
            [
                "recover", "--config", path,
                "--raw", os.path.join(out, raw[0]),
                "--out", str(tmp_path / "rec"),
            ]
        )
        assert code == 0
        (name,) = os.listdir(tmp_path / "rec")
        assert name.startswith("recovery_")
        # one pipeline: the offline report repeats the in-run one exactly
        offline = (tmp_path / "rec" / name).read_bytes()
        assert offline == (tmp_path / "sim" / name).read_bytes()
        assert {"flip_schedule", "deconvolved"} <= set(json.loads(offline))

        # noise without recovery still writes the same raw bundle
        path = self.write_config(tmp_path, cycles=10, shots=200, noise=noise)
        bare = tmp_path / "bare"
        assert cli_main(["simulate", "--config", path, "--out", str(bare)]) == 0
        assert not any(f.startswith("recovery_") for f in os.listdir(bare))
        with open(os.path.join(out, raw[0]), "rb") as fh:
            assert (bare / raw[0]).read_bytes() == fh.read()

    def test_recover_uses_the_bundle_point(self, tmp_path, capsys):
        # two grid points; the bundle belongs to the second one
        path = self.write_config(
            tmp_path,
            cycles=10,
            phis=(0.1, DTC_PHI),
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02),
            recovery=RecoverySettings(ridge=1e-4),
        )
        config = RunConfig.load(path)
        result = run_point(config, 0.05, DTC_PHI)
        raw = write_raw_bundle(result, str(tmp_path / "sim"))
        out = tmp_path / "rec"
        code = cli_main(["recover", "--config", path, "--raw", raw, "--out", str(out)])
        assert code == 0
        name = os.path.basename(raw).replace("raw_", "recovery_").replace(".csv", ".json")
        assert os.listdir(out) == [name]
        report = json.loads((out / name).read_text())
        np.testing.assert_allclose(
            report["delta_recovered"], result.recovery["delta_recovered"], atol=1e-9
        )

    def test_recover_rejects_a_bundle_of_no_grid_point(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        raw = tmp_path / "raw_eps0.3_phi0.7.csv"
        raw.write_text("t\n0\n")
        with pytest.raises(SystemExit, match="eps0.3_phi0.7"):
            cli_main(["recover", "--config", path, "--raw", str(raw)])

    def test_recover_repeats_a_run_that_learns_elsewhere(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            cols=2,
            cycles=3,
            backend="mps",
            mps=MPSOptions(chi_max=16),
            shots=200,
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02, flip_slope=0.01),
            recovery=RecoverySettings(learn_rows=1, learn_cols=1, deconvolve=True),
        )
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--config", path, "--out", str(out)]) == 0
        (raw,) = out.glob("raw_*.csv")
        header = raw.read_text().splitlines()[0].split(",")
        assert header[-8:] == ["learn_" + name for name in header[1:9]]
        rec = tmp_path / "rec"
        args = ["recover", "--config", path, "--raw", str(raw), "--out", str(rec)]
        assert cli_main(args) == 0
        (report,) = rec.iterdir()
        assert report.read_bytes() == (out / report.name).read_bytes()

    def test_recover_rejects_another_learn_lattice(self, tmp_path, capsys):
        # the bundle holds the learn pair's columns exactly when the config
        # learns on another lattice; a mismatch fails before any fit
        raw = tmp_path / "raw_eps0.05_phi1.41372.csv"
        for learn, header in ((1, "t,delta_noisy"), (None, "t,learn_delta_noisy")):
            path = self.write_config(
                tmp_path,
                cols=2,
                noise=NoiseSpec(decay=0.97),
                recovery=RecoverySettings(learn_rows=learn, learn_cols=learn),
            )
            raw.write_text(f"{header}\n0,1\n1,1\n")
            with pytest.raises(ValueError, match="learn_rows/learn_cols"):
                cli_main(["recover", "--config", path, "--raw", str(raw)])

    def test_export_lattice(self, capsys):
        assert cli_main(["export-lattice", "--rows", "2", "--cols", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_qubits"] == 35

    def test_chi_sweep(self, tmp_path, capsys):
        path = self.write_config(tmp_path, cycles=3, full_correlations=False)
        code = cli_main(
            [
                "simulate", "--config", path, "--out", str(tmp_path / "sweep"),
                "--chi-sweep", "4,16",
            ]
        )
        assert code == 0
        for chi in (4, 16):
            sub = tmp_path / "sweep" / f"chi_{chi}"
            assert (sub / "config.resolved.json").exists()
            resolved = json.loads((sub / "config.resolved.json").read_text())
            assert resolved["mps"]["chi_max"] == chi
            assert resolved["backend"] == "mps"
            assert any(n.startswith("point_") for n in os.listdir(sub))

    @pytest.mark.parametrize(
        "override, key",
        [(["--chi-max", "0"], "mps.chi_max"), (["--seed", "-1"], "seed")],
        ids=["chi-max-0", "seed-negative"],
    )
    def test_overrides_are_validated_before_any_file(self, tmp_path, override, key):
        # a replaced field passes the same rules as a loaded one
        path = self.write_config(tmp_path, cycles=1, full_correlations=False)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must"):
            cli_main(["simulate", "--config", path, "--out", str(out), *override])
        assert not out.exists()

    def test_chi_sweep_is_validated_before_any_run(self, tmp_path):
        # chi 0 is rejected before chi 8 evolves or writes anything
        path = self.write_config(tmp_path, cycles=1, full_correlations=False)
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="chi_max"):
            cli_main(["simulate", "--config", path, "--out", str(out), "--chi-sweep", "8,0"])
        assert not out.exists()

    def test_chi_sweep_rejects_a_repeated_cap(self, tmp_path):
        # two sub-runs into one chi_16/ would be one run done twice
        path = self.write_config(tmp_path, cycles=1, full_correlations=False)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit, match="repeats the bond cap 16"):
            cli_main(
                ["simulate", "--config", path, "--out", str(out), "--chi-sweep", "16,4,16"]
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--chi-max", "8"], ["--backend", "exact"]], ids=["chi-max", "backend"]
    )
    def test_chi_sweep_rejects_an_override_it_would_drop(self, tmp_path, flag):
        # each sub-run sets its own backend and bond cap
        path = self.write_config(tmp_path, cycles=1, full_correlations=False)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit, match=f"{flag[0]}.*--chi-sweep"):
            cli_main(
                ["simulate", "--config", path, "--out", str(out), "--chi-sweep", "16", *flag]
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--backend", "exact"], ["--chi-max", "8"]],
        ids=["seed", "backend", "chi-max"],
    )
    def test_recover_takes_no_evolution_override(self, tmp_path, capsys, flag):
        # recover evolves nothing, so an override of the evolution is an error
        path = self.write_config(tmp_path)
        raw = tmp_path / "raw_eps0.05_phi1.41372.csv"
        raw.write_text("t\n0\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["recover", "--config", path, "--raw", str(raw), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
