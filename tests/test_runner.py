import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from dtc2d.cli import main as cli_main
from dtc2d.exact import CapacityError
from dtc2d.noise import NoiseSpec
from dtc2d.observables import TimeSeries
from dtc2d.recovery import TRIAL_CURVATURE_FLOOR
from dtc2d.runner import (
    MPSOptions,
    RecoverySettings,
    RunConfig,
    point_csv_rows,
    recover_from_raw,
    run_phase_diagram,
    run_point,
    write_point_outputs,
    write_raw_bundle,
    write_recovery_report,
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
        config = small_config(rows=2, cols=2)  # 35 qubits
        with pytest.raises(CapacityError):
            run_point(config, 0.05, DTC_PHI)


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
        rec = result.recovery.delta_recovered
        keep = ~result.recovery.delta_flags
        assert np.max(np.abs(rec[keep] - clean[keep])) < 0.02

    def test_initial_state_options(self):
        polarized = run_point(small_config(initial_state="polarized"), 0.0, 0.0)
        assert np.all(polarized.s0 == 1)
        custom = run_point(
            small_config(initial_state="010101010101"), 0.0, 0.0
        )
        assert np.sum(custom.s0) == 0


class TestPhaseDiagram:
    def test_clifford_grid(self):
        config = small_config(cycles=9, epsilons=(0.0,), phis=(0.0, np.pi / 2))
        points = run_phase_diagram(config)
        by_phi = {round(p.phi, 6): p for p in points}
        glass = by_phi[0.0]
        flip = by_phi[round(np.pi / 2, 6)]
        assert glass.delta_mbl == pytest.approx(1.0, abs=1e-12)
        assert abs(glass.delta_dtc) < 1e-12  # odd horizon cancels exactly
        assert flip.delta_mbl == pytest.approx(1.0, abs=1e-12)
        assert flip.delta_dtc == pytest.approx(1.0, abs=1e-12)

    def test_parallel_matches_serial(self):
        config = small_config(cycles=3, epsilons=(0.0, 0.1), phis=(0.2, 1.2))
        serial = run_phase_diagram(config)
        parallel = run_phase_diagram(
            RunConfig(**{**config.__dict__, "workers": 2, "mps": config.mps})
        )
        for a, b in zip(serial, parallel):
            assert a == b

    def test_empty_grid_rejected(self):
        config = small_config(epsilons=())
        with pytest.raises(ValueError):
            run_phase_diagram(config)


class TestOutputs:
    def test_point_files(self, tmp_path):
        config = small_config(shots=100, noise=NoiseSpec(decay=0.95))
        result = run_point(config, 0.05, DTC_PHI)
        files = write_point_outputs(result, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert any(n.startswith("point_") and n.endswith(".csv") for n in names)
        assert any(n.startswith("hamming_") for n in names)
        csv_file = next(f for f in files if f.endswith(".csv"))
        header = open(csv_file).readline().strip().split(",")
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
        sigma_at_bound = result.n_qubits / math.sqrt(2 * TRIAL_CURVATURE_FLOOR)
        for trial in trials:
            assert set(trial) == {"d0", "sigma", "k", "q", "at_bound"}
            assert trial["at_bound"] is (trial["sigma"] == pytest.approx(sigma_at_bound))
        assert any(trial["at_bound"] for trial in trials)
        assert not all(trial["at_bound"] for trial in trials)

        broken = replace(result.recovery, offsets_objective=float("nan"))
        with pytest.raises(ValueError, match="JSON compliant"):
            write_recovery_report(broken, "broken", str(tmp_path))
        assert not (tmp_path / "recovery_broken.json").exists()

    def test_raw_bundle_recovery_roundtrip(self, tmp_path):
        config = small_config(
            cycles=12,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, 0.05, DTC_PHI)
        reference = _simulate_system(config, 1, 1, 0.0, np.pi / 2)
        raw = write_raw_bundle(result, reference, str(tmp_path))
        report = recover_from_raw(config, raw, DTC_PHI, result.n_qubits)
        np.testing.assert_allclose(
            report.delta_recovered, result.recovery.delta_recovered, atol=1e-9
        )

    def test_run_point_reference_writes_same_raw_bundle(self, tmp_path):
        config = small_config(
            cycles=6, shots=50,
            noise=NoiseSpec(decay=0.97, bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, 0.05, DTC_PHI)
        separate = _simulate_system(config, 1, 1, 0.0, np.pi / 2)
        reused = write_raw_bundle(result, result.reference, str(tmp_path / "a"))
        fresh = write_raw_bundle(result, separate, str(tmp_path / "b"))
        assert open(reused, "rb").read() == open(fresh, "rb").read()


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
        path = self.write_config(
            tmp_path,
            cycles=10,
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02),
            recovery=RecoverySettings(ridge=1e-4),
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
        offline = json.loads((tmp_path / "rec" / name).read_text())
        in_run = json.loads((tmp_path / "sim" / name).read_text())
        assert set(offline) == {
            "offsets", "offsets_objective", "chi_coefficients", "chi_objective",
            "delta_recovered", "delta_flags", "chi_recovered", "chi_flags",
        }
        assert offline == {key: in_run[key] for key in offline}

        # noise without recovery still writes the same raw bundle
        path = self.write_config(
            tmp_path,
            cycles=10,
            noise=NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.02),
        )
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
        raw = write_raw_bundle(result, result.reference, str(tmp_path / "sim"))
        out = tmp_path / "rec"
        code = cli_main(["recover", "--config", path, "--raw", raw, "--out", str(out)])
        assert code == 0
        name = os.path.basename(raw).replace("raw_", "recovery_").replace(".csv", ".json")
        assert os.listdir(out) == [name]
        report = json.loads((out / name).read_text())
        np.testing.assert_allclose(
            report["delta_recovered"], result.recovery.delta_recovered, atol=1e-9
        )

    def test_recover_rejects_a_bundle_of_no_grid_point(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        raw = tmp_path / "raw_eps0.3_phi0.7.csv"
        raw.write_text("t\n0\n")
        with pytest.raises(SystemExit, match="eps0.3_phi0.7"):
            cli_main(["recover", "--config", path, "--raw", str(raw)])

    def test_recover_rejects_another_learn_lattice(self, tmp_path, capsys):
        # the bundle holds only the run's own lattice; no evolution runs
        path = self.write_config(
            tmp_path,
            cols=2,
            noise=NoiseSpec(decay=0.97),
            recovery=RecoverySettings(learn_rows=1, learn_cols=1),
        )
        raw = tmp_path / "raw_eps0.05_phi1.41372.csv"
        raw.write_text("t\n0\n")
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
