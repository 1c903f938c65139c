"""Config-driven orchestration: point runs, phase-diagram sweeps, recovery.

A run evolves one (epsilon, phi) point for T cycles. Each cycle reads
<Z>, <ZZ> and the sampled bitstrings once, and one record (`_record`)
appends every diagnostic of a channel: the noiseless channel records them
as read, the noisy one after the per-qubit noise channel has corrupted
them. Recovery adds a third, recovered channel. With noise, the point's
reference run at the nearest Clifford point is simulated too. Recovery is
one pipeline, shared by `simulate` and by `recover` on an exported raw
bundle: parity offsets learned
against a classically simulated system (optionally a smaller lattice),
Clifford-point renormalization, correlator coefficients learned the same
way, and, when Hamming data exists, per-cycle flip probabilities learned
from the Clifford-point distributions and the optional deconvolution.

All randomness is derived from the config seed plus the point coordinates
and cycle index, so re-running any config reproduces its outputs byte for
byte, serial or parallel. The MPS checkpoints and the raw bundle are laid
out from `TimeSeries` fields: a checkpoint stores one array per channel and
field, and `RAW_COLUMNS` maps each bundle column to its run, channel and
field for both the writer and the reader.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .circuit import (
    FloquetParams,
    ProductState,
    build_cycle,
    custom_state,
    neel_state,
    polarized_state,
    sample_disorder,
)
from .exact import StateVector
from .lattice import build_lattice, unroll
from .mps import MPSState
from .noise import NoiseSpec, corrupt_bits, corrupt_correlators, corrupt_expectations
from .observables import (
    PhasePoint,
    TimeSeries,
    chi,
    chi_from_matrix,
    correlator_average,
    delta,
    hamming_distribution,
    hamming_mean_from_delta,
    phase_order_params,
    qfi,
)
from .recovery import (
    ChiCoefficients,
    OffsetVector,
    TrialDistribution,
    clifford_delta,
    clifford_reference,
    deconvolve_hamming,
    learn_chi_coefficients,
    learn_flip_schedule,
    learn_offsets,
    recover_chi,
    renormalize_delta,
)

CSV_COLUMNS = ["t", "delta", "chi_nn", "chi_sg", "qfi", "hamming_mean", "hamming_var"]
NOISY_COLUMNS = [c + "_noisy" for c in CSV_COLUMNS[1:]]
RECOVERED_COLUMNS = [
    "delta_recovered",
    "delta_recovered_flag",
    "chi_recovered",
    "chi_recovered_flag",
    "p_flip",
]


@dataclass(frozen=True)
class MPSOptions:
    chi_max: int = 64
    cutoff: float = 1e-12

    def __post_init__(self) -> None:
        if self.chi_max < 1:
            raise ValueError("mps.chi_max must be >= 1")
        if not self.cutoff >= 0:
            raise ValueError("mps.cutoff must be >= 0")


@dataclass(frozen=True)
class RecoverySettings:
    ridge: float = 1e-4
    lambda_mean: float = 10.0
    lambda_var: float = 10.0
    guard: float = 1e-3
    learn_rows: int | None = None  # lattice used to learn offsets (None: self)
    learn_cols: int | None = None
    deconvolve: bool = False

    def __post_init__(self) -> None:
        for name in ("ridge", "lambda_mean", "lambda_var", "guard"):
            if not getattr(self, name) > 0:
                raise ValueError(f"recovery.{name} must be positive")
        for name in ("learn_rows", "learn_cols"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    f"recovery.{name} must be >= 1 (null: the run's own lattice)"
                )


@dataclass(frozen=True)
class RunConfig:
    rows: int = 1
    cols: int = 1
    epsilons: tuple[float, ...] = (0.05,)
    phis: tuple[float, ...] = (0.45 * np.pi,)
    cycles: int = 10
    initial_state: str = "neel"  # "neel" | "polarized" | 0/1 bitstring
    backend: str = "exact"  # "exact" | "mps"
    mps: MPSOptions = field(default_factory=MPSOptions)
    shots: int = 0
    seed: int = 0
    workers: int = 1
    full_correlations: bool = True
    noise: NoiseSpec | None = None
    recovery: RecoverySettings | None = None
    output_dir: str | None = None
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.backend not in ("exact", "mps"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        for eps in self.epsilons:
            if not np.isfinite(eps):
                raise ValueError(f"epsilon must be finite, got {eps}")
        for phi in self.phis:
            clifford_reference(phi)  # raises outside [0, pi/2]
        if self.initial_state not in ("neel", "polarized"):
            bits = self.initial_state
            n_qubits = build_lattice(self.rows, self.cols).n_qubits
            if set(bits) - {"0", "1"} or len(bits) != n_qubits:
                raise ValueError(
                    f"initial_state must be 'neel', 'polarized' or a 0/1 string "
                    f"of {n_qubits} bits for the {self.rows}x{self.cols} "
                    f"lattice, got {bits!r}"
                )
            if self.learn_lattice != (self.rows, self.cols):
                raise ValueError(
                    "a bitstring initial_state fits only the run's own lattice, "
                    "but recovery.learn_rows/learn_cols select %dx%d"
                    % self.learn_lattice
                )
        if self.recovery is not None and self.recovery.deconvolve:
            if self.shots == 0 or not self.full_correlations:
                raise ValueError(
                    "recovery.deconvolve needs shots > 0 and full_correlations"
                )
        # every output file of a point is named by its tag
        points: dict[str, tuple[float, float]] = {}
        for eps in self.epsilons:
            for phi in self.phis:
                tag = point_tag(eps, phi)
                if tag in points:
                    raise ValueError(
                        f"grid points {points[tag]} and {(eps, phi)} share the "
                        f"file tag {tag!r}; eps and phi values must differ in "
                        "their first 6 significant digits"
                    )
                points[tag] = (eps, phi)

    @property
    def learn_lattice(self) -> tuple[int, int]:
        """(rows, cols) of the lattice that recovery learns on."""
        settings = self.recovery or RecoverySettings()
        return (settings.learn_rows or self.rows, settings.learn_cols or self.cols)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        payload = json.loads(text)
        if payload.get("mps") is not None:
            mps = dict(payload["mps"])
            # older configs carry the zip-up factor of the layer-MPO
            # contraction that the span-local gate engine replaced
            if "zip_factor" in mps:
                del mps["zip_factor"]
                warnings.warn(
                    "config key mps.zip_factor no longer has any effect; ignoring it",
                    stacklevel=2,
                )
            payload["mps"] = MPSOptions(**mps)
        if payload.get("noise") is not None:
            payload["noise"] = NoiseSpec(**payload["noise"])
        if payload.get("recovery") is not None:
            payload["recovery"] = RecoverySettings(**payload["recovery"])
        for key in ("epsilons", "phis"):
            if key in payload:
                payload[key] = tuple(payload[key])
        return cls(**payload)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass
class RecoveryReport:
    offsets: OffsetVector
    offsets_objective: float
    chi_coefficients: ChiCoefficients
    chi_objective: float
    delta_recovered: np.ndarray
    delta_flags: np.ndarray
    chi_recovered: np.ndarray
    chi_flags: np.ndarray
    flip_schedule: np.ndarray | None = None
    # (trial, fit info) per cycle, as deconvolve_hamming returns them
    deconvolved: list[tuple[TrialDistribution, dict]] | None = None

    def to_dict(self) -> dict:
        payload = {
            "offsets": list(self.offsets.as_array()),
            "offsets_objective": self.offsets_objective,
            "chi_coefficients": [
                self.chi_coefficients.c1_target,
                self.chi_coefficients.c2_target,
                self.chi_coefficients.c1_reference,
                self.chi_coefficients.c2_reference,
            ],
            "chi_objective": self.chi_objective,
            "delta_recovered": self.delta_recovered.tolist(),
            "delta_flags": self.delta_flags.astype(int).tolist(),
            "chi_recovered": self.chi_recovered.tolist(),
            "chi_flags": self.chi_flags.astype(int).tolist(),
        }
        if self.flip_schedule is not None:
            payload["flip_schedule"] = self.flip_schedule.tolist()
        if self.deconvolved is not None:
            payload["deconvolved"] = [
                {
                    "d0": t.d0,
                    "sigma": t.sigma,
                    "k": t.k,
                    "q": t.q,
                    "at_bound": info["at_bound"],
                }
                for t, info in self.deconvolved
            ]
        return payload


@dataclass
class PointResult:
    epsilon: float
    phi: float
    n_qubits: int
    s0: np.ndarray
    clean: TimeSeries
    noisy: TimeSeries | None = None
    recovery: RecoveryReport | None = None
    reference: PointResult | None = None  # Clifford-point run of a noisy point

    def phase_point(self) -> PhasePoint:
        return phase_order_params(
            self.clean.z_array(), self.s0, epsilon=self.epsilon, phi=self.phi
        )


def _initial_state(config: RunConfig, lattice) -> ProductState:
    if config.initial_state == "neel":
        return neel_state(lattice)
    if config.initial_state == "polarized":
        return polarized_state(lattice)
    return custom_state(config.initial_state)


def _shot_seed(config: RunConfig, eps: float, phi: float, t: int, channel: int) -> int:
    parts = [
        config.seed,
        int(np.float64(eps).view(np.int64)),
        int(np.float64(phi).view(np.int64)),
        t,
        channel,
    ]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _simulate_system(
    config: RunConfig,
    rows: int,
    cols: int,
    eps: float,
    phi: float,
    checkpoint_dir: str | None = None,
) -> PointResult:
    """Evolve one system, recording the clean (and noisy) channels."""
    lattice = build_lattice(rows, cols)
    order = unroll(lattice)
    disorder = sample_disorder(lattice, config.seed)
    params = FloquetParams(epsilon=eps, phi=phi)
    cycle = build_cycle(lattice, disorder, params)
    s0 = _initial_state(config, lattice)
    noise_model = (
        config.noise.build(lattice.n_qubits, s0.spins) if config.noise else None
    )

    if config.backend == "exact":
        state = StateVector.from_product(s0)
    else:
        state = MPSState(
            s0, order, chi_max=config.mps.chi_max, cutoff=config.mps.cutoff
        )
    clean = TimeSeries()
    noisy = TimeSeries() if noise_model else None
    edges = list(lattice.edges)
    iu = np.triu_indices(lattice.n_qubits, k=1)
    pairs = np.transpose(iu)

    start_t = 0
    checkpointed = checkpoint_dir is not None and config.backend == "mps"
    if checkpointed:
        key = _checkpoint_key(config, rows, cols, eps, phi)
        start_t = _try_resume(state, checkpoint_dir, key, config.cycles, clean, noisy)

    for t in range(start_t, config.cycles + 1):
        if t > 0:
            state.apply_cycle(cycle)
        z = state.per_site_z()
        zz_nn = state.zz_pairs(edges)
        zz = state.zz_matrix() if config.full_correlations else None
        samples = None
        if config.shots > 0:
            samples = state.sample_bits(
                config.shots, _shot_seed(config, eps, phi, t, 0)
            )
        _record(clean, z, zz_nn, zz, samples, s0.spins)
        if noise_model is not None:
            zz_noisy = None
            if zz is not None:
                values = corrupt_correlators(zz[iu], pairs, z, noise_model, t)
                zz_noisy = np.eye(lattice.n_qubits)
                zz_noisy[iu] = values
                zz_noisy.T[iu] = values
            samples_noisy = None
            if samples is not None:
                rng = np.random.default_rng(_shot_seed(config, eps, phi, t, 1))
                samples_noisy = corrupt_bits(samples, noise_model, t, rng)
            _record(
                noisy,
                corrupt_expectations(z, noise_model, t),
                corrupt_correlators(zz_nn, edges, z, noise_model, t),
                zz_noisy,
                samples_noisy,
                s0.spins,
            )
        if checkpointed:
            _save_checkpoint(state, checkpoint_dir, key, t, clean, noisy)

    return PointResult(
        epsilon=eps,
        phi=phi,
        n_qubits=lattice.n_qubits,
        s0=s0.spins,
        clean=clean,
        noisy=noisy,
    )


def _record(
    series: TimeSeries,
    z: np.ndarray,
    zz_pairs: np.ndarray,
    zz: np.ndarray | None,
    samples: np.ndarray | None,
    s0: np.ndarray,
) -> None:
    """Append one cycle of one channel: everything its measurements give.

    ``zz_pairs`` holds the nearest-neighbour correlators, ``zz`` the full
    correlator matrix (None without full correlations) and ``samples`` the
    bitstrings (None without shots).
    """
    series.per_site_z.append(z)
    series.delta.append(delta(z, s0))
    series.chi_nn.append(chi(zz_pairs))
    series.corr_avg.append(correlator_average(zz_pairs))
    if zz is not None:
        series.chi_sg.append(chi_from_matrix(zz))
        series.qfi.append(qfi(z, zz, s0))
    if samples is not None:
        series.hamming.append(hamming_distribution(samples, s0))


def run_point(config: RunConfig, eps: float, phi: float) -> PointResult:
    """Simulate one parameter point, with noise and recovery if configured.

    With noise, the point's Clifford reference is simulated too and kept in
    ``PointResult.reference``; the raw bundle needs it with or without
    recovery.
    """
    checkpoint_dir = None
    if config.checkpoint and config.output_dir:
        checkpoint_dir = os.path.join(config.output_dir, "checkpoints")
        os.makedirs(checkpoint_dir, exist_ok=True)
    result = _simulate_system(
        config, config.rows, config.cols, eps, phi, checkpoint_dir
    )
    if config.noise is None:
        return result

    phi0 = clifford_reference(phi)
    result.reference = _simulate_system(config, config.rows, config.cols, 0.0, phi0)
    settings = config.recovery
    if settings is None:
        return result

    learn = config.learn_lattice
    if learn == (config.rows, config.cols):
        learn_target, learn_reference = result, result.reference
    else:
        learn_target = _simulate_system(config, *learn, eps, phi)
        learn_reference = _simulate_system(config, *learn, 0.0, phi0)
    result.recovery = _recover(
        result, result.reference, learn_target, learn_reference, phi0, settings
    )
    return result


def _recover(
    result: PointResult,
    reference: PointResult,
    learn_target: PointResult,
    learn_reference: PointResult,
    phi0: float,
    settings: RecoverySettings,
) -> RecoveryReport:
    """The recovery pipeline of both `simulate` and `recover`.

    Parity offsets and correlator coefficients are learned on the learn
    pair (target and Clifford reference, possibly on a smaller lattice)
    against its clean series, then applied to the result/reference pair.
    When the reference carries noisy Hamming data, the per-cycle flip
    schedule is learned from it, and with ``settings.deconvolve`` and a
    recorded QFI the target's Hamming distributions are deconvolved.
    """
    cycles = len(result.noisy.delta) - 1
    exact_reference = clifford_delta(phi0, cycles)
    offsets, offset_info = learn_offsets(
        np.array(learn_target.noisy.delta),
        np.array(learn_reference.noisy.delta),
        exact_reference,
        np.array(learn_target.clean.delta),
        ridge=settings.ridge,
        guard=settings.guard,
    )
    delta_recovered, delta_flags = renormalize_delta(
        np.array(result.noisy.delta),
        np.array(reference.noisy.delta),
        exact_reference,
        offsets,
        guard=settings.guard,
    )
    coefficients, chi_info = learn_chi_coefficients(
        np.array(learn_target.noisy.chi_nn),
        np.array(learn_target.noisy.corr_avg),
        np.array(learn_reference.noisy.chi_nn),
        np.array(learn_reference.noisy.corr_avg),
        np.array(learn_target.clean.chi_nn),
        learn_target.n_qubits,
        ridge=settings.ridge,
        guard=settings.guard,
    )
    chi_recovered, chi_flags = recover_chi(
        np.array(result.noisy.chi_nn),
        np.array(result.noisy.corr_avg),
        np.array(reference.noisy.chi_nn),
        np.array(reference.noisy.corr_avg),
        coefficients,
        result.n_qubits,
        guard=settings.guard,
    )
    report = RecoveryReport(
        offsets=offsets,
        offsets_objective=offset_info["objective"],
        chi_coefficients=coefficients,
        chi_objective=chi_info["objective"],
        delta_recovered=delta_recovered,
        delta_flags=delta_flags,
        chi_recovered=chi_recovered,
        chi_flags=chi_flags,
    )
    if not reference.noisy.hamming:
        return report

    n = result.n_qubits
    if phi0 == 0.0:
        d_cliff = np.zeros(cycles + 1, dtype=int)
    else:
        d_cliff = np.where(np.arange(cycles + 1) % 2 == 0, 0, n)
    report.flip_schedule = learn_flip_schedule(
        np.array(reference.noisy.hamming), d_cliff
    )
    if settings.deconvolve and result.clean.qfi:
        report.deconvolved = [
            deconvolve_hamming(
                np.array(result.noisy.hamming[t]),
                float(report.flip_schedule[t]),
                hamming_mean_from_delta(n, delta_recovered[t]),
                result.clean.qfi[t],
                lambda_mean=settings.lambda_mean,
                lambda_var=settings.lambda_var,
            )
            for t in range(cycles + 1)
        ]
    return report


def run_phase_diagram(config: RunConfig) -> list[PhasePoint]:
    """Order parameters over the (epsilon, phi) grid, optionally parallel."""
    cells = [(eps, phi) for eps in config.epsilons for phi in config.phis]
    if not cells:
        raise ValueError("empty parameter grid")
    # the grid only needs per-site z values; skip the expensive extras
    fast = replace(
        config, full_correlations=False, shots=0, noise=None, recovery=None
    )
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_phase_cell, [(fast, e, p) for e, p in cells]))
    else:
        results = [_phase_cell((fast, e, p)) for e, p in cells]
    return results


def _phase_cell(args: tuple[RunConfig, float, float]) -> PhasePoint:
    config, eps, phi = args
    return run_point(config, eps, phi).phase_point()


# --- output files ---


def _format(value: float) -> str:
    return f"{value:.17g}"


def point_csv_rows(result: PointResult) -> list[str]:
    columns = list(CSV_COLUMNS)
    if result.noisy is not None:
        columns += NOISY_COLUMNS
    if result.recovery is not None:
        columns += RECOVERED_COLUMNS
    lines = [",".join(columns)]
    h_mean, h_var = result.clean.hamming_moments()
    if result.noisy is not None:
        hn_mean, hn_var = result.noisy.hamming_moments()
    for t in range(len(result.clean.delta)):
        def channel(series: TimeSeries, means, variances) -> list[str]:
            row = [
                _format(series.delta[t]),
                _format(series.chi_nn[t]),
                _format(series.chi_sg[t]) if series.chi_sg else "nan",
                _format(series.qfi[t]) if series.qfi else "nan",
                _format(means[t]) if len(means) else "nan",
                _format(variances[t]) if len(variances) else "nan",
            ]
            return row

        cells = [str(t)] + channel(result.clean, h_mean, h_var)
        if result.noisy is not None:
            cells += channel(result.noisy, hn_mean, hn_var)
        if result.recovery is not None:
            rec = result.recovery
            cells += [
                _format(rec.delta_recovered[t]),
                str(int(rec.delta_flags[t])),
                _format(rec.chi_recovered[t]),
                str(int(rec.chi_flags[t])),
                _format(rec.flip_schedule[t]) if rec.flip_schedule is not None else "nan",
            ]
        lines.append(",".join(cells))
    return lines


def point_tag(eps: float, phi: float) -> str:
    return f"eps{eps:.6g}_phi{phi:.6g}"


def write_point_outputs(result: PointResult, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    tag = point_tag(result.epsilon, result.phi)
    written = []

    csv_path = os.path.join(out_dir, f"point_{tag}.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(point_csv_rows(result)) + "\n")
    written.append(csv_path)

    channels = {"clean": result.clean, "noisy": result.noisy}
    payload = {
        name: {str(t): dist.tolist() for t, dist in enumerate(series.hamming)}
        for name, series in channels.items()
        if series is not None and series.hamming
    }
    if payload:
        ham_path = os.path.join(out_dir, f"hamming_{tag}.json")
        with open(ham_path, "w") as fh:
            json.dump(payload, fh)
        written.append(ham_path)

    if result.recovery is not None:
        written.append(write_recovery_report(result.recovery, tag, out_dir))

    return written


def write_recovery_report(report: RecoveryReport, tag: str, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"recovery_{tag}.json")
    # serialized before the file is opened, so a non-finite value leaves no file
    text = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_phase_grid(points: list[PhasePoint], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "phase_grid.json")
    records = [
        {
            "eps": p.epsilon,
            "phi": p.phi,
            "delta_mbl": p.delta_mbl,
            "delta_dtc": p.delta_dtc,
        }
        for p in points
    ]
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
    return path


def write_resolved_config(config: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.resolved.json")
    with open(path, "w") as fh:
        fh.write(config.to_json() + "\n")
    return path


# --- raw-bundle export and offline recovery (the `recover` CLI path) ---

# every column after "t": (run, channel, TimeSeries field) it holds
RAW_COLUMNS = {
    "delta_noisy": ("target", "noisy", "delta"),
    "delta_noisy_ref": ("reference", "noisy", "delta"),
    "delta_sim": ("target", "clean", "delta"),
    "chi_noisy": ("target", "noisy", "chi_nn"),
    "corr_noisy": ("target", "noisy", "corr_avg"),
    "chi_noisy_ref": ("reference", "noisy", "chi_nn"),
    "corr_noisy_ref": ("reference", "noisy", "corr_avg"),
    "chi_sim": ("target", "clean", "chi_nn"),
}


def _raw_series(target: PointResult, reference: PointResult) -> list[list[float]]:
    """The series of each `RAW_COLUMNS` column, in column order."""
    runs = {"target": target, "reference": reference}
    return [
        getattr(getattr(runs[run], channel), name)
        for run, channel, name in RAW_COLUMNS.values()
    ]


def write_raw_bundle(
    result: PointResult, reference: PointResult, out_dir: str
) -> str:
    """Raw series bundle consumed by `recover`: target + Clifford reference."""
    os.makedirs(out_dir, exist_ok=True)
    tag = point_tag(result.epsilon, result.phi)
    path = os.path.join(out_dir, f"raw_{tag}.csv")
    columns = _raw_series(result, reference)
    lines = [",".join(["t", *RAW_COLUMNS])]
    for t in range(len(result.clean.delta)):
        lines.append(",".join([str(t)] + [_format(column[t]) for column in columns]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def recover_from_raw(
    config: RunConfig, raw_path: str, phi: float, n_qubits: int
) -> RecoveryReport:
    """Re-run Delta and chi recovery on a previously exported raw bundle.

    The bundle's target and reference columns are both the learn pair and
    the pair to recover, as in a run that learns on its own lattice. The
    bundle carries no other lattice, so a config that learns elsewhere is
    rejected.
    """
    if config.learn_lattice != (config.rows, config.cols):
        raise ValueError(
            "recovery.learn_rows/learn_cols select the %dx%d lattice, but a raw "
            "bundle carries only the run's own %dx%d lattice"
            % (*config.learn_lattice, config.rows, config.cols)
        )
    phi0 = clifford_reference(phi)
    # the bundle does not carry eps, and recovery does not read it
    target = PointResult(
        epsilon=float("nan"),
        phi=phi,
        n_qubits=n_qubits,
        s0=np.empty(0),
        clean=TimeSeries(),
        noisy=TimeSeries(),
    )
    reference = PointResult(
        epsilon=0.0,
        phi=phi0,
        n_qubits=n_qubits,
        s0=np.empty(0),
        clean=TimeSeries(),
        noisy=TimeSeries(),
    )
    table = np.genfromtxt(raw_path, delimiter=",", names=True)
    for column, series in zip(RAW_COLUMNS, _raw_series(target, reference)):
        series.extend(table[column])
    settings = config.recovery or RecoverySettings()
    return _recover(target, reference, target, reference, phi0, settings)


# --- MPS checkpointing ---


def _checkpoint_key(
    config: RunConfig, rows: int, cols: int, eps: float, phi: float
) -> str:
    """Name prefix of a point's checkpoints.

    It hashes every setting that determines the evolved state and the
    recorded series, so a checkpoint resumes only the run it was written by.
    The cycle count is left out: a longer run resumes a shorter one.
    """
    spec = {
        "rows": rows,
        "cols": cols,
        "initial_state": config.initial_state,
        "seed": config.seed,
        "eps": float(eps).hex(),
        "phi": float(phi).hex(),
        "chi_max": config.mps.chi_max,
        "cutoff": float(config.mps.cutoff).hex(),
        "noise": asdict(config.noise) if config.noise else None,
        "shots": config.shots,
        "full_correlations": config.full_correlations,
        # the checkpoint layout: one array per channel and series field
        "series": sorted(vars(TimeSeries())),
    }
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    return f"{point_tag(eps, phi)}_{digest[:16]}"


def _series_arrays(series: TimeSeries | None, channel: str) -> dict:
    if series is None:
        return {}
    return {
        f"{channel}_{name}": np.array(values)
        for name, values in vars(series).items()
        if values
    }


def _restore_series(series: TimeSeries, data, channel: str) -> None:
    for name in vars(series):
        key = f"{channel}_{name}"
        if key in data:
            setattr(series, name, list(data[key]))


def _save_checkpoint(state, directory, key, t, clean, noisy) -> None:
    path = os.path.join(directory, f"{key}_t{t}.npz")
    tensors = {f"site_{i}": a for i, a in enumerate(state.mps.tensors)}
    arrays = _series_arrays(clean, "clean")
    arrays.update(_series_arrays(noisy, "noisy"))
    # write aside and rename, so a crash never leaves a truncated checkpoint
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "wb") as fh:
        np.savez(
            fh,
            t=np.array(t),
            truncation_error=np.array(state.mps.truncation_error),
            **tensors,
            **arrays,
        )
    os.replace(partial, path)
    previous = os.path.join(directory, f"{key}_t{t - 1}.npz")
    if os.path.exists(previous):
        os.remove(previous)


def _try_resume(state, directory, key, cycles, clean, noisy) -> int:
    best_t, best_path = -1, None
    for name in os.listdir(directory):
        if name.startswith(key + "_t") and name.endswith(".npz"):
            t = int(name[len(key) + 2 : -4])
            if t <= cycles and t > best_t:
                best_t, best_path = t, os.path.join(directory, name)
    if best_path is None:
        return 0
    with np.load(best_path) as data:
        n_sites = state.mps.n_sites
        state.mps.tensors = [data[f"site_{i}"] for i in range(n_sites)]
        state.mps.truncation_error = float(data["truncation_error"])
        _restore_series(clean, data, "clean")
        if noisy is not None:
            _restore_series(noisy, data, "noisy")
    return best_t + 1
