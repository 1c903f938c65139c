"""Config-driven orchestration: point runs, phase-diagram sweeps, recovery.

A run evolves one (epsilon, phi) point for T cycles. Each cycle reads
<Z> and the <ZZ> matrix in one backend call (`zz_matrix`; without full
correlations only the lattice edges are filled) and the sampled
bitstrings once, and one record (`_record`) appends every diagnostic of a
channel: the noiseless channel records them as read, the noisy one after
the per-qubit noise channel has corrupted them. Recovery adds a third,
recovered channel. With noise, the point's reference run at the nearest
Clifford point is recorded too, and the series recovery reads make up the
point's raw bundle (`RAW_COLUMNS` maps each column to its run, channel and
`TimeSeries` field). Recovery is one pipeline on that bundle, run by
`simulate` and by `recover` on the written file, so `recover` repeats every
run's report exactly: parity offsets learned against a classically
simulated system (optionally a smaller lattice, whose columns the bundle
then holds), Clifford-point renormalization, correlator coefficients
learned the same way, and, when the bundle holds Hamming histograms,
per-cycle flip probabilities and the optional deconvolution.

All randomness is derived from the config seed plus the point coordinates
and cycle index, so re-running any config reproduces its outputs byte for
byte, serial or parallel. A point at epsilon = 0 and phi = 0 or pi/2, such
as every Clifford reference, needs no backend: a `CliffordState` gives its
reads exactly. The point CSV holds, per channel, the first six `TimeSeries`
fields (`CSV_COLUMNS`), then the recovered columns. A phase-diagram cell is
one `phase_grid.json` record: the two order parameters of its clean Delta(t)
series. An MPS point runs on the chain order `unroll` gives, as a position
tuple, and keeps one checkpoint file, overwritten each cycle, with one array
per channel and `TimeSeries` field.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .blas import limit_blas_threads
from .circuit import (
    CliffordState,
    FloquetParams,
    ProductState,
    build_cycle,
    custom_state,
    neel_state,
    polarized_state,
    sample_disorder,
)
from .config import RecoverySettings, RunConfig, point_tag
from .exact import StateVector
from .lattice import build_lattice, unroll
from .noise import corrupt_bits, corrupt_zz
from .observables import (
    TimeSeries,
    chi,
    chi_from_matrix,
    correlator_average,
    delta,
    distribution_mean_var,
    hamming_distribution,
    hamming_mean_from_delta,
    phase_order_params,
    qfi,
)
from .recovery import (
    TrialDistribution,
    chi_ratio,
    clifford_delta,
    clifford_reference,
    deconvolve_hamming,
    delta_ratio,
    learn_flip_schedule,
)

# each channel's columns of the point CSV: the first six TimeSeries fields
CSV_COLUMNS = ["delta", "chi_nn", "chi_sg", "qfi", "hamming_mean", "hamming_var"]


@dataclass
class RecoveryReport:
    # (target even, target odd, reference even, reference odd) parity offsets
    offsets: tuple[float, float, float, float]
    offsets_objective: float
    # (c1, c2) of the target, then (c1', c2') of the reference; see chi_ratio
    chi_coefficients: tuple[float, float, float, float]
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
            "offsets": list(self.offsets),
            "offsets_objective": self.offsets_objective,
            "chi_coefficients": list(self.chi_coefficients),
            "chi_objective": self.chi_objective,
            "delta_recovered": self.delta_recovered.tolist(),
            "delta_flags": self.delta_flags.astype(int).tolist(),
            "chi_recovered": self.chi_recovered.tolist(),
            "chi_flags": self.chi_flags.astype(int).tolist(),
        }
        if self.flip_schedule is not None:
            payload["flip_schedule"] = self.flip_schedule.tolist()
        if self.deconvolved is not None:
            payload["deconvolved"] = [  # d0, sigma, k, q, at_bound
                {**asdict(trial), "at_bound": info["at_bound"]}
                for trial, info in self.deconvolved
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
    raw: dict[str, np.ndarray] | None = None  # raw bundle of a noisy point


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
    checkpoint: bool = False,
) -> PointResult:
    """Evolve one system, recording the clean (and noisy) channels.

    At epsilon = 0 and phi = 0 or pi/2 a `CliffordState` stands in for the
    backend; it is never checkpointed.
    """
    lattice = build_lattice(rows, cols)
    position = unroll(lattice)
    couplings = sample_disorder(lattice, config.seed)
    cycle = build_cycle(lattice, couplings, FloquetParams(epsilon=eps, phi=phi))
    s0 = _initial_state(config, lattice)
    noise_model = (
        config.noise.build(lattice.n_qubits, s0.spins) if config.noise else None
    )

    clifford = eps == 0 and phi in (0.0, np.pi / 2)
    if clifford:  # every cycle maps s0 to one basis state: nothing to evolve
        state = CliffordState(s0)
    elif config.backend == "exact":
        state = StateVector.from_product(s0)
    else:
        from .mps import MPSState
        state = MPSState(
            s0, position, chi_max=config.mps.chi_max, cutoff=config.mps.cutoff
        )
    clean = TimeSeries()
    noisy = TimeSeries() if noise_model else None
    full = config.full_correlations
    edges = tuple(np.transpose(lattice.edges))  # (rows, cols) index arrays

    start_t = 0
    checkpointed = checkpoint and config.backend == "mps" and not clifford
    if checkpointed:
        key = _checkpoint_key(config, rows, cols, eps, phi, position)
        path = os.path.join(config.output_dir, "checkpoints", f"{key}.npz")
        start_t = _try_resume(state, path, config.cycles, clean, noisy)

    for t in range(start_t, config.cycles + 1):
        if t > 0:
            state.apply_cycle(cycle)
        z, zz = state.zz_matrix(None if full else lattice.edges)
        samples = None
        if config.shots > 0:
            samples = state.sample_bits(
                config.shots, _shot_seed(config, eps, phi, t, 0)
            )
        _record(clean, z, zz, edges, full, samples, s0.spins)
        if noise_model is not None:
            samples_noisy = None
            if samples is not None:
                rng = np.random.default_rng(_shot_seed(config, eps, phi, t, 1))
                samples_noisy = corrupt_bits(samples, noise_model, t, rng)
            noisy_z, noisy_zz = corrupt_zz(z, zz, noise_model, t)
            _record(noisy, noisy_z, noisy_zz, edges, full, samples_noisy, s0.spins)
        if checkpointed:
            _save_checkpoint(state, path, t, clean, noisy)

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
    zz: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray],
    full: bool,
    samples: np.ndarray | None,
    s0: np.ndarray,
) -> None:
    """Append one cycle of one channel: everything its measurements give.

    ``zz`` is the correlator matrix: complete when ``full``, otherwise
    filled only on the lattice ``edges``. ``samples`` holds the bitstrings
    (None without shots).
    """
    zz_nn = zz[edges]
    series.delta.append(delta(z, s0))
    series.chi_nn.append(chi(zz_nn))
    series.corr_avg.append(correlator_average(zz_nn))
    if full:
        series.chi_sg.append(chi_from_matrix(zz))
        series.qfi.append(qfi(z, zz, s0))
    if samples is not None:
        series.hamming.append(hamming_distribution(samples, s0))
        mean, var = distribution_mean_var(series.hamming[-1])
        series.hamming_mean.append(mean)
        series.hamming_var.append(var)


def run_point(config: RunConfig, eps: float, phi: float) -> PointResult:
    """Simulate one parameter point, with noise and recovery if configured.

    With noise, the point's Clifford reference is recorded too (classically,
    see `_simulate_system`), and so is the learn pair when recovery learns
    on another lattice. Their series make up the raw bundle,
    ``PointResult.raw``, which in-run recovery reads and `write_point_outputs`
    writes, with or without recovery.
    """
    if config.checkpoint and config.output_dir is None:
        raise ValueError("checkpoint needs an output_dir to write checkpoints to")
    result = _simulate_system(
        config, config.rows, config.cols, eps, phi, config.checkpoint
    )
    if config.noise is None:
        return result

    phi0 = clifford_reference(phi)
    reference = _simulate_system(config, config.rows, config.cols, 0.0, phi0)
    runs = {"target": result, "reference": reference}
    learn = config.learn_lattice
    if learn != (config.rows, config.cols):
        runs["learn_target"] = _simulate_system(config, *learn, eps, phi)
        runs["learn_reference"] = _simulate_system(config, *learn, 0.0, phi0)
    result.raw = _raw_bundle(runs)
    if config.recovery is not None:
        result.recovery = _recover(result.raw, config, phi)
    return result


def _recover(
    bundle: dict[str, np.ndarray], config: RunConfig, phi: float
) -> RecoveryReport:
    """The recovery pipeline of both `simulate` and `recover`, on a raw bundle.

    Parity offsets and correlator coefficients are learned on the learn
    pair (target and Clifford reference) against its clean series, then
    applied to the target/reference pair. The learn pair is the bundle's
    ``learn_`` columns when it has them, otherwise the target and reference
    columns themselves. When the bundle carries the reference's noisy
    Hamming histograms, the per-cycle flip schedule is learned from them,
    and with ``deconvolve`` and a recorded QFI the target's histograms are
    deconvolved.
    """
    settings = config.recovery or RecoverySettings()
    n = build_lattice(config.rows, config.cols).n_qubits
    n_learn = build_lattice(*config.learn_lattice).n_qubits
    learn = "learn_" if "learn_delta_noisy" in bundle else ""
    cycles = len(bundle["delta_noisy"]) - 1
    exact = clifford_delta(clifford_reference(phi), cycles)

    def ratios(prefix: str, n_qubits: int) -> tuple:
        """The delta and chi ratios of the pair whose columns start with ``prefix``."""
        delta = [bundle[prefix + k] for k in ("delta_noisy", "delta_noisy_ref")]
        names = ("chi_noisy", "corr_noisy", "chi_noisy_ref", "corr_noisy_ref")
        chi = [bundle[prefix + k] for k in names]
        return delta_ratio(*delta, exact), chi_ratio(*chi, n_qubits)

    (offsets, offsets_objective), (coefficients, chi_objective) = (
        ratio.fit(bundle[learn + simulated], settings.ridge, settings.guard)
        for ratio, simulated in zip(ratios(learn, n_learn), ("delta_sim", "chi_sim"))
    )
    if not all(np.isfinite(v) and abs(v) <= 1.0 for v in offsets):
        raise ValueError(f"offsets must be finite and within [-1, 1], got {offsets}")
    (delta_recovered, delta_flags), (chi_recovered, chi_flags) = (
        ratio.apply(params, settings.guard)
        for ratio, params in zip(ratios("", n), (offsets, coefficients))
    )
    report = RecoveryReport(
        offsets=offsets,
        offsets_objective=offsets_objective,
        chi_coefficients=coefficients,
        chi_objective=chi_objective,
        delta_recovered=delta_recovered,
        delta_flags=delta_flags,
        chi_recovered=chi_recovered,
        chi_flags=chi_flags,
    )
    if "hamming_noisy_ref_0" not in bundle:
        return report

    hamming, hamming_ref = (
        np.column_stack([bundle[f"{name}_{d}"] for d in range(n + 1)])
        for name in ("hamming_noisy", "hamming_noisy_ref")
    )
    d_cliff = hamming_mean_from_delta(n, exact).astype(int)
    report.flip_schedule = learn_flip_schedule(hamming_ref, d_cliff)
    if settings.deconvolve and "qfi_sim" in bundle:
        report.deconvolved = [
            deconvolve_hamming(
                hamming[t],
                float(report.flip_schedule[t]),
                hamming_mean_from_delta(n, delta_recovered[t]),
                bundle["qfi_sim"][t],
                lambda_mean=settings.lambda_mean,
                lambda_var=settings.lambda_var,
            )
            for t in range(cycles + 1)
        ]
    return report


def run_phase_diagram(config: RunConfig) -> list[dict]:
    """Order parameters over the (epsilon, phi) grid, optionally parallel:
    one `phase_grid.json` record per cell."""
    cells = [(eps, phi) for eps in config.epsilons for phi in config.phis]
    # the grid only needs Delta(t); skip the expensive extras
    fast = replace(
        config, full_correlations=False, shots=0, noise=None, recovery=None
    )
    # a forked pool starts all its workers up front, so none may lack a cell
    workers = min(config.workers, len(cells))
    if workers > 1:
        # imported here: multiprocessing costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        np.random  # imported once here, not by each forked worker on its first cell
        with ProcessPoolExecutor(
            max_workers=workers, initializer=limit_blas_threads
        ) as pool:
            results = list(pool.map(_phase_cell, [(fast, e, p) for e, p in cells]))
    else:
        results = [_phase_cell((fast, e, p)) for e, p in cells]
    return results


def _phase_cell(args: tuple[RunConfig, float, float]) -> dict:
    config, eps, phi = args
    delta_mbl, delta_dtc = phase_order_params(run_point(config, eps, phi).clean.delta)
    return {"eps": eps, "phi": phi, "delta_mbl": delta_mbl, "delta_dtc": delta_dtc}


# --- output files ---


def _format(value: float) -> str:
    return f"{value:.17g}"


def _table(columns: dict) -> list[str]:
    """CSV lines: the header, then ``t`` and each column's value at t."""
    rows = zip(*columns.values())
    return [",".join(["t", *columns])] + [
        ",".join([str(t), *map(_format, row)]) for t, row in enumerate(rows)
    ]


def point_csv_rows(result: PointResult) -> list[str]:
    """Each channel's `CSV_COLUMNS` (NaN where unrecorded), then recovery's."""
    nan = [math.nan] * len(result.clean.delta)
    columns = {}
    for suffix, series in (("", result.clean), ("_noisy", result.noisy)):
        if series is not None:
            columns.update(
                {name + suffix: getattr(series, name) or nan for name in CSV_COLUMNS}
            )
    rec = result.recovery
    if rec is not None:
        columns.update(
            delta_recovered=rec.delta_recovered,
            delta_recovered_flag=rec.delta_flags.astype(int),
            chi_recovered=rec.chi_recovered,
            chi_recovered_flag=rec.chi_flags.astype(int),
            p_flip=nan if rec.flip_schedule is None else rec.flip_schedule,
        )
    return _table(columns)


def _write_atomic(path: str, data: str | bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it.

    A reader sees the old file or the whole new one, and a failed write
    leaves the old file as it was and no temporary file behind.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def write_point_outputs(result: PointResult, out_dir: str) -> list[str]:
    tag = point_tag(result.epsilon, result.phi)
    csv_path = os.path.join(out_dir, f"point_{tag}.csv")
    _write_atomic(csv_path, "\n".join(point_csv_rows(result)) + "\n")
    written = [csv_path]

    channels = {"clean": result.clean, "noisy": result.noisy}
    payload = {
        name: {str(t): dist.tolist() for t, dist in enumerate(series.hamming)}
        for name, series in channels.items()
        if series is not None and series.hamming
    }
    if payload:
        ham_path = os.path.join(out_dir, f"hamming_{tag}.json")
        _write_atomic(ham_path, json.dumps(payload))
        written.append(ham_path)

    if result.recovery is not None:
        written.append(write_recovery_report(result.recovery, tag, out_dir))
    if result.raw is not None:
        written.append(write_raw_bundle(result, out_dir))
    return written


def write_recovery_report(report: RecoveryReport, tag: str, out_dir: str) -> str:
    path = os.path.join(out_dir, f"recovery_{tag}.json")
    # serialized before any file is opened, so a non-finite value leaves no file
    _write_atomic(path, json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return path


def write_phase_grid(records: list[dict], out_dir: str) -> str:
    path = os.path.join(out_dir, "phase_grid.json")
    _write_atomic(path, json.dumps(records, indent=2))
    return path


def write_resolved_config(config: RunConfig, out_dir: str) -> str:
    path = os.path.join(out_dir, "config.resolved.json")
    _write_atomic(path, config.to_json() + "\n")
    return path


# --- the raw bundle: the one input of recovery, written for `recover` ---

# the columns of a target/reference pair: (run, channel, TimeSeries field)
_PAIR_COLUMNS = {
    "delta_noisy": ("target", "noisy", "delta"),
    "delta_noisy_ref": ("reference", "noisy", "delta"),
    "delta_sim": ("target", "clean", "delta"),
    "chi_noisy": ("target", "noisy", "chi_nn"),
    "corr_noisy": ("target", "noisy", "corr_avg"),
    "chi_noisy_ref": ("reference", "noisy", "chi_nn"),
    "corr_noisy_ref": ("reference", "noisy", "corr_avg"),
    "chi_sim": ("target", "clean", "chi_nn"),
}

# every bundle column after "t", in file order. A Hamming field gives one
# column per distance d, named <column>_<d>; the learn pair's columns
# exist only when recovery learns on another lattice.
RAW_COLUMNS = {
    **_PAIR_COLUMNS,
    "qfi_sim": ("target", "clean", "qfi"),
    "hamming_noisy": ("target", "noisy", "hamming"),
    "hamming_noisy_ref": ("reference", "noisy", "hamming"),
    **{
        f"learn_{name}": (f"learn_{run}", channel, series)
        for name, (run, channel, series) in _PAIR_COLUMNS.items()
    },
}


def _raw_bundle(runs: dict[str, PointResult]) -> dict[str, np.ndarray]:
    """Each `RAW_COLUMNS` column whose run and series exist, by name."""
    bundle = {}
    for name, (run, channel, series) in RAW_COLUMNS.items():
        values = getattr(getattr(runs[run], channel), series) if run in runs else []
        array = np.array(values)
        if array.ndim == 2:
            bundle.update({f"{name}_{d}": array[:, d] for d in range(array.shape[1])})
        elif len(array):
            bundle[name] = array
    return bundle


def write_raw_bundle(result: PointResult, out_dir: str) -> str:
    """Write the point's raw bundle (``result.raw``), which `recover` reads."""
    tag = point_tag(result.epsilon, result.phi)
    path = os.path.join(out_dir, f"raw_{tag}.csv")
    _write_atomic(path, "\n".join(_table(result.raw)) + "\n")
    return path


def recover_from_raw(config: RunConfig, raw_path: str, phi: float) -> RecoveryReport:
    """Re-run the recovery of a run on the raw bundle it wrote.

    The bundle holds the learn pair's columns exactly when the config
    learns on another lattice; a bundle and config that disagree on it are
    rejected.
    """
    table = np.genfromtxt(raw_path, delimiter=",", names=True)
    # contiguous copies, like the in-run columns: BLAS dot products of a
    # strided column sum in another order and move the last bits
    bundle = {name: table[name].copy() for name in table.dtype.names[1:]}
    elsewhere = config.learn_lattice != (config.rows, config.cols)
    if elsewhere != ("learn_delta_noisy" in bundle):
        raise ValueError(
            "recovery.learn_rows/learn_cols select the %dx%d lattice, but the raw "
            "bundle %s learn-lattice columns"
            % (*config.learn_lattice, "has no" if elsewhere else "has")
        )
    return _recover(bundle, config, phi)


# --- MPS checkpointing ---


def _checkpoint_key(
    config: RunConfig,
    rows: int,
    cols: int,
    eps: float,
    phi: float,
    position: tuple[int, ...],
) -> str:
    """Name of a point's checkpoint file, without its ``.npz``.

    It hashes every setting that determines the evolved state and the
    recorded series, so a checkpoint resumes only the run it was written by.
    The cycle count is left out: a longer run resumes a shorter one.
    """
    spec = {
        "rows": rows,
        "cols": cols,
        # the chain position of each lattice qubit, which the tensors follow
        "order": list(position),
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


def _save_checkpoint(state, path, t, clean, noisy) -> None:
    arrays = {
        f"{channel}_{name}": np.array(values)
        for channel, series in (("clean", clean), ("noisy", noisy))
        if series is not None
        for name, values in vars(series).items()
        if values
    }
    tensors = {f"site_{i}": a for i, a in enumerate(state.tensors)}
    buffer = io.BytesIO()
    np.savez(
        buffer,
        t=np.array(t),
        truncation_error=np.array(state.truncation_error),
        **tensors,
        **arrays,
    )
    _write_atomic(path, buffer.getvalue())


def _try_resume(state, path, cycles, clean, noisy) -> int:
    """The first cycle to run: the one after the checkpoint's, or 0 (a fresh
    start, which replaces the file) without a checkpoint of this run's cycles."""
    if not os.path.exists(path):
        return 0
    with np.load(path) as data:
        t = int(data["t"])
        if t > cycles:
            return 0
        state.tensors = [data[f"site_{i}"] for i in range(len(state.tensors))]
        state.truncation_error = float(data["truncation_error"])
        channels = {"clean": clean, "noisy": noisy}
        for key in data.files:  # <channel>_<TimeSeries field>, the series saved
            channel, _, name = key.partition("_")
            if channel in channels:
                setattr(channels[channel], name, list(data[key]))
    return t + 1
