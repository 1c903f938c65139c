"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. Thresholds marked as derived were frozen from the dense-backend
oracle before the tests were written.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dtc2d import (
    FloquetParams,
    build_cycle,
    build_lattice,
    neel_state,
    sample_disorder,
    unroll,
)
from dtc2d.config import MPSOptions, RecoverySettings, RunConfig
from dtc2d.exact import StateVector
from dtc2d.mps import MPSState
from dtc2d.noise import NoiseSpec, corrupt_bits
from dtc2d.observables import (
    chi,
    chi_from_matrix,
    delta,
    distribution_mean_var,
    fourier_spectrum,
    hamming_distances,
    hamming_distribution,
    phase_order_params,
    qfi,
)
from dtc2d.recovery import (
    TrialDistribution,
    clifford_delta,
    clifford_reference,
    deconvolve_hamming,
    delta_ratio,
    flip_kernel,
    learn_flip_schedule,
)
from dtc2d.runner import (
    run_phase_diagram,
    run_point,
    _simulate_system,
)

from test_recovery import trial_pmf

DTC_EPS, DTC_PHI = 0.05, 0.45 * np.pi
SEED = 7


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS ({time.time() - start:.1f}s)")


def mps_deltas(rows, cols, eps, phi, cycles, chi_max=8):
    lattice = build_lattice(rows, cols)
    order = unroll(lattice)
    cycle = build_cycle(
        lattice, sample_disorder(lattice, SEED), FloquetParams(eps, phi)
    )
    s0 = neel_state(lattice)
    state = MPSState(s0, order, chi_max=chi_max)
    z_rows = [state.zz_matrix()[0]]
    for _ in range(cycles):
        state.apply_cycle(cycle)
        z_rows.append(state.zz_matrix()[0])
    return np.array(z_rows), s0.spins


def test_criterion_01_clifford_identities():
    with criterion(1, "Clifford identities on all lattices, MPS backend"):
        start = time.time()
        cycles = 9  # odd horizon: the glass-point alternating sum cancels
        for shape in [(1, 1), (2, 2), (3, 3), (3, 7)]:
            z, s0 = mps_deltas(*shape, 0.0, np.pi / 2, cycles)
            deltas = z @ s0 / len(s0)
            np.testing.assert_allclose(
                deltas, (-1.0) ** np.arange(cycles + 1), atol=1e-12
            )
            delta_mbl, delta_dtc = phase_order_params(deltas)
            assert abs(delta_mbl - 1.0) < 1e-12
            assert abs(delta_dtc - 1.0) < 1e-12

            z, s0 = mps_deltas(*shape, 0.0, 0.0, cycles)
            deltas = z @ s0 / len(s0)
            np.testing.assert_allclose(deltas, 1.0, atol=1e-12)
            _, delta_dtc = phase_order_params(deltas)
            assert abs(delta_dtc) < 1e-12
        assert time.time() - start < 60.0


def test_criterion_02_oracle_equivalence():
    with criterion(2, "MPS(chi=256) matches exact on 12 qubits to 1e-6"):
        start = time.time()
        lattice = build_lattice(1, 1)
        order = unroll(lattice)
        disorder = sample_disorder(lattice, 13)
        s0 = neel_state(lattice)
        edges = list(lattice.edges)
        rng = np.random.default_rng(21)
        for _ in range(5):
            params = FloquetParams(rng.uniform(0, 0.4), rng.uniform(0, np.pi / 2))
            cycle = build_cycle(lattice, disorder, params)
            sv = StateVector.from_product(s0)
            state = MPSState(s0, order, chi_max=256)
            for _ in range(10):
                sv.apply_cycle(cycle)
                state.apply_cycle(cycle)
            (z_e, zz_e), (z_m, zz_m) = sv.zz_matrix(), state.zz_matrix()
            assert abs(delta(z_e, s0.spins) - delta(z_m, s0.spins)) < 1e-6
            chi_e = chi(np.array([zz_e[i, j] for i, j in edges]))
            _, zz_m_edges = state.zz_matrix(edges)
            chi_m = chi(np.array([zz_m_edges[i, j] for i, j in edges]))
            assert abs(chi_e - chi_m) < 1e-6
            assert abs(chi_from_matrix(zz_e) - chi_from_matrix(zz_m)) < 1e-6
            assert abs(qfi(z_e, zz_e, s0.spins) - qfi(z_m, zz_m, s0.spins)) < 1e-6
        assert time.time() - start < 300.0


def test_criterion_03_subharmonic_response():
    with criterion(3, "Fourier peak at omega=pi dominates by >= 3x"):
        lattice = build_lattice(1, 1)
        cycle = build_cycle(
            lattice, sample_disorder(lattice, SEED), FloquetParams(DTC_EPS, DTC_PHI)
        )
        s0 = neel_state(lattice)
        sv = StateVector.from_product(s0)
        deltas = [delta(sv.zz_matrix()[0], s0.spins)]
        for _ in range(50):
            sv.apply_cycle(cycle)
            deltas.append(delta(sv.zz_matrix()[0], s0.spins))
        # even-length window t = 1..50 puts a frequency bin exactly at pi
        omega, magnitude = fourier_spectrum(np.array(deltas[1:]))
        peak = np.argmin(np.abs(omega - np.pi))
        assert omega[peak] == pytest.approx(np.pi)
        others = np.delete(magnitude, peak)
        assert magnitude[peak] >= 3.0 * others.max()


def test_criterion_04_kernel_properties():
    with criterion(4, "flip-kernel stochasticity and channel equivalence"):
        for n in (2, 35, 144):
            for p in (0.0, 0.01, 0.1, 0.5):
                kernel = flip_kernel(n, p)
                np.testing.assert_allclose(
                    kernel.sum(axis=0), 1.0, atol=1e-12
                )
        np.testing.assert_array_equal(flip_kernel(20, 0.0), np.eye(21))

        # channel-kernel equivalence at 1e5 shots, 3-sigma multinomial bounds
        n, shots, p = 12, 100_000, 0.07
        lattice = build_lattice(1, 1)
        cycle = build_cycle(
            lattice, sample_disorder(lattice, SEED), FloquetParams(DTC_EPS, DTC_PHI)
        )
        s0 = neel_state(lattice)
        sv = StateVector.from_product(s0)
        for _ in range(3):
            sv.apply_cycle(cycle)
        samples = sv.sample_bits(shots, seed=40)
        clean_dist = hamming_distribution(samples, s0.spins)
        model = NoiseSpec(decay=1.0, flip_slope=p, flip_cap=0.5).build(n)
        noisy = corrupt_bits(samples, model, t=1, rng=np.random.default_rng(41))
        noisy_dist = hamming_distribution(noisy, s0.spins)
        pushed = flip_kernel(n, p) @ clean_dist
        sigma = np.sqrt(np.maximum(pushed * (1 - pushed), 0.0) / shots)
        assert np.all(np.abs(noisy_dist - pushed) <= 3 * sigma + 5e-4)


def test_criterion_05_closed_loop_delta_recovery():
    with criterion(5, "closed-loop Delta recovery to 0.02 over 30 cycles"):
        config = RunConfig(
            rows=1, cols=1, epsilons=(DTC_EPS,), phis=(DTC_PHI,), cycles=30,
            backend="exact", seed=SEED, full_correlations=False, shots=0,
            noise=NoiseSpec(kind="uniform", decay=0.97,
                            bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4),
        )
        result = run_point(config, DTC_EPS, DTC_PHI)
        clean = np.array(result.clean.delta)
        recovered = result.recovery.delta_recovered
        flags = result.recovery.delta_flags
        assert flags.mean() <= 0.10
        assert np.max(np.abs(recovered[~flags] - clean[~flags])) <= 0.02


def test_criterion_06_offset_transfer():
    with criterion(6, "offsets learned on 12q improve 35q recovery >= 2x"):
        config = RunConfig(
            rows=2, cols=2, epsilons=(DTC_EPS,), phis=(DTC_PHI,), cycles=20,
            backend="mps", mps=MPSOptions(chi_max=16, cutoff=1e-12),
            seed=SEED, full_correlations=False, shots=0,
            noise=NoiseSpec(kind="uniform", decay=0.97,
                            bias_even=0.03, bias_odd=-0.03),
            recovery=RecoverySettings(ridge=1e-4, learn_rows=1, learn_cols=1),
        )
        result = run_point(config, DTC_EPS, DTC_PHI)
        clean = np.array(result.clean.delta)
        recovered = result.recovery.delta_recovered
        keep = ~result.recovery.delta_flags
        error_learned = np.mean(np.abs(recovered[keep] - clean[keep]))

        reference = _simulate_system(config, 2, 2, 0.0, clifford_reference(DTC_PHI))
        zero_recovered, zero_flags = delta_ratio(
            np.array(result.noisy.delta),
            np.array(reference.noisy.delta),
            clifford_delta(np.pi / 2, config.cycles),
        ).apply((0.0, 0.0, 0.0, 0.0), config.recovery.guard)
        error_zero = np.mean(
            np.abs(zero_recovered[~zero_flags] - clean[~zero_flags])
        )
        assert error_zero >= 2.0 * error_learned


def test_criterion_07_flip_probability_learning():
    with criterion(7, "p(t) recovered within 0.01 per cycle"):
        n, shots, cycles = 35, 10_000, 20
        slope, cap = 0.02, 0.3
        bits0 = np.zeros(n, dtype=np.uint8)  # polarized reference, s0 = +1
        model = NoiseSpec(decay=1.0, flip_slope=slope, flip_cap=cap).build(n)
        rng = np.random.default_rng(52)
        for t in range(cycles + 1):
            p_true = min(slope * t, cap)
            d_cliff = 0 if t % 2 == 0 else n  # flip point alternates
            clean = np.tile(bits0 if d_cliff == 0 else 1 - bits0, (shots, 1))
            noisy = corrupt_bits(clean, model, t, rng)
            distances = np.sum(noisy != bits0[None, :], axis=1)
            dist = np.bincount(distances, minlength=n + 1) / shots
            p_hat = learn_flip_schedule(dist[None], [d_cliff])[0]
            assert abs(p_hat - p_true) <= 0.01


def test_criterion_08_hamming_deconvolution():
    with criterion(8, "deconvolution recovers a known trial to TV <= 0.05"):
        n, p, shots = 35, 0.1, 10_000
        truth = TrialDistribution(d0=12.0, sigma=3.0, k=0.8, q=-12.0)
        clean = trial_pmf(truth, n)
        pushed = flip_kernel(n, p) @ clean
        counts = np.random.default_rng(123).multinomial(shots, pushed)
        mu, var = distribution_mean_var(trial_pmf(truth, n))
        fitted, _ = deconvolve_hamming(counts / shots, p, mu, var)
        tv = 0.5 * np.sum(np.abs(trial_pmf(fitted, n) - clean))
        assert tv <= 0.05


def test_criterion_09_phase_diagram_topology():
    with criterion(9, "11x11 phase diagram: DTC lobe and ergodic basin"):
        start = time.time()
        config = RunConfig(
            rows=1, cols=1,
            epsilons=tuple(np.linspace(0.0, 0.5, 11)),
            phis=tuple(np.linspace(0.0, 0.5 * np.pi, 11)),
            cycles=30, backend="exact", seed=SEED,
            full_correlations=False, shots=0,
        )
        points = run_phase_diagram(config)
        cells = {(round(p["eps"], 6), round(p["phi"], 6)): p for p in points}
        dtc_cell = cells[(round(0.05, 6), round(0.45 * np.pi, 6))]
        assert dtc_cell["delta_dtc"] > 0.5
        # deep-ergodic cell frozen from the dense-backend scan
        ergodic_cell = cells[(round(0.5, 6), round(0.25 * np.pi, 6))]
        assert ergodic_cell["delta_mbl"] < 0.2
        assert time.time() - start < 7200.0


def test_criterion_10_polarized_state_stability():
    with criterion(10, "polarized DTC order exceeds Neel at (0.25, 0.4pi)"):
        results = {}
        for init in ("neel", "polarized"):
            config = RunConfig(
                rows=1, cols=1, epsilons=(0.25,), phis=(0.4 * np.pi,), cycles=30,
                backend="exact", seed=SEED, initial_state=init,
                full_correlations=False, shots=0,
            )
            clean = run_point(config, 0.25, 0.4 * np.pi).clean
            results[init] = abs(phase_order_params(clean.delta)[1])
        assert results["polarized"] > results["neel"]


def test_criterion_11_consistency_identities():
    with criterion(11, "Hamming mean and variance match Delta and QFI"):
        shots = 100_000
        lattice = build_lattice(1, 1)
        n = lattice.n_qubits
        cycle = build_cycle(
            lattice, sample_disorder(lattice, SEED), FloquetParams(DTC_EPS, DTC_PHI)
        )
        s0 = neel_state(lattice)
        sv = StateVector.from_product(s0)
        for t in range(1, 6):
            sv.apply_cycle(cycle)
            samples = sv.sample_bits(shots, seed=100 + t)
            dist = hamming_distribution(samples, s0.spins)
            mean, var = distribution_mean_var(dist)

            z, zz = sv.zz_matrix()
            mu_predicted = 0.5 * n * (1.0 - delta(z, s0.spins))
            assert abs(mean - mu_predicted) < 6 * np.sqrt(max(var, 1e-12) / shots)

            sigma_predicted = qfi(z, zz, s0.spins)
            d = hamming_distances(samples, s0.spins)
            m4 = np.mean((d - mean) ** 4)
            se_var = np.sqrt(max(m4 - var**2, 1e-12) / shots)
            assert abs(var - sigma_predicted) < 6 * se_var
