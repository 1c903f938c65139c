import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtc2d.exact import StateVector
from dtc2d.observables import (
    chi,
    chi_from_matrix,
    correlator_average,
    delta,
    distribution_mean_var,
    fourier_spectrum,
    hamming_distances,
    hamming_distribution,
    hamming_mean_from_delta,
    phase_order_params,
    qfi,
)


class TestDelta:
    def test_initial_product_state(self):
        s0 = np.array([1, -1, 1, -1, -1])
        assert delta(s0.astype(float), s0) == 1.0

    def test_flip_sequence(self):
        s0 = np.array([1, -1, 1])
        for t in range(6):
            z = (-1.0) ** t * s0
            assert delta(z, s0) == (-1.0) ** t

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            delta(np.ones(3), np.ones(4))


class TestChi:
    def test_neel_nearest_neighbors(self):
        assert chi(np.array([-1.0, -1.0, -1.0])) == 1.0

    def test_uncorrelated(self):
        assert chi(np.zeros(5)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi(np.array([]))

    def test_from_matrix_excludes_diagonal(self):
        zz = np.eye(3)
        assert chi_from_matrix(zz) == 0.0

    def test_correlator_average(self):
        assert correlator_average(np.array([0.5, -0.5, 1.0])) == pytest.approx(1 / 3)


class TestPhaseOrderParams:
    def test_flip_point(self):
        s0 = np.array([1, -1, 1, -1])
        z = np.array([(-1.0) ** t * s0 for t in range(11)])
        delta_mbl, delta_dtc = phase_order_params([delta(zt, s0) for zt in z])
        assert delta_mbl == pytest.approx(1.0, abs=1e-12)
        assert delta_dtc == pytest.approx(1.0, abs=1e-12)

    def test_glass_point_odd_horizon(self):
        # T odd: the alternating sum cancels exactly
        s0 = np.array([1, -1, 1, -1])
        z = np.array([s0.astype(float) for _ in range(10)])  # t = 0..9
        delta_mbl, delta_dtc = phase_order_params([delta(zt, s0) for zt in z])
        assert delta_mbl == pytest.approx(1.0, abs=1e-12)
        assert delta_dtc == pytest.approx(0.0, abs=1e-12)

    def test_glass_point_even_horizon(self):
        s0 = np.array([1, 1])
        z = np.array([s0.astype(float) for _ in range(11)])  # t = 0..10
        _, delta_dtc = phase_order_params([delta(zt, s0) for zt in z])
        assert delta_dtc == pytest.approx(1.0 / 11.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=20),
        st.integers(0, 2**31 - 1),
    )
    def test_dtc_bounded_by_mbl(self, n, cycles, seed):
        rng = np.random.default_rng(seed)
        s0 = rng.choice([-1, 1], size=n)
        z = rng.uniform(-1, 1, size=(cycles + 1, n))
        delta_mbl, delta_dtc = phase_order_params([delta(zt, s0) for zt in z])
        assert abs(delta_dtc) <= delta_mbl + 1e-12


class TestHamming:
    def test_identical_samples(self):
        s0 = np.array([1, -1, 1, 1])
        samples = np.tile((1 - s0) // 2, (20, 1)).astype(np.uint8)
        dist = hamming_distribution(samples, s0)
        assert dist[0] == 1.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fully_flipped(self):
        s0 = np.array([1, -1, 1, 1])
        samples = np.tile((1 + s0) // 2, (20, 1)).astype(np.uint8)
        dist = hamming_distribution(samples, s0)
        assert dist[4] == 1.0

    def test_distances(self):
        s0 = np.array([1, 1, 1])
        samples = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(hamming_distances(samples, s0), [0, 1, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hamming_distribution(np.empty((0, 3), dtype=np.uint8), np.ones(3))

    def test_mean_matches_delta(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 3)
        shots = 50_000
        samples = sv.sample_bits(shots, seed=4)
        dist = hamming_distribution(samples, hexagon_neel.spins)
        mean, _ = distribution_mean_var(dist)
        predicted = hamming_mean_from_delta(
            12, delta(sv.zz_matrix()[0], hexagon_neel.spins)
        )
        assert abs(mean - predicted) < 5 * np.sqrt(12) / np.sqrt(shots)


class TestQFI:
    def test_product_state_has_no_correlations(self):
        s0 = np.array([1, -1, 1, -1])
        z = s0.astype(float)
        zz = np.outer(z, z)
        np.fill_diagonal(zz, 1.0)
        assert qfi(z, zz, s0) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_scaling(self):
        # oracle: evaluate the connected correlators on the 2-amplitude state
        n = 6
        amplitudes = np.zeros(2**n, dtype=complex)
        amplitudes[0] = amplitudes[-1] = 1 / np.sqrt(2)
        sv = StateVector(amplitudes, n)
        value = qfi(*sv.zz_matrix(), np.ones(n))
        assert value == pytest.approx(n**2 / 4.0, abs=1e-12)

    def test_variance_of_hamming_distribution(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 2)
        sigma = qfi(*sv.zz_matrix(), hexagon_neel.spins)
        samples = sv.sample_bits(100_000, seed=6)
        d = hamming_distances(samples, hexagon_neel.spins)
        assert abs(np.var(d) - sigma) < 6 * np.var(d) * np.sqrt(2.0 / len(d)) + 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qfi(np.ones(3), np.eye(4), np.ones(3))


class TestFourier:
    def test_alternating_peaks_at_pi(self):
        series = (-1.0) ** np.arange(32)
        omega, mag = fourier_spectrum(series)
        assert omega[np.argmax(mag)] == pytest.approx(np.pi)

    def test_constant_peaks_at_zero(self):
        omega, mag = fourier_spectrum(np.ones(32))
        assert omega[np.argmax(mag)] == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fourier_spectrum(np.ones(3))

    def test_frequency_grid(self):
        omega, mag = fourier_spectrum(np.ones(10))
        assert len(omega) == 6
        assert omega[-1] == pytest.approx(np.pi)
