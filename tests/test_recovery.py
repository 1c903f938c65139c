import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln, logsumexp
from scipy.stats import binom

from dtc2d.noise import corrupt_bits, uniform_noise
from dtc2d.recovery import (
    TRIAL_CURVATURE_FLOOR,
    TRIAL_LOG_WEIGHT_FLOOR,
    ChiCoefficients,
    OffsetVector,
    TrialDistribution,
    clifford_delta,
    clifford_reference,
    deconvolve_hamming,
    flip_kernel,
    kernel_column,
    learn_chi_coefficients,
    learn_flip_probability,
    learn_flip_schedule,
    learn_offsets,
    recover_chi,
    renormalize_delta,
)


class TestCliffordReference:
    def test_rule(self):
        assert clifford_reference(0.1 * np.pi) == 0.0
        assert clifford_reference(0.45 * np.pi) == np.pi / 2
        assert clifford_reference(np.pi / 4) == 0.0  # boundary inclusive
        assert clifford_reference(np.pi / 4 + 1e-6) == np.pi / 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clifford_reference(-0.1)

    def test_clifford_delta(self):
        np.testing.assert_array_equal(clifford_delta(0.0, 4), np.ones(5))
        np.testing.assert_array_equal(
            clifford_delta(np.pi / 2, 4), [1, -1, 1, -1, 1]
        )


def synthetic_delta_series(n_cycles, seed=0):
    """Smoothly decaying period-doubled signal standing in for Delta(t)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_cycles + 1)
    envelope = 0.9 - 0.2 * t / n_cycles + 0.05 * rng.standard_normal(n_cycles + 1)
    return np.clip((-1.0) ** t * envelope, -1, 1)


class TestRenormalizeDelta:
    def test_zero_noise_zero_offsets_is_identity(self):
        clean = synthetic_delta_series(20)
        reference = clifford_delta(np.pi / 2, 20)
        recovered, flagged = renormalize_delta(
            clean, reference, reference, OffsetVector.zeros()
        )
        assert not flagged.any()
        np.testing.assert_allclose(recovered, clean, atol=1e-14)

    def test_exact_inversion_under_assumed_model(self):
        n_cycles = 30
        t = np.arange(n_cycles + 1)
        clean = synthetic_delta_series(n_cycles, seed=1)
        reference = clifford_delta(np.pi / 2, n_cycles)
        f = 0.95**t
        offsets = OffsetVector(0.05, -0.03, 0.02, -0.02)
        noisy = f * clean + offsets.target(t)
        noisy_ref = f * reference + offsets.reference(t)
        recovered, flagged = renormalize_delta(noisy, noisy_ref, reference, offsets)
        np.testing.assert_allclose(recovered[~flagged], clean[~flagged], atol=1e-10)
        assert flagged.sum() == 0

    def test_degenerate_denominator_flagged(self):
        clean = np.array([1.0, -1.0, 1.0])
        reference = clifford_delta(np.pi / 2, 2)
        noisy_ref = np.array([1.0, 1e-5, 1.0])  # near-zero after offset removal
        recovered, flagged = renormalize_delta(
            clean, noisy_ref, reference, OffsetVector.zeros(), guard=1e-3
        )
        assert flagged[1] and not flagged[0] and not flagged[2]
        assert np.all(np.abs(recovered) <= 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            renormalize_delta(
                np.ones(3), np.ones(4), np.ones(4), OffsetVector.zeros()
            )


class TestLearnOffsets:
    def test_noiseless_data_gives_near_zero_offsets(self):
        n_cycles = 24
        clean = synthetic_delta_series(n_cycles, seed=2)
        reference = clifford_delta(np.pi / 2, n_cycles)
        offsets, info = learn_offsets(clean, reference, reference, clean, ridge=1e-4)
        assert np.max(np.abs(offsets.as_array())) < 1e-3
        assert info["objective"] < 1e-5

    def test_known_offsets_recovered(self):
        n_cycles = 30
        t = np.arange(n_cycles + 1)
        clean = synthetic_delta_series(n_cycles, seed=3)
        reference = clifford_delta(np.pi / 2, n_cycles)
        truth = OffsetVector(0.05, -0.03, 0.02, -0.02)
        f = 0.96**t
        noisy = f * clean + truth.target(t)
        noisy_ref = f * reference + truth.reference(t)
        learned, _ = learn_offsets(noisy, noisy_ref, reference, clean, ridge=1e-4)
        np.testing.assert_allclose(
            learned.as_array(), truth.as_array(), atol=1e-2
        )
        # recovery with the learned offsets reproduces the clean series
        recovered, flagged = renormalize_delta(noisy, noisy_ref, reference, learned)
        assert np.max(np.abs(recovered[~flagged] - clean[~flagged])) < 5e-3

    def test_rejects_bad_ridge(self):
        with pytest.raises(ValueError):
            learn_offsets(np.ones(4), np.ones(4), np.ones(4), np.ones(4), ridge=0.0)


class TestRecoverChi:
    def test_zero_noise_is_identity(self):
        n_cycles = 15
        chi_clean = 0.5 + 0.4 * np.cos(np.arange(n_cycles + 1) * 0.3)
        ones = np.ones(n_cycles + 1)
        corr = 0.1 * ones
        recovered, flagged = recover_chi(
            chi_clean, corr, ones, corr, ChiCoefficients(0, 0, 0, 0), n_qubits=12
        )
        assert not flagged.any()
        np.testing.assert_allclose(recovered, chi_clean, atol=1e-12)

    def test_uniform_attenuation_cancels(self):
        n_cycles = 20
        t = np.arange(n_cycles + 1)
        chi_clean = 0.9 - 0.3 * t / n_cycles
        attenuation = 0.9**t
        chi_noisy = attenuation**2 * chi_clean
        chi_ref_noisy = attenuation**2 * 1.0
        corr = np.zeros(n_cycles + 1)
        recovered, flagged = recover_chi(
            chi_noisy, corr, chi_ref_noisy, corr, ChiCoefficients(0, 0, 0, 0), 12
        )
        np.testing.assert_allclose(recovered[~flagged], chi_clean[~flagged], atol=1e-10)

    def test_learned_coefficients_invert_uniform_bias(self):
        # uniform correlator bias eta: exact recovery needs c1 = -eta,
        # c2 = eta^2 / (N - 1); check the learner finds an equivalent fit
        rng = np.random.default_rng(5)
        n_qubits, n_cycles = 12, 30
        t = np.arange(n_cycles + 1)
        n_pairs = 20
        zz_clean = rng.uniform(-1, 1, size=(n_cycles + 1, n_pairs)) * (0.95**t)[:, None]
        zz_ref = np.ones((n_cycles + 1, n_pairs))
        attenuation = 0.93**t
        eta = 0.04
        noisy = attenuation[:, None] * zz_clean + eta
        noisy_ref = attenuation[:, None] * zz_ref + eta
        chi_noisy = np.mean(noisy**2, axis=1)
        corr_noisy = np.mean(noisy, axis=1)
        chi_ref_noisy = np.mean(noisy_ref**2, axis=1)
        corr_ref_noisy = np.mean(noisy_ref, axis=1)
        chi_sim = np.mean(zz_clean**2, axis=1)

        coeffs, info = learn_chi_coefficients(
            chi_noisy, corr_noisy, chi_ref_noisy, corr_ref_noisy,
            chi_sim, n_qubits, ridge=1e-6,
        )
        recovered, flagged = recover_chi(
            chi_noisy, corr_noisy, chi_ref_noisy, corr_ref_noisy, coeffs, n_qubits
        )
        assert np.max(np.abs(recovered[~flagged][1:] - chi_sim[~flagged][1:])) < 0.01


class TestFlipKernel:
    def test_p_zero_is_identity(self):
        kernel = flip_kernel(10, 0.0)
        np.testing.assert_array_equal(kernel.matrix, np.eye(11))

    def test_p_one_reverses(self):
        kernel = flip_kernel(6, 1.0)
        np.testing.assert_array_equal(kernel.matrix, np.eye(7)[::-1])

    def test_two_bit_column(self):
        p = 0.3
        column = kernel_column(2, p, 0)
        np.testing.assert_allclose(
            column, [(1 - p) ** 2, 2 * p * (1 - p), p**2], atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 35, 144, 200])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.5])
    def test_columns_stochastic(self, n, p):
        kernel = flip_kernel(n, p)
        np.testing.assert_allclose(kernel.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(kernel.matrix >= 0)

    def test_matches_binomial_convolution_oracle(self):
        # independent construction: d_out = (d_in - X) + Y with
        # X ~ Bin(d_in, p), Y ~ Bin(N - d_in, p)
        n, p = 35, 0.1
        kernel = flip_kernel(n, p)
        for d_in in (0, 7, 20, 35):
            back = binom.pmf(np.arange(d_in + 1), d_in, p)[::-1]  # pmf of d_in - X
            forward = binom.pmf(np.arange(n - d_in + 1), n - d_in, p)
            expected = np.convolve(back, forward)
            np.testing.assert_allclose(kernel.matrix[:, d_in], expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_columns_stochastic_property(self, n, p):
        kernel = flip_kernel(n, p)
        np.testing.assert_allclose(kernel.matrix.sum(axis=0), 1.0, atol=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kernel_column(5, 1.5, 0)
        with pytest.raises(ValueError):
            kernel_column(5, 0.1, 9)


def log_space_kernel_column(n_bits, p, d_in):
    """Reference flip-kernel column, summed term by term in log space.

    d_out = (d_in - x) + (d_out - d_in + x): x of the d_in differing spins
    flip back, d_out - d_in + x of the others flip.
    """

    def log_binomial(n, k):
        n = np.asarray(n, dtype=float)
        k = np.asarray(k, dtype=float)
        valid = (k >= 0) & (k <= n)
        safe_k = np.where(valid, k, 0.0)
        value = gammaln(n + 1) - gammaln(safe_k + 1) - gammaln(n - safe_k + 1)
        return np.where(valid, value, -np.inf)

    d = np.arange(n_bits + 1)[:, None]
    x = np.arange(n_bits + 1)[None, :]
    log_terms = (
        log_binomial(np.full_like(x, d_in), x)
        + log_binomial(np.full_like(d, n_bits - d_in), d - x)
        + (d + d_in - 2 * x) * np.log(p)
        + (n_bits + 2 * x - d - d_in) * np.log1p(-p)
    )
    return np.exp(logsumexp(log_terms, axis=1))


class TestFlipKernelOracles:
    @pytest.mark.parametrize("p", [0.03, 0.2, 0.45, 0.7])
    def test_eigenvalues_are_krawtchouk(self, p):
        # the binomial channel is diagonal in the Krawtchouk basis, with
        # eigenvalue (1 - 2p)^j on degree j
        n = 12
        eigenvalues = np.linalg.eigvals(flip_kernel(n, p).matrix)
        assert np.max(np.abs(eigenvalues.imag)) < 1e-10
        np.testing.assert_allclose(
            np.sort(eigenvalues.real),
            np.sort((1 - 2 * p) ** np.arange(n + 1)),
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.parametrize("n", [12, 35, 144])
    @pytest.mark.parametrize("p", [0.001, 0.05, 0.3, 0.5, 0.9])
    def test_matches_log_space_table(self, n, p):
        matrix = flip_kernel(n, p).matrix
        for d_in in range(n + 1):
            np.testing.assert_allclose(
                matrix[:, d_in], log_space_kernel_column(n, p, d_in), rtol=0, atol=1e-13
            )

    def test_array_of_p_gives_one_column_each(self):
        grid = np.linspace(0.0, 1.0, 11)
        columns = kernel_column(20, grid, 7)
        assert columns.shape == (11, 21)
        for row, p in zip(columns, grid):
            np.testing.assert_array_equal(row, kernel_column(20, p, 7))


class TestLearnFlipProbability:
    def test_exact_binomial_recovered(self):
        n, p_true = 20, 0.07
        dist = kernel_column(n, p_true, 0)
        assert abs(learn_flip_probability(dist, 0) - p_true) < 1e-6

    def test_point_mass_gives_zero(self):
        n = 15
        dist = np.zeros(n + 1)
        dist[0] = 1.0
        assert learn_flip_probability(dist, 0) < 1e-8

    def test_flat_objective_warns(self):
        with pytest.warns(UserWarning):
            p = learn_flip_probability(np.full(1, 1.0), 0)  # single-bin edge case
        assert p == 0.0

    def test_sampled_clifford_data(self):
        # closed loop at the flip point: the noiseless output alternates
        # between s0 (even t, d_cliff = 0) and its flip (odd t, d_cliff = N)
        n, shots, p_true = 35, 10_000, 0.05
        bits0 = np.zeros(n, dtype=np.uint8)  # s0 = all +1
        model = uniform_noise(n, decay=1.0, flip_slope=p_true, flip_cap=0.5)
        rng = np.random.default_rng(17)
        for d_cliff in (0, n):
            clean = np.tile(bits0 if d_cliff == 0 else 1 - bits0, (shots, 1))
            noisy = corrupt_bits(clean, model, t=1, rng=rng)
            distances = np.sum(noisy != bits0[None, :], axis=1)
            dist = np.bincount(distances, minlength=n + 1) / shots
            p_hat = learn_flip_probability(dist, d_cliff)
            assert abs(p_hat - p_true) < 0.005

    def test_schedule(self):
        n = 12
        dists = np.stack([kernel_column(n, 0.02 * t, 0) for t in range(5)])
        p = learn_flip_schedule(dists, np.zeros(5, dtype=int))
        np.testing.assert_allclose(p, 0.02 * np.arange(5), atol=1e-6)


class TestTrialDistribution:
    def test_normalized_and_nonnegative(self):
        trial = TrialDistribution(d0=10.0, sigma=3.0, k=0.5, q=-8.0)
        pmf = trial.pmf(35)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0)

    def test_moments(self):
        trial = TrialDistribution(d0=6.0, sigma=2.0, k=0.0, q=-30.0)
        mean, var = trial.moments(30)
        assert abs(mean - 6.0) < 0.05
        assert abs(var - 4.0) < 0.2

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            TrialDistribution(5.0, 0.0, 0.0, 0.0).pmf(10)

    @pytest.mark.parametrize(
        "trial, mode",
        [
            (TrialDistribution(d0=1e4, sigma=1.0, k=0.0, q=0.0), 12),
            (TrialDistribution(d0=-1e4, sigma=1.0, k=0.0, q=0.0), 0),
            (TrialDistribution(d0=6.0, sigma=3.0, k=1e4, q=-0.5), 0),
        ],
    )
    def test_far_parameters_give_a_point_mass(self, trial, mode):
        expected = np.zeros(13)
        expected[mode] = 1.0
        np.testing.assert_array_equal(trial.pmf(12), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-40.0, max_value=80.0),
        st.floats(min_value=0.3, max_value=30.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_pmf_matches_plain_formula(self, d0, sigma, k, q):
        n = 35
        d = np.arange(n + 1)
        weights = np.exp(-((d - d0) ** 2) / (2 * sigma**2)) * expit(-(k * d + q))
        # only where plain float64 holds every weight as a normal number
        assume(weights.max() > 1e-250)
        trial = TrialDistribution(d0, sigma, k, q)
        np.testing.assert_allclose(
            trial.pmf(n), weights / weights.sum(), rtol=0, atol=1e-12
        )


class TestDeconvolveHamming:
    def test_pushforward_inverted_exactly(self):
        n, p = 35, 0.1
        truth = TrialDistribution(d0=12.0, sigma=3.0, k=0.8, q=-12.0)
        clean = truth.pmf(n)
        noisy = flip_kernel(n, p).apply(clean)
        mu, var = truth.moments(n)
        fitted, info = deconvolve_hamming(noisy, p, mu, var)
        tv = 0.5 * np.sum(np.abs(fitted.pmf(n) - clean))
        assert tv < 0.02

    def test_p_zero_reduces_to_direct_fit(self):
        n = 20
        truth = TrialDistribution(d0=8.0, sigma=2.5, k=0.0, q=-15.0)
        clean = truth.pmf(n)
        mu, var = truth.moments(n)
        fitted, _ = deconvolve_hamming(clean, 0.0, mu, var)
        tv = 0.5 * np.sum(np.abs(fitted.pmf(n) - clean))
        assert tv < 0.01

    @pytest.mark.parametrize(
        "truth, n, p, shots",
        [
            (TrialDistribution(d0=12.0, sigma=3.0, k=0.8, q=-12.0), 35, 0.1, 0),
            # curvature above the bound: the fit ends on it
            (TrialDistribution(d0=300.0, sigma=60.0, k=0.0, q=-20.0), 12, 0.05, 0),
            (TrialDistribution(d0=300.0, sigma=60.0, k=0.0, q=-20.0), 12, 0.05, 2000),
        ],
    )
    def test_last_bit_of_mu_does_not_move_the_fit(self, truth, n, p, shots):
        noisy = flip_kernel(n, p).apply(truth.pmf(n))
        if shots:
            noisy = np.random.default_rng(123).multinomial(shots, noisy) / shots
        mu, var = truth.moments(n)
        fitted = [
            deconvolve_hamming(noisy, p, mu * scale, var)[0].pmf(n)
            for scale in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52)
        ]
        for other in fitted[1:]:
            assert 0.5 * np.sum(np.abs(other - fitted[0])) < 1e-8

    @pytest.mark.parametrize("n", [12, 35])
    @pytest.mark.parametrize("slope", [-2.5, -1.0, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_steep_tilt_keeps_weights_representable(self, n, slope, p):
        # an exponential tilt is the limit the Gaussian can only reach with
        # d0 far outside [0, N]; the reported trial must still evaluate in
        # plain floats, and fit
        d = np.arange(n + 1)
        clean = np.exp(slope * d - max(slope * d))
        clean /= clean.sum()
        mu = clean @ d
        var = clean @ d**2 - mu**2
        trial, _ = deconvolve_hamming(flip_kernel(n, p).apply(clean), p, mu, var)
        assert trial.log_weights(n).max() >= TRIAL_LOG_WEIGHT_FLOOR
        assert 0.5 * np.sum(np.abs(trial.pmf(n) - clean)) < 0.01

    def test_at_bound_flags_the_curvature_bound(self):
        n, p = 12, 0.05
        interior = TrialDistribution(d0=5.0, sigma=1.5, k=0.0, q=-20.0)
        tilt = TrialDistribution(d0=300.0, sigma=60.0, k=0.0, q=-20.0)
        for truth, on_bound in ((interior, False), (tilt, True)):
            mu, var = truth.moments(n)
            fitted, info = deconvolve_hamming(
                flip_kernel(n, p).apply(truth.pmf(n)), p, mu, var
            )
            assert info["at_bound"] is on_bound
            # beta = -N^2 / (2 sigma^2) sits on -TRIAL_CURVATURE_FLOOR or below it
            beta = -(n**2) / (2 * fitted.sigma**2)
            assert (beta >= -TRIAL_CURVATURE_FLOOR * (1 + 1e-12)) is on_bound

    def test_invalid_penalties(self):
        with pytest.raises(ValueError):
            deconvolve_hamming(np.ones(5) / 5, 0.1, 1.0, 1.0, lambda_mean=0.0)
