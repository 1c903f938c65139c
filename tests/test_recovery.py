import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln, logsumexp
from scipy.stats import binom

from dtc2d import recovery
from dtc2d.config import NoiseSpec, RecoverySettings
from dtc2d.noise import corrupt_bits
from dtc2d.observables import distribution_mean_var, hamming_distribution
from dtc2d.recovery import (
    TRIAL_CURVATURE_FLOOR,
    TRIAL_LOG_WEIGHT_FLOOR,
    TrialDistribution,
    chi_ratio,
    clifford_delta,
    clifford_reference,
    deconvolve_hamming,
    delta_ratio,
    flip_kernel,
    learn_flip_schedule,
)

RIDGE, GUARD = RecoverySettings().ridge, RecoverySettings().guard
ZERO_OFFSETS = (0.0, 0.0, 0.0, 0.0)


def trial_pmf(trial: TrialDistribution, n_bits: int) -> np.ndarray:
    """The trial's normalized distribution over d = 0..n_bits."""
    log_w = trial.log_weights(n_bits)
    if not np.all(np.isfinite(log_w)):
        raise ValueError("trial distribution has no support on [0, N]")
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()


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


KNOWN_OFFSETS = np.array([0.05, -0.03, 0.02, -0.02])


def parity_offsets(offsets, t):
    """(target, reference) offset series of ``offsets`` over cycles t."""
    even = t % 2 == 0
    return np.where(even, *offsets[:2]), np.where(even, *offsets[2:])


def known_offsets_inputs(n_cycles=30):
    """(noisy, noisy_ref, exact_ref, clean) with KNOWN_OFFSETS and decay."""
    t = np.arange(n_cycles + 1)
    clean = synthetic_delta_series(n_cycles, seed=3)
    reference = clifford_delta(np.pi / 2, n_cycles)
    f = 0.96**t
    target_offset, reference_offset = parity_offsets(KNOWN_OFFSETS, t)
    return f * clean + target_offset, f * reference + reference_offset, reference, clean


def uniform_bias_chi_inputs():
    """``fit_chi`` inputs for 20 pairs with a uniform bias 0.04."""
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
    return (
        np.mean(noisy**2, axis=1),
        np.mean(noisy, axis=1),
        np.mean(noisy_ref**2, axis=1),
        np.mean(noisy_ref, axis=1),
        np.mean(zz_clean**2, axis=1),
        n_qubits,
    )


def fit_offsets(noisy_target, noisy_reference, exact_reference, delta_sim, ridge=RIDGE):
    """((d_even, d_odd, u_even, u_odd), objective) of the offset fit."""
    ratio = delta_ratio(noisy_target, noisy_reference, exact_reference)
    return ratio.fit(delta_sim, ridge, GUARD)


def fit_chi(chi_noisy, corr_noisy, chi_ref, corr_ref, chi_sim, n_qubits, ridge=RIDGE):
    """((c1, c2, c1', c2'), objective) of the chi fit."""
    ratio = chi_ratio(chi_noisy, corr_noisy, chi_ref, corr_ref, n_qubits)
    return ratio.fit(chi_sim, ridge, GUARD)


def reference_offsets_objective(
    vec, noisy_target, noisy_reference, exact_reference, delta_sim, ridge, guard=GUARD
):
    """The offset fit's objective over all four offsets, none solved for."""
    t = np.arange(len(noisy_target))
    u = np.where(t % 2 == 0, vec[2], vec[3])
    denominator = noisy_reference - u
    valid = (np.abs(denominator) >= guard) & (t >= 1)
    ratio = np.where(valid, exact_reference / np.where(valid, denominator, 1.0), 0.0)
    d = np.where(t % 2 == 0, vec[0], vec[1])
    residual = np.where(valid, delta_sim - ratio * (noisy_target - d), 0.0)
    return float(np.sum(residual**2) + ridge * np.sum(vec**2))


def reference_chi_objective(
    vec, chi_noisy, corr_noisy, chi_ref, corr_ref, chi_sim, n_qubits, ridge, guard=GUARD
):
    """The chi fit's objective over all four coefficients, on clipped chi_hat."""
    t = np.arange(len(chi_noisy))
    ratio = chi_ratio(chi_noisy, corr_noisy, chi_ref, corr_ref, n_qubits)
    recovered, flagged = ratio.apply(vec, guard)
    residual = np.where(~flagged & (t >= 1), chi_sim - recovered, 0.0)
    return float(np.sum(residual**2) + ridge * np.sum(vec**2))


def assert_profiled_minimum(objective, vec, reported):
    """The reported value is ``objective(vec)``, and a step of 1e-6 in either
    outer (denominator) parameter does not lower it."""
    at_minimum = objective(vec)
    assert reported == pytest.approx(at_minimum, rel=1e-12, abs=0)
    for i in (2, 3):
        for step in (-1e-6, 1e-6):
            moved = vec.copy()
            moved[i] += step
            assert objective(moved) >= at_minimum


class TestRenormalizeDelta:
    def test_zero_noise_zero_offsets_is_identity(self):
        clean = synthetic_delta_series(20)
        reference = clifford_delta(np.pi / 2, 20)
        recovered, flagged = delta_ratio(clean, reference, reference).apply(
            ZERO_OFFSETS, GUARD
        )
        assert not flagged.any()
        np.testing.assert_allclose(recovered, clean, atol=1e-14)

    def test_exact_inversion_under_assumed_model(self):
        n_cycles = 30
        t = np.arange(n_cycles + 1)
        clean = synthetic_delta_series(n_cycles, seed=1)
        reference = clifford_delta(np.pi / 2, n_cycles)
        f = 0.95**t
        offsets = (0.05, -0.03, 0.02, -0.02)
        target_offset, reference_offset = parity_offsets(offsets, t)
        noisy = f * clean + target_offset
        noisy_ref = f * reference + reference_offset
        ratio = delta_ratio(noisy, noisy_ref, reference)
        recovered, flagged = ratio.apply(offsets, GUARD)
        np.testing.assert_allclose(recovered[~flagged], clean[~flagged], atol=1e-10)
        assert flagged.sum() == 0

    def test_degenerate_denominator_flagged(self):
        clean = np.array([1.0, -1.0, 1.0])
        reference = clifford_delta(np.pi / 2, 2)
        noisy_ref = np.array([1.0, 1e-5, 1.0])  # near-zero after offset removal
        recovered, flagged = delta_ratio(clean, noisy_ref, reference).apply(
            ZERO_OFFSETS, 1e-3
        )
        assert flagged[1] and not flagged[0] and not flagged[2]
        assert np.all(np.abs(recovered) <= 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            delta_ratio(np.ones(3), np.ones(4), np.ones(4))


class TestLearnOffsets:
    def test_noiseless_data_gives_near_zero_offsets(self):
        n_cycles = 24
        clean = synthetic_delta_series(n_cycles, seed=2)
        reference = clifford_delta(np.pi / 2, n_cycles)
        offsets, objective = fit_offsets(clean, reference, reference, clean, ridge=1e-4)
        assert np.max(np.abs(offsets)) < 1e-3
        assert objective < 1e-5

    def test_known_offsets_recovered(self):
        noisy, noisy_ref, reference, clean = known_offsets_inputs()
        ratio = delta_ratio(noisy, noisy_ref, reference)
        learned, _ = ratio.fit(clean, 1e-4, GUARD)
        np.testing.assert_allclose(learned, KNOWN_OFFSETS, atol=1e-2)
        # recovery with the learned offsets reproduces the clean series
        recovered, flagged = ratio.apply(learned, GUARD)
        assert np.max(np.abs(recovered[~flagged] - clean[~flagged])) < 5e-3

    def test_rejects_bad_ridge(self):
        with pytest.raises(ValueError):
            fit_offsets(np.ones(4), np.ones(4), np.ones(4), np.ones(4), ridge=0.0)

    def test_objective_is_the_four_parameter_objective_at_its_minimum(self):
        inputs = known_offsets_inputs()
        learned, objective = fit_offsets(*inputs, ridge=1e-4)
        assert_profiled_minimum(
            lambda vec: reference_offsets_objective(vec, *inputs, ridge=1e-4),
            np.array(learned),
            objective,
        )


class TestRecoverChi:
    def test_zero_noise_is_identity(self):
        n_cycles = 15
        chi_clean = 0.5 + 0.4 * np.cos(np.arange(n_cycles + 1) * 0.3)
        ones = np.ones(n_cycles + 1)
        corr = 0.1 * ones
        recovered, flagged = chi_ratio(chi_clean, corr, ones, corr, n_qubits=12).apply(
            (0, 0, 0, 0), GUARD
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
        recovered, flagged = chi_ratio(chi_noisy, corr, chi_ref_noisy, corr, 12).apply(
            (0, 0, 0, 0), GUARD
        )
        np.testing.assert_allclose(recovered[~flagged], chi_clean[~flagged], atol=1e-10)

    def test_learned_coefficients_invert_uniform_bias(self):
        # uniform correlator bias eta: exact recovery needs c1 = -eta,
        # c2 = eta^2 / (N - 1); check the learner finds an equivalent fit
        chi_noisy, corr_noisy, chi_ref_noisy, corr_ref_noisy, chi_sim, n_qubits = (
            uniform_bias_chi_inputs()
        )
        ratio = chi_ratio(
            chi_noisy, corr_noisy, chi_ref_noisy, corr_ref_noisy, n_qubits
        )
        coeffs, _ = ratio.fit(chi_sim, 1e-6, GUARD)
        recovered, flagged = ratio.apply(coeffs, GUARD)
        assert np.max(np.abs(recovered[~flagged][1:] - chi_sim[~flagged][1:])) < 0.01


class TestLearnChi:
    @pytest.mark.parametrize("ridge", [0.0, -1e-4])
    def test_rejects_bad_ridge(self, ridge):
        with pytest.raises(ValueError, match="ridge must be positive"):
            fit_chi(*uniform_bias_chi_inputs(), ridge=ridge)

    def test_objective_is_the_four_parameter_objective_at_its_minimum(self):
        inputs = uniform_bias_chi_inputs()
        coeffs, objective = fit_chi(*inputs, ridge=1e-6)
        vec = np.array(coeffs)
        # the reference clips chi_hat to [-1, 1]; the profiled objective
        # does not, so they agree only where nothing is clipped
        chi_noisy, corr_noisy, chi_ref, corr_ref, _, n_qubits = inputs
        numerator = chi_noisy + 2 * vec[0] * corr_noisy + (n_qubits - 1) * vec[1]
        denominator = chi_ref + 2 * vec[2] * corr_ref + (n_qubits - 1) * vec[3]
        assert np.all(np.abs(numerator / denominator) < 1.0)
        assert_profiled_minimum(
            lambda v: reference_chi_objective(v, *inputs, ridge=1e-6),
            vec,
            objective,
        )


LEARNER_CASES = {
    "offsets": (fit_offsets, known_offsets_inputs),
    "chi": (fit_chi, uniform_bias_chi_inputs),
}


@pytest.mark.parametrize("case", sorted(LEARNER_CASES))
def test_learned_parameters_do_not_follow_the_last_bit_of_the_inputs(case):
    # a fit that stops on objective values fixes its denominator pair only
    # to about sqrt(eps); Levenberg-Marquardt steps resolve it to rounding
    learner, make_inputs = LEARNER_CASES[case]
    inputs = make_inputs()
    base = np.array(learner(*inputs)[0])
    for k in (1, 2, 3, 4, -1, -2, -3, -4):
        scale = 1 + k * 2.0**-52
        scaled = [a * scale if isinstance(a, np.ndarray) else a for a in inputs]
        moved = np.array(learner(*scaled)[0])
        assert np.max(np.abs(moved - base)) < 1e-12, k


def short_series_calls():
    """Each ratio and its fit, called with one of its series cut to one cycle."""
    offsets = known_offsets_inputs()
    chi = uniform_bias_chi_inputs()
    return {
        "delta_ratio": lambda: delta_ratio(*offsets[:2], offsets[2][:1]),
        "delta_ratio-fit": lambda: fit_offsets(*offsets[:3], offsets[3][:1]),
        "chi_ratio": lambda: chi_ratio(*chi[:2], chi[2][:1], chi[3][:1], chi[5]),
        "chi_ratio-fit": lambda: fit_chi(*chi[:4], chi[4][:1], chi[5]),
    }


@pytest.mark.parametrize("function", sorted(short_series_calls()))
def test_a_short_series_is_rejected(function):
    with pytest.raises(ValueError, match="series must share the cycle range"):
        short_series_calls()[function]()


class TestFlipKernel:
    def test_p_zero_is_identity(self):
        kernel = flip_kernel(10, 0.0)
        np.testing.assert_array_equal(kernel, np.eye(11))

    def test_p_one_reverses(self):
        kernel = flip_kernel(6, 1.0)
        np.testing.assert_array_equal(kernel, np.eye(7)[::-1])

    def test_two_bit_column(self):
        p = 0.3
        column = flip_kernel(2, p)[:, 0]
        np.testing.assert_allclose(
            column, [(1 - p) ** 2, 2 * p * (1 - p), p**2], atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 35, 144, 200])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.5])
    def test_columns_stochastic(self, n, p):
        kernel = flip_kernel(n, p)
        np.testing.assert_allclose(kernel.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(kernel >= 0)

    def test_matches_binomial_convolution_oracle(self):
        # independent construction: d_out = (d_in - X) + Y with
        # X ~ Bin(d_in, p), Y ~ Bin(N - d_in, p)
        n, p = 35, 0.1
        kernel = flip_kernel(n, p)
        for d_in in (0, 7, 20, 35):
            back = binom.pmf(np.arange(d_in + 1), d_in, p)[::-1]  # pmf of d_in - X
            forward = binom.pmf(np.arange(n - d_in + 1), n - d_in, p)
            expected = np.convolve(back, forward)
            np.testing.assert_allclose(kernel[:, d_in], expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_columns_stochastic_property(self, n, p):
        kernel = flip_kernel(n, p)
        np.testing.assert_allclose(kernel.sum(axis=0), 1.0, atol=1e-10)

    def test_invalid_inputs(self):
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                flip_kernel(5, p)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("p", [0.0, 0.013, 0.3, 0.5, 0.77, 1.0])
    def test_matches_a_sum_over_flip_patterns(self, n, p):
        # every one of the 2^N patterns of flipped spins, applied to a
        # bitstring that differs from s0 in its first d_in spins
        flips = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        chance = np.prod(np.where(flips == 1, p, 1 - p), axis=1)
        expected = np.zeros((n + 1, n + 1))
        for d_in in range(n + 1):
            d_out = (flips ^ (np.arange(n) < d_in)).sum(axis=1)
            expected[:, d_in] = np.bincount(d_out, weights=chance, minlength=n + 1)
        np.testing.assert_allclose(flip_kernel(n, p), expected, rtol=0, atol=1e-14)


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
        eigenvalues = np.linalg.eigvals(flip_kernel(n, p))
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
        matrix = flip_kernel(n, p)
        for d_in in range(n + 1):
            np.testing.assert_allclose(
                matrix[:, d_in], log_space_kernel_column(n, p, d_in), rtol=0, atol=1e-13
            )


class TestLearnFlipProbability:
    def test_exact_binomial_recovered(self):
        n, p_true = 20, 0.07
        dist = flip_kernel(n, p_true)[:, 0]
        assert abs(learn_flip_schedule(dist[None], [0])[0] - p_true) < 1e-6

    def test_point_mass_gives_zero(self):
        n = 15
        dist = np.zeros(n + 1)
        dist[0] = 1.0
        assert learn_flip_schedule(dist[None], [0])[0] < 1e-8

    def test_rejects_no_bits_and_a_d_cliff_off_the_ends(self):
        with pytest.raises(ValueError, match="one bit"):
            learn_flip_schedule(np.ones((1, 1)), [0])
        with pytest.raises(ValueError, match="d_cliff"):
            learn_flip_schedule(flip_kernel(12, 0.1)[:, 3][None], [3])

    def test_sampled_clifford_data(self):
        # closed loop at the flip point: the noiseless output alternates
        # between s0 (even t, d_cliff = 0) and its flip (odd t, d_cliff = N)
        n, shots, p_true = 35, 10_000, 0.05
        bits0 = np.zeros(n, dtype=np.uint8)  # s0 = all +1
        model = NoiseSpec(decay=1.0, flip_slope=p_true, flip_cap=0.5).build(n)
        rng = np.random.default_rng(17)
        for d_cliff in (0, n):
            clean = np.tile(bits0 if d_cliff == 0 else 1 - bits0, (shots, 1))
            noisy = corrupt_bits(clean, model, t=1, rng=rng)
            distances = np.sum(noisy != bits0[None, :], axis=1)
            dist = np.bincount(distances, minlength=n + 1) / shots
            p_hat = learn_flip_schedule(dist[None], [d_cliff])[0]
            assert abs(p_hat - p_true) < 0.005

    def test_schedule(self):
        n = 12
        dists = np.stack([flip_kernel(n, 0.02 * t)[:, 0] for t in range(5)])
        p = learn_flip_schedule(dists, np.zeros(5, dtype=int))
        np.testing.assert_allclose(p, 0.02 * np.arange(5), atol=1e-6)

    def test_equals_the_flip_fraction_of_corrupt_bits(self):
        # the reference's distance from its one noiseless bitstring counts
        # the flipped bits, readout flips included
        n, shots = 12, 500
        s0 = np.tile([1, -1], n // 2)
        bits0 = ((1 - s0) // 2).astype(np.uint8)
        model = NoiseSpec(
            decay=1.0, flip_slope=0.02, flip_cap=0.3, readout_flip=0.01
        ).build(n)
        rng = np.random.default_rng(3)
        cycles = np.arange(8)
        dists, fractions = [], []
        for t in cycles:
            clean = np.tile(bits0 ^ (t % 2), (shots, 1))
            noisy = corrupt_bits(clean, model, t, rng)
            dists.append(hamming_distribution(noisy, s0))
            fractions.append(np.mean(noisy != clean))
        schedule = learn_flip_schedule(np.array(dists), n * (cycles % 2))
        np.testing.assert_allclose(schedule, fractions, rtol=0, atol=1e-15)


class TestTrialDistribution:
    def test_normalized_and_nonnegative(self):
        trial = TrialDistribution(d0=10.0, sigma=3.0, k=0.5, q=-8.0)
        pmf = trial_pmf(trial, 35)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0)

    def test_moments(self):
        trial = TrialDistribution(d0=6.0, sigma=2.0, k=0.0, q=-30.0)
        mean, var = distribution_mean_var(trial_pmf(trial, 30))
        assert abs(mean - 6.0) < 0.05
        assert abs(var - 4.0) < 0.2

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            trial_pmf(TrialDistribution(5.0, 0.0, 0.0, 0.0), 10)

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
        np.testing.assert_array_equal(trial_pmf(trial, 12), expected)

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
            trial_pmf(trial, n), weights / weights.sum(), rtol=0, atol=1e-12
        )


@functools.cache
def sampled_deconvolution_inputs() -> list:
    """20 ((noisy, p, mu, var), N) from random trials, 2000 shots each."""
    rng = np.random.default_rng(2024)
    inputs = []
    for case in range(20):
        n = (12, 35)[case % 2]
        truth = TrialDistribution(
            d0=rng.uniform(0, n),
            sigma=rng.uniform(1.0, n / 2),
            k=rng.uniform(-1, 1),
            q=rng.uniform(-12, 4),
        )
        p = rng.uniform(0.005, 0.1)
        clean = trial_pmf(truth, n)
        noisy = rng.multinomial(2000, flip_kernel(n, p) @ clean) / 2000
        inputs.append(((noisy, p, *distribution_mean_var(clean)), n))
    return inputs


# the t = 2 input of the dense12 benchmark run (1x1, 12 cycles, 2000 shots,
# config seed 7): noisy histogram, flip probability, mean and variance
# targets. Its fit once cycled in its damping until FIT_MAX_STEPS.
DENSE12_T2 = (
    np.array([0.437, 0.2805, 0.172, 0.071, 0.0295, 0.0075, 0.0025] + [0.0] * 6),
    0.020416666666666666,
    0.8427996608321953,
    1.3855069081663167,
)


class TestDescend:
    """The shared Levenberg-Marquardt loop and its stop rules."""

    @staticmethod
    def descend(residual, jacobian, x0, lower=-np.inf, upper=np.inf) -> tuple:
        """(x, steps taken) of the loop on |residual(x)|^2 from x0."""

        def profile(x):
            r = residual(x)
            return (float(r @ r), r)

        def linearize(x, state):
            return state[1], jacobian(x)

        x, _, n_steps = recovery._descend(
            profile, linearize, np.array(x0, dtype=float), lower, upper
        )
        return x, n_steps

    def test_a_plateau_ends_within_the_stall_window(self):
        # every step is taken (the objective does not rise) and none gains
        _, n_steps = self.descend(lambda x: np.ones(1), lambda x: np.ones((1, 1)), [0.0])
        assert n_steps == recovery.FIT_STALL_STEPS

    def test_a_steady_descent_runs_to_the_cap(self):
        # each step adds about 1 to x and lowers the objective by e^-2
        x, n_steps = self.descend(
            lambda x: np.exp(-x), lambda x: -np.exp(-x)[:, None], [0.0]
        )
        assert n_steps == recovery.FIT_MAX_STEPS
        assert x[0] == pytest.approx(recovery.FIT_MAX_STEPS, rel=1e-2)

    def test_a_start_held_on_its_bound_takes_no_step(self):
        # the gradient of (x - 2)^2 pushes x = 1 out through its upper bound
        x, n_steps = self.descend(
            lambda x: x - 2.0, lambda x: np.ones((1, 1)), [1.0], upper=np.array([1.0])
        )
        assert n_steps == 0
        assert x[0] == 1.0

    def test_two_residuals_converge(self):
        # Rosenbrock's valley, minimum at (1, 1)
        x, n_steps = self.descend(
            lambda x: np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)]),
            lambda x: np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]]),
            [-1.2, 1.0],
        )
        assert n_steps < recovery.FIT_MAX_STEPS
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)


class TestDeconvolveHamming:
    def test_recorded_dense12_fit_stops_before_the_step_cap(self, monkeypatch):
        trial, info = deconvolve_hamming(*DENSE12_T2)
        assert info["n_steps"] < recovery.FIT_MAX_STEPS - 1
        monkeypatch.setattr(recovery, "FIT_MAX_STEPS", 600)
        longer, longer_info = deconvolve_hamming(*DENSE12_T2)
        assert longer_info["n_steps"] == info["n_steps"]
        tv = 0.5 * np.sum(np.abs(trial_pmf(longer, 12) - trial_pmf(trial, 12)))
        assert tv <= 1e-10

    def test_pushforward_inverted_exactly(self):
        n, p = 35, 0.1
        truth = TrialDistribution(d0=12.0, sigma=3.0, k=0.8, q=-12.0)
        clean = trial_pmf(truth, n)
        noisy = flip_kernel(n, p) @ clean
        mu, var = distribution_mean_var(trial_pmf(truth, n))
        fitted, info = deconvolve_hamming(noisy, p, mu, var)
        tv = 0.5 * np.sum(np.abs(trial_pmf(fitted, n) - clean))
        assert tv < 0.02

    def test_p_zero_reduces_to_direct_fit(self):
        n = 20
        truth = TrialDistribution(d0=8.0, sigma=2.5, k=0.0, q=-15.0)
        clean = trial_pmf(truth, n)
        mu, var = distribution_mean_var(trial_pmf(truth, n))
        fitted, _ = deconvolve_hamming(clean, 0.0, mu, var)
        tv = 0.5 * np.sum(np.abs(trial_pmf(fitted, n) - clean))
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
        noisy = flip_kernel(n, p) @ trial_pmf(truth, n)
        if shots:
            noisy = np.random.default_rng(123).multinomial(shots, noisy) / shots
        mu, var = distribution_mean_var(trial_pmf(truth, n))
        fitted = [
            trial_pmf(deconvolve_hamming(noisy, p, mu * scale, var)[0], n)
            for scale in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52)
        ]
        for other in fitted[1:]:
            assert 0.5 * np.sum(np.abs(other - fitted[0])) < 1e-8

    @pytest.mark.parametrize("case", range(20))
    def test_last_bits_of_sampled_inputs_do_not_move_the_fit(self, case):
        # a random trial at N = 12 or 35, pushed through the flip channel
        # and sampled with 2000 shots; scaling the histogram and both moment
        # targets by 1 + k 2^-52 leaves every choice of the fit as it was
        (noisy, p, mu, var), n = sampled_deconvolution_inputs()[case]
        fitted = trial_pmf(deconvolve_hamming(noisy, p, mu, var)[0], n)
        for k in (1, 2, 3, 4, -1, -2, -3, -4):
            scale = 1 + k * 2.0**-52
            moved = deconvolve_hamming(noisy * scale, p, mu * scale, var * scale)
            assert 0.5 * np.sum(np.abs(trial_pmf(moved[0], n) - fitted)) <= 1e-10, k

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
        trial, _ = deconvolve_hamming(flip_kernel(n, p) @ clean, p, mu, var)
        assert trial.log_weights(n).max() >= TRIAL_LOG_WEIGHT_FLOOR
        assert 0.5 * np.sum(np.abs(trial_pmf(trial, n) - clean)) < 0.01

    def test_at_bound_flags_the_curvature_bound(self):
        n, p = 12, 0.05
        interior = TrialDistribution(d0=5.0, sigma=1.5, k=0.0, q=-20.0)
        tilt = TrialDistribution(d0=300.0, sigma=60.0, k=0.0, q=-20.0)
        for truth, on_bound in ((interior, False), (tilt, True)):
            mu, var = distribution_mean_var(trial_pmf(truth, n))
            fitted, info = deconvolve_hamming(
                flip_kernel(n, p) @ trial_pmf(truth, n), p, mu, var
            )
            assert info["at_bound"] is on_bound
            # beta = -N^2 / (2 sigma^2) sits on -TRIAL_CURVATURE_FLOOR or below it
            beta = -(n**2) / (2 * fitted.sigma**2)
            assert (beta >= -TRIAL_CURVATURE_FLOOR * (1 + 1e-12)) is on_bound

    def test_invalid_penalties(self):
        with pytest.raises(ValueError):
            deconvolve_hamming(np.ones(5) / 5, 0.1, 1.0, 1.0, lambda_mean=0.0)
