import hashlib

import numpy as np
import pytest

from dtc2d.circuit import neel_state
from dtc2d.lattice import build_lattice
from dtc2d.noise import NoiseSpec, corrupt_bits, corrupt_zz
from dtc2d.observables import delta, hamming_distribution
from dtc2d.recovery import flip_kernel


def noisy_z(z, model, t):
    """The z half of ``corrupt_zz``, with the identity as the <ZZ> matrix."""
    z = np.asarray(z, dtype=float)
    return corrupt_zz(z, np.eye(len(z)), model, t)[0]


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(decay=1.2).build(4)
        with pytest.raises(ValueError):
            NoiseSpec(decay=0.9, bias_even=1.5).build(4)
        with pytest.raises(ValueError):
            NoiseSpec(decay=0.9, flip_cap=0.7).build(4)
        with pytest.raises(ValueError):
            NoiseSpec(decay=0.9, readout_flip=0.9).build(4)

    def test_attenuation_non_increasing(self):
        model = NoiseSpec(decay=0.95).build(3)
        f = np.array([model.attenuation(t) for t in range(20)])
        assert np.all(np.diff(f, axis=0) <= 0)
        assert np.all(f >= 0) and np.all(f <= 1)

    def test_bias_has_period_two(self):
        model = NoiseSpec(decay=0.9, bias_even=0.02, bias_odd=-0.01).build(3)
        for t in range(6):
            np.testing.assert_array_equal(model.bias(t), model.bias(t + 2))

    def test_flip_schedule(self):
        model = NoiseSpec(decay=1.0, flip_slope=0.02, flip_cap=0.3).build(3)
        assert model.flip_probability(0) == 0.0
        assert model.flip_probability(5) == pytest.approx(0.1)
        assert model.flip_probability(100) == 0.3

    @pytest.mark.parametrize("kind", ["uniform", "mismatched"])
    def test_spec_keeps_the_flip_cap(self, kind):
        model = NoiseSpec(kind=kind, flip_slope=0.5, flip_cap=0.1).build(12)
        assert model.flip_probability(3) == 0.1

    @pytest.mark.parametrize("scale", [1.02, -0.01, float("nan")])
    def test_bias_scale_checked_before_the_draws(self, scale):
        # on one qubit, seed 3 draws biases inside [-1, 1] even at scale 1.02;
        # the check must not depend on what the lattice happens to draw
        spec = NoiseSpec(kind="mismatched", seed=3, bias_scale=scale)
        with pytest.raises(ValueError, match="bias_scale"):
            spec.build(1)


# sha256 of (decay, bias_even, bias_odd) as built on the lattice's Neel
# state before NoiseSpec.build made its models itself; pins the expressions
# and the order of the draws (decay, then bias_even, then bias_odd)
PINNED_MODELS = {
    "benchmark-uniform-12": (
        dict(kind="uniform", decay=0.97, bias_even=0.03, bias_odd=-0.03,
             align_bias_with_initial=True, flip_slope=0.01),
        (1, 1),
        "37b2e1c1bf70a9c41396d058bb7a5b87a160122607c2cb1345522c0142b62b49",
        "aa0f7417b48091c44e3bd893808b6936abe6aaef31625b7735c6bd170d49c42c",
        "e59cf7a6584f0a523c4ae48d4f17b323e4a47c2ee9b79061540f3051f6e5df8e",
    ),
    "mismatched-12": (
        dict(kind="mismatched", seed=5, readout_flip=0.01),
        (1, 1),
        "a8bada3f68e7d82d29865c09e7c021c03f1433dafe0fda859843e32791ba1c3d",
        "875834b324ee41cd04f883e22b99f425d0bd16ea0aba8dbb648cc41e67bc8f93",
        "0d2c1bd2a9a4a97539e7262d210271eae5db4c43ef23b3699a52008f436210da",
    ),
    "mismatched-35": (
        dict(kind="mismatched", seed=5, readout_flip=0.01),
        (2, 2),
        "f46ff31aea6067d01d689b97768548523c9e5b6554f57156a71245557da5c74f",
        "c5c992773fb0826f7f37e22540cee4259c856dfc521595149b7b9a937c215677",
        "53e1bb4573af6b1aea3b3c9b7cb0ba6b4af46a4f3e8ce2cee57633ed9581bf5b",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_MODELS))
def test_built_models_are_pinned(case):
    fields, shape, *digests = PINNED_MODELS[case]
    lattice = build_lattice(*shape)
    n = lattice.n_qubits
    model = NoiseSpec(**fields).build(n, neel_state(lattice).spins)
    arrays = (model.decay, model.bias_even, model.bias_odd)
    assert all(a.dtype == np.float64 and a.shape == (n,) for a in arrays)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == digests
    assert (model.flip_slope, model.flip_cap) == (fields.get("flip_slope", 0.0), 0.5)
    assert model.readout_flip == fields.get("readout_flip", 0.0)


class TestCorruptExpectations:
    def test_identity_when_noiseless(self):
        model = NoiseSpec(decay=1.0).build(4)
        z = np.array([0.3, -0.7, 1.0, 0.0])
        np.testing.assert_array_equal(noisy_z(z, model, 5), z)

    def test_infinite_temperature_limit(self):
        model = NoiseSpec(decay=0.0).build(4)
        z = np.array([0.3, -0.7, 1.0, 0.0])
        np.testing.assert_array_equal(noisy_z(z, model, 1), np.zeros(4))

    def test_clamped(self):
        model = NoiseSpec(decay=1.0, bias_even=0.5).build(2)
        noisy = noisy_z(np.array([0.9, -0.2]), model, 0)
        assert noisy[0] == 1.0

    def test_decay_with_parity_offsets(self):
        # noisy Delta decays while the noiseless value persists
        n = 10
        s0 = np.ones(n)
        model = NoiseSpec(decay=0.97, bias_even=0.02, bias_odd=-0.01).build(n, s0)
        clean = np.ones(n) * 0.95
        values = [delta(noisy_z(clean, model, t), s0) for t in range(40)]
        assert values[0] > values[10] > values[30]
        assert abs(values[30] - (0.97**30 * 0.95 + 0.02)) < 1e-12

    def test_averaging_commutes_for_uniform_attenuation(self):
        rng = np.random.default_rng(0)
        n = 12
        s0 = rng.choice([-1, 1], size=n)
        model = NoiseSpec(decay=0.9, bias_even=0.03, bias_odd=-0.02).build(n, s0)
        z = rng.uniform(-0.5, 0.5, size=n)
        t = 4
        lhs = delta(noisy_z(z, model, t), s0)
        bias_avg = float(np.mean(s0 * model.bias(t)))
        rhs = 0.9**t * delta(z, s0) + bias_avg
        assert abs(lhs - rhs) < 1e-14

    def test_length_mismatch(self):
        model = NoiseSpec(decay=0.9).build(3)
        with pytest.raises(ValueError):
            noisy_z(np.zeros(4), model, 0)


class TestCorruptCorrelators:
    @pytest.mark.parametrize("t", [0, 3])
    def test_matches_per_pair_formula(self, t):
        n = 7
        rng = np.random.default_rng(4)
        model = NoiseSpec(kind="mismatched", seed=5, bias_scale=0.2).build(n)
        z = rng.uniform(-1, 1, size=n)
        zz = rng.uniform(-1, 1, size=(n, n))
        zz = (zz + zz.T) / 2
        np.fill_diagonal(zz, 1.0)
        f, b = model.attenuation(t), model.bias(t)
        # the formula at (i, j) with i < j, mirrored; the diagonal stays 1
        expected = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                value = (
                    f[i] * f[j] * zz[i, j]
                    + f[i] * b[j] * z[i]
                    + f[j] * b[i] * z[j]
                    + b[i] * b[j]
                )
                expected[i, j] = expected[j, i] = np.clip(value, -1.0, 1.0)
        z_out, zz_out = corrupt_zz(z, zz, model, t)
        np.testing.assert_array_equal(zz_out, expected)
        np.testing.assert_array_equal(z_out, np.clip(f * z + b, -1.0, 1.0))

    def test_clamped(self):
        model = NoiseSpec(decay=1.0, bias_even=0.5).build(2)
        zz = np.array([[1.0, 0.9], [0.9, 1.0]])
        noisy = corrupt_zz(np.array([0.9, 0.9]), zz, model, 0)[1]
        np.testing.assert_array_equal(noisy, np.ones((2, 2)))


class TestCorruptBits:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 2, size=(50, 8)).astype(np.uint8)
        model = NoiseSpec(decay=1.0).build(8)
        np.testing.assert_array_equal(corrupt_bits(samples, model, 3, rng), samples)

    def test_full_depolarization(self):
        # p = 1/2 turns a point mass into Binomial(N, 1/2)
        n, shots = 10, 200_000
        samples = np.zeros((shots, n), dtype=np.uint8)
        model = NoiseSpec(decay=1.0, flip_slope=1.0, flip_cap=0.5).build(n)
        rng = np.random.default_rng(2)
        noisy = corrupt_bits(samples, model, t=10, rng=rng)
        rate = noisy.mean()
        assert abs(rate - 0.5) < 6 * 0.5 / np.sqrt(shots * n)

    def test_marginal_flip_rate(self):
        n, shots, p = 7, 100_000, 0.13
        samples = np.zeros((shots, n), dtype=np.uint8)
        model = NoiseSpec(decay=1.0, flip_slope=p, flip_cap=0.5).build(n)
        rng = np.random.default_rng(3)
        noisy = corrupt_bits(samples, model, t=1, rng=rng)
        sigma = np.sqrt(p * (1 - p) / (shots * n))
        assert abs(noisy.mean() - p) < 3 * sigma

    def test_point_mass_becomes_binomial(self):
        n, shots, p = 6, 100_000, 0.2
        s0 = np.ones(n, dtype=np.int64)
        samples = np.zeros((shots, n), dtype=np.uint8)
        model = NoiseSpec(decay=1.0, flip_slope=p, flip_cap=0.5).build(n)
        rng = np.random.default_rng(4)
        noisy = corrupt_bits(samples, model, t=1, rng=rng)
        dist = hamming_distribution(noisy, s0)
        from scipy.stats import binom

        expected = binom.pmf(np.arange(n + 1), n, p)
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(dist - expected) < 4 * sigma + 1e-4)

    def test_readout_flips_compose(self):
        n, shots = 5, 200_000
        samples = np.zeros((shots, n), dtype=np.uint8)
        model = NoiseSpec(decay=1.0, readout_flip=0.05).build(n)
        rng = np.random.default_rng(5)
        noisy = corrupt_bits(samples, model, t=0, rng=rng)
        assert abs(noisy.mean() - 0.05) < 3 * np.sqrt(0.05 * 0.95 / (shots * n))


class TestChannelKernelEquivalence:
    def test_histogram_matches_kernel_pushforward(self, dtc_cycle, hexagon_neel, evolve):
        # central cross-module oracle: sampling through corrupt_bits agrees
        # with applying the analytic flip kernel to the input distribution
        n, shots, p = 12, 100_000, 0.08
        sv = evolve(hexagon_neel, dtc_cycle, 3)
        samples = sv.sample_bits(shots, seed=10)
        clean_dist = hamming_distribution(samples, hexagon_neel.spins)

        model = NoiseSpec(decay=1.0, flip_slope=p, flip_cap=0.5).build(n)
        rng = np.random.default_rng(11)
        noisy = corrupt_bits(samples, model, t=1, rng=rng)
        noisy_dist = hamming_distribution(noisy, hexagon_neel.spins)

        pushed = flip_kernel(n, p) @ clean_dist
        sigma = np.sqrt(np.maximum(pushed * (1 - pushed), 1e-12) / shots)
        assert np.all(np.abs(noisy_dist - pushed) < 3 * sigma + 2e-3)
