import tracemalloc

import numpy as np
import pytest

from dtc2d import exact
from dtc2d.circuit import (
    FloquetParams,
    GateSequence,
    ProductState,
    build_cycle,
    initial_state,
    sample_disorder,
    x_kick_gate,
    xxz_gate,
)
from dtc2d.exact import MAX_QUBITS, CapacityError, StateVector
from dtc2d.lattice import build_lattice
from dtc2d.observables import delta

# frozen regression value: 12-qubit hexagon, seed 7, (eps, phi) = (0.05, 0.45*pi)
DELTA_AFTER_TWO_CYCLES = 0.8595941640686902


def dense_1q(n, qubit, gate):
    """Oracle: full 2^n x 2^n matrix of a single-qubit gate (qubit 0 = LSB)."""
    full = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        full = np.kron(full, gate if q == qubit else np.eye(2))
    return full


def random_state(n, seed):
    """Normalized random state whose qubits carry unequal, correlated <Z>."""
    rng = np.random.default_rng(seed)
    index = np.arange(2**n)
    log_weight = sum(c * ((index >> q) & 1) for q, c in enumerate(rng.uniform(-1, 1, n)))
    psi = np.exp(log_weight / 2) * (rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    return psi / np.linalg.norm(psi)


def einsum_2q(psi, n, qubit_a, qubit_b, gate):
    """Reference: contract a 4x4 gate into the (2,)*n tensor (axis n-1-q = qubit q)."""
    tensor = psi.reshape((2,) * n)
    letters = "abcdefghijklmnopqrstuvwxyz"[:n]
    ax_a, ax_b = n - 1 - qubit_a, n - 1 - qubit_b
    out = list(letters)
    out[ax_a], out[ax_b] = "A", "B"
    spec = f"AB{letters[ax_a]}{letters[ax_b]},{letters}->{''.join(out)}"
    return np.einsum(spec, gate.reshape(2, 2, 2, 2), tensor).reshape(-1)


def partly_mixed_gate(mixed, seed):
    """A random unitary on the pair states in ``mixed``, unequal phases on the others."""
    rng = np.random.default_rng(seed)
    m = len(mixed)
    block, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    gate = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    gate[np.ix_(mixed, mixed)] = block
    return gate


def direct_marginals(probs, n):
    """<Z_i> and <Z_i Z_j> by summing the probability array over the other qubits."""
    z = np.empty(n)
    zz = np.eye(n)
    for i in range(n):
        p = probs.reshape(-1, 2, 2**i)
        signed = (p[:, 0] - p[:, 1]).reshape(-1)  # weighted by Z_i, qubit i summed out
        z[i] = signed.sum()
        for j in range(i + 1, n):  # qubit j is now bit j - 1
            p_j = signed.reshape(-1, 2, 2 ** (j - 1)).sum(axis=(0, 2))
            zz[i, j] = zz[j, i] = p_j[0] - p_j[1]
    return z, zz


def dense_2q(n, qubit_a, qubit_b, gate):
    """Oracle: explicit matrix elements <out|U|in> of a two-qubit gate."""
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        ia = (col >> qubit_a) & 1
        ib = (col >> qubit_b) & 1
        base = col & ~(1 << qubit_a) & ~(1 << qubit_b)
        for oa in (0, 1):
            for ob in (0, 1):
                row = base | (oa << qubit_a) | (ob << qubit_b)
                full[row, col] = gate[2 * oa + ob, 2 * ia + ib]
    return full


class TestInit:
    def test_all_up_is_index_zero(self):
        sv = StateVector.from_product(ProductState(spins=np.array([1, 1, 1])))
        assert sv.amplitudes[0] == 1.0
        assert np.sum(np.abs(sv.amplitudes)) == 1.0

    def test_bit_encoding(self):
        sv = StateVector.from_product(ProductState(spins=np.array([1, -1, 1])))
        assert sv.amplitudes[0b010] == 1.0

    def test_norm_one(self):
        rng = np.random.default_rng(0)
        spins = rng.choice([-1, 1], size=10)
        sv = StateVector.from_product(ProductState(spins=spins))
        assert abs(sv.norm() - 1.0) < 1e-15

    def test_capacity_cap(self):
        spins = np.ones(MAX_QUBITS + 1, dtype=np.int64)
        with pytest.raises(CapacityError):
            StateVector.from_product(ProductState(spins=spins))

    def test_encoding_roundtrip(self):
        rng = np.random.default_rng(3)
        spins = rng.choice([-1, 1], size=8)
        sv = StateVector.from_product(ProductState(spins=spins))
        np.testing.assert_array_equal(sv.zz_matrix()[0], spins)


class TestGateApplication:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_against_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        sv = StateVector(psi.copy(), n)
        reference = psi.copy()
        for _ in range(5):
            q = int(rng.integers(n))
            gate = x_kick_gate(rng.uniform(0, np.pi / 2))
            sv._apply_block(q, gate)
            reference = dense_1q(n, q, gate) @ reference
            a, b = rng.choice(n, size=2, replace=False)
            gate2 = xxz_gate(rng.uniform(0.5, 1.5), rng.uniform(0, 1))
            sv.apply_2q(int(a), int(b), gate2)
            reference = dense_2q(n, int(a), int(b), gate2) @ reference
        assert np.max(np.abs(sv.amplitudes - reference)) < 1e-10

    def test_generic_2q_oracle(self):
        # non-symmetric gate catches qubit-ordering mistakes
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gate, _ = np.linalg.qr(m)
        psi = rng.normal(size=2**3) + 1j * rng.normal(size=2**3)
        psi /= np.linalg.norm(psi)
        sv = StateVector(psi.copy(), 3)
        sv.apply_2q(2, 0, gate)
        expected = dense_2q(3, 2, 0, gate) @ psi
        assert np.max(np.abs(sv.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("mixed", [(0, 1, 2, 3), (0, 2, 3)])
    @pytest.mark.parametrize(
        "qubit_a, qubit_b",
        # far and adjacent pairs, high and low; on the low ones the quarter
        # views loop over the shortest rows
        [(3, 4), (4, 3), (1, 6), (6, 1), (0, 6), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3)],
    )
    def test_gate_against_einsum(self, qubit_a, qubit_b, mixed):
        # a unitary on the pair states in `mixed`, a phase on the others;
        # a dense one takes the general path, where every pair state mixes
        n = 7
        gate = partly_mixed_gate(mixed, seed=10 * qubit_a + qubit_b)
        psi = random_state(n, seed=qubit_a)
        sv = StateVector(psi, n)
        sv.apply_2q(qubit_a, qubit_b, gate)
        expected = einsum_2q(psi, n, qubit_a, qubit_b, gate)
        assert np.max(np.abs(sv.amplitudes - expected)) < 1e-12

    def test_grouped_kick_matches_per_qubit_kicks(self):
        # 13 qubits: the last kick pass covers 3 qubits, not 5
        n = 13
        kick = x_kick_gate(0.37)
        psi = random_state(n, seed=4)
        grouped = StateVector(psi, n)
        grouped.apply_cycle(GateSequence(n_qubits=n, kick=kick, layers=()))
        single = StateVector(psi, n)
        for q in range(n):
            single._apply_block(q, kick)
        assert np.max(np.abs(grouped.amplitudes - single.amplitudes)) < 1e-12

    def test_cycle_against_gate_by_gate_einsum(self):
        # apply_cycle divides each gate by its |00> entry and puts the product
        # back once; these gates have unequal |00> and |11> entries, a mixed
        # |00> or, for X(x)X, a zero one
        n = 7
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        g = [partly_mixed_gate((1, 2), seed=s) for s in range(3)]
        layers = (
            ((0, 1, g[0]), (2, 5, g[1]), (4, 3, partly_mixed_gate((0, 1, 2, 3), seed=3))),
            ((2, 1, np.kron(x, x)), (6, 0, xxz_gate(1.1, 0.2))),
            ((5, 4, partly_mixed_gate((0, 2, 3), seed=4)), (3, 6, g[2])),
        )
        kick = x_kick_gate(0.37)
        psi = random_state(n, seed=8)
        sv = StateVector(psi, n)
        sv.apply_cycle(GateSequence(n_qubits=n, kick=kick, layers=layers))
        expected = psi
        for q in range(n):
            expected = dense_1q(n, q, kick) @ expected
        for layer in layers:
            for a, b, gate in layer:
                expected = einsum_2q(expected, n, a, b, gate)
        assert np.max(np.abs(sv.amplitudes - expected)) < 1e-12

    def test_random_cycle_against_gate_by_gate_einsum(self):
        # 13 qubits: gates of every span 1..12 at random places and in both
        # qubit orders, so that the plan fuses some into blocks and leaves
        # those wider than a block to themselves
        n = 13
        rng = np.random.default_rng(21)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        kinds = [
            partly_mixed_gate((1, 2), seed=5),  # unequal |00> and |11> entries
            partly_mixed_gate((0, 1, 2, 3), seed=6),  # a mixed |00>
            np.kron(x, x),  # a zero |00> entry
            xxz_gate(0.8, 0.3),
        ]
        layers = []
        for k, span in enumerate(np.repeat(np.arange(1, n), 2)):
            lo = int(rng.integers(n - span))
            pair = (lo, lo + span) if k % 2 else (lo + span, lo)
            gate = (*pair, kinds[k % len(kinds)])
            for layer in layers:
                if not {q for a, b, _ in layer for q in (a, b)} & set(pair):
                    layer.append(gate)
                    break
            else:
                layers.append([gate])
        kick = x_kick_gate(0.37)
        psi = random_state(n, seed=9)
        sv = StateVector(psi, n)
        sv.apply_cycle(GateSequence(n_qubits=n, kick=kick, layers=tuple(map(tuple, layers))))
        reference = StateVector(psi, n)
        for q in range(n):
            reference._apply_block(q, kick)
        expected = reference.amplitudes
        for layer in layers:
            for a, b, gate in layer:
                expected = einsum_2q(expected, n, a, b, gate)
        assert np.max(np.abs(sv.amplitudes - expected)) < 1e-12

    def test_1x2_cycle_runs_in_13_passes(self, monkeypatch):
        lattice = build_lattice(1, 2)
        params = FloquetParams(0.05, 0.45 * np.pi)
        cycle = build_cycle(lattice, sample_disorder(lattice, seed=7), params)
        sv = StateVector.from_product(initial_state(lattice, "neel"))
        passes = []

        def counted(method):
            def wrapper(self, *args):
                if self is sv:  # not the small states that build the blocks
                    passes.append(method.__name__)
                return method(self, *args)

            return wrapper

        for name in ("_apply_block", "apply_2q"):
            monkeypatch.setattr(StateVector, name, counted(getattr(StateVector, name)))
        sv.apply_cycle(cycle)
        # 27 when the kick went in 5 passes and each of the 22 gates in one
        assert len(passes) <= 13

    def test_plan_compiles_once_per_cycle(self, monkeypatch, hexagon, dtc_cycle, hexagon_neel):
        compiled = []

        def recording(cycle):
            compiled.append(cycle)
            return compile_cycle(cycle)

        compile_cycle = exact._compile
        monkeypatch.setattr(exact, "_compile", recording)
        sv = StateVector.from_product(hexagon_neel)
        sv.apply_cycle(dtc_cycle)
        sv.apply_cycle(dtc_cycle)
        assert compiled == [dtc_cycle]
        other = build_cycle(hexagon, sample_disorder(hexagon, seed=1), FloquetParams(0.1, 0.3))
        sv.apply_cycle(other)
        assert compiled == [dtc_cycle, other]

    def test_index_bounds(self):
        sv = StateVector.from_product(ProductState(spins=np.array([1, 1])))
        with pytest.raises(IndexError):
            sv.apply_2q(0, 2, np.eye(4))
        with pytest.raises(ValueError):
            sv.apply_2q(0, 0, np.eye(4))


class TestInPlacePasses:
    def test_1x2_cycle_and_read_hold_no_full_size_spare(self):
        # 21 qubits: the state is 32 MB and the one buffer 512 KB, so a second
        # state-sized array anywhere in a pass or in the read would show
        lattice = build_lattice(1, 2)
        params = FloquetParams(0.05, 0.45 * np.pi)
        cycle = build_cycle(lattice, sample_disorder(lattice, seed=7), params)
        tracemalloc.start()
        try:
            sv = StateVector.from_product(initial_state(lattice, "neel"))
            sv.apply_cycle(cycle)
            sv.zz_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.125 * sv.amplitudes.nbytes

    @pytest.mark.parametrize("n", [10, 11])
    def test_small_chunks_match_one_chunk(self, monkeypatch, n):
        # at 8 entries a chunk every pass splits: 32x32 blocks at the bottom,
        # middle and top, one-qubit blocks, wide gates reaching qubit 0 and
        # qubit n - 1, and the table's row blocks; at the default size each
        # pass on n <= 15 qubits is one chunk
        rng = np.random.default_rng(n)
        blocks = [(q0, partly_mixed_gate((0, 1), seed=q0)[:2, :2]) for q0 in (0, n - 1)]
        for q0 in (0, n // 2 - 2, n - 5):
            m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            blocks.append((q0, np.linalg.qr(m)[0]))
        gates = [
            (0, 7, partly_mixed_gate((0, 1, 2, 3), seed=1)),
            (n - 1, 3, partly_mixed_gate((1, 2), seed=2)),
            (n - 1, 0, partly_mixed_gate((0, 2, 3), seed=3)),
            (0, n - 1, xxz_gate(0.8, 0.3)),
        ]

        def run():
            sv = StateVector(random_state(n, seed=n), n)
            for q0, block in blocks:
                sv._apply_block(q0, block)
            for a, b, gate in gates:
                sv.apply_2q(a, b, gate)
            return (sv.amplitudes, *sv.zz_matrix())

        one_chunk = run()
        monkeypatch.setattr(exact, "_CHUNK", 8)
        for whole, chunked in zip(one_chunk, run()):
            assert np.max(np.abs(chunked - whole)) < 1e-13

    def test_small_chunks_match_one_chunk_over_a_cycle(
        self, monkeypatch, dtc_cycle, hexagon_neel
    ):
        def run():
            sv = StateVector.from_product(hexagon_neel)
            sv.apply_cycle(dtc_cycle)
            return (sv.amplitudes, *sv.zz_matrix())

        one_chunk = run()
        monkeypatch.setattr(exact, "_CHUNK", 8)
        for whole, chunked in zip(one_chunk, run()):
            assert np.max(np.abs(chunked - whole)) < 1e-13


class TestCycle:
    def test_perfect_flip_maps_neel_to_antineel(self, hexagon, evolve):
        s0 = initial_state(hexagon, "neel")
        disorder = sample_disorder(hexagon, seed=1)
        cycle = build_cycle(hexagon, disorder, FloquetParams(0.0, np.pi / 2))
        sv = evolve(s0, cycle, 1)
        flipped_index = int(np.sum((1 - (-s0.spins)) // 2 << np.arange(12)))
        assert abs(abs(sv.amplitudes[flipped_index]) - 1.0) < 1e-12

    def test_glass_point_preserves_basis_states(self, hexagon, evolve):
        s0 = initial_state(hexagon, "neel")
        disorder = sample_disorder(hexagon, seed=1)
        cycle = build_cycle(hexagon, disorder, FloquetParams(0.0, 0.0))
        sv = evolve(s0, cycle, 3)
        start_index = int(np.sum(s0.bits.astype(np.int64) << np.arange(12)))
        assert abs(abs(sv.amplitudes[start_index]) - 1.0) < 1e-12

    def test_norm_preserved(self, hexagon, dtc_cycle, hexagon_neel):
        sv = StateVector.from_product(hexagon_neel)
        for _ in range(10):
            sv.apply_cycle(dtc_cycle)
        assert abs(sv.norm() - 1.0) < 1e-10

    def test_dtc_point_regression(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 2)
        value = delta(sv.zz_matrix()[0], hexagon_neel.spins)
        assert value > 0.8
        assert abs(value - DELTA_AFTER_TWO_CYCLES) < 1e-9

    def test_norm_drift_triggers_renormalization(self, hexagon, hexagon_neel):
        disorder = sample_disorder(hexagon, seed=1)
        cycle = build_cycle(hexagon, disorder, FloquetParams(0.1, 0.3))
        sv = StateVector.from_product(hexagon_neel)
        sv.amplitudes *= 1.0 + 1e-6  # inject drift beyond the tolerance
        with pytest.warns(UserWarning, match="renormaliz"):
            sv.apply_cycle(cycle)
        assert abs(sv.norm() - 1.0) < 1e-12


class TestExpectations:
    def test_basis_state_z(self):
        spins = np.array([1, -1, 1, -1])
        sv = StateVector.from_product(ProductState(spins=spins))
        z, _ = sv.zz_matrix()
        for q in range(4):
            assert z[q] == spins[q]

    def test_zz_self_is_one(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 1)
        assert sv.zz_matrix([(3, 3)])[1][3, 3] == 1.0

    def test_uniform_superposition(self):
        n = 4
        sv = StateVector(np.full(2**n, 2.0 ** (-n / 2), dtype=complex), n)
        z, _ = sv.zz_matrix()
        for q in range(n):
            assert abs(z[q]) < 1e-12

    def test_zz_matrix_matches_pairwise(self, dtc_cycle, hexagon_neel, evolve):
        # the one table gives every entry, so the pairs change nothing
        sv = evolve(hexagon_neel, dtc_cycle, 2)
        z, matrix = sv.zz_matrix()
        pairs = [(i, j) for i in range(0, 12, 3) for j in range(12)]
        z_pairs, matrix_pairs = sv.zz_matrix(pairs)
        np.testing.assert_array_equal(z_pairs, z)
        for i, j in pairs:
            assert abs(matrix[i, j] - matrix_pairs[i, j]) < 1e-12

    @pytest.mark.parametrize("n", [17, 21])
    def test_split_table_matches_direct_marginals(self, n):
        sv = StateVector(random_state(n, seed=n), n)
        z, zz = direct_marginals(sv.probabilities(), n)
        z_read, zz_read = sv.zz_matrix()
        assert np.max(np.abs(z_read - z)) < 1e-12
        assert np.max(np.abs(zz_read - zz)) < 1e-12
        pairs = [(0, n - 1), (n // 2, n // 2 - 1), (3, 4)]
        _, zz_read = sv.zz_matrix(pairs)
        for i, j in pairs:
            assert abs(zz_read[i, j] - zz[i, j]) < 1e-12

    def test_values_in_range(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 3)
        z, _ = sv.zz_matrix()
        assert np.all(z >= -1) and np.all(z <= 1)


class TestSampling:
    def test_basis_state_sampling_is_deterministic(self):
        spins = np.array([1, -1, -1, 1, 1])
        sv = StateVector.from_product(ProductState(spins=spins))
        bits = sv.sample_bits(shots=100, seed=0)
        expected = (1 - spins) // 2
        assert np.all(bits == expected)

    def test_uniform_qubit_frequency(self):
        sv = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), 1)
        bits = sv.sample_bits(shots=100_000, seed=2)
        # binomial 6-sigma bound: 6 * 0.5 / sqrt(shots) < 0.01
        assert abs(bits.mean() - 0.5) < 0.01

    def test_shot_estimate_converges(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 2)
        shots = 100_000
        bits = sv.sample_bits(shots=shots, seed=5)
        z_hat = 1.0 - 2.0 * bits.mean(axis=0)
        z, _ = sv.zz_matrix()
        for q in range(12):
            assert abs(z_hat[q] - z[q]) < 3.0 / np.sqrt(shots) + 1e-12

    def test_deterministic_given_seed(self, dtc_cycle, hexagon_neel, evolve):
        sv = evolve(hexagon_neel, dtc_cycle, 1)
        a = sv.sample_bits(shots=50, seed=9)
        b = sv.sample_bits(shots=50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_shots_validation(self, hexagon_neel):
        sv = StateVector.from_product(hexagon_neel)
        with pytest.raises(ValueError):
            sv.sample_bits(shots=0, seed=0)
