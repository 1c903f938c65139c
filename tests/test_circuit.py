import numpy as np
import pytest
import scipy.linalg

from dtc2d.circuit import (
    CliffordState,
    FloquetParams,
    ProductState,
    build_cycle,
    initial_state,
    sample_disorder,
    x_kick_gate,
    xxz_gate,
)
from dtc2d.exact import StateVector
from dtc2d.lattice import build_lattice
from dtc2d.mps import MPSState

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
ZZ = np.kron(Z, Z)


def random_params(n, seed=0):
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(0.5, 1.5, n), rng.uniform(0, 1.0, n)))


class TestDisorder:
    def test_range(self, lattice_2x2):
        couplings = sample_disorder(lattice_2x2, seed=5)
        values = np.array(list(couplings.values()))
        assert np.all(values >= 0.5) and np.all(values <= 1.5)

    def test_deterministic(self, lattice_2x2):
        a = sample_disorder(lattice_2x2, seed=5)
        b = sample_disorder(lattice_2x2, seed=5)
        assert a == b
        c = sample_disorder(lattice_2x2, seed=6)
        assert a != c

    def test_mean_on_large_lattice(self):
        lat = build_lattice(3, 7)
        couplings = sample_disorder(lat, seed=11)
        values = np.array(list(couplings.values()))
        assert abs(values.mean() - 1.0) < 0.1


class TestXXZGate:
    def test_epsilon_zero_is_diagonal(self):
        J = 0.83
        gate = xxz_gate(J, 0.0)
        expected = np.diag(
            [np.exp(-1j * J), np.exp(1j * J), np.exp(1j * J), np.exp(-1j * J)]
        )
        np.testing.assert_allclose(gate, expected, atol=1e-15)

    @pytest.mark.parametrize("J,eps", random_params(8))
    def test_unitary(self, J, eps):
        gate = xxz_gate(J, eps)
        np.testing.assert_allclose(gate.conj().T @ gate, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("J,eps", random_params(8, seed=1))
    def test_commutes_with_zz(self, J, eps):
        gate = xxz_gate(J, eps)
        np.testing.assert_allclose(gate @ ZZ - ZZ @ gate, 0, atol=1e-12)

    @pytest.mark.parametrize("J,eps", random_params(8, seed=2))
    def test_matches_matrix_exponential(self, J, eps):
        # independent oracle: generic matrix exponentiation of the Hamiltonian
        h = J * (eps * np.kron(X, X) + eps * np.kron(Y, Y) + ZZ)
        expected = scipy.linalg.expm(-1j * h)
        np.testing.assert_allclose(xxz_gate(J, eps), expected, atol=1e-12)

    def test_flip_block_magnitude(self):
        # J=1, eps=0.5: |01>-block off-diagonal magnitude equals |sin(1.0)|
        gate = xxz_gate(1.0, 0.5)
        assert abs(abs(gate[1, 2]) - abs(np.sin(1.0))) < 1e-12


class TestKickGate:
    def test_phi_zero_is_identity(self):
        np.testing.assert_allclose(x_kick_gate(0.0), np.eye(2), atol=1e-15)

    def test_perfect_flip(self):
        np.testing.assert_allclose(x_kick_gate(np.pi / 2), -1j * X, atol=1e-15)

    def test_half_kick(self):
        expected = (np.eye(2) - 1j * X) / np.sqrt(2)
        np.testing.assert_allclose(x_kick_gate(np.pi / 4), expected, atol=1e-15)

    @pytest.mark.parametrize("phi", np.linspace(0, np.pi / 2, 7))
    def test_unitary(self, phi):
        gate = x_kick_gate(phi)
        np.testing.assert_allclose(gate.conj().T @ gate, np.eye(2), atol=1e-12)


class TestBuildCycle:
    def test_gate_counts_and_order(self, lattice_2x2):
        disorder = sample_disorder(lattice_2x2, seed=0)
        cycle = build_cycle(lattice_2x2, disorder, FloquetParams(0.1, 0.3))
        # the one-qubit kick on all 35 qubits, then 38 two-qubit gates
        assert cycle.n_qubits == 35 and cycle.kick.shape == (2, 2)
        gates = [gate for layer in cycle.layers for _, _, gate in layer]
        assert len(gates) == 38
        assert all(gate.shape == (4, 4) for gate in gates)

    def test_layer_internal_disjointness(self, lattice_2x2):
        disorder = sample_disorder(lattice_2x2, seed=0)
        cycle = build_cycle(lattice_2x2, disorder, FloquetParams(0.1, 0.3))
        for layer in cycle.layers:
            qubits = [q for i, j, _ in layer for q in (i, j)]
            assert len(qubits) == len(set(qubits))

    def test_clifford_glass_point_is_diagonal(self, hexagon):
        disorder = sample_disorder(hexagon, seed=0)
        cycle = build_cycle(hexagon, disorder, FloquetParams(0.0, 0.0))
        gates = [cycle.kick] + [gate for layer in cycle.layers for _, _, gate in layer]
        for gate in gates:
            off_diag = gate - np.diag(np.diag(gate))
            assert np.max(np.abs(off_diag)) < 1e-15

    def test_deterministic(self, hexagon):
        disorder = sample_disorder(hexagon, seed=4)
        params = FloquetParams(0.07, 0.4)
        a = build_cycle(hexagon, disorder, params)
        b = build_cycle(hexagon, disorder, params)
        np.testing.assert_array_equal(a.kick, b.kick)
        for la, lb in zip(a.layers, b.layers):
            for (i, j, ga), (k, l, gb) in zip(la, lb):
                assert (i, j) == (k, l)
                np.testing.assert_array_equal(ga, gb)

    def test_mismatched_disorder_rejected(self, hexagon, lattice_2x2):
        disorder = sample_disorder(hexagon, seed=0)
        with pytest.raises(ValueError):
            build_cycle(lattice_2x2, disorder, FloquetParams(0.1, 0.3))


class TestInitialStates:
    def test_polarized(self, lattice_2x2):
        state = initial_state(lattice_2x2, "polarized")
        assert np.all(state.spins == 1)

    def test_neel_alternates_on_every_edge(self, lattice_2x2):
        state = initial_state(lattice_2x2, "neel")
        for i, j in lattice_2x2.edges:
            assert state.spins[i] * state.spins[j] == -1

    def test_neel_on_hexagon(self, hexagon):
        state = initial_state(hexagon, "neel")
        assert np.sum(state.spins) == 0  # balanced around the 12-cycle

    def test_custom_state(self, hexagon):
        bits = "011000000001"
        state = initial_state(hexagon, bits)
        np.testing.assert_array_equal(state.spins, [1, -1, -1] + [1] * 8 + [-1])
        np.testing.assert_array_equal(state.bits, [int(b) for b in bits])

    @pytest.mark.parametrize("bits", ["0110", "01x000000001"], ids=["too-short", "not-0/1"])
    def test_custom_state_rejected_names_the_lattice(self, hexagon, bits):
        with pytest.raises(ValueError, match=r"initial_state .* 12 bits for the 1x1 lattice"):
            initial_state(hexagon, bits)

    def test_spin_validation(self):
        with pytest.raises(ValueError):
            ProductState(spins=np.array([1, 0, -1]))


class TestCliffordState:
    @pytest.mark.parametrize("phi", [0.0, np.pi / 2])
    @pytest.mark.parametrize(
        "initial", ["neel", "polarized"], ids=["neel_state", "polarized_state"]
    )
    def test_matches_both_backends(self, hexagon, hexagon_order, initial, phi):
        cycle = build_cycle(hexagon, sample_disorder(hexagon, seed=7), FloquetParams(0.0, phi))
        s0 = initial_state(hexagon, initial)
        clifford = CliffordState(s0)
        backends = [StateVector.from_product(s0), MPSState(s0, hexagon_order)]
        for t in range(5):
            if t > 0:
                for state in (clifford, *backends):
                    state.apply_cycle(cycle)
            z, zz = clifford.zz_matrix()
            np.testing.assert_array_equal(z, s0.spins * (-1.0 if phi else 1.0) ** t)
            np.testing.assert_array_equal(zz, np.outer(z, z))
            samples = clifford.sample_bits(50, seed=t)
            for state in backends:
                z_b, zz_b = state.zz_matrix()
                np.testing.assert_allclose(z_b, z, rtol=0, atol=1e-15)
                np.testing.assert_allclose(zz_b, zz, rtol=0, atol=1e-15)
                np.testing.assert_array_equal(state.sample_bits(50, seed=t), samples)

    @pytest.mark.parametrize("eps, phi", [(0.05, 0.0), (1e-9, np.pi / 2), (0.0, 0.3)])
    def test_rejects_a_cycle_that_mixes_basis_states(self, hexagon, eps, phi):
        cycle = build_cycle(hexagon, sample_disorder(hexagon, seed=7), FloquetParams(eps, phi))
        with pytest.raises(ValueError):
            CliffordState(initial_state(hexagon, "neel")).apply_cycle(cycle)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FloquetParams(-0.1, 0.3)
        with pytest.raises(ValueError):
            FloquetParams(0.1, 2.0)
        FloquetParams(0.0, np.pi / 2)  # boundary is allowed

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_epsilon_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            FloquetParams(eps, 0.3)
