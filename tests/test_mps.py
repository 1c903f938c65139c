import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from dtc2d.circuit import (
    FloquetParams,
    GateSequence,
    ProductState,
    build_cycle,
    initial_state,
    sample_disorder,
)
from dtc2d.exact import StateVector
from dtc2d.lattice import build_lattice, unroll
from dtc2d.mps import MPSState, _split_gate, _svd
from dtc2d.observables import chi, chi_from_matrix, delta, qfi


def chain_statevector_from_lattice(sv: StateVector, order) -> np.ndarray:
    """Permute dense amplitudes from lattice to chain qubit ordering."""
    n = sv.n_qubits
    idx = np.arange(2**n)
    chain_idx = np.zeros_like(idx)
    for pos, qubit in enumerate(np.argsort(order)):
        chain_idx |= ((idx >> qubit) & 1) << pos
    out = np.zeros_like(sv.amplitudes)
    out[chain_idx] = sv.amplitudes
    return out


# --- test-side references: plain transfer-matrix contractions, one site and
# one operator at a time, independent of the library's stacked sweep ---

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def transfer(env, tensor, op=None):
    """One site of a left environment (ket, bra), with ``op`` on the ket."""
    t1 = np.tensordot(env, tensor, axes=([0], [0]))  # (bra, p, bk)
    if op is not None:
        t1 = np.einsum("qp,apb->aqb", op, t1)
    return np.tensordot(tensor.conj(), t1, axes=([0, 1], [0, 1])).T  # (bk, bb)


def norm_sq(mps):
    # site 0 carries the norm; the rest is right-canonical
    return float(np.linalg.norm(mps.tensors[0]) ** 2)


def expect_z(mps, site):
    """<Z> at one chain site, by a sweep that stops there."""
    env = np.ones((1, 1), dtype=complex)
    for i in range(site + 1):
        env = transfer(env, mps.tensors[i], PAULI_Z if i == site else None)
    value = np.trace(env).real / norm_sq(mps)
    return float(min(1.0, max(-1.0, value)))


def row_restart_zz_matrix(mps):
    """<Z_i Z_j> with one transfer sweep per row i, from site i onward."""
    n = len(mps.tensors)
    left_envs = [np.ones((1, 1), dtype=complex)]
    for i in range(n - 1):
        left_envs.append(transfer(left_envs[-1], mps.tensors[i]))
    matrix = np.eye(n)
    for i in range(n):
        env = transfer(left_envs[i], mps.tensors[i], PAULI_Z)
        for j in range(i + 1, n):
            value = np.trace(transfer(env, mps.tensors[j], PAULI_Z)).real
            matrix[i, j] = matrix[j, i] = np.clip(value / norm_sq(mps), -1.0, 1.0)
            if j < n - 1:
                env = transfer(env, mps.tensors[j])
    return matrix


def on_pairs(matrix, pairs):
    """The entries of a correlator matrix at the given (i, j) pairs."""
    return np.array([matrix[i, j] for i, j in pairs])


def norm(mps):
    value = np.ones((1, 1), dtype=complex)
    for t in mps.tensors:
        value = transfer(value, t)
    return float(np.sqrt(abs(value[0, 0].real)))


def canonical_defect(mps):
    """Max deviation of the isometry identities over every site but the
    center: left isometries left of it, right isometries right of it."""
    worst = 0.0
    for site, t in enumerate(mps.tensors):
        if site == mps.center:
            continue
        m = t.reshape(-1, t.shape[2]) if site < mps.center else t.reshape(t.shape[0], -1).T
        gram = m.conj().T @ m
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(gram))))))
    return worst


def to_statevector(mps):
    """Dense amplitudes in the chain's bit convention (site 0 = bit 0)."""
    n = len(mps.tensors)
    assert n <= 20, "refusing to densify an MPS with more than 20 sites"
    psi = mps.tensors[0][0]  # (2, b)
    for t in mps.tensors[1:]:
        psi = np.tensordot(psi, t, axes=([-1], [0]))
    psi = psi[..., 0]  # axes ordered site0..siteN-1
    # match the dense backend: qubit/site 0 is the least significant bit
    return np.transpose(psi, tuple(reversed(range(n)))).reshape(-1)


def evolved_2x2(lattice, cycles, chi_max=32):
    """MPS of the 2x2 lattice after ``cycles`` cycles at seed 7, (0.05, 0.45 pi).

    Any warning fails: the renormalization after each gate must find the
    center's squared norm equal to the weight its truncations kept.
    """
    disorder = sample_disorder(lattice, seed=7)
    cycle = build_cycle(lattice, disorder, FloquetParams(0.05, 0.45 * np.pi))
    state = MPSState(initial_state(lattice, "neel"), unroll(lattice), chi_max=chi_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(cycles):
            state.apply_cycle(cycle)
    return state, cycle


def chain_state(state, chi_max=64):
    """MPS of a product state on a chain whose site i is lattice qubit i."""
    return MPSState(state, tuple(range(state.n_qubits)), chi_max=chi_max)


def apply_local(mps, site, gate):
    """A single-qubit gate on one site tensor, as the cycle's kick acts."""
    mps.tensors[site] = np.einsum("qp,apb->aqb", gate, mps.tensors[site])


def random_gate(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    return q


def random_chain_state(n, seed):
    """Entangled n-site MPS and the matching dense state (chain ordering)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    s0 = ProductState(spins=1 - 2 * bits.astype(int))
    mps = chain_state(s0)
    sv = StateVector.from_product(s0)
    for site in range(n):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        apply_local(mps, site, u)
        sv._apply_block(site, u)
    for a, b in [(0, 1), (2, 5), (7, 3), (4, 10), (11, 8)]:
        if max(a, b) < n:
            g = random_gate(int(rng.integers(1 << 30)))
            mps._apply_2q(a, b, g)
            sv.apply_2q(a, b, g)
    return mps, sv


class TestMPOConstruction:
    """A gate becomes a bond-<=4 MPO over its span: two factors plus
    identity pass-through on the sites in between."""

    def test_single_gate_bond_is_four(self):
        gate = random_gate(0)
        left, right = _split_gate(gate)
        assert left.shape == (2, 2, 4) and right.shape == (4, 2, 2)
        # (out_a, in_a, k) x (k, out_b, in_b) -> (out_a, out_b, in_a, in_b)
        rebuilt = np.einsum("qpk,ksr->qspr", left, right).reshape(4, 4)
        np.testing.assert_allclose(rebuilt, gate, atol=1e-12)

    def test_empty_layer_is_identity(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=64)
        state.apply_cycle(dtc_cycle)
        before = to_statevector(state)
        idle = GateSequence(12, np.eye(2, dtype=complex), ((), (), ()))
        state.apply_cycle(idle)
        np.testing.assert_allclose(to_statevector(state), before, atol=1e-12)

    def test_overlap_rejected(self):
        # rejected when the cycle is built, so neither backend can run it
        g = random_gate(1)
        for layer in (((0, 1, g), (1, 2, g)), ((3, 3, g),)):
            with pytest.raises(ValueError, match="overlap"):
                GateSequence(12, np.eye(2, dtype=complex), (layer,))

    def test_layer_mpo_matches_dense_action(self, hexagon, hexagon_order, dtc_cycle):
        s0 = initial_state(hexagon, "neel")
        for layer_gates in dtc_cycle.layers:
            layer = GateSequence(12, np.eye(2, dtype=complex), (layer_gates,))
            state = MPSState(s0, hexagon_order, chi_max=256)
            state.apply_cycle(layer)
            sv = StateVector.from_product(s0)
            for i, j, gate in layer_gates:
                sv.apply_2q(i, j, gate)
            expected = chain_statevector_from_lattice(sv, hexagon_order)
            np.testing.assert_allclose(
                to_statevector(state), expected, atol=1e-10
            )

    def test_bond_dims_bounded_by_overlap_count(self, lattice_2x2):
        # on a product state every gate crossing a cut adds Schmidt rank <= 2,
        # and the truncating sweep must compress each bond to that rank
        order = unroll(lattice_2x2)
        disorder = sample_disorder(lattice_2x2, seed=2)
        cycle = build_cycle(lattice_2x2, disorder, FloquetParams(0.3, 0.25 * np.pi))
        for layer_gates in cycle.layers:
            layer = GateSequence(cycle.n_qubits, cycle.kick, (layer_gates,))
            state = MPSState(initial_state(lattice_2x2, "neel"), order, chi_max=256)
            state.apply_cycle(layer)
            spans = [
                sorted((order[i], order[j]))
                for i, j, _ in layer_gates
            ]
            for cut, bond in enumerate(state.bond_dims):
                overlap = sum(1 for a, b in spans if a <= cut < b)
                assert bond <= 2**overlap

    def test_mpo_product_composes(self):
        a, b = random_gate(3), random_gate(4)
        mps, _ = random_chain_state(6, seed=9)
        twice = copy.deepcopy(mps)
        twice._apply_2q(1, 4, b)
        twice._apply_2q(1, 4, a)
        mps._apply_2q(1, 4, a @ b)
        np.testing.assert_allclose(
            to_statevector(twice), to_statevector(mps), atol=1e-12
        )


class TestApplyMPO:
    @pytest.mark.parametrize("site_a, site_b", [(0, 11), (9, 2), (5, 6), (3, 5), (6, 5)])
    def test_gate_matches_dense(self, site_a, site_b):
        # (0, 11) spans the whole chain; (9, 2) and (6, 5) run against the
        # chain order
        mps, sv = random_chain_state(12, seed=site_a + 7 * site_b)
        gate = random_gate(site_a * 12 + site_b)
        mps._apply_2q(site_a, site_b, gate)
        sv.apply_2q(site_a, site_b, gate)
        np.testing.assert_allclose(to_statevector(mps), sv.amplitudes, atol=1e-12)
        assert mps.center == min(site_a, site_b)

    @pytest.mark.parametrize(
        "site_a, site_b", [(5, 6), (6, 5), (3, 5), (5, 3), (2, 7), (7, 2), (0, 11), (11, 0)]
    )
    def test_gate_matches_dense_truncation_when_chi_binds(self, site_a, site_b):
        # the reference cuts the exact post-gate vector at bonds b-1 ... a,
        # right to left, keeping chi Schmidt vectors at each cut
        chi_max, n = 4, 12
        mps, sv = random_chain_state(n, seed=site_a + 7 * site_b)
        mps.chi_max = chi_max
        gate = random_gate(site_a * 12 + site_b)
        before = mps.truncation_error
        mps._apply_2q(site_a, site_b, gate)
        sv.apply_2q(site_a, site_b, gate)
        psi = sv.amplitudes.reshape([2] * n).transpose(range(n - 1, -1, -1))  # axis = site
        discarded = 0.0
        for bond in range(max(site_a, site_b) - 1, min(site_a, site_b) - 1, -1):
            u, s, vh = np.linalg.svd(psi.reshape(2 ** (bond + 1), -1), full_matrices=False)
            keep = min(chi_max, int(np.sum(s > mps.cutoff)))
            discarded += float(np.sum(s[keep:] ** 2) / np.sum(s**2))
            psi = ((u[:, :keep] * s[:keep]) @ vh[:keep]).reshape(psi.shape)
        expected = psi.transpose(range(n - 1, -1, -1)).reshape(-1)
        expected /= np.linalg.norm(expected)
        assert discarded > 1e-6  # chi binds
        np.testing.assert_allclose(to_statevector(mps), expected, rtol=0, atol=1e-10)
        assert abs(mps.truncation_error - before - discarded) < 1e-12
        assert mps.center == min(site_a, site_b)

    def test_norm_drift_warns_before_renormalizing(self):
        mps, _ = random_chain_state(6, seed=4)
        assert mps.center == 2
        mps.tensors[4] = 1.5 * mps.tensors[4]
        with pytest.warns(UserWarning, match="norm.*drifted"):
            mps._apply_2q(3, 5, random_gate(6))
        assert abs(norm(mps) - 1.0) < 1e-12

    def test_two_cycles_on_2x2_stay_within_their_memory(self, lattice_2x2):
        # a gate sweep holds one R factor per span site, each of up to
        # k chi = 128 rows at chi 32, so the traced peak follows the longest
        # span: two chi-32 cycles peak at 3.7 MiB on the column sweep (no
        # gate longer than 6 sites), and at 5.1 MiB on a row-by-row chain
        # order whose gates span up to 11. The bound sits between the two.
        disorder = sample_disorder(lattice_2x2, seed=7)
        cycle = build_cycle(lattice_2x2, disorder, FloquetParams(0.05, 0.45 * np.pi))
        state = MPSState(initial_state(lattice_2x2, "neel"), unroll(lattice_2x2), chi_max=32)
        tracemalloc.start()
        try:
            for _ in range(2):
                state.apply_cycle(cycle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(state.bond_dims) == 32
        assert peak < 4.4 * 2**20

    def test_only_center_moves_form_q(self, monkeypatch, lattice_2x2):
        # the gate sweeps keep R factors only; a QR that returns Q is a
        # center move, of at most (2 chi, chi)
        chi_max = 32
        state, cycle = evolved_2x2(lattice_2x2, cycles=1, chi_max=chi_max)
        qr, apply_2q = np.linalg.qr, MPSState._apply_2q
        q_shapes, defects = [], []

        def counted(matrix, mode="reduced"):
            if mode != "r":
                q_shapes.append(matrix.shape)
            return qr(matrix, mode=mode)

        def checked(self, site_a, site_b, gate):
            apply_2q(self, site_a, site_b, gate)
            assert self.center == min(site_a, site_b)
            defects.append(canonical_defect(self))

        monkeypatch.setattr(np.linalg, "qr", counted)
        monkeypatch.setattr(MPSState, "_apply_2q", checked)
        state.apply_cycle(cycle)
        assert max(state.bond_dims) == chi_max
        assert q_shapes and max(rows for rows, _ in q_shapes) <= 2 * chi_max
        assert len(defects) == sum(len(layer) for layer in cycle.layers)
        assert max(defects) <= 1e-12

    def test_identity_leaves_state_unchanged(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=64)
        state.apply_cycle(dtc_cycle)
        before = to_statevector(state)
        state._apply_2q(0, 11, np.eye(4, dtype=complex))
        np.testing.assert_allclose(to_statevector(state), before, atol=1e-12)

    def test_chi_one_reports_truncation(self, hexagon_order):
        mps = chain_state(ProductState(spins=np.ones(12, dtype=int)), chi_max=1)
        kick = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        for site in range(12):
            apply_local(mps, site, kick)
        mps._apply_2q(0, 1, random_gate(5))
        assert mps.truncation_error > 0
        assert max(mps.bond_dims) == 1

    def test_no_truncation_when_chi_unbinding(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=256)
        for _ in range(3):
            state.apply_cycle(dtc_cycle)
        assert state.truncation_error < 1e-20

    def test_truncation_error_monotone(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=4)
        errors = []
        for _ in range(6):
            state.apply_cycle(dtc_cycle)
            errors.append(state.truncation_error)
        assert all(b >= a for a, b in zip(errors, errors[1:]))
        assert errors[-1] > 0

    def test_canonical_form_after_evolution(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=16)
        for _ in range(4):
            state.apply_cycle(dtc_cycle)
        assert canonical_defect(state) < 1e-10
        assert abs(norm(state) - 1.0) < 1e-8

    def test_bond_cap_respected(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=8)
        for _ in range(5):
            state.apply_cycle(dtc_cycle)
        assert max(state.bond_dims) <= 8

    def test_every_svd_goes_through_numpy_linalg_svd(
        self, monkeypatch, hexagon, hexagon_order, dtc_cycle
    ):
        # the engine looks the name up at each call, so a wrapper put there
        # counts every factorization
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=8)
        state.apply_cycle(dtc_cycle)
        gates = [(i, j) for layer in dtc_cycle.layers for i, j, _ in layer]
        # per gate: the split of the gate, then one truncating SVD per bond
        # of its span
        assert len(calls) == sum(
            1 + abs(hexagon_order[i] - hexagon_order[j]) for i, j in gates
        )

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12)])
    def test_svd_falls_back_when_the_driver_fails(self, monkeypatch, shape):
        # the first SVD fails to converge; the fallback factors the R of a QR
        svd = np.linalg.svd
        calls = []

        def fails_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_first)
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u, s, vh = _svd(matrix)
        assert len(calls) == 2
        k = min(shape)
        assert u.shape == (shape[0], k) and s.shape == (k,) and vh.shape == (k, shape[1])
        np.testing.assert_allclose((u * s) @ vh, matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), rtol=0, atol=1e-13)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), rtol=0, atol=1e-13)
        assert np.all(np.diff(s) <= 0)


class TestCliffordEvolution:
    @pytest.mark.parametrize("chi_max", [1, 16])
    def test_flip_point_period_doubling(self, hexagon, hexagon_order, chi_max):
        s0 = initial_state(hexagon, "neel")
        disorder = sample_disorder(hexagon, seed=3)
        cycle = build_cycle(hexagon, disorder, FloquetParams(0.0, np.pi / 2))
        state = MPSState(s0, hexagon_order, chi_max=chi_max)
        for t in range(1, 7):
            state.apply_cycle(cycle)
            value = delta(state.zz_matrix()[0], s0.spins)
            assert abs(value - (-1.0) ** t) < 1e-12


class TestOracleEquivalence:
    def test_random_points_match_exact(self, hexagon, hexagon_order):
        # chain cap 2^(N/2) makes the MPS exact on 12 qubits
        s0 = initial_state(hexagon, "neel")
        disorder = sample_disorder(hexagon, seed=13)
        rng = np.random.default_rng(21)
        for _ in range(5):
            params = FloquetParams(rng.uniform(0, 0.4), rng.uniform(0, np.pi / 2))
            cycle = build_cycle(hexagon, disorder, params)
            sv = StateVector.from_product(s0)
            state = MPSState(s0, hexagon_order, chi_max=64)
            for _ in range(10):
                sv.apply_cycle(cycle)
                state.apply_cycle(cycle)
            (z_e, zz_e), (z_m, zz_m) = sv.zz_matrix(), state.zz_matrix()
            assert np.max(np.abs(z_e - z_m)) < 1e-8
            assert np.max(np.abs(zz_e - zz_m)) < 1e-8
            edges = list(hexagon.edges)
            chi_e = chi(on_pairs(zz_e, edges))
            chi_m = chi(on_pairs(state.zz_matrix(edges)[1], edges))
            assert abs(chi_e - chi_m) < 1e-8
            assert abs(chi_from_matrix(zz_e) - chi_from_matrix(zz_m)) < 1e-8
            assert abs(qfi(z_e, zz_e, s0.spins) - qfi(z_m, zz_m, s0.spins)) < 1e-8

    def test_21_qubit_cycle_matches_exact(self):
        # one cycle on 1x2 keeps every bond <= 32, so chi 64 discards nothing
        lattice = build_lattice(1, 2)
        s0 = initial_state(lattice, "neel")
        disorder = sample_disorder(lattice, seed=13)
        cycle = build_cycle(lattice, disorder, FloquetParams(0.3, 0.3 * np.pi))
        sv = StateVector.from_product(s0)
        state = MPSState(s0, unroll(lattice), chi_max=64)
        sv.apply_cycle(cycle)
        state.apply_cycle(cycle)
        assert state.truncation_error < 1e-20
        (z_e, zz_e), (z_m, zz_m) = sv.zz_matrix(), state.zz_matrix()
        assert np.max(np.abs(z_e - z_m)) < 1e-8
        assert np.max(np.abs(zz_e - zz_m)) < 1e-8
        edges = list(lattice.edges)
        zz_e_pairs = on_pairs(sv.zz_matrix(edges)[1], edges)
        zz_m_pairs = on_pairs(state.zz_matrix(edges)[1], edges)
        assert np.max(np.abs(zz_e_pairs - zz_m_pairs)) < 1e-8
        assert abs(qfi(z_e, zz_e, s0.spins) - qfi(z_m, zz_m, s0.spins)) < 1e-8


class TestExpectations:
    def test_product_state_recovery(self, hexagon, hexagon_order):
        s0 = initial_state(hexagon, "neel")
        state = MPSState(s0, hexagon_order, chi_max=4)
        edges = list(hexagon.edges)
        z, zz = state.zz_matrix(edges)
        np.testing.assert_array_equal(z, s0.spins)
        for i, j in edges:
            assert zz[i, j] == s0.spins[i] * s0.spins[j]

    def test_single_site_matches_sweep(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=64)
        state.apply_cycle(dtc_cycle)
        z, _ = state.zz_matrix()
        for q in (0, 5, 11):
            site = hexagon_order[q]
            assert abs(expect_z(state, site) - z[q]) < 1e-12

    def test_stacked_sweep_matches_row_restart(self, lattice_2x2):
        # 35 sites at chi 32: both cycles truncate
        state, _ = evolved_2x2(lattice_2x2, cycles=2)
        assert state.truncation_error > 0
        assert max(state.bond_dims) == 32
        # the references sweep chain sites; read them back in lattice order
        position = state.position
        z_lattice, zz_lattice = state.zz_matrix()
        np.testing.assert_allclose(
            zz_lattice,
            row_restart_zz_matrix(state)[np.ix_(position, position)],
            rtol=0,
            atol=1e-12,
        )
        z = [expect_z(state, site) for site in position]
        np.testing.assert_allclose(z_lattice, z, rtol=0, atol=1e-12)
        # the pair sweep keeps each string only up to its site's last partner
        edges = list(lattice_2x2.edges)
        expected = on_pairs(zz_lattice, edges)
        pruned = on_pairs(state.zz_matrix(edges)[1], edges)
        np.testing.assert_allclose(pruned, expected, rtol=0, atol=1e-14)

    def test_values_beyond_one_warn_before_clipping(self, hexagon, hexagon_order, dtc_cycle):
        state = MPSState(initial_state(hexagon, "neel"), hexagon_order, chi_max=64)
        state.apply_cycle(dtc_cycle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state.zz_matrix()
        # a doubled site right of the center breaks right-canonical form:
        # every read from it on carries 4 times the norm that site 0 reports
        state.tensors[5] = 2.0 * state.tensors[5]
        with pytest.warns(UserWarning, match="beyond"):
            z, zz = state.zz_matrix()
        assert np.abs(z).max() == 1.0 and np.abs(zz).max() == 1.0

    def test_zz_pairs_match_zz_matrix(self, hexagon, hexagon_order, dtc_cycle):
        s0 = initial_state(hexagon, "neel")
        edges = list(hexagon.edges)
        flipped = [(j, i) for i, j in edges] + [(3, 3), (0, 11), (6, 0)]
        sv = StateVector.from_product(s0)
        state = MPSState(s0, hexagon_order, chi_max=64)
        sv.apply_cycle(dtc_cycle)
        state.apply_cycle(dtc_cycle)
        (dense_z, dense_matrix), (mps_z, mps_matrix) = sv.zz_matrix(), state.zz_matrix()
        for pairs in (edges, flipped):
            # the dense backend reads the same table either way
            z, matrix = sv.zz_matrix(pairs)
            np.testing.assert_array_equal(z, dense_z)
            np.testing.assert_array_equal(matrix, dense_matrix)
            # the MPS one runs a pruned sweep, whose stacks differ in size
            z, matrix = state.zz_matrix(pairs)
            np.testing.assert_allclose(z, mps_z, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                on_pairs(matrix, pairs), on_pairs(mps_matrix, pairs), rtol=0, atol=1e-14
            )


class TestSampling:
    def test_product_state_sampling(self, hexagon, hexagon_order):
        s0 = initial_state(hexagon, "neel")
        state = MPSState(s0, hexagon_order, chi_max=4)
        bits = state.sample_bits(shots=64, seed=1)
        np.testing.assert_array_equal(bits, np.tile(s0.bits, (64, 1)))

    def test_statistics_match_exact(self, hexagon, hexagon_order, dtc_cycle):
        s0 = initial_state(hexagon, "neel")
        sv = StateVector.from_product(s0)
        state = MPSState(s0, hexagon_order, chi_max=64)
        for _ in range(2):
            sv.apply_cycle(dtc_cycle)
            state.apply_cycle(dtc_cycle)
        shots = 40_000
        bits = state.sample_bits(shots=shots, seed=8)
        z_hat = 1.0 - 2.0 * bits.mean(axis=0)
        assert np.max(np.abs(z_hat - sv.zz_matrix()[0])) < 4.0 / np.sqrt(shots)
