"""Matrix-product-state evolution of the unrolled lattice.

Site tensors have shape (left_bond, 2, right_bond). Between cycles the
state is right-canonical with the orthogonality center at site 0, so
expectation values close with identity environments on the right.

A two-qubit gate on chain positions a < b is applied over its span only.
The center moves to a by QR; the 4x4 gate is split by SVD into two site
tensors joined by a bond of at most 4, which passes through the sites
between a and b. An exact QR sweep a -> b absorbs the gate, then a
truncating SVD sweep b -> a restores right-canonical form on the span and
leaves the center at a. Every cut of that sweep is a Schmidt cut of the
whole state, so keeping the chi_max largest singular values is the optimal
truncation there. When chi_max exceeds the entanglement requirement the
result is exact up to the singular-value floor.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from .circuit import GateSequence, ProductState
from .lattice import UnrollOrder

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_GATE_SPLIT_TOL = 1e-14


def _svd(matrix: np.ndarray):
    try:
        return scipy.linalg.svd(matrix, full_matrices=False, check_finite=False)
    except scipy.linalg.LinAlgError:
        return scipy.linalg.svd(
            matrix, full_matrices=False, check_finite=False, lapack_driver="gesvd"
        )


def _qr(matrix: np.ndarray):
    return scipy.linalg.qr(matrix, mode="economic", check_finite=False)


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``a`` with the first axis of ``b``.

    Runs in the BLAS that scipy.linalg uses. numpy and scipy each bundle
    their own threaded BLAS; the engine's factorizations run in scipy's, and
    keeping its products there too stops the two thread pools from
    contending (about 3x on a 2-core machine at chi 32).
    """
    a2 = np.ascontiguousarray(a.reshape(-1, a.shape[-1]), dtype=complex)
    b2 = np.ascontiguousarray(b.reshape(b.shape[0], -1), dtype=complex)
    # row-major a2 @ b2 is column-major b2.T @ a2.T, without copies
    product = scipy.linalg.blas.zgemm(1.0, b2.T, a2.T).T
    return product.reshape(a.shape[:-1] + b.shape[1:])


def _split_gate(gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a gate indexed (out_a, out_b, in_a, in_b) across its two qubits.

    Returns the factors (out_a, in_a, k) and (k, out_b, in_b), joined by a
    bond k of at most 4 (the gate's operator Schmidt rank).
    """
    g = gate.reshape(2, 2, 2, 2)
    m = g.transpose(0, 2, 1, 3).reshape(4, 4)  # (out_a in_a), (out_b in_b)
    u, s, vh = _svd(m)
    rank = max(1, int(np.sum(s > _GATE_SPLIT_TOL)))
    left = (u[:, :rank] * np.sqrt(s[:rank])).reshape(2, 2, rank)
    right = (np.sqrt(s[:rank])[:, None] * vh[:rank]).reshape(rank, 2, 2)
    return left, right


class MPS:
    """MPS with bond cap ``chi_max`` and singular-value floor ``cutoff``.

    ``center`` is the site of the orthogonality center: sites left of it
    are left-isometries, sites right of it right-isometries, and the center
    tensor carries the norm. ``truncation_error`` accumulates the discarded
    weight of every SVD (sum over truncations of the discarded squared
    singular values, normalized per truncation); it stays 0 while chi_max
    never binds.
    """

    def __init__(
        self,
        tensors: list[np.ndarray],
        chi_max: int = 64,
        cutoff: float = 1e-12,
    ):
        self.tensors = tensors
        self.chi_max = int(chi_max)
        self.cutoff = float(cutoff)
        self.truncation_error = 0.0
        self.center = 0

    @classmethod
    def from_product(
        cls,
        bits: np.ndarray,
        chi_max: int = 64,
        cutoff: float = 1e-12,
    ) -> "MPS":
        tensors = []
        for b in bits:
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, int(b), 0] = 1.0
            tensors.append(t)
        return cls(tensors, chi_max=chi_max, cutoff=cutoff)

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        return [t.shape[2] for t in self.tensors[:-1]]

    def norm(self) -> float:
        value = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            value = _transfer(value, t)
        return float(np.sqrt(abs(value[0, 0].real)))

    def copy(self) -> "MPS":
        clone = MPS(
            [t.copy() for t in self.tensors],
            chi_max=self.chi_max,
            cutoff=self.cutoff,
        )
        clone.truncation_error = self.truncation_error
        clone.center = self.center
        return clone

    def apply_1q(self, site: int, gate: np.ndarray) -> None:
        self.tensors[site] = np.einsum("qp,apb->aqb", gate, self.tensors[site])

    def apply_2q(self, site_a: int, site_b: int, gate: np.ndarray) -> None:
        """Apply a gate indexed (out_a, out_b, in_a, in_b) to chain sites a, b.

        Touches only the sites between the two ends and leaves the
        orthogonality center at the left end of the span.
        """
        n = self.n_sites
        if site_a == site_b or not (0 <= site_a < n and 0 <= site_b < n):
            raise ValueError(f"invalid gate span ({site_a}, {site_b}) on {n} sites")
        if site_a > site_b:
            gate = gate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            site_a, site_b = site_b, site_a
        left, right = _split_gate(gate)
        rank = left.shape[2]
        self._move_center(site_a)

        # exact QR sweep a -> b; the gate bond k rides on each right bond
        t = np.einsum("qpk,lpr->lqkr", left, self.tensors[site_a])
        for i in range(site_a, site_b):
            dl = t.shape[0]
            q, r = _qr(t.reshape(dl * 2, -1))
            self.tensors[i] = q.reshape(dl, 2, -1)
            r = r.reshape(r.shape[0], rank, -1)  # (m, k, bond)
            t = _contract(r, self.tensors[i + 1])  # (m, k, p, s)
            if i + 1 < site_b:
                t = t.transpose(0, 2, 1, 3)  # (m, p, k, s)
            else:
                t = np.einsum("kqp,mkps->mqs", right, t)
        self.tensors[site_b] = t
        self.center = site_b
        self._truncate_to(site_a)

    def _move_center(self, site: int) -> None:
        """Move the orthogonality center to ``site`` by exact QR steps."""
        while self.center < site:
            i = self.center
            t = self.tensors[i]
            q, r = _qr(t.reshape(-1, t.shape[2]))
            self.tensors[i] = q.reshape(t.shape[0], 2, -1)
            self.tensors[i + 1] = _contract(r, self.tensors[i + 1])
            self.center = i + 1
        while self.center > site:
            i = self.center
            t = self.tensors[i]
            q, r = _qr(t.reshape(t.shape[0], -1).T)
            self.tensors[i] = q.T.reshape(-1, 2, t.shape[2])
            self.tensors[i - 1] = _contract(self.tensors[i - 1], r.T)
            self.center = i - 1

    def _truncate_to(self, site: int) -> None:
        """Truncating SVD sweep from the center leftward to ``site``.

        Each bond it crosses is cut at a Schmidt decomposition of the whole
        state; the state is renormalized on the new center afterwards.
        """
        for i in range(self.center, site, -1):
            t = self.tensors[i]
            u, s, vh = _svd(t.reshape(t.shape[0], -1))
            rank = self._keep(s)
            total = float(np.sum(s**2))
            if total > 0:
                self.truncation_error += float(np.sum(s[rank:] ** 2)) / total
            self.tensors[i] = vh[:rank].reshape(rank, 2, t.shape[2])
            factor = u[:, :rank] * s[:rank]
            self.tensors[i - 1] = _contract(self.tensors[i - 1], factor)
        self.center = site
        nrm = np.linalg.norm(self.tensors[site])
        if nrm > 0:
            self.tensors[site] = self.tensors[site] / nrm

    def _keep(self, s: np.ndarray) -> int:
        return max(1, min(self.chi_max, int(np.sum(s > self.cutoff))))

    def canonical_defect(self) -> float:
        """Max deviation of the right-isometry identities over sites 1..n-1."""
        worst = 0.0
        for t in self.tensors[1:]:
            m = t.reshape(t.shape[0], -1)
            gram = m @ m.conj().T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(t.shape[0])))))
        return worst

    # --- observables (chain indexing) ---

    def expect_z(self, site: int) -> float:
        return self._expect_ops({site: _PAULI_Z})

    def expect_zz(self, site_a: int, site_b: int) -> float:
        if site_a == site_b:
            return 1.0
        return self._expect_ops({site_a: _PAULI_Z, site_b: _PAULI_Z})

    def _expect_ops(self, ops: dict[int, np.ndarray]) -> float:
        last = max(ops)
        env = np.ones((1, 1), dtype=complex)
        for i in range(last + 1):
            env = _transfer(env, self.tensors[i], ops.get(i))
        value = np.trace(env).real / self._norm_sq()
        return float(min(1.0, max(-1.0, value)))

    def per_site_z(self) -> np.ndarray:
        n = self.n_sites
        norm_sq = self._norm_sq()
        values = np.empty(n)
        env = np.ones((1, 1), dtype=complex)
        for i in range(n):
            values[i] = np.trace(_transfer(env, self.tensors[i], _PAULI_Z)).real
            env = _transfer(env, self.tensors[i])
        return np.clip(values / norm_sq, -1.0, 1.0)

    def zz_matrix(self, pairs: list[tuple[int, int]] | None = None) -> np.ndarray:
        """<Z_i Z_j> for chain-position pairs (full matrix when pairs=None)."""
        n = self.n_sites
        norm_sq = self._norm_sq()
        left_envs = [np.ones((1, 1), dtype=complex)]
        for i in range(n - 1):
            left_envs.append(_transfer(left_envs[-1], self.tensors[i]))

        if pairs is None:
            matrix = np.eye(n)
            for i in range(n):
                env = _transfer(left_envs[i], self.tensors[i], _PAULI_Z)
                for j in range(i + 1, n):
                    value = np.trace(_transfer(env, self.tensors[j], _PAULI_Z)).real
                    matrix[i, j] = matrix[j, i] = np.clip(value / norm_sq, -1.0, 1.0)
                    if j < n - 1:
                        env = _transfer(env, self.tensors[j])
            return matrix

        values = np.empty(len(pairs))
        for k, (a, b) in enumerate(pairs):
            i, j = min(a, b), max(a, b)
            if i == j:
                values[k] = 1.0
                continue
            env = _transfer(left_envs[i], self.tensors[i], _PAULI_Z)
            for mid in range(i + 1, j):
                env = _transfer(env, self.tensors[mid])
            value = np.trace(_transfer(env, self.tensors[j], _PAULI_Z)).real
            values[k] = np.clip(value / norm_sq, -1.0, 1.0)
        return values

    def _norm_sq(self) -> float:
        # site 0 carries the norm; the rest is right-canonical
        return float(np.linalg.norm(self.tensors[0]) ** 2)

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        """Perfect sampling from the MPS; returns (shots, n) bit array.

        Requires right-canonical form (center at site 0), which
        evolve_cycle_mps restores after every cycle. Vectorized over shots.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        n = self.n_sites
        bits = np.empty((shots, n), dtype=np.uint8)
        t0 = self.tensors[0] / np.linalg.norm(self.tensors[0])
        vec = np.ones((shots, 1), dtype=complex)
        for i in range(n):
            t = self.tensors[i] if i > 0 else t0
            branch0 = vec @ t[:, 0, :]
            branch1 = vec @ t[:, 1, :]
            w0 = np.sum(np.abs(branch0) ** 2, axis=1)
            w1 = np.sum(np.abs(branch1) ** 2, axis=1)
            p1 = w1 / (w0 + w1)
            outcome = (rng.random(shots) < p1).astype(np.uint8)
            bits[:, i] = outcome
            vec = np.where(outcome[:, None] == 1, branch1, branch0)
            scale = np.sqrt(np.where(outcome == 1, w1, w0))
            vec = vec / scale[:, None]
        return bits

    def to_statevector(self) -> np.ndarray:
        """Dense amplitudes in the chain's bit convention (site 0 = bit 0)."""
        if self.n_sites > 20:
            raise ValueError("refusing to densify an MPS with more than 20 sites")
        psi = self.tensors[0][0]  # (2, b)
        for t in self.tensors[1:]:
            psi = np.tensordot(psi, t, axes=([-1], [0]))
        psi = psi[..., 0]  # axes ordered site0..siteN-1
        # match the dense backend: qubit/site 0 is the least significant bit
        return np.transpose(psi, tuple(reversed(range(self.n_sites)))).reshape(-1)


def _transfer(
    env: np.ndarray, tensor: np.ndarray, op: np.ndarray | None = None
) -> np.ndarray:
    t1 = np.tensordot(env, tensor, axes=([0], [0]))  # (bra, p, bk)
    if op is not None:
        t1 = np.einsum("qp,apb->aqb", op, t1)
    return np.tensordot(tensor.conj(), t1, axes=([0, 1], [0, 1])).T  # (bk, bb)


def evolve_cycle_mps(mps: MPS, cycle: GateSequence, order: UnrollOrder) -> None:
    """Apply one Floquet cycle in place: local kicks, then the three layers.

    Single-qubit kicks act directly on site tensors (exact, no truncation).
    The gates of a layer act on disjoint qubits, so they commute; they are
    applied in order of their left chain end, which keeps the center moving
    rightward. The cycle ends with the center back at site 0.
    """
    for site in range(mps.n_sites):
        mps.apply_1q(site, cycle.kick)
    for layer in cycle.layers:
        seen: set[int] = set()
        spans = []
        for i, j, gate in layer:
            if i in seen or j in seen or i == j:
                raise ValueError(f"layer gates overlap at qubits ({i}, {j})")
            seen.update((i, j))
            spans.append((order.position[i], order.position[j], gate))
        spans.sort(key=lambda span: min(span[0], span[1]))
        for pos_i, pos_j, gate in spans:
            mps.apply_2q(pos_i, pos_j, gate)
    mps._move_center(0)


class MPSState:
    """Lattice-indexed view of an MPS evolving under a Floquet cycle.

    Exposes the same observable queries as the dense backend; qubit
    indices are lattice indices, translated internally through the unroll
    order.
    """

    def __init__(
        self,
        state: ProductState,
        order: UnrollOrder,
        chi_max: int = 64,
        cutoff: float = 1e-12,
    ):
        self.order = order
        bits_chain = state.bits[list(order.qubit_at)]
        self.mps = MPS.from_product(bits_chain, chi_max=chi_max, cutoff=cutoff)

    @property
    def n_qubits(self) -> int:
        return self.mps.n_sites

    @property
    def truncation_error(self) -> float:
        return self.mps.truncation_error

    def apply_cycle(self, cycle: GateSequence) -> None:
        evolve_cycle_mps(self.mps, cycle, self.order)

    def per_site_z(self) -> np.ndarray:
        chain_values = self.mps.per_site_z()
        return chain_values[list(self.order.position)]

    def expect_z(self, qubit: int) -> float:
        return self.mps.expect_z(self.order.position[qubit])

    def expect_zz(self, qubit_a: int, qubit_b: int) -> float:
        return self.mps.expect_zz(
            self.order.position[qubit_a], self.order.position[qubit_b]
        )

    def zz_pairs(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        chain_pairs = [
            (self.order.position[i], self.order.position[j]) for i, j in pairs
        ]
        return self.mps.zz_matrix(chain_pairs)

    def zz_matrix(self) -> np.ndarray:
        chain_matrix = self.mps.zz_matrix()
        perm = list(self.order.position)
        return chain_matrix[np.ix_(perm, perm)]

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        chain_bits = self.mps.sample_bits(shots, seed)
        return chain_bits[:, list(self.order.position)]
