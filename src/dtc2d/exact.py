"""Dense statevector evolution. Brute-force oracle for the MPS backend.

Bit convention: qubit i with spin +1 is |0>; bit i of the basis index is
the state of qubit i (qubit 0 = least significant bit).

Gates act on reshaped views of the amplitude array, with one spare array of
the same size for their results and temporaries:
- a block gate on the k adjacent qubits q0..q0+k-1 is one matmul over the
  (-1, 2^k, 2^q0) view into the spare, which then swaps with the amplitudes.
  The kick goes in ceil(n/5) passes of kick^(x)5 blocks;
- a two-qubit gate mixes the four quarter views in place (an adjacent pair
  below qubit 3: the block kron(gate, I)). A cycle divides each gate by its
  nonzero |00> entry and applies their product once, so XXZ leaves |00> and
  |11> where they lie and costs one 2x2 mix of |01>, |10>.

The backend answers three calls: ``apply_cycle``, ``zz_matrix`` and
``sample_bits``. ``zz_matrix`` reads one probability table |psi|^2, split
into rows of the high qubits n//2..n-1 and columns of the low qubits
0..n//2-1. Its two marginals give <Z> and the within-half <ZZ> blocks; the
cross block is z_high^T P z_low.
"""
from __future__ import annotations

import warnings
from functools import reduce

import numpy as np

from .circuit import GateSequence, ProductState

MAX_QUBITS = 24
_NORM_TOL = 1e-10
_KICK_GROUP = 5  # qubits per kick pass: one 32x32 block


class CapacityError(ValueError):
    """Raised when a statevector would exceed the dense-backend qubit cap."""


def check_capacity(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"dense backend capped at {MAX_QUBITS} qubits, got {n_qubits}")


def _z_table(m: int) -> np.ndarray:
    """(2^m, m) table of Z eigenvalues: entry [x, j] is +1 or -1 by bit j of x."""
    indices = np.arange(2**m, dtype=np.int64)
    return 1.0 - 2.0 * ((indices[:, None] >> np.arange(m)) & 1)


def _mixed_groups(gate: np.ndarray) -> list[tuple[int, ...]]:
    """Split the pair states 0..3 into the groups a 4x4 gate mixes."""
    coupled = ((gate != 0) | (gate != 0).T).tolist()
    label = list(range(4))
    for s in range(4):
        for t in range(s + 1, 4):
            if coupled[s][t] and label[t] != label[s]:
                merged = label[t]
                label = [label[s] if x == merged else x for x in label]
    return [tuple(s for s in range(4) if label[s] == x) for x in sorted(set(label))]


def _combine(row, views, states, out, scratch) -> None:
    """out = sum_t row[t] views[t] over states; out may be the first state's view."""
    first, *others = states
    np.multiply(views[first], row[first], out=out)
    for t in others:
        if row[t] != 0:
            out += np.multiply(views[t], row[t], out=scratch)


class StateVector:
    def __init__(self, amplitudes: np.ndarray, n_qubits: int):
        check_capacity(n_qubits)
        if amplitudes.shape != (2**n_qubits,):
            raise ValueError("amplitude array has wrong length")
        # an owned contiguous copy: two-qubit gates update it in place
        self.amplitudes = np.array(amplitudes, dtype=complex)
        # block gates write into the spare and swap; mixes keep temporaries in it
        self._spare = np.empty_like(self.amplitudes)
        self.n_qubits = n_qubits

    @classmethod
    def from_product(cls, state: ProductState) -> "StateVector":
        n = state.n_qubits
        check_capacity(n)
        amplitudes = np.zeros(2**n, dtype=complex)
        index = int(np.sum(state.bits.astype(np.int64) << np.arange(n)))
        amplitudes[index] = 1.0
        return cls(amplitudes, n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range for n={self.n_qubits}")

    def _apply_block(self, q0: int, block: np.ndarray) -> None:
        """Apply a 2^k x 2^k gate to qubits q0..q0+k-1 (bit j of its index = qubit q0+j)."""
        shape = (-1, len(block), 2**q0)
        psi, out = self.amplitudes.reshape(shape), self._spare.reshape(shape)
        if q0 == 0:  # one gemm over rows of 2^k amplitudes
            np.matmul(psi[..., 0], block.T, out=out[..., 0])
        else:
            np.matmul(block, psi, out=out)
        self.amplitudes, self._spare = self._spare, self.amplitudes

    def apply_2q(self, qubit_a: int, qubit_b: int, gate: np.ndarray) -> None:
        if qubit_a == qubit_b:
            raise ValueError("two-qubit gate needs distinct qubits")
        self._check(qubit_a)
        self._check(qubit_b)
        g = np.asarray(gate).reshape(2, 2, 2, 2)  # (out_a, out_b, in_a, in_b)
        if qubit_a < qubit_b:  # index the pair states as 2 * high bit + low bit
            g = g.transpose(1, 0, 3, 2)
        g = g.reshape(4, 4)
        lo, hi = sorted((qubit_a, qubit_b))
        if hi == lo + 1 and lo < 3:
            # quarter views would loop over 2^lo amplitudes; this is one gemm
            self._apply_block(0, np.kron(g, np.eye(2**lo)))
            return
        psi = self.amplitudes.reshape(-1, 2, 2 ** (hi - lo - 1), 2, 2**lo)
        views = [psi[:, h, :, l, :] for h in (0, 1) for l in (0, 1)]
        spare = self._spare.reshape((4,) + views[0].shape)
        for group in _mixed_groups(g):
            *rest, last = group
            if not rest and g[last, last] == 1:
                continue
            # the new values of all but the last state go to quarters of the
            # spare, so every product still reads the old amplitudes
            for s, fresh in zip(rest, spare):
                _combine(g[s], views, group, fresh, spare[3])
            _combine(g[last], views, (last, *rest), views[last], spare[3])
            for s, fresh in zip(rest, spare):
                views[s][...] = fresh

    def apply_cycle(self, cycle: GateSequence) -> None:
        if cycle.n_qubits != self.n_qubits:
            raise ValueError("cycle and state have different qubit counts")
        # each gate goes in divided by its nonzero |00> entry, and entries equal
        # to it become exactly 1 (x / x need not round to 1), a phase apply_2q
        # skips; the product of the divisors rides on the first kick pass
        gates = [(i, j, gate) for layer in cycle.layers for i, j, gate in layer]
        divisors = [gate[0, 0] or 1.0 for _, _, gate in gates]
        phase = np.prod(divisors)
        for q0 in range(0, self.n_qubits, _KICK_GROUP):
            k = min(_KICK_GROUP, self.n_qubits - q0)
            self._apply_block(q0, reduce(np.kron, [cycle.kick] * k, phase))
            phase = 1.0
        for (i, j, gate), divisor in zip(gates, divisors):
            self.apply_2q(i, j, np.where(gate == divisor, 1, gate / divisor))
        drift = abs(self.norm() - 1.0)
        if drift > _NORM_TOL:
            warnings.warn(f"norm drifted by {drift:.2e}; renormalizing")
            self.amplitudes /= self.norm()

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def zz_matrix(self, pairs=None) -> tuple[np.ndarray, np.ndarray]:
        """<Z_i> and the full <Z_i Z_j> matrix (diagonal = 1).

        ``pairs`` is ignored: the one table gives every entry at the same cost.
        """
        k = self.n_qubits // 2
        table = self.probabilities().reshape(-1, 2**k)
        z_hi, z_lo = _z_table(self.n_qubits - k), _z_table(k)
        p_lo, p_hi = table.sum(axis=0), table.sum(axis=1)
        matrix = np.empty((self.n_qubits, self.n_qubits))
        matrix[:k, :k] = z_lo.T @ (p_lo[:, None] * z_lo)
        matrix[k:, k:] = z_hi.T @ (p_hi[:, None] * z_hi)
        matrix[k:, :k] = z_hi.T @ (table @ z_lo)
        matrix[:k, k:] = matrix[k:, :k].T
        np.fill_diagonal(matrix, 1.0)
        return np.concatenate([p_lo @ z_lo, p_hi @ z_hi]), matrix

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        """Sample bitstrings from |amplitude|^2; returns (shots, n) bit array."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        probs = self.probabilities()
        probs = probs / probs.sum()
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        bits = (outcomes[:, None] >> np.arange(self.n_qubits)) & 1
        return bits.astype(np.uint8)

