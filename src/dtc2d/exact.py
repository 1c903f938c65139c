"""Dense statevector evolution. Brute-force oracle for the MPS backend.

Bit convention: qubit i with spin +1 is |0>; bit i of the basis index is
the state of qubit i (qubit 0 = least significant bit).

``apply_cycle`` compiles each Floquet cycle once into a plan of passes over
the amplitude array, which it keeps for later calls with the same cycle.
Each pass runs in place, a chunk of 2^15 amplitudes at a time that splits
no axis the pass mixes, through one 512 KB buffer per state:
- the ops are walked in cycle order, the kick on each qubit and then each
  layer's gates. An op joins the earliest block whose window of
  consecutive qubits it keeps within 5 and that no later pass acting on
  one of its qubits follows, so it commutes past every pass it skips. A
  block's matrix is its ops applied to an identity. One block is one
  matmul over the 2^k axis of the (-1, 2^k, 2^q0) view, slab by slab into
  the buffer and back;
- a gate whose own span is wider than 5 qubits mixes the four quarter
  views of each chunk, with its temporaries in quarters of the buffer. It
  goes in divided by its nonzero |00> entry, and the product of the
  divisors rides on the first block, so an XXZ gate leaves |00> and |11>
  where they lie and costs one 2x2 mix of |01>, |10>.

The backend answers three calls: ``apply_cycle``, ``zz_matrix`` and
``sample_bits``. ``zz_matrix`` reads one probability table |psi|^2, built
in the buffer a block of rows at a time: rows of the high qubits
n//2..n-1, columns of the low qubits 0..n//2-1. Its two marginals give <Z>
and the within-half <ZZ> blocks; the cross block is z_high^T P z_low.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator

import numpy as np

from .circuit import GateSequence, ProductState

MAX_QUBITS = 24
_NORM_TOL = 1e-10
_BLOCK_BITS = 5  # widest window of one fused pass: a 32x32 block
_CHUNK = 2**15  # entries of one chunk of an in-place pass: 512 KB of amplitudes


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


def _chunks(shape: tuple, keep: tuple) -> Iterator[tuple]:
    """Slice tuples tiling an array of ``shape`` in chunks of _CHUNK entries: the
    axes in ``keep`` stay whole, the others fill a chunk from the innermost out."""
    steps = [n if axis in keep else 1 for axis, n in enumerate(shape)]
    for axis in reversed(range(len(shape))):
        if axis not in keep:
            steps[axis] = min(shape[axis], max(1, _CHUNK // math.prod(steps)))
    for start in itertools.product(*(range(0, n, s) for n, s in zip(shape, steps))):
        yield tuple(slice(i, i + s) for i, s in zip(start, steps))


def _combine(row, views, states, out, scratch) -> None:
    """out = sum_t row[t] views[t] over states; out may be the first state's view."""
    first, *others = states
    np.multiply(views[first], row[first], out=out)
    for t in others:
        if row[t] != 0:
            out += np.multiply(views[t], row[t], out=scratch)


def _compile(cycle: GateSequence) -> list[tuple]:
    """One cycle as its passes in order: (q0, block) or (qubit_a, qubit_b, gate)."""
    ops = [(q, cycle.kick) for q in range(cycle.n_qubits)]
    ops += [gate for layer in cycle.layers for gate in layer]
    passes: list[tuple[set, list]] = []  # (qubits acted on, ops) of each pass
    for *qubits, gate in ops:
        # the earliest block it may join, which leaves later blocks room
        # (the newest one would make the 1x2 cycle 11 blocks, not 9)
        home = None
        for touched, members in reversed(passes):
            window = touched.union(qubits)
            if max(window) - min(window) < _BLOCK_BITS:
                home = touched, members
            if not touched.isdisjoint(qubits):
                break
        if home is None:
            home = set(), []
            passes.append(home)
        home[0].update(qubits)
        home[1].append((qubits, gate))
    plan, phase = [], 1.0
    for touched, members in passes:
        lo, hi = min(touched), max(touched)
        k = hi - lo + 1
        if k > _BLOCK_BITS:  # one gate wider than a window
            (i, j), gate = members[0]
            # it goes in divided by its nonzero |00> entry, and entries equal
            # to that become exactly 1 (x / x need not round to 1), a phase
            # apply_2q skips; the product of the divisors rides on the first
            # block
            divisor = gate[0, 0] or 1.0
            phase *= divisor
            plan.append((i, j, np.where(gate == divisor, 1, gate / divisor)))
            continue
        # the block's matrix is an identity whose row index, qubits k..2k-1
        # of a 2k-qubit state, has had its ops applied
        block = StateVector(np.eye(2**k, dtype=complex).reshape(-1), 2 * k)
        for qubits, gate in members:
            if len(qubits) == 1:
                block._apply_block(k + qubits[0] - lo, gate)
            else:
                block.apply_2q(*(k + q - lo for q in qubits), gate)
        plan.append((lo, block.amplitudes.reshape(2**k, 2**k)))
    q0, first = plan[0]  # the kick on qubit 0 opens the first pass, a block
    plan[0] = q0, first * phase
    return plan


class StateVector:
    def __init__(self, amplitudes: np.ndarray, n_qubits: int):
        check_capacity(n_qubits)
        if amplitudes.shape != (2**n_qubits,):
            raise ValueError("amplitude array has wrong length")
        # an owned contiguous copy: two-qubit gates update it in place
        self._own(np.array(amplitudes, dtype=complex), n_qubits)

    def _own(self, amplitudes: np.ndarray, n_qubits: int) -> None:
        """Take ``amplitudes``, a contiguous complex array no caller holds."""
        self.amplitudes = amplitudes
        # every pass runs through it a chunk at a time: _CHUNK amplitudes, or
        # more where one chunk holds a whole 2^5 block axis or table row
        size = max(_CHUNK, 2**_BLOCK_BITS, 2 ** (n_qubits // 2))
        self._buffer = np.empty(min(size, 2**n_qubits), dtype=complex)
        self.n_qubits = n_qubits
        self._plan = None, []  # the last cycle run and its compiled passes

    @classmethod
    def from_product(cls, state: ProductState) -> "StateVector":
        n = state.n_qubits
        check_capacity(n)
        amplitudes = np.zeros(2**n, dtype=complex)
        index = int(np.sum(state.bits.astype(np.int64) << np.arange(n)))
        amplitudes[index] = 1.0
        fresh = cls.__new__(cls)
        fresh._own(amplitudes, n)  # the new array needs no copy
        return fresh

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range for n={self.n_qubits}")

    def _apply_block(self, q0: int, block: np.ndarray) -> None:
        """Apply a 2^k x 2^k gate to qubits q0..q0+k-1 (bit j of its index = qubit q0+j)."""
        psi = self.amplitudes.reshape(-1, len(block), 2**q0)
        for index in _chunks(psi.shape, keep=(1,)):
            slab = psi[index]
            out = self._buffer[: slab.size].reshape(slab.shape)
            if q0 == 0:  # one gemm over rows of 2^k amplitudes
                np.matmul(slab[..., 0], block.T, out=out[..., 0])
            else:
                np.matmul(block, slab, out=out)
            slab[...] = out

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
        psi = self.amplitudes.reshape(-1, 2, 2 ** (hi - lo - 1), 2, 2**lo)
        groups = [s for s in _mixed_groups(g) if len(s) > 1 or g[s[0], s[0]] != 1]
        for index in _chunks(psi.shape, keep=(1, 3)):
            chunk = psi[index]
            views = [chunk[:, h, :, l, :] for h in (0, 1) for l in (0, 1)]
            temps = self._buffer[: chunk.size].reshape((4,) + views[0].shape)
            for group in groups:
                *rest, last = group
                # the new values of all but the last state go to quarters of
                # the buffer, so every product still reads the old amplitudes
                for s, fresh in zip(rest, temps):
                    _combine(g[s], views, group, fresh, temps[3])
                _combine(g[last], views, (last, *rest), views[last], temps[3])
                for s, fresh in zip(rest, temps):
                    views[s][...] = fresh

    def apply_cycle(self, cycle: GateSequence) -> None:
        if cycle.n_qubits != self.n_qubits:
            raise ValueError("cycle and state have different qubit counts")
        if self._plan[0] is not cycle:
            self._plan = cycle, _compile(cycle)
        for step in self._plan[1]:
            if len(step) == 2:  # (q0, block)
                self._apply_block(*step)
            else:  # (qubit_a, qubit_b, gate), wider than a block
                self.apply_2q(*step)
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
        psi = self.amplitudes.reshape(-1, 2**k)
        z_hi, z_lo = _z_table(self.n_qubits - k), _z_table(k)
        p_lo, p_hi = np.zeros(2**k), np.empty(len(psi))
        cross = np.empty((len(psi), k))  # table @ z_lo
        for rows, _ in _chunks(psi.shape, keep=(1,)):
            table = self._buffer.view(np.float64)[: psi[rows].size].reshape(-1, 2**k)
            np.square(np.abs(psi[rows], out=table), out=table)
            p_lo += table.sum(axis=0)
            p_hi[rows] = table.sum(axis=1)
            np.matmul(table, z_lo, out=cross[rows])
        matrix = np.empty((self.n_qubits, self.n_qubits))
        matrix[:k, :k] = z_lo.T @ (p_lo[:, None] * z_lo)
        matrix[k:, k:] = z_hi.T @ (p_hi[:, None] * z_hi)
        matrix[k:, :k] = z_hi.T @ cross
        matrix[:k, k:] = matrix[k:, :k].T
        np.fill_diagonal(matrix, 1.0)
        return np.concatenate([p_lo @ z_lo, p_hi @ z_hi]), matrix

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        """Sample bitstrings from |amplitude|^2; returns (shots, n) bit array."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        probs = self.probabilities()
        probs /= probs.sum()
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        bits = (outcomes[:, None] >> np.arange(self.n_qubits)) & 1
        return bits.astype(np.uint8)

