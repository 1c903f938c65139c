"""Matrix-product-state evolution of the unrolled lattice.

One class, ``MPSState``, holds the chain of site tensors and the unroll
order that maps lattice qubits to chain positions. Site tensors have shape
(left_bond, 2, right_bond) and are indexed by chain position. Between
cycles the state is right-canonical with the orthogonality center at site
0, so expectation values close with identity environments on the right.

A two-qubit gate on chain positions a < b acts on its span only. The
center moves to a by QR, and the gate splits by SVD into factors on a and
b joined by a bond k <= 4 that passes through the sites between. Call the
span's tensors with the gate on them X_a ... X_b. A sweep a -> b keeps only
the R factor of each M_i = R_{i-1} X_i (M_a = X_a). A truncating SVD sweep
b -> a cuts C_i = R_{i-1} F_i (F_b = X_b): site i keeps the leading rows of
V^H and F_{i-1} = X_{i-1} F_i V, since Q_{i-1} U S = M_{i-1} F_i V. So no
Q is formed, and site a gets F_a, the new center. Each cut is a Schmidt cut
of the whole state, so keeping the chi_max largest singular values is the
optimal truncation there; when chi_max does not bind the result is exact
up to the singular-value floor.

Like the dense backend, ``MPSState`` answers ``apply_cycle``,
``zz_matrix`` and ``sample_bits`` in lattice qubit indices, translated to
chain positions through the unroll order. ``zz_matrix`` reads <Z> and <ZZ>
in one left-to-right sweep of left environments, each stored (bra bond,
ket bond). The sweep carries a stack: the plain environment, then one open
Z-string for each earlier site. At each site one contraction with the
Z-signed tensor closes every entry of the stack against the
right-canonical rest (the plain entry gives <Z_j>, the string of site i
gives <Z_i Z_j>) and opens the string of site j; one contraction with the
plain tensor carries the stack on. Without ``pairs`` every string lives to
the end; with ``pairs`` each one is dropped after its site's last partner.
"""
from __future__ import annotations

import warnings

import numpy as np

from .circuit import GateSequence, ProductState
from .lattice import UnrollOrder

_Z_SIGNS = np.array([1.0, -1.0])[:, None]  # Z eigenvalue of each physical index
_GATE_SPLIT_TOL = 1e-14
_NORM_TOL = 1e-10  # a gate center's norm^2 against its kept weight; <Z>, <ZZ> past +-1


def _svd(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        # the divide-and-conquer driver did not converge: factor the square
        # R of a QR instead, of the matrix if tall, of its adjoint if wide
        if matrix.shape[0] >= matrix.shape[1]:
            q, r = np.linalg.qr(matrix)
            u, s, vh = np.linalg.svd(r)
            return q @ u, s, vh
        q, r = np.linalg.qr(matrix.conj().T)
        u, s, vh = np.linalg.svd(r)
        return vh.conj().T, s, (q @ u).conj().T


def _qr(matrix: np.ndarray, mode: str = "reduced"):
    """QR as ``np.linalg.qr`` (mode "r": R only). A matrix with no more rows
    than columns would get a square unitary Q and keep its bond, so it is its
    own R, with Q = I (exact)."""
    if matrix.shape[0] <= matrix.shape[1]:
        return matrix if mode == "r" else (np.eye(len(matrix), dtype=matrix.dtype), matrix)
    return np.linalg.qr(matrix, mode=mode)


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``a`` with the first axis of ``b``."""
    k = a.shape[-1]
    product = a.reshape(-1, k) @ b.reshape(k, -1)
    return product.reshape(a.shape[:-1] + b.shape[1:])


def _env_step(half: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Close the bra side of a stack of environments one site on.

    ``half`` is a stack (entry, bra, p, ket) whose ket side already holds
    the site tensor, from ``_contract(stack, tensor)``; ``bra`` is the
    (bra, p, r) tensor of the bra side. Returns the stack (entry, bra, ket)
    of environments after the site.
    """
    k, left, d, right = half.shape
    kets = half.transpose(1, 2, 0, 3).reshape(left * d, k * right)
    closed = _contract(bra.reshape(left * d, -1).conj().T, kets)  # (r, entry * ket)
    return closed.reshape(-1, k, right).transpose(1, 0, 2)


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


class MPSState:
    """MPS of the unrolled lattice evolving under a Floquet cycle.

    Answers the same three calls as the dense backend, in lattice qubit
    indices; ``position`` maps each lattice qubit to its chain position.
    ``chi_max`` caps every bond and ``cutoff`` is the singular-value floor.
    ``center`` is the site of the orthogonality center: sites left of it
    are left-isometries, sites right of it right-isometries, and the center
    tensor carries the norm. ``truncation_error`` accumulates the discarded
    weight of every SVD (sum over truncations of the discarded squared
    singular values, normalized per truncation); it stays 0 while chi_max
    never binds.
    """

    def __init__(
        self,
        state: ProductState,
        order: UnrollOrder,
        chi_max: int = 64,
        cutoff: float = 1e-12,
    ):
        self.position = np.asarray(order.position)
        self.chi_max = int(chi_max)
        self.cutoff = float(cutoff)
        self.truncation_error = 0.0
        self.center = 0
        self.tensors = []
        for b in state.bits[list(order.qubit_at)]:
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, int(b), 0] = 1.0
            self.tensors.append(t)

    @property
    def bond_dims(self) -> list[int]:
        return [t.shape[2] for t in self.tensors[:-1]]

    def apply_cycle(self, cycle: GateSequence) -> None:
        """Apply one Floquet cycle in place: kicks, then the three layers.

        Single-qubit kicks act directly on site tensors (exact, no
        truncation). The gates of a layer act on disjoint qubits, so they
        commute; they are applied in order of their left chain end, which
        keeps the center moving rightward. The cycle ends with the center
        back at site 0.
        """
        for site, t in enumerate(self.tensors):
            self.tensors[site] = np.einsum("qp,apb->aqb", cycle.kick, t)
        for layer in cycle.layers:
            spans = [(self.position[i], self.position[j], gate) for i, j, gate in layer]
            for pos_i, pos_j, gate in sorted(spans, key=lambda s: min(s[0], s[1])):
                self._apply_2q(pos_i, pos_j, gate)
        self._move_center(0)

    def _apply_2q(self, site_a: int, site_b: int, gate: np.ndarray) -> None:
        """Apply a gate indexed (out_a, out_b, in_a, in_b) to chain sites a, b.

        The sweeps of the module docstring leave the center at a. Its squared
        norm must be the product of the cuts' kept weight fractions; a drift
        beyond ``_NORM_TOL`` warns before the state is renormalized.
        """
        n = len(self.tensors)
        if site_a == site_b or not (0 <= site_a < n and 0 <= site_b < n):
            raise ValueError(f"invalid gate span ({site_a}, {site_b}) on {n} sites")
        if site_a > site_b:
            gate = gate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            site_a, site_b = site_b, site_a
        left, right = _split_gate(gate)
        rank = left.shape[2]
        self._move_center(site_a)
        # sweep a -> b, keeping R_i of M_i reshaped ((m, p), (k, s))
        x_a = np.einsum("qpk,lpr->lqkr", left, self.tensors[site_a])
        rs = [_qr(x_a.reshape(-1, rank * x_a.shape[3]), "r")]
        for t in self.tensors[site_a + 1 : site_b]:
            m = _contract(rs[-1].reshape(len(rs[-1]), rank, -1), t)  # (m, k, p, s)
            rs.append(_qr(m.transpose(0, 2, 1, 3).reshape(2 * len(m), -1), "r"))
        # truncating sweep b -> a; S and V of C_i are those of its R factor
        f = np.einsum("kqp,rps->krqs", right, self.tensors[site_b])  # X_b
        kept = 1.0
        for i in range(site_b, site_a, -1):
            r = rs.pop()  # R_{i-1}
            f = f.reshape(r.shape[1], -1)  # ((k, r), (p, s))
            _, s, vh = _svd(_qr(r @ f, "r"))
            bond = self._keep(s)
            total = float(np.sum(s**2))
            if total > 0:
                discarded = float(np.sum(s[bond:] ** 2)) / total
                self.truncation_error += discarded
                kept *= 1.0 - discarded
            self.tensors[i] = vh[:bond].reshape(bond, 2, -1)
            e = f @ vh[:bond].conj().T  # E_i = F_i V, rows (k, r)
            if i - 1 > site_a:  # F_{i-1} = X_{i-1} E_i, batched over k
                t = self.tensors[i - 1]
                f = t.reshape(-1, t.shape[2]) @ e.reshape(rank, t.shape[2], bond)
        center = (x_a.reshape(-1, len(e)) @ e).reshape(-1, 2, e.shape[1])
        nrm = np.linalg.norm(center)
        if (drift := abs(nrm**2 - kept)) > _NORM_TOL:
            warnings.warn(f"norm^2 drifted by {drift:.2e} from the kept weight; renormalizing")
        self.tensors[site_a] = center / nrm if nrm > 0 else center

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

    def _keep(self, s: np.ndarray) -> int:
        return max(1, min(self.chi_max, int(np.sum(s > self.cutoff))))

    def zz_matrix(self, pairs=None) -> tuple[np.ndarray, np.ndarray]:
        """<Z_q> for every qubit and the <Z_p Z_q> matrix (diagonal = 1).

        ``pairs`` (lattice qubits, in any order) limits the matrix to those
        entries. The sweep runs over chain sites: site i opens a Z-string
        only if it pairs with a later site, and the sweep drops it after the
        last one; entries it never reaches stay NaN. Needs right-canonical
        form (center at site 0): the sites right of j then close each
        environment with the identity, which is a trace. Values are clipped
        to [-1, 1]; one beyond by more than ``_NORM_TOL`` warns first.
        """
        n = len(self.tensors)
        if pairs is None:
            reach = np.full(n, n - 1)
        else:
            chain_pairs = self.position[np.asarray(pairs, dtype=int)]
            a, b = np.sort(chain_pairs.reshape(-1, 2), axis=1).T
            reach = np.arange(n)
            np.maximum.at(reach, a, b)
        # site 0 carries the norm; the rest is right-canonical
        norm_sq = float(np.linalg.norm(self.tensors[0]) ** 2)
        z = np.empty(n)
        matrix = np.full((n, n), np.nan)
        np.fill_diagonal(matrix, 1.0)
        stack = np.ones((1, 1, 1), dtype=complex)
        strings = np.empty(0, dtype=int)  # the site of each open string
        for j, tensor in enumerate(self.tensors):
            signed = tensor * _Z_SIGNS
            half = _contract(stack, tensor)  # (entry, bra, p, ket)
            closed = _contract(half.reshape(len(stack), -1), signed.conj().reshape(-1))
            closed = closed.real / norm_sq
            z[j] = closed[0]
            matrix[strings, j] = matrix[j, strings] = closed[1:]
            alive = reach[strings] > j
            if not alive.all():
                half = half[np.concatenate([[True], alive])]
                strings = strings[alive]
            stack = _env_step(half, tensor)
            if reach[j] > j:
                stack = np.concatenate([stack, _env_step(half[:1], signed)])
                strings = np.append(strings, j)
        if (excess := max(np.abs(z).max(), np.nanmax(np.abs(matrix))) - 1.0) > _NORM_TOL:
            warnings.warn(f"<Z> or <ZZ> lay {excess:.2e} beyond +-1; clipping")
        z, matrix = np.clip(z, -1.0, 1.0), np.clip(matrix, -1.0, 1.0)
        return z[self.position], matrix[np.ix_(self.position, self.position)]

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        """Perfect sampling from the MPS; returns (shots, n) bit array.

        Sites are drawn in chain order and the columns returned in lattice
        qubit order. Requires right-canonical form (center at site 0), which
        ``apply_cycle`` restores after every cycle. Vectorized over shots.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        n = len(self.tensors)
        bits = np.empty((shots, n), dtype=np.uint8)
        t0 = self.tensors[0] / np.linalg.norm(self.tensors[0])
        vec = np.ones((shots, 1), dtype=complex)
        for i in range(n):
            t = self.tensors[i] if i > 0 else t0
            branch0 = _contract(vec, t[:, 0, :])
            branch1 = _contract(vec, t[:, 1, :])
            w0 = np.sum(np.abs(branch0) ** 2, axis=1)
            w1 = np.sum(np.abs(branch1) ** 2, axis=1)
            p1 = w1 / (w0 + w1)
            outcome = (rng.random(shots) < p1).astype(np.uint8)
            bits[:, i] = outcome
            vec = np.where(outcome[:, None] == 1, branch1, branch0)
            scale = np.sqrt(np.where(outcome == 1, w1, w0))
            vec = vec / scale[:, None]
        return bits[:, self.position]
