"""Floquet cycle construction: disorder, XXZ gates, global X kick, initial states.

One cycle applies a global X rotation by angle phi to every qubit, then the
three two-qubit gate layers of the lattice schedule. The two-qubit gate on
edge (i, j) is exp[-i J (eps XX + eps YY + ZZ)] with J drawn once per edge
from the uniform disorder distribution on [0.5, 1.5].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Edge, HeavyHexLattice

# largest entry a Clifford kick may have where I or X has a zero; cos(pi/2)
# rounds to 6e-17
_KICK_ROUNDING = 1e-15


@dataclass(frozen=True)
class FloquetParams:
    """Spin-flip coupling strength and kick angle (radians)."""

    epsilon: float
    phi: float

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0 <= self.phi <= math.pi / 2 + 1e-12:
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi}")


@dataclass(frozen=True)
class ProductState:
    """Computational-basis product state; spins[i] in {-1, +1}."""

    spins: np.ndarray

    def __post_init__(self) -> None:
        spins = np.asarray(self.spins, dtype=np.int64)
        if not np.all(np.isin(spins, (-1, 1))):
            raise ValueError("spins must be +1 or -1")
        object.__setattr__(self, "spins", spins)

    @property
    def n_qubits(self) -> int:
        return len(self.spins)

    @property
    def bits(self) -> np.ndarray:
        """Bit encoding: spin +1 -> 0, spin -1 -> 1."""
        return ((1 - self.spins) // 2).astype(np.uint8)


class CliffordState:
    """A basis state under Clifford-point cycles, tracked without a backend.

    At epsilon = 0 every two-qubit gate is diagonal, and at phi = 0 or pi/2
    the kick is I or -iX, so each cycle maps a basis state to one basis
    state up to a phase (Gottesman, arXiv:quant-ph/9807006). The state is
    its spins, and it answers the backends' three calls exactly.
    """

    def __init__(self, state: ProductState):
        self.spins = state.spins

    def apply_cycle(self, cycle: GateSequence) -> None:
        """Flip every spin if the kick is off-diagonal (proportional to X).

        Raises unless the cycle permutes basis states: every gate diagonal,
        the kick diagonal (I) or off-diagonal (X) up to _KICK_ROUNDING.
        """
        gates = [gate for layer in cycle.layers for _, _, gate in layer]
        if any(np.count_nonzero(gate - np.diag(np.diag(gate))) for gate in gates):
            raise ValueError("a Clifford state takes only diagonal two-qubit gates")
        on, off = np.abs(np.diag(cycle.kick)), np.abs(np.diag(cycle.kick[::-1]))
        if on.max() <= _KICK_ROUNDING:
            self.spins = -self.spins
        elif off.max() > _KICK_ROUNDING:
            raise ValueError(f"a Clifford state takes only an I or X kick, got {cycle.kick}")

    def zz_matrix(self, pairs=None) -> tuple[np.ndarray, np.ndarray]:
        """<Z> = spins and <ZZ> = their outer product, every entry exact."""
        z = self.spins.astype(float)
        return z, np.outer(z, z)

    def sample_bits(self, shots: int, seed: int) -> np.ndarray:
        """The state's one bitstring ``shots`` times; no random number is drawn."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        return np.tile(ProductState(self.spins).bits, (shots, 1))


@dataclass(frozen=True)
class GateSequence:
    """One Floquet cycle: the kick on every qubit, then layers 1, 2, 3.

    Gates within one layer act on disjoint pairs of distinct qubits (checked
    here), so their order inside the layer is irrelevant.
    """

    n_qubits: int
    kick: np.ndarray  # 2x2, applied to every qubit
    layers: tuple[tuple[tuple[int, int, np.ndarray], ...], ...]

    def __post_init__(self) -> None:
        for layer in self.layers:
            qubits = [q for i, j, _ in layer for q in (i, j)]
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"the gates of a layer overlap: {[g[:2] for g in layer]}")


def sample_disorder(lattice: HeavyHexLattice, seed: int) -> dict[Edge, float]:
    """Couplings J_ij = 1 + delta_ij, delta_ij ~ U(-0.5, 0.5), one J per edge.

    Stream layout: edge k (in canonical sorted edge order) uses the
    dedicated substream seeded by (seed, k), so realizations are
    reproducible across platforms and insensitive to evaluation order.
    """
    couplings: dict[Edge, float] = {}
    for k, edge in enumerate(lattice.edges):
        rng = np.random.default_rng([seed, k])
        couplings[edge] = 1.0 + rng.uniform(-0.5, 0.5)
    return couplings


def xxz_gate(J: float, epsilon: float) -> np.ndarray:
    """Two-qubit gate exp[-i J (eps X.X + eps Y.Y + Z.Z)].

    Computed from the block structure: |00> and |11> each acquire phase
    exp(-iJ); the {|01>, |10>} block is exp(+iJ) times a rotation mixing
    the two states with angle 2*J*eps.
    """
    same = np.exp(-1j * J)
    c = np.exp(1j * J) * math.cos(2 * J * epsilon)
    s = np.exp(1j * J) * (-1j) * math.sin(2 * J * epsilon)
    return np.array(
        [
            [same, 0, 0, 0],
            [0, c, s, 0],
            [0, s, c, 0],
            [0, 0, 0, same],
        ],
        dtype=complex,
    )


def x_kick_gate(phi: float) -> np.ndarray:
    """Single-qubit kick exp(-i phi X) = cos(phi) I - i sin(phi) X."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def build_cycle(
    lattice: HeavyHexLattice,
    couplings: dict[Edge, float],
    params: FloquetParams,
) -> GateSequence:
    """Assemble the gate sequence of one Floquet cycle."""
    if set(couplings) != set(lattice.edges):
        raise ValueError("the couplings do not match the lattice edge set")
    kick = x_kick_gate(params.phi)
    layers = []
    for layer in (1, 2, 3):
        gates = tuple(
            (i, j, xxz_gate(couplings[(i, j)], params.epsilon))
            for i, j in lattice.edges_in_layer(layer)
        )
        layers.append(gates)
    return GateSequence(n_qubits=lattice.n_qubits, kick=kick, layers=tuple(layers))


def neel_state(lattice: HeavyHexLattice) -> ProductState:
    """Alternating state: +1 on sublattice A, -1 on sublattice B."""
    spins = np.where(np.array(lattice.bipartition) == 0, 1, -1)
    return ProductState(spins=spins)


def polarized_state(lattice: HeavyHexLattice) -> ProductState:
    return ProductState(spins=np.ones(lattice.n_qubits, dtype=np.int64))


def custom_state(bitstring: str) -> ProductState:
    """Product state from a 0/1 string; bit i gives qubit i (0 -> spin +1)."""
    if not set(bitstring) <= {"0", "1"}:
        raise ValueError("bitstring must contain only 0 and 1")
    spins = np.array([1 if b == "0" else -1 for b in bitstring], dtype=np.int64)
    return ProductState(spins=spins)
