"""Kicked-XXZ Floquet circuits on heavy-hex lattices.

Simulation backends (dense statevector and matrix product states), the
full set of time-crystal diagnostics, synthetic noise injection, and the
matching signal-recovery stack.
"""

from .circuit import (
    DisorderRealization,
    FloquetParams,
    GateSequence,
    ProductState,
    build_cycle,
    neel_state,
    polarized_state,
    sample_disorder,
    x_kick_gate,
    xxz_gate,
)
from .lattice import HeavyHexLattice, UnrollOrder, build_lattice, unroll

__all__ = [
    "DisorderRealization",
    "FloquetParams",
    "GateSequence",
    "HeavyHexLattice",
    "ProductState",
    "UnrollOrder",
    "build_cycle",
    "build_lattice",
    "neel_state",
    "polarized_state",
    "sample_disorder",
    "unroll",
    "x_kick_gate",
    "xxz_gate",
]

__version__ = "0.1.0"
