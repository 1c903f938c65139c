"""Kicked-XXZ Floquet circuits on heavy-hex lattices.

Simulation backends (dense statevector and matrix product states), the
full set of time-crystal diagnostics, synthetic noise injection, and the
matching signal-recovery stack.

`import dtc2d` imports no submodule, and so no numpy: the CLI sets its
BLAS thread policy before numpy loads. Names come from their modules,
such as `dtc2d.lattice.build_lattice` or `dtc2d.circuit.build_cycle`.
"""

__version__ = "0.1.0"
