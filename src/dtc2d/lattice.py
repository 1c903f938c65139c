"""Decorated (heavy) hexagonal lattices and their three-layer gate schedules.

A heavy-hex lattice is a honeycomb lattice with one extra qubit placed on
every edge. We draw the honeycomb in brick-wall form: ``rows`` x ``cols``
hexagon "bricks", each 4 columns wide, with consecutive brick rows shifted
by half a brick. Qubits live on horizontal lines (hexagon corners, the
mid-vertices where bricks meet, and the edge-decoration qubits between
them) and on the vertical brick sides (one connector qubit per side).

The resulting graph is subcubic and bipartite; its edges are partitioned
into three non-overlapping layers so that gates within one layer act on
disjoint qubit pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

Edge = tuple[int, int]

# A brick is 4 columns wide; odd hexagon rows are shifted by half a brick.
_BRICK_WIDTH = 4


def _row_offset(row: int) -> int:
    return 0 if row % 2 == 0 else _BRICK_WIDTH // 2


@dataclass(frozen=True)
class HeavyHexLattice:
    """Heavy-hex qubit graph with edge layers and a sublattice bipartition.

    ``sites`` records the geometry of each qubit: ``("line", l, x)`` for a
    qubit at column ``x`` of horizontal line ``l`` (lines are indexed
    0..rows), or ``("conn", r, x)`` for the connector on the vertical brick
    side at column ``x`` between lines ``r`` and ``r+1``.
    """

    rows: int
    cols: int
    n_qubits: int
    edges: tuple[Edge, ...]
    layer_of_edge: dict[Edge, int]
    bipartition: tuple[int, ...]
    sites: tuple[tuple[str, int, int], ...]

    def edges_in_layer(self, layer: int) -> list[Edge]:
        return [e for e in self.edges if self.layer_of_edge[e] == layer]

    def to_json(self) -> str:
        """Export as JSON: n_qubits, edges as [i, j, layer], bipartition."""
        payload = {
            "n_qubits": self.n_qubits,
            "edges": [[i, j, self.layer_of_edge[(i, j)]] for i, j in self.edges],
            "bipartition": list(self.bipartition),
        }
        return json.dumps(payload)


@dataclass(frozen=True)
class UnrollOrder:
    """Bijection between lattice qubit indices and 1D chain positions."""

    position: tuple[int, ...]  # qubit index -> chain position

    @property
    def qubit_at(self) -> tuple[int, ...]:
        """Inverse permutation: chain position -> qubit index."""
        inv = [0] * len(self.position)
        for qubit, pos in enumerate(self.position):
            inv[pos] = qubit
        return tuple(inv)


def _line_columns(rows: int, cols: int, line: int) -> list[int]:
    """Columns occupied by horizontal line ``line`` (0..rows)."""
    xs: set[int] = set()
    if line >= 1:  # bottom boundary of the brick row above
        start = _row_offset(line - 1)
        xs.update(range(start, start + _BRICK_WIDTH * cols + 1))
    if line <= rows - 1:  # top boundary of the brick row below
        start = _row_offset(line)
        xs.update(range(start, start + _BRICK_WIDTH * cols + 1))
    return sorted(xs)


def build_lattice(rows: int, cols: int) -> HeavyHexLattice:
    """Construct the heavy-hex lattice of ``rows`` x ``cols`` hexagons.

    Deterministic. Reproduces the reference qubit counts: (1,1) -> 12,
    (2,2) -> 35, (3,3) -> 68, (3,7) -> 144.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice must have at least one hexagon, got {rows}x{cols}")

    index: dict[tuple[str, int, int], int] = {}
    sites: list[tuple[str, int, int]] = []

    def add(site: tuple[str, int, int]) -> None:
        index[site] = len(sites)
        sites.append(site)

    for line in range(rows + 1):
        for x in _line_columns(rows, cols, line):
            add(("line", line, x))
        if line <= rows - 1:
            for k in range(cols + 1):
                add(("conn", line, _row_offset(line) + _BRICK_WIDTH * k))

    edges: list[Edge] = []
    for line in range(rows + 1):
        xs = _line_columns(rows, cols, line)
        for a, b in zip(xs, xs[1:]):
            edges.append((index[("line", line, a)], index[("line", line, b)]))
    for r in range(rows):
        for k in range(cols + 1):
            x = _row_offset(r) + _BRICK_WIDTH * k
            c = index[("conn", r, x)]
            edges.append((index[("line", r, x)], c))
            edges.append((c, index[("line", r + 1, x)]))

    canonical = tuple(sorted(tuple(sorted(e)) for e in edges))
    layers = color_layers_from_sites(tuple(sites), index, rows, cols)

    # The graph is bipartite: line qubits by column parity, connectors opposite.
    bipartition = tuple(
        x % 2 if kind == "line" else (x + 1) % 2 for kind, _, x in sites
    )
    for i, j in canonical:
        if bipartition[i] == bipartition[j]:
            raise RuntimeError(f"bipartition inconsistent on edge {(i, j)}")

    lattice = HeavyHexLattice(
        rows=rows,
        cols=cols,
        n_qubits=len(sites),
        edges=canonical,
        layer_of_edge=layers,
        bipartition=bipartition,
        sites=tuple(sites),
    )
    _validate_layers(lattice)
    return lattice


def color_layers_from_sites(
    sites: tuple[tuple[str, int, int], ...],
    index: dict[tuple[str, int, int], int],
    rows: int,
    cols: int,
) -> dict[Edge, int]:
    """Three-layer schedule: cyclic assignment for vertical edges, greedy for
    horizontal ones.

    The two halves of each vertical brick side get layers ``(r + k) mod 3``
    and ``(r + k + 2) mod 3`` (row r, side k). Both halves join chain
    neighbours in ``unroll``'s column sweep; gate spans follow from that
    order alone, whatever the layers. Horizontal edges are colored greedily
    left to right; attachment points of vertical edges are at least two
    columns apart, so a free layer always exists.
    """
    layers: dict[Edge, int] = {}
    forbidden: dict[tuple[str, int, int], int] = {}

    def put(i: int, j: int, layer: int) -> None:
        layers[(min(i, j), max(i, j))] = layer + 1  # layers reported as 1..3

    for r in range(rows):
        for k in range(cols + 1):
            x = _row_offset(r) + _BRICK_WIDTH * k
            top = (r + k) % 3
            bottom = (r + k + 2) % 3
            c = index[("conn", r, x)]
            put(index[("line", r, x)], c, top)
            put(c, index[("line", r + 1, x)], bottom)
            forbidden[("line", r, x)] = top
            forbidden[("line", r + 1, x)] = bottom

    for line in range(rows + 1):
        xs = _line_columns(rows, cols, line)
        previous = -1
        for a, b in zip(xs, xs[1:]):
            used = {
                previous,
                forbidden.get(("line", line, a), -1),
                forbidden.get(("line", line, b), -1),
            }
            free = [c for c in (0, 1, 2) if c not in used]
            if not free:
                raise RuntimeError(
                    f"no free layer for edge at line {line}, columns {a}-{b}"
                )
            put(index[("line", line, a)], index[("line", line, b)], free[0])
            previous = free[0]

    return layers


def _validate_layers(lattice: HeavyHexLattice) -> None:
    if set(lattice.layer_of_edge) != set(lattice.edges):
        raise RuntimeError("layer map does not cover the edge set exactly")
    for layer in (1, 2, 3):
        seen: set[int] = set()
        for i, j in lattice.edges_in_layer(layer):
            if i in seen or j in seen:
                raise RuntimeError(f"layer {layer} is not a matching at qubit {i},{j}")
            seen.update((i, j))


def unroll(lattice: HeavyHexLattice) -> UnrollOrder:
    """Sweep the 2D lattice onto a 1D chain, column by column, for the MPS backend.

    Each x column (line qubits and connectors) is one stretch of the chain,
    by height (line l at 2l, the connector below it at 2l + 1): up in even
    columns, down in odd ones. The MPS cost of a cycle grows with the sum of
    its gate spans: 94 chain sites on the 2x2 lattice, 593 on 3x7.
    """

    def key(qubit: int) -> tuple[int, int]:
        kind, level, x = lattice.sites[qubit]
        return x, (-1) ** x * (2 * level + (kind == "conn"))  # signed height

    position = [0] * lattice.n_qubits
    for pos, qubit in enumerate(sorted(range(lattice.n_qubits), key=key)):
        position[qubit] = pos
    return UnrollOrder(position=tuple(position))
