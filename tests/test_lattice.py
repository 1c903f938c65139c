import hashlib
import json

import numpy as np
import pytest

from dtc2d import build_lattice, unroll

# reference geometries and their qubit counts
GEOMETRIES = {(1, 1): 12, (2, 2): 35, (3, 3): 68, (3, 7): 144}


def degree(lattice, qubit):
    return sum(1 for i, j in lattice.edges if qubit in (i, j))


@pytest.mark.parametrize("shape,expected", sorted(GEOMETRIES.items()))
def test_qubit_counts(shape, expected):
    assert build_lattice(*shape).n_qubits == expected


def test_single_hexagon_is_a_12_cycle(hexagon):
    assert hexagon.n_qubits == 12
    assert len(hexagon.edges) == 12
    assert all(degree(hexagon, q) == 2 for q in range(12))


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        build_lattice(0, 3)
    with pytest.raises(ValueError):
        build_lattice(2, 0)


@pytest.mark.parametrize("shape", sorted(GEOMETRIES))
def test_subcubic(shape):
    lat = build_lattice(*shape)
    assert max(degree(lat, q) for q in range(lat.n_qubits)) <= 3


@pytest.mark.parametrize("shape", sorted(GEOMETRIES))
def test_layers_partition_edges(shape):
    lat = build_lattice(*shape)
    assert set(lat.layer_of_edge) == set(lat.edges)
    assert set(lat.layer_of_edge.values()) <= {1, 2, 3}
    total = sum(len(lat.edges_in_layer(k)) for k in (1, 2, 3))
    assert total == len(lat.edges)


@pytest.mark.parametrize("shape", sorted(GEOMETRIES))
def test_each_layer_is_a_matching(shape):
    lat = build_lattice(*shape)
    for layer in (1, 2, 3):
        seen = set()
        for i, j in lat.edges_in_layer(layer):
            assert i not in seen and j not in seen
            seen.update((i, j))


def test_degree_three_qubits_touch_every_layer(lattice_2x2):
    # exhaustive per-vertex check: a degree-3 qubit has one edge in each layer
    touched = {q: set() for q in range(lattice_2x2.n_qubits)}
    for (i, j), layer in lattice_2x2.layer_of_edge.items():
        touched[i].add(layer)
        touched[j].add(layer)
    for q in range(lattice_2x2.n_qubits):
        if degree(lattice_2x2, q) == 3:
            assert touched[q] == {1, 2, 3}


def test_hexagon_two_layers_suffice(hexagon):
    # independent check of the even-cycle claim: alternating around the
    # 12-cycle is a proper 2-coloring
    ring = [0]
    adj = {q: [] for q in range(12)}
    for i, j in hexagon.edges:
        adj[i].append(j)
        adj[j].append(i)
    while len(ring) < 12:
        nxt = [q for q in adj[ring[-1]] if q not in ring]
        ring.append(nxt[0])
    alternating = {}
    for k in range(12):
        e = tuple(sorted((ring[k], ring[(k + 1) % 12])))
        alternating[e] = 1 + (k % 2)
    for layer in (1, 2):
        seen = set()
        for (i, j), assigned in alternating.items():
            if assigned == layer:
                assert i not in seen and j not in seen
                seen.update((i, j))


@pytest.mark.parametrize("shape", sorted(GEOMETRIES))
def test_bipartition_consistent(shape):
    lat = build_lattice(*shape)
    assert set(lat.bipartition) == {0, 1}
    for i, j in lat.edges:
        assert lat.bipartition[i] != lat.bipartition[j]


def test_build_is_deterministic():
    a = build_lattice(2, 2)
    b = build_lattice(2, 2)
    assert a.edges == b.edges
    assert a.layer_of_edge == b.layer_of_edge
    assert a.bipartition == b.bipartition


def test_unroll_is_a_bijection(lattice_2x2):
    position = unroll(lattice_2x2)
    assert sorted(position) == list(range(lattice_2x2.n_qubits))
    inverse = np.argsort(position)
    for q in range(lattice_2x2.n_qubits):
        assert inverse[position[q]] == q


def test_unroll_hexagon_span(hexagon):
    position = unroll(hexagon)
    spans = [abs(position[i] - position[j]) for i, j in hexagon.edges]
    assert max(spans) <= 11


def test_unroll_2x2_has_long_range_edges(lattice_2x2):
    # lattice nearest neighbors can be well separated on the chain
    position = unroll(lattice_2x2)
    spans = [abs(position[i] - position[j]) for i, j in lattice_2x2.edges]
    assert max(spans) > 3


# span sum (chain sites one cycle's gates cross), longest span, and max cut
# (lattice edges across one chain bond) of the column sweep
CHAIN_COSTS = {
    (1, 1): (22, 4, 2),
    (2, 2): (94, 6, 4),
    (3, 3): (265, 9, 5),
    (2, 5): (232, 6, 4),
    (3, 7): (593, 9, 5),
}


@pytest.mark.parametrize("shape,expected", sorted(CHAIN_COSTS.items()))
def test_unroll_gate_spans_and_cuts(shape, expected):
    lat = build_lattice(*shape)
    pos = unroll(lat)
    spans = [abs(pos[i] - pos[j]) for i, j in lat.edges]
    cuts = [
        sum(min(pos[i], pos[j]) <= bond < max(pos[i], pos[j]) for i, j in lat.edges)
        for bond in range(lat.n_qubits - 1)
    ]
    assert (sum(spans), max(spans), max(cuts)) == expected


@pytest.mark.parametrize("shape", sorted(CHAIN_COSTS))
def test_unroll_sweeps_columns_in_alternating_directions(shape):
    lat = build_lattice(*shape)
    chain = [lat.sites[q] for q in np.argsort(unroll(lat))]
    columns = [x for _, _, x in chain]
    # each x column is one stretch of the chain, left to right
    assert columns == sorted(columns)
    # heights: line l at 2l, the connector below it at 2l + 1
    heights = [2 * level + (kind == "conn") for kind, level, _ in chain]
    for x in sorted(set(columns)):
        column = [h for h, c in zip(heights, columns) if c == x]
        ascending = sorted(column)
        assert column == (ascending if x % 2 == 0 else ascending[::-1]), x
    # the columns are x = 0, 1, 2, ..., so even x is every other column
    assert sorted(set(columns)) == list(range(len(set(columns))))


# first 16 hex digits of sha256(to_json()): the edges, each with its layer,
# and the bipartition. Guards the layer assignment, which no other test
# pins outside the golden lattices: any change to it changes every output.
EXPORT_DIGESTS = {
    (1, 1): "9895474c78704624",
    (2, 2): "eceefe82c8ca3adf",
    (3, 3): "83de34e2e14d3a8c",
    (2, 5): "32339dcdb8f1ee26",
    (3, 7): "6ca4dceaec75e62b",
}


@pytest.mark.parametrize("shape,digest", sorted(EXPORT_DIGESTS.items()))
def test_export_pins_the_layer_schedule(shape, digest):
    exported = build_lattice(*shape).to_json().encode()
    assert hashlib.sha256(exported).hexdigest()[:16] == digest


def test_edge_count_3x7():
    assert len(build_lattice(3, 7).edges) == 164


def test_json_export(lattice_2x2):
    payload = json.loads(lattice_2x2.to_json())
    assert payload["n_qubits"] == 35
    assert len(payload["edges"]) == 38
    assert len(payload["bipartition"]) == 35
    for i, j, layer in payload["edges"]:
        assert layer in (1, 2, 3)
        assert 0 <= i < 35 and 0 <= j < 35
    assert set(payload["bipartition"]) == {0, 1}


def test_edges_are_canonical(lattice_2x2):
    edges = lattice_2x2.edges
    assert all(i < j for i, j in edges)
    assert list(edges) == sorted(edges)
    assert len(set(edges)) == len(edges)
