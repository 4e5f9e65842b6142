import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mp2q

from mp2q import circuits as cg
from mp2q.circuits import Circuit
from mp2q.coupling import (CouplingMap, _monomorphisms, complete_map,
                           find_parallel_embeddings, grid_map, h_shape_7, h_shape_9,
                           ibm_27_heavy_hex, named_map, pack_parallel_ue, path_map,
                           validate_connectivity)


def test_named_maps():
    assert named_map("complete-4").n_qubits == 4
    assert len(named_map("complete-4").edges) == 6
    assert named_map("path-5").edges == path_map(5).edges
    assert named_map("grid-2x3").n_qubits == 6
    assert named_map("h-shape-7").n_qubits == 7
    assert named_map("ibm-27-heavy-hex").n_qubits == 27
    with pytest.raises(ValueError):
        named_map("ring-5")


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        CouplingMap.from_edges(2, [(0, 0)])


def test_heavy_hex_shape():
    hh = ibm_27_heavy_hex()
    assert len(hh.edges) == 28
    degrees = sorted(len(hh.neighbors(q)) for q in range(27))
    assert max(degrees) == 3


def test_json_round_trip(tmp_path):
    cm = grid_map(3, 3)
    path = tmp_path / "map.json"
    cm.save(path)
    loaded = CouplingMap.load(path)
    assert loaded.edges == cm.edges
    assert loaded.n_qubits == 9


def test_has_edge_outside_map_is_false():
    hh = ibm_27_heavy_hex()
    assert hh.has_edge(0, 1) and hh.has_edge(1, 0)
    for a, b in [(-1, 0), (0, -1), (27, 26), (26, 27), (0, 0), (-27, 1)]:
        assert not hh.has_edge(a, b)
    assert hh.neighbors(-1) == [] and hh.neighbors(27) == []
    assert hh.neighbors(1) == [0, 2, 4]


def test_validate_empty_circuit():
    assert validate_connectivity(Circuit(3, []), path_map(3)) == []


def test_validate_flags_non_edge():
    circ = Circuit(3, [cg.cnot(0, 2)])
    assert validate_connectivity(circ, path_map(3)) == [(0, (0, 2))]


def test_validate_rejects_non_native():
    with pytest.raises(ValueError):
        validate_connectivity(Circuit(3, [cg.toffoli(0, 1, 2)]), complete_map(3))


def test_embed_edge_in_path():
    edge = CouplingMap.from_edges(2, [(0, 1)], "edge")
    found = find_parallel_embeddings(path_map(4), edge, 2)
    assert len(found) == 2
    used = {q for emb in found for q in emb.values()}
    assert len(used) == 4


def test_embed_too_small():
    assert find_parallel_embeddings(complete_map(6), h_shape_7(), 1) == []


def test_h_shape_embeddings_in_heavy_hex():
    found = find_parallel_embeddings(ibm_27_heavy_hex(), h_shape_7(), 3)
    # the 27-qubit lattice admits at most two disjoint 7-qubit H shapes
    assert len(found) == 2
    hs = h_shape_7()
    hh = ibm_27_heavy_hex()
    for emb in found:
        for a, b in hs.edges:
            assert hh.has_edge(emb[a], emb[b])


def test_pack_three_parallel_ue():
    packs = pack_parallel_ue(ibm_27_heavy_hex(), 3)
    assert len(packs) == 3
    used = [q for p in packs for q in p.values()]
    assert len(used) == len(set(used))
    assert len(used) == 2 * 7 + 9  # two standard H shapes plus one relay variant


def test_h_shape_9_is_relay_layout():
    hs9 = h_shape_9()
    assert not hs9.has_edge(4, 5) and not hs9.has_edge(4, 6)
    assert hs9.has_edge(4, 7) and hs9.has_edge(4, 8)


@st.composite
def graphs(draw, max_nodes):
    n = draw(st.integers(1, max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return CouplingMap.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(host=graphs(9), shape=graphs(5))
def test_monomorphisms_match_networkx(host, shape):
    # networkx's VF2 is the reference; shapes may be disconnected or edgeless
    import networkx as nx

    def graph(cm):
        g = nx.Graph()
        g.add_nodes_from(range(cm.n_qubits))
        g.add_edges_from(cm.edges)
        return g

    matcher = nx.algorithms.isomorphism.GraphMatcher(graph(host), graph(shape))
    expected = set()
    for mono in matcher.subgraph_monomorphisms_iter():
        inverse = {shape_q: phys for phys, shape_q in mono.items()}
        expected.add(tuple(inverse[i] for i in range(shape.n_qubits)))
    found = list(_monomorphisms(host, shape))
    assert len(found) == len(set(found))
    assert set(found) == expected


# pack_parallel_ue(map, 4) as recorded with the networkx matcher, each layout
# listed by shape qubit; pack_parallel_ue(map, k) is its first k layouts
PINNED_PACKS = {
    "complete-5": [],
    "complete-7": [(0, 1, 2, 3, 4, 5, 6)],
    "path-5": [],
    "grid-2x4": [],
    "h-shape-7": [(0, 1, 2, 3, 4, 5, 6)],
    "h-shape-9": [(0, 1, 2, 3, 4, 5, 6, 7, 8)],
    "ibm-27-heavy-hex": [(0, 2, 6, 10, 4, 1, 7), (5, 9, 13, 16, 11, 8, 14),
                         (15, 17, 22, 26, 23, 18, 25, 21, 24)],
    "grid-4x5": [(0, 2, 8, 12, 6, 1, 7), (11, 15, 13, 19, 17, 16, 18)],
    "grid-5x5": [(0, 2, 8, 12, 6, 1, 7), (5, 11, 17, 21, 15, 10, 16)],
    "grid-3x7": [(0, 2, 10, 16, 8, 1, 9), (3, 5, 13, 19, 11, 4, 12)],
}


@pytest.mark.parametrize("name", sorted(PINNED_PACKS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pack_parallel_ue_pinned(name, k):
    packs = pack_parallel_ue(named_map(name), k)
    assert [tuple(emb[i] for i in range(len(emb))) for emb in packs] == \
        PINNED_PACKS[name][:k]
    assert all(sorted(emb) == list(range(len(emb))) for emb in packs)


def test_pack_nothing_for_non_positive_k():
    assert pack_parallel_ue(ibm_27_heavy_hex(), 0) == []
    assert pack_parallel_ue(ibm_27_heavy_hex(), -1) == []


def test_cli_import_does_not_load_networkx(tmp_path):
    # shapes are matched natively: neither the import nor `lower --pack` needs networkx
    src = str(Path(mp2q.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    circ = tmp_path / "circ.json"
    Circuit(2, [cg.h(0), cg.cnot(0, 1)]).save(circ)
    code = "\n".join([
        "import sys, mp2q.cli",
        "assert 'networkx' not in sys.modules, 'networkx loaded by the import'",
        f"rc = mp2q.cli.main(['lower', '--circuit', {str(circ)!r}, '--coupling',",
        f"                    'ibm-27-heavy-hex', '--pack', '3', '--out', {str(tmp_path / 'low.json')!r}])",
        "assert rc == 0, rc",
        "assert 'networkx' not in sys.modules, 'networkx loaded by lower --pack'",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["parallel_embeddings"]) == 3
