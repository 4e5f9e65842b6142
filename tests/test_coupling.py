import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mp2q

from mp2q import circuits as cg
from mp2q.circuits import Circuit
from mp2q.coupling import (CouplingMap, complete_map, find_parallel_embeddings,
                           grid_map, h_shape_7, h_shape_9, ibm_27_heavy_hex,
                           named_map, pack_parallel_ue, path_map,
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


def test_cli_import_does_not_load_networkx():
    # networkx is about half of `import mp2q.cli`; only shape matching needs it
    src = str(Path(mp2q.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mp2q.cli; assert 'networkx' not in sys.modules, 'networkx loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
