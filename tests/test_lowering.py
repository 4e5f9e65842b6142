import hashlib

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_block
from mp2q import builders, circuits as cg
from mp2q.circuits import Circuit, max_phase_aligned_diff, unitary_of
from mp2q.coupling import (CouplingMap, complete_map, h_shape_7, named_map, path_map,
                           validate_connectivity)
from mp2q.errors import LoweringError
from mp2q.lowering import (lower, lower_pauli_x_exp, restricted_unitary,
                           simplify_toffoli_pairs)


def mcry_ref(n, controls, target, theta, polarity=1):
    m = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                  [np.sin(theta / 2), np.cos(theta / 2)]])
    u = np.eye(1 << n, dtype=complex)
    for i in range(1 << n):
        if all((i >> c) & 1 == polarity for c in controls) and not (i >> target) & 1:
            j = i | (1 << target)
            u[i, i], u[i, j] = m[0, 0], m[0, 1]
            u[j, i], u[j, j] = m[1, 0], m[1, 1]
    return u


def xstring_exp_ref(n, coeff, qubits):
    mask = sum(1 << q for q in qubits)
    gen = np.zeros((1 << n, 1 << n))
    idx = np.arange(1 << n)
    gen[idx ^ mask, idx] = 1.0
    return expm(1j * coeff * gen)


def test_native_cnots_pass_through():
    circ = Circuit(3, [cg.cnot(0, 1), cg.h(2), cg.cnot(1, 2)])
    out = lower(circ, path_map(3))
    assert out.gates == circ.gates


def test_lower_c2ry_path_graph():
    theta = 0.83
    cm = path_map(3)
    out = lower(Circuit(3, [cg.mcry(theta, [0, 2], 1)]), cm)
    assert validate_connectivity(out, cm) == []
    assert not any(set(g.qubits) == {0, 2} for g in out.gates if len(g.qubits) == 2)
    assert np.max(np.abs(unitary_of(out) - mcry_ref(3, [0, 2], 1, theta))) < 1e-10


@pytest.mark.parametrize("controls", [[0], [0, 1], [0, 2], [0, 1, 2], [0, 1, 2, 3]])
def test_lower_cnry_h_shape(controls):
    theta = 1.37
    hs = h_shape_7()
    circ = Circuit(5, [cg.mcry(theta, controls, 4)])
    out = lower(circ, hs)
    assert validate_connectivity(out, hs) == []
    sub = restricted_unitary(out, [0, 1, 2, 3, 4])
    assert max_phase_aligned_diff(sub, mcry_ref(5, controls, 4, theta)) < 1e-9


def test_lower_zero_polarity():
    hs = h_shape_7()
    out = lower(Circuit(5, [cg.mcry(0.61, [0, 1, 2, 3], 4, polarity=0)]), hs)
    sub = restricted_unitary(out, [0, 1, 2, 3, 4])
    assert max_phase_aligned_diff(sub, mcry_ref(5, [0, 1, 2, 3], 4, 0.61, 0)) < 1e-9


def test_lower_lone_toffoli_needs_control_edge():
    circ = Circuit(3, [cg.toffoli(0, 2, 1)])
    with pytest.raises(LoweringError):
        lower(circ, path_map(3))  # controls 0 and 2 are not adjacent
    out = lower(circ, complete_map(3))
    assert max_phase_aligned_diff(unitary_of(out),
                                  unitary_of(circ)) < 1e-10


def test_lower_swap_expands():
    out = lower(Circuit(2, [cg.swap(0, 1)]), path_map(2))
    assert all(g.kind == cg.CNOT for g in out.gates)
    assert np.max(np.abs(unitary_of(out) - unitary_of(Circuit(2, [cg.swap(0, 1)])))) < 1e-12


def test_lower_respects_layout():
    cm = path_map(3)
    out = lower(Circuit(2, [cg.cnot(0, 1)]), cm, layout={0: 2, 1: 1})
    assert out.gates == [cg.cnot(2, 1)]


def test_lower_layout_outside_map():
    with pytest.raises(LoweringError):
        lower(Circuit(2, [cg.cnot(0, 1)]), path_map(2), layout={0: 0, 1: 5})


def test_lower_restricted_ancilla_pool():
    hs = h_shape_7()
    with pytest.raises(LoweringError):
        lower(Circuit(5, [cg.mcry(0.4, [0, 1], 4)]), hs, ancilla_pool={6})


def test_simplify_pair_unitary_and_no_cc_gates():
    circ = Circuit(3, [cg.toffoli(0, 1, 2), cg.ry(0.37, 2), cg.toffoli(0, 1, 2)])
    out = simplify_toffoli_pairs(circ)
    assert cg.TOFFOLI not in {g.kind for g in out.gates}
    assert not any(set(g.qubits) == {0, 1} for g in out.gates if len(g.qubits) == 2)
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-10


def test_simplify_blocked_by_control_touch():
    circ = Circuit(3, [cg.toffoli(0, 1, 2), cg.rz(0.2, 0), cg.toffoli(0, 1, 2)])
    out = simplify_toffoli_pairs(circ)
    assert sum(g.kind == cg.TOFFOLI for g in out.gates) == 2
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-10


def test_simplify_random_circuit_with_pair():
    rng = np.random.default_rng(4)
    for _ in range(5):
        middle = [cg.ry(float(rng.uniform(-1, 1)), 2),
                  cg.rz(float(rng.uniform(-1, 1)), 2)]
        gates = ([cg.h(0), cg.ry(0.3, 1), cg.toffoli(0, 1, 2)] + middle
                 + [cg.toffoli(0, 1, 2), cg.cnot(0, 1)])
        circ = Circuit(3, gates)
        out = simplify_toffoli_pairs(circ)
        assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-10


def test_xexp_single_qubit_is_rx():
    out = lower_pauli_x_exp(cg.pauli_x_exp(0.3, [0]), path_map(1))
    assert [g.kind for g in out.gates] == [cg.RX]
    assert out.gates[0].angle == -0.6


def test_xexp_two_qubit_matches_expm():
    coeff = 0.47
    out = lower_pauli_x_exp(cg.pauli_x_exp(coeff, [0, 1]), path_map(2))
    assert np.max(np.abs(unitary_of(out) - xstring_exp_ref(2, coeff, [0, 1]))) < 1e-12


def test_xexp_chain_skips_excluded_middle_qubit():
    # string on {0,1,3}; qubit 2 sits on the line but is not in the string
    cm = CouplingMap.from_edges(4, [(0, 1), (1, 3), (2, 3)], "bent-path")
    out = lower_pauli_x_exp(cg.pauli_x_exp(0.21, [0, 1, 3]), cm)
    assert validate_connectivity(out, cm) == []
    assert not any(2 in g.qubits for g in out.gates)
    assert np.max(np.abs(unitary_of(out) - xstring_exp_ref(4, 0.21, [0, 1, 3]))) < 1e-12


def test_xexp_no_chain_errors():
    cm = CouplingMap.from_edges(3, [(0, 1), (1, 2)], "path")
    with pytest.raises(LoweringError):
        lower_pauli_x_exp(cg.pauli_x_exp(0.1, [0, 2]), cm)


def test_xexp_orderings_equivalent():
    # all six ladder orders of a 3-qubit string give the same unitary
    from itertools import permutations

    from mp2q.lowering import _pauli_x_exp_gates

    coeff = 0.39
    ref = xstring_exp_ref(3, coeff, [0, 1, 2])
    for perm in permutations(range(3)):
        edges = [(perm[0], perm[1]), (perm[1], perm[2])]
        cm = CouplingMap.from_edges(3, edges, "perm")
        out = Circuit(3, _pauli_x_exp_gates(coeff, (0, 1, 2), cm))
        assert np.max(np.abs(unitary_of(out) - ref)) < 1e-12


def test_lowered_connectivity_always_clean():
    hs = h_shape_7()
    rng = np.random.default_rng(8)
    for _ in range(5):
        gates = [cg.mcry(float(rng.uniform(0, 2)), [0, 1, 2, 3], 4),
                 cg.cry(float(rng.uniform(0, 2)), int(rng.integers(0, 4)), 4),
                 cg.ry(0.2, 4)]
        out = lower(Circuit(5, gates), hs)
        assert validate_connectivity(out, hs) == []


def test_lower_uint_on_path(helium_blocks):
    from mp2q.builders import build_uint

    circ = build_uint(helium_blocks["I"], 0.31)
    cm = path_map(4)
    out = lower(circ, cm)
    assert validate_connectivity(out, cm) == []
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-9


def test_lower_full_pipeline_semantics_preserved(helium_blocks):
    # U_E needs the H shape; U_INT additionally needs a chain through the
    # register, so the combined map adds the register path edges
    from mp2q.builders import PipelineSpec, build_pipeline, solve_angles

    blk = helium_blocks["I"]
    circ = build_pipeline(PipelineSpec(blk, 0.22), solve_angles(blk))
    cm = CouplingMap.from_edges(
        7, [(0, 5), (1, 5), (2, 6), (3, 6), (4, 5), (4, 6),
            (0, 1), (1, 2), (2, 3)], "h-shape-7-plus-chain")
    out = lower(circ, cm)
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, [0, 1, 2, 3, 4])
    assert max_phase_aligned_diff(sub, unitary_of(circ)) < 1e-9


# SHA-256 of Circuit.to_json() for every helium part/circuit/shipped map that
# lowers under the identity layout, plus a seeded Q=5 U_E; any change to the
# emitted gates, their order or their angles shows here
PINNED_LOWERED = {
    "I.pipeline.complete-7": "1c7ed3a81891617a347580b229803e2a6cb3cbecc5201fb7a5c6529e167a730f",
    "I.ue.complete-7": "274dec188e315ed8c84e7056bbc1738feb42f8ff75506d9376bb3b6a74900d5a",
    "I.ue.h-shape-7": "24c295cc3b445176c2ed318453aeda3c08aeb832a0cf3b600db871ea49c39baa",
    "I.ue.h-shape-9": "6ace33ca276dfb45e3423e80c99097fae8a4b984a7f65fbd72de2e25b3084419",
    "I.uint.complete-5": "e5502eaecb5669a3074bfba34dfd312718baf6a6e699d03fbe57e5d041a588c1",
    "I.uint.complete-7": "4469c568c09fdc3aff4c791ecce84922e1343efae3c3bf22290bc8aec13ce7c8",
    "I.uint.grid-2x4": "d30d5c06c621d300db7b095985a4becdc439616b88db9c3bf8f5c7c032f37ba7",
    "I.uint.ibm-27-heavy-hex": "6606f1767261ba652ed2c231e869431ff94667851831c91a9ee457a011ad96ca",
    "I.uint.path-5": "e5502eaecb5669a3074bfba34dfd312718baf6a6e699d03fbe57e5d041a588c1",
    "III.pipeline.complete-7": "604a280db578d63d3d4b69d8d03eea969bc4afce19e847e50e98ed72baf1e58f",
    "III.ue.complete-7": "50f428dd712c6ea0be97fcd0f2d10abe92a5acac3d8fed8483cbc192eb5d7b0d",
    "III.ue.h-shape-7": "c8dbed89c7ca42596d314d8cba292ac89f2e3c0e36cab3267f9173d9ed043562",
    "III.ue.h-shape-9": "f20b8f1899757da530f568e433907c82cb0a1072bf6eb59baf533135603163bb",
    "III.uint.complete-5": "d7d982909a812de3721ebb42f8aed02d33a059dd620fd1c4ca2ea362c0efaa13",
    "III.uint.complete-7": "adf068f4e27c2f0749e612fd7036967fd900e5eb5046a5e0c771af32ec6b2d7b",
    "III.uint.grid-2x4": "8ba707694d58dfb9d037c5a74f1e2b171498c295054a4acb1e0cd721ecd9412a",
    "III.uint.ibm-27-heavy-hex": "9e7338403a9d7396529169246b3dd6822b863bd644b3d577639c15dfd12b06a5",
    "III.uint.path-5": "d7d982909a812de3721ebb42f8aed02d33a059dd620fd1c4ca2ea362c0efaa13",
    "IV.pipeline.complete-7": "df56db09994da5e1635541131260589a81b4dd68fd76074e02d207df352b061a",
    "IV.ue.complete-7": "039a63e8ec39f63547b6507f884fbcf754c84055a2fc11643aeded5aa7c20ef1",
    "IV.ue.h-shape-7": "8be5331fd8371d98ddfbe0712aed743d6ecd100f752430ad52301b8b96c2ceaa",
    "IV.ue.h-shape-9": "db21cce0ec1c6aa3c458c6fa74d606d9e4af4b1bddcb48e00009ba5d9aef0cd0",
    "IV.uint.complete-5": "597286c6d096f3c0403f4c83c95ac3ba66afa8e5e80256063c8bc47b99f326ed",
    "IV.uint.complete-7": "d4756f28c0ed4147137e04821b93c036ec65259d459f86f2cb216bf08d82f315",
    "IV.uint.grid-2x4": "6872ab310529c60239ddc2097f9f83252506170ef3b4a193bc7a2137cf7a7b4f",
    "IV.uint.ibm-27-heavy-hex": "332dbc48cf39510377c220141c36093a42104bff14589fa5117ebb6a8c9597a0",
    "IV.uint.path-5": "597286c6d096f3c0403f4c83c95ac3ba66afa8e5e80256063c8bc47b99f326ed",
    "Q5.ue.complete-10": "1bc4d48e722105ec1d1e28ad884965d5bb01902b43f5cf1a916c5a99abed4762",
}


def _pinned_circuit(label, helium_blocks):
    part, kind, _ = label.split(".", 2)
    if part == "Q5":
        return builders.build_ue(builders.solve_angles(
            random_block(np.random.default_rng(5), n_codes=32)))
    block = helium_blocks[part]
    if kind == "uint":
        return builders.build_uint(block, 0.1)
    angles = builders.solve_angles(block)
    if kind == "ue":
        return builders.build_ue(angles)
    return builders.build_pipeline(builders.PipelineSpec(block, 0.1), angles)


@pytest.mark.parametrize("label", sorted(PINNED_LOWERED))
def test_lowered_bytes_pinned(label, helium_blocks):
    out = lower(_pinned_circuit(label, helium_blocks), named_map(label.split(".", 2)[2]))
    assert hashlib.sha256(out.to_json().encode()).hexdigest() == PINNED_LOWERED[label]


def test_ladders_not_shared_across_calls(helium_blocks):
    # the Toffoli ladders are reused within one lower call, never across calls
    ue = builders.build_ue(builders.solve_angles(helium_blocks["I"]))
    first, second = lower(ue, h_shape_7()), lower(ue, h_shape_7())
    assert first.gates == second.gates
    assert not any(a is b for a, b in zip(first.gates, second.gates))
