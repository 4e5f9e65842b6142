import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import random_block
from mp2q import builders, circuits as cg
from mp2q.circuits import Circuit, max_phase_aligned_diff, unitary_of
from mp2q.coupling import (CouplingMap, complete_map, h_shape_7, named_map, path_map,
                           validate_connectivity)
from mp2q.errors import LoweringError
from mp2q.lowering import _commuting_runs, lower, restricted_unitary, simplify_toffoli_pairs


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


def lower_one(gate, coupling):
    return lower(Circuit(coupling.n_qubits, [gate]), coupling)


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
    out = lower_one(cg.pauli_x_exp(0.3, [0]), path_map(1))
    assert [g.kind for g in out.gates] == [cg.RX]
    assert out.gates[0].angle == -0.6


def test_xexp_two_qubit_matches_expm():
    coeff = 0.47
    out = lower_one(cg.pauli_x_exp(coeff, [0, 1]), path_map(2))
    assert np.max(np.abs(unitary_of(out) - xstring_exp_ref(2, coeff, [0, 1]))) < 1e-12


def test_xexp_chain_skips_excluded_middle_qubit():
    # string on {0,1,3}; qubit 2 sits on the line but is not in the string
    cm = CouplingMap.from_edges(4, [(0, 1), (1, 3), (2, 3)], "bent-path")
    out = lower_one(cg.pauli_x_exp(0.21, [0, 1, 3]), cm)
    assert validate_connectivity(out, cm) == []
    assert not any(2 in g.qubits for g in out.gates)
    assert np.max(np.abs(unitary_of(out) - xstring_exp_ref(4, 0.21, [0, 1, 3]))) < 1e-12


def test_xexp_no_chain_errors():
    cm = CouplingMap.from_edges(3, [(0, 1), (1, 2)], "path")
    with pytest.raises(LoweringError):
        lower_one(cg.pauli_x_exp(0.1, [0, 2]), cm)


def test_xexp_orderings_equivalent():
    # a 3-qubit string on each of the three paths through its qubits
    from itertools import permutations

    coeff = 0.39
    ref = xstring_exp_ref(3, coeff, [0, 1, 2])
    for perm in permutations(range(3)):
        edges = [(perm[0], perm[1]), (perm[1], perm[2])]
        cm = CouplingMap.from_edges(3, edges, "perm")
        out = lower_one(cg.pauli_x_exp(coeff, [0, 1, 2]), cm)
        assert validate_connectivity(out, cm) == []
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


# SHA-256 of Circuit.to_json() for the helium part/circuit/shipped map cases
# that lowered under the identity layout before U_E runs became Gray-code
# multiplexors, plus a seeded Q=5 U_E; any change to the emitted gates, their
# order or their angles shows here. The U_E and pipeline digests changed when
# each U_E became one multiplexor instead of 15 V-chain lowerings; native
# CNOTs per part, V-chains -> multiplexor: ue on complete-7 100 -> 16, on
# h-shape-7 144 -> 48, on h-shape-9 192 -> 80; pipeline on complete-7
# 108 -> 24; Q5 ue on complete-10 298 -> 32. The U_INT digests did not change.
PINNED_LOWERED = {
    "I.pipeline.complete-7": "f51c6739966295b185f4591585115eaec9bb01335c50affe992717ac8c47a1d7",
    "I.ue.complete-7": "ed99ecb8066bb4b036f718e0fe5690f4b1570ebac8be044ec0834b1ac6bb24d4",
    "I.ue.h-shape-7": "63fbde533dbd93583c762b6568bad746bf3567ee0a327074185ef575a0ab71cb",
    "I.ue.h-shape-9": "05ee074a1723572b1f8fad69fcceb3282bfb5fe8d3e0bf982bce0a45628a1961",
    "I.uint.complete-5": "e5502eaecb5669a3074bfba34dfd312718baf6a6e699d03fbe57e5d041a588c1",
    "I.uint.complete-7": "4469c568c09fdc3aff4c791ecce84922e1343efae3c3bf22290bc8aec13ce7c8",
    "I.uint.grid-2x4": "d30d5c06c621d300db7b095985a4becdc439616b88db9c3bf8f5c7c032f37ba7",
    "I.uint.ibm-27-heavy-hex": "6606f1767261ba652ed2c231e869431ff94667851831c91a9ee457a011ad96ca",
    "I.uint.path-5": "e5502eaecb5669a3074bfba34dfd312718baf6a6e699d03fbe57e5d041a588c1",
    "III.pipeline.complete-7": "7940189604d43108efc6624792055615b84fe84fa06ea28d163c16955f755bed",
    "III.ue.complete-7": "19df880bf297fbea920c895c547100bb00a99e167078b62151f2bcdfc6ed6b03",
    "III.ue.h-shape-7": "adc9d09f809211be8db8881e08b1a43f0a812f2e9eaef78ca2f0440f30ae86d6",
    "III.ue.h-shape-9": "7ed070ddce1b3c2c828fd1f5eddff08a237ef354fc04355c4e5677ea6783199b",
    "III.uint.complete-5": "d7d982909a812de3721ebb42f8aed02d33a059dd620fd1c4ca2ea362c0efaa13",
    "III.uint.complete-7": "adf068f4e27c2f0749e612fd7036967fd900e5eb5046a5e0c771af32ec6b2d7b",
    "III.uint.grid-2x4": "8ba707694d58dfb9d037c5a74f1e2b171498c295054a4acb1e0cd721ecd9412a",
    "III.uint.ibm-27-heavy-hex": "9e7338403a9d7396529169246b3dd6822b863bd644b3d577639c15dfd12b06a5",
    "III.uint.path-5": "d7d982909a812de3721ebb42f8aed02d33a059dd620fd1c4ca2ea362c0efaa13",
    "IV.pipeline.complete-7": "118cf26f47c863424a5c83913ff2733122f6755efa651c0641b329c2db3dc2f2",
    "IV.ue.complete-7": "076508b5d168c04130531db920dca4be92659a87bd763a00c9279a0db6405faa",
    "IV.ue.h-shape-7": "50985ecc5e2a4b064f8a017270de2fe2795e85f759dd37c4a60fc457d44800ee",
    "IV.ue.h-shape-9": "fe4aa3949726486892e1e4c3002f71022f9ac5ea4bfdbd5a100822026732d3e4",
    "IV.uint.complete-5": "597286c6d096f3c0403f4c83c95ac3ba66afa8e5e80256063c8bc47b99f326ed",
    "IV.uint.complete-7": "d4756f28c0ed4147137e04821b93c036ec65259d459f86f2cb216bf08d82f315",
    "IV.uint.grid-2x4": "6872ab310529c60239ddc2097f9f83252506170ef3b4a193bc7a2137cf7a7b4f",
    "IV.uint.ibm-27-heavy-hex": "332dbc48cf39510377c220141c36093a42104bff14589fa5117ebb6a8c9597a0",
    "IV.uint.path-5": "597286c6d096f3c0403f4c83c95ac3ba66afa8e5e80256063c8bc47b99f326ed",
    "Q5.ue.complete-10": "10a89a35278bec1637c21a44e5b2ea642c144fd2326cc69bd0bc11e213c533d8",
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
    # every lower call builds its own gates: no call shares gate objects with another
    ue = builders.build_ue(builders.solve_angles(helium_blocks["I"]))
    first, second = lower(ue, h_shape_7()), lower(ue, h_shape_7())
    assert first.gates == second.gates
    assert not any(a is b for a, b in zip(first.gates, second.gates))


def _hub_map(q, hops, direct):
    """Controls 0..q-1 and target q; with hops > 0 the controls reach the
    target only through a chain of `hops` free qubits (and the controls in
    `direct` also by an edge), so every other CNOT onto the target is relayed."""
    if hops == 0:
        return complete_map(q + 1)
    chain = list(range(q + 1, q + 1 + hops))
    edges = ([(c, chain[0]) for c in range(q)] + list(zip(chain, chain[1:]))
             + [(chain[-1], q)] + [(c, q) for c in direct])
    return CouplingMap.from_edges(q + 1 + hops, edges, f"hub-{hops}")


@st.composite
def _angle_tables(draw):
    q = draw(st.integers(1, 5))
    angles = draw(st.lists(st.sampled_from([0.0, 0.0, 1.1]) | st.floats(-3.0, 3.0),
                           min_size=1 << q, max_size=1 << q))
    polarity = draw(st.sampled_from([cg.ZERO_CONTROL, cg.ONE_CONTROL]))
    hops = draw(st.integers(0, 2))
    direct = draw(st.sets(st.integers(0, q - 1)))
    return builders.AngleTable(q, np.array(angles), 1.0, builders.SQRT, polarity), hops, direct


@settings(max_examples=80, deadline=None)
@given(_angle_tables())
def test_multiplexor_matches_source(case):
    table, hops, direct = case
    q = table.n_control_qubits
    source = builders.build_ue(table)
    cm = _hub_map(q, hops, direct)
    controlled = sum(g.kind != cg.RY for g in source.gates)
    out = lower(source, cm)
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, list(range(q + 1)))
    assert max_phase_aligned_diff(sub, unitary_of(source)) < 1e-9
    if hops == 0 and controlled > 1:
        assert sum(g.kind == cg.CNOT for g in out.gates) <= 1 << q


def test_runs_split_by_target_and_polarity():
    gates = [cg.cry(0.3, 0, 3), cg.mcry(0.5, [0, 1], 3),          # target 3
             cg.cry(0.7, 1, 2), cg.mcry(-0.2, [0, 1], 2),         # target 2
             cg.cry(0.4, 0, 3, polarity=0), cg.mcry(0.9, [0, 1], 3, polarity=0),
             cg.ry(0.25, 3),                                      # joins the 0-run
             cg.cry(1.3, 1, 3)]                                   # polarity 1 again
    runs = _commuting_runs(gates)
    assert [len(run) for run in runs] == [2, 2, 3, 1]
    circ = Circuit(4, gates)
    out = lower(circ, complete_map(4))
    # three two-control multiplexors (4 CNOTs each) and one CRy (2 CNOTs)
    assert sum(g.kind == cg.CNOT for g in out.gates) == 14
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-10


def test_wide_disjoint_run_lowers_gate_by_gate():
    # two C13-Ry gates on disjoint controls would make a 2^26-entry
    # multiplexor; the run goes through the V-chain planner gate by gate
    gates = [cg.mcry(0.8, list(range(13)), 26), cg.mcry(-0.3, list(range(13, 26)), 26)]
    cm = complete_map(40)
    out = lower(Circuit(27, gates), cm)
    separate = [lower(Circuit(27, [g]), cm).gates for g in gates]
    assert out.gates == [g for part in separate for g in part]
    assert validate_connectivity(out, cm) == []


def test_lone_gate_without_ancillas_lowers_as_multiplexor():
    # complete-5 leaves the planner no ancilla for a C4-Ry
    circ = Circuit(5, [cg.mcry(0.7, [0, 1, 2, 3], 4)])
    out = lower(circ, complete_map(5))
    assert sum(g.kind == cg.CNOT for g in out.gates) == 16
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(circ)) < 1e-10
    # too wide for a multiplexor of linear size: the planner's error stands
    with pytest.raises(LoweringError, match="no ancilla/edge assignment"):
        lower(Circuit(7, [cg.mcry(0.7, list(range(6)), 6)]), complete_map(7))


# SHA-256 of Circuit.to_json() for circuits whose controlled Ry gates each
# stand alone, recorded with the V-chain planner before runs became
# multiplexors: their lowering must not change, on complete-7 either, where a
# multiplexor would take 16 CNOTs instead of 20
PINNED_LONE = {
    "c1ry": "70728bc31f4babab93b2b0a2b21a85a08035d97356d21ae7ad09669636d49434",
    "c2ry.01": "15491b4a4e54d7fec11db3ec599082d5b0a7ca56bb1903f5bb7c5c291631feac",
    "c2ry.02": "b51f1fb6169af5844978353c4b5892b8fcc151c770233c639efde92cbadf9cb5",
    "c3ry": "cfe5d8806bee9de035d4bdae4d17f468dea1ebf69a8ad331d970b1860dd7fe0b",
    "c4ry": "8dbfc8db302d3b9f5f01f6ba995b6815a4795f1c5061edc4d44a07f9e5bff911",
    "c4ry-zero-and-ry.complete-7":
        "2aaf5be6b443778852237bb0db49b4a8387881bd0a329bc61f4db7662dfa0087",
    "naive.I": "ca4c8b1636b0bd9ff13e6381de705175583ccf2313e444ea87fe3f6af58abd71",
}
LONE_GATES = {
    "c1ry": [cg.mcry(1.37, [0], 4)],
    "c2ry.01": [cg.mcry(1.37, [0, 1], 4)],
    "c2ry.02": [cg.mcry(1.37, [0, 2], 4)],
    "c3ry": [cg.mcry(1.37, [0, 1, 2], 4)],
    "c4ry": [cg.mcry(1.37, [0, 1, 2, 3], 4)],
    "c4ry-zero-and-ry.complete-7": [cg.mcry(1.37, [0, 1, 2, 3], 4, polarity=0),
                                    cg.ry(0.5, 4)],
}


@pytest.mark.parametrize("label", sorted(PINNED_LONE))
def test_lone_gates_lower_as_before(label, helium_blocks):
    if label == "naive.I":
        circ = builders.build_ue_naive(helium_blocks["I"])
    else:
        circ = Circuit(5, LONE_GATES[label])
    cm = complete_map(7) if label.endswith("complete-7") else h_shape_7()
    out = lower(circ, cm)
    assert hashlib.sha256(out.to_json().encode()).hexdigest() == PINNED_LONE[label]


# Native CNOTs of each helium part's circuit per shipped map under the identity
# layout, as the per-gate V-chain planner lowered them (the same for parts I,
# III and IV); None where it raised LoweringError
PLANNER_CNOTS = {
    ("ue", "complete-7"): 100, ("ue", "h-shape-7"): 144, ("ue", "h-shape-9"): 192,
    ("ue", "complete-5"): None, ("ue", "grid-2x4"): None,
    ("pipeline", "complete-7"): 108,
    ("pipeline", "complete-5"): None, ("pipeline", "grid-2x4"): None,
    ("uint", "complete-5"): 8, ("uint", "complete-7"): 8, ("uint", "grid-2x4"): 8,
    ("uint", "path-5"): 8, ("uint", "ibm-27-heavy-hex"): 8,
}


@pytest.mark.parametrize("part", ["I", "III", "IV"])
def test_coverage_never_costlier(part, helium_blocks):
    # 13 cases per part, 39 of the 63 part x circuit x map cases
    for (kind, name), before in PLANNER_CNOTS.items():
        label = f"{part}.{kind}.{name}"
        out = lower(_pinned_circuit(label, helium_blocks), named_map(name))
        cnots = sum(g.kind == cg.CNOT for g in out.gates)
        assert before is None or cnots <= before, (label, cnots, before)


@st.composite
def _x_string_runs(draw):
    q = draw(st.integers(1, 5))
    supports = st.sets(st.integers(0, q - 1), min_size=1).map(sorted)
    pool = draw(st.lists(supports, min_size=1, max_size=4))  # repeats supports
    coeffs = st.sampled_from([0.0, 0.0, 0.7]) | st.floats(-2.0, 2.0)
    strings = draw(st.lists(st.tuples(st.sampled_from(pool) | supports, coeffs),
                            min_size=2, max_size=12))
    return q, [cg.pauli_x_exp(c, s) for s, c in strings]


@settings(max_examples=80, deadline=None)
@given(_x_string_runs())
def test_x_string_run_matches_source(case):
    q, gates = case
    cm = complete_map(q + 1)
    source = Circuit(q, gates)
    out = lower(source, cm)
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, list(range(q)))
    assert max_phase_aligned_diff(sub, unitary_of(source)) < 1e-9
    m = len({v for g in gates for v in g.qubits})
    per_gate = sum(g.kind == cg.CNOT for x in gates
                   for g in lower(Circuit(q, [x]), cm).gates)
    cnots = sum(g.kind == cg.CNOT for g in out.gates)
    assert cnots <= (1 << m) - 2 and cnots <= per_gate


def test_runs_merge_x_strings():
    x1, x2, x3 = (cg.pauli_x_exp(0.1, [0, 1]), cg.pauli_x_exp(0.2, [1]),
                  cg.pauli_x_exp(0.3, [0, 2]))
    runs = _commuting_runs([x1, x2, cg.ry(0.4, 2), x3, cg.x(0), x1])
    assert [len(run) for run in runs] == [2, 1, 1, 1, 1]


def test_dense_uint_is_one_parity_network():
    # all 31 X-strings of a seeded Q=5 U_INT: 2^5 - 2 CNOTs instead of the
    # 98 of their ladders
    circ = builders.build_uint(random_block(np.random.default_rng(5), n_codes=32), 0.1)
    cm = complete_map(6)
    out = lower(circ, cm)
    assert sum(g.kind == cg.CNOT for g in out.gates) == 30
    assert max_phase_aligned_diff(restricted_unitary(out, list(range(5))),
                                  unitary_of(circ)) < 1e-9


# SHA-256 of Circuit.to_json() for X-string runs that lower string by string,
# recorded before runs could become parity networks: a run whose union is not
# a clique of the map, two strings on a union too wide for the CNOTs they
# save, strings on one qubit (Rx gates, not H Rz H), and a lone string
X_RUN = [cg.pauli_x_exp(0.3, [0, 1]), cg.pauli_x_exp(-0.2, [1, 2]),
         cg.pauli_x_exp(0.5, [0, 1, 2]), cg.pauli_x_exp(0.1, [2])]
PINNED_PER_STRING = {
    "run.path-3": (X_RUN, path_map(3),
                   "0d97d9b83f78ee18ad80db5bd29de4b3d7b71cd9b62f404726a45dd5dae58676"),
    "wide-union.complete-4": (
        [cg.pauli_x_exp(0.3, [0, 1]), cg.pauli_x_exp(-0.4, [2, 3])], complete_map(4),
        "772c4b76131f310aeca83b1d0783b1ad0cc08e9be746dc7ad4661cdfe26b99c2"),
    "one-qubit.complete-2": (
        [cg.pauli_x_exp(0.3, [1]), cg.pauli_x_exp(-0.2, [1])], complete_map(2),
        "37e8c23605c8fdcaf16168229f7add42523cd3931cf5c29e66feec2435dfea2b"),
    "lone.complete-4": ([cg.pauli_x_exp(0.7, [0, 1, 2])], complete_map(4),
                        "9a00c2437fdffb62278e0284b5fb72e6fe3e7a09c1e5122a352aaf4b8508b8c9"),
}


@pytest.mark.parametrize("label", sorted(PINNED_PER_STRING))
def test_x_strings_lower_per_string_as_before(label):
    gates, cm, digest = PINNED_PER_STRING[label]
    out = lower(Circuit(cm.n_qubits, gates), cm)
    assert hashlib.sha256(out.to_json().encode()).hexdigest() == digest


def test_x_run_on_clique_saves_cnots():
    # the same run on complete-3 is one parity network: 6 CNOTs against 8
    out = lower(Circuit(3, X_RUN), complete_map(3))
    assert sum(g.kind == cg.CNOT for g in out.gates) == 6
    assert max_phase_aligned_diff(unitary_of(out), unitary_of(Circuit(3, X_RUN))) < 1e-10


def _draw_connected_map(draw):
    """A random spanning tree on 3-8 qubits plus up to n extra edges."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(n)))
    tree = {(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=n))
    return CouplingMap.from_edges(n, tree | extra, "random-connected")


@st.composite
def _x_strings_on_maps(draw):
    cm = _draw_connected_map(draw)
    width = draw(st.integers(2, cm.n_qubits))  # the other qubits are free
    supports = st.sets(st.integers(0, width - 1), min_size=1).map(sorted)
    coeffs = st.floats(-2.0, 2.0)
    strings = draw(st.lists(st.tuples(supports, coeffs), min_size=1, max_size=4))
    return cm, Circuit(width, [cg.pauli_x_exp(c, s) for s, c in strings])


@settings(max_examples=150, deadline=None)
@given(_x_strings_on_maps())
def test_x_string_lowering_is_sound(case):
    # an X-string run either has no edge-respecting realization or is lowered
    # exactly over its parity trees, free Steiner points restored, on any
    # connected map
    cm, source = case
    try:
        out = lower(source, cm)
    except LoweringError:
        return
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, list(range(source.n_qubits)))
    assert max_phase_aligned_diff(sub, unitary_of(source)) < 1e-9


@pytest.mark.parametrize("name,cnots", [("h-shape-7", 20), ("h-shape-9", 28)])
@pytest.mark.parametrize("part", ["I", "III", "IV"])
def test_uint_lowers_on_h_shapes(part, name, cnots, helium_blocks):
    # no two register qubits are adjacent on an H shape: each string's parity
    # tree runs through the free qubits
    source = builders.build_uint(helium_blocks[part], 0.1)
    cm = named_map(name)
    out = lower(source, cm)
    assert sum(g.kind == cg.CNOT for g in out.gates) == cnots
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, list(range(source.n_qubits)))
    assert max_phase_aligned_diff(sub, unitary_of(source)) < 1e-9


def test_chainless_string_fails_fast():
    # the string's 12 qubits are the leaves of a star: no two are adjacent,
    # which a walk over the 12! orderings would find only after minutes
    import time

    star = CouplingMap.from_edges(13, [(0, leaf) for leaf in range(1, 13)], "star-13")
    start = time.perf_counter()
    with pytest.raises(LoweringError, match="no edge-respecting chain"):
        lower(Circuit(13, [cg.pauli_x_exp(0.2, range(1, 13))]), star)
    assert time.perf_counter() - start < 1.0


# SHA-256 over the lowered Circuit.to_json(), or the LoweringError message, of
# a seeded list of lone C^k-Ry gates (k = 0..4, both polarities) and of CNOTs
# between every ordered pair of five logical qubits, on maps where controls
# are often relayed or find no relay; recorded before the relay search became
# one function, so any change to a relay path, to the V-chain's ancillas or to
# an error message shows here
RELAY_MAPS = ("h-shape-9", "grid-2x4", "path-5", "ibm-27-heavy-hex")
PINNED_RELAYED = "098bdc1f5c6d27f9d3a419400970536f9a225f9d404cd415f27ee0bfa4b84c03"


def _relayed_cases():
    rng = np.random.default_rng(15)
    for name in RELAY_MAPS:
        cm = named_map(name)
        for k in range(5):
            for polarity in (cg.ZERO_CONTROL, cg.ONE_CONTROL):
                for _ in range(3):
                    qs = [int(q) for q in rng.permutation(5)]
                    theta = float(rng.uniform(-2.0, 2.0))
                    yield cm, Circuit(5, [cg.mcry(theta, qs[1:1 + k], qs[0], polarity)])
        for c in range(5):
            for t in range(5):
                if c != t:
                    yield cm, Circuit(5, [cg.cnot(c, t)])


def test_relayed_lowerings_pinned():
    digest = hashlib.sha256()
    for cm, circ in _relayed_cases():
        try:
            digest.update(lower(circ, cm).to_json().encode())
        except LoweringError as exc:
            digest.update(f"LoweringError: {exc}".encode())
    assert digest.hexdigest() == PINNED_RELAYED


@st.composite
def _lone_gates_on_maps(draw):
    cm = _draw_connected_map(draw)
    n = cm.n_qubits
    k = draw(st.integers(1, min(4, n - 1)))
    width = draw(st.integers(k + 1, n))  # the other qubits are free ancillas
    qs = draw(st.permutations(range(width)))
    polarity = draw(st.sampled_from([cg.ZERO_CONTROL, cg.ONE_CONTROL]))
    gates = [cg.mcry(draw(st.floats(-3.0, 3.0)), qs[1:k + 1], qs[0], polarity)]
    if draw(st.booleans()):
        gates.append(cg.ry(draw(st.floats(-3.0, 3.0)), qs[0]))
    return cm, Circuit(width, gates)


@settings(max_examples=150, deadline=None)
@given(_lone_gates_on_maps())
def test_lone_gate_lowering_is_sound(case):
    # a lone C^k-Ry either has no edge-respecting realization or is lowered
    # exactly, ancillas restored, on any connected map
    cm, source = case
    try:
        out = lower(source, cm)
    except LoweringError:
        return
    assert validate_connectivity(out, cm) == []
    sub = restricted_unitary(out, list(range(source.n_qubits)))
    assert max_phase_aligned_diff(sub, unitary_of(source)) < 1e-9
