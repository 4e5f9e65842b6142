import numpy as np
import pytest

from mp2q import circuits as cg
from mp2q.circuits import (Circuit, controlled, max_phase_aligned_diff,
                           unitary_of)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ry_mat(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_mat(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def kron_on(n, mats):
    """Independent oracle: embed single-qubit matrices by Kronecker products,
    qubit 0 = least significant factor (rightmost)."""
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, mats.get(q, I2))
    return out


def test_unitary_of_empty():
    assert np.allclose(unitary_of(Circuit(1, [])), np.eye(2))


def test_unitary_of_x():
    assert np.allclose(unitary_of(Circuit(1, [cg.x(0)])), X)


def rx_mat(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0 + 0j, -1.0])
PROJ = {0: np.diag([1.0 + 0j, 0.0]), 1: np.diag([0.0 + 0j, 1.0])}


def controlled_ref(n, controls, polarity, target, mat):
    """Independent oracle for a controlled 2x2 gate: the identity off the
    control subspace, mat on the target inside it (projectors and kron only)."""
    pins = {c: PROJ[polarity] for c in controls}
    return np.eye(1 << n) - kron_on(n, pins) + kron_on(n, {**pins, target: mat})


ALL_CONTROL_MCRY = "mcry with controls on every other qubit"


def random_gate(rng, n, kind):
    """One gate of `kind` on random operands, with its kron-built reference."""
    theta = float(rng.uniform(-np.pi, np.pi))
    qs = [int(v) for v in rng.permutation(n)]
    if kind in (cg.X, cg.H, cg.RX, cg.RY, cg.RZ):
        mat = {cg.X: X, cg.H: H, cg.RX: rx_mat(theta), cg.RY: ry_mat(theta),
               cg.RZ: rz_mat(theta)}[kind]
        gate = cg.Gate(kind, (qs[0],), None if kind in (cg.X, cg.H) else theta)
        return gate, kron_on(n, {qs[0]: mat})
    if kind == cg.CNOT:
        return cg.cnot(qs[0], qs[1]), controlled_ref(n, qs[:1], 1, qs[1], X)
    if kind == cg.TOFFOLI:
        return cg.toffoli(*qs[:3]), controlled_ref(n, qs[:2], 1, qs[2], X)
    if kind == cg.SWAP:
        a, b = qs[:2]
        ref = sum(kron_on(n, {a: p, b: p}) for p in (I2, X, Y, Z)) / 2
        return cg.swap(a, b), ref
    if kind == cg.CRY:
        pol = int(rng.integers(0, 2))
        return (cg.cry(theta, qs[0], qs[1], polarity=pol),
                controlled_ref(n, qs[:1], pol, qs[1], ry_mat(theta)))
    if kind in (cg.MCRY, ALL_CONTROL_MCRY):
        # two controls up to every qubit but the target
        size = n if kind == ALL_CONTROL_MCRY else int(rng.integers(3, n + 1))
        pol = int(rng.integers(0, 2))
        ctrls, target = qs[:size - 1], qs[size - 1]
        return (cg.mcry(theta, ctrls, target, polarity=pol),
                controlled_ref(n, ctrls, pol, target, ry_mat(theta)))
    support = qs[:int(rng.integers(1, n + 1))]
    string = kron_on(n, {q: X for q in support})
    return (cg.pauli_x_exp(theta, support),
            np.cos(theta) * np.eye(1 << n) + 1j * np.sin(theta) * string)


def test_unitary_of_random_vs_kron_oracle():
    rng = np.random.default_rng(17)
    n = 4
    seen = set()
    for _ in range(12):
        gates, ref = [], np.eye(1 << n, dtype=complex)
        for kind in [*rng.permutation(sorted(cg.KINDS)), ALL_CONTROL_MCRY]:
            gate, mat = random_gate(rng, n, str(kind))
            gates.append(gate)
            ref = mat @ ref
            seen.add((gate.kind, gate.polarity, len(gate.qubits)))
        assert np.max(np.abs(unitary_of(Circuit(n, gates)) - ref)) < 1e-12
    assert {k for k, _, _ in seen} == cg.KINDS
    # both polarities with controls on every qubit but the target
    assert {(cg.MCRY, 0, n), (cg.MCRY, 1, n)} <= seen


def test_unitary_of_cap():
    with pytest.raises(ValueError):
        unitary_of(Circuit(13, []))


def test_unitarity_of_varied_gates():
    gates = [cg.toffoli(0, 1, 2), cg.swap(1, 3), cg.pauli_x_exp(0.3, [0, 2, 3]),
             cg.mcry(0.9, [0, 1, 3], 2, polarity=0), cg.cry(0.4, 2, 0)]
    u = unitary_of(Circuit(4, gates))
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


def test_duplicate_operand_rejected():
    with pytest.raises(ValueError):
        cg.cnot(1, 1)


def test_nonfinite_angle_rejected():
    with pytest.raises(ValueError):
        cg.ry(np.nan, 0)


def test_inverse_round_trip():
    gates = [cg.h(0), cg.ry(0.3, 1), cg.pauli_x_exp(0.2, [0, 1]),
             cg.mcry(1.1, [0, 2], 1), cg.toffoli(0, 1, 2), cg.rz(-0.7, 2)]
    circ = Circuit(3, gates)
    combo = Circuit(3, list(circ.gates) + list(circ.inverse().gates))
    assert max_phase_aligned_diff(unitary_of(combo), np.eye(8)) < 1e-12


def test_json_round_trip(tmp_path):
    gates = [cg.h(0), cg.cry(0.25, 1, 0, polarity=0), cg.pauli_x_exp(-0.5, [0, 2]),
             cg.mcry(2.2, [1, 2], 3), cg.swap(0, 3), cg.toffoli(0, 1, 2)]
    circ = Circuit(4, gates)
    path = tmp_path / "circ.json"
    circ.save(path)
    loaded = Circuit.load(path)
    assert loaded.n_qubits == 4
    assert loaded.gates == circ.gates


def test_controlled_matches_direct_control():
    rng = np.random.default_rng(23)
    base = Circuit(2, [cg.ry(0.7, 0), cg.x(1), cg.h(0), cg.rz(0.3, 1),
                       cg.cnot(0, 1), cg.swap(0, 1),
                       cg.pauli_x_exp(0.4, [0, 1]), cg.cry(0.5, 1, 0)])
    ctrl_gates = controlled(base, 2)
    u = unitary_of(Circuit(3, ctrl_gates))
    sub = unitary_of(base)
    ref = np.eye(8, dtype=complex)
    ref[4:, 4:] = sub
    assert np.max(np.abs(u - ref)) < 1e-10


def test_controlled_rejects_collision():
    with pytest.raises(ValueError):
        controlled(Circuit(2, [cg.x(1)]), 1)


@pytest.mark.parametrize("gates, message", [
    ([cg.h(0), cg.cnot(1, 3), cg.h(5)], "gate cnot operands (1, 3) outside 0..2"),
    ([cg.ry(0.2, 2), cg.h(-1)], "gate h operands (-1,) outside 0..2"),
])
def test_circuit_range_check_names_the_first_gate_outside(gates, message):
    with pytest.raises(ValueError) as err:
        Circuit(3, gates)
    assert str(err.value) == message
    with pytest.raises(ValueError):
        Circuit(3, gates[:1]).extend(gates[1:])
