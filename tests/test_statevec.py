import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mp2q import circuits as cg
from mp2q import statevec
from mp2q.circuits import Circuit


def test_x_flips_zero():
    state = statevec.run_circuit(Circuit(1, [cg.x(0)]))
    assert np.allclose(state.amplitudes, [0, 1])


def test_h_involution():
    state = statevec.run_circuit(Circuit(1, [cg.h(0), cg.h(0)]))
    assert abs(state.amplitudes[0] - 1.0) < 1e-12
    assert abs(state.amplitudes[1]) < 1e-12


def test_ry_closed_form():
    theta = np.pi / 3
    state = statevec.run_circuit(Circuit(1, [cg.ry(theta, 0)]))
    assert np.allclose(state.amplitudes, [np.cos(theta / 2), np.sin(theta / 2)])


def test_qubit_bit_order():
    # qubit 2 is bit 2: X on it sends |000> to index 4
    state = statevec.run_circuit(Circuit(3, [cg.x(2)]))
    assert state.amplitudes[4] == 1.0


def _random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 7)
        q = int(rng.integers(0, n))
        theta = float(rng.uniform(-np.pi, np.pi))
        if kind == 0:
            gates.append(cg.x(q))
        elif kind == 1:
            gates.append(cg.h(q))
        elif kind == 2:
            gates.append(cg.ry(theta, q))
        elif kind == 3:
            gates.append(cg.rz(theta, q))
        elif kind == 4:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cg.cnot(int(a), int(b)))
        elif kind == 5:
            qs = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            gates.append(cg.pauli_x_exp(theta, [int(v) for v in qs]))
        else:
            size = int(rng.integers(2, n + 1))
            qs = [int(v) for v in rng.choice(n, size=size, replace=False)]
            gates.append(cg.mcry(theta, qs[:-1], qs[-1],
                                 polarity=int(rng.integers(0, 2))))
    return Circuit(n, gates)


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(25):
        circ = _random_circuit(rng, 4, 20)
        state = statevec.run_circuit(circ)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


_ANGLES = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def _gates(draw, n):
    """One gate of any kind on n >= 3 qubits, operands distinct; mcry draws
    either polarity and at least two controls."""
    kind = draw(st.sampled_from(sorted(cg.KINDS)))
    size = {cg.CNOT: 2, cg.SWAP: 2, cg.CRY: 2, cg.TOFFOLI: 3,
            cg.MCRY: draw(st.integers(3, n)),
            cg.PAULI_X_EXP: draw(st.integers(1, n))}.get(kind, 1)
    qubits = tuple(draw(st.permutations(range(n)))[:size])
    if kind == cg.PAULI_X_EXP:
        qubits = tuple(sorted(qubits))
    angle = draw(_ANGLES) if kind in cg.ROTATION_KINDS or kind == cg.PAULI_X_EXP else None
    polarity = draw(st.sampled_from([cg.ZERO_CONTROL, cg.ONE_CONTROL])) \
        if kind in (cg.CRY, cg.MCRY) else cg.ONE_CONTROL
    return cg.Gate(kind, qubits, angle, polarity)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_norm_preserved_by_every_gate_kind(data):
    n = data.draw(st.integers(3, 6), label="n")
    gates = data.draw(st.lists(_gates(n), max_size=30), label="gates")
    start = data.draw(st.integers(0, (1 << n) - 1), label="start")
    # apply_circuit raises if the norm drifts by more than 1e-10
    state = statevec.apply_circuit(statevec.basis_state(n, start), Circuit(n, gates))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    circ = _random_circuit(rng, 5, 30)
    probs = statevec.probabilities(statevec.run_circuit(circ))
    assert abs(probs.sum() - 1.0) < 1e-10
    assert np.all(probs >= 0)


def test_qubit_count_mismatch():
    state = statevec.zero_state(2)
    with pytest.raises(ValueError):
        statevec.apply_circuit(state, Circuit(3, [cg.x(0)]))


def test_operand_out_of_range():
    with pytest.raises(ValueError):
        Circuit(2, [cg.x(5)])


def test_qubit_cap():
    with pytest.raises(ValueError):
        statevec.zero_state(21)


def test_sample_deterministic_counts():
    state = statevec.run_circuit(Circuit(1, []))
    counts = statevec.sample_counts(statevec.probabilities(state), 100, seed=1)
    assert counts.dtype == np.int64
    assert counts.tolist() == [100, 0]


def test_sample_reproducible():
    state = statevec.run_circuit(Circuit(3, [cg.h(0), cg.h(1), cg.cnot(0, 2)]))
    t1 = statevec.sample_counts(statevec.probabilities(state), 5000, seed=42)
    t2 = statevec.sample_counts(statevec.probabilities(state), 5000, seed=42)
    assert np.array_equal(t1, t2)
    t3 = statevec.sample_counts(statevec.probabilities(state), 5000, seed=43)
    assert not np.array_equal(t3, t1)


def test_sample_binomial_bound():
    state = statevec.run_circuit(Circuit(1, [cg.h(0)]))
    shots = 100_000
    counts = statevec.sample_counts(statevec.probabilities(state), shots, seed=9)
    dev = abs(counts[0] - shots / 2)
    assert dev <= 3 * np.sqrt(shots * 0.25)


def test_sample_counts_sum_invariant():
    state = statevec.run_circuit(Circuit(2, [cg.h(0), cg.ry(0.7, 1)]))
    counts = statevec.sample_counts(statevec.probabilities(state), 12345, seed=5)
    assert counts.sum() == 12345


def test_sample_frequency_convergence_many_seeds():
    # every outcome within 5 sigma for each of 50 seeds
    circ = Circuit(3, [cg.h(0), cg.ry(1.1, 1), cg.cnot(1, 2)])
    state = statevec.run_circuit(circ)
    probs = statevec.probabilities(state)
    shots = 20_000
    for seed in range(50):
        counts = statevec.sample_counts(probs, shots, seed=seed)
        for idx, p in enumerate(probs):
            if p < 1e-12:
                continue
            freq = counts[idx] / shots
            bound = 5 * np.sqrt(p * (1 - p) / shots)
            assert abs(freq - p) <= bound


def test_apply_gate_mutates_and_returns_its_buffer():
    n = 4
    gates = [cg.x(0), cg.h(1), cg.rx(0.3, 2), cg.ry(0.4, 3), cg.rz(0.5, 0),
             cg.cnot(0, 3), cg.swap(1, 2), cg.toffoli(0, 1, 3), cg.cry(0.6, 2, 1),
             cg.mcry(0.7, [0, 1, 3], 2, polarity=0), cg.mcry(0.8, [1, 3], 0),
             cg.pauli_x_exp(0.9, [0, 2, 3])]
    assert {g.kind for g in gates} == cg.KINDS
    rng = np.random.default_rng(4)
    for gate in gates:
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        before = amps.copy()
        assert statevec.apply_gate(amps, gate, n) is amps
        assert not np.array_equal(amps, before)


def test_apply_circuit_rejects_nan_state():
    # abs(nan - 1) > tol is false, so the norm check must be written to fail on NaN
    amps = np.full(4, np.nan, dtype=complex)
    with pytest.raises(FloatingPointError):
        statevec.apply_circuit(statevec.StateVector(2, amps), Circuit(2, []))
