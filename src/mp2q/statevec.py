"""Dense statevector simulation with exact probabilities and seeded sampling.

Amplitudes are complex128; qubit j is bit j of the state index (qubit 0 =
least significant). Sampling uses numpy's PCG64 generator, so identical
(state, shots, seed) gives bit-identical counts on any platform.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .circuits import (CNOT, CRY, H, MCRY, ONE_CONTROL, PAULI_X_EXP, RX, RY,
                       RZ, SWAP, TOFFOLI, X, Circuit, Gate)

MAX_QUBITS = 20
_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"statevector capped at {MAX_QUBITS} qubits, got {self.n_qubits}")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(f"amplitude vector must have length 2^{self.n_qubits}")


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def _rotation_matrix(kind: str, theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    if kind == RY or kind == CRY or kind == MCRY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


def _at(view: np.ndarray, n: int, pins) -> np.ndarray:
    """Basic-slice view of `view` (shape (2,)*n + batch) with qubit q pinned to
    bit b for every (q, b) in `pins`. Pins are length-1 slices, never integers,
    so a view with every qubit pinned stays an array that can be written."""
    idx = [slice(None)] * n
    for q, b in pins:
        idx[n - 1 - q] = slice(b, b + 1)
    return view[tuple(idx)]


def _rotate(lo: np.ndarray, hi: np.ndarray, mat: np.ndarray) -> None:
    """(lo, hi) <- mat @ (lo, hi), elementwise over two disjoint views."""
    a0 = lo.copy()
    lo[...] = mat[0, 0] * a0 + mat[0, 1] * hi
    hi[...] = mat[1, 0] * a0 + mat[1, 1] * hi


def _swap(lo: np.ndarray, hi: np.ndarray) -> None:
    lo[...], hi[...] = hi, lo.copy()


def apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate in place on the working buffer and return it.

    `amps` is C-contiguous with 2^n rows; any trailing axes are a batch (the
    columns of a unitary), so one call updates every column at once."""
    if not amps.flags.c_contiguous:
        raise ValueError("apply_gate needs a C-contiguous amplitude buffer")
    view = amps.reshape((2,) * n + amps.shape[1:])
    k = gate.kind
    t = gate.target
    if k in (X, CNOT, TOFFOLI):
        pins = [(c, ONE_CONTROL) for c in gate.controls]
        _swap(_at(view, n, pins + [(t, 0)]), _at(view, n, pins + [(t, 1)]))
    elif k == SWAP:
        a, b = gate.qubits
        _swap(_at(view, n, [(a, 1), (b, 0)]), _at(view, n, [(a, 0), (b, 1)]))
    elif k in (H, RX, RY, RZ, CRY, MCRY):
        mat = _H_MAT if k == H else _rotation_matrix(k, gate.angle)
        pins = [(c, gate.polarity) for c in gate.controls]
        _rotate(_at(view, n, pins + [(t, 0)]), _at(view, n, pins + [(t, 1)]), mat)
    elif k == PAULI_X_EXP:
        # exp(i a X⊗...⊗X) = cos(a) I + i sin(a) (X-string), and the X-string
        # sends index j to j ^ mask: the view reversed along the string's qubits
        partner = np.flip(view, axis=tuple(n - 1 - q for q in gate.qubits)).copy()
        amps *= cos(gate.angle)
        amps += 1j * sin(gate.angle) * partner.reshape(amps.shape)
    else:
        raise ValueError(f"unknown gate kind {k}")
    return amps


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply each gate in order; returns a new StateVector, norm checked to 1e-10."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(f"circuit has {circuit.n_qubits} qubits, state has {state.n_qubits}")
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        amps = apply_gate(amps, gate, state.n_qubits)
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-10:   # NaN fails too
        raise FloatingPointError(f"statevector norm drifted to {norm}")
    return StateVector(state.n_qubits, amps)


def run_circuit(circuit: Circuit) -> StateVector:
    """apply_circuit starting from |0...0>."""
    return apply_circuit(zero_state(circuit.n_qubits), circuit)


def probabilities(state: StateVector) -> np.ndarray:
    return np.abs(state.amplitudes) ** 2


def sample_counts(probs: np.ndarray, shots: int,
                  seed: int | np.random.SeedSequence | np.random.Generator) -> np.ndarray:
    """Seeded multinomial draw from an exact outcome distribution: int64
    counts indexed by basis state (e.g. probabilities(state)), summing to
    shots. `seed` is a PCG64 seed (an int or a SeedSequence, such as the one
    a sweep row derives from its seed, part and step), or a generator."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def marginal_probability(state: StateVector, qubit: int, value: int = 1) -> float:
    probs = probabilities(state)
    idx = np.arange(1 << state.n_qubits)
    return float(probs[(idx >> qubit) & 1 == value].sum())
