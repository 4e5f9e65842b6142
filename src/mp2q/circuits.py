"""Gate-list circuit IR shared by the builders, the simulator, and lowering.

Qubit/bit convention: qubit j carries bit value 2**j, so qubit 0 is the least
significant bit of a basis-state index. Outcome bitstrings are printed most
significant qubit first (qubit n-1 is the leftmost character).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError, json_int, json_list, json_number, parse_json

# gate kinds
X = "x"
H = "h"
RX = "rx"
RY = "ry"
RZ = "rz"
CNOT = "cnot"
SWAP = "swap"
TOFFOLI = "toffoli"
CRY = "cry"
MCRY = "mcry"
PAULI_X_EXP = "pauli_x_exp"

KINDS = {X, H, RX, RY, RZ, CNOT, SWAP, TOFFOLI, CRY, MCRY, PAULI_X_EXP}
NATIVE_KINDS = {X, H, RX, RY, RZ, CNOT}
ROTATION_KINDS = {RX, RY, RZ, CRY, MCRY}

ONE_CONTROL = 1
ZERO_CONTROL = 0


@dataclass(frozen=True)
class Gate:
    """One gate. For cry/mcry, qubits = (*controls, target); for pauli_x_exp,
    qubits is the string support and angle is the coefficient t of exp(i*t*X⊗...⊗X)."""
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    polarity: int = ONE_CONTROL

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operands in {self.kind}: {self.qubits}")
        if self.polarity not in (ZERO_CONTROL, ONE_CONTROL):
            raise ValueError(f"polarity must be 0 or 1, got {self.polarity}")
        if self.kind in ROTATION_KINDS or self.kind == PAULI_X_EXP:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")

    @property
    def controls(self) -> tuple[int, ...]:
        if self.kind in (CRY, MCRY):
            return self.qubits[:-1]
        if self.kind == CNOT:
            return self.qubits[:1]
        if self.kind == TOFFOLI:
            return self.qubits[:2]
        return ()

    @property
    def target(self) -> int:
        return self.qubits[-1]

    def dagger(self) -> "Gate":
        if self.kind in ROTATION_KINDS or self.kind == PAULI_X_EXP:
            return Gate(self.kind, self.qubits, -self.angle, self.polarity)
        return self  # x, h, cnot, swap, toffoli are involutions


def x(q: int) -> Gate:
    return Gate(X, (q,))


def h(q: int) -> Gate:
    return Gate(H, (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate(RX, (q,), theta)


def ry(theta: float, q: int) -> Gate:
    return Gate(RY, (q,), theta)


def rz(theta: float, q: int) -> Gate:
    return Gate(RZ, (q,), theta)


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, (a, b))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(TOFFOLI, (c1, c2, target))


def cry(theta: float, control: int, target: int, polarity: int = ONE_CONTROL) -> Gate:
    return Gate(CRY, (control, target), theta, polarity)


def mcry(theta: float, controls, target: int, polarity: int = ONE_CONTROL) -> Gate:
    controls = tuple(sorted(controls))
    if not controls:
        return ry(theta, target)
    if len(controls) == 1:
        return cry(theta, controls[0], target, polarity)
    return Gate(MCRY, controls + (target,), theta, polarity)


def pauli_x_exp(coeff: float, qubits) -> Gate:
    """exp(i * coeff * X⊗...⊗X) over the given qubit subset."""
    qs = tuple(sorted(qubits))
    if not qs:
        raise ValueError("pauli_x_exp needs a non-empty qubit subset")
    return Gate(PAULI_X_EXP, qs, coeff)


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        # one pass over the set of operands; the per-gate check runs only to
        # name the first gate out of range
        if set(chain.from_iterable(g.qubits for g in self.gates)).difference(
                range(self.n_qubits)):
            for g in self.gates:
                self._check(g)

    def _check(self, gate: Gate):
        qs = gate.qubits
        if qs and (min(qs) < 0 or max(qs) >= self.n_qubits):
            raise ValueError(f"gate {gate.kind} operands {gate.qubits} outside 0..{self.n_qubits - 1}")

    def add(self, gate: Gate) -> "Circuit":
        self._check(gate)
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.add(g)
        return self

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, [g.dagger() for g in reversed(self.gates)])

    def __len__(self):
        return len(self.gates)

    def to_dict(self) -> dict:
        gates = []
        for g in self.gates:
            d = {"kind": g.kind, "qubits": list(g.qubits)}
            if g.angle is not None:
                d["angle"] = g.angle
            if g.kind in (CRY, MCRY):
                d["polarity"] = g.polarity
            gates.append(d)
        return {"n_qubits": self.n_qubits, "gates": gates}

    @classmethod
    def from_dict(cls, d: dict, source: str = "circuit") -> "Circuit":
        """The circuit of a to_dict document; a count, operand, polarity or angle of
        the wrong JSON type is a SchemaError naming `source`, the gate and the field."""
        gates = json_list(d, "gates", source)
        circ = cls(json_int(d.get("n_qubits"), f"{source}: n_qubits"))
        for i, g in enumerate(gates):
            where = f"{source}: gate {i}"
            if not (isinstance(g, dict) and isinstance(g.get("qubits"), list)
                    and isinstance(g.get("kind"), str)):
                raise SchemaError(f"{where}: expected an object with a 'qubits' list "
                                  f"and a 'kind' string")
            angle = g.get("angle")
            circ.add(Gate(g["kind"], tuple(json_int(q, f"{where} qubits") for q in g["qubits"]),
                          None if angle is None else json_number(angle, f"{where} angle"),
                          json_int(g.get("polarity", ONE_CONTROL), f"{where} polarity")))
        return circ

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Circuit":
        return cls.from_dict(parse_json(Path(path).read_bytes(), str(path)), str(path))


def controlled(circuit: Circuit, control: int) -> list[Gate]:
    """Gates realizing circuit applied iff `control` is |1>.

    The control index must not appear in the circuit's own gates. Every output
    gate stays within the IR vocabulary (CRz is spelled out as CNOT/Rz).
    """
    out: list[Gate] = []
    for g in circuit.gates:
        if control in g.qubits:
            raise ValueError("control qubit collides with circuit operand")
        if g.kind == X:
            out.append(cnot(control, g.qubits[0]))
        elif g.kind == RY:
            out.append(cry(g.angle, control, g.qubits[0]))
        elif g.kind == H:
            # H = X @ Ry(pi/2)
            out.append(cry(np.pi / 2, control, g.qubits[0]))
            out.append(cnot(control, g.qubits[0]))
        elif g.kind == RZ:
            out.extend(_crz(g.angle, control, g.qubits[0]))
        elif g.kind == RX:
            q = g.qubits[0]
            out.append(h(q))
            out.extend(_crz(g.angle, control, q))
            out.append(h(q))
        elif g.kind == CNOT:
            out.append(toffoli(control, g.qubits[0], g.qubits[1]))
        elif g.kind == SWAP:
            a, b = g.qubits
            out.append(cnot(b, a))
            out.append(toffoli(control, a, b))
            out.append(cnot(b, a))
        elif g.kind in (CRY, MCRY):
            ctrls = g.controls
            conj = [x(c) for c in ctrls] if g.polarity == ZERO_CONTROL else []
            out.extend(conj)
            out.append(mcry(g.angle, ctrls + (control,), g.target))
            out.extend(conj)
        elif g.kind == PAULI_X_EXP:
            out.extend(x_string_ladder(g.qubits, zip(g.qubits, g.qubits[1:]),
                                       _crz(-2 * g.angle, control, g.qubits[-1])))
        else:
            raise NotImplementedError(f"no controlled form for {g.kind}")
    return out


def _crz(theta: float, control: int, target: int) -> list[Gate]:
    return [rz(theta / 2, target), cnot(control, target),
            rz(-theta / 2, target), cnot(control, target)]


def x_string_ladder(qubits, pairs, core: list[Gate]) -> list[Gate]:
    """H on `qubits`, a CNOT per (control, target) pair in order, which
    leaves their parity on the last target, `core`, the CNOTs undone and H
    again. With core a Z rotation on that qubit this is the exponential of
    the X-string on `qubits`; with a controlled one, its controlled form."""
    hadamards = [h(q) for q in qubits]
    ladder = [cnot(a, b) for a, b in pairs]
    return hadamards + ladder + core + ladder[::-1] + hadamards


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit: every gate applied once to the identity,
    whose columns ride along as the kernel's batch axis; capped at 12 qubits."""
    from . import statevec

    if circuit.n_qubits > 12:
        raise ValueError(f"unitary_of capped at 12 qubits, got {circuit.n_qubits}")
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        statevec.apply_gate(u, g, circuit.n_qubits)
    return u


def phase_aligned(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale u by a global phase so its largest-magnitude entry matches reference."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    if abs(u[idx]) < 1e-14:
        return u
    return u * (reference[idx] / u[idx]) * abs(u[idx] / reference[idx])


def max_phase_aligned_diff(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise |u - v| after aligning global phase on v's largest entry."""
    return float(np.max(np.abs(phase_aligned(u, v) - v)))
