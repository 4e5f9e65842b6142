"""Lowering to the native gate set {Rx, Ry, Rz, X, H, CNOT} under a coupling map.

Multi-controlled Ry gates are compressed with Toffoli pairs onto ancillas
(V-chain style), relayed through free qubits where adjacency is missing, and
finished with a 4-CNOT two-control multiplexor. A Toffoli pair whose controls
are untouched in between needs no control-control CNOTs, so controls never
have to be adjacent to each other; SWAP gates are never emitted.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

import numpy as np

from . import circuits as cg
from .circuits import (CNOT, CRY, MCRY, NATIVE_KINDS, PAULI_X_EXP, SWAP,
                       TOFFOLI, ZERO_CONTROL, Circuit, Gate)
from .coupling import CouplingMap, validate_connectivity
from .errors import LoweringError

_T = np.pi / 4


def _toffoli_ladder(c1: int, c2: int, a: int) -> list[Gate]:
    """Target-side half of a Toffoli on (c1, c2 -> a); exact when paired with
    its inverse around a block that leaves c1 and c2 alone."""
    return [
        cg.h(a),
        cg.rz(_T, a), cg.cnot(c2, a), cg.rz(-_T, a), cg.cnot(c1, a),
        cg.rz(_T, a), cg.cnot(c2, a), cg.rz(-_T, a), cg.cnot(c1, a),
        cg.h(a),
    ]


def _toffoli_ladder_inverse(c1: int, c2: int, a: int) -> list[Gate]:
    return [g.dagger() for g in reversed(_toffoli_ladder(c1, c2, a))]


def _control_phase(c1: int, c2: int) -> list[Gate]:
    """Control-control half of a Toffoli (a controlled-S up to global phase)."""
    return [cg.rz(_T, c1), cg.rz(_T, c2), cg.cnot(c1, c2),
            cg.rz(-_T, c2), cg.cnot(c1, c2)]


def lower_toffoli(c1: int, c2: int, target: int) -> list[Gate]:
    """Full native Toffoli; requires the c1-c2 edge on hardware."""
    return _toffoli_ladder(c1, c2, target) + _control_phase(c1, c2)


def _cry_gates(theta: float, control: int, target: int) -> list[Gate]:
    return [cg.ry(theta / 2, target), cg.cnot(control, target),
            cg.ry(-theta / 2, target), cg.cnot(control, target)]


def _multiplexor_gates(theta: float, c1: int, c2: int, target: int) -> list[Gate]:
    """Two-control Ry with 4 CNOTs, all control-to-target."""
    t = theta / 4
    return [cg.ry(t, target), cg.cnot(c2, target),
            cg.ry(-t, target), cg.cnot(c1, target),
            cg.ry(t, target), cg.cnot(c2, target),
            cg.ry(-t, target), cg.cnot(c1, target)]


def simplify_toffoli_pairs(circuit: Circuit) -> Circuit:
    """Rewrite Toffoli pairs on identical operands, with nothing touching either
    control in between, into a native form with no control-control gates."""
    out = Circuit(circuit.n_qubits)
    gates = circuit.gates
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != TOFFOLI:
            out.add(g)
            i += 1
            continue
        c1, c2, t = g.qubits
        j = i + 1
        partner = None
        while j < len(gates):
            gj = gates[j]
            if gj.kind == TOFFOLI and gj.qubits == g.qubits:
                partner = j
                break
            if c1 in gj.qubits or c2 in gj.qubits:
                break
            j += 1
        if partner is None:
            out.add(g)
            i += 1
            continue
        out.extend(_toffoli_ladder(c1, c2, t))
        out.extend(gates[i + 1:partner])
        out.extend(_toffoli_ladder_inverse(c1, c2, t))
        i = partner + 1
    return out


class _Planner:
    """Per-gate search for edge-respecting multi-controlled Ry realizations."""

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling
        # (c1, c2, a) -> Toffoli ladder and its inverse. A planner serves one
        # `lower` call, in which every U_E mcry shares its controls, so the
        # same ladders recur; Gate is frozen, so sharing them is safe.
        self._ladders: dict[tuple[int, int, int], tuple[list[Gate], list[Gate]]] = {}

    def _relay_path(self, control: int, target: int, free: set[int]) -> list[int]:
        """BFS for control -> v1 -> ... -> vk with vi free and vk adjacent to target."""
        seen = {control}
        queue = deque([(control, [])])
        while queue:
            node, path = queue.popleft()
            for nb in self.coupling.neighbors(node):
                if nb in seen or nb == target or nb not in free:
                    continue
                seen.add(nb)
                if self.coupling.has_edge(nb, target):
                    return path + [nb]
                queue.append((nb, path + [nb]))
        raise LoweringError(
            f"no free relay path from {control} to a neighbor of {target}")

    def _relayed_control(self, control: int, target: int, free: set[int]):
        """Returns (effective control, copy-in gates, used ancillas)."""
        if self.coupling.has_edge(control, target):
            return control, [], []
        path = self._relay_path(control, target, free)
        hops = [control] + path
        chain = [cg.cnot(hops[k], hops[k + 1]) for k in range(len(hops) - 1)]
        return path[-1], chain, path

    def plan(self, controls: tuple[int, ...], target: int, theta: float,
             free: set[int]) -> list[Gate]:
        controls = tuple(sorted(controls))
        n = len(controls)
        if n == 0:
            return [cg.ry(theta, target)]
        if n == 1:
            eff, chain, _ = self._relayed_control(controls[0], target, free)
            return chain + _cry_gates(theta, eff, target) + chain[::-1]
        if n == 2:
            c1, c2 = controls
            if self.coupling.has_edge(c1, target) and self.coupling.has_edge(c2, target):
                return _multiplexor_gates(theta, c1, c2, target)
            compressed = self._compress_pair((c1, c2), controls, target, theta, free)
            if compressed is not None:
                return compressed
            eff1, chain1, used1 = self._relayed_control(c1, target, free)
            eff2, chain2, _ = self._relayed_control(c2, target, free - set(used1))
            pre = chain1 + chain2
            return pre + _multiplexor_gates(theta, eff1, eff2, target) + pre[::-1]
        compressed_any = None
        for pair in combinations(controls, 2):
            compressed_any = self._compress_pair(pair, controls, target, theta, free)
            if compressed_any is not None:
                return compressed_any
        raise LoweringError(
            f"no ancilla/edge assignment for {n}-control gate on {controls} -> {target}")

    def _compress_pair(self, pair, controls, target, theta, free):
        ci, cj = pair
        rest = tuple(q for q in controls if q not in pair)
        for a in sorted(free):
            if not (self.coupling.has_edge(ci, a) and self.coupling.has_edge(cj, a)):
                continue
            try:
                inner = self.plan(rest + (a,), target, theta, free - {a})
            except LoweringError:
                continue
            key = (ci, cj, a)
            if key not in self._ladders:
                self._ladders[key] = (_toffoli_ladder(*key), _toffoli_ladder_inverse(*key))
            ladder, inverse = self._ladders[key]
            return ladder + inner + inverse
        return None


def _apply_layout(circuit: Circuit, coupling: CouplingMap, layout: dict[int, int]) -> Circuit:
    if len(set(layout.values())) != len(layout):
        raise ValueError("layout must be injective")
    for q in range(circuit.n_qubits):
        if q not in layout:
            raise ValueError(f"layout missing logical qubit {q}")
        if not (0 <= layout[q] < coupling.n_qubits):
            raise LoweringError(f"layout maps qubit {q} outside the coupling map")
    out = Circuit(coupling.n_qubits)
    for g in circuit.gates:
        out.add(Gate(g.kind, tuple(layout[q] for q in g.qubits), g.angle, g.polarity))
    return out


def lower(circuit: Circuit, coupling: CouplingMap,
          layout: dict[int, int] | None = None,
          ancilla_pool: set[int] | None = None) -> Circuit:
    """Lower a circuit to native gates respecting the coupling map.

    Physical qubits outside the layout image serve as an ancilla pool (or pass
    ancilla_pool to restrict it, e.g. when packing parallel circuits); they are
    always returned to |0>. Raises LoweringError when a gate admits no
    edge-respecting realization.
    """
    if layout is None:
        layout = {q: q for q in range(circuit.n_qubits)}
    placed = _apply_layout(circuit, coupling, layout)
    placed = simplify_toffoli_pairs(placed)
    free = set(range(coupling.n_qubits)) - set(layout.values())
    if ancilla_pool is not None:
        free &= set(ancilla_pool)
    planner = _Planner(coupling)

    out = Circuit(coupling.n_qubits)
    for g in placed.gates:
        if g.kind in NATIVE_KINDS and len(g.qubits) == 1:
            out.add(g)
        elif g.kind == CNOT:
            c, t = g.qubits
            if coupling.has_edge(c, t):
                out.add(g)
            else:
                eff, chain, _ = planner._relayed_control(c, t, free)
                out.extend(chain + [cg.cnot(eff, t)] + chain[::-1])
        elif g.kind == SWAP:
            a, b = g.qubits
            if not coupling.has_edge(a, b):
                raise LoweringError(f"swap on non-edge ({a},{b})")
            out.extend([cg.cnot(a, b), cg.cnot(b, a), cg.cnot(a, b)])
        elif g.kind == TOFFOLI:
            c1, c2, t = g.qubits
            missing = [p for p in ((c1, t), (c2, t), (c1, c2)) if not coupling.has_edge(*p)]
            if missing:
                raise LoweringError(f"lone toffoli needs edges {missing}")
            out.extend(lower_toffoli(c1, c2, t))
        elif g.kind in (CRY, MCRY):
            conj = [cg.x(c) for c in g.controls] if g.polarity == ZERO_CONTROL else []
            out.extend(conj)
            out.extend(planner.plan(g.controls, g.target, g.angle, set(free)))
            out.extend(conj)
        elif g.kind == PAULI_X_EXP:
            out.extend(_pauli_x_exp_gates(g.angle, g.qubits, coupling))
        else:
            raise LoweringError(f"cannot lower gate kind {g.kind}")

    violations = validate_connectivity(out, coupling)
    if violations:
        raise LoweringError(f"lowering left connectivity violations: {violations}")
    return out


def _pauli_x_exp_gates(coeff: float, qubits: tuple[int, ...],
                       coupling: CouplingMap) -> list[Gate]:
    qs = sorted(qubits)
    if len(qs) == 1:
        return [cg.rx(-2 * coeff, qs[0])]
    chain = _best_chain(qs, coupling)
    pre = [cg.h(q) for q in qs]
    ladder = [cg.cnot(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return (pre + ladder + [cg.rz(-2 * coeff, chain[-1])] + ladder[::-1] + pre)


def _best_chain(qs: list[int], coupling: CouplingMap) -> tuple[int, ...]:
    """Lexicographically smallest ordering of qs whose consecutive pairs are
    coupling edges (all valid orderings tie on CNOT count)."""
    for perm in permutations(qs):
        if all(coupling.has_edge(perm[i], perm[i + 1]) for i in range(len(perm) - 1)):
            return perm
    raise LoweringError(f"no edge-respecting chain through qubits {qs}")


def lower_pauli_x_exp(gate: Gate, coupling: CouplingMap,
                      layout: dict[int, int] | None = None) -> Circuit:
    """Lower a single X-string exponential: H-conjugated CNOT ladder plus one Rz."""
    if gate.kind != PAULI_X_EXP:
        raise ValueError("expected a pauli_x_exp gate")
    if layout is None:
        layout = {q: q for q in gate.qubits}
    phys = tuple(layout[q] for q in gate.qubits)
    out = Circuit(coupling.n_qubits)
    out.extend(_pauli_x_exp_gates(gate.angle, phys, coupling))
    return out


def restricted_unitary(lowered: Circuit, data_qubits: list[int]) -> np.ndarray:
    """Unitary of a lowered circuit on data qubits, ancillas in and out at |0>.

    Raises LoweringError if any column leaks probability onto the ancillas
    beyond 1e-10 (ancillas not restored).
    """
    from .circuits import unitary_of

    full = unitary_of(lowered)
    n = lowered.n_qubits
    m = len(data_qubits)
    rows = np.zeros(1 << m, dtype=np.int64)
    for j in range(1 << m):
        idx = 0
        for pos, q in enumerate(data_qubits):
            if (j >> pos) & 1:
                idx |= 1 << q
        rows[j] = idx
    sub = full[np.ix_(rows, rows)]
    leak = np.max(np.abs(1.0 - np.sum(np.abs(sub) ** 2, axis=0)))
    if leak > 1e-10:
        raise LoweringError(f"ancillas not restored to |0>: leak {leak:.2e}")
    return sub
