"""Lowering to the native gate set {Rx, Ry, Rz, X, H, CNOT} under a coupling map.

A run of consecutive ry/cry/mcry gates on one target, all controlled gates of
one polarity, commutes, so it is one uniformly controlled Ry: a Gray-code
multiplexor of 2^k Ry gates and 2^k CNOTs onto the target for k distinct
controls (Moettoenen et al., PRL 93, 130502 (2004)), with a CNOT relay over
free qubits for each control not adjacent to the target. V-chains now serve
only a lone controlled Ry, or a run too wide for a multiplexor of linear size
(2^k CNOTs at most 8 per control operand): Toffoli pairs compress controls
onto ancillas, and a pair whose controls are untouched in between needs no
control-control CNOTs, so controls never have to be adjacent to each other.

Every relay comes from one breadth-first search over free qubits toward a
set of goal qubits, `_relay`, which a multiplexor runs once per distinct
control, a V-chain for its last one or two controls, `lower` for a CNOT
between non-adjacent qubits, and an X-string to grow its parity tree.

A run of consecutive pauli_x_exp gates commutes too: conjugated by H on the
union U of their supports it is one diagonal phase polynomial, which a
Gray-code parity network builds with one Rz per nonzero parity and 2^m - 2
CNOTs for m = |U| (Welch et al., New J. Phys. 16, 033040 (2014); Amy,
Azimzadeh & Mosca, arXiv:1712.01859). A run lowers that way when U is a
clique of the map and the network takes no more CNOTs than the per-string
ladders; any other run goes string by string, each parity on a Steiner tree
(Cowtan et al., arXiv:1906.01734; Kissinger & Meijer-van de Griend,
arXiv:1904.00633). SWAPs are never emitted.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from . import circuits as cg
from .builders import fwht, subset_zeta
from .circuits import (CNOT, CRY, MCRY, NATIVE_KINDS, PAULI_X_EXP, RY, SWAP,
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


def _gray_flip(i: int, k: int) -> int:
    """The bit in which gray(i) and gray(i + 1 mod 2^k) differ, for k >= 1."""
    return min(k - 1, ((i + 1) & -(i + 1)).bit_length() - 1)


def _gray_code_ry(table: np.ndarray, target: int,
                  cnots: list[list[Gate]]) -> list[Gate]:
    """Uniformly controlled Ry: Ry(table[x]) on target for control state x.

    cnots[j] realizes a CNOT from the control of bit j onto the target. Step i
    is Ry(alpha_i), then the CNOT of the bit where gray(i) and gray(i+1 mod
    2^k) differ, so Ry(alpha_i) acts with sign (-1)^popcount(x & gray(i)) and
    alpha_i = fwht(table)[gray(i)] / 2^k sums to table[x]."""
    k = len(cnots)
    steps = np.arange(1 << k)
    alpha = fwht(table)[steps ^ (steps >> 1)] / (1 << k)
    out = []
    for i, a in enumerate(alpha):
        out.append(cg.ry(float(a), target))
        out.extend(cnots[_gray_flip(i, k)])
    return out


def _controlled_ry(theta: float, controls: list[int], target: int) -> list[Gate]:
    """Ry(theta) when every control is 1, with 2^k CNOTs from the adjacent
    controls (bit j of the Gray code is controls[j])."""
    table = np.zeros(1 << len(controls))
    table[-1] = theta
    return _gray_code_ry(table, target, [[cg.cnot(c, target)] for c in controls])


# A multiplexor over k controls takes 2^k CNOTs; it is built only while that
# stays within this many per control operand of its run (a V-chain spends 8,
# one Toffoli pair, per control), so the output grows linearly with the input
# and a run of wide gates on disjoint controls never allocates 2^k gates.
_MUX_CNOTS_PER_CONTROL = 8


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


def _relay(coupling: CouplingMap, control: int, goals: set[int],
           free: set[int]) -> list[int]:
    """The free qubits v1..vk of a shortest relay path control -> v1 -> ...
    -> vk with vk adjacent to a goal qubit, [] when control is adjacent to
    one. The one search of lowering: a breadth-first search over free
    qubits, neighbours in ascending order."""
    near = set().union(*(coupling.adjacency[g] for g in goals))
    if control in near:
        return []
    seen = {control}
    queue = deque([(control, [])])
    while queue:
        node, path = queue.popleft()
        for nb in coupling.neighbors(node):
            if nb in seen or nb in goals or nb not in free:
                continue
            seen.add(nb)
            if nb in near:
                return path + [nb]
            queue.append((nb, path + [nb]))
    raise LoweringError(f"no free relay path from {control} to a neighbor of "
                        f"{' or '.join(map(str, sorted(goals)))}")


def _copies(control: int, path: list[int]) -> tuple[int, list[Gate]]:
    """The qubit that holds the control at the end of its relay path, and the
    CNOTs that copy it there (none for an empty path)."""
    hops = [control] + path
    return hops[-1], [cg.cnot(a, b) for a, b in zip(hops, hops[1:])]


def _relayed_cnot(control: int, target: int, path: list[int]) -> list[Gate]:
    """CNOT(control, target) over a relay path: the copies, a CNOT from the
    last copy, and the copies undone, which returns the path to |0>."""
    carrier, copies = _copies(control, path)
    return copies + [cg.cnot(carrier, target)] + copies[::-1]


def _ry_run(coupling: CouplingMap, run: list[Gate], free: set[int]) -> list[Gate]:
    """Lower a run of commuting Ry gates on one target. A run with two or
    more controlled gates is one Gray-code multiplexor; a lone controlled Ry
    keeps the V-chain and falls back to a multiplexor only where the V-chain
    finds no ancilla assignment. Neither path builds a multiplexor whose size
    outgrows the run (`_MUX_CNOTS_PER_CONTROL`)."""
    controlled = [g for g in run if g.kind != RY]
    k = len({c for g in controlled for c in g.controls})
    fits = 1 << k <= _MUX_CNOTS_PER_CONTROL * sum(len(g.controls) for g in controlled)
    if fits and len(controlled) > 1:
        return _multiplexor(coupling, run, free)
    try:
        return [p for g in run for p in _one_gate(coupling, g, free)]
    except LoweringError:
        if not fits:
            raise
        return _multiplexor(coupling, run, free)


def _one_gate(coupling: CouplingMap, g: Gate, free: set[int]) -> list[Gate]:
    if g.kind == RY:
        return [g]
    conj = [cg.x(c) for c in g.controls] if g.polarity == ZERO_CONTROL else []
    return conj + _v_chain(coupling, g.controls, g.target, g.angle, free) + conj


def _multiplexor(coupling: CouplingMap, run: list[Gate], free: set[int]) -> list[Gate]:
    target = run[0].target
    # one relay search per distinct control, in order of first use
    paths = {c: _relay(coupling, c, {target}, free)
             for c in dict.fromkeys(c for g in run for c in g.controls)}
    # bit 0 drives every other CNOT, so the nearest control takes it
    controls = sorted(paths, key=lambda c: (len(paths[c]), c))
    bit = {c: 1 << j for j, c in enumerate(controls)}
    angles = np.zeros(1 << len(controls))
    polarity = None
    for g in run:
        angles[sum(bit[c] for c in g.controls)] += g.angle
        if g.kind != RY:
            polarity = g.polarity
    table = subset_zeta(angles)
    if polarity == ZERO_CONTROL:
        table = table[::-1]  # index x ^ (2^k - 1): every control reads 0 as 1
    return _gray_code_ry(table, target, [_relayed_cnot(c, target, paths[c]) for c in controls])


def _x_string(coupling: CouplingMap, g: Gate, free: set[int]) -> list[Gate]:
    """exp(i*theta*X^S) for S = g.qubits (an Rx where |S| = 1): H on S, the
    CNOTs of a parity tree onto its root max(S), Rz on the root, the CNOTs
    undone and H on S. The tree grows by `_relay`: at each step the remaining
    qubit with the shortest relay to the tree (the largest on a tie) joins it
    at the smallest tree neighbour, with the relay's free qubits as Steiner
    points, which start and end at |0>. Each (child, parent) edge is a CNOT,
    children first. Where S induces a connected subgraph of the map the tree
    is on S alone: 2(|S| - 1) CNOTs."""
    qs = sorted(g.qubits)
    if len(qs) == 1:
        return [cg.rx(-2 * g.angle, qs[0])]
    tree, rest, pairs = {qs[-1]}, qs[:-1], []
    while rest:
        paths = {}
        for q in rest:
            try:
                paths[q] = _relay(coupling, q, tree, free)
            except LoweringError:
                continue
        if not paths:
            raise LoweringError(f"no edge-respecting chain through qubits {qs}")
        q = min(paths, key=lambda q: (len(paths[q]), -q))
        hops = [q] + paths[q]
        parent = min(coupling.adjacency[hops[-1]] & tree)
        pairs = list(zip(hops, hops[1:] + [parent])) + pairs
        tree.update(hops)
        rest.remove(q)
    return cg.x_string_ladder(qs, pairs, [cg.rz(-2 * g.angle, qs[-1])])


def _x_string_run(coupling: CouplingMap, run: list[Gate], free: set[int]) -> list[Gate]:
    """Lower a run of commuting X-string exponentials. Two or more strings
    whose support union U is a clique of the map, and whose ladders take
    at least the 2^m - 2 CNOTs of a parity network on m = |U| >= 2
    qubits, are H on U, the phase polynomial of the summed coefficients,
    and H on U; any other run goes string by string through `_x_string`.

    Qubit j of U (ascending) is bit j. Level m-1 down to 0 aims every
    CNOT at U[level] from the controls U[:level] in Gray-code order, so
    before step i the target holds the parity of mask (1 << level) |
    gray(i); each nonempty mask is the parity of exactly one step."""
    union = sorted({q for g in run for q in g.qubits})
    m = len(union)
    ladders = sum(2 * (len(g.qubits) - 1) for g in run)
    if (len(run) < 2 or m < 2 or (1 << m) - 2 > ladders
            or not all(coupling.has_edge(a, b) for a, b in combinations(union, 2))):
        return [p for g in run for p in _x_string(coupling, g, free)]
    bit = {q: 1 << j for j, q in enumerate(union)}
    table: dict[int, float] = {}
    for g in run:
        mask = sum(bit[q] for q in g.qubits)
        table[mask] = table.get(mask, 0.0) + g.angle
    hadamards = [cg.h(q) for q in union]
    out = list(hadamards)
    for level in range(m - 1, -1, -1):
        target = union[level]
        for i in range(1 << level):
            coeff = table.get((1 << level) | (i ^ (i >> 1)), 0.0)
            if coeff:
                out.append(cg.rz(-2 * coeff, target))
            if level:
                out.append(cg.cnot(union[_gray_flip(i, level)], target))
    return out + hadamards


def _v_chain(coupling: CouplingMap, controls: tuple[int, ...], target: int,
             theta: float, free: set[int]) -> list[Gate]:
    """A lone C^k-Ry (k >= 1) on the map. Toffoli pairs compress two controls
    onto a free ancilla adjacent to both until one or two remain; those reach
    the target over relay paths, each avoiding the qubits of the earlier ones,
    whose copies are held around the controlled Ry."""
    controls = tuple(sorted(controls))
    n = len(controls)
    if n > 2 or not all(coupling.has_edge(c, target) for c in controls):
        for ci, cj in combinations(controls, 2):
            rest = tuple(q for q in controls if q not in (ci, cj))
            for a in sorted(free):
                if not (coupling.has_edge(ci, a) and coupling.has_edge(cj, a)):
                    continue
                try:
                    inner = _v_chain(coupling, rest + (a,), target, theta, free - {a})
                except LoweringError:
                    continue
                return _toffoli_ladder(ci, cj, a) + inner + _toffoli_ladder_inverse(ci, cj, a)
    if n > 2:
        raise LoweringError(
            f"no ancilla/edge assignment for {n}-control gate on {controls} -> {target}")
    carriers, copies, left = [], [], free
    for c in controls:
        path = _relay(coupling, c, {target}, left)
        carrier, chain = _copies(c, path)
        carriers.append(carrier)
        copies += chain
        left = left.difference(path)
    return copies + _controlled_ry(theta, carriers[::-1], target) + copies[::-1]


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


_RY_KINDS = (RY, CRY, MCRY)


def _commuting_runs(gates: list[Gate]) -> list[list[Gate]]:
    """Split a gate list into maximal runs of commuting gates: ry/cry/mcry
    gates on one target whose controlled gates share a polarity, or
    pauli_x_exp gates; every other gate is a run of its own."""
    runs: list[list[Gate]] = []
    polarity = None
    for g in gates:
        run = runs[-1] if runs else None
        if run and g.kind == run[0].kind == PAULI_X_EXP:
            run.append(g)
        elif (run and g.kind in _RY_KINDS and run[0].kind in _RY_KINDS
                and g.target == run[0].target
                and (g.kind == RY or polarity in (None, g.polarity))):
            run.append(g)
        else:
            runs.append([g])
            polarity = None
        if g.kind in (CRY, MCRY):
            polarity = g.polarity
    return runs


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

    out = Circuit(coupling.n_qubits)
    for run in _commuting_runs(placed.gates):
        g = run[0]
        if g.kind in _RY_KINDS:
            out.extend(_ry_run(coupling, run, free))
        elif g.kind in NATIVE_KINDS and len(g.qubits) == 1:
            out.add(g)
        elif g.kind == CNOT:
            c, t = g.qubits
            out.extend(_relayed_cnot(c, t, _relay(coupling, c, {t}, free)))
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
        elif g.kind == PAULI_X_EXP:
            out.extend(_x_string_run(coupling, run, free))
        else:
            raise LoweringError(f"cannot lower gate kind {g.kind}")

    violations = validate_connectivity(out, coupling)
    if violations:
        raise LoweringError(f"lowering left connectivity violations: {violations}")
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
