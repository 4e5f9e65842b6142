"""Circuit builders: denominator loader U_E (value and sqrt variants, fast and
naive forms), the Trotterized interaction loader U_INT with a base state, the
exact amplitude-preparation variant, the AO->MO transform blocks, the
difference circuit, and the full sweep pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits as cg
from .circuits import Circuit, Gate, ONE_CONTROL, ZERO_CONTROL, controlled
from .errors import NumericalError
from .hfdata import EriBlock

VALUE = "value"
SQRT = "sqrt"


def _bit_pairs(values, dtype) -> tuple[np.ndarray, list[np.ndarray]]:
    """A copy of values as dtype, and for each bit b a (-1, 2, 2^b) view of it
    whose middle axis pairs every index without bit b with its partner."""
    a = np.array(values, dtype=dtype)
    q = (a.size - 1).bit_length()
    if a.size != 1 << q:
        raise ValueError("length must be a power of two")
    return a, [a.reshape(-1, 2, 1 << b) for b in range(q)]


def subset_zeta(values: np.ndarray) -> np.ndarray:
    """out[x] = sum over submasks m of x of values[m]."""
    a, pairs = _bit_pairs(values, float)
    for v in pairs:
        v[:, 1, :] += v[:, 0, :]
    return a


def subset_moebius(values: np.ndarray) -> np.ndarray:
    """Inverse of subset_zeta over the bitwise-subset lattice."""
    a, pairs = _bit_pairs(values, float)
    for v in pairs:
        v[:, 1, :] -= v[:, 0, :]
    return a


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[k] = sum over m of
    (-1)^popcount(k & m) values[m]. Applied twice it multiplies by the length."""
    a, pairs = _bit_pairs(values, complex if np.iscomplexobj(values) else float)
    for v in pairs:
        lo = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] = lo - v[:, 1, :]
    return a


@dataclass(frozen=True)
class AngleTable:
    """Rotation angles of U_E, one per control bitmask.

    The forward subset-sum of `angles` reproduces target(x) for every input
    mask x; targets encode C_e/|denominator| per the chosen variant.
    """
    n_control_qubits: int
    angles: np.ndarray
    normalizer: float    # C_e, Hartree
    variant: str
    polarity: int = ONE_CONTROL

    @property
    def targets(self) -> np.ndarray:
        t = subset_zeta(self.angles)
        # index x ^ (2^Q - 1): every control reads 0 as 1
        return t[::-1] if self.polarity == ZERO_CONTROL else t


def default_c_e(block: EriBlock) -> float:
    """min |denominator| over the block keeps every ratio in (0, 1]."""
    finite = np.abs(block.denominators[np.isfinite(block.denominators)])
    if finite.size == 0:
        raise NumericalError("block has no finite denominators")
    return float(finite.min())


def ratio_table(block: EriBlock, c_e: float) -> np.ndarray:
    """kappa[x] = C_e / |denominator_x| (0 on padded slots)."""
    dens = block.denominators
    if np.any(dens == 0.0):
        raise NumericalError("zero denominator in block")
    kappa = np.where(np.isfinite(dens), c_e / np.abs(dens), 0.0)
    return kappa


def _targets(kappa: np.ndarray, variant: str) -> np.ndarray:
    if np.any(kappa > 1.0 + 1e-12):
        raise NumericalError(f"C_e/|denominator| above 1: max {kappa.max():.6g}")
    kappa = np.clip(kappa, 0.0, 1.0)
    if variant == SQRT:
        return np.arccos(1.0 - 2.0 * kappa)
    if variant == VALUE:
        return 2.0 * np.arcsin(kappa)
    raise ValueError(f"unknown variant {variant!r}")


def solve_angles(block: EriBlock, variant: str = SQRT, c_e: float | None = None,
                 polarity: int = ONE_CONTROL) -> AngleTable:
    """Invert the per-mask targets over the subset lattice (Moebius transform)."""
    if c_e is None:
        c_e = default_c_e(block)
    targets = _targets(ratio_table(block, c_e), variant)
    return angles_from_targets(targets, c_e, variant, polarity)


def angles_from_targets(targets: np.ndarray, c_e: float, variant: str,
                        polarity: int = ONE_CONTROL) -> AngleTable:
    targets = np.asarray(targets, dtype=float)
    q = (targets.size - 1).bit_length()
    if polarity == ZERO_CONTROL:
        targets = targets[::-1]
    angles = subset_moebius(targets)
    table = AngleTable(q, angles, float(c_e), variant, polarity)
    check = np.max(np.abs(subset_zeta(angles) - targets))
    if check > 1e-12:
        raise NumericalError(f"angle round-trip failed: {check:.3e}")
    return table


def _masks_by_weight(q: int):
    return sorted(range(1 << q), key=lambda m: (bin(m).count("1"), m))


def build_ue(angles: AngleTable, register: list[int] | None = None,
             readout: int | None = None, n_qubits: int | None = None) -> Circuit:
    """U_E: one multi-controlled Ry per bitmask, ordered Ry, CRy, C2Ry, ...

    Block-diagonal in the register: each basis input |x> rotates the readout
    by the summed angles of its submasks.
    """
    q = angles.n_control_qubits
    if register is None:
        register = list(range(q))
    if readout is None:
        readout = q
    circ = Circuit(n_qubits if n_qubits is not None else max([readout] + register) + 1)
    for mask in _masks_by_weight(q):
        theta = angles.angles[mask]
        if theta == 0.0:
            continue
        controls = [register[j] for j in range(q) if (mask >> j) & 1]
        circ.add(cg.mcry(theta, controls, readout, angles.polarity))
    return circ


def build_ue_naive(block: EriBlock, variant: str = SQRT, c_e: float | None = None,
                   register: list[int] | None = None, readout: int | None = None) -> Circuit:
    """U'_E: one full-pattern C^Q Ry per block entry, angle = the whole target."""
    if c_e is None:
        c_e = default_c_e(block)
    targets = _targets(ratio_table(block, c_e), variant)
    q = block.n_qubits
    if register is None:
        register = list(range(q))
    if readout is None:
        readout = q
    circ = Circuit(max([readout] + register) + 1)
    for code in range(1 << q):
        theta = targets[code]
        if theta == 0.0:
            continue
        conj = [cg.x(register[j]) for j in range(q) if not (code >> j) & 1]
        circ.extend(conj)
        circ.add(cg.mcry(theta, register, readout))
        circ.extend(conj)
    return circ


def default_base_state(block: EriBlock) -> int:
    """Lowest code with a vanishing interaction entry."""
    zeros = np.flatnonzero(block.gamma == 0.0)
    if zeros.size == 0:
        raise NumericalError("block has no zero-gamma code to serve as base state")
    return int(zeros[0])


def build_uint(block: EriBlock, lam: float, base_state: int | None = None,
               register: list[int] | None = None) -> Circuit:
    """U_INT(lambda): prepare |y> then one X-string exponential per entry.

    The generators are tensor products of X and identity, so they all commute
    and the first-order product equals exp(i*lambda*V) exactly.
    """
    y = default_base_state(block) if base_state is None else base_state
    if block.gamma[y] != 0.0:
        raise NumericalError(f"base state {y:0{block.n_qubits}b} has nonzero gamma")
    q = block.n_qubits
    if register is None:
        register = list(range(q))
    circ = Circuit(max(register) + 1)
    for j in range(q):
        if (y >> j) & 1:
            circ.add(cg.x(register[j]))
    for code in range(1 << q):
        if code == y or block.gamma[code] == 0.0:
            continue
        support = [register[j] for j in range(q) if ((code ^ y) >> j) & 1]
        circ.add(cg.pauli_x_exp(lam * float(block.gamma[code]), support))
    return circ


def build_uint_exact(gamma, register: list[int] | None = None) -> Circuit:
    """Exact amplitude preparation: |0> -> sum_x gamma_x/||gamma|| |x>.

    A binary tree of pattern-controlled Ry gates; subtrees with zero weight get
    no rotation. Accepts an EriBlock or a plain length-2^Q vector.
    """
    if isinstance(gamma, EriBlock):
        gamma = gamma.gamma
    gamma = np.asarray(gamma, dtype=float)
    if np.all(gamma == 0.0):
        raise NumericalError("all-zero amplitude vector")
    q = (gamma.size - 1).bit_length()
    if gamma.size != 1 << q:
        raise ValueError("length must be a power of two")
    if register is None:
        register = list(range(q))
    # levels[k][i] = norm of the subtree of size 2^k starting at i*2^k
    levels = [gamma]
    v = gamma
    while v.size > 1:
        v = np.linalg.norm(v.reshape(-1, 2), axis=1)
        levels.append(v)
    circ = Circuit(max(register) + 1)
    for depth in range(q):
        children = levels[q - depth - 1]
        target = register[q - 1 - depth]
        for prefix in range(1 << depth):
            c0, c1 = children[2 * prefix], children[2 * prefix + 1]
            if c0 == 0.0 and c1 == 0.0:
                continue
            theta = 2.0 * np.arctan2(c1, c0)
            if theta == 0.0:
                continue
            controls = [register[q - 1 - i] for i in range(depth)]
            conj = [cg.x(controls[i]) for i in range(depth)
                    if not (prefix >> (depth - 1 - i)) & 1]
            circ.extend(conj)
            circ.add(cg.mcry(theta, controls, target))
            circ.extend(conj)
    return circ


@dataclass(frozen=True)
class TransRegisterPlan:
    """Qubit layout for the AO->MO transform: four AO slots (k, l, m, n) and
    four MO slots (a, b occupied; r, s virtual). Code 0 is reserved as the
    no-orbital state in every slot, so orbital i maps to code i + 1."""
    n_ao: int
    n_mo: int
    n_occupied: int

    @property
    def ao_slot_qubits(self) -> int:
        return self.n_ao.bit_length()

    @property
    def occ_slot_qubits(self) -> int:
        return self.n_occupied.bit_length()

    @property
    def vir_slot_qubits(self) -> int:
        return (self.n_mo - self.n_occupied).bit_length()

    @property
    def slots(self) -> list[tuple[list[int], list[int], list[int]]]:
        """(ao qubits, mo qubits, mo orbital indices) per slot, LSB first."""
        qa, qo, qv = self.ao_slot_qubits, self.occ_slot_qubits, self.vir_slot_qubits
        pos = 0
        ao_ranges = []
        for _ in range(4):
            ao_ranges.append(list(range(pos, pos + qa)))
            pos += qa
        occ = list(range(self.n_occupied))
        vir = list(range(self.n_occupied, self.n_mo))
        out = []
        for i, (orbs, width) in enumerate(((occ, qo), (occ, qo), (vir, qv), (vir, qv))):
            out.append((ao_ranges[i], list(range(pos, pos + width)), orbs))
            pos += width
        return out

    @property
    def n_qubits(self) -> int:
        return 4 * self.ao_slot_qubits + 2 * self.occ_slot_qubits + 2 * self.vir_slot_qubits

    def encode_ao(self, k: int, l: int, m: int, n: int) -> int:
        idx = 0
        for (ao_qs, _, _), orb in zip(self.slots, (k, l, m, n)):
            code = orb + 1
            for bit, qb in enumerate(ao_qs):
                if (code >> bit) & 1:
                    idx |= 1 << qb
        return idx

    def encode_mo(self, a: int, b: int, r: int, s: int) -> int:
        idx = 0
        for (_, mo_qs, orbs), orb in zip(self.slots, (a, b, r, s)):
            code = orbs.index(orb) + 1
            for bit, qb in enumerate(mo_qs):
                if (code >> bit) & 1:
                    idx |= 1 << qb
        return idx


def _mc_rz(theta: float, controls: list[int], target: int) -> list[Gate]:
    """Multi-controlled Rz via Ry conjugation: Rz = H S' Ry S H on the target."""
    return [cg.h(target), cg.rz(np.pi / 2, target),
            cg.mcry(theta, controls, target),
            cg.rz(-np.pi / 2, target), cg.h(target)]


def _pattern_controlled_x_exp(coeff: float, string: list[int],
                              controls: list[int], pattern: int) -> list[Gate]:
    conj = [cg.x(c) for i, c in enumerate(controls) if not (pattern >> i) & 1]
    core = _mc_rz(-2.0 * coeff, controls, string[-1])
    return conj + cg.x_string_ladder(string, zip(string, string[1:]), core) + conj


def build_utrans(mo_coefficients: np.ndarray, lam: float,
                 plan: TransRegisterPlan) -> Circuit:
    """AO-controlled transform blocks: for each AO index w of each slot, apply
    exp(i*lam*c[w,o] X-string(code)) on the slot's MO qubits for every orbital o.

    U_trans leaves |0> alone on both registers (code 0 matches no pattern)."""
    c = np.asarray(mo_coefficients, dtype=float)
    if c.shape != (plan.n_ao, plan.n_mo):
        raise ValueError(f"coefficients must be {plan.n_ao} x {plan.n_mo}")
    circ = Circuit(plan.n_qubits)
    for ao_qs, mo_qs, orbitals in plan.slots:
        for w in range(plan.n_ao):
            ao_code = w + 1
            for local, orb in enumerate(orbitals):
                coeff = lam * c[w, orb]
                if coeff == 0.0:
                    continue
                mo_code = local + 1
                string = [mo_qs[b] for b in range(len(mo_qs)) if (mo_code >> b) & 1]
                circ.extend(_pattern_controlled_x_exp(coeff, string, ao_qs, ao_code))
    return circ


def build_difference(u0: Circuit, u1: Circuit, ancilla: int | None = None) -> Circuit:
    """H on the ancilla, U0, controlled-(U1 U0^dagger), H: finding the ancilla
    at |1> with the register at |n> has probability |<n|(U0-U1)|phi>|^2 / 4."""
    if u0.n_qubits != u1.n_qubits:
        raise ValueError("u0 and u1 must act on the same register width")
    width = u0.n_qubits
    if ancilla is None:
        ancilla = width
    circ = Circuit(max(width, ancilla + 1))
    circ.add(cg.h(ancilla))
    circ.extend(u0.gates)
    delta = Circuit(width, list(u0.inverse().gates) + list(u1.gates))
    circ.extend(controlled(delta, ancilla))
    circ.add(cg.h(ancilla))
    return circ


@dataclass(frozen=True)
class PipelineSpec:
    """One sweep point: which block, the interaction scale, and the wiring."""
    block: EriBlock
    lam: float
    base_state: int | None = None
    readout: int | None = None
    include_occupied: bool = False
    occupied_code: int = 0

    def resolved_base(self) -> int:
        return default_base_state(self.block) if self.base_state is None else self.base_state


def build_pipeline(spec: PipelineSpec, angles: AngleTable) -> Circuit:
    """U_E^sqrt after U_INT(lambda) on |0...0>, readout on q'."""
    if spec.lam < 0:
        raise ValueError("lambda must be >= 0")
    block = spec.block
    q = block.n_qubits
    readout = q if spec.readout is None else spec.readout
    y = spec.resolved_base()
    circ = Circuit(max(q, readout) + 1)
    uint = build_uint(block, spec.lam, y)
    circ.extend(uint.gates)
    ue = build_ue(angles, register=list(range(q)), readout=readout)
    if spec.include_occupied:
        circ = _with_occupied_register(circ, ue, spec, q, readout)
    else:
        circ.extend(ue.gates)
    return circ


def _with_occupied_register(circ: Circuit, ue: Circuit, spec: PipelineSpec,
                            q: int, readout: int) -> Circuit:
    """General path: keep the occupied-pair qubits and condition U_E on them."""
    n_occ_qubits = max(1, spec.occupied_code.bit_length())
    occ_register = list(range(readout + 1, readout + 1 + n_occ_qubits))
    out = Circuit(readout + 1 + n_occ_qubits, list(circ.gates))
    for j, qb in enumerate(occ_register):
        if (spec.occupied_code >> j) & 1:
            out.add(cg.x(qb))
    conj = [cg.x(qb) for j, qb in enumerate(occ_register)
            if not (spec.occupied_code >> j) & 1]
    for g in ue.gates:
        out.extend(conj)
        if g.kind in (cg.RY, cg.CRY, cg.MCRY):
            out.add(cg.mcry(g.angle, tuple(g.controls) + tuple(occ_register),
                            g.target, g.polarity))
        else:
            out.add(g)
        out.extend(conj)
    return out


def swap_rs_gates(block: EriBlock, register: list[int] | None = None) -> list[Gate]:
    """SWAP the r and s sub-registers (requires equal widths)."""
    qr, qs = block.n_r_qubits, block.n_s_qubits
    if qr != qs:
        raise ValueError("r/s swap needs equally sized sub-registers")
    if register is None:
        register = list(range(block.n_qubits))
    return [cg.swap(register[i], register[qs + i]) for i in range(qs)]


def build_antisym_pipeline(block: EriBlock, angles: AngleTable) -> Circuit:
    """Difference circuit for antisymmetrized components: exact interaction
    prep, a controlled r/s swap on a q'' ancilla, then U_E to q'.

    Joint probability of q''=1 and q'=1 collects
    sum_x ((gamma_x - gamma_swap(x)) / (2 ||gamma||))^2 * C_e/|den_x|."""
    q = block.n_qubits
    readout, anc = q, q + 1
    circ = Circuit(q + 2)
    circ.add(cg.h(anc))
    circ.extend(build_uint_exact(block).gates)
    cswap = Circuit(q, swap_rs_gates(block))
    circ.extend(controlled(cswap, anc))
    circ.add(cg.h(anc))
    circ.extend(build_ue(angles, register=list(range(q)), readout=readout).gates)
    return circ
