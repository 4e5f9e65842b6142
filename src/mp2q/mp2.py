"""Classical MP2 reference energies: the ground truth the circuit pipeline is
checked against. Direct summation only, no factorization tricks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .hfdata import EriBlock, HartreeFockData, helium_scheme, partition

SPIN_ORBITAL = "spin-orbital"
CLOSED_SHELL = "closed-shell"
HELIUM_GROUND = "helium-ground"


@dataclass(frozen=True)
class Mp2Result:
    e2_total: float
    per_block: dict[str, float] = field(default_factory=dict)
    formula: str = CLOSED_SHELL


def _check_denominator(value: float, where: str) -> float:
    if value == 0.0:
        raise NumericalError(f"zero denominator at {where}")
    return value


def mp2_energy(data: HartreeFockData, formula: str = CLOSED_SHELL,
               per_block: bool = False) -> Mp2Result:
    """Second-order correlation energy by direct summation."""
    # helium-ground is the closed-shell sum for one occupied orbital, where
    # each term (2<00|rs><rs|00> - <00|rs><rs|00>) / den is <00|rs><rs|00> / den
    if formula == HELIUM_GROUND and data.n_occupied != 1:
        raise ValueError("helium-ground formula needs exactly one occupied spatial orbital")
    if formula in (HELIUM_GROUND, CLOSED_SHELL):
        total = _closed_shell(data)
    elif formula == SPIN_ORBITAL:
        total = _spin_orbital(data)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    blocks = {}
    if per_block:
        for blk in partition(data, helium_scheme(data)):
            blocks[blk.label] = block_energy(blk)
    return Mp2Result(total, blocks, formula)


def _closed_shell(data: HartreeFockData) -> float:
    eps = data.orbital_energies
    eri = data.eri_mo
    occ = range(data.n_occupied)
    total = 0.0
    for a in occ:
        for b in occ:
            for r in data.virtual_orbitals:
                for s in data.virtual_orbitals:
                    den = _check_denominator(eps[a] + eps[b] - eps[r] - eps[s],
                                             f"({a},{b},{r},{s})")
                    total += (2 * eri[a, b, r, s] * eri[r, s, a, b]
                              - eri[a, b, r, s] * eri[r, s, b, a]) / den
    return total


def _spin_orbital(data: HartreeFockData) -> float:
    """Antisymmetrized sum over spin-orbital pairs a<b, r<s."""
    n = data.n_orbitals
    eps = np.repeat(data.orbital_energies, 2)

    def spatial(p):
        return p // 2

    def spin(p):
        return p % 2

    def eri_spin(p, q, r, s):
        if spin(p) != spin(r) or spin(q) != spin(s):
            return 0.0
        return data.eri_mo[spatial(p), spatial(q), spatial(r), spatial(s)]

    occ = range(2 * data.n_occupied)
    virt = range(2 * data.n_occupied, 2 * n)
    total = 0.0
    for a in occ:
        for b in occ:
            if not a < b:
                continue
            for r in virt:
                for s in virt:
                    if not r < s:
                        continue
                    anti = eri_spin(a, b, r, s) - eri_spin(a, b, s, r)
                    if anti == 0.0:
                        continue
                    den = _check_denominator(eps[a] + eps[b] - eps[r] - eps[s],
                                             f"spin ({a},{b},{r},{s})")
                    total += anti * anti / den
    return total


def block_energy(block: EriBlock) -> float:
    """epsilon_part = sum_x gamma_x^2 / |denominator_x|, a magnitude in Hartree.

    Padded slots (gamma 0, denominator -inf) contribute nothing."""
    total = 0.0
    for code in range(block.gamma.size):
        g = float(block.gamma[code])
        if g == 0.0:
            continue
        den = block.denominators[code]
        if den == 0.0:
            raise NumericalError(f"zero denominator at block code {code}")
        total += g * g / abs(den)
    return total


def block_sign(block: EriBlock) -> int:
    """-1 when every finite denominator is negative (ground state), +1 when all
    positive; mixed signs raise."""
    finite = block.denominators[np.isfinite(block.denominators)]
    if np.all(finite < 0):
        return -1
    if np.all(finite > 0):
        return 1
    raise NumericalError(f"block {block.label} has mixed denominator signs")
