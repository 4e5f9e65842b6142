"""Hartree-Fock data ingestion, the AO->MO integral transform, and partitioning
of the virtual-pair tensor into circuit-sized blocks.

ERI tensors use physicists' notation <ab|rs> throughout; chemists' input is
rejected at load. Energies are Hartree.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import SchemaError, json_number, parse_json

SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class HartreeFockData:
    n_orbitals: int
    n_occupied: int
    orbital_energies: np.ndarray      # (N,)
    mo_coefficients: np.ndarray       # (N, N), AO row k, MO column a
    eri_mo: np.ndarray                # (N, N, N, N), <ab|rs>
    eri_ao: np.ndarray | None = None  # (N, N, N, N), <kl|mn>

    def __post_init__(self):
        n = self.n_orbitals
        if not 1 <= self.n_occupied < n:
            raise SchemaError(f"need 1 <= n_occupied < n_orbitals, got {self.n_occupied}/{n}")
        if self.orbital_energies.shape != (n,):
            raise SchemaError("orbital_energies length mismatch")
        if self.mo_coefficients.shape != (n, n):
            raise SchemaError("mo_coefficients must be N x N")
        if self.eri_mo.shape != (n, n, n, n):
            raise SchemaError("eri_mo must be N^4")
        for name in ("orbital_energies", "mo_coefficients", "eri_mo", "eri_ao"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise SchemaError(f"{name} has non-finite entries")
        dev = np.max(np.abs(self.eri_mo - self.eri_mo.transpose(2, 3, 0, 1)))
        if dev > SYMMETRY_TOL:
            raise SchemaError(f"eri_mo violates <ab|rs> = <rs|ab> by {dev:.3e}")

    @property
    def virtual_orbitals(self) -> list[int]:
        return list(range(self.n_occupied, self.n_orbitals))


def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _float_array(value, name: str, each: bool = True) -> np.ndarray:
    """A float array from nested JSON lists of numbers. A string, an object,
    a ragged list or all-bool data is a SchemaError naming the field; so is
    any bool when `each` looks at every element, a Python pass that the
    large dense tensors skip (a bool among their floats reads as 1.0)."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or (each and _has_bool(value)):
        raise SchemaError(f"{name} is not a number or equal-length lists of numbers")
    return arr.astype(float, copy=False)


def _tensor_from_schema(node, n: int, name: str) -> np.ndarray:
    if not isinstance(node, dict):
        raise SchemaError(f"{name} must be an object with 'format' and 'data', "
                          f"got {type(node).__name__}")
    fmt = node.get("format")
    if fmt in ("dense", "sparse") and "data" not in node:
        raise SchemaError(f"{fmt} {name} has no 'data'")
    if fmt == "dense":
        arr = _float_array(node["data"], f"dense {name} data", each=False)
        if arr.shape != (n, n, n, n):
            raise SchemaError(f"dense {name} has shape {arr.shape}, expected {(n,) * 4}")
        return arr
    if fmt == "sparse":
        if not isinstance(node["data"], list):
            raise SchemaError(f"sparse {name} data must be a list of [a, b, r, s, value], "
                              f"got {type(node['data']).__name__}")
        arr = np.zeros((n, n, n, n))
        for k, entry in enumerate(node["data"]):
            where = f"{name} sparse entry {k} {entry!r}"
            if not isinstance(entry, list) or len(entry) != 5:
                raise SchemaError(f"{where}: expected [a, b, r, s, value]")
            *index, val = entry
            for i in index:
                # a negative index would wrap around, a float or bool would pass
                if not (type(i) is int and 0 <= i < n):
                    raise SchemaError(f"{where}: index {i!r} is not an integer in 0..{n - 1}")
            try:
                arr[tuple(index)] = json_number(val, where)
            except (SchemaError, OverflowError):
                raise SchemaError(f"{where}: value {val!r} is not a number") from None
        return arr
    raise SchemaError(f"unknown {name} format {fmt!r}")


def load(source, name: str | None = None) -> HartreeFockData:
    """Load HF results from the JSON schema, given a path or the file's bytes
    (`name` names them in a JSON error); validates units, notation and symmetry."""
    if not isinstance(source, bytes):
        name, source = name or str(source), Path(source).read_bytes()
    doc = parse_json(source, name or "HF data")
    if not isinstance(doc, dict):
        raise SchemaError(f"HF data must be a JSON object, got {type(doc).__name__}")
    for key in ("n_orbitals", "n_occupied", "units", "notation",
                "orbital_energies", "mo_coefficients", "eri_mo"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    for key in ("n_orbitals", "n_occupied"):
        if not (type(doc[key]) is int and doc[key] >= 0):
            raise SchemaError(f"{key} must be a non-negative integer, got {doc[key]!r}")
    if doc["units"] != "hartree":
        raise SchemaError(f"units must be 'hartree', got {doc['units']!r}")
    if doc["notation"] != "physicist":
        raise SchemaError(f"notation must be 'physicist', got {doc['notation']!r}")
    n = doc["n_orbitals"]
    eri_ao = _tensor_from_schema(doc["eri_ao"], n, "eri_ao") if "eri_ao" in doc else None
    data = HartreeFockData(
        n_orbitals=n,
        n_occupied=doc["n_occupied"],
        orbital_energies=_float_array(doc["orbital_energies"], "orbital_energies"),
        mo_coefficients=_float_array(doc["mo_coefficients"], "mo_coefficients"),
        eri_mo=_tensor_from_schema(doc["eri_mo"], n, "eri_mo"),
        eri_ao=eri_ao,
    )
    # a ground-state reference fills the lowest orbitals; otherwise MP2
    # denominators change sign (or vanish) and the "energies" are meaningless
    eps, n_occ = data.orbital_energies, data.n_occupied
    homo = int(np.argmax(eps[:n_occ]))
    lumo = n_occ + int(np.argmin(eps[n_occ:]))
    if not eps[homo] < eps[lumo]:
        raise SchemaError(f"occupied orbital {homo} (energy {float(eps[homo])}) is not "
                          f"below virtual orbital {lumo} (energy {float(eps[lumo])})")
    return data


def helium_fixture_path():
    """Path of the shipped helium aug-cc-pVDZ fixture (9 orbitals, 1 occupied)."""
    return resources.files("mp2q.data").joinpath("helium_aug_cc_pvdz.json")


def ao_to_mo(eri_ao: np.ndarray, mo_coefficients: np.ndarray) -> np.ndarray:
    """<ab|rs> = sum_klmn c_ka c_lb c_mr c_ns <kl|mn>, by staged contractions."""
    c = np.asarray(mo_coefficients, dtype=float)
    n = c.shape[0]
    if c.shape != (n, n) or eri_ao.shape != (n, n, n, n):
        raise ValueError("dimension mismatch between coefficients and AO tensor")
    t = np.einsum("klmn,ka->almn", eri_ao, c)
    t = np.einsum("almn,lb->abmn", t, c)
    t = np.einsum("abmn,mr->abrn", t, c)
    return np.einsum("abrn,ns->abrs", t, c)


def antisymmetrized(data: HartreeFockData, a: int, b: int, r: int, s: int) -> float:
    """<ab||rs> = <ab|rs> - <ab|sr>."""
    return float(data.eri_mo[a, b, r, s] - data.eri_mo[a, b, s, r])


@dataclass(frozen=True)
class EriBlock:
    """One circuit-sized tile of the (r, s) virtual plane for a fixed occupied pair.

    gamma[x] and denominators[x] are indexed by the code x = r_local * 2^Qs + s_local.
    Padded slots (no orbital) carry gamma = 0 and denominator = -inf.
    """
    label: str
    occupied: tuple[int, int]
    r_orbitals: tuple
    s_orbitals: tuple
    gamma: np.ndarray
    denominators: np.ndarray

    def __post_init__(self):
        for axis in (self.r_orbitals, self.s_orbitals):
            if len(axis) & (len(axis) - 1):
                raise ValueError("orbital axes must have power-of-two length (pad first)")
        size = len(self.r_orbitals) * len(self.s_orbitals)
        if self.gamma.shape != (size,) or self.denominators.shape != (size,):
            raise ValueError(f"gamma/denominators must have length {size}")
        # -inf marks a padded slot; NaN or +inf would pass for one in np.isfinite
        bad = np.flatnonzero(~np.isfinite(self.gamma) | ~(self.denominators < np.inf))
        if bad.size:
            code = int(bad[0])
            raise ValueError(f"{self.label} code {code}: gamma {self.gamma[code]} and "
                             f"denominator {self.denominators[code]} must be finite "
                             f"(denominator -inf for a padded slot)")

    @property
    def n_r_qubits(self) -> int:
        return (len(self.r_orbitals) - 1).bit_length()

    @property
    def n_s_qubits(self) -> int:
        return (len(self.s_orbitals) - 1).bit_length()

    @property
    def n_qubits(self) -> int:
        return self.n_r_qubits + self.n_s_qubits

    def decode(self, code: int):
        """(r, s) orbital indices for a code, or None for a padded slot."""
        r_local, s_local = divmod(code, 1 << self.n_s_qubits)
        if r_local >= len(self.r_orbitals) or s_local >= len(self.s_orbitals):
            return None
        r, s = self.r_orbitals[r_local], self.s_orbitals[s_local]
        if r is None or s is None:
            return None
        return r, s

    def transposed(self, label: str | None = None) -> "EriBlock":
        """The (r,s) -> (s,r) mirror block (e.g. part II from part III)."""
        qr, qs = self.n_r_qubits, self.n_s_qubits
        gamma = self.gamma.reshape(1 << qr, 1 << qs).T.reshape(-1).copy()
        dens = self.denominators.reshape(1 << qr, 1 << qs).T.reshape(-1).copy()
        return EriBlock(label or f"{self.label}^T", self.occupied,
                        self.s_orbitals, self.r_orbitals, gamma, dens)


def build_block(data: HartreeFockData, label: str, occupied: tuple[int, int],
                r_orbitals, s_orbitals) -> EriBlock:
    a, b = occupied
    r_orbitals = _pad_group(r_orbitals)
    s_orbitals = _pad_group(s_orbitals)
    n_s = (len(s_orbitals) - 1).bit_length()
    size = len(r_orbitals) * len(s_orbitals)
    gamma = np.zeros(size)
    dens = np.full(size, -np.inf)
    eps = data.orbital_energies
    for i, r in enumerate(r_orbitals):
        for j, s in enumerate(s_orbitals):
            if r is None or s is None:
                continue
            code = (i << n_s) | j
            gamma[code] = data.eri_mo[a, b, r, s]
            dens[code] = eps[a] + eps[b] - eps[r] - eps[s]
    return EriBlock(label, (a, b), tuple(r_orbitals), tuple(s_orbitals), gamma, dens)


def _pad_group(group) -> list:
    group = list(group)
    if not group:
        raise ValueError("empty orbital group")
    size = 1 << (len(group) - 1).bit_length()
    return group + [None] * (size - len(group))


@dataclass(frozen=True)
class PartitionScheme:
    occupied: tuple[int, int]
    parts: tuple  # of (label, r_orbitals, s_orbitals)


def helium_scheme(data: HartreeFockData) -> PartitionScheme:
    """The standard four-part helium split: virtual groups {2s,2p} and {3s,3p},
    with the two middle s-axis orbitals swapped to match the hardware qubit
    assignment (degenerate p orbitals, so energies are unaffected)."""
    virt = data.virtual_orbitals
    if len(virt) != 8:
        raise ValueError(f"helium scheme expects 8 virtual orbitals, got {len(virt)}")
    g1, g2 = virt[:4], virt[4:]
    swap = lambda g: [g[0], g[2], g[1], g[3]]
    return PartitionScheme(
        occupied=(0, 0),
        parts=(
            ("I", tuple(g1), tuple(swap(g1))),
            ("II", tuple(g1), tuple(swap(g2))),
            ("III", tuple(g2), tuple(swap(g1))),
            ("IV", tuple(g2), tuple(swap(g2))),
        ),
    )


def partition(data: HartreeFockData, scheme: PartitionScheme) -> list[EriBlock]:
    """Tile the (r, s) virtual plane into blocks; gamma and denominators filled."""
    blocks = [build_block(data, label, scheme.occupied, r_orbs, s_orbs)
              for label, r_orbs, s_orbs in scheme.parts]
    covered = []
    for blk in blocks:
        covered.extend((r, s) for r in blk.r_orbitals for s in blk.s_orbitals
                       if r is not None and s is not None)
    if len(covered) != len(set(covered)):
        raise ValueError("partition scheme covers an (r,s) pair more than once")
    return blocks


def helium_blocks(data: HartreeFockData) -> dict[str, EriBlock]:
    return {blk.label: blk for blk in partition(data, helium_scheme(data))}
