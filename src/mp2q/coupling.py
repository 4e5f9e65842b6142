"""Coupling maps: named layouts, JSON i/o, connectivity validation, and
vertex-disjoint shape embedding for parallel gate packing.

Each map keeps an adjacency list of sets, built once on first use, for the
edge and neighbour queries of lowering. Shapes are matched by a built-in
backtracking search (`_monomorphisms`) over that adjacency; networkx is not
needed at run time and serves only as the reference in the tests."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

from .circuits import NATIVE_KINDS, Circuit
from .errors import SchemaError, json_int, json_list, parse_json


@dataclass(frozen=True)
class CouplingMap:
    n_qubits: int
    edges: frozenset[tuple[int, int]]
    name: str = ""

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) outside 0..{self.n_qubits - 1}")

    @classmethod
    def from_edges(cls, n_qubits: int, edges, name: str = "") -> "CouplingMap":
        return cls(n_qubits, frozenset(tuple(sorted(e)) for e in edges), name)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour set of each qubit (cached on the instance, which is
        frozen, so it cannot go stale)."""
        adj = [set() for _ in range(self.n_qubits)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(map(frozenset, adj))

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.n_qubits and b in self.adjacency[a]

    def neighbors(self, q: int) -> list[int]:
        return sorted(self.adjacency[q]) if 0 <= q < self.n_qubits else []

    def to_dict(self) -> dict:
        return {"name": self.name, "n_qubits": self.n_qubits,
                "edges": sorted(list(e) for e in self.edges)}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def from_dict(cls, d: dict, source: str = "coupling map") -> "CouplingMap":
        """The map of a to_dict document; a qubit count or edge end that is not a
        JSON integer is a SchemaError naming `source` and the field or edge."""
        edges = []
        for i, edge in enumerate(json_list(d, "edges", source)):
            where = f"{source}: edge {i}"
            if not isinstance(edge, list) or len(edge) != 2:
                raise SchemaError(f"{where}: {edge!r} is not a pair of qubits")
            edges.append(tuple(json_int(q, where) for q in edge))
        return cls.from_edges(json_int(d.get("n_qubits"), f"{source}: n_qubits"), edges,
                              d.get("name", ""))

    @classmethod
    def load(cls, path) -> "CouplingMap":
        return cls.from_dict(parse_json(Path(path).read_bytes(), str(path)), str(path))


def complete_map(n: int) -> CouplingMap:
    return CouplingMap.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                                  f"complete-{n}")


def path_map(n: int) -> CouplingMap:
    return CouplingMap.from_edges(n, [(i, i + 1) for i in range(n - 1)], f"path-{n}")


def grid_map(rows: int, cols: int) -> CouplingMap:
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return CouplingMap.from_edges(rows * cols, edges, f"grid-{rows}x{cols}")


def h_shape_7() -> CouplingMap:
    """Seven qubits in an H: leaves 0,1 and 2,3 on the ancilla midpoints 5 and 6,
    with the target 4 on the crossbar between them."""
    return CouplingMap.from_edges(
        7, [(0, 5), (1, 5), (2, 6), (3, 6), (4, 5), (4, 6)], "h-shape-7")


def h_shape_9() -> CouplingMap:
    """Relay variant of the H: the target 4 is two hops from the pair ancillas
    5 and 6, reached through the extra relay ancillas 7 and 8."""
    return CouplingMap.from_edges(
        9, [(0, 5), (1, 5), (2, 6), (3, 6), (5, 7), (6, 8), (4, 7), (4, 8)],
        "h-shape-9")


def ibm_27_heavy_hex() -> CouplingMap:
    """27-qubit heavy-hex lattice (IBM Falcon family); loaded from a data file."""
    with resources.files("mp2q.data").joinpath("ibm_27_heavy_hex.json").open() as fh:
        return CouplingMap.from_dict(json.load(fh))


def named_map(name: str) -> CouplingMap:
    if name == "h-shape-7":
        return h_shape_7()
    if name == "h-shape-9":
        return h_shape_9()
    if name == "ibm-27-heavy-hex":
        return ibm_27_heavy_hex()
    m = re.fullmatch(r"complete-(\d+)", name)
    if m:
        return complete_map(int(m.group(1)))
    m = re.fullmatch(r"path-(\d+)", name)
    if m:
        return path_map(int(m.group(1)))
    m = re.fullmatch(r"grid-(\d+)x(\d+)", name)
    if m:
        return grid_map(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unknown coupling map {name!r}")


def validate_connectivity(circuit: Circuit, coupling: CouplingMap) -> list[tuple[int, tuple[int, int]]]:
    """Violations (gate index, qubit pair) for two-qubit gates off coupling edges.

    The circuit must already be native (1-qubit rotations, X, H, CNOT).
    """
    violations = []
    for i, g in enumerate(circuit.gates):
        if g.kind not in NATIVE_KINDS:
            raise ValueError(f"gate {i} ({g.kind}) is not native")
        if len(g.qubits) == 2 and not coupling.has_edge(*g.qubits):
            violations.append((i, g.qubits))
    return violations


def _monomorphisms(host: CouplingMap, shape: CouplingMap):
    """Every injective map of the shape's qubits into the host's that sends
    each shape edge onto a host edge, as tuples indexed by shape qubit (host
    edges between images need not be shape edges). Each map comes once.

    Backtracking search: the shape's qubits are placed in breadth-first order,
    so every qubit but the first of its component has a placed neighbour. Its
    candidates are that neighbour's host neighbours with at least its degree,
    adjacent to the images of its other placed neighbours."""
    hadj, sadj = host.adjacency, shape.adjacency
    order: list[int] = []
    i = 0
    for root in range(shape.n_qubits):
        if root not in order:
            order.append(root)
            while i < len(order):
                order.extend(sorted(sadj[order[i]] - set(order)))
                i += 1
    slots = [(v, [u for u in order[:pos] if u in sadj[v]], len(sadj[v]))
             for pos, v in enumerate(order)]
    image = [0] * shape.n_qubits
    used: set[int] = set()

    def extend(i):
        if i == len(slots):
            yield tuple(image)
            return
        v, placed, degree = slots[i]
        for p in hadj[image[placed[0]]] if placed else range(host.n_qubits):
            if (p in used or len(hadj[p]) < degree
                    or any(image[u] not in hadj[p] for u in placed[1:])):
                continue
            image[v] = p
            used.add(p)
            yield from extend(i + 1)
            used.discard(p)

    return extend(0)


def find_parallel_embeddings(coupling: CouplingMap, shape: CouplingMap, k: int,
                             avoid=frozenset()) -> list[dict[int, int]]:
    """Up to k vertex-disjoint monomorphic embeddings of shape into coupling,
    none touching a qubit in `avoid`.

    Greedy over all matches in sorted order (by the image of shape qubit 0,
    then 1, ...); each returned dict maps shape qubit -> coupling qubit. May
    return fewer than k.
    """
    chosen: list[dict[int, int]] = []
    if shape.n_qubits > coupling.n_qubits or k <= 0:
        return chosen
    used = set(avoid)
    for m in sorted(_monomorphisms(coupling, shape)):
        if used.isdisjoint(m):
            chosen.append(dict(enumerate(m)))
            used.update(m)
            if len(chosen) == k:
                break
    return chosen


def pack_parallel_ue(coupling: CouplingMap, k: int) -> list[dict[int, int]]:
    """Up to k vertex-disjoint 4-control-Ry layouts: standard H shapes first,
    then the 9-qubit relay variant on the leftover qubits.

    On the 27-qubit heavy-hex lattice this packs three (two standard plus one
    relay), leaving four qubits idle."""
    chosen = find_parallel_embeddings(coupling, h_shape_7(), k)
    used = {q for emb in chosen for q in emb.values()}
    return chosen + find_parallel_embeddings(coupling, h_shape_9(), k - len(chosen), used)
