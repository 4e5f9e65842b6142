"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one operation
per `op` call, and checks every operation's output in `check`. `final_check`
runs once per run, outside the timed loop, for checks too costly to repeat.
The program only ever sees the generated inputs.

`tail_percentile` is the highest percentile with at least ten operations
beyond it in a 20 s run on the seed code. It is fixed per workload rather than
chosen from each run's count, so that a faster commit, which fits more
operations into the same seconds, is compared at the same percentile.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from mp2q import builders, cli, coupling, estimate, hfdata, lowering, mp2, statevec
from mp2q.circuits import Circuit, Gate
from mp2q.errors import LoweringError

README_E2 = -0.0269625          # helium aug-cc-pVDZ MP2 energy quoted in the README
# |E2/oracle - 1| allowed per operation: the exact grids sit deep in the linear
# regime; 1e5-shot runs are held to the per-seed limit of the acceptance suite.
HELIUM_TOLERANCE = {estimate.EXACT: 0.01, estimate.SAMPLED: 0.05}
SYNTHETIC_TOLERANCE = 0.01


def synthetic_block(rng: np.random.Generator, q: int) -> hfdata.EriBlock:
    """Ground-state-like block on Q register qubits with one zero-gamma base
    state. gamma is scaled by 4/2^(Q/2), so sum(gamma) and with it the quartic
    fit term stay comparable as Q grows."""
    n = 1 << q
    gamma = rng.uniform(0.0, 0.3 * 4 / 2 ** (q / 2), n)
    gamma[int(rng.integers(0, n))] = 0.0
    dens = -rng.uniform(0.5, 5.0, n)
    half = q // 2
    return hfdata.EriBlock("S", (0, 0), tuple(range(1 << (q - half))),
                           tuple(range(1 << half)), gamma, dens)


class HeliumPipeline:
    """`mp2q pipeline` on the helium fixture, called in-process as a user runs it."""

    warmup = 3
    tail_percentile = 95.0

    def __init__(self, mode: str, seed: int, work_dir: Path):
        self.mode = mode
        self.work_dir = work_dir
        self.fixture = str(hfdata.helium_fixture_path())
        self.args = ["--hf-data", self.fixture, "--mode", mode, "--seed", str(seed)]
        if mode == estimate.SAMPLED:
            self.args += ["--shots", "100000"]
        self.out_dir = work_dir / "pipeline"
        self.first: dict[str, bytes] | None = None
        self.rel_error: float | None = None
        self.n_rows = 0

    def setup(self):
        hfdata.helium_blocks(hfdata.load(self.fixture))

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["pipeline", *self.args, "--out-dir", str(self.out_dir)])

    def _outputs(self, out_dir: Path) -> dict[str, bytes]:
        return {name: (out_dir / name).read_bytes() for name in ("sweep.csv", "fits.json")}

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"pipeline exited {rc}"]
        outputs = self._outputs(self.out_dir)
        if self.first is None:
            # every later operation must reproduce these bytes, so the values
            # derived from them hold for all operations
            self.first = outputs
            self.oracle = mp2.mp2_energy(hfdata.load(self.fixture),
                                         mp2.HELIUM_GROUND).e2_total
            e2 = json.loads(outputs["fits.json"])["e2_hartree"]
            self.rel_error = e2 / self.oracle - 1.0
            lines = io.StringIO(outputs["sweep.csv"].decode())
            self.n_rows = len({(r["part"], r["step"]) for r in csv.DictReader(lines)})
        errors = []
        if outputs != self.first:
            errors.append("sweep.csv/fits.json differ from the first operation")
        if abs(self.oracle - README_E2) > 1e-6:
            errors.append(f"oracle {self.oracle} is not the README's {README_E2}")
        if not abs(self.rel_error) <= HELIUM_TOLERANCE[self.mode]:
            errors.append(f"E2 relative error {self.rel_error:.3e} beyond "
                          f"{HELIUM_TOLERANCE[self.mode]}")
        return errors

    def rows(self, rc) -> int:
        return self.n_rows

    def final_check(self) -> list[str]:
        """The in-process outputs must equal a plain `mp2q pipeline` run."""
        ref_dir = self.work_dir / "reference"
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        proc = subprocess.run([sys.executable, "-m", "mp2q.cli", "pipeline", *self.args,
                               "--out-dir", str(ref_dir)], env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            return [f"reference run exited {proc.returncode}: {proc.stderr.strip()}"]
        if self._outputs(ref_dir) != self.first:
            return ["outputs differ from a plain `mp2q pipeline` run"]
        return []

    def report(self) -> dict:
        return {"abs_rel_error": (abs(self.rel_error), "1")}

    def counts(self, rc) -> dict:
        return {"cli.bytes_written": float(sum(
            (self.out_dir / name).stat().st_size
            for name in ("sweep.csv", "fits.json", "manifest.json")))}


class SyntheticSweep:
    """Exact-mode sweep of one seeded Q=12 block (13-qubit circuits): the range
    where the O(4^Q) gate path dominates. The grid is 12 fit rows plus 4 start
    candidates spread over [0, auto_lambda_max]."""

    warmup = 0
    tail_percentile = 100.0   # one or two operations per run: the slowest
    q = 12
    total_steps = 12
    start_candidates = 4

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.first = None
        self.rel_error = None

    def setup(self):
        self.block = synthetic_block(self.rng, self.q)
        lam_max = estimate.auto_lambda_max(self.block)
        self.step = lam_max / (self.total_steps + self.start_candidates - 1)
        self.config = estimate.SweepConfig(self.step, self.total_steps, mode=estimate.EXACT,
                                           start_candidates=self.start_candidates)

    def op(self):
        sweep = estimate.run_block_sweep(self.block, self.config, "S")
        return sweep, estimate.select_start_step(sweep, self.step, self.total_steps)

    def check(self, result) -> list[str]:
        sweep, selection = result
        zetas = [(r.zeta, r.zeta_signal) for r in sweep.rows]
        if self.first is None:
            self.first = zetas
            epsilon = selection.best.slope / sweep.c_e
            self.rel_error = epsilon / mp2.block_energy(self.block) - 1.0
        errors = []
        if zetas != self.first:
            errors.append("sweep rows differ from the first operation")
        if not abs(self.rel_error) <= SYNTHETIC_TOLERANCE:
            errors.append(f"epsilon relative error {self.rel_error:.3e} beyond "
                          f"{SYNTHETIC_TOLERANCE}")
        return errors

    def rows(self, result) -> int:
        return len(result[0].rows)

    def final_check(self) -> list[str]:
        return []

    def report(self) -> dict:
        return {"abs_rel_error": (abs(self.rel_error), "1")}

    def counts(self, result) -> dict:
        return {}


@dataclasses.dataclass
class LoweringCase:
    part: str               # helium part, or Q5..Q7 for synthetic blocks
    circuit_kind: str       # ue, uint or pipeline
    circuit: Circuit
    coupling: coupling.CouplingMap
    layout: dict | None = None
    ancilla_pool: set | None = None

    @property
    def label(self) -> str:
        return f"{self.part}.{self.circuit_kind}.{self.coupling.name}"

    def data_qubits(self) -> list[int]:
        layout = self.layout or {q: q for q in range(self.circuit.n_qubits)}
        return [layout[q] for q in range(self.circuit.n_qubits)]


# Map labels of the lowering workload; the synthetic maps are named by rule.
LOWERING_MAPS = ["complete-5", "complete-7", "path-5", "grid-2x4", "h-shape-7",
                 "h-shape-9", "ibm-27-heavy-hex", "h-shape-7-plus-chain",
                 "complete-2Q", "complete-Qp1"]
# The pipeline test map: the H shape plus the register path the X-strings need.
CHAIN_EDGES = [(0, 5), (1, 5), (2, 6), (3, 6), (4, 5), (4, 6), (0, 1), (1, 2), (2, 3)]
HELIUM_PARTS = ("I", "III", "IV")
LOWERING_LAMBDA = 0.1


def helium_circuits(blocks) -> dict:
    out = {}
    for part in HELIUM_PARTS:
        block = blocks[part]
        angles = builders.solve_angles(block)
        out[part] = {
            "ue": builders.build_ue(angles),
            "uint": builders.build_uint(block, LOWERING_LAMBDA),
            "pipeline": builders.build_pipeline(
                builders.PipelineSpec(block, LOWERING_LAMBDA), angles),
        }
    return out


def lowering_cases(blocks, rng) -> list[LoweringCase]:
    """The cases that lower on the seed code, in a fixed order."""
    named = {name: coupling.named_map(name) for name in LOWERING_MAPS[:7]}
    chain = coupling.CouplingMap.from_edges(7, CHAIN_EDGES, "h-shape-7-plus-chain")
    ibm = named["ibm-27-heavy-hex"]
    packed = coupling.pack_parallel_ue(ibm, 3)[0]
    packed_layout = {q: packed[q] for q in range(5)}
    packed_pool = {packed[5], packed[6]}
    cases = []
    circuits = helium_circuits(blocks)
    for part in HELIUM_PARTS:
        c = circuits[part]
        for name in ("complete-7", "h-shape-7", "h-shape-9"):
            cases.append(LoweringCase(part, "ue", c["ue"], named[name]))
        cases.append(LoweringCase(part, "ue", c["ue"], ibm, packed_layout, packed_pool))
        for name in ("complete-5", "path-5", "grid-2x4", "ibm-27-heavy-hex"):
            cases.append(LoweringCase(part, "uint", c["uint"], named[name]))
        cases.append(LoweringCase(part, "pipeline", c["pipeline"], named["complete-7"]))
        cases.append(LoweringCase(part, "pipeline", c["pipeline"], chain))
    for q in (5, 6, 7):
        block = synthetic_block(rng, q)
        ue = builders.build_ue(builders.solve_angles(block))
        uint = builders.build_uint(block, LOWERING_LAMBDA)
        wide = dataclasses.replace(coupling.complete_map(2 * q), name="complete-2Q")
        tight = dataclasses.replace(coupling.complete_map(q + 1), name="complete-Qp1")
        cases.append(LoweringCase(f"Q{q}", "ue", ue, wide))
        cases.append(LoweringCase(f"Q{q}", "uint", uint, wide))
        cases.append(LoweringCase(f"Q{q}", "uint", uint, tight))
    return cases


def native_depth(circuit: Circuit) -> int:
    """ASAP layering: a gate sits one layer above the latest gate on its qubits."""
    level = [0] * circuit.n_qubits
    for gate in circuit.gates:
        top = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = top
    return max(level, default=0)


def native_cnots(circuit: Circuit) -> int:
    return sum(g.kind == "cnot" for g in circuit.gates)


def ancillas_used(case: LoweringCase, lowered: Circuit) -> int:
    touched = {q for g in lowered.gates for q in g.qubits}
    return len(touched - set(case.data_qubits()))


def matches_source(case: LoweringCase, lowered: Circuit, rng, trials: int = 2) -> str | None:
    """Compare the lowered circuit with its source on seeded random input states.

    The lowered circuit is compacted to the qubits it touches, data qubits
    first, so the 27-qubit map fits the statevector; ancillas start at |0> and
    must end there. A random superposition weighs every input column, so one
    wrong column or relative phase shows. Returns an error message or None."""
    data = case.data_qubits()
    touched = {q for g in lowered.gates for q in g.qubits}
    order = data + sorted(touched - set(data))
    index = {q: i for i, q in enumerate(order)}
    compact = Circuit(len(order), [Gate(g.kind, tuple(index[q] for q in g.qubits),
                                        g.angle, g.polarity) for g in lowered.gates])
    m = case.circuit.n_qubits
    for _ in range(trials):
        psi = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        psi /= np.linalg.norm(psi)
        expected = statevec.apply_circuit(statevec.StateVector(m, psi.copy()),
                                          case.circuit).amplitudes
        full = np.zeros(1 << len(order), dtype=complex)
        full[:1 << m] = psi
        got = statevec.apply_circuit(statevec.StateVector(len(order), full),
                                     compact).amplitudes[:1 << m]
        overlap = np.vdot(expected, got)
        err = float(np.linalg.norm(got - overlap * expected))
        if abs(abs(overlap) - 1.0) > 1e-9 or err > 1e-9:
            return f"{case.label}: lowered circuit differs from source ({err:.2e})"
    return None


class LoweringMaps:
    """Lowering of the fixed case list plus packing three U_E layouts onto the
    27-qubit heavy-hex map. Never touches the simulator in the timed loop."""

    warmup = 3
    tail_percentile = 90.0

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.first = None

    def setup(self):
        blocks = hfdata.helium_blocks(hfdata.load(hfdata.helium_fixture_path()))
        self.cases = lowering_cases(blocks, self.rng)
        self.ibm = coupling.named_map("ibm-27-heavy-hex")

    def op(self):
        lowered = [lowering.lower(c.circuit, c.coupling, c.layout, c.ancilla_pool)
                   for c in self.cases]
        return lowered, coupling.pack_parallel_ue(self.ibm, 3)

    def check(self, result) -> list[str]:
        lowered, packed = result
        gates = [c.gates for c in lowered]
        if self.first is None:
            self.first = (gates, packed)
            self.lowered = lowered
            return []
        if (gates, packed) != self.first:
            return ["lowered gate lists or packing differ from the first operation"]
        return []

    def rows(self, result) -> int:
        return len(self.cases)

    def final_check(self) -> list[str]:
        errors = []
        for case, out in zip(self.cases, self.lowered):
            violations = coupling.validate_connectivity(out, case.coupling)
            if violations:
                errors.append(f"{case.label}: connectivity violations {violations[:3]}")
            mismatch = matches_source(case, out, self.rng)
            if mismatch:
                errors.append(mismatch)
        if len(self.first[1]) != 3:
            errors.append(f"packed {len(self.first[1])} of 3 U_E layouts")
        return errors

    def report(self) -> dict:
        return {"native_cnots": (sum(map(native_cnots, self.lowered)), "count"),
                "native_depth": (sum(map(native_depth, self.lowered)), "count")}

    def counts(self, result) -> dict:
        out = Counter()
        for case, lowered in zip(self.cases, result[0]):
            name = case.coupling.name
            out[f"lowering.native_cnots.{name}"] += native_cnots(lowered)
            out[f"lowering.ancillas_used.{name}"] += ancillas_used(case, lowered)
            out["lowering.native_cnots"] += native_cnots(lowered)
            out["lowering.native_depth"] += native_depth(lowered)
        return out


def coverage(blocks) -> dict:
    """Lower parts I/III/IV x {U_E, U_INT, pipeline} onto every shipped map
    with the identity layout; record what lowers and why the rest fails."""
    circuits = helium_circuits(blocks)
    maps = {name: coupling.named_map(name) for name in LOWERING_MAPS[:7]}
    cases = []
    for part in HELIUM_PARTS:
        for kind, circ in circuits[part].items():
            for name, cmap in maps.items():
                entry = {"part": part, "circuit": kind, "map": name}
                try:
                    out = lowering.lower(circ, cmap)
                except LoweringError as exc:
                    entry["error"] = str(exc)
                else:
                    entry["native_cnots"] = native_cnots(out)
                    entry["native_depth"] = native_depth(out)
                cases.append(entry)
    lowered = sum("error" not in c for c in cases)
    return {"attempted": len(cases), "lowered": lowered,
            "coverage": lowered / len(cases), "cases": cases}


WORKLOADS = {
    "helium-exact": lambda seed, d: HeliumPipeline(estimate.EXACT, seed, d),
    "helium-sampled": lambda seed, d: HeliumPipeline(estimate.SAMPLED, seed, d),
    "synthetic-q12": SyntheticSweep,
    "lowering-maps": LoweringMaps,
}
