"""Span tracer that wraps mp2q's entry points from outside the package.

Installing the tracer rebinds module attributes, so every caller that looks a
function up by name reaches the wrapper: ``estimate`` imports
``build_pipeline``, ``solve_angles`` and ``helium_blocks`` by name, ``lowering``
imports ``validate_connectivity`` by name, and calls inside a module go
through its globals. Nothing under ``src/`` is edited.

Each span records name, start, end, parent span and operation id; spans stay
in memory and are written out when the run ends. Two hot leaf calls
(``statevec.apply_gate`` and ``Circuit.add``) are counted and timed per call
instead of becoming spans, to keep the span list small.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

# Functions whose calls become spans named "<module>.<attribute>".
# "estimate._sweep_row" is the only way to see individual sweep rows.
SPANNED = [
    ("hfdata", "load"), ("hfdata", "helium_blocks"), ("hfdata", "partition"),
    ("mp2", "mp2_energy"), ("mp2", "block_energy"),
    ("builders", "solve_angles"), ("builders", "build_pipeline"),
    ("builders", "build_uint"), ("builders", "build_ue"),
    ("statevec", "apply_circuit"), ("statevec", "sample_counts"),
    ("estimate", "estimate_helium"), ("estimate", "run_sweep"),
    ("estimate", "run_block_sweep"), ("estimate", "_sweep_row"),
    ("estimate", "select_start_step"), ("estimate", "fit_zeta"),
    ("estimate", "auto_lambda_max"),
    ("lowering", "lower"), ("lowering", "simplify_toffoli_pairs"),
    ("coupling", "pack_parallel_ue"), ("coupling", "validate_connectivity"),
    ("cli", "main"),
]

AMP_BYTES = 16  # one complex128 amplitude


def amp_updates(kind: str, n_qubits: int, n_operands: int) -> int:
    """Amplitudes a gate reads and rewrites, from its support alone.

    A gate with c controls touches the 2^(n-c) amplitudes whose control bits
    match; X-string exponentials and one-qubit gates touch all 2^n."""
    if kind in ("cnot", "toffoli", "cry", "mcry"):
        return 1 << (n_qubits - (n_operands - 1))
    if kind == "swap":
        return 1 << (n_qubits - 1)
    return 1 << n_qubits


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, tag]
        self.counts: dict = defaultdict(float)   # (op, key) -> value
        self.op = None
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1.0):
        self.counts[(self.op, key)] += value

    @contextlib.contextmanager
    def recording(self, op):
        """Record spans and counts under operation id `op` inside the block."""
        self.op = op
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- installation --------------------------------------------------
    def install(self):
        import mp2q.cli  # noqa: F401  (the package imports every other module)
        from mp2q import circuits, statevec

        for module, attr in SPANNED:
            original = getattr(sys.modules[f"mp2q.{module}"], attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._rebind(original, self._spanned(f"{module}.{attr}", original))
        self._rebind(statevec.apply_gate, self._gate_counter(statevec.apply_gate))
        add = circuits.Circuit.add
        circuits.Circuit.add = self._add_counter(add)
        self._undo.append((circuits.Circuit, "add", add))

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, original, wrapper):
        """Point every mp2q module attribute that holds `original` at `wrapper`."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "mp2q" or name.startswith("mp2q.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _spanned(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tag_of = TAGS.get(name)
            idx = tracer.begin(name, tag_of(args, kwargs) if tag_of else None)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(idx)
            after = AFTER.get(name)
            if after is not None:
                after(tracer, result)
            return result
        return wrapper

    def _gate_counter(self, func):
        tracer = self

        @functools.wraps(func)
        def apply_gate(amps, gate, n):
            if not tracer.active:
                return func(amps, gate, n)
            t0 = perf_counter()
            out = func(amps, gate, n)
            tracer.counts[(tracer.op, "statevec.apply_s." + gate.kind)] += perf_counter() - t0
            tracer.counts[(tracer.op, "statevec.amp_updates")] += amp_updates(
                gate.kind, n, len(gate.qubits))
            return out
        return apply_gate

    def _add_counter(self, func):
        tracer = self

        @functools.wraps(func)
        def add(circuit, gate):
            if not tracer.active:
                return func(circuit, gate)
            t0 = perf_counter()
            out = func(circuit, gate)
            tracer.counts[(tracer.op, "circuits.add_s")] += perf_counter() - t0
            tracer.counts[(tracer.op, "circuits.gates_added")] += 1
            return out
        return add

    # -- analysis ------------------------------------------------------
    def durations(self):
        """Per span: (name, op, tag, duration, self time, parent name or None)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, tag in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = []
        for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
            dur = end - start
            out.append((name, op, tag, dur, dur - covered[i],
                        self.spans[parent][0] if parent >= 0 else None))
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "tag"],
            "spans": self.spans,
            "counts": [[op, key, value] for (op, key), value in sorted(
                self.counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "missing_entry_points": self.missing,
        }


def _coupling_name(args, kwargs):
    coupling = args[1] if len(args) > 1 else kwargs.get("coupling")
    return getattr(coupling, "name", None)


def _count_built_gates(tracer, circuit):
    for gate in circuit.gates:
        tracer.add(f"builders.gates.{gate.kind}")


# Span name -> function of the call's arguments giving the span's tag.
TAGS = {"lowering.lower": _coupling_name}
# Span name -> hook run on the result, for counts taken at the same boundary.
AFTER = {
    "builders.build_pipeline": _count_built_gates,
    "coupling.pack_parallel_ue": lambda tracer, embeddings: tracer.add(
        "coupling.embeddings_found", len(embeddings)),
}
