"""mp2q benchmark: one workload per run, timed with tracing off, or traced for
per-layer numbers.

    python3 perfbench/run.py --workload helium-exact --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads: helium-exact, helium-sampled,
synthetic-q12, lowering-maps (see perfbench/README.md). Every operation's
output is checked; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1). The full record,
including the machine, goes to perfbench/out/. Exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
LADDER_QS = range(4, 13)
CENSUS_WORKLOADS = ("helium-exact", "helium-sampled", "lowering-maps")
LADDER_ROWS = 2
GATE_KINDS = ("mcry", "pauli_x_exp", "cry", "ry", "x")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import and set-up in this fresh process, print them, exit")
    return p.parse_args(argv)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- machine and provenance ---------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_record(seed: int) -> dict:
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": _blas_threads(),
        "MP2Q_THREADS": os.environ.get("MP2Q_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- set-up ---------------------------------------------------------------------

def setup_in_fresh_process(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- timed loops ----------------------------------------------------------------

class Loop:
    """Operations of one phase: wall times, rows, and per-operation errors."""

    def __init__(self):
        self.times: list[float] = []
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, workload, result, seconds: float, errors: list[str]):
        self.times.append(seconds)
        self.rows += workload.rows(result)
        if errors:
            self.failed += 1
            self.errors.extend(e for e in errors if e not in self.errors)


def run_ops(workload, seconds: float, loop: Loop, tracer=None, min_ops: int = 1):
    """Run operations until `seconds` have passed and at least `min_ops` ran."""
    deadline = perf_counter() + seconds
    while len(loop.times) < min_ops or perf_counter() < deadline:
        op = len(loop.times)
        with tracer.recording(op) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            result = workload.op()
            elapsed = perf_counter() - t0
        if tracer is not None:
            for key, value in workload.counts(result).items():
                tracer.counts[(op, key)] += value
        loop.record(workload, result, elapsed, workload.check(result))


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(durations, counts, ops) -> dict:
    """Per-layer values over the operations `ops`. Each is the mean per
    operation that reaches the layer, and 0 when none does; `estimate.row_s`
    and `estimate.row_self_s` are means per row."""
    from tracing import AMP_BYTES
    from workloads import LOWERING_MAPS

    spans = [s for s in durations if s[1] in ops]

    def per_reaching(pairs):
        reached = {op for op, _ in pairs}
        return sum(v for _, v in pairs) / len(reached) if reached else 0.0

    def total(name, tag=None):
        return per_reaching([(op, d) for nm, op, tg, d, _, _ in spans
                             if nm == name and (tag is None or tg == tag)])

    def self_total(name):
        return per_reaching([(op, sf) for nm, op, _, _, sf, _ in spans if nm == name])

    def calls(name):
        return per_reaching([(op, 1) for nm, op, *_ in spans if nm == name])

    def counted(key):
        return per_reaching([(op, v) for (op, k), v in counts.items()
                             if k == key and op in ops and v])

    rows = [(d, sf) for nm, _, _, d, sf, _ in spans if nm == "estimate._sweep_row"]
    amp_updates = counted("statevec.amp_updates")
    m = {
        "hfdata.load_s": total("hfdata.load"),
        "hfdata.partition_s": total("hfdata.partition"),
        "hfdata.partition_calls": calls("hfdata.partition"),
        "estimate.auto_lambda_max_s": total("estimate.auto_lambda_max"),
        "builders.solve_angles_s": total("builders.solve_angles"),
        # outermost circuit builds only: build_pipeline calls build_uint/build_ue
        "builders.build_s": per_reaching([
            (op, d) for nm, op, _, d, _, parent in spans
            if nm.startswith("builders.build")
            and not (parent or "").startswith("builders.build")]),
        "builders.gates.mcry": counted("builders.gates.mcry"),
        "builders.gates.pauli_x_exp": counted("builders.gates.pauli_x_exp"),
        "circuits.add_s": counted("circuits.add_s"),
        "circuits.gates_added": counted("circuits.gates_added"),
        "statevec.apply_s": total("statevec.apply_circuit"),
        "statevec.amp_updates": amp_updates,
        # computed from gate supports: each updated amplitude read and written once
        "statevec.bytes_moved": 2 * AMP_BYTES * amp_updates,
        "statevec.sample_s": total("statevec.sample_counts"),
        "statevec.sample_calls": calls("statevec.sample_counts"),
        "estimate.row_s": statistics.fmean(d for d, _ in rows) if rows else 0.0,
        "estimate.row_self_s": statistics.fmean(sf for _, sf in rows) if rows else 0.0,
        "estimate.rows": calls("estimate._sweep_row"),
        "estimate.select_s": total("estimate.select_start_step"),
        "estimate.windows_fitted": calls("estimate.fit_zeta"),
        "mp2.oracle_s": total("mp2.mp2_energy"),
        "cli.write_s": self_total("cli.main"),
        "cli.bytes_written": counted("cli.bytes_written"),
        "lowering.simplify_s": total("lowering.simplify_toffoli_pairs"),
        "lowering.native_cnots": counted("lowering.native_cnots"),
        "lowering.native_depth": counted("lowering.native_depth"),
        "coupling.pack_s": total("coupling.pack_parallel_ue"),
        "coupling.embeddings_found": counted("coupling.embeddings_found"),
        "coupling.validate_s": total("coupling.validate_connectivity"),
    }
    for kind in GATE_KINDS:
        m[f"statevec.apply_s.{kind}"] = counted(f"statevec.apply_s.{kind}")
    for name in LOWERING_MAPS:
        m[f"lowering.lower_s.{name}"] = total("lowering.lower", tag=name)
        m[f"lowering.native_cnots.{name}"] = counted(f"lowering.native_cnots.{name}")
        m[f"lowering.ancillas_used.{name}"] = counted(f"lowering.ancillas_used.{name}")
    return m


def run_census(tracer, seed: int, work_dir: Path) -> set:
    """One traced operation of each cheap workload, plus `auto_lambda_max` at
    Q=10, outside the timed loop. Their spans give a layer's numbers on a
    workload that never reaches the layer itself."""
    import numpy as np
    from mp2q import estimate
    from workloads import WORKLOADS, synthetic_block

    ops = set()
    for name in CENSUS_WORKLOADS:
        workload = WORKLOADS[name](seed, work_dir / f"census-{name}")
        workload.setup()
        with tracer.recording(f"census-{name}"):
            result = workload.op()
        for key, value in workload.counts(result).items():
            tracer.counts[(f"census-{name}", key)] += value
        ops.add(f"census-{name}")
    block = synthetic_block(np.random.default_rng([seed, 10]), 10)
    with tracer.recording("census-auto-lambda-max"):
        estimate.auto_lambda_max(block)
    return ops | {"census-auto-lambda-max"}


def run_ladder(tracer, seed: int) -> dict:
    """Exact sweep rows of seeded synthetic blocks at Q = 4..12, traced, out of
    the timed loop: the growth curve of one row with register width."""
    import numpy as np
    from mp2q import estimate
    from workloads import synthetic_block

    rng = np.random.default_rng([seed, 12])
    out = {}
    for q in LADDER_QS:
        block = synthetic_block(rng, q)
        config = estimate.SweepConfig(0.01, LADDER_ROWS, mode=estimate.EXACT,
                                      start_candidates=0)
        first = len(tracer.spans)
        with tracer.recording(f"ladder-q{q}"):
            estimate.run_block_sweep(block, config, "S")
        rows = [end - start for name, start, end, *_ in tracer.spans[first:]
                if name == "estimate._sweep_row"]
        out[f"estimate.row_s.q{q}"] = statistics.median(rows) if rows else 0.0
        out[f"statevec.amp_updates.q{q}"] = tracer.counts.get(
            (f"ladder-q{q}", "statevec.amp_updates"), 0.0) / LADDER_ROWS
    return out


# -- main -------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mp2q" / "__init__.py").is_file():
        print("error: run from the repository root; src/mp2q is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2

    # Set-up is timed three times per untraced run: in this process, and in a
    # fresh child process before and after the timed loop. The host's speed
    # drifts over seconds, so samples spread over the run steady the median.
    probes = []
    if not args.setup_only and not args.trace:
        probes.append(setup_in_fresh_process(args))

    t0 = perf_counter()
    import mp2q  # noqa: F401
    import_s = perf_counter() - t0
    from mp2q import hfdata
    from workloads import WORKLOADS, coverage

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.recording("setup") if tracer else contextlib.nullcontext():
        workload.setup()
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    try:
        warm, timed, traced = Loop(), Loop(), Loop()
        run_ops(workload, 0.0, warm, min_ops=workload.warmup)
        if tracer is None:
            run_ops(workload, args.seconds, timed)
        else:
            # half untraced, half traced: the difference is the tracing overhead
            run_ops(workload, args.seconds / 2, timed)
            run_ops(workload, args.seconds / 2, traced, tracer=tracer)
            ladder = run_ladder(tracer, args.seed)
            census = run_census(tracer, args.seed, work_dir)
            blocks = hfdata.helium_blocks(hfdata.load(hfdata.helium_fixture_path()))
            with tracer.recording("coverage"):
                cover = coverage(blocks)
            tracer.uninstall()
        run_errors = workload.final_check()
        if tracer is None:
            probes.append(setup_in_fresh_process(args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    loops = (warm, timed, traced)
    attempted = sum(len(lp.times) for lp in loops)
    failed = attempted if run_errors else sum(lp.failed for lp in loops)
    errors = run_errors + [e for lp in loops for e in lp.errors]

    machine = machine_record(args.seed)
    p_tail = workload.tail_percentile
    e2e = {
        "setup_s": statistics.median([setup_s] + [p["setup_s"] for p in probes]),
        "solve_s.p50": statistics.median(timed.times),
        "solve_s.tail": percentile(timed.times, p_tail),
        "rows_per_s": timed.rows / sum(timed.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # printed with the end-to-end metrics; BENCHMARK.json gates the steady ones
    extra = {"solve_s.p50": (e2e["solve_s.p50"], "s"),
             "rows_per_s": (e2e["rows_per_s"], "1/s"), **workload.report(),
             "failed_ratio": (failed / attempted, "1")}
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "setup": {"own_s": setup_s, "import_s": import_s, "probes": probes},
        "solve_s.tail_percentile": p_tail, "samples": len(timed.times),
        "samples_beyond_tail": sum(t > e2e["solve_s.tail"] for t in timed.times),
        "rows_per_op": timed.rows / len(timed.times),
        "end_to_end": e2e, "report": extra,
        "attempted": attempted, "failed": failed, "errors": errors[:50],
        "op_times_s": timed.times,
    }
    if tracer is None:
        section, metrics = "end_to_end", e2e
    else:
        section = "per_layer"
        durations = tracer.durations()
        # a layer's numbers come from the first scope that reaches it
        scopes = {"loop": set(range(len(traced.times))), "setup": {"setup"},
                  "census": census}
        by_scope = {scope: layer_metrics(durations, tracer.counts, ops)
                    for scope, ops in scopes.items()}
        metrics, origin = {"mp2q.import_s": import_s}, {}
        for name in by_scope["loop"]:
            origin[name] = next((s for s in scopes if by_scope[s][name]), "loop")
            metrics[name] = by_scope[origin[name]][name]
        metrics.update(ladder)
        metrics["lowering.coverage"] = cover["coverage"]
        traced_p50 = statistics.median(traced.times)
        metrics["trace.overhead"] = traced_p50 / e2e["solve_s.p50"] - 1.0
        record["breakdown"] = self_time_breakdown(durations, len(traced.times))
        record["traced_mean_s"] = statistics.fmean(traced.times)
        record["traced_p50_s"] = traced_p50
        record["coverage"] = cover
        record["missing_entry_points"] = tracer.missing
        record["per_layer"] = metrics
        record["per_layer_scope"] = origin
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    print_report(args, record, metrics, units, machine)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not errors else 1


def self_time_breakdown(durations, n_ops: int) -> dict:
    """Mean self time per span name per traced operation, largest first."""
    ops = set(range(n_ops))
    acc: dict[str, float] = {}
    for name, op, _, _, self_s, _ in durations:
        if op in ops:
            acc[name] = acc.get(name, 0.0) + self_s / n_ops
    return dict(sorted(acc.items(), key=lambda kv: -kv[1]))


def print_report(args, record, metrics, units, machine):
    print(f"# mp2q benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# machine: {machine['cpu_model']}, nproc {machine['nproc']}, "
          f"blas threads {machine['blas_threads']}, python {machine['python']}, "
          f"numpy {machine['numpy']}, networkx {machine['networkx']}")
    if args.trace:
        print(f"# untraced p50 {record['end_to_end']['solve_s.p50']:.6g} s, traced p50 "
              f"{record['traced_p50_s']:.6g} s, traced mean {record['traced_mean_s']:.6g} s; "
              f"mean self time per operation sums to {sum(record['breakdown'].values()):.6g} s:")
        for name, value in record["breakdown"].items():
            print(f"#   {name:34s} {value:.6g} s")
        if record["missing_entry_points"]:
            print(f"# entry points not found, their metrics read 0: "
                  f"{', '.join(record['missing_entry_points'])}")
        cover = record["coverage"]
        print(f"# lowering coverage {cover['lowered']}/{cover['attempted']}; failing:")
        for case in cover["cases"]:
            if "error" in case:
                print(f"#   {case['part']} {case['circuit']} {case['map']}: {case['error']}")
    else:
        print(f"# solve_s.tail is p{record['solve_s.tail_percentile']:g} of "
              f"{record['samples']} operations, {record['samples_beyond_tail']} beyond it")
        for name, (value, unit) in record["report"].items():
            print(f"{name} {value:.6g} {unit}")
    scope = record.get("per_layer_scope", {})
    for name, unit in units.items():
        note = f"  ({scope[name]})" if scope.get(name, "loop") != "loop" else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    for error in record["errors"]:
        print(f"# FAILED: {error}")


if __name__ == "__main__":
    sys.exit(main())
