"""Command-line front end: oracle evaluation, the sweep/fit/assembly pipeline,
circuit lowering against a coupling map, and the denominator correction.

Exit codes: 0 success, 2 validation or I/O failure, 3 numerical failure.
All runs are deterministic given config + seed; a manifest listing input
and output digests is written next to every pipeline run. Every output file
is written through `_publish`, so none is ever truncated in place.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, estimate, hfdata, lowering, mp2
from .circuits import Circuit
from .coupling import CouplingMap, named_map, pack_parallel_ue
from .errors import LoweringError, NumericalError, SchemaError


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _publish(path, text: str) -> None:
    """Replace the file at `path` with `text`, never truncating it in place.

    The text goes to a fresh sibling temp file; then the old file is unlinked
    and the temp renamed onto its name. A reader sees the old file, the new
    one or, for a moment, none, but never a partial one. Unlinking first is
    what makes this fast: on ext4, truncating a non-empty file or renaming
    over it frees its blocks while the caller waits (about 60 ms a file on a
    2-core host), an unlinked file is freed later. A symlink at `path` is
    replaced, not written through. On any error the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    # "x" never clobbers an existing file and keeps the mode 0o666 & ~umask
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        path.unlink(missing_ok=True)
        os.rename(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_oracle(args) -> int:
    data = hfdata.load(args.hf_data)
    per_block = data.n_occupied == 1 and data.n_orbitals - data.n_occupied == 8
    result = mp2.mp2_energy(data, args.formula, per_block=per_block)
    doc = {
        "formula": result.formula,
        "e2_total_hartree": result.e2_total,
        "per_block_hartree": {k: v for k, v in sorted(result.per_block.items())},
    }
    print(json.dumps(doc, indent=1))
    return 0


def _load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parts(args, config) -> list[str]:
    """The helium parts to run, each known and named once."""
    parts = (args.parts.split(",") if args.parts
             else config.get("parts", list(estimate.HELIUM_PARTS)))
    if not isinstance(parts, list) or not all(isinstance(p, str) for p in parts):
        raise SchemaError(f"parts must be a list of part names, got {parts!r}")
    known = ", ".join(estimate.HELIUM_PARTS)
    for i, part in enumerate(parts):
        if part not in estimate.HELIUM_PARTS:
            raise SchemaError(f"unknown part {part!r} in parts; expected some of {known}")
        if part in parts[:i]:
            raise SchemaError(f"part {part!r} named twice in parts")
    return parts


def _as_float(value, where: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{where}: {value!r} is not a float")


def _as_int(value, where: str, positive: bool = True) -> int:
    """A JSON integer, positive unless told otherwise; a bool, a float or a
    string is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: {value!r} is not an integer")
    if positive and value < 1:
        raise SchemaError(f"{where}: {value!r} is not positive")
    return value


def _per_part(config, key, default, parts, parse=_as_float) -> dict:
    """One value per part from config[key]: a scalar for every part, or an
    object with an entry for each part."""
    value = config.get(key, default)
    if not isinstance(value, dict):
        value = dict.fromkeys(parts, value)
    out = {}
    for part in parts:
        if part not in value:
            raise SchemaError(f"config key {key!r} has no entry for part {part!r}")
        out[part] = parse(value[part], f"config key {key!r}, part {part!r}")
    return out


def cmd_pipeline(args) -> int:
    config = _load_config(args.config) if args.config else {}
    hf_path = args.hf_data or config.get("hf_data")
    if hf_path is None:
        raise SchemaError("pipeline needs --hf-data or an hf_data config entry")
    data = hfdata.load(hf_path)
    parts = _parts(args, config)
    mode = args.mode or config.get("mode", estimate.EXACT)
    if mode == "exact":
        mode = estimate.EXACT
    seed = (args.seed if args.seed is not None
            else _as_int(config.get("seed", 7), "config key 'seed'", positive=False))
    shots = (args.shots if args.shots is not None
             else _as_int(config.get("shots", 100_000), "config key 'shots'"))
    defaults = estimate.DEFAULT_HELIUM_GRIDS[mode]
    steps = _per_part(config, "lambda_step", {p: defaults[p][0] for p in parts}, parts)
    totals = _per_part(config, "total_steps", {p: defaults[p][1] for p in parts}, parts,
                       parse=_as_int)
    start_candidates = _as_int(config.get("start_candidates", 4), "config key 'start_candidates'")
    grids = {p: (steps[p], totals[p]) for p in parts}
    multiplicity = {p: estimate.HELIUM_PARTS[p] for p in parts}
    c_e_cfg = config.get("c_e", "auto")
    c_e = None if c_e_cfg == "auto" else _per_part(config, "c_e", None, parts)

    result = estimate.estimate_helium(data, mode=mode, shots=shots, seed=seed,
                                      grids=grids, parts=multiplicity,
                                      start_candidates=start_candidates, c_e=c_e)
    oracle = mp2.mp2_energy(data, mp2.HELIUM_GROUND).e2_total
    rel = result.e2 / oracle - 1.0

    out_dir = Path(args.out_dir or config.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    # render every file first, so a failure leaves the previous run's files intact
    outputs = {out_dir / "sweep.csv": _render_sweep_csv(result),
               out_dir / "fits.json": _render_fit_json(result, oracle, rel)}
    manifest = {
        "command": "pipeline",
        "tool_version": __version__,
        "config_path": str(args.config) if args.config else None,
        "config": {"hf_data": str(hf_path), "parts": parts, "mode": mode,
                   "seed": seed, "shots": shots,
                   "lambda_step": steps, "total_steps": totals,
                   "start_candidates": start_candidates,
                   "c_e": c_e_cfg},
        "inputs": {str(hf_path): _sha256(hf_path)},
        "outputs": [str(path) for path in outputs],
        "output_sha256": {str(path): hashlib.sha256(text.encode("utf-8")).hexdigest()
                          for path, text in outputs.items()},
    }
    outputs[out_dir / "manifest.json"] = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    for path, text in outputs.items():
        _publish(path, text)
    print(f"E2 = {_fmt(result.e2)} hartree")
    print(f"oracle = {_fmt(oracle)} hartree")
    print(f"relative error = {rel * 100:.4f}%")
    return 0


def _render_sweep_csv(result: estimate.PipelineEstimate) -> str:
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["part", "step", "lambda", "lambda_sq", "outcome", "count", "shots", "zeta"])
    for part, detail in sorted(result.parts.items()):
        for row in detail.sweep.rows:
            # exact mode writes each probability as the count, with shots 0
            sampled = row.counts is not None
            values = row.counts.counts if sampled else row.probs
            width = values.size.bit_length() - 1
            for i in np.flatnonzero(values > 0):
                w.writerow([part, row.step, _fmt(row.lam), _fmt(row.lam_sq),
                            format(i, f"0{width}b"),
                            values[i] if sampled else _fmt(values[i]),
                            row.counts.shots if sampled else 0, _fmt(row.zeta)])
    return fh.getvalue()


def _render_fit_json(result: estimate.PipelineEstimate, oracle: float, rel: float) -> str:
    doc = {"e2_hartree": result.e2, "oracle_e2_hartree": oracle,
           "relative_error": rel, "parts": {}}
    for part, detail in sorted(result.parts.items()):
        fit = detail.selection.best
        doc["parts"][part] = {
            "part": part,
            "start_step": detail.selection.best_start,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "lse": fit.lse,
            "c_e_hartree": detail.sweep.c_e,
            "epsilon_part_hartree": detail.epsilon,
        }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _coupling_from_arg(arg: str) -> CouplingMap:
    if Path(arg).exists():
        return CouplingMap.load(arg)
    return named_map(arg)


def _read_layout(path, n_qubits: int) -> dict[int, int]:
    """A JSON object from qubits of the circuit, written as decimal strings,
    to physical qubits, written as JSON integers."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: layout must be a JSON object, got {type(doc).__name__}")
    qubits = {str(q): q for q in range(n_qubits)}
    layout = {}
    for key, value in doc.items():
        if key not in qubits:
            raise SchemaError(f"{path}: layout key {key!r} is not a qubit of the "
                              f"{n_qubits}-qubit circuit")
        layout[qubits[key]] = _as_int(value, f"{path}: layout entry {key!r}", positive=False)
    return layout


def cmd_lower(args) -> int:
    circuit = Circuit.load(args.circuit)
    coupling = _coupling_from_arg(args.coupling)
    layout = _read_layout(args.layout, circuit.n_qubits) if args.layout else None
    try:
        # raises LoweringError on any connectivity violation
        lowered = lowering.lower(circuit, coupling, layout)
    except LoweringError as exc:
        print(json.dumps({"violations": None, "error": str(exc)}, indent=1))
        return 2
    out_path = Path(args.out or "lowered.json")
    _publish(out_path, lowered.to_json())
    report = {"violations": [], "n_gates": len(lowered), "output": str(out_path)}
    if args.pack:
        embeddings = pack_parallel_ue(coupling, args.pack)
        report["parallel_embeddings"] = [sorted(e.values()) for e in embeddings]
    print(json.dumps(report, indent=1))
    return 0


def _csv_rows(fh, path, columns: tuple[str, ...]) -> csv.DictReader:
    """A DictReader over fh whose header names every one of columns."""
    reader = csv.DictReader(fh)
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise SchemaError(f"{path}: needs the columns {', '.join(columns)}; "
                          f"missing {', '.join(missing)}")
    return reader


def _read_counts_csv(path) -> tuple[int, dict[int, np.ndarray]]:
    """Count tables keyed by register input, each an array over the 2^(Q+1)
    outcomes. The first outcome string fixes Q+1; every row must match it,
    name an input in 0..2^Q-1 and an (input, outcome) pair no earlier row
    named, and hold a finite, non-negative count."""
    tables: dict[int, np.ndarray] = {}
    seen: set[tuple[int, str]] = set()
    width = None
    with open(path, newline="") as fh:
        reader = _csv_rows(fh, path, ("input", "outcome", "count"))
        for row in reader:
            where, outcome = f"{path} row {reader.line_num}", row["outcome"] or ""
            width = width or max(len(outcome), 2)
            if len(outcome) != width or not set(outcome) <= {"0", "1"}:
                raise SchemaError(f"{where}: outcome {outcome!r} is not {width} "
                                  f"characters of 0/1 (Q+1, Q >= 1)")
            try:
                x, count = int(row["input"]), float(row["count"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{where}: {exc}") from None
            if not 0 <= x < 1 << (width - 1):
                raise SchemaError(f"{where}: input {x} outside 0..{(1 << (width - 1)) - 1}")
            if not (np.isfinite(count) and count >= 0.0):
                raise SchemaError(f"{where}: count {row['count']!r} is not finite "
                                  f"and non-negative")
            if (x, outcome) in seen:
                raise SchemaError(f"{where}: input {x} outcome {outcome} named twice")
            seen.add((x, outcome))
            code = sum(1 << i for i, bit in enumerate(reversed(outcome)) if bit == "1")
            tables.setdefault(x, np.zeros(1 << width))[code] = count
    if width is None:
        raise SchemaError(f"{path}: no count rows")
    return width - 1, tables


def _read_theory_csv(path, q: int) -> dict[int, float]:
    """Theory values from `input,value` rows: every input in 0..2^Q-1 named
    exactly once, with a finite value."""
    theory: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = _csv_rows(fh, path, ("input", "value"))
        for row in reader:
            where = f"{path} row {reader.line_num}"
            try:
                x, value = int(row["input"]), float(row["value"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{where}: {exc}") from None
            if not 0 <= x < 1 << q:
                raise SchemaError(f"{where}: input {x} outside 0..{(1 << q) - 1}")
            if x in theory:
                raise SchemaError(f"{where}: input {x} named twice")
            if not np.isfinite(value):
                raise SchemaError(f"{where}: value {row['value']!r} is not finite")
            theory[x] = value
    missing = [x for x in range(1 << q) if x not in theory]
    if missing:
        raise SchemaError(f"{path}: no theory value for inputs {missing}")
    return theory


def cmd_correct(args) -> int:
    q, counts_all = _read_counts_csv(args.counts_all)
    q_lite, counts_lite = _read_counts_csv(args.counts_lite)
    if q != q_lite:
        raise SchemaError(f"count tables disagree on Q: {q} (all) vs {q_lite} (lite)")
    missing = [x for x in range(1 << q) if x not in counts_all or x not in counts_lite]
    if missing:
        raise SchemaError(f"count tables missing inputs {missing}")
    corrected = estimate.correct_denominators(counts_all, counts_lite, q)
    theory = _read_theory_csv(args.theory, q) if args.theory else None
    out_path = Path(args.out or "corrected.csv")
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    header = ["input", "raw_ratio", "corrected"]
    if theory is not None:
        header += ["theory", "abs_dev"]
    w.writerow(header)
    for x in range(1 << q):
        lo, hi = counts_all[x][x], counts_all[x][x | (1 << q)]
        raw = hi / (lo + hi)
        row = [x, _fmt(raw), _fmt(corrected[x])]
        if theory is not None:
            row += [_fmt(theory[x]), _fmt(abs(corrected[x] - theory[x]))]
        w.writerow(row)
    _publish(out_path, fh.getvalue())
    print(json.dumps({"output": str(out_path),
                      "max_corrected": _fmt(float(np.max(corrected)))}, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mp2q", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="classical MP2 reference energy")
    p.add_argument("--hf-data", required=True)
    p.add_argument("--formula", default=mp2.HELIUM_GROUND,
                   choices=[mp2.HELIUM_GROUND, mp2.CLOSED_SHELL, mp2.SPIN_ORBITAL])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("pipeline", help="lambda sweeps, fits, and energy assembly")
    p.add_argument("--config")
    p.add_argument("--hf-data")
    p.add_argument("--parts", help="comma-separated, e.g. I,III,IV")
    p.add_argument("--mode", choices=[estimate.EXACT, estimate.SAMPLED, "exact"])
    p.add_argument("--seed", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("lower", help="lower a circuit JSON onto a coupling map")
    p.add_argument("--circuit", required=True)
    p.add_argument("--coupling", required=True, help="JSON path or a named map")
    p.add_argument("--layout", help="JSON object mapping logical to physical")
    p.add_argument("--pack", type=int, help="also report K disjoint H-shape embeddings")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("correct", help="denominator correction from lite/all counts")
    p.add_argument("--counts-all", required=True)
    p.add_argument("--counts-lite", required=True)
    p.add_argument("--theory")
    p.add_argument("--out")
    p.set_defaults(func=cmd_correct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, LoweringError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
