import csv
import hashlib
import io
import json
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mp2q import circuits as cg, cli, estimate, hfdata, mp2
from mp2q.circuits import Circuit
from mp2q.builders import build_ue, default_c_e, ratio_table, solve_angles
from mp2q.cli import main
from mp2q.estimate import ue_response_tables


@pytest.fixture(scope="module")
def helium_path():
    return str(hfdata.helium_fixture_path())


def test_oracle_helium(helium_path, capsys):
    assert main(["oracle", "--hf-data", helium_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["e2_total_hartree"] == pytest.approx(-0.0269625, abs=1e-6)
    assert doc["per_block_hartree"]["IV"] == pytest.approx(0.017423, abs=1e-6)


def test_oracle_zero_eri(tmp_path, capsys):
    doc = {"n_orbitals": 3, "n_occupied": 1, "units": "hartree",
           "notation": "physicist", "orbital_energies": [-1.0, 0.5, 0.8],
           "mo_coefficients": np.eye(3).tolist(),
           "eri_mo": {"format": "sparse", "data": []}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--hf-data", str(path), "--formula", "closed-shell"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e2_total_hartree"] == 0.0


def test_oracle_matches_library(tmp_path, capsys, helium_path):
    assert main(["oracle", "--hf-data", helium_path, "--formula", "closed-shell"]) == 0
    doc = json.loads(capsys.readouterr().out)
    data = hfdata.load(helium_path)
    assert doc["e2_total_hartree"] == mp2.mp2_energy(data, mp2.CLOSED_SHELL).e2_total


def test_oracle_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_orbitals": 2}))
    assert main(["oracle", "--hf-data", str(path)]) == 2


@pytest.mark.parametrize("text, reason", [
    pytest.param('{"n_orbitals": 2,', "Expecting property name enclosed in double quotes "
                 "at line 1, column 18", id="not-json"),
    pytest.param('{"n_orbitals": ' + "9" * 5000 + "}", "an integer has more than 4300 digits",
                 id="integer-of-5000-digits"),
    pytest.param(b'{"units": "\xff"}', "cannot decode byte 11 as utf-8", id="not-utf-8"),
])
@pytest.mark.parametrize("command", ["oracle", "pipeline"])
def test_unparsable_hf_data_exits_2_naming_the_file(tmp_path, capsys, command, text, reason):
    # before, the pipeline (which parses the file's bytes) and the oracle
    # printed json's message alone, or a hint to raise the digit limit
    path = tmp_path / "hf.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    extra = ["--out-dir", str(tmp_path / "out")] if command == "pipeline" else []
    assert main([command, "--hf-data", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: not valid JSON: {reason}" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("index", [-1, 1.5, 3])
def test_oracle_bad_sparse_index_exits_2(tmp_path, capsys, index):
    # before, -1 wrapped around and 1.5 was truncated (exit 0); 3 raised IndexError
    doc = {"n_orbitals": 3, "n_occupied": 1, "units": "hartree",
           "notation": "physicist", "orbital_energies": [-1.0, 0.5, 0.8],
           "mo_coefficients": np.eye(3).tolist(),
           "eri_mo": {"format": "sparse", "data": [[0, 0, index, 2, 0.1]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--hf-data", str(path), "--formula", "closed-shell"]) == 2
    assert f"eri_mo sparse entry 0 [0, 0, {index}, 2, 0.1]: index {index}" in \
        capsys.readouterr().err


def test_oracle_occupied_above_virtual_exits_2(tmp_path, capsys):
    # this input once reached a zero denominator (exit 3); with every occupied
    # energy strictly below every virtual one, no loadable file can
    doc = {"n_orbitals": 3, "n_occupied": 1, "units": "hartree",
           "notation": "physicist",
           "orbital_energies": [-1.0, -0.5, -1.5],  # 2*eps0 - eps1 - eps2 = 0
           "mo_coefficients": np.eye(3).tolist(),
           "eri_mo": {"format": "sparse", "data": [[0, 0, 1, 2, 0.1], [1, 2, 0, 0, 0.1]]}}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--hf-data", str(path), "--formula", "closed-shell"]) == 2
    assert ("occupied orbital 0 (energy -1.0) is not below virtual orbital 2 "
            "(energy -1.5)") in capsys.readouterr().err


@pytest.fixture
def raised_helium(tmp_path, helium_path):
    """The helium fixture with orbital 0 raised above orbital 1."""
    doc = json.loads(open(helium_path).read())
    doc["orbital_energies"][0] = doc["orbital_energies"][1] + 0.1
    path = tmp_path / "raised.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_rejects_raised_occupied(raised_helium, capsys):
    # before, this printed positive per-part "energies" with exit 0
    assert main(["oracle", "--hf-data", raised_helium]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "occupied orbital 0" in captured.err and "virtual orbital 1" in captured.err


def test_pipeline_rejects_raised_occupied(tmp_path, raised_helium, capsys):
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--hf-data", raised_helium, "--mode", "exact",
                 "--parts", "IV", "--out-dir", str(out_dir)]) == 2
    assert "occupied orbital 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_overlarge_c_e_exits_3(tmp_path, capsys, helium_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hf_data": helium_path, "parts": ["IV"], "c_e": 10.0}))
    assert main(["pipeline", "--config", str(cfg), "--mode", "exact",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "numerical error: C_e/|denominator| above 1" in capsys.readouterr().err


@pytest.mark.parametrize("c_e, shown", [(0, "0"), (-0.5, "-0.5")])
def test_pipeline_c_e_not_above_zero_exits_3(tmp_path, capsys, helium_path, c_e, shown):
    # before, 0 ended in a ZeroDivisionError traceback and -0.5 exited 0 with
    # E2 = 0 (every kappa clipped to 0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hf_data": helium_path, "parts": ["I"], "c_e": c_e}))
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--mode", "exact",
                 "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert f"numerical error: C_e must be finite and above 0, got {shown}\n" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_pipeline_out_dir_under_a_file_exits_2(tmp_path, capsys, helium_path):
    # before, NotADirectoryError from mkdir ended in a traceback
    (tmp_path / "afile").write_text("")
    assert main(["pipeline", "--hf-data", helium_path, "--mode", "exact", "--parts", "IV",
                 "--out-dir", str(tmp_path / "afile" / "sub")]) == 2
    assert "error: [Errno 20] Not a directory" in capsys.readouterr().err


def test_pipeline_exact(tmp_path, capsys, helium_path):
    rc = main(["pipeline", "--hf-data", helium_path, "--mode", "exact",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "relative error" in out
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert abs(fits["relative_error"]) <= 0.02
    assert set(fits["parts"]) == {"I", "III", "IV"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"]
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert rows[0].keys() == {"part", "step", "lambda", "lambda_sq",
                              "outcome", "count", "shots", "zeta"}


def test_pipeline_parts_restricted(tmp_path, capsys, helium_path):
    rc = main(["pipeline", "--hf-data", helium_path, "--mode", "exact",
               "--parts", "IV", "--out-dir", str(tmp_path)])
    assert rc == 0
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert set(fits["parts"]) == {"IV"}
    parts = {row["part"] for row in csv.DictReader((tmp_path / "sweep.csv").open())}
    assert parts == {"IV"}


@pytest.mark.parametrize("parts, message", [
    ("I,V", "unknown part 'V'"),
    ("II", "unknown part 'II'"),
    ("I,", "unknown part ''"),
    ("I,I", "part 'I' named twice"),
    ("IV,III,IV", "part 'IV' named twice"),
])
def test_pipeline_rejects_bad_parts(tmp_path, capsys, helium_path, parts, message):
    # before, an unknown part printed only "error: 'V'", and I,I exited 0 with
    # E2 about -90% off the oracle
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--hf-data", helium_path, "--mode", "exact",
                 "--parts", parts, "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("config, message", [
    ({"lambda_step": {"I": 0.04}}, "config key 'lambda_step' has no entry for part 'III'"),
    ({"total_steps": {"III": 12}}, "config key 'total_steps' has no entry for part 'I'"),
    ({"c_e": {"I": 0.5}}, "config key 'c_e' has no entry for part 'III'"),
    ({"lambda_step": {"I": "wide", "III": 0.03}},
     "config key 'lambda_step', part 'I': 'wide' is not a number"),
    ({"parts": "I"}, "parts must be a list"),
    ({"parts": ["I", "I"]}, "part 'I' named twice"),
    ({"lambda_step": True}, "config key 'lambda_step', part 'I': True is not a number"),
    ({"lambda_step": "0.04", "parts": ["I"]},
     "config key 'lambda_step', part 'I': '0.04' is not a number"),
    ({"c_e": "0.5", "parts": ["I"]}, "config key 'c_e', part 'I': '0.5' is not a number"),
    ({"lambda_step": int("9" * 401), "parts": ["I"]},
     "config key 'lambda_step', part 'I': an integer of 401 digits is out of a double's range"),
])
def test_pipeline_rejects_bad_per_part_config(tmp_path, capsys, helium_path,
                                                config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hf_data": helium_path, **config}))
    args = ["pipeline", "--config", str(cfg), "--mode", "exact",
            "--out-dir", str(tmp_path / "out")]
    if "parts" not in config:
        args += ["--parts", "I,III"]
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"total_steps": 12.7}, "config key 'total_steps', part 'IV': 12.7 is not an integer"),
    ({"total_steps": {"IV": True}}, "config key 'total_steps', part 'IV': True is not an integer"),
    ({"total_steps": {"IV": 0}}, "config key 'total_steps', part 'IV': 0 is not positive"),
    ({"start_candidates": 2.9}, "config key 'start_candidates': 2.9 is not an integer"),
    ({"start_candidates": 0}, "config key 'start_candidates': 0 is not positive"),
    ({"shots": True}, "config key 'shots': True is not an integer"),
    ({"shots": -5}, "config key 'shots': -5 is not positive"),
    ({"seed": "seven"}, "config key 'seed': 'seven' is not an integer"),
    ({"seed": 7.0}, "config key 'seed': 7.0 is not an integer"),
])
def test_pipeline_rejects_non_integer_counts(tmp_path, capsys, helium_path, config, message):
    # before, 12.7 and 2.9 were truncated to 12 and 2 with exit 0, shots=true
    # ran one shot and wrote E2 = 0, and "seven" failed without naming the key
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hf_data": helium_path, "parts": ["IV"],
                               "mode": "sampled", **config}))
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_sampled_reproducible(tmp_path, helium_path, capsys):
    cfg = {"hf_data": helium_path, "parts": ["IV"], "mode": "sampled",
           "seed": 5, "shots": 2000, "lambda_step": {"IV": 0.05},
           "total_steps": {"IV": 6}, "start_candidates": 2}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "fits.json").read_bytes() == (out2 / "fits.json").read_bytes()


# SHA-256 of sweep.csv and fits.json for the helium fixture. A change that
# alters these bytes on purpose updates the digests and says why.
# Last update: sweep rows come from the closed (Walsh-Hadamard) form instead of
# gate-by-gate simulation. Exact mode: probabilities move by ~1e-15, so fitted
# slopes, intercepts and LSEs change in their last digits (E2 does not).
# Sampled mode: numpy's multinomial is not continuous in p, so those ~1e-15
# changes redraw the counts (seed 7: E2 error -0.70% -> -1.33%).
# Since then the exact sweep.csv digest moved once more, when the U_E readout
# weights became kappa = C_e/|den| instead of sin^2(arccos(1 - 2 kappa)/2):
# the last bits of some probabilities changed, fits.json did not. The sampled
# digests moved again when each (part, step) row got a stream of its own
# instead of one stream per step shared by the parts (seed 7: -1.33% -> -1.20%).
PINNED_DIGESTS = {
    "exact": ("519f80c4f380455131c085c21647c102488a39c2da99f519522878da32b499ce",
              "67b7e0a6f4529c66849ade69c163f9b4d5450564f7117ad1c9abddd7bd622ad0"),
    "sampled": ("8e047ceb726fe1cec86f213bfeb9db3755277dc66dbcff1abf94aae2526cee13",
                "2a376e63d40290de0f9ea9adc231575b30110c4b43e6dfdd4e38cb660c2597f5"),
}


@pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
def test_pipeline_outputs_pinned(tmp_path, capsys, helium_path, mode):
    extra = ["--seed", "7", "--shots", "100000"] if mode == "sampled" else []
    assert main(["pipeline", "--hf-data", helium_path, "--mode", mode,
                 "--out-dir", str(tmp_path), *extra]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("sweep.csv", "fits.json"))
    assert digests == PINNED_DIGESTS[mode]


# SHA-256 of sweep.csv and fits.json for more runs, recorded while sweep.csv
# was still written by csv.writer one outcome at a time and every sweep row
# had its own transform: other seeds, the published grids (whose small
# probabilities print in exponent form) and single-part runs. The exact
# sweep.csv digests moved when the U_E readout weights became kappa, and the
# sampled ones when each (part, step) row got a stream of its own.
PINNED_RUN_DIGESTS = {
    "sampled-seed0": (["--mode", "sampled", "--seed", "0"],
                      "c32260bfe86712d8a628e9c2b1fde59340b7181530f465271ea30060a662d81b",
                      "9b6d51ade1a5e7021e551c834e900ac43fcc7e54f634a562415a367e05eeeaf9"),
    "sampled-seed1": (["--mode", "sampled", "--seed", "1"],
                      "f10ae9d166e94c225f65e26c7ac40b4594252ef7cb009c6d1959cec60b77f0f7",
                      "0360a172225fd5221e7eb9f2186f364024a8b44ce67c41039869901e6f986645"),
    "exact-paper-grids": (["--mode", "exact"],
                          "d280b62ce91bde7cbb9b607905b33028ef46edf38c2f2a5b530a0b17769bccbe",
                          "bf12ee7a470aa0f07b4de92c2dc0cffc16ca4bce3665945d7a633821bb38cfb9"),
    "exact-part-IV": (["--mode", "exact", "--parts", "IV"],
                      "927b4275cdd1df4094a33066e33a56f8596dc6873f0a8860a8107c4ae301560e",
                      "ec68bce629726b18263ae3f2e7c27d8b42b67093a79f546b1ad262bed2a34c4c"),
    "sampled-part-IV-seed1": (["--mode", "sampled", "--parts", "IV", "--seed", "1"],
                              "bec8f781d36cad44adf8753dca9bc344191073bd35c3eef9f1110684530fa546",
                              "27a9146af5db51a0b9929e551b2794ae3edc6822686aeef918ffd82b1afd6339"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUN_DIGESTS))
def test_more_pipeline_outputs_pinned(tmp_path, capsys, helium_path, name):
    args, *pinned = PINNED_RUN_DIGESTS[name]
    if "paper-grids" in name:
        grids = estimate.PAPER_GRIDS
        config = tmp_path / "paper.json"
        config.write_text(json.dumps({"lambda_step": {p: g[0] for p, g in grids.items()},
                                      "total_steps": {p: g[1] for p, g in grids.items()}}))
        args = [*args, "--config", str(config)]
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--hf-data", helium_path, "--out-dir", str(out_dir), *args]) == 0
    digests = [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "fits.json")]
    assert digests == pinned


def _reference_sweep_csv(result):
    """sweep.csv as csv.writer writes it, one row per nonzero outcome: the
    reference for cli._render_sweep_csv."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["part", "step", "lambda", "lambda_sq", "outcome", "count", "shots", "zeta"])
    for part, detail in sorted(result.parts.items()):
        shots = detail.sweep.shots
        for step, (row, values) in enumerate(zip(detail.sweep.rows, detail.sweep.outcomes)):
            width = values.size.bit_length() - 1
            for i in np.flatnonzero(values > 0):
                w.writerow([part, step, cli._fmt(row.lam), cli._fmt(row.lam_sq),
                            format(i, f"0{width}b"),
                            values[i] if shots else cli._fmt(values[i]),
                            shots, cli._fmt(row.zeta)])
    return fh.getvalue()


_PROBABILITIES = st.one_of(st.just(0.0), st.floats(1e-310, 1e-290),
                           st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _pipeline_estimates(draw):
    sampled = draw(st.booleans())
    parts = {}
    for part in draw(st.lists(st.sampled_from(["I", "III", "IV"]), min_size=1, unique=True)):
        width = draw(st.integers(2, 6))
        shots = draw(st.integers(1, 10 ** 7)) if sampled else 0
        rows, outcomes = [], []
        for step in range(draw(st.integers(1, 3))):
            lam = draw(st.floats(0.0, 10.0))
            zeta = draw(st.floats(0.0, 1.0))
            rows.append((lam, lam * lam, zeta, zeta))
            values = st.integers(0, 10 ** 6) if sampled else _PROBABILITIES
            outcomes.append(draw(st.lists(values, min_size=1 << width, max_size=1 << width)))
        sweep = estimate.SweepResult(part, 1.0, 0, width - 1, shots,
                                     np.rec.fromrecords(rows, dtype=estimate.ROW_FIELDS),
                                     np.array(outcomes, dtype=np.int64 if sampled else float))
        parts[part] = estimate.PartEstimate(part, sweep, None, 0.0)
    return estimate.PipelineEstimate(0.0, parts)


@settings(max_examples=100, deadline=None)
@given(_pipeline_estimates())
def test_sweep_csv_is_what_csv_writer_writes(result):
    assert cli._render_sweep_csv(result) == _reference_sweep_csv(result)


def test_manifest_hashes_the_hf_bytes_it_parsed(tmp_path, capsys, helium_path):
    assert main(["pipeline", "--hf-data", helium_path, "--parts", "IV",
                 "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    raw = open(helium_path, "rb").read()
    assert manifest["inputs"] == {helium_path: hashlib.sha256(raw).hexdigest()}
    # the bytes parse to the same data as the path
    from_bytes, from_path = hfdata.load(raw), hfdata.load(helium_path)
    assert np.array_equal(from_bytes.eri_mo, from_path.eri_mo)
    assert np.array_equal(from_bytes.orbital_energies, from_path.orbital_energies)


@pytest.mark.parametrize("config", [{}, {"hf_data": 5}, {"hf_data": ["he.json"]}])
def test_pipeline_needs_an_hf_path(tmp_path, capsys, config):
    # an integer hf_data was once opened as a file descriptor
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "needs --hf-data or an hf_data config entry naming a file" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ([{"mode": "exact"}], "config must be a JSON object, got list"),
    ({"mode": "foo"}, "config key 'mode' must be one of exact, exact-probabilities, "
                      "sampled, got 'foo'"),
    ({"mode": 3}, "config key 'mode' must be one of exact, exact-probabilities, "
                  "sampled, got 3"),
    ({"mode": ["sampled"]}, "config key 'mode' must be one of"),
    # a string is the file's text
    pytest.param('{"parts": ["I"],', "config.json: not valid JSON: Expecting property name "
                 "enclosed in double quotes at line 1, column 17", id="not-json"),
    pytest.param('{"lambda_step": ' + "9" * 5000 + "}",
                 "config.json: not valid JSON: an integer has more than 4300 digits",
                 id="integer-of-5000-digits"),
])
def test_pipeline_rejects_a_bad_config_or_mode(tmp_path, capsys, helium_path, config, message):
    # a list once ended in an AttributeError traceback, an unknown mode
    # printed only "error: 'foo'", and text that is not JSON named no file
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--hf-data", helium_path,
                 "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("out_dir", [5, ["out"], None])
def test_pipeline_rejects_a_non_string_out_dir(tmp_path, capsys, helium_path, monkeypatch,
                                               out_dir):
    # an integer out_dir once reached Path() and ended in a TypeError traceback
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hf_data": helium_path, "parts": ["IV"], "out_dir": out_dir}))
    assert main(["pipeline", "--config", str(path), "--mode", "exact"]) == 2
    assert (f"config key 'out_dir' must name a directory, got {out_dir!r}"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["config.json"]


OUTPUTS = ["fits.json", "manifest.json", "sweep.csv"]


def _snapshot(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def test_pipeline_rerun_replaces_outputs(tmp_path, capsys, helium_path):
    args = ["pipeline", "--hf-data", helium_path, "--mode", "exact", "--parts", "IV",
            "--out-dir", str(tmp_path)]
    assert main(args) == 0
    first = _snapshot(tmp_path)
    assert main(args) == 0
    # no temp file is left behind, and a rerun gives the same bytes
    assert sorted(first) == OUTPUTS
    assert _snapshot(tmp_path) == first
    manifest = json.loads(first["manifest.json"])
    assert manifest["output_sha256"] == {
        str(tmp_path / name): hashlib.sha256(first[name]).hexdigest()
        for name in ("sweep.csv", "fits.json")}


def test_pipeline_render_failure_keeps_previous_outputs(tmp_path, capsys, helium_path,
                                                        monkeypatch):
    base = ["pipeline", "--hf-data", helium_path, "--mode", "exact",
            "--out-dir", str(tmp_path)]
    assert main([*base, "--parts", "IV"]) == 0
    first = _snapshot(tmp_path)

    def fail(*args, **kwargs):
        raise RuntimeError("rendering failed")

    # fits.json is rendered with json.dumps; sweep.csv of these parts would differ
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=fail))
    with pytest.raises(RuntimeError, match="rendering failed"):
        main([*base, "--parts", "I,IV"])
    assert _snapshot(tmp_path) == first


def test_internal_key_error_is_not_reported_as_bad_input(tmp_path, capsys, helium_path,
                                                        monkeypatch):
    # no input check raises KeyError, so one from inside is a fault: it once
    # printed "error: 'internal'" and exited 2
    def fail(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(estimate, "estimate_helium", fail)
    with pytest.raises(KeyError, match="internal"):
        main(["pipeline", "--hf-data", helium_path, "--mode", "exact",
              "--out-dir", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""


def test_pipeline_rename_failure_removes_temp(tmp_path, capsys, helium_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "rename", fail)
    # the OSError reaches main, which reports it with exit 2
    assert main(["pipeline", "--hf-data", helium_path, "--mode", "exact", "--parts", "IV",
                 "--out-dir", str(tmp_path)]) == 2
    assert "error: rename failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_publish_mode_and_symlink(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target)
    cli._publish(link, "new\r\n")
    # the link itself is replaced; the file it pointed to is left alone
    assert not link.is_symlink() and link.read_bytes() == b"new\r\n"
    assert target.read_text() == "old\n"
    assert (link.stat().st_mode & 0o777) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


@pytest.mark.parametrize("command", ["oracle", "pipeline"])
def test_nan_eri_exits_2(tmp_path, capsys, helium_path, command):
    # <1s 1s|2s 2s> is a used ERI of part I; NaN must not reach an exit-0 result
    doc = json.loads(open(helium_path).read())
    eri = doc["eri_mo"]["data"]
    eri[0][0][1][1] = eri[1][1][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    extra = ["--out-dir", str(tmp_path / "out")] if command == "pipeline" else []
    assert main([command, "--hf-data", str(path), *extra]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_lower_ue_on_h_shape(tmp_path, capsys, helium_path):
    data = hfdata.load(helium_path)
    blk = hfdata.helium_blocks(data)["I"]
    circ_path = tmp_path / "ue.json"
    build_ue(solve_angles(blk)).save(circ_path)
    out_path = tmp_path / "low.json"
    rc = main(["lower", "--circuit", str(circ_path), "--coupling", "h-shape-7",
               "--out", str(out_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    lowered = Circuit.load(out_path)
    assert all(g.kind in cg.NATIVE_KINDS for g in lowered.gates)
    # --out holds the bytes Circuit.save writes
    lowered.save(tmp_path / "saved.json")
    assert out_path.read_bytes() == (tmp_path / "saved.json").read_bytes()


def test_lower_flags_violation(tmp_path, capsys):
    circ_path = tmp_path / "bad.json"
    Circuit(3, [cg.cnot(0, 2)]).save(circ_path)
    coupling_path = tmp_path / "path.json"
    from mp2q.coupling import path_map

    path_map(3).save(coupling_path)
    # no free ancillas under an identity layout covering all qubits: relay fails
    rc = main(["lower", "--circuit", str(circ_path), "--coupling", str(coupling_path)])
    assert rc == 2


def test_lower_pack_reports_three(tmp_path, capsys, helium_path):
    data = hfdata.load(helium_path)
    blk = hfdata.helium_blocks(data)["I"]
    circ_path = tmp_path / "ue.json"
    build_ue(solve_angles(blk)).save(circ_path)
    layout_path = tmp_path / "layout.json"
    from mp2q.coupling import ibm_27_heavy_hex, pack_parallel_ue

    packs = pack_parallel_ue(ibm_27_heavy_hex(), 1)
    layout_path.write_text(json.dumps({str(i): packs[0][i] for i in range(5)}))
    rc = main(["lower", "--circuit", str(circ_path), "--coupling", "ibm-27-heavy-hex",
               "--layout", str(layout_path), "--pack", "3", "--out",
               str(tmp_path / "low.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert len(report["parallel_embeddings"]) == 3


def _write_counts_csv(path, tables, q=4):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["input", "outcome", "count"])
        for x, table in tables.items():
            for i in np.flatnonzero(table):
                w.writerow([x, format(i, f"0{q + 1}b"), f"{table[i]:.17g}"])


def test_correct_identity(tmp_path, capsys, helium_path):
    data = hfdata.load(helium_path)
    blk = hfdata.helium_blocks(data)["I"]
    tables = ue_response_tables(blk, shots=100000)
    all_csv, lite_csv = tmp_path / "all.csv", tmp_path / "lite.csv"
    _write_counts_csv(all_csv, tables)
    _write_counts_csv(lite_csv, tables)
    kappa = ratio_table(blk, default_c_e(blk))
    theory_csv = tmp_path / "theory.csv"
    with open(theory_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["input", "value"])
        for x in range(16):
            w.writerow([x, f"{kappa[x]:.17g}"])
    out_csv = tmp_path / "corrected.csv"
    rc = main(["correct", "--counts-all", str(all_csv), "--counts-lite", str(lite_csv),
               "--theory", str(theory_csv), "--out", str(out_csv)])
    assert rc == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 16
    for row in rows:
        assert float(row["corrected"]) == pytest.approx(float(row["raw_ratio"]), abs=1e-15)
        assert float(row["abs_dev"]) < 1e-12


def test_correct_missing_input(tmp_path, capsys):
    partial = {x: np.eye(32)[0] + np.eye(32)[16] for x in range(15)}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_counts_csv(a, partial)
    _write_counts_csv(b, partial)
    assert main(["correct", "--counts-all", str(a), "--counts-lite", str(b)]) == 2


def _valid_counts():
    # every input x reads outcome x (readout 0) or x + 16 (readout 1)
    return {x: np.eye(32)[x] + 3 * np.eye(32)[x | 16] for x in range(16)}


@pytest.mark.parametrize("row, reason", [
    (["3", "2x011", "5"], "characters of 0/1"),
    (["3", "0011", "5"], "characters of 0/1"),
    (["3", "000011", "5"], "characters of 0/1"),
    (["16", "10000", "5"], "input 16 outside 0..15"),
    (["-1", "00000", "5"], "input -1 outside 0..15"),
    (["3", "10011", "nan"], "not finite"),
    (["3", "10011", "inf"], "not finite"),
    (["3", "10011", "-2"], "non-negative"),
    (["3", "10011", "many"], "could not convert"),
    (["3", "10011", "300"], "input 3 outcome 10011 named twice"),
])
def test_correct_rejects_malformed_row(tmp_path, capsys, row, reason):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _write_counts_csv(good, _valid_counts())
    _write_counts_csv(bad, _valid_counts())
    with open(bad, "a", newline="") as fh:
        csv.writer(fh).writerow(row)
    line = len(bad.read_text().splitlines())
    for files in ([bad, good], [good, bad]):
        rc = main(["correct", "--counts-all", str(files[0]), "--counts-lite",
                   str(files[1]), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"row {line}" in err and reason in err


@pytest.mark.parametrize("columns", [["input", "outcome"], ["input", "count"],
                                     ["outcome", "count"]])
def test_correct_rejects_missing_column(tmp_path, capsys, columns):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _write_counts_csv(good, _valid_counts())
    with open(good, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(bad, "w", newline="") as fh:
        w = csv.DictWriter(fh, columns, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    missing = ({"input", "outcome", "count"} - set(columns)).pop()
    rc = main(["correct", "--counts-all", str(good), "--counts-lite", str(bad),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"missing {missing}" in err


def test_correct_rejects_tables_of_different_width(tmp_path, capsys):
    all_csv, lite_csv = tmp_path / "all.csv", tmp_path / "lite.csv"
    _write_counts_csv(all_csv, _valid_counts())
    # the same 16 inputs, written as Q=5 outcomes
    _write_counts_csv(lite_csv, {x: np.eye(64)[x] + np.eye(64)[x | 32] for x in range(16)},
                      q=5)
    assert main(["correct", "--counts-all", str(all_csv), "--counts-lite",
                 str(lite_csv), "--out", str(tmp_path / "out.csv")]) == 2
    assert "disagree on Q" in capsys.readouterr().err


@pytest.mark.parametrize("layout, reason", [
    ({"0": 0.9, "1": 1, "2": 2}, "layout entry '0': 0.9 is not an integer"),
    ({"0": True, "1": 1, "2": 2}, "layout entry '0': True is not an integer"),
    ({"0": "0", "1": 1, "2": 2}, "layout entry '0': '0' is not an integer"),
    ([0, 1, 2], "layout must be a JSON object, got list"),
    ({"0": 0, "1": 1, "2": 2, "7": 3}, "layout key '7' is not a qubit of the 3-qubit circuit"),
    ({"0": 0, "01": 1, "2": 2}, "layout key '01' is not a qubit"),
    # a string is the file's text
    pytest.param('{"0": 0,', "not valid JSON: Expecting property name enclosed in double quotes",
                 id="not-json"),
    pytest.param('{"0": ' + "9" * 5000 + "}",
                 "not valid JSON: an integer has more than 4300 digits",
                 id="integer-of-5000-digits"),
])
def test_lower_rejects_malformed_layout(tmp_path, capsys, layout, reason):
    circ_path, layout_path = tmp_path / "c.json", tmp_path / "layout.json"
    Circuit(3, [cg.cnot(0, 2), cg.h(1)]).save(circ_path)
    layout_path.write_text(layout if isinstance(layout, str) else json.dumps(layout))
    out_path = tmp_path / "low.json"
    rc = main(["lower", "--circuit", str(circ_path), "--coupling", "complete-4",
               "--layout", str(layout_path), "--out", str(out_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(layout_path) in err and reason in err
    assert not out_path.exists()


_CIRCUIT = {"n_qubits": 2, "gates": [{"kind": "h", "qubits": [0]},
                                     {"kind": "ry", "qubits": [1], "angle": 0.5}]}
_COUPLING = {"name": "pair", "n_qubits": 2, "edges": [[0, 1]]}
_MISSING = "(field removed)"


@pytest.mark.parametrize("doc, field, value, reason", [
    ("circuit", ["n_qubits"], "2", "n_qubits: '2' is not an integer"),
    ("circuit", ["n_qubits"], 2.9, "n_qubits: 2.9 is not an integer"),
    ("circuit", ["gates", 1, "angle"], "0.5", "gate 1 angle: '0.5' is not a number"),
    ("circuit", ["gates", 1, "angle"], True, "gate 1 angle: True is not a number"),
    ("circuit", ["gates", 1, "qubits", 0], 1.0, "gate 1 qubits: 1.0 is not an integer"),
    ("circuit", ["gates", 0, "qubits"], 0, "gate 0: expected an object with a 'qubits' list"),
    ("coupling", ["n_qubits"], "2", "n_qubits: '2' is not an integer"),
    ("coupling", ["edges", 0, 1], 1.0, "edge 0: 1.0 is not an integer"),
    ("coupling", ["edges", 0], [0], "edge 0: [0] is not a pair of qubits"),
    ("circuit", [], [1, 2], "expected a JSON object, got list"),
    ("circuit", ["gates"], 5, "gates: expected a list, got 5"),
    ("circuit", ["gates"], _MISSING, "gates: expected a list, got None"),
    ("circuit", ["n_qubits"], _MISSING, "n_qubits: None is not an integer"),
    ("circuit", ["gates", 0, "kind"], ["x"],
     "gate 0: expected an object with a 'qubits' list and a 'kind' string"),
    ("coupling", [], [], "expected a JSON object, got list"),
    ("coupling", ["edges"], 5, "edges: expected a list, got 5"),
    ("coupling", ["edges"], _MISSING, "edges: expected a list, got None"),
    ("coupling", ["n_qubits"], _MISSING, "n_qubits: None is not an integer"),
    pytest.param("circuit", ["gates", 1, "angle"], -int("9" * 401),
                 "gate 1 angle: an integer of 401 digits is out of a double's range",
                 id="circuit-angle-of-401-digits"),
    # a string is the file's text
    pytest.param("circuit", [], '{"n_qubits": 2, "gates": [}',
                 "not valid JSON: Expecting value at line 1, column 27", id="circuit-not-json"),
    pytest.param("coupling", [], '{"n_qubits": ' + "9" * 5000 + ', "edges": []}',
                 "not valid JSON: an integer has more than 4300 digits",
                 id="coupling-integer-of-5000-digits"),
])
def test_lower_rejects_malformed_json(tmp_path, capsys, doc, field, value, reason):
    # before, these were truncated to integers or ended in a TypeError traceback
    # (or, for a missing field, printed only its name)
    docs = {"circuit": json.loads(json.dumps(_CIRCUIT)),
            "coupling": json.loads(json.dumps(_COUPLING))}
    if not field:
        docs[doc] = value
    else:
        node = docs[doc]
        for key in field[:-1]:
            node = node[key]
        if value is _MISSING:
            del node[field[-1]]
        else:
            node[field[-1]] = value
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, path in paths.items():
        text = docs[name]
        path.write_text(text if isinstance(text, str) else json.dumps(text))
    out_path = tmp_path / "low.json"
    rc = main(["lower", "--circuit", str(paths["circuit"]), "--coupling",
               str(paths["coupling"]), "--out", str(out_path)])
    assert rc == 2
    assert f"{paths[doc]}: {reason}" in capsys.readouterr().err
    assert not out_path.exists()


def test_lower_accepts_integer_layout(tmp_path, capsys):
    circ_path, layout_path = tmp_path / "c.json", tmp_path / "layout.json"
    Circuit(3, [cg.cnot(0, 2), cg.h(1)]).save(circ_path)
    layout_path.write_text(json.dumps({"0": 3, "1": 0, "2": 1}))
    out_path = tmp_path / "low.json"
    assert main(["lower", "--circuit", str(circ_path), "--coupling", "complete-4",
                 "--layout", str(layout_path), "--out", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    assert Circuit.load(out_path).gates == [cg.cnot(3, 1), cg.h(0)]


def _theory_rows():
    return [[x, "0.5"] for x in range(16)]


@pytest.mark.parametrize("rows, line, reason", [
    (_theory_rows()[:15], None, "no theory value for inputs [15]"),
    (_theory_rows()[:3] + [[3, "nan"]] + _theory_rows()[4:], 5, "value 'nan' is not finite"),
    (_theory_rows()[:3] + [[3, "-inf"]] + _theory_rows()[4:], 5, "is not finite"),
    (_theory_rows()[:3] + [[3, "abc"]] + _theory_rows()[4:], 5, "could not convert"),
    (_theory_rows()[:3] + [["3.0", "0.5"]] + _theory_rows()[4:], 5, "invalid literal"),
    (_theory_rows() + [[3, "0.5"]], 18, "input 3 named twice"),
    (_theory_rows() + [[16, "0.5"]], 18, "input 16 outside 0..15"),
])
def test_correct_rejects_bad_theory(tmp_path, capsys, rows, line, reason):
    counts, theory = tmp_path / "counts.csv", tmp_path / "theory.csv"
    _write_counts_csv(counts, _valid_counts())
    with open(theory, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["input", "value"])
        w.writerows(rows)
    out_path = tmp_path / "out.csv"
    rc = main(["correct", "--counts-all", str(counts), "--counts-lite", str(counts),
               "--theory", str(theory), "--out", str(out_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(theory) in err and reason in err
    assert line is None or f"row {line}:" in err
    assert not out_path.exists()
