import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mp2q import hfdata
from mp2q.errors import SchemaError


def write_fixture(tmp_path, doc, name="hf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(**overrides):
    doc = {
        "n_orbitals": 2,
        "n_occupied": 1,
        "units": "hartree",
        "notation": "physicist",
        "orbital_energies": [-0.5, 0.5],
        "mo_coefficients": [[1.0, 0.0], [0.0, 1.0]],
        "eri_mo": {"format": "sparse", "data": []},
    }
    doc.update(overrides)
    return doc


def test_load_toy_zero_eri(tmp_path):
    data = hfdata.load(write_fixture(tmp_path, minimal_doc()))
    assert data.n_orbitals == 2
    assert np.all(data.eri_mo == 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["orbital_energies", "mo_coefficients",
                                   "eri_mo", "eri_ao"])
def test_load_rejects_non_finite(tmp_path, field, bad):
    # NaN compares false against every tolerance, so it must be caught by name
    doc = minimal_doc(eri_ao={"format": "sparse", "data": []})
    if field == "orbital_energies":
        doc[field] = [-0.5, bad]
    elif field == "mo_coefficients":
        doc[field] = [[1.0, 0.0], [0.0, bad]]
    else:
        doc[field] = {"format": "sparse", "data": [[0, 0, 1, 1, bad], [1, 1, 0, 0, bad]]}
    with pytest.raises(SchemaError, match=f"{field} has non-finite"):
        hfdata.load(write_fixture(tmp_path, doc))


@pytest.mark.parametrize("entry, reason", [
    ([0, 0, -1, 1, 0.1], "index -1 is not an integer in 0..1"),   # wrapped around
    ([0, 0, 1.5, 1, 0.1], "index 1.5 is not an integer"),          # truncated to 1
    ([0, 0, 1.0, 1, 0.1], "index 1.0 is not an integer"),
    ([0, 0, 2, 1, 0.1], "index 2 is not an integer in 0..1"),      # IndexError
    ([0, 0, True, 1, 0.1], "index True is not an integer"),
    ([0, 0, 1, 0.1], "expected \\[a, b, r, s, value\\]"),
    ([0, 0, 1, 1, "0.1x"], "value '0.1x' is not a number"),
])
@pytest.mark.parametrize("field", ["eri_mo", "eri_ao"])
def test_load_rejects_bad_sparse_entry(tmp_path, field, entry, reason):
    doc = minimal_doc(eri_ao={"format": "sparse", "data": []})
    doc[field] = {"format": "sparse", "data": [[0, 0, 0, 0, 0.2], entry]}
    with pytest.raises(SchemaError, match=f"{field} sparse entry 1 .*: {reason}"):
        hfdata.load(write_fixture(tmp_path, doc))


@pytest.mark.parametrize("key, value", [
    ("n_orbitals", 2.7), ("n_orbitals", 2.0), ("n_orbitals", "2"),
    ("n_orbitals", -2), ("n_occupied", 1.5), ("n_occupied", True),
])
def test_load_rejects_non_integer_count(tmp_path, key, value):
    with pytest.raises(SchemaError, match=f"{key} must be a non-negative integer"):
        hfdata.load(write_fixture(tmp_path, minimal_doc(**{key: value})))


def test_shipped_toy_fixture():
    from importlib import resources

    path = resources.files("mp2q.data").joinpath("toy_two_orbital.json")
    data = hfdata.load(path)
    assert data.n_orbitals == 2 and data.n_occupied == 1


def test_helium_fixture_shape(helium):
    assert helium.n_orbitals == 9
    assert helium.n_occupied == 1
    assert helium.eri_ao is not None


def test_sparse_dense_equivalence(tmp_path):
    rng = np.random.default_rng(2)
    n = 2
    t = rng.normal(size=(n, n, n, n))
    t = t + t.transpose(2, 3, 0, 1)  # hermitian-symmetric
    entries = [[a, b, r, s, t[a, b, r, s]]
               for a in range(n) for b in range(n)
               for r in range(n) for s in range(n) if t[a, b, r, s] != 0.0]
    dense = hfdata.load(write_fixture(
        tmp_path, minimal_doc(eri_mo={"format": "dense", "data": t.tolist()}), "d.json"))
    sparse = hfdata.load(write_fixture(
        tmp_path, minimal_doc(eri_mo={"format": "sparse", "data": entries}), "s.json"))
    assert np.array_equal(dense.eri_mo, sparse.eri_mo)


def test_rejects_chemist_notation(tmp_path):
    with pytest.raises(SchemaError):
        hfdata.load(write_fixture(tmp_path, minimal_doc(notation="chemist")))


def test_rejects_wrong_units(tmp_path):
    with pytest.raises(SchemaError):
        hfdata.load(write_fixture(tmp_path, minimal_doc(units="eV")))


def test_rejects_symmetry_violation(tmp_path):
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 1, 1] = 0.5
    bad[1, 1, 0, 0] = 0.5 + 1e-6  # breaks <ab|rs> = <rs|ab> beyond 1e-8
    with pytest.raises(SchemaError):
        hfdata.load(write_fixture(
            tmp_path, minimal_doc(eri_mo={"format": "dense", "data": bad.tolist()})))


def test_rejects_bad_occupation(tmp_path):
    with pytest.raises(SchemaError):
        hfdata.load(write_fixture(tmp_path, minimal_doc(n_occupied=2)))


@pytest.mark.parametrize("n_occupied, energies, occupied, virtual", [
    (1, [0.6, 0.5], 0, 1),                 # occupied above the virtual
    (1, [0.5, 0.5], 0, 1),                 # degenerate: a zero MP2 denominator
    (1, [-1.0, -0.5, -1.5], 0, 2),         # below one virtual, above another
    (2, [-1.0, 0.7, 0.6, 2.0], 1, 2),      # the highest occupied, the lowest virtual
])
def test_load_rejects_occupied_not_below_virtuals(tmp_path, n_occupied, energies,
                                                  occupied, virtual):
    n = len(energies)
    doc = minimal_doc(n_orbitals=n, n_occupied=n_occupied, orbital_energies=energies,
                      mo_coefficients=np.eye(n).tolist())
    with pytest.raises(SchemaError, match=f"occupied orbital {occupied} .* is not below "
                                          f"virtual orbital {virtual} "):
        hfdata.load(write_fixture(tmp_path, doc))


def test_load_rejects_helium_with_raised_occupied(tmp_path):
    doc = json.loads(hfdata.helium_fixture_path().read_text())
    doc["orbital_energies"][0] = doc["orbital_energies"][1] + 0.1
    with pytest.raises(SchemaError, match="occupied orbital 0 .* virtual orbital 1 "):
        hfdata.load(write_fixture(tmp_path, doc))


def test_ao_to_mo_identity():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(3, 3, 3, 3))
    assert np.allclose(hfdata.ao_to_mo(t, np.eye(3)), t)


def test_ao_to_mo_permutation():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(3, 3, 3, 3))
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    out = hfdata.ao_to_mo(t, perm)
    # column a of perm selects AO row: <ab|rs> = t[p(a), p(b), p(r), p(s)]
    src = [int(np.argmax(perm[:, j])) for j in range(3)]
    for a in range(3):
        for b in range(3):
            for r in range(3):
                for s in range(3):
                    assert out[a, b, r, s] == pytest.approx(
                        t[src[a], src[b], src[r], src[s]], abs=1e-12)


def test_ao_to_mo_vs_quadruple_loop():
    rng = np.random.default_rng(9)
    n = 3
    t = rng.normal(size=(n, n, n, n))
    c = rng.normal(size=(n, n))
    out = hfdata.ao_to_mo(t, c)
    ref = np.zeros_like(t)
    for a in range(n):
        for b in range(n):
            for r in range(n):
                for s in range(n):
                    acc = 0.0
                    for k in range(n):
                        for l in range(n):
                            for m in range(n):
                                for nn in range(n):
                                    acc += c[k, a] * c[l, b] * c[m, r] * c[nn, s] * t[k, l, m, nn]
                    ref[a, b, r, s] = acc
    assert np.max(np.abs(out - ref)) < 1e-10


def test_ao_to_mo_inverse_recovers():
    rng = np.random.default_rng(10)
    n = 4
    t = rng.normal(size=(n, n, n, n))
    c = rng.normal(size=(n, n)) + np.eye(n)
    forward = hfdata.ao_to_mo(t, c)
    back = hfdata.ao_to_mo(forward, np.linalg.inv(c))
    assert np.max(np.abs(back - t)) < 1e-9


def test_helium_ao_to_mo_matches_fixture(helium):
    out = hfdata.ao_to_mo(helium.eri_ao, helium.mo_coefficients)
    assert np.max(np.abs(out - helium.eri_mo)) < 1e-9


def test_antisymmetrized(helium):
    eri = helium.eri_mo
    assert hfdata.antisymmetrized(helium, 0, 0, 3, 3) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, r, s = rng.integers(0, 9, size=4)
        expected = eri[a, b, r, s] - eri[a, b, s, r]
        assert hfdata.antisymmetrized(helium, int(a), int(b), int(r), int(s)) == expected


def test_partition_tiles_plane(helium):
    blocks = hfdata.partition(helium, hfdata.helium_scheme(helium))
    assert [b.label for b in blocks] == ["I", "II", "III", "IV"]
    seen = {}
    for blk in blocks:
        assert blk.gamma.size == 16
        for code in range(16):
            decoded = blk.decode(code)
            assert decoded is not None
            assert decoded not in seen
            seen[decoded] = blk.gamma[code]
            assert blk.gamma[code] == helium.eri_mo[0, 0, decoded[0], decoded[1]]
    virt = helium.virtual_orbitals
    assert len(seen) == len(virt) ** 2


def test_ground_state_denominators_negative(helium_blocks):
    for blk in helium_blocks.values():
        assert np.all(blk.denominators < 0)
        assert np.all(np.isreal(blk.gamma))


def test_parts_ii_iii_transposed(helium_blocks):
    b2, b3 = helium_blocks["II"], helium_blocks["III"]
    g2 = b2.gamma.reshape(4, 4)
    g3 = b3.gamma.reshape(4, 4)
    assert np.max(np.abs(g2 - g3.T)) < 1e-12
    assert np.allclose(sorted(b2.denominators), sorted(b3.denominators))


def test_transposed_helper(helium_blocks):
    b3 = helium_blocks["III"]
    mirrored = b3.transposed("II")
    assert np.allclose(mirrored.gamma, helium_blocks["II"].gamma)


def test_p_degenerate_denominators(helium_blocks):
    for blk in helium_blocks.values():
        dens = blk.denominators.reshape(4, 4)
        # orbitals 1..3 on each axis are the degenerate p set
        assert np.ptp(np.diag(dens)[1:]) < 1e-10
        for row in (1, 2, 3):
            assert np.ptp(dens[row, 1:]) < 1e-10


def test_padding_non_power_of_two(helium):
    blk = hfdata.build_block(helium, "pad", (0, 0), [1, 2, 3], [1, 2])
    assert len(blk.r_orbitals) == 4 and blk.r_orbitals[3] is None
    assert blk.gamma.size == 8
    padded = [code for code in range(8) if blk.decode(code) is None]
    for code in padded:
        assert blk.gamma[code] == 0.0
        assert blk.denominators[code] == -np.inf


def test_partition_rejects_double_cover(helium):
    scheme = hfdata.PartitionScheme((0, 0), (("A", (1, 2), (1, 2)),
                                             ("B", (1, 2), (2, 3))))
    with pytest.raises(ValueError):
        hfdata.partition(helium, scheme)


@pytest.mark.parametrize("field, value", [
    ("gamma", np.nan), ("gamma", np.inf), ("gamma", -np.inf),
    ("denominators", np.nan), ("denominators", np.inf),
])
def test_eri_block_rejects_non_finite(field, value):
    # np.isfinite cannot tell NaN or +inf from the -inf of a padded slot, so
    # builders.ratio_table would give such a slot kappa = 0 and sweep on
    arrays = {"gamma": np.array([0.0, 0.1, 0.2, 0.3]),
              "denominators": np.array([-1.0, -2.0, -3.0, -np.inf])}
    arrays[field][2] = value
    with pytest.raises(ValueError, match="code 2"):
        hfdata.EriBlock("B", (0, 0), (1, 2), (1, 2), **arrays)
    arrays[field][2] = {"gamma": 0.2, "denominators": -np.inf}[field]  # -inf: padding
    hfdata.EriBlock("B", (0, 0), (1, 2), (1, 2), **arrays)


@pytest.mark.parametrize("field, value, reason", [
    ("eri_mo", [1, 2], "eri_mo must be an object with 'format' and 'data', got list"),
    ("eri_ao", None, "eri_ao must be an object with 'format' and 'data', got NoneType"),
    ("eri_mo", {"format": "dense"}, "dense eri_mo has no 'data'"),
    ("eri_mo", {"format": "dense", "data": "abc"}, "dense eri_mo data is not a number"),
    ("eri_ao", {"format": "dense", "data": [[[[0.0, 0.0]]], [0.0]]},
     "dense eri_ao data is not a number"),
    ("eri_mo", {"format": "sparse", "data": 5},
     "sparse eri_mo data must be a list of \\[a, b, r, s, value\\], got int"),
    ("eri_mo", {"format": "sparse", "data": [[0, 0, 1, 1, 10 ** 400]]},
     "value .* is not a number"),
    ("orbital_energies", [-0.5, 10 ** 400], "orbital_energies is not a number"),
    ("orbital_energies", ["low", "high"], "orbital_energies is not a number"),
    ("orbital_energies", {"0": -0.5}, "orbital_energies is not a number"),
    ("mo_coefficients", [[1.0, 0.0], [0.0]], "mo_coefficients is not a number"),
])
def test_load_names_the_field_it_cannot_read(tmp_path, field, value, reason):
    # before, a non-object tensor node ended in an AttributeError traceback,
    # and a string or ragged list in numpy's message, naming no field
    doc = minimal_doc(**{field: value})
    with pytest.raises(SchemaError, match=reason):
        hfdata.load(write_fixture(tmp_path, doc))


def test_load_rejects_a_document_that_is_not_an_object():
    with pytest.raises(SchemaError, match="HF data must be a JSON object, got int"):
        hfdata.load(b"5")


HELIUM_DOC = json.loads(hfdata.helium_fixture_path().read_bytes())


def _mutated(data, node):
    """A copy of node with one part of it replaced: the node itself, or,
    going down, one of its entries. Only the containers on the way down are
    copied."""
    if isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(range(len(node)) if isinstance(node, list)
                                        else sorted(node)))
        copy = list(node) if isinstance(node, list) else dict(node)
        copy[key] = _mutated(data, node[key])
        return copy
    replacements = [st.none(), st.booleans(), st.integers(-2, 10), st.text(max_size=3),
                    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                    st.just([]), st.just({}), st.just({"format": "dense", "data": None})]
    if isinstance(node, list) and node:
        # ragged: one entry short or one too many; or a null in front
        replacements += [st.just(node[:-1]), st.just(node + node[-1:]),
                         st.just([None] + node[1:])]
    return data.draw(st.one_of(replacements))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_load_of_a_mutated_helium_document_is_valid_or_a_schema_error(data):
    # one field of the helium document with its type swapped, a null put in,
    # a list made ragged or a non-finite number put in
    blob = json.dumps(_mutated(data, HELIUM_DOC)).encode()
    try:
        loaded = hfdata.load(blob)
    except SchemaError:
        return
    n = loaded.n_orbitals
    assert loaded.orbital_energies.shape == (n,)
    assert loaded.mo_coefficients.shape == (n, n)
    assert loaded.eri_mo.shape == (n,) * 4
    for values in (loaded.orbital_energies, loaded.mo_coefficients, loaded.eri_mo):
        assert np.all(np.isfinite(values))


def _swap_number(data, node, to_bool):
    """A copy of node with one number in it (drawn from the nested lists)
    replaced by a bool, or by the same number written as a string."""
    if isinstance(node, list):
        i = data.draw(st.integers(0, len(node) - 1))
        return node[:i] + [_swap_number(data, node[i], to_bool)] + node[i + 1:]
    return data.draw(st.booleans()) if to_bool else str(node)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_load_rejects_a_string_or_bool_for_a_number(data):
    # before, float() read "-0.5" as -0.5 and true as 1.0
    doc = dict(HELIUM_DOC)
    field = data.draw(st.sampled_from(["orbital_energies", "mo_coefficients",
                                       "eri_mo", "eri_ao", "sparse"]), label="field")
    to_bool = data.draw(st.booleans(), label="to_bool")
    if field == "sparse":
        dense = np.asarray(HELIUM_DOC["eri_mo"]["data"])
        entries = [[*map(int, idx), float(dense[idx])] for idx in zip(*np.nonzero(dense))]
        k = data.draw(st.integers(0, len(entries) - 1), label="entry")
        entries[k][4] = _swap_number(data, entries[k][4], to_bool)
        doc["eri_mo"] = {"format": "sparse", "data": entries}
    elif field in ("eri_mo", "eri_ao"):
        # one string among the floats of a dense tensor, or every entry a bool;
        # a single bool among floats still reads as 1.0 there
        values = HELIUM_DOC[field]["data"]
        swapped = (np.asarray(values) != 0).tolist() if to_bool else \
            _swap_number(data, values, to_bool=False)
        doc[field] = {"format": "dense", "data": swapped}
    else:
        doc[field] = _swap_number(data, HELIUM_DOC[field], to_bool)
    with pytest.raises(SchemaError, match="is not a number"):
        hfdata.load(json.dumps(doc).encode())
