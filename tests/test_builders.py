import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from conftest import random_block, uint_generator
from mp2q import builders, circuits as cg, statevec
from mp2q.builders import (PipelineSpec, TransRegisterPlan,
                           angles_from_targets, build_antisym_pipeline,
                           build_difference, build_pipeline, build_ue,
                           build_ue_naive, build_uint, build_uint_exact,
                           build_utrans, default_base_state, default_c_e, fwht,
                           ratio_table, solve_angles, subset_moebius,
                           subset_zeta)
from mp2q.circuits import Circuit, max_phase_aligned_diff, unitary_of
from mp2q.errors import NumericalError
from mp2q.hfdata import EriBlock


def brute_subset_sum(values):
    """Independent oracle for the zeta transform."""
    n = len(values)
    out = np.zeros(n)
    for x in range(n):
        for m in range(n):
            if m & ~x == 0:
                out[x] += values[m]
    return out


def test_subset_transforms_vs_brute_force():
    rng = np.random.default_rng(0)
    for q in (2, 3, 4):
        v = rng.normal(size=1 << q)
        assert np.allclose(subset_zeta(v), brute_subset_sum(v), atol=1e-13)
        assert np.allclose(subset_moebius(subset_zeta(v)), v, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda k: arrays(float, 1 << k, elements=st.floats(-10.0, 10.0))))
def test_subset_and_walsh_transforms_round_trip(x):
    assert np.allclose(subset_moebius(subset_zeta(x)), x, rtol=0.0, atol=1e-9)
    assert np.allclose(fwht(fwht(x)), x.size * x, rtol=0.0, atol=1e-9 * x.size)


def test_fwht_vs_hadamard_matrix():
    rng = np.random.default_rng(3)
    for q in (0, 1, 3, 5):
        n = 1 << q
        k, m = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        hadamard = (-1.0) ** np.vectorize(lambda b: bin(b).count("1"))(k & m)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fwht(v), hadamard @ v, atol=1e-12)
        assert np.allclose(fwht(fwht(v.real)), n * v.real, atol=1e-12)
        assert fwht(v.real).dtype == float
    with pytest.raises(ValueError):
        fwht(np.zeros(6))


@st.composite
def _row_batches(draw):
    k = draw(st.integers(0, 10))
    rows = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([float, complex]))
    return draw(arrays(dtype, (rows, 1 << k), elements=st.floats(-10.0, 10.0)))


@settings(max_examples=80, deadline=None)
@given(_row_batches())
def test_transforms_of_a_batch_are_the_transforms_of_its_rows(batch):
    # a (rows x 2^k) array transforms along its last axis, each row bit for
    # bit as the 1-D transform of that row
    transforms = [fwht] if np.iscomplexobj(batch) else [fwht, subset_zeta, subset_moebius]
    for transform in transforms:
        out = transform(batch)
        assert out.shape == batch.shape and out.dtype == batch.dtype
        for row, row_out in zip(batch, out):
            assert row_out.tobytes() == transform(row).tobytes()


def _reference_bit_pairs(values, dtype):
    """The in-place kernel the transforms replaced: per bit b, a
    (..., 2^(q-b-1), 2, 2^b) view pairing each index without bit b with its
    partner."""
    a = np.array(values, dtype=dtype)
    n = a.shape[-1]
    q = (n - 1).bit_length()
    if n != 1 << q:
        raise ValueError("length must be a power of two")
    return a, [a.reshape(*a.shape[:-1], n >> (b + 1), 2, 1 << b) for b in range(q)]


def _reference_subset_zeta(values):
    a, pairs = _reference_bit_pairs(values, float)
    for v in pairs:
        v[..., 1, :] += v[..., 0, :]
    return a


def _reference_subset_moebius(values):
    a, pairs = _reference_bit_pairs(values, float)
    for v in pairs:
        v[..., 1, :] -= v[..., 0, :]
    return a


def _reference_fwht(values):
    a, pairs = _reference_bit_pairs(values, complex if np.iscomplexobj(values) else float)
    for v in pairs:
        lo = v[..., 0, :].copy()
        v[..., 0, :] += v[..., 1, :]
        v[..., 1, :] = lo - v[..., 1, :]
    return a


# +-0, the smallest subnormal, the smallest normal and values near the top of
# the float range, so that sums underflow, overflow to +-inf and reach NaN
_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])


@st.composite
def _edge_batches(draw):
    q = draw(st.integers(0, 12))
    batch = draw(st.sampled_from([(), (3,), (2, 2)]))
    dtype = draw(st.sampled_from([float, complex]))
    # how often each kind of value appears: edge values, subnormals, values
    # near 1e308 and ordinary ones
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=4, max_size=4)
                            .filter(any)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (*batch, 1 << q, 2 if dtype is complex else 1)
    kinds = [_EDGE_VALUES[rng.integers(0, _EDGE_VALUES.size, shape)],
             rng.uniform(-1.0, 1.0, shape) * 2.2e-308,
             rng.uniform(-1.0, 1.0, shape) * 1e308,
             rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, shape)]
    values = np.choose(rng.choice(4, shape, p=weights / weights.sum()), kinds)
    return values.view(complex)[..., 0] if dtype is complex else values[..., 0]


@settings(max_examples=150, deadline=None)
@given(_edge_batches())
def test_transforms_are_bit_identical_to_the_in_place_kernel(values):
    # the constant-geometry passes apply each butterfly to the same operands in
    # the same bit order as the in-place kernel, so only the layout between
    # passes differs: bytes agree wherever the reference is not NaN
    pairs = [(fwht, _reference_fwht)]
    if not np.iscomplexobj(values):
        pairs += [(subset_zeta, _reference_subset_zeta),
                  (subset_moebius, _reference_subset_moebius)]
    for transform, reference in pairs:
        with np.errstate(over="ignore", invalid="ignore"):
            out, ref = transform(values), reference(values)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        out, ref = out.view(float), ref.view(float)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()


@pytest.mark.parametrize("transform", [fwht, subset_zeta, subset_moebius])
@pytest.mark.parametrize("n", [0, 3, 6])
def test_transforms_reject_lengths_that_are_not_powers_of_two(transform, n):
    with pytest.raises(ValueError, match="power of two"):
        transform(np.zeros(n))


def test_solve_angles_one_bit():
    a, b = 0.3, 1.1
    table = angles_from_targets(np.array([a, b]), 1.0, builders.SQRT)
    assert table.angles[0] == pytest.approx(a)
    assert table.angles[1] == pytest.approx(b - a)


def test_solve_angles_constant_targets():
    c = 0.77
    table = angles_from_targets(np.full(16, c), 1.0, builders.SQRT)
    assert table.angles[0] == pytest.approx(c)
    assert np.max(np.abs(table.angles[1:])) < 1e-13


@pytest.mark.parametrize("q", [4, 6])
def test_solve_angles_round_trip(q):
    rng = np.random.default_rng(q)
    for _ in range(20):
        targets = rng.uniform(0, np.pi, 1 << q)
        table = angles_from_targets(targets, 1.0, builders.SQRT)
        assert np.max(np.abs(subset_zeta(table.angles) - targets)) < 1e-13


def test_solve_angles_passes_on_a_wide_block():
    # at Q = 20 the round trip drifts to 2.4e-12 from rounding alone; the check
    # scales with Q and with the angles' size
    q = 20
    blk = random_block(np.random.default_rng(0), n_codes=1 << q,
                       gamma_max=0.3 * 4 / 2 ** (q / 2))
    table = solve_angles(blk)
    targets = builders._targets(ratio_table(blk, default_c_e(blk)), builders.SQRT)
    assert np.max(np.abs(subset_zeta(table.angles) - targets)) > 1e-12


@pytest.mark.parametrize("mask", [1, 0b1010, (1 << 10) - 1, 0b1100_0011_0101_0110])
def test_solve_angles_rejects_a_perturbed_angle(monkeypatch, mask):
    q = 20
    blk = random_block(np.random.default_rng(0), n_codes=1 << q,
                       gamma_max=0.3 * 4 / 2 ** (q / 2))
    moebius = builders.subset_moebius

    def perturbed(values):
        angles = moebius(values)
        angles[mask] += 1e-9
        return angles

    monkeypatch.setattr(builders, "subset_moebius", perturbed)
    with pytest.raises(NumericalError, match=f"angle round-trip failed: .* at mask {mask},"):
        solve_angles(blk)


def test_solve_angles_zero_polarity_round_trip():
    rng = np.random.default_rng(3)
    targets = rng.uniform(0, np.pi, 16)
    table = angles_from_targets(targets, 1.0, builders.SQRT, polarity=0)
    assert np.max(np.abs(table.targets - targets)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ue_sets_the_readout_with_probability_kappa(data):
    # the sweep and ue_response_tables read kappa as U_E's readout-1
    # probability instead of simulating U_E
    q = data.draw(st.integers(1, 5), label="q")
    n = 1 << q
    dens = -np.array(data.draw(st.lists(st.floats(0.1, 10.0) | st.just(np.inf),
                                        min_size=n, max_size=n), label="denominators"))
    dens[data.draw(st.integers(0, n - 1), label="finite slot")] = -1.0
    blk = EriBlock("E", (0, 0), tuple(range(n)), (0,), np.zeros(n), dens)
    # ratio_table rejects a C_e of 0, so the ratio starts above underflow
    c_e = data.draw(st.floats(1e-300, 1.0), label="c_e / default") * default_c_e(blk)
    polarity = data.draw(st.sampled_from([cg.ZERO_CONTROL, cg.ONE_CONTROL]), label="polarity")
    circ = build_ue(solve_angles(blk, c_e=c_e, polarity=polarity))
    kappa = ratio_table(blk, c_e)
    for x in range(n):
        state = statevec.apply_circuit(statevec.basis_state(q + 1, x), circ)
        assert abs(statevec.marginal_probability(state, q) - kappa[x]) <= 1e-12


def test_solve_angles_rejects_zero_denominator():
    blk = EriBlock("z", (0, 0), (1,), (1, 2), np.array([0.1, 0.0]),
                   np.array([-1.0, 0.0]))
    with pytest.raises(NumericalError):
        solve_angles(blk)


def test_solve_angles_rejects_overlarge_ce(helium_blocks):
    blk = helium_blocks["I"]
    with pytest.raises(NumericalError):
        solve_angles(blk, c_e=10 * default_c_e(blk))


def _readout_probs(circuit, q, n_inputs):
    """Pr[readout=1] for each basis input of the register."""
    probs = np.zeros(n_inputs)
    for x in range(n_inputs):
        state = statevec.apply_circuit(statevec.basis_state(circuit.n_qubits, x), circuit)
        probs[x] = statevec.marginal_probability(state, q)
    return probs


def test_build_ue_loads_ratios(helium_blocks):
    blk = helium_blocks["IV"]
    c_e = default_c_e(blk)
    circ = build_ue(solve_angles(blk, c_e=c_e))
    got = _readout_probs(circ, 4, 16)
    assert np.max(np.abs(got - ratio_table(blk, c_e))) < 1e-10


def test_build_ue_value_variant(helium_blocks):
    blk = helium_blocks["I"]
    c_e = default_c_e(blk)
    circ = build_ue(solve_angles(blk, builders.VALUE, c_e))
    got = _readout_probs(circ, 4, 16)
    assert np.max(np.abs(got - ratio_table(blk, c_e) ** 2)) < 1e-10


def test_build_ue_zero_polarity(helium_blocks):
    blk = helium_blocks["I"]
    c_e = default_c_e(blk)
    circ = build_ue(solve_angles(blk, c_e=c_e, polarity=0))
    got = _readout_probs(circ, 4, 16)
    assert np.max(np.abs(got - ratio_table(blk, c_e))) < 1e-10


def test_build_ue_block_diagonal(helium_blocks):
    u = unitary_of(build_ue(solve_angles(helium_blocks["I"])))
    for xin in range(16):
        for xout in range(16):
            if xin == xout:
                continue
            for b_in in (0, 1):
                for b_out in (0, 1):
                    assert abs(u[xout + 16 * b_out, xin + 16 * b_in]) < 1e-10


def test_build_ue_superposition_linearity(helium_blocks):
    blk = helium_blocks["I"]
    c_e = default_c_e(blk)
    circ = build_ue(solve_angles(blk, c_e=c_e))
    amps = np.zeros(32, dtype=complex)
    amps[1] = np.sqrt(0.3)
    amps[6] = np.sqrt(0.7)
    state = statevec.apply_circuit(statevec.StateVector(5, amps), circ)
    kappa = ratio_table(blk, c_e)
    probs = statevec.probabilities(state)
    reg = probs[:16] + probs[16:]
    assert reg[1] == pytest.approx(0.3, abs=1e-10)
    assert reg[6] == pytest.approx(0.7, abs=1e-10)
    expected = 0.3 * kappa[1] + 0.7 * kappa[6]
    assert statevec.marginal_probability(state, 4) == pytest.approx(expected, abs=1e-10)


def test_build_ue_degenerate_inputs_equal(helium_blocks):
    blk = helium_blocks["I"]
    c_e = default_c_e(blk)
    circ = build_ue(solve_angles(blk, c_e=c_e))
    got = _readout_probs(circ, 4, 16)
    # p-p diagonal entries share one denominator: codes 6, 9, 15
    assert np.ptp(got[[6, 9, 15]]) < 1e-10


def test_naive_ue_equivalent(helium_blocks):
    for label in ("I", "IV"):
        blk = helium_blocks[label]
        c_e = default_c_e(blk)
        fast = unitary_of(build_ue(solve_angles(blk, c_e=c_e)))
        naive = unitary_of(build_ue_naive(blk, c_e=c_e))
        assert max_phase_aligned_diff(naive, fast) < 1e-10


def test_naive_ue_single_qubit_register():
    blk = EriBlock("t", (0, 0), (1,), (1, 2), np.array([0.0, 0.1]),
                   np.array([-2.0, -4.0]))
    circ = build_ue_naive(blk, c_e=2.0)
    crys = [g for g in circ.gates if g.kind == cg.CRY]
    assert len(crys) == 2  # one full-pattern controlled Ry per code
    assert crys[0].angle == pytest.approx(np.arccos(1 - 2 * (2.0 / 2.0)))
    assert crys[1].angle == pytest.approx(np.arccos(1 - 2 * (2.0 / 4.0)))


def test_gate_count_profiles(helium_blocks):
    blk = helium_blocks["I"]
    fast = build_ue(solve_angles(blk))
    naive = build_ue_naive(blk)
    fast_mc = [g for g in fast.gates if g.kind in (cg.RY, cg.CRY, cg.MCRY)]
    naive_mc = [g for g in naive.gates if g.kind in (cg.RY, cg.CRY, cg.MCRY)]
    assert len(fast_mc) <= 16
    assert all(len(g.controls) == 4 for g in naive_mc)
    # binomial profile: counts by control number are bounded by C(4, j)
    from math import comb
    by_weight = {}
    for g in fast_mc:
        by_weight[len(g.controls)] = by_weight.get(len(g.controls), 0) + 1
    for j, count in by_weight.items():
        assert count <= comb(4, j)


def test_uint_lambda_zero_is_base_state(helium_blocks):
    blk = helium_blocks["I"]
    state = statevec.run_circuit(build_uint(blk, 0.0))
    assert abs(state.amplitudes[default_base_state(blk)] - 1.0) < 1e-12


def test_uint_part_i_outcomes(helium_blocks):
    blk = helium_blocks["I"]
    state = statevec.run_circuit(build_uint(blk, 0.05))
    probs = statevec.probabilities(state)
    # double excitations sit at ~lambda^4 gamma^4, six orders below the signal
    signal = {i for i in range(16) if i != 1 and probs[i] > 1e-9}
    assert signal == {0b0000, 0b0110, 0b1001, 0b1111}


def test_uint_matches_matrix_exponential():
    rng = np.random.default_rng(14)
    blk = random_block(rng, zero_at=3)
    y = default_base_state(blk)
    v = uint_generator(blk, y)
    for lam in (0.05, 0.7):
        state = statevec.run_circuit(build_uint(blk, lam, y))
        ref = expm(1j * lam * v)[:, y]
        assert np.max(np.abs(state.amplitudes - ref)) < 1e-12


def test_uint_rejects_nonzero_base(helium_blocks):
    with pytest.raises(NumericalError):
        build_uint(helium_blocks["I"], 0.1, base_state=0)


def test_uint_exact_basis_state():
    gamma = np.zeros(16)
    gamma[5] = 0.8
    state = statevec.run_circuit(build_uint_exact(gamma))
    assert abs(state.amplitudes[5] - 1.0) < 1e-12


def test_uint_exact_uniform():
    state = statevec.run_circuit(build_uint_exact(np.ones(16)))
    assert np.max(np.abs(state.amplitudes - 0.25)) < 1e-12


def test_uint_exact_random_nonnegative():
    rng = np.random.default_rng(21)
    gamma = rng.uniform(0, 1, 16)
    state = statevec.run_circuit(build_uint_exact(gamma))
    assert np.max(np.abs(state.amplitudes - gamma / np.linalg.norm(gamma))) < 1e-10


def test_uint_exact_signed():
    rng = np.random.default_rng(22)
    gamma = rng.normal(size=32)
    state = statevec.run_circuit(build_uint_exact(gamma))
    assert np.max(np.abs(state.amplitudes - gamma / np.linalg.norm(gamma))) < 1e-10


def test_uint_exact_probabilities_vs_unitary_column():
    # dense matrix-vector oracle: the first unitary column is the output state
    rng = np.random.default_rng(23)
    gamma = rng.uniform(0, 1, 16)
    circ = build_uint_exact(gamma)
    col = unitary_of(circ)[:, 0]
    probs = statevec.probabilities(statevec.run_circuit(circ))
    assert np.max(np.abs(probs - np.abs(col) ** 2)) < 1e-12
    assert np.max(np.abs(probs - gamma ** 2 / np.sum(gamma ** 2))) < 1e-10


def test_uint_exact_rejects_zero_vector():
    with pytest.raises(NumericalError):
        build_uint_exact(np.zeros(8))


def test_utrans_lambda_zero_identity():
    # seeded random states, not the dense 2^12 x 2^12 unitary (~840 MB peak)
    plan = TransRegisterPlan(n_ao=2, n_mo=2, n_occupied=1)
    rng = np.random.default_rng(1)
    c = rng.normal(size=(2, 2))
    circ = build_utrans(c, 0.0, plan)
    dim = 1 << circ.n_qubits
    for _ in range(3):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        out = statevec.apply_circuit(statevec.StateVector(circ.n_qubits, psi.copy()), circ)
        assert np.max(np.abs(out.amplitudes - psi)) < 1e-12


def test_utrans_identity_coefficients_mirror():
    plan = TransRegisterPlan(n_ao=2, n_mo=2, n_occupied=1)
    lam = 0.05
    circ = build_utrans(np.eye(2), lam, plan)
    # AO input (k,l,m,n) = (0,0,1,1): occupied AO index 0 -> MO 0, virtual AO 1 -> MO 1
    idx = plan.encode_ao(0, 0, 1, 1)
    state = statevec.apply_circuit(statevec.basis_state(plan.n_qubits, idx), circ)
    probs = statevec.probabilities(state)
    mirror = idx | plan.encode_mo(0, 0, 1, 1)
    excited = [(i, p) for i, p in enumerate(probs)
               if p > 1e-16 and i & ~idx and bin(i & ~idx).count("1") >= 4]
    best = max(excited, key=lambda t: t[1])[0] if excited else None
    assert best == mirror
    assert probs[mirror] == pytest.approx(lam ** 8, rel=1e-2)


def test_utrans_preserves_zero_code():
    plan = TransRegisterPlan(n_ao=2, n_mo=2, n_occupied=1)
    rng = np.random.default_rng(2)
    circ = build_utrans(rng.normal(size=(2, 2)), 0.07, plan)
    state = statevec.run_circuit(circ)  # AO register all zero
    assert abs(state.amplitudes[0] - 1.0) < 1e-12


def test_utrans_incoherent_output_vs_oracle():
    # with exact AO preparation, the all-slots-excited MO outcome carries
    # lambda^8 * sum_klmn (gamma_hat * c c c c)^2: the AO register keeps
    # which-path information, so AO terms add incoherently
    plan = TransRegisterPlan(n_ao=2, n_mo=2, n_occupied=1)
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 2))
    gamma = rng.uniform(0.2, 1.0, 16)
    gamma_hat = gamma / np.linalg.norm(gamma)
    lam = 0.04
    ao_amps = np.zeros(1 << plan.n_qubits)
    for k in range(2):
        for l in range(2):
            for m in range(2):
                for n in range(2):
                    ao_amps[plan.encode_ao(k, l, m, n)] = gamma_hat[8 * k + 4 * l + 2 * m + n]
    prep = build_uint_exact(ao_amps, register=list(range(plan.n_qubits)))
    circ = Circuit(plan.n_qubits, list(prep.gates) + list(build_utrans(c, lam, plan).gates))
    probs = statevec.probabilities(statevec.run_circuit(circ))
    mo_idx = plan.encode_mo(0, 0, 1, 1)
    mo_qubit_mask = 0
    for _, mo_qs, _ in plan.slots:
        for q in mo_qs:
            mo_qubit_mask |= 1 << q
    got = sum(p for i, p in enumerate(probs) if (i & mo_qubit_mask) == mo_idx)
    pred = lam ** 8 * sum(
        (gamma_hat[8 * k + 4 * l + 2 * m + n]
         * c[k, 0] * c[l, 0] * c[m, 1] * c[n, 1]) ** 2
        for k in range(2) for l in range(2) for m in range(2) for n in range(2))
    assert got == pytest.approx(pred, rel=0.02)


def test_difference_equal_unitaries():
    u = Circuit(1, [cg.ry(0.3, 0)])
    state = statevec.run_circuit(build_difference(u, u))
    assert statevec.marginal_probability(state, 1) < 1e-12


def test_difference_identity_vs_x():
    state = statevec.run_circuit(build_difference(Circuit(1, []), Circuit(1, [cg.x(0)])))
    probs = statevec.probabilities(state)
    assert probs[2] == pytest.approx(0.25, abs=1e-12)  # ancilla=1, register |0>


def test_difference_opposite_exponentials():
    lam = 0.4
    u0 = Circuit(1, [cg.pauli_x_exp(lam, [0])])
    u1 = Circuit(1, [cg.pauli_x_exp(-lam, [0])])
    state = statevec.run_circuit(build_difference(u0, u1))
    assert statevec.marginal_probability(state, 1) == pytest.approx(np.sin(lam) ** 2, abs=1e-12)


def test_difference_width_mismatch():
    with pytest.raises(ValueError):
        build_difference(Circuit(1, []), Circuit(2, []))


def test_pipeline_lambda_zero_intercept(helium_blocks):
    blk = helium_blocks["IV"]
    c_e = default_c_e(blk)
    spec = PipelineSpec(blk, 0.0)
    state = statevec.run_circuit(build_pipeline(spec, solve_angles(blk, c_e=c_e)))
    kappa = ratio_table(blk, c_e)
    assert statevec.marginal_probability(state, 4) == pytest.approx(
        kappa[default_base_state(blk)], abs=1e-12)


def test_pipeline_slope_matches_block_sum(helium_blocks):
    from mp2q.mp2 import block_energy

    blk = helium_blocks["IV"]
    c_e = default_c_e(blk)
    angles = solve_angles(blk, c_e=c_e)
    y = default_base_state(blk)
    lams = np.array([0.02, 0.03, 0.04, 0.05])
    zs = []
    for lam in lams:
        state = statevec.run_circuit(build_pipeline(PipelineSpec(blk, float(lam)), angles))
        probs = statevec.probabilities(state)
        zs.append(sum(probs[16 + x] for x in range(16) if x != y))
    slope = np.polyfit(lams ** 2, zs, 1)[0]
    assert slope / c_e == pytest.approx(block_energy(blk), rel=0.01)


def test_pipeline_zeta_even_and_nonnegative(helium_blocks):
    blk = helium_blocks["I"]
    angles = solve_angles(blk)
    y = default_base_state(blk)

    def signal(lam):
        state = statevec.run_circuit(build_pipeline(PipelineSpec(blk, lam), angles))
        probs = statevec.probabilities(state)
        return sum(probs[16 + x] for x in range(16) if x != y)

    assert signal(0.3) >= 0.0
    # even in lambda: flipping the sign of every gamma flips the sign of lambda
    flipped = EriBlock(blk.label, blk.occupied, blk.r_orbitals, blk.s_orbitals,
                       -blk.gamma, blk.denominators)
    state = statevec.run_circuit(build_pipeline(PipelineSpec(flipped, 0.3), angles))
    probs = statevec.probabilities(state)
    assert sum(probs[16 + x] for x in range(16) if x != y) == pytest.approx(signal(0.3), abs=1e-12)


def test_pipeline_include_occupied(helium_blocks):
    blk = helium_blocks["I"]
    angles = solve_angles(blk)
    plain = statevec.run_circuit(build_pipeline(PipelineSpec(blk, 0.1), angles))
    kept = statevec.run_circuit(build_pipeline(
        PipelineSpec(blk, 0.1, include_occupied=True, occupied_code=1), angles))
    assert statevec.marginal_probability(kept, 4) == pytest.approx(
        statevec.marginal_probability(plain, 4), abs=1e-12)


def test_antisym_pipeline_matches_formula():
    rng = np.random.default_rng(9)
    gamma = rng.uniform(0, 0.3, 4)
    dens = -rng.uniform(0.5, 3.0, 4)
    blk = EriBlock("t", (0, 0), (1, 2), (1, 2), gamma, dens)
    angles = solve_angles(blk)
    state = statevec.run_circuit(build_antisym_pipeline(blk, angles))
    probs = statevec.probabilities(state)
    joint = sum(probs[i] for i in range(probs.size)
                if (i >> 2) & 1 and (i >> 3) & 1)
    kappa = ratio_table(blk, angles.normalizer)
    swapped = gamma.reshape(2, 2).T.reshape(-1)
    pred = sum(((gamma[x] - swapped[x]) / (2 * np.linalg.norm(gamma))) ** 2 * kappa[x]
               for x in range(4))
    assert joint == pytest.approx(pred, abs=1e-6)


def test_builders_all_unitary(helium_blocks):
    blk = helium_blocks["I"]
    angles = solve_angles(blk)
    circuits = [build_ue(angles), build_ue_naive(blk), build_uint(blk, 0.3),
                build_uint_exact(blk.gamma + (blk.gamma == 0)),
                build_pipeline(PipelineSpec(blk, 0.2), angles),
                build_antisym_pipeline(blk, angles),
                build_difference(Circuit(2, [cg.ry(0.4, 0)]),
                                 Circuit(2, [cg.pauli_x_exp(0.2, [0, 1])]))]
    for circ in circuits:
        if circ.n_qubits <= 9:
            u = unitary_of(circ)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10
