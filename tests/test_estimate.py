import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_block, uint_generator
from mp2q import builders, estimate, statevec
from mp2q.builders import default_base_state, default_c_e, ratio_table
from mp2q.errors import NumericalError
from mp2q.estimate import (SweepConfig, SweepResult,
                           apply_diagonal_error, assemble_energy,
                           correct_denominators, estimate_eri_slopes,
                           estimate_helium, fit_zeta, run_block_sweep,
                           run_sweep, select_start_step, ue_response_tables)
from mp2q.hfdata import EriBlock
from mp2q.mp2 import block_energy, mp2_energy


def synthetic_sweep(x, y, part="S", base=1, q=4, outcomes=None):
    """An exact-mode sweep with lambda^2 = x and zeta = zeta_signal = y."""
    x = np.asarray(x, dtype=float)
    rows = np.rec.fromarrays([np.sqrt(x), x, y, y], dtype=estimate.ROW_FIELDS)
    if outcomes is None:
        outcomes = np.zeros((len(x), 2 << q))
    return SweepResult(part, 1.0, base, q, 0, rows, outcomes)


def test_sweep_lambda_zero_row(helium):
    cfg = SweepConfig(lambda_step=0.1, total_steps=3, start_candidates=0)
    sweep = run_sweep(helium, "IV", cfg)
    row0 = sweep.rows[0]
    kappa = ratio_table_of(sweep, helium)
    assert row0.lam == 0.0
    assert row0.zeta == pytest.approx(kappa[sweep.base_state], abs=1e-12)
    assert row0.zeta_signal == pytest.approx(0.0, abs=1e-12)


def ratio_table_of(sweep, helium):
    from mp2q.hfdata import helium_blocks

    blk = helium_blocks(helium)[sweep.part]
    return ratio_table(blk, sweep.c_e)


def test_sweep_rows_sorted_and_bounded(helium):
    cfg = SweepConfig(lambda_step=0.05, total_steps=5, start_candidates=2)
    sweep = run_sweep(helium, "I", cfg)
    assert sweep.rows.lam.tolist() == [step * 0.05 for step in range(7)]
    for row in sweep.rows:
        assert 0.0 <= row.zeta <= 1.0
        assert 0.0 <= row.zeta_signal <= row.zeta + 1e-15


def test_sweep_exact_rises_linearly_then_departs(helium_blocks):
    blk = helium_blocks["IV"]
    cfg = SweepConfig(lambda_step=0.25, total_steps=10, start_candidates=0)
    sweep = run_block_sweep(blk, cfg)
    x = sweep.rows.lam_sq
    y = sweep.rows.zeta_signal
    early = (y[1] - y[0]) / (x[1] - x[0])
    late = (y[-1] - y[-2]) / (x[-1] - x[-2])
    assert early > 0
    assert late < 0.8 * early  # saturation bends the curve down


def test_sampled_matches_exact_within_5_sigma(helium):
    exact = run_sweep(helium, "IV", SweepConfig(0.05, 6, mode=estimate.EXACT,
                                                start_candidates=0))
    shots = 100_000
    sampled = run_sweep(helium, "IV", SweepConfig(0.05, 6, shots=shots, seed=3,
                                                  mode=estimate.SAMPLED,
                                                  start_candidates=0))
    for re, rs in zip(exact.rows, sampled.rows):
        sigma = np.sqrt(max(re.zeta * (1 - re.zeta), 1e-12) / shots)
        assert abs(rs.zeta - re.zeta) <= 5 * sigma


def test_sampled_bit_reproducible(helium):
    cfg = SweepConfig(0.05, 4, shots=2000, seed=11, mode=estimate.SAMPLED,
                      start_candidates=0)
    a = run_sweep(helium, "I", cfg)
    b = run_sweep(helium, "I", cfg)
    assert a.outcomes.dtype == np.int64
    assert np.array_equal(a.outcomes, b.outcomes)


def test_fit_exactly_linear_points():
    x = np.linspace(0, 1, 8)
    y = 0.3 * x + 0.05
    fit = fit_zeta(synthetic_sweep(x, y), (0, 8))
    assert fit.slope == pytest.approx(0.3, abs=1e-14)
    assert fit.intercept == pytest.approx(0.05, abs=1e-14)
    assert fit.lse < 1e-14


def test_fit_part_iv_slope_recovers_energy(helium, helium_blocks):
    blk = helium_blocks["IV"]
    cfg = SweepConfig(0.02, 10, mode=estimate.EXACT, start_candidates=3)
    sweep = run_sweep(helium, "IV", cfg)
    fit = fit_zeta(sweep, (3, 10))
    assert fit.slope / sweep.c_e == pytest.approx(block_energy(blk), rel=0.01)


def test_fit_window_errors():
    x = np.linspace(0, 1, 6)
    sweep = synthetic_sweep(x, x)
    with pytest.raises(ValueError):
        fit_zeta(sweep, (0, 2))
    with pytest.raises(ValueError):
        fit_zeta(sweep, (4, 6))
    degenerate = synthetic_sweep(np.zeros(4), np.zeros(4))
    with pytest.raises(NumericalError):
        fit_zeta(degenerate, (0, 4))


def test_select_start_perfect_line():
    x = np.linspace(0, 2, 12)
    sel = select_start_step(synthetic_sweep(x, 0.1 * x), step_len=0.0, total_steps=8)
    assert sel.best_start == 0


def test_select_start_skips_displaced_points():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 2, 12)
    y = 0.1 * x + rng.normal(0, 1e-5, 12)
    resid = 1e-4
    y[0] += 10 * resid
    y[1] -= 10 * resid
    sel = select_start_step(synthetic_sweep(x, y), step_len=0.0, total_steps=10)
    assert sel.best_start == 2
    assert set(sel.fits) == {0, 1, 2}


def test_select_start_tie_breaks_low():
    x = np.linspace(0, 1, 10)
    sel = select_start_step(synthetic_sweep(x, np.zeros(10)), 0.0, 8)
    assert sel.best_start == 0


def test_eri_slopes_noiseless_injection():
    gammas = {3: 0.2, 7: 0.05, 12: 0.11}
    x = np.linspace(0, 0.04, 6)
    outcomes = np.zeros((len(x), 16))
    for probs, xi in zip(outcomes, x):
        for code, g in gammas.items():
            probs[code] = g * g * xi
        probs[1] = 1.0 - probs.sum()
    sweep = synthetic_sweep(x, np.zeros(len(x)), outcomes=outcomes)
    slopes = estimate_eri_slopes(sweep)
    assert set(slopes) == set(gammas)
    for code, g in gammas.items():
        assert slopes[code].slope == pytest.approx(g * g, abs=1e-12)
        assert slopes[code].gamma_abs == pytest.approx(g, abs=1e-12)


def test_eri_slopes_helium_part_i(helium):
    cfg = SweepConfig(0.02, 8, mode=estimate.EXACT, start_candidates=0,
                      circuit="uint")
    sweep = run_sweep(helium, "I", cfg)
    # 1e-5 floor keeps the lambda^4 double-excitation artifacts out
    slopes = estimate_eri_slopes(sweep, min_slope=1e-5)
    assert set(slopes) == {0b0000, 0b0110, 0b1001, 0b1111}
    from mp2q.hfdata import helium_blocks

    blk = helium_blocks(helium)["I"]
    for code, est in slopes.items():
        assert est.gamma_abs == pytest.approx(abs(blk.gamma[code]), rel=1e-3)


def test_plateau_flagged_on_saturated_window(helium_blocks):
    # part IV linearity ends near lambda = 2: windows past it flag, earlier don't
    blk = helium_blocks["IV"]
    for step, expect in ((0.6, True), (0.3, True), (0.15, False), (0.02, False)):
        sweep = run_block_sweep(blk, SweepConfig(step, 8, mode=estimate.EXACT,
                                                 start_candidates=0))
        assert fit_zeta(sweep, (0, 8)).plateau is expect


@pytest.mark.parametrize("part", ["I", "III", "IV", "Q5"])
def test_ue_response_tables_match_simulated_ue(helium_blocks, part):
    # the closed form against gate-by-gate runs of build_ue on every basis input
    if part == "Q5":
        blk = random_block(np.random.default_rng(3), n_codes=32)
    else:
        blk = helium_blocks[part]
    q = blk.n_qubits
    circ = builders.build_ue(builders.solve_angles(blk))
    tables = ue_response_tables(blk)
    assert sorted(tables) == list(range(1 << q))
    for x, table in tables.items():
        state = statevec.apply_circuit(statevec.basis_state(q + 1, x), circ)
        assert np.max(np.abs(table - statevec.probabilities(state))) < 1e-12


def test_correction_identity_on_equal_tables(helium_blocks):
    tables = ue_response_tables(helium_blocks["I"])
    corrected = correct_denominators(tables, tables)
    kappa = ratio_table(helium_blocks["I"], default_c_e(helium_blocks["I"]))
    assert np.max(np.abs(corrected - kappa)) < 1e-12


def test_correction_recovers_under_uniform_error(helium_blocks):
    blk = helium_blocks["I"]
    kappa = ratio_table(blk, default_c_e(blk))
    lite = ue_response_tables(blk)
    for delta in (0.02, 0.1):
        noisy = ue_response_tables(blk, diag_error=(delta, delta))
        corrected = correct_denominators(noisy, lite)
        assert np.max(np.abs(corrected - kappa)) < 1e-3


def test_correction_beats_raw_under_asymmetric_error(helium_blocks):
    blk = helium_blocks["IV"]
    c_e = default_c_e(blk)
    kappa = ratio_table(blk, c_e)
    lite = ue_response_tables(blk)
    noisy = ue_response_tables(blk, diag_error=(0.08, 0.0))
    corrected = correct_denominators(noisy, lite)
    raw = np.zeros(16)
    for x in range(16):
        lo, hi = noisy[x][x], noisy[x][x | 16]
        raw[x] = hi / (lo + hi)
    assert np.max(np.abs(corrected - kappa)) < np.max(np.abs(raw - kappa))
    assert np.max(np.abs(corrected - kappa)) < 0.05


def test_correction_errors_on_empty_input():
    tables = {x: np.eye(32)[x] for x in range(16)}
    broken = dict(tables)
    broken[3] = np.zeros(32)
    with pytest.raises(NumericalError):
        correct_denominators(broken, tables)


def test_apply_diagonal_error_normalizes():
    probs = np.array([0.5, 0.2, 0.2, 0.1])
    out = apply_diagonal_error(probs, 0.1, 0.0, readout_bit=1)
    assert out.sum() == pytest.approx(1.0)
    assert out[0] > probs[0]  # readout-0 entries gain weight


def test_assemble_energy_table_values():
    fits = {"I": 0.0025817, "III": 0.0034791, "IV": 0.017423}
    ones = {p: 1.0 for p in fits}
    out = assemble_energy(fits, ones)
    assert out.e2 == pytest.approx(-0.026963, abs=1e-6)


def test_assemble_energy_zero():
    out = assemble_energy({"I": 0.0, "III": 0.0, "IV": 0.0}, {p: 1.0 for p in "I III IV".split()})
    assert out.e2 == 0.0


def test_assemble_missing_part():
    with pytest.raises(KeyError):
        assemble_energy({"I": 0.1}, {"I": 1.0})


def test_zeta_quartic_bound(helium_blocks):
    # |zeta_sig(lambda) - lambda^2 S| <= K lambda^4 with K from the 4th-order term
    for label in ("I", "III", "IV"):
        blk = helium_blocks[label]
        c_e = default_c_e(blk)
        kappa = ratio_table(blk, c_e)
        y = default_base_state(blk)
        v = uint_generator(blk, y)
        v2, v3 = v @ v, v @ v @ v
        s_lin = sum(v[x, y] ** 2 * kappa[x] for x in range(16) if x != y)
        k_bound = 1.5 * sum(kappa[x] * (v2[x, y] ** 2 / 4 + abs(v[x, y] * v3[x, y]) / 3)
                            for x in range(16) if x != y)
        angles = builders.solve_angles(blk, c_e=c_e)
        for lam in (0.01, 0.02, 0.05):
            circ = builders.build_pipeline(builders.PipelineSpec(blk, lam), angles)
            probs = statevec.probabilities(statevec.run_circuit(circ))
            sig = sum(probs[16 + x] for x in range(16) if x != y)
            assert abs(sig - lam ** 2 * s_lin) <= k_bound * lam ** 4 + 1e-14


def test_part_ii_equals_part_iii(helium):
    # part II is the transpose of part III; running it with the transposed base
    # state makes the two sweeps exactly permutation-equivalent
    from mp2q.hfdata import helium_blocks as blocks_of

    blocks = blocks_of(helium)
    cfg = SweepConfig(0.03, 10, mode=estimate.EXACT, start_candidates=0)
    sweep3 = run_block_sweep(blocks["III"], cfg, "III")
    y3 = sweep3.base_state
    mirrored = 4 * (y3 % 4) + y3 // 4
    sweep2 = run_block_sweep(blocks["II"], cfg, "II", base_state=mirrored)
    eps3 = fit_zeta(sweep3, (0, 10)).slope / sweep3.c_e
    eps2 = fit_zeta(sweep2, (0, 10)).slope / sweep2.c_e
    assert abs(eps2 - eps3) < 1e-10


def test_end_to_end_exact_helium(helium):
    result = estimate_helium(helium, mode=estimate.EXACT)
    oracle = mp2_energy(helium).e2_total
    assert result.e2 == pytest.approx(oracle, rel=0.02)
    assert result.e2 < 0


def test_end_to_end_synthetic_blocks():
    rng = np.random.default_rng(77)
    for _ in range(5):
        blk = random_block(rng)
        oracle = block_energy(blk)
        lam_max = estimate.auto_lambda_max(blk)
        assert lam_max ** 2 * np.abs(blk.gamma).max() ** 2 <= 0.01 + 1e-12
        cfg = SweepConfig(lam_max / 9, 10, mode=estimate.EXACT, start_candidates=0)
        sweep = run_block_sweep(blk, cfg)
        fit = fit_zeta(sweep, (0, 10))
        assert fit.slope / sweep.c_e == pytest.approx(oracle, rel=0.02)


def test_paper_grid_config_accepted(helium):
    # the published sweep settings run end to end (their lambda ranges carry
    # larger quartic bias, so no 2% assertion here)
    result = estimate.estimate_helium(helium, mode=estimate.EXACT,
                                      grids=estimate.PAPER_GRIDS)
    assert result.e2 < 0
    assert set(result.parts) == {"I", "III", "IV"}
    for part, (step, total) in estimate.PAPER_GRIDS.items():
        rows = result.parts[part].sweep.rows
        assert rows[1].lam == pytest.approx(step)
        assert len(rows) >= total


def circuit_rows(block, config, base):
    """Row probabilities from the gate-level simulator, the closed form's oracle."""
    c_e = config.c_e if config.c_e is not None else default_c_e(block)
    angles = builders.solve_angles(block, c_e=c_e)
    out = []
    for step in range(config.n_rows()):
        lam = step * config.lambda_step
        if config.circuit == "uint":
            circ = builders.build_uint(block, lam, base)
        else:
            circ = builders.build_pipeline(builders.PipelineSpec(block, lam, base), angles)
        out.append(statevec.probabilities(statevec.run_circuit(circ)))
    return out


def assert_rows_match_circuit(block, config, base=None, tol=1e-12):
    sweep = run_block_sweep(block, config, base_state=base)
    expected = circuit_rows(block, config, sweep.base_state)
    assert len(sweep.rows) == len(sweep.outcomes) == len(expected)
    for row, probs in zip(sweep.outcomes, expected):
        assert row.shape == probs.shape
        assert np.max(np.abs(row - probs)) <= tol


@pytest.mark.parametrize("circuit", ["pipeline", "uint"])
@pytest.mark.parametrize("part", ["I", "II", "III", "IV"])
def test_rows_match_circuit_helium(helium_blocks, part, circuit):
    # steps up to lambda = 1.2 reach well past the linear regime
    cfg = SweepConfig(0.3, 3, start_candidates=2, circuit=circuit)
    assert_rows_match_circuit(helium_blocks[part], cfg)


@pytest.mark.parametrize("circuit", ["pipeline", "uint"])
def test_rows_match_circuit_mirrored_base(helium_blocks, circuit):
    y3 = default_base_state(helium_blocks["III"])
    mirrored = 4 * (y3 % 4) + y3 // 4
    assert mirrored != default_base_state(helium_blocks["II"])
    cfg = SweepConfig(0.3, 3, start_candidates=1, circuit=circuit)
    assert_rows_match_circuit(helium_blocks["II"], cfg, base=mirrored)


@pytest.mark.parametrize("q", range(1, 11))
def test_rows_match_circuit_synthetic(q):
    rng = np.random.default_rng([5, q])
    blk = random_block(rng, n_codes=1 << q, gamma_max=0.3 * 4 / 2 ** (q / 2))
    for circuit in ("pipeline", "uint"):
        cfg = SweepConfig(0.5, 3, start_candidates=0, circuit=circuit)
        assert_rows_match_circuit(blk, cfg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rows_match_circuit_property(data):
    q = data.draw(st.integers(1, 6), label="q")
    n = 1 << q
    gamma = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                               label="gamma"))
    dens = -np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
                               label="denominators"))
    base = data.draw(st.integers(0, n - 1), label="base")
    gamma[base] = 0.0
    lam = data.draw(st.floats(0.0, 2.0), label="lambda")
    circuit = data.draw(st.sampled_from(["pipeline", "uint"]), label="circuit")
    blk = EriBlock("H", (0, 0), tuple(range(n)), (0,), gamma, dens)
    cfg = SweepConfig(lam, 2, start_candidates=0, circuit=circuit)
    sweep = run_block_sweep(blk, cfg, base_state=base)
    for row, probs in zip(sweep.outcomes, circuit_rows(blk, cfg, base)):
        assert abs(row.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(row - probs)) <= 1e-12


def dense_lambda_max(block, target_bias=0.005, cap=0.01):
    """auto_lambda_max from dense powers of the uint_generator matrix."""
    kappa = ratio_table(block, default_c_e(block))
    y = default_base_state(block)
    v = uint_generator(block, y)
    v2 = v @ v
    v3 = v2 @ v
    others = [x for x in range(block.gamma.size) if x != y]
    s_lin = sum(v[x, y] ** 2 * kappa[x] for x in others)
    r_quart = abs(sum(kappa[x] * (v2[x, y] ** 2 / 4 - v[x, y] * v3[x, y] / 3)
                      for x in others))
    l_cap = cap / float(np.max(np.abs(block.gamma)) ** 2)
    l_bias = target_bias * s_lin / r_quart if r_quart > 0 else l_cap
    return float(np.sqrt(min(l_cap, l_bias)))


def test_auto_lambda_max_matches_dense_generator(helium_blocks):
    rng = np.random.default_rng(21)
    blocks = [helium_blocks[p] for p in ("I", "II", "III", "IV")]
    blocks += [random_block(rng, n_codes=1 << q, gamma_max=g)
               for q in range(1, 9) for g in (0.05, 0.3, 2.0)]
    for blk in blocks:
        got = estimate.auto_lambda_max(blk)
        assert got == pytest.approx(dense_lambda_max(blk), rel=1e-12, abs=0)


def test_auto_lambda_max_rejects_a_c_e_above_a_denominator(helium_blocks):
    # ratio_table checks kappa <= 1 for every caller, as a sweep with this c_e does
    blk = helium_blocks["IV"]
    with pytest.raises(NumericalError, match=r"C_e/\|denominator\| above 1"):
        estimate.auto_lambda_max(blk, c_e=10 * default_c_e(blk))


@pytest.mark.parametrize("c_e", [0.0, -0.5, np.nan, np.inf])
def test_every_kappa_reader_rejects_a_c_e_not_above_zero(helium_blocks, c_e):
    # a negative C_e used to clip every kappa to 0 and a zero one to divide by
    # zero downstream; ratio_table checks it for each reader of kappa
    blk = helium_blocks["IV"]
    readers = [lambda: ratio_table(blk, c_e), lambda: builders.solve_angles(blk, c_e=c_e),
               lambda: estimate.auto_lambda_max(blk, c_e=c_e),
               lambda: estimate.ue_response_tables(blk, c_e=c_e),
               lambda: run_block_sweep(blk, SweepConfig(0.1, 3, start_candidates=0, c_e=c_e))]
    for read in readers:
        with pytest.raises(NumericalError, match="C_e must be finite and above 0"):
            read()


def test_sweep_rejects_non_finite_gamma():
    rng = np.random.default_rng(8)
    blk = random_block(rng, zero_at=0)
    blk.gamma[5] = np.nan
    with pytest.raises(ValueError, match="0101"):
        run_block_sweep(blk, SweepConfig(0.1, 3, start_candidates=0))


def test_sweep_checks_base_state_and_lambda():
    blk = random_block(np.random.default_rng(9), zero_at=2)
    with pytest.raises(NumericalError):
        run_block_sweep(blk, SweepConfig(0.1, 3, start_candidates=0), base_state=3)
    for step in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda"):
            run_block_sweep(blk, SweepConfig(step, 3, start_candidates=0))


def test_sweep_rejects_rows_that_do_not_sum_to_one():
    # lambda * eigenvalue overflows to inf, so exp(i lambda d) and the row are NaN;
    # NaN must fail the sum check
    blk = random_block(np.random.default_rng(10), zero_at=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="probabilities sum to nan"):
        run_block_sweep(blk, SweepConfig(1e308, 3, start_candidates=0))


def test_sweep_transforms_only_rows_whose_lambda_passed(monkeypatch):
    # row 0 has lambda 0, row 1 a negative lambda: row 0 is made, row 1 raises
    # and is never transformed
    batches = []

    def spy(values):
        if np.ndim(values) == 2:
            batches.append(len(values))
        return builders.fwht(values)

    monkeypatch.setattr(estimate, "fwht", spy)
    blk = random_block(np.random.default_rng(9), zero_at=2)
    with pytest.raises(ValueError, match="lambda must be finite and >= 0, got -0.1"):
        run_block_sweep(blk, SweepConfig(-0.1, 3, start_candidates=0))
    assert batches == [1]


def _row_seed(seed, part, step):
    """The seed a sampled sweep row draws from, as run_block_sweep states it."""
    return np.random.SeedSequence(seed & 0xFFFF_FFFF_FFFF_FFFF,
                                  spawn_key=(zlib.crc32(part.encode()), step))


def test_sampled_helium_run_seeds_each_step_once(helium, monkeypatch):
    # parts I, III and IV sweep 16 + 18 + 32 rows; each step of each part
    # draws once, from a seed of its own
    seeds = []
    sample_counts = statevec.sample_counts

    def counting(probs, shots, seed):
        seeds.append(seed)
        return sample_counts(probs, shots, seed)

    monkeypatch.setattr(statevec, "sample_counts", counting)
    result = estimate_helium(helium, mode=estimate.SAMPLED, seed=3)
    assert sum(len(p.sweep.rows) for p in result.parts.values()) == 66
    assert len(seeds) == 66
    assert len({(s.entropy, s.spawn_key) for s in seeds}) == 66


def test_shared_streams_draw_what_each_sweep_draws_alone(helium, helium_blocks):
    result = estimate_helium(helium, mode=estimate.SAMPLED, shots=5000, seed=11)
    for part, detail in result.parts.items():
        step, total = estimate.DEFAULT_HELIUM_GRIDS[estimate.SAMPLED][part]
        config = SweepConfig(step, total, shots=5000, seed=11, mode=estimate.SAMPLED,
                             start_candidates=4)
        alone = run_block_sweep(helium_blocks[part], config, part)
        exact = run_block_sweep(helium_blocks[part], replace(config, mode=estimate.EXACT))
        assert len(detail.sweep.rows) == len(alone.rows)
        assert detail.sweep.outcomes.tobytes() == alone.outcomes.tobytes()
        assert detail.sweep.rows.tobytes() == alone.rows.tobytes()
        # each row draws from the seed of (11, part, step)
        for step, (counts, probs) in enumerate(zip(detail.sweep.outcomes, exact.outcomes)):
            seed = _row_seed(11, part, step)
            assert counts.tobytes() == statevec.sample_counts(probs, 5000, seed).tobytes()


def test_sweep_labels_draw_apart_and_longer_grids_repeat_rows():
    # one block under two labels: the same seed and steps draw other counts,
    # and the same label draws the same counts, on a longer grid too
    blk = random_block(np.random.default_rng(3))
    config = SweepConfig(0.05, 4, shots=1000, seed=1, mode=estimate.SAMPLED,
                         start_candidates=0)
    a, b = (run_block_sweep(blk, config, label).outcomes for label in ("A", "B"))
    longer = run_block_sweep(blk, replace(config, total_steps=7), "A").outcomes
    assert a.tobytes() == run_block_sweep(blk, config, "A").outcomes.tobytes()
    assert longer[:len(a)].tobytes() == a.tobytes()
    assert all(row_a.tobytes() != row_b.tobytes() for row_a, row_b in zip(a, b))


def _one_row_sweep(block, config):
    """The sweep one row at a time, each row its own 1-D transform: the
    reference that the chunked sweep must match bit for bit."""
    kappa = ratio_table(block, config.c_e)
    base = default_base_state(block)
    d, signs = estimate._uint_spectrum(block, base)
    # U_E sets the readout of input x with probability kappa[x]
    weights = None if config.circuit == "uint" else kappa
    rows = []   # (lam, lam_sq, zeta, zeta_signal, outcomes) per step
    for step in range(config.n_rows()):
        lam = step * config.lambda_step
        psi = builders.fwht(np.exp(1j * lam * d) * signs) / d.size
        register = psi.real ** 2 + psi.imag ** 2
        if weights is None:
            probs, readout_bit = register, None
        else:
            readout_bit = (d.size - 1).bit_length()
            probs = np.concatenate([register * (1.0 - weights), register * weights])
        outcomes = fractions = probs
        if config.mode == estimate.SAMPLED:
            # run_block_sweep labels a sweep without a part "block"
            outcomes = statevec.sample_counts(probs, config.shots,
                                              _row_seed(config.seed, "block", step))
            fractions = outcomes / config.shots
        idx = np.arange(fractions.size)
        excited = (idx & (d.size - 1)) != base
        hit = excited if readout_bit is None else (idx >> readout_bit) & 1 == 1
        zeta = float(np.cumsum(fractions[hit])[-1])
        zeta_signal = (zeta if readout_bit is None
                       else float(np.cumsum(fractions[hit & excited])[-1]))
        rows.append((lam, lam * lam, zeta, zeta_signal, outcomes))
    return rows


@pytest.mark.parametrize("mode", [estimate.EXACT, estimate.SAMPLED])
@pytest.mark.parametrize("q", range(1, 13))
def test_chunked_sweep_matches_one_row_reference(q, mode):
    # enough rows for two full chunks and part of a third
    n_rows = 2 * max(1, estimate._CHUNK_AMPLITUDES >> q) + 3
    blk = random_block(np.random.default_rng(q), n_codes=1 << q,
                       gamma_max=0.3 * 4 / 2 ** (q / 2))
    for circuit in ("pipeline", "uint"):
        config = SweepConfig(0.05, n_rows, shots=1000, seed=q, mode=mode,
                             start_candidates=0, circuit=circuit)
        sweep = run_block_sweep(blk, config)
        reference = _one_row_sweep(blk, config)
        assert len(sweep.rows) == len(sweep.outcomes) == len(reference) == n_rows
        assert sweep.outcomes.dtype == (np.float64 if mode == estimate.EXACT else np.int64)
        for row, outcomes, ref in zip(sweep.rows, sweep.outcomes, reference):
            assert (row.lam, row.lam_sq, row.zeta, row.zeta_signal) == ref[:4]
            assert outcomes.tobytes() == ref[4].tobytes()


@pytest.mark.parametrize("n", [1, 2, 16])
def test_ordered_sums_match_a_masked_left_to_right_sum(n):
    values = np.random.default_rng(n).random((5, n)) ** 4
    for base in range(n):
        total, without = estimate._ordered_sums(values, base)
        masked = np.delete(values, base, axis=1)
        for i, row in enumerate(values):
            assert total[i] == np.cumsum(row)[-1]
            assert without[i] == (np.cumsum(masked[i])[-1] if n > 1 else 0.0)


def test_wide_block_sweeps_without_angle_solve():
    # the sweep reads the U_E targets directly and needs no angles
    q = 20
    blk = random_block(np.random.default_rng(0), n_codes=1 << q, gamma_max=1.2 / 2 ** (q / 2))
    sweep = run_block_sweep(blk, SweepConfig(0.01, 2, start_candidates=0))
    assert len(sweep.rows) == 2
    kappa = ratio_table(blk, sweep.c_e)
    assert sweep.rows[0].zeta == pytest.approx(kappa[sweep.base_state], abs=1e-12)
    assert sweep.rows[1].zeta > sweep.rows[0].zeta


@pytest.mark.parametrize("mode", [estimate.EXACT, estimate.SAMPLED])
def test_sweep_table_columns_and_outcomes(helium_blocks, mode):
    config = SweepConfig(0.05, 6, shots=3000, seed=5, mode=mode, start_candidates=2)
    sweep = run_block_sweep(helium_blocks["I"], config, "I")
    n = config.n_rows()
    # a record array: len, iteration by attribute, and whole columns
    assert isinstance(sweep.rows, np.recarray) and len(sweep.rows) == n
    assert [r.zeta for r in sweep.rows] == sweep.rows.zeta.tolist()
    assert [r.zeta_signal for r in sweep.rows] == sweep.rows["zeta_signal"].tolist()
    assert sweep.rows.lam.tolist() == [step * 0.05 for step in range(n)]
    assert sweep.rows.lam_sq.tolist() == [(step * 0.05) ** 2 for step in range(n)]
    assert sweep.outcomes.shape == (n, 2 << helium_blocks["I"].n_qubits)
    exact = run_block_sweep(helium_blocks["I"], replace(config, mode=estimate.EXACT), "I")
    if mode == estimate.EXACT:
        assert sweep.outcomes.dtype == np.float64 and sweep.shots == 0
        assert np.allclose(sweep.outcomes.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    else:
        assert sweep.outcomes.dtype == np.int64 and sweep.shots == 3000
        assert sweep.outcomes.sum(axis=1).tolist() == [3000] * n
        # row `step` draws from the seed of (seed, part, step)
        for step, probs in enumerate(exact.outcomes):
            expected = statevec.sample_counts(probs, 3000, _row_seed(5, "I", step))
            assert sweep.outcomes[step].tobytes() == expected.tobytes()
