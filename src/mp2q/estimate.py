"""The experiment pipeline: lambda sweeps, zeta extraction, least-squares
fitting with start-step selection, per-outcome slope estimation, the lite/all
denominator correction, and final energy assembly.

Two zeta series are kept per sweep: the marginal readout-1 probability (whose
intercept is the base-state contribution) and the base-excluded signal series
(zero intercept, slope C_e * sum gamma^2/|den|); fits use the signal series,
which is what the energy divides out.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import statevec
from .builders import default_base_state, default_c_e, fwht, ratio_table
from .errors import NumericalError
from .hfdata import EriBlock, HartreeFockData, helium_blocks
from .mp2 import block_sign

EXACT = "exact-probabilities"
SAMPLED = "sampled"

HELIUM_PARTS = {"I": 1, "III": 2, "IV": 1}


@dataclass(frozen=True)
class SweepConfig:
    lambda_step: float
    total_steps: int                 # fit-window length; step 0 is lambda = 0
    shots: int = 100_000
    seed: int = 7
    mode: str = EXACT
    c_e: float | None = None         # None: min |denominator| of the block
    start_candidates: int = 8        # extra rows so start-step selection has range
    circuit: str = "pipeline"        # "pipeline" (U_E after U_INT) or "uint" alone

    def n_rows(self) -> int:
        return self.total_steps + self.start_candidates


# One sweep row per lambda step; the step is the row index.
ROW_FIELDS = np.dtype([("lam", float), ("lam_sq", float),
                       ("zeta", float),           # Pr[q' = 1], all register outcomes
                       ("zeta_signal", float)])   # Pr[q' = 1 and register != base state]


@dataclass
class SweepResult:
    part: str
    c_e: float
    base_state: int
    n_register_qubits: int
    shots: int                        # per row in sampled mode, 0 in exact mode
    rows: np.recarray                 # ROW_FIELDS, one record per step
    outcomes: np.ndarray              # (rows x basis states): float64 probabilities,
                                      # or int64 counts in sampled mode


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    lse: float                        # sum of squared residuals
    window: tuple[int, int]           # (start_step, total_steps)
    plateau: bool = False


def _uint_spectrum(block: EriBlock, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Hadamard-basis form of the U_INT generator V = sum_m gamma[m ^ y] X^m.

    The X-strings commute and X^m|h_k> = (-1)^popcount(m & k)|h_k> on the
    Hadamard basis |h_k> = H^Q|k>, so V has eigenvalues d = fwht(gamma[m ^ y])
    and <h_k|y> carries the sign (-1)^popcount(k & y). Returns (d, signs)."""
    q = block.n_qubits
    bad = np.flatnonzero(~np.isfinite(block.gamma))
    if bad.size:
        raise ValueError(f"gamma of code {int(bad[0]):0{q}b} is not finite")
    if block.gamma[base] != 0.0:
        raise NumericalError(f"base state {base:0{q}b} has nonzero gamma")
    idx = np.arange(block.gamma.size)
    return fwht(block.gamma[idx ^ base]), fwht(idx == base)


def _register_probs(spectrum: tuple[np.ndarray, np.ndarray], lams: np.ndarray) -> np.ndarray:
    """Register probabilities |psi|^2 of exp(i*lambda*V)|y>, one row per
    lambda, in closed form: the amplitudes are fwht(exp(i*lambda*d) * signs)
    / 2^Q, and all rows share one transform."""
    d, signs = spectrum
    psi = fwht(np.exp((1j * np.array(lams))[:, None] * d) * signs) / d.size
    return psi.real ** 2 + psi.imag ** 2


def _sweep_chunk(sweep: SweepResult, first: int, registers: np.ndarray,
                 readout_split: np.ndarray, config: SweepConfig) -> None:
    """Fill rows first, first + 1, ... of `sweep` from their register
    probabilities (`_register_probs`, one row per step), the whole chunk at
    once. U_E moves register outcome x to readout 1 with probability w[x]:
    readout_split holds the rows 1 - w and w, or one row of ones for the U_INT
    circuit alone (no readout qubit)."""
    rows = sweep.rows[first:first + len(registers)]
    outcomes = sweep.outcomes[first:first + len(registers)]
    sampled = config.mode == SAMPLED
    # an exact chunk's probabilities are its outcomes, a sampled chunk draws from them
    probs = np.empty(outcomes.shape) if sampled else outcomes
    np.multiply(registers[:, None], readout_split,
                out=probs.reshape(len(probs), *readout_split.shape))
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-10))   # NaN is bad too
    if bad.size:
        raise NumericalError(f"row {first + int(bad[0])} probabilities sum to "
                             f"{float(totals[bad[0]])}")
    fractions = probs
    if sampled:
        entropy, label = config.seed & 0xFFFF_FFFF_FFFF_FFFF, zlib.crc32(sweep.part.encode())
        for step, row, counts in zip(range(first, first + len(probs)), probs, outcomes):
            seed = np.random.SeedSequence(entropy, spawn_key=(label, step))
            counts[...] = statevec.sample_counts(row, config.shots, seed)
        fractions = outcomes / config.shots
    # zeta counts readout 1, or with no readout qubit the register outside the base state
    zeta, rows.zeta_signal = _ordered_sums(fractions[:, -registers.shape[1]:], sweep.base_state)
    rows.zeta = zeta if len(readout_split) == 2 else rows.zeta_signal


def _ordered_sums(values: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right sums of each row in ascending basis-state order, over
    every column and over every column but `base`. np.sum adds pairwise,
    which can move the last bits of zeta and so of sweep.csv and fits.json.
    The second sum starts from the first's partial sum before `base`, so it
    adds the same values in the same order as a sum over a masked copy."""
    total = np.cumsum(values, axis=1)
    rest = values[:, base:].copy()
    rest[:, 0] = total[:, base - 1] if base else 0.0
    return total[:, -1], np.cumsum(rest, axis=1)[:, -1]


# Amplitudes per transform in a sweep: at Q <= 12 a chunk holds 2^(12-Q)
# rows, and a wider register goes one row at a time.
_CHUNK_AMPLITUDES = 1 << 12


def run_block_sweep(block: EriBlock, config: SweepConfig, part: str = "",
                    base_state: int | None = None) -> SweepResult:
    """Sweep lambda over the grid for one block; deterministic per (seed, part, step).

    Rows are the closed form of the U_INT (and U_E) circuit of
    builders.build_uint / build_pipeline, which stay as its test oracle.
    Rows are made in step order, a chunk of them per transform; a bad lambda
    raises once every row before it is made and checked. In sampled mode row
    s of a sweep labelled p (SweepResult.part, "block" when `part` is empty)
    draws its counts from SeedSequence(seed mod 2^64,
    spawn_key=(zlib.crc32(p.encode()), s)), which no other part or row shares."""
    c_e = config.c_e if config.c_e is not None else default_c_e(block)
    kappa = ratio_table(block, c_e)
    base = default_base_state(block) if base_state is None else base_state
    spectrum = _uint_spectrum(block, base)
    # U_E sets the readout of register input x with probability kappa[x]
    split = (np.ones((1, kappa.size)) if config.circuit == "uint"
             else np.stack([1.0 - kappa, kappa]))
    lams = [step * config.lambda_step for step in range(config.n_rows())]
    # only rows before the first bad lambda are transformed
    n_good = next((s for s, lam in enumerate(lams) if not 0.0 <= lam < np.inf), len(lams))
    rows = np.recarray(n_good, ROW_FIELDS)
    rows.lam, rows.lam_sq = lams[:n_good], [lam * lam for lam in lams[:n_good]]
    shots = config.shots if config.mode == SAMPLED else 0
    sweep = SweepResult(part or "block", c_e, base, block.n_qubits, shots, rows,
                        np.empty((n_good, split.size), np.int64 if shots else float))
    per_chunk = max(1, _CHUNK_AMPLITUDES >> block.n_qubits)
    for first in range(0, n_good, per_chunk):
        registers = _register_probs(spectrum, rows.lam[first:first + per_chunk])
        _sweep_chunk(sweep, first, registers, split, config)
    if n_good < len(lams):
        raise ValueError(f"lambda must be finite and >= 0, got {lams[n_good]}")
    return sweep


def run_sweep(data: HartreeFockData, part: str, config: SweepConfig) -> SweepResult:
    """Sweep one helium part (I, II, III, IV) of the given HF data."""
    blocks = helium_blocks(data)
    if part not in blocks:
        raise KeyError(f"unknown part {part!r}; have {sorted(blocks)}")
    return run_block_sweep(blocks[part], config, part)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    if x.size < 3:
        raise ValueError("need at least 3 points for a fit")
    if np.ptp(x) == 0.0:
        raise NumericalError("degenerate window: all lambda^2 equal")
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _plateau(x: np.ndarray, y: np.ndarray, slope: float) -> bool:
    """Saturation guard: extrapolate the first-quarter secant (at least two
    steps) across the window; a >1.25 overshoot of the observed rise (or a
    non-rising fit) flags the fit.

    The 1.25 threshold is calibrated on the exact saturation curves: part IV
    windows reaching lambda ~2 flag, windows inside the linear regime do not."""
    if slope <= 0.0:
        return True
    quarter = max(2, len(x) // 4)
    if x[quarter] == x[0]:
        return False
    early = (y[quarter] - y[0]) / (x[quarter] - x[0])
    predicted = early * (x[-1] - x[0])
    observed = y[-1] - y[0]
    if predicted <= 0.0:
        return True
    return bool(observed <= 0.0 or predicted / observed > 1.25)


def _fit(x: np.ndarray, y: np.ndarray, window: tuple[int, int]) -> RegressionFit:
    slope, intercept, lse = _ols(x, y)
    return RegressionFit(slope, intercept, lse, window, _plateau(x, y, slope))


def fit_zeta(sweep: SweepResult, window: tuple[int, int]) -> RegressionFit:
    """Ordinary least squares of zeta against lambda^2 over the window."""
    start, count = window
    rows = sweep.rows[start:start + count]
    if len(rows) < count:
        raise ValueError(f"window {window} exceeds sweep of {len(sweep.rows)} rows")
    return _fit(rows.lam_sq, rows.zeta_signal, (start, count))


@dataclass(frozen=True)
class StartStepSelection:
    best_start: int
    best: RegressionFit
    fits: dict[int, RegressionFit]


def select_start_step(sweep: SweepResult, step_len: float,
                      total_steps: int) -> StartStepSelection:
    """Fit every candidate window and keep the minimum-LSE start (ties: smaller)."""
    lam, x, y = sweep.rows.lam, sweep.rows.lam_sq, sweep.rows.zeta_signal
    if step_len and lam[1] and abs(lam[1] - step_len) > 1e-12:
        raise ValueError("step_len does not match the sweep grid")
    n_starts = len(x) - total_steps + 1
    if n_starts < 1:
        raise ValueError("not enough rows for one full window")
    fits = {s: _fit(x[s:s + total_steps], y[s:s + total_steps], (s, total_steps))
            for s in range(n_starts)}
    # residuals below the float-dust floor count as zero, so exact-data ties
    # break toward the smaller start
    floor = (1e-12 ** 2) * total_steps
    effective = {s: (0.0 if f.lse <= floor else f.lse) for s, f in fits.items()}
    best_start = min(effective, key=lambda s: (effective[s], s))
    return StartStepSelection(best_start, fits[best_start], fits)


@dataclass(frozen=True)
class OutcomeSlope:
    slope: float
    gamma_abs: float
    intercept: float
    lse: float
    plateau: bool


def estimate_eri_slopes(sweep: SweepResult, window: tuple[int, int] | None = None,
                        min_slope: float = 0.0) -> dict[int, OutcomeSlope]:
    """Per-outcome OLS of register-outcome frequency against lambda^2.

    The slope of outcome x recovers gamma_x^2; sqrt(slope) is the |gamma|
    estimate. Runs on uint sweeps (or pipeline sweeps, marginalized over q')."""
    start, count = window if window is not None else (0, len(sweep.rows))
    x = sweep.rows.lam_sq[start:start + count]
    # frequency of each register code, summed over the readout bit if any
    fractions = sweep.outcomes[start:start + count]
    if sweep.shots:
        fractions = fractions / sweep.shots
    series = fractions.reshape(len(x), -1, 1 << sweep.n_register_qubits).sum(axis=1)
    out = {}
    for code in range(series.shape[1]):
        if code == sweep.base_state or not series[:, code].any():
            continue
        slope, intercept, lse = _ols(x, series[:, code])
        if slope <= min_slope:
            continue
        out[code] = OutcomeSlope(slope, float(np.sqrt(max(slope, 0.0))),
                                 intercept, lse, _plateau(x, series[:, code], slope))
    return out


def correct_denominators(counts_all: dict[int, np.ndarray],
                         counts_lite: dict[int, np.ndarray],
                         n_register_qubits: int = 4) -> np.ndarray:
    """Idle-gate error correction for the denominator ratios.

    counts_all / counts_lite map each register input x to the outcome counts
    of the full / stripped-down circuit, an array indexed by basis state. The
    correction factor is the mean, over inputs other than 0, of
    (lite_x + all_(x+2^Q)) / (lite_x + lite_(x+2^Q)); the corrected estimate
    for x is its raw all-counts ratio divided by it. Identity when
    counts_all == counts_lite."""
    q = n_register_qubits
    n_inputs = 1 << q

    def ratio_parts(tables, x):
        lo = float(tables[x][x])
        hi = float(tables[x][x | (1 << q)])
        if lo + hi == 0.0:
            raise NumericalError(f"no counts at input {x}")
        return lo, hi

    terms = []
    for n in range(1, n_inputs):
        lite_lo, lite_hi = ratio_parts(counts_lite, n)
        _, all_hi = ratio_parts(counts_all, n)
        terms.append((lite_lo + all_hi) / (lite_lo + lite_hi))
    factor = float(np.mean(terms))
    out = np.zeros(n_inputs)
    for x in range(n_inputs):
        lo, hi = ratio_parts(counts_all, x)
        out[x] = (hi / (lo + hi)) / factor
    return out


def apply_diagonal_error(probs: np.ndarray, delta0: float, delta1: float,
                         readout_bit: int) -> np.ndarray:
    """Forward model of a diagonal perturbation (1 + Delta) U: outcome weights
    scale by (1+delta0)^2 / (1+delta1)^2 by readout value, then renormalize."""
    idx = np.arange(probs.size)
    scale = np.where((idx >> readout_bit) & 1 == 1, (1 + delta1) ** 2, (1 + delta0) ** 2)
    scaled = probs * scale
    return scaled / scaled.sum()


def ue_response_tables(block: EriBlock, c_e: float | None = None,
                       diag_error: tuple[float, float] | None = None,
                       shots: float | None = None) -> dict[int, np.ndarray]:
    """Outcome weights of U_E for every basis input, indexed by basis state;
    the synthetic error model is applied when diag_error=(delta0, delta1) is
    given.

    U_E sets the readout of input x with probability kappa_x = C_e/|den_x|, so
    input x reads x with weight 1 - kappa_x and x | 2^Q with weight kappa_x; no
    circuit is simulated (`builders.build_ue` is the test oracle). With
    shots=None the tables hold exact expected weights (shots = 1)."""
    kappa = ratio_table(block, c_e)
    q = block.n_qubits
    tables = {}
    for x in range(1 << q):
        probs = np.zeros(2 << q)
        probs[x] = 1.0 - kappa[x]
        probs[x | (1 << q)] = kappa[x]
        if diag_error is not None:
            probs = apply_diagonal_error(probs, diag_error[0], diag_error[1], q)
        tables[x] = probs * (shots if shots is not None else 1.0)
    return tables


def auto_lambda_max(block: EriBlock, c_e: float | None = None,
                    target_bias: float = 0.005, cap: float = 0.01) -> float:
    """Sweep range keeping the quartic fit bias near target_bias (relative).

    The fitted slope over [0, L] in lambda^2 is S + R*L + O(L^2), with S and R
    computable from column y of V, V^2 and V^3; lambda_max^2 * max gamma^2
    never exceeds cap. Column y of V^k is fwht(d^k)[x ^ y] / 2^Q for the
    Hadamard-basis eigenvalues d of V, the generator with
    exp(i*lambda*V)|y> = U_INT(lambda)|0>."""
    kappa = ratio_table(block, c_e)
    y = default_base_state(block)
    d, _ = _uint_spectrum(block, y)
    permute = np.arange(d.size) ^ y
    v, v2, v3 = (fwht(d ** k)[permute] / d.size for k in (1, 2, 3))
    excited = permute != 0
    s_lin = float(np.sum(v[excited] ** 2 * kappa[excited]))
    r_quart = abs(float(np.sum(kappa[excited] * (v2[excited] ** 2 / 4
                                                 - v[excited] * v3[excited] / 3))))
    if s_lin == 0.0:
        raise NumericalError("block has no linear response (all gamma zero?)")
    l_cap = cap / float(np.max(np.abs(block.gamma)) ** 2)
    l_bias = target_bias * s_lin / r_quart if r_quart > 0 else l_cap
    return float(np.sqrt(min(l_cap, l_bias)))


@dataclass(frozen=True)
class AssembledEnergy:
    e2: float
    epsilons: dict[str, float]


def assemble_energy(fits: dict[str, RegressionFit | float],
                    c_e: dict[str, float],
                    parts: dict[str, int] | None = None,
                    signs: dict[str, int] | None = None) -> AssembledEnergy:
    """epsilon_part = slope / C_e; E2 = sum multiplicty * sign * epsilon.

    Defaults give the helium rule E2 = -eps_I - 2*eps_III - eps_IV."""
    if parts is None:
        parts = dict(HELIUM_PARTS)
    epsilons = {}
    total = 0.0
    for part, mult in parts.items():
        if part not in fits:
            raise KeyError(f"missing fit for part {part!r}")
        fit = fits[part]
        slope = fit.slope if isinstance(fit, RegressionFit) else float(fit)
        eps = slope / c_e[part]
        epsilons[part] = eps
        sign = signs[part] if signs is not None else -1
        total += mult * sign * eps
    return AssembledEnergy(total, epsilons)


@dataclass
class PartEstimate:
    part: str
    sweep: SweepResult
    selection: StartStepSelection
    epsilon: float


@dataclass
class PipelineEstimate:
    e2: float
    parts: dict[str, PartEstimate]


# (lambda step, window length) per part. The exact-mode grids sit deep in the
# linear regime; the sampled grids trade quartic bias against shot noise at
# 1e5 shots per row. PAPER_GRIDS reproduces the published sweep settings.
DEFAULT_HELIUM_GRIDS = {
    EXACT: {"I": (0.04, 12), "III": (0.03, 12), "IV": (0.008, 16)},
    SAMPLED: {"I": (0.12, 12), "III": (0.08, 14), "IV": (0.015, 28)},
}
PAPER_GRIDS = {"I": (0.25, 10), "III": (0.3, 10), "IV": (0.1, 12)}


def estimate_helium(data: HartreeFockData, mode: str = EXACT, shots: int = 100_000,
                    seed: int = 7, grids: dict[str, tuple[float, int]] | None = None,
                    parts: dict[str, int] | None = None,
                    start_candidates: int = 4,
                    c_e: dict[str, float] | None = None) -> PipelineEstimate:
    """Full helium pipeline: sweep parts I, III, IV, select start steps, assemble."""
    if grids is None:
        grids = DEFAULT_HELIUM_GRIDS[mode]
    if parts is None:
        parts = dict(HELIUM_PARTS)
    blocks = helium_blocks(data)
    fits: dict[str, RegressionFit] = {}
    c_es: dict[str, float] = {}
    signs: dict[str, int] = {}
    details: dict[str, PartEstimate] = {}
    for part in parts:
        step, total = grids[part]
        config = SweepConfig(lambda_step=step, total_steps=total, shots=shots,
                             seed=seed, mode=mode, start_candidates=start_candidates,
                             c_e=None if c_e is None else c_e.get(part))
        sweep = run_block_sweep(blocks[part], config, part)
        selection = select_start_step(sweep, step, total)
        fits[part] = selection.best
        c_es[part] = sweep.c_e
        signs[part] = block_sign(blocks[part])
        details[part] = PartEstimate(part, sweep, selection,
                                     selection.best.slope / sweep.c_e)
    assembled = assemble_energy(fits, c_es, parts, signs)
    return PipelineEstimate(assembled.e2, details)
