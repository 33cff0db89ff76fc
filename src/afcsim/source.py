"""Double-pulse-pumped entangled-pair source.

Two faces of the same model: :func:`analytic_state` gives the exact two-qubit
density matrix produced by the imperfect source, and :func:`sample_emissions`
generates the time-tagged pair-emission stream that feeds the event pipeline.

Imperfections are reduced to three knobs plus a leakage term:

* ``white_noise_fraction`` w mixes in I/4,
* ``phase_jitter_sigma_rad`` damps the ee-ll coherence by exp(-sigma^2/2)
  (Gaussian pump-phase jitter, realized per shot in the sampled stream),
* ``intensity_imbalance`` r (late/early pump power) sets the |ee>/|ll>
  amplitude ratio,
* the pump extinction ratio leaks population 10^(-ER/10) into each of
  |el> and |le>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from afcsim.states import bell_psi_plus, fidelity, projector, purity

__all__ = [
    "PumpConfig",
    "SourceModel",
    "EmissionRecord",
    "analytic_state",
    "sample_emissions",
    "emission_arrays",
    "pair_rate_per_cycle",
    "emissions_to_text",
    "emissions_from_text",
    "calibrate_source",
]


@dataclass(frozen=True)
class PumpConfig:
    """Double-pulse pump parameters (defaults: 16 ns period, 1.25 ns
    pulse interval, 300 ps single-pulse width)."""

    period_ns: float = 16.0
    pulse_interval_ns: float = 1.25
    pulse_width_fwhm_ps: float = 300.0
    extinction_ratio_db: float = 25.0
    intensity_imbalance: float = 1.0
    phase_jitter_sigma_rad: float = 0.0

    def __post_init__(self):
        # the early, middle and late arrival slots sit at 0, 1 and 2 intervals
        if not 2 * self.pulse_interval_ns < self.period_ns:
            raise ValueError("two pulse intervals must be shorter than the pump period")
        if not self.pulse_width_fwhm_ps / 1000.0 < self.pulse_interval_ns:
            raise ValueError("pulse width must be shorter than the pulse interval")
        if not self.extinction_ratio_db > 0:
            raise ValueError("extinction ratio must be positive (dB)")
        if not self.intensity_imbalance > 0:
            raise ValueError("intensity imbalance must be positive")
        if self.phase_jitter_sigma_rad < 0:
            raise ValueError("phase jitter sigma must be nonnegative")


@dataclass(frozen=True)
class SourceModel:
    pump: PumpConfig = field(default_factory=PumpConfig)
    pair_emission_probability_per_cycle: float = 0.05
    white_noise_fraction: float = 0.0
    signal_center_wavelength_nm: float = 1531.93
    idler_center_wavelength_nm: float = 1549.37
    pair_bandwidth_ghz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.pair_emission_probability_per_cycle < 1.0:
            raise ValueError("pair emission probability must be in [0, 1)")
        if not 0.0 <= self.white_noise_fraction <= 1.0:
            raise ValueError("white noise fraction must be in [0, 1]")
        if self.pair_bandwidth_ghz <= 0:
            raise ValueError("pair bandwidth must be positive")


@dataclass(frozen=True)
class EmissionRecord:
    """One emitted pair.

    ``temporal_mode`` is 'both' for a coherent double-pulse pair carrying the
    amplitude pair (amp_early, amp_late), or 'early'/'late' for single-mode
    operation.  Only the signal-photon frequency offset is stored; the idler
    offset is its exact negative (energy conservation).
    """

    cycle_index: int
    temporal_mode: str
    amp_early: complex
    amp_late: complex
    signal_frequency_offset_ghz: float
    pair_phase_rad: float


def _amplitudes(pump: PumpConfig) -> tuple[float, float]:
    r = pump.intensity_imbalance
    return math.sqrt(1.0 / (1.0 + r)), math.sqrt(r / (1.0 + r))


def analytic_state(model: SourceModel) -> np.ndarray:
    """Density matrix of the emitted pair state.

    rho = (1 - w) * rho_src + w * I/4, where rho_src is the phase-averaged
    a|ee> + b e^{i theta}|ll> state with the ee-ll coherence damped by
    exp(-sigma^2/2) and extinction-ratio leakage on the |el>/|le> diagonals.
    """
    pump = model.pump
    a, b = _amplitudes(pump)
    damp = math.exp(-0.5 * pump.phase_jitter_sigma_rad**2)
    leak = 10.0 ** (-pump.extinction_ratio_db / 10.0)
    w = model.white_noise_fraction

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = a * a
    rho[3, 3] = b * b
    rho[0, 3] = rho[3, 0] = a * b * damp
    rho[1, 1] = rho[2, 2] = leak
    rho /= 1.0 + 2.0 * leak

    rho = (1.0 - w) * rho + w * np.eye(4) / 4.0
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"invalid mixture weights, trace = {tr}")
    return rho


def pair_rate_per_cycle(model: SourceModel) -> float:
    """Mean number of pairs per pump cycle.

    Pair numbers are Poissonian (multimode SPDC), with the mean fixed so the
    probability of at least one pair per cycle equals the configured
    ``pair_emission_probability_per_cycle``.
    """
    return -math.log1p(-model.pair_emission_probability_per_cycle)


def emission_arrays(
    model: SourceModel,
    n_cycles: int,
    rng: np.random.Generator,
    band_ghz: tuple[float, float] | None = None,
):
    """Vectorized emission sampling; returns (cycles, offsets_ghz, phases).

    ``band_ghz`` restricts sampling to pairs whose signal offset lies in the
    given sub-band.  Because per-cycle pair numbers are Poissonian, pairs in
    disjoint sub-bands are independent Poisson streams, so restricting the
    band is exact (not an approximation) and proportionally cheaper.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    half = model.pair_bandwidth_ghz / 2.0
    if band_ghz is None:
        lo, hi = -half, half
    else:
        lo, hi = band_ghz
        if not (-half <= lo < hi <= half):
            raise ValueError(f"band {band_ghz} not inside the +-{half} GHz pair band")
    mu = pair_rate_per_cycle(model) * (hi - lo) / model.pair_bandwidth_ghz
    n_pairs = rng.poisson(mu * n_cycles)
    cycles = np.sort(rng.integers(0, n_cycles, size=n_pairs))
    offsets = rng.uniform(lo, hi, size=n_pairs)
    phases = rng.normal(0.0, model.pump.phase_jitter_sigma_rad, size=n_pairs)
    return cycles, offsets, phases


def sample_emissions(
    model: SourceModel,
    n_cycles: int,
    seed: int,
    *,
    band_ghz: tuple[float, float] | None = None,
    temporal_mode: str = "both",
) -> list[EmissionRecord]:
    """Deterministic (per seed) list of pair emissions over n_cycles.

    ``temporal_mode='both'`` emits coherent double-pulse pairs with the pump's
    amplitude split and a per-shot phase; 'early'/'late' emit single-mode
    pairs (single-pulse pump operation, used for raw correlation runs).
    """
    if temporal_mode not in ("both", "early", "late"):
        raise ValueError(f"unknown temporal mode {temporal_mode!r}")
    rng = np.random.default_rng(seed)
    cycles, offsets, phases = emission_arrays(model, n_cycles, rng, band_ghz)
    if temporal_mode == "both":
        a, b = _amplitudes(model.pump)
        return [
            EmissionRecord(int(c), "both", a, b * np.exp(1j * th), float(f), float(th))
            for c, f, th in zip(cycles, offsets, phases)
        ]
    amp_e = 1.0 if temporal_mode == "early" else 0.0
    return [
        EmissionRecord(int(c), temporal_mode, amp_e, 1.0 - amp_e, float(f), 0.0)
        for c, f in zip(cycles, offsets)
    ]


def emissions_to_text(records: list[EmissionRecord]) -> str:
    """Columnar debug dump: cycle, mode, offset_ghz, phase_rad."""
    lines = ["# cycle mode offset_ghz phase_rad"]
    for r in records:
        lines.append(
            f"{r.cycle_index} {r.temporal_mode} "
            f"{r.signal_frequency_offset_ghz:.6f} {r.pair_phase_rad:.9f}"
        )
    return "\n".join(lines) + "\n"


def emissions_from_text(text: str, model: SourceModel) -> list[EmissionRecord]:
    """Rebuild emission records from the columnar dump; amplitudes come from
    the pump configuration plus the stored per-shot phase."""
    a, b = _amplitudes(model.pump)
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cycle, mode, offset, phase = line.split()
        phase_f = float(phase)
        if mode == "both":
            amp_e, amp_l = a, b * np.exp(1j * phase_f)
        else:
            amp_e = 1.0 if mode == "early" else 0.0
            amp_l = 1.0 - amp_e
        records.append(
            EmissionRecord(int(cycle), mode, amp_e, amp_l, float(offset), phase_f)
        )
    return records


def calibrate_source(
    target_fidelity: float,
    target_purity: float,
    pump: PumpConfig | None = None,
    pair_probability: float = 0.05,
) -> SourceModel:
    """Solve (white noise fraction, phase jitter) so the analytic state hits
    the requested fidelity to |Psi+> and purity.

    Uses the closed analytic forms through a 2-parameter root solve; raises
    if no physical solution exists.
    """
    pump = pump or PumpConfig()

    def residuals(x):
        w, sigma = x
        w = min(max(w, 0.0), 1.0)
        sigma = abs(sigma)
        m = SourceModel(
            pump=PumpConfig(
                period_ns=pump.period_ns,
                pulse_interval_ns=pump.pulse_interval_ns,
                pulse_width_fwhm_ps=pump.pulse_width_fwhm_ps,
                extinction_ratio_db=pump.extinction_ratio_db,
                intensity_imbalance=pump.intensity_imbalance,
                phase_jitter_sigma_rad=sigma,
            ),
            pair_emission_probability_per_cycle=pair_probability,
            white_noise_fraction=w,
        )
        rho = analytic_state(m)
        return [
            fidelity(rho, projector(bell_psi_plus())) - target_fidelity,
            purity(rho) - target_purity,
        ]

    sol = optimize.least_squares(
        residuals, x0=[0.03, 0.3], bounds=([0.0, 0.0], [0.5, 2.0]), xtol=1e-14, ftol=1e-14
    )
    if not sol.success or np.max(np.abs(sol.fun)) > 1e-6:
        raise ValueError(
            f"no source parameters reach fidelity={target_fidelity}, purity={target_purity} "
            f"(residual {sol.fun})"
        )
    w, sigma = sol.x
    return SourceModel(
        pump=PumpConfig(
            period_ns=pump.period_ns,
            pulse_interval_ns=pump.pulse_interval_ns,
            pulse_width_fwhm_ps=pump.pulse_width_fwhm_ps,
            extinction_ratio_db=pump.extinction_ratio_db,
            intensity_imbalance=pump.intensity_imbalance,
            phase_jitter_sigma_rad=float(sigma),
        ),
        pair_emission_probability_per_cycle=pair_probability,
        white_noise_fraction=float(w),
    )
