"""Double-pulse-pumped entangled-pair source.

Two faces of the same model: :func:`analytic_state` gives the exact two-qubit
density matrix produced by the imperfect source, and :func:`emission_arrays`
samples the pair-emission cycles and frequency offsets that feed the event
pipeline.

Imperfections are reduced to three knobs plus a leakage term:

* ``white_noise_fraction`` w mixes in I/4,
* ``phase_jitter_sigma_rad`` damps the ee-ll coherence by exp(-sigma^2/2)
  (Gaussian pump-phase jitter, averaged over shots),
* ``intensity_imbalance`` r (late/early pump power) sets the |ee>/|ll>
  amplitude ratio,
* the pump extinction ratio leaks population 10^(-ER/10) into each of
  |el> and |le>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PumpConfig",
    "SourceModel",
    "analytic_state",
    "emission_arrays",
    "pair_rate_per_cycle",
]


@dataclass(frozen=True)
class PumpConfig:
    """Double-pulse pump parameters (defaults: the calibrated pump, 16 ns
    period, 1.25 ns pulse interval)."""

    period_ns: float = 16.0
    pulse_interval_ns: float = 1.25
    extinction_ratio_db: float = 19.0
    intensity_imbalance: float = 1.077
    phase_jitter_sigma_rad: float = 0.148318

    def __post_init__(self):
        # the early, middle and late arrival slots sit at 0, 1 and 2 intervals
        if not 2 * self.pulse_interval_ns < self.period_ns:
            raise ValueError("two pulse intervals must be shorter than the pump period")
        if not self.extinction_ratio_db > 0:
            raise ValueError("extinction ratio must be positive (dB)")
        if not self.intensity_imbalance > 0:
            raise ValueError("intensity imbalance must be positive")
        if self.phase_jitter_sigma_rad < 0:
            raise ValueError("phase jitter sigma must be nonnegative")


@dataclass(frozen=True)
class SourceModel:
    pump: PumpConfig = field(default_factory=PumpConfig)
    pair_emission_probability_per_cycle: float = 0.5628
    white_noise_fraction: float = 0.025
    pair_bandwidth_ghz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.pair_emission_probability_per_cycle < 1.0:
            raise ValueError("pair emission probability must be in [0, 1)")
        if not 0.0 <= self.white_noise_fraction <= 1.0:
            raise ValueError("white noise fraction must be in [0, 1]")
        if self.pair_bandwidth_ghz <= 0:
            raise ValueError("pair bandwidth must be positive")


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
    band_ghz: tuple[float, float],
    fraction: float = 1.0,
):
    """Vectorized emission sampling of a share ``fraction`` of the pairs
    whose signal offset lies in the sub-band ``band_ghz``; returns
    (cycles, offsets_ghz): the sorted pump cycle and the signal-photon
    frequency offset of each pair (the idler offset is its negative, by
    energy conservation).

    Because per-cycle pair numbers are Poissonian, pairs in disjoint
    sub-bands are independent Poisson streams, so sampling one band alone is
    exact (not an approximation) and proportionally cheaper.  So is a
    ``fraction`` f, the pairs kept by a thinning of f; f = 0 leaves ``rng``
    as it was.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    half = model.pair_bandwidth_ghz / 2.0
    lo, hi = band_ghz
    if not (-half <= lo < hi <= half):
        raise ValueError(f"band {band_ghz} not inside the +-{half} GHz pair band")
    mu = fraction * pair_rate_per_cycle(model) * (hi - lo) / model.pair_bandwidth_ghz
    n_pairs = rng.poisson(mu * n_cycles)
    cycles = rng.integers(0, n_cycles, size=n_pairs)
    cycles.sort()
    offsets = rng.uniform(lo, hi, size=n_pairs)
    return cycles, offsets
