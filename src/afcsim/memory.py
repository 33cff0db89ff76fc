"""Five-channel atomic-frequency-comb memory.

Covers the AFC efficiency law, the teeth-spacing/storage-time mapping, the
15 GHz spectral channel grid, the per-channel recall survival, and the
storage-time decay model fitted to the bundled efficiency grid.  Storage
itself (recall thinning, the fixed 1/Delta delay and the noise floor) is
applied to the sampled arrays in :mod:`afcsim.pipeline`.

The channel grid is a constant of the model, not configuration: channel
centers are GHz offsets from the grid reference (channel 3) and every
channel has the same 4 GHz passband, so wavelengths no longer appear, not
even at the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHANNEL_OFFSETS_GHZ",
    "CHANNEL_BANDWIDTH_GHZ",
    "DEFAULT_D1",
    "AfcChannel",
    "MemoryBank",
    "storage_time_ns",
    "afc_efficiency",
    "storage_survival",
    "DecayFit",
    "fit_decay_model",
    "non_monotone_rows",
]

# Channel grid: five 4 GHz passbands on a 15 GHz grid.  Channel 1 sits at
# +30 GHz (shortest wavelength), channel 5 at -30 GHz.
CHANNEL_OFFSETS_GHZ = (30.0, 15.0, 0.0, -15.0, -30.0)
CHANNEL_BANDWIDTH_GHZ = 4.0

# Calibrated comb depth d1 of channels 1-5; the other comb parameters are
# the same on every channel and are the AfcChannel defaults.
DEFAULT_D1 = (1.108148, 1.094456, 1.108148, 1.16283, 1.244853)


def storage_time_ns(teeth_spacing_mhz: float) -> float:
    """AFC recall delay 1/Delta for a comb with the given teeth spacing."""
    if teeth_spacing_mhz <= 0:
        raise ValueError("teeth spacing must be positive")
    return 1e3 / teeth_spacing_mhz


def afc_efficiency(d1: float, finesse: float, d0: float) -> float:
    """AFC recall efficiency (d1/F)^2 exp(-d1/F) exp(-7/F^2) exp(-d0)."""
    if d1 < 0 or d0 < 0 or finesse < 1:
        raise ValueError("require d1 >= 0, d0 >= 0, finesse >= 1")
    x = d1 / finesse
    return x * x * math.exp(-x) * math.exp(-7.0 / finesse**2) * math.exp(-d0)


@dataclass(frozen=True)
class AfcChannel:
    d1: float
    teeth_spacing_mhz: float = 6.58
    finesse: float = 2.0
    d0: float = 1.7

    def __post_init__(self):
        if self.d1 < 0 or self.d0 < 0:
            raise ValueError("absorption depths must be nonnegative")
        if self.finesse < 1:
            raise ValueError("finesse must be >= 1")
        if self.teeth_spacing_mhz <= 0:
            raise ValueError("teeth spacing must be positive")

    @property
    def efficiency(self) -> float:
        return afc_efficiency(self.d1, self.finesse, self.d0)

    @property
    def storage_time_ns(self) -> float:
        return storage_time_ns(self.teeth_spacing_mhz)


@dataclass(frozen=True)
class MemoryBank:
    channels: tuple[AfcChannel, ...] = tuple(AfcChannel(d1=d1) for d1 in DEFAULT_D1)
    transmission_efficiency: float = 0.26
    noise_rate_hz: float = 50.0

    def __post_init__(self):
        if len(self.channels) != len(CHANNEL_OFFSETS_GHZ):
            raise ValueError("a memory bank has exactly five channels")
        if not 0 < self.transmission_efficiency <= 1:
            raise ValueError("transmission efficiency must be in (0, 1]")
        if self.noise_rate_hz < 0:
            raise ValueError("noise rate must be nonnegative")


def storage_survival(bank: MemoryBank, channel_index: int) -> float:
    """End-to-end recall probability: internal AFC efficiency x transmission."""
    return bank.channels[channel_index].efficiency * bank.transmission_efficiency


# --- storage-time dependence -------------------------------------------
#
# The efficiency grid is tabulated, not modeled; we fit an effective comb
# contrast decay d1(t) = d1_0 exp(-t / tau) per channel as a calibration
# artifact.  The grid itself stays the ground truth.  The fit holds the
# finesse and d0 that the calibrated channels share fixed.

_DECAY_COMB = MemoryBank().channels[0]
_DECAY_SCALE = math.exp(-7.0 / _DECAY_COMB.finesse**2) * math.exp(-_DECAY_COMB.d0)


def _decay_efficiency_pct(d1_0, tau_ns, t_ns):
    """Efficiency (%) of the default comb with d1(t) = d1_0 exp(-t / tau)."""
    x = d1_0 * np.exp(-np.asarray(t_ns, dtype=float) / tau_ns) / _DECAY_COMB.finesse
    return 100.0 * x * x * np.exp(-x) * _DECAY_SCALE


@dataclass(frozen=True)
class DecayFit:
    d1_0: float
    tau_ns: float
    max_residual_pct: float
    fitted_times_ns: tuple[float, ...]
    excluded_times_ns: tuple[float, ...]

    def efficiency_pct(self, t_ns):
        return _decay_efficiency_pct(self.d1_0, self.tau_ns, t_ns)


def non_monotone_rows(efficiencies_pct) -> list[int]:
    """Indices of a storage-time column where the efficiency rises against
    the decay trend."""
    vals = np.asarray(efficiencies_pct, dtype=float)
    return [i for i in range(1, len(vals)) if vals[i] > vals[i - 1]]


def fit_decay_model(times_ns, efficiencies_pct) -> DecayFit:
    """Fit (d1_0, tau) to a storage-time/efficiency column.

    Least-squares fit followed by a minimax (Chebyshev) polish on the
    absolute residual in percentage points; non-monotone rows are excluded
    (they cannot be represented by a decay law).
    """
    times = np.asarray(times_ns, dtype=float)
    vals = np.asarray(efficiencies_pct, dtype=float)
    keep = np.ones(len(times), dtype=bool)
    keep[non_monotone_rows(vals)] = False
    t_fit, v_fit = times[keep], vals[keep]
    if len(t_fit) < 3:
        raise ValueError("need at least three rows to fit the decay model")
    from scipy import optimize

    def residual(params):
        return _decay_efficiency_pct(params[0], params[1], t_fit) - v_fit

    lsq = optimize.least_squares(residual, x0=[2.5, 200.0], bounds=([0.1, 10.0], [10.0, 5000.0]))
    cheb = optimize.minimize(
        lambda p: np.max(np.abs(residual(p))),
        lsq.x,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    params = cheb.x if cheb.fun <= np.max(np.abs(residual(lsq.x))) else lsq.x
    return DecayFit(
        d1_0=float(params[0]),
        tau_ns=float(params[1]),
        max_residual_pct=float(np.max(np.abs(residual(params)))),
        fitted_times_ns=tuple(float(t) for t in t_fit),
        excluded_times_ns=tuple(float(t) for t in times[~keep]),
    )
