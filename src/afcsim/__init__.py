"""Simulator and analysis toolkit for a five-channel atomic-frequency-comb
photonic memory that stores one half of time-bin entangled photon pairs.

Subpackages cover the full measurement chain: entangled-pair source models,
the spectrally multiplexed AFC memory, unbalanced Mach-Zehnder qubit
analyzers with click-level detector simulation, Bell/Franson analysis, and
maximum-likelihood state tomography.  The ``afcsim`` CLI drives end-to-end
simulated runs and re-analyzes the bundled reference datasets.
"""

from afcsim.states import (
    BASIS_LABELS,
    bell_psi_plus,
    concurrence,
    entanglement_of_formation,
    fidelity,
    nearest_psd,
    purity,
    werner_state,
)

__all__ = [
    "BASIS_LABELS",
    "bell_psi_plus",
    "concurrence",
    "entanglement_of_formation",
    "fidelity",
    "nearest_psd",
    "purity",
    "werner_state",
]

__version__ = "0.1.0"
