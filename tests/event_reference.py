"""Event-level g2 counting: the tallies of clicks given as times.

``pipeline.acquire_g2`` draws a run's per-cycle occupancy from its law and
builds no click, so it no longer calls these.  The tests keep them as the
reference the law is checked against (``_full_sampling_g2_tallies`` in
``test_pipeline.py``).
"""

from dataclasses import dataclass

import numpy as np

from afcsim.analyzer import CoincidenceConfig, _fold_cycles, _same_cycle


def _window_cycles(rel: np.ndarray, period_ps: float, window_ps: float):
    """The cycle of each event, given by its time ``rel`` after the clock
    reference, and whether it lies within the coincidence window of that
    cycle's arrival time.  The cycle is the whole periods of ``rel + period
    / 2`` (``analyzer._fold_cycles``), the old ``round((rel - phase) /
    period)`` with half a period to spare."""
    cycles, phase = _fold_cycles(rel + period_ps / 2, period_ps, period_ps / 2)
    phase -= period_ps / 2
    if cycles is None:
        cycles = np.round((rel - phase) / period_ps).astype(np.int64)
    return cycles, np.abs(phase, out=phase) <= window_ps / 2.0


def _occupied_cycles(rel: np.ndarray, period_ps: float, window_ps: float) -> np.ndarray:
    """The sorted distinct cycles that hold an event within the window
    (:func:`_window_cycles`)."""
    cycles, in_window = _window_cycles(rel, period_ps, window_ps)
    return np.unique(cycles[in_window])


@dataclass(frozen=True)
class G2Tallies:
    coincidences: int
    signal_singles: int
    idler_singles: int


def g2_tallies(
    signal_times_ps: np.ndarray,
    idler_times_ps: np.ndarray,
    clock_period_ns: float,
    cfg: CoincidenceConfig,
    *,
    signal_ref_ps: float = 0.0,
) -> G2Tallies:
    """Per-clock-cycle occupancy tallies for the cross-correlation.

    An event counts toward its cycle when it lies within the coincidence
    window of the clock-referenced arrival time; a coincidence is a cycle
    with both a signal and an idler event.  The idler clicks are the clock
    reference; ``signal_ref_ps`` absorbs the signal side's fixed delay.
    Events may come in any order.
    """
    period_ps = clock_period_ns * 1e3
    s_cycles = _occupied_cycles(
        np.asarray(signal_times_ps, dtype=float) - signal_ref_ps, period_ps, cfg.window_ps
    )
    i_cycles = _occupied_cycles(np.asarray(idler_times_ps, dtype=float), period_ps, cfg.window_ps)
    _, n = _same_cycle(i_cycles, s_cycles, 0)
    return G2Tallies(
        coincidences=int(np.count_nonzero(n)),
        signal_singles=int(s_cycles.size),
        idler_singles=int(i_cycles.size),
    )
