"""Time-bin qubit analyzers: UMZI projection POVMs, the click-level detector
model, and two-/three-fold coincidence counting.

Each analyzer is an unbalanced Mach-Zehnder interferometer whose arm
imbalance equals the time-bin separation (the source pulse interval),
followed by two detectors (ports 1 and 2).  That match is the Franson
condition for the middle slot to interfere; ``umzi_povm`` assumes it, so
the arm delay is not a setting.  The phase (alpha on the idler side, beta
on the signal side) is a per-acquisition setting, not configuration.

A photon lands in one of three arrival slots: early (short arm, early
bin), late (long arm, late bin), or the interfering middle slot.  The
six (port, slot) outcomes form a complete POVM:

    E(port, early)  = 1/4 |e><e|
    E(port, late)   = 1/4 |l><l|
    E(port k, mid)  = 1/4 |u_k><u_k|,   |u_k> = |e> + (-1)^k e^{-i phi} |l>

with |u_k> unnormalized; the six elements sum to the identity.  The middle
slot of port 2 projects onto (|e> + e^{-i phi}|l>)/sqrt(2), the "energy
basis" used for tomography.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectorConfig",
    "CoincidenceConfig",
    "SLOT_EARLY",
    "SLOT_MIDDLE",
    "SLOT_LATE",
    "umzi_povm",
    "project_pair",
    "middle_middle",
    "sample_pair_outcomes",
    "detect",
    "coincidence_histogram",
    "ThreefoldCounts",
    "threefold_counts",
    "G2Tallies",
    "g2_tallies",
    "g2_cross",
]

SLOT_EARLY, SLOT_MIDDLE, SLOT_LATE = 0, 1, 2
SLOT_NAMES = ("early", "middle", "late")

# (idler_port, idler_slot, signal_port, signal_slot) of each flat index
# into a (2, 3, 2, 3) outcome table, the layout shared by the Born-rule
# probabilities and the threefold counts; indexing these is cheaper than
# ``np.unravel_index`` on every sampled outcome.
_OUTCOME_INDEX = np.unravel_index(np.arange(36), (2, 3, 2, 3))


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float = 0.70
    dark_count_rate_hz: float = 10.0
    jitter_sigma_ps: float = 40.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError("detector efficiency must be in (0, 1]")
        if self.dark_count_rate_hz < 0 or self.jitter_sigma_ps < 0:
            raise ValueError("dark count rate and jitter must be nonnegative")


@dataclass(frozen=True)
class CoincidenceConfig:
    window_ps: float = 600.0
    histogram_bin_ps: float = 100.0

    def __post_init__(self):
        if not self.window_ps >= self.histogram_bin_ps > 0:
            raise ValueError("require window >= histogram bin > 0")


def umzi_povm(phase_rad: float) -> np.ndarray:
    """The six POVM elements, shape (2, 3, 2, 2) indexed [port, slot].

    Ports are 0-indexed (index k-1 for port k); slots follow SLOT_EARLY,
    SLOT_MIDDLE, SLOT_LATE.
    """
    e = np.array([1.0, 0.0], dtype=complex)
    l = np.array([0.0, 1.0], dtype=complex)
    out = np.zeros((2, 3, 2, 2), dtype=complex)
    for k in (1, 2):
        u = e + (-1) ** k * np.exp(-1j * phase_rad) * l
        out[k - 1, SLOT_EARLY] = 0.25 * np.outer(e, e.conj())
        out[k - 1, SLOT_MIDDLE] = 0.25 * np.outer(u, u.conj())
        out[k - 1, SLOT_LATE] = 0.25 * np.outer(l, l.conj())
    return out


def project_pair(rho, alpha_rad: float, beta_rad: float) -> np.ndarray:
    """Joint outcome probabilities, shape (2, 3, 2, 3) indexed
    [idler_port, idler_slot, signal_port, signal_slot].

    alpha is the idler-side UMZI phase, beta the signal side.  The state
    lives in the (signal x idler) tensor ordering of the ee/el/le/ll basis,
    so the joint element is kron(E_signal, E_idler).  Entries sum to 1.
    """
    m = np.asarray(rho, dtype=complex)
    e_idler = umzi_povm(alpha_rad)
    e_signal = umzi_povm(beta_rad)
    table = np.empty((2, 3, 2, 3))
    for ip in range(2):
        for isl in range(3):
            for sp in range(2):
                for ssl in range(3):
                    op = np.kron(e_signal[sp, ssl], e_idler[ip, isl])
                    table[ip, isl, sp, ssl] = np.trace(m @ op).real
    return table


def middle_middle(table) -> np.ndarray:
    """The four interfering (middle, middle) cells of a ``(..., 2, 3, 2, 3)``
    outcome table, counts or probabilities, as ``(..., 2, 2)`` over
    (idler_port, signal_port): reshaped to 4 they follow (A1B1, A1B2, A2B1,
    A2B2)."""
    return np.asarray(table)[..., :, SLOT_MIDDLE, :, SLOT_MIDDLE]


def sample_pair_outcomes(rho, alpha_rad: float, beta_rad: float, n: int, rng: np.random.Generator):
    """Sample n joint outcomes from the Born-rule table.

    Returns (idler_port, idler_slot, signal_port, signal_slot) int arrays.
    """
    table = project_pair(rho, alpha_rad, beta_rad)
    probs = np.clip(table.reshape(-1), 0.0, None)
    cum = np.cumsum(probs)
    cum /= cum[-1]
    flat = np.searchsorted(cum, rng.random(n), side="right")
    return tuple(index[flat] for index in _OUTCOME_INDEX)


def detect(
    arrivals: dict[str, np.ndarray],
    det: DetectorConfig,
    duration_s: float,
    seed: int,
) -> dict[str, np.ndarray]:
    """Click-level detector model.

    Each photon arrival (ps timestamps per detector) is kept with the
    detector efficiency, smeared by Gaussian jitter, and merged with Poisson
    dark counts spread uniformly over the duration.  Deterministic per seed.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    streams: dict[str, np.ndarray] = {}
    children = np.random.SeedSequence(seed).spawn(len(arrivals))
    for child, name in zip(children, sorted(arrivals)):
        rng = np.random.default_rng(child)
        times = np.asarray(arrivals[name], dtype=float)
        kept = times[rng.random(times.size) < det.efficiency]
        if det.jitter_sigma_ps > 0:
            kept = kept + rng.normal(0.0, det.jitter_sigma_ps, size=kept.size)
        n_dark = rng.poisson(det.dark_count_rate_hz * duration_s)
        dark = rng.uniform(0.0, duration_s * 1e12, size=n_dark)
        streams[name] = np.sort(np.concatenate([kept, dark]))
    return streams


def coincidence_histogram(
    stream_a: np.ndarray,
    stream_b: np.ndarray,
    cfg: CoincidenceConfig,
    span_ns: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of pairwise time differences t_b - t_a over +-span.

    Returns (bin_centers_ps, counts).  Streams must be time sorted.
    """
    a = np.asarray(stream_a, dtype=float)
    b = np.asarray(stream_b, dtype=float)
    for s in (a, b):
        if s.size > 1 and np.any(np.diff(s) < 0):
            raise ValueError("streams must be time sorted")
    span_ps = span_ns * 1e3
    nbins = int(np.ceil(2 * span_ps / cfg.histogram_bin_ps))
    edges = np.linspace(-span_ps, span_ps, nbins + 1)
    lo = np.searchsorted(b, a - span_ps, side="left")
    hi = np.searchsorted(b, a + span_ps, side="right")
    a_idx, b_idx = _expand_matches(lo, hi)
    counts = np.histogram(b[b_idx] - a[a_idx], bins=edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


def _expand_matches(lo: np.ndarray, hi: np.ndarray):
    """Expand per-row half-open index ranges [lo, hi) into flat index pairs.

    Returns (row_index, column_index) arrays covering every (row, j) with
    lo[row] <= j < hi[row]; fully vectorized.
    """
    counts = (hi - lo).clip(min=0)
    total = int(counts.sum())
    rows = np.repeat(np.arange(lo.size), counts)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    cols = np.repeat(lo, counts) + (np.arange(total) - np.repeat(starts, counts))
    return rows, cols


def _classify_slots(
    times_ps: np.ndarray,
    clock_period_ns: float,
    slot_spacing_ns: float,
    window_ps: float,
    ref_ps: float,
):
    """Assign each event the slot center nearest its phase in the clock
    period (centers at 0, spacing and 2 * spacing; ties go to the earlier
    slot, and past the midpoint between the late slot and the period an
    event belongs to the next cycle's early slot).  Events farther than
    window/2 from that center are unclassified.

    Returns (cycle, slot, classified_mask), with cycle and slot for the
    classified events only.
    """
    period_ps = clock_period_ns * 1e3
    spacing_ps = slot_spacing_ns * 1e3
    if not 2 * spacing_ps < period_ps:
        raise ValueError("the three slots must fit in one clock period (2 * spacing < period)")
    rel = np.asarray(times_ps, dtype=float) - ref_ps
    phase = np.mod(rel, period_ps)
    twice = 2 * phase
    wraps = twice >= period_ps + 2 * spacing_ps
    slot = np.add(twice > spacing_ps, twice > 3 * spacing_ps, dtype=np.int64)
    slot *= ~wraps
    center = slot * spacing_ps
    ok = np.abs(phase - np.where(wraps, period_ps, center)) <= window_ps / 2.0
    cycle = np.round((rel[ok] - center[ok]) / period_ps).astype(np.int64)
    return cycle, slot[ok], ok


def _checked_ports(ports) -> np.ndarray:
    ports = np.asarray(ports, dtype=np.int64)
    if ports.size and (ports.min() < 0 or ports.max() > 1):
        raise ValueError("ports must be 0 or 1 (port k has index k - 1)")
    return ports


def _same_cycle_pairs(query_cycles: np.ndarray, table_cycles: np.ndarray):
    """Index pairs (query, table) of every two events in the same cycle;
    ``table_cycles`` must be sorted."""
    lo = np.searchsorted(table_cycles, query_cycles, side="left")
    hi = np.searchsorted(table_cycles, query_cycles, side="right")
    return _expand_matches(lo, hi)


@dataclass(frozen=True)
class ThreefoldCounts:
    """Clock-triggered coincidence counts resolved by port and slot.

    ``counts[idler_port, idler_slot, signal_port, signal_slot]``, the layout
    of :func:`project_pair`; events that fall outside every slot window are
    tallied in ``unclassified``.
    """

    counts: np.ndarray
    unclassified_idler: int
    unclassified_signal: int
    n_cycles: int


def threefold_counts(
    idler_times_ps: np.ndarray,
    idler_ports: np.ndarray,
    signal_times_ps: np.ndarray,
    signal_ports: np.ndarray,
    clock_period_ns: float,
    cfg: CoincidenceConfig,
    *,
    slot_spacing_ns: float = 1.25,
    idler_ref_ps: float = 0.0,
    signal_ref_ps: float = 0.0,
    n_cycles: int | None = None,
) -> ThreefoldCounts:
    """Count signal-idler coincidences triggered by the system clock.

    Each detection is assigned an arrival slot from its timestamp modulo the
    clock period (slot centers at 0, +1.25, +2.5 ns relative to the
    clock-referenced short-short arrival; the per-side reference absorbs any
    fixed path or storage delay).  Events in the same clock cycle are paired
    and tallied per (slot, port) cell.

    Events may come in any order.  Time-sorted streams (what ``detect``
    returns) are the linear-time case: their cycle indices are already
    sorted, so the stable sorts below cost one pass.
    """
    ic, isl, i_ok = _classify_slots(
        idler_times_ps, clock_period_ns, slot_spacing_ns, cfg.window_ps, idler_ref_ps
    )
    sc, ssl, s_ok = _classify_slots(
        signal_times_ps, clock_period_ns, slot_spacing_ns, cfg.window_ps, signal_ref_ps
    )
    # flat index of counts[idler_port, idler_slot, signal_port, signal_slot],
    # split into its idler and signal parts
    i_cell = _checked_ports(idler_ports)[i_ok] * 18 + isl * 6
    s_cell = _checked_ports(signal_ports)[s_ok] * 3 + ssl

    order_i = np.argsort(ic, kind="stable")
    ic, i_cell = ic[order_i], i_cell[order_i]
    order_s = np.argsort(sc, kind="stable")
    sc, s_cell = sc[order_s], s_cell[order_s]

    # pair every idler event with every signal event in the same cycle; the
    # signal side (narrower band, thinned by storage) is the smaller one, so
    # the expansion runs over signal events
    s_idx, i_idx = _same_cycle_pairs(sc, ic)
    counts = np.bincount(i_cell[i_idx] + s_cell[s_idx], minlength=36).reshape(2, 3, 2, 3)

    if n_cycles is None:
        top = 0
        for arr in (ic, sc):
            if arr.size:
                top = max(top, int(arr[-1]) + 1)
        n_cycles = top
    return ThreefoldCounts(
        counts=counts,
        unclassified_idler=int(i_ok.size - np.count_nonzero(i_ok)),
        unclassified_signal=int(s_ok.size - np.count_nonzero(s_ok)),
        n_cycles=n_cycles,
    )


@dataclass(frozen=True)
class G2Tallies:
    coincidences: int
    signal_singles: int
    idler_singles: int
    n_cycles: int


def g2_tallies(
    signal_times_ps: np.ndarray,
    idler_times_ps: np.ndarray,
    clock_period_ns: float,
    cfg: CoincidenceConfig,
    n_cycles: int,
    *,
    signal_ref_ps: float = 0.0,
    idler_ref_ps: float = 0.0,
) -> G2Tallies:
    """Per-clock-cycle occupancy tallies for the cross-correlation.

    An event counts toward its cycle when it lies within the coincidence
    window of the clock-referenced arrival time; a coincidence is a cycle
    with both a signal and an idler event.

    Events may come in any order.  Time-sorted streams (what ``detect``
    returns) are the linear-time case: their cycle indices are already
    sorted, so the stable sort costs one pass.
    """
    period_ps = clock_period_ns * 1e3

    def occupied(times, ref):
        rel = np.asarray(times, dtype=float) - ref
        phase = np.mod(rel + period_ps / 2, period_ps) - period_ps / 2
        ok = np.abs(phase) <= cfg.window_ps / 2.0
        cycles = np.round((rel[ok] - phase[ok]) / period_ps).astype(np.int64)
        cycles = np.sort(cycles, kind="stable")
        first = np.ones(cycles.size, dtype=bool)
        first[1:] = cycles[1:] != cycles[:-1]
        return cycles[first]

    s_cycles = occupied(signal_times_ps, signal_ref_ps)
    i_cycles = occupied(idler_times_ps, idler_ref_ps)
    in_both = np.searchsorted(i_cycles, s_cycles, side="right") > np.searchsorted(
        i_cycles, s_cycles, side="left"
    )
    return G2Tallies(
        coincidences=int(np.count_nonzero(in_both)),
        signal_singles=int(s_cycles.size),
        idler_singles=int(i_cycles.size),
        n_cycles=n_cycles,
    )


def g2_cross(tallies: G2Tallies) -> float:
    """Second-order cross-correlation P_si / (P_s P_i), probabilities per
    clock cycle."""
    if tallies.signal_singles <= 0 or tallies.idler_singles <= 0:
        raise ValueError("zero singles; g2 undefined")
    n = tallies.n_cycles
    p_si = tallies.coincidences / n
    p_s = tallies.signal_singles / n
    p_i = tallies.idler_singles / n
    return p_si / (p_s * p_i)
