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

# (idler_port, idler_slot, signal_port, signal_slot) of each flat index
# into a (2, 3, 2, 3) outcome table, the layout shared by the Born-rule
# probabilities and the threefold counts; indexing these is cheaper than
# ``np.unravel_index`` on every sampled outcome.
_OUTCOME_INDEX = np.unravel_index(np.arange(36), (2, 3, 2, 3))

# power-of-two bin count of the outcome lookup in ``sample_pair_outcomes``
_BINS = 2**12


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

    All 36 joint elements are one broadcast product, entry for entry the
    single multiply ``np.kron`` makes, and one batched ``matmul`` and trace.
    """
    m = np.asarray(rho, dtype=complex)
    e_idler = umzi_povm(alpha_rad)
    e_signal = umzi_povm(beta_rad)
    # [ip, isl, sp, ssl, i, k, j, l] = E_signal[sp, ssl][i, j] * E_idler[ip, isl][k, l]
    ops = (
        e_signal[None, None, :, :, :, None, :, None]
        * e_idler[:, :, None, None, None, :, None, :]
    ).reshape(2, 3, 2, 3, 4, 4)
    return np.trace(m @ ops, axis1=-2, axis2=-1).real.copy()


def middle_middle(table) -> np.ndarray:
    """The four interfering (middle, middle) cells of a ``(..., 2, 3, 2, 3)``
    outcome table, counts or probabilities, as ``(..., 2, 2)`` over
    (idler_port, signal_port): reshaped to 4 they follow (A1B1, A1B2, A2B1,
    A2B2)."""
    return np.asarray(table)[..., :, SLOT_MIDDLE, :, SLOT_MIDDLE]


def sample_pair_outcomes(rho, alpha_rad: float, beta_rad: float, n: int, rng: np.random.Generator):
    """Sample n joint outcomes from the Born-rule table.

    Returns (idler_port, idler_slot, signal_port, signal_slot) int arrays.

    A uniform draw u selects the flat cell ``searchsorted(cum, u,
    side="right")`` of the cumulative table.  That lookup goes through
    ``_BINS`` equal bins of [0, 1) and is exact: ``u * _BINS`` scales by a
    power of two, so its floor b is exactly the bin [b, b + 1) / _BINS that
    holds u.  In a bin with no cumulative value strictly inside it, every u
    has the cell of the bin's left edge; only draws in the other bins (at
    most 35 of them) fall back to ``searchsorted``, on the draws themselves
    (``u * _BINS / _BINS`` is u again).
    """
    table = project_pair(rho, alpha_rad, beta_rad)
    probs = np.clip(table.reshape(-1), 0.0, None)
    cum = np.cumsum(probs)
    cum /= cum[-1]
    edges = np.arange(_BINS + 1) / _BINS
    cell = np.searchsorted(cum, edges[:-1], side="right")
    split = np.searchsorted(cum, edges[1:], side="left") != cell
    u = rng.random(n)
    u *= _BINS
    bins = u.astype(np.intp)
    fallback = np.flatnonzero(split.take(bins))
    fallback_cell = np.searchsorted(cum, u[fallback] / _BINS, side="right")
    del u  # free the draws before the four outcome arrays are allocated
    outcomes = []
    for index in _OUTCOME_INDEX:
        values = index.take(cell).take(bins)
        values[fallback] = index.take(fallback_cell)
        outcomes.append(values)
    return tuple(outcomes)


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
        kept = np.compress(rng.random(times.size) < det.efficiency, times)
        if det.jitter_sigma_ps > 0:
            kept += rng.normal(0.0, det.jitter_sigma_ps, size=kept.size)
        n_dark = rng.poisson(det.dark_count_rate_hz * duration_s)
        dark = rng.uniform(0.0, duration_s * 1e12, size=n_dark)
        stream = np.concatenate([kept, dark])
        # jittered arrivals are nearly sorted already, the stable sort's
        # fast case; equal times compare equal in every later step, so the
        # order it leaves them in does not show
        stream.sort(kind="stable")
        streams[name] = stream
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


def _fold_cycles(rel: np.ndarray, period_ps: float, slack_ps: float):
    """Split relative times into whole clock periods and a phase.

    Returns ``(k, phase)``: ``phase`` equals ``np.mod(rel, period_ps)`` bit
    for bit, and ``k`` is the int64 floor of ``rel / period_ps``.  A
    caller's cycle index is ``k`` plus a wrap it reads off ``phase``;
    ``slack_ps`` is the least distance its old formula, ``round((rel -
    center) / period)``, keeps from a rounding boundary.

    No ``np.mod``: ``k`` starts as ``rel / period`` cast to int64, which is
    the floor or one more; ``phase = rel - k * period``; where that is
    negative, ``k`` steps down and ``phase`` gains a period.  With a
    whole-number period and ``|rel| + period < 2**53``, ``k * period`` is an
    exact integer, so ``rel - k * period`` is rounded once, and not at all
    when negative (it is then smaller than ``rel`` and a multiple of its
    last place); adding the period rounds once.  Either way ``phase`` is the
    real remainder rounded once, as ``np.mod`` returns it: the exact
    ``fmod``, plus one rounded period when ``fmod`` is negative.  If also
    ``|rel| + period < slack * 2**51``, the float error of the old formula
    is below the slack, so it gave ``k`` plus the wrap.  Where a bound fails
    (a fractional period in ps, absurd times), ``k`` is None and ``phase``
    is ``np.mod`` itself, for the old formula.
    """
    bound = min(2.0**53, slack_ps * 2.0**51)
    if not (rel.size and period_ps.is_integer() and max(rel.max(), -rel.min()) + period_ps < bound):
        return None, np.mod(rel, period_ps)
    phase = rel / period_ps
    k = phase.astype(np.int64)
    np.multiply(k, period_ps, out=phase)
    np.subtract(rel, phase, out=phase)
    phase += 0.0  # a time of -0.0 gets np.mod's +0.0 phase
    over = np.flatnonzero(phase < 0)
    k[over] -= 1
    phase[over] += period_ps
    return k, phase


def _classify_slots(
    rel_ps: np.ndarray,
    clock_period_ns: float,
    slot_spacing_ns: float,
    window_ps: float,
):
    """Assign each event, given by its time after the clock reference, the
    slot center nearest its phase in the clock period (centers at 0,
    spacing and 2 * spacing; ties go to the earlier slot, and past the
    midpoint between the late slot and the period an event belongs to the
    next cycle's early slot).  Events farther than window/2 from that center
    are unclassified.

    Returns (cycle, slot, classified_mask), with cycle and slot for the
    classified events only.  The nearest center lies within half a period
    minus one spacing, so the cycle is the whole periods of
    :func:`_fold_cycles` plus the wrap into the next cycle.
    """
    period_ps = clock_period_ns * 1e3
    spacing_ps = slot_spacing_ns * 1e3
    if not 2 * spacing_ps < period_ps:
        raise ValueError("the three slots must fit in one clock period (2 * spacing < period)")
    rel = np.asarray(rel_ps, dtype=float)
    cycle, phase = _fold_cycles(rel, period_ps, spacing_ps)
    # slot boundaries at the midpoints between centers (halving is exact)
    wraps = phase >= (period_ps + 2 * spacing_ps) / 2
    slot = np.add(phase > spacing_ps / 2, phase > 3 * spacing_ps / 2, dtype=np.int8)
    slot *= ~wraps
    if cycle is None:
        cycle = np.round((rel - slot * spacing_ps) / period_ps).astype(np.int64)
    else:
        cycle += wraps
    # distance to the nearest center: the slot's, or the next cycle's early slot
    distance = slot * spacing_ps
    np.copyto(distance, period_ps, where=wraps)
    distance -= phase
    np.abs(distance, out=distance)
    ok = distance <= window_ps / 2.0
    return np.compress(ok, cycle), np.compress(ok, slot), ok


def _classified_ports(ports, classified: np.ndarray) -> np.ndarray:
    """The ports of the classified events, after checking every port."""
    ports = np.asarray(ports, dtype=np.int64)
    if ports.shape != classified.shape:
        raise ValueError(
            f"need one port per event: {ports.shape} ports for {classified.shape} events"
        )
    if ports.size and (ports.min() < 0 or ports.max() > 1):
        raise ValueError("ports must be 0 or 1 (port k has index k - 1)")
    return np.compress(classified, ports)


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
    slot_spacing_ns: float,
    n_cycles: int,
    signal_ref_ps: float = 0.0,
) -> ThreefoldCounts:
    """Count signal-idler coincidences triggered by the system clock, over
    an acquisition of ``n_cycles`` clock cycles.

    Each detection is assigned an arrival slot from its timestamp modulo the
    clock period (slot centers 0, 1 and 2 slot spacings after the
    clock-referenced short-short arrival).  The idler clicks are the clock
    reference; ``signal_ref_ps`` absorbs the signal side's fixed path or
    storage delay.  Events in the same clock cycle are paired and tallied
    per (slot, port) cell.

    Events may come in any order.  Time-sorted idler events (what
    ``detect`` returns), or a few time-sorted runs of them (each port's
    clicks in turn), are the linear-time case: their cycle indices are
    sorted within each run, so the one stable sort merges the runs.  The
    signal events are looked up, not sorted.
    """
    ic, isl, i_ok = _classify_slots(
        idler_times_ps, clock_period_ns, slot_spacing_ns, cfg.window_ps
    )
    sc, ssl, s_ok = _classify_slots(
        np.asarray(signal_times_ps, dtype=float) - signal_ref_ps,
        clock_period_ns,
        slot_spacing_ns,
        cfg.window_ps,
    )
    # flat index of counts[idler_port, idler_slot, signal_port, signal_slot],
    # split into its idler and signal parts
    i_cell = _classified_ports(idler_ports, i_ok) * 18
    i_cell += isl * 6
    s_cell = _classified_ports(signal_ports, s_ok) * 3 + ssl

    # one sorted key per idler event: its cycle, and its cell (< 64) in the
    # low six bits, so that a cycle's events form one run of keys
    i_key = np.left_shift(ic, 6, out=ic)
    i_key += i_cell
    i_key.sort(kind="stable")

    # pair every idler event with every signal event in the same cycle; the
    # signal side (narrower band, thinned by storage) is the smaller one, so
    # the expansion runs over signal events
    lo = np.searchsorted(i_key, sc << 6, side="left")
    hi = np.searchsorted(i_key, (sc + 1) << 6, side="left")
    s_idx, i_idx = _expand_matches(lo, hi)
    counts = np.bincount((i_key[i_idx] & 63) + s_cell[s_idx], minlength=36).reshape(2, 3, 2, 3)
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
) -> G2Tallies:
    """Per-clock-cycle occupancy tallies for the cross-correlation.

    An event counts toward its cycle when it lies within the coincidence
    window of the clock-referenced arrival time; a coincidence is a cycle
    with both a signal and an idler event.  The idler clicks are the clock
    reference; ``signal_ref_ps`` absorbs the signal side's fixed delay.

    Events may come in any order.  Time-sorted streams (what ``detect``
    returns) are the linear-time case: their cycle indices are already
    sorted, so the stable sort costs one pass.  The cycle of an event is
    the whole periods of ``rel + period / 2`` (:func:`_fold_cycles`), the
    old ``round((rel - phase) / period)`` with half a period to spare.
    """
    period_ps = clock_period_ns * 1e3

    def occupied(rel):
        cycles, phase = _fold_cycles(rel + period_ps / 2, period_ps, period_ps / 2)
        phase -= period_ps / 2
        if cycles is None:
            cycles = np.round((rel - phase) / period_ps).astype(np.int64)
        in_window = np.abs(phase, out=phase) <= cfg.window_ps / 2.0
        del phase  # free it before the selection: a long g2 run's peak memory
        cycles = np.compress(in_window, cycles)
        cycles.sort(kind="stable")
        first = np.ones(cycles.size, dtype=bool)
        first[1:] = cycles[1:] != cycles[:-1]
        return np.compress(first, cycles)

    s_cycles = occupied(np.asarray(signal_times_ps, dtype=float) - signal_ref_ps)
    i_cycles = occupied(np.asarray(idler_times_ps, dtype=float))
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
