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

What depends only on a phase or on the click geometry is built once per
process (:func:`_memoized`): a phase's POVM, the landing table and the
landing reach.  That is safe because each is a pure function of the values
it is keyed by (floats, never an object's identity), its arrays are
read-only, and at most 64 are kept in a thread-safe ``lru_cache``; the
Born-rule table of a setting is built per acquisition.
"""

from __future__ import annotations

import functools
import math
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
    "PairClicks",
    "pair_threefold_counts",
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

# the flat cells of the (2, 3, 2, 3) outcome table, as the lookup's int8
_CELL_INDEX = np.arange(36, dtype=np.int8)

# signal events per block of the pair walk in ``threefold_counts``
_WALK_BLOCK = 2**16


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


def _memoized(build):
    """``build``, a pure function of hashable values, memoized by the
    values of its arguments (:func:`functools.lru_cache`, safe to share
    across threads): each result is built once and is read-only where it
    is an array or a tuple of arrays, and the 64 most recently used are
    kept.  ``__wrapped__`` is ``build`` itself."""

    def read_only(*key):
        value = build(*key)
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return value

    return functools.update_wrapper(functools.lru_cache(maxsize=64)(read_only), build)


def umzi_povm(phase_rad: float) -> np.ndarray:
    """The six POVM elements, shape (2, 3, 2, 2) indexed [port, slot].

    Ports are 0-indexed (index k-1 for port k); slots follow SLOT_EARLY,
    SLOT_MIDDLE, SLOT_LATE.  The elements of a phase are built once
    (:func:`_memoized`, keyed by the phase's exact float value, so -0.0 is
    not 0.0) and are read-only.
    """
    return _umzi_povm(float(phase_rad).hex())


@_memoized
def _umzi_povm(phase_hex: str) -> np.ndarray:
    phase_rad = float.fromhex(phase_hex)
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


def _cell_lookup(rho, alpha_rad: float, beta_rad: float):
    """The Born-rule table of one setting (:func:`project_pair`) as
    :func:`_sample_cells` draws from it: ``(probs, cum, cell, split)``, the
    table clipped at zero and normalized, shape ``(2, 3, 2, 3)``, its
    cumulative flat table, and per bin of ``_BINS`` the cell of its left
    edge and whether a cumulative value lies strictly inside it.  A caller
    that draws several sets of cells at one setting builds it once.

    Both come from the scaled values x_j = cum_j * _BINS, exact as a
    power-of-two scaling, with no search: bin b's left edge b / _BINS lies
    at or past cum_j when ceil(x_j) <= b, so cell j fills the bins from
    ceil(x_(j-1)) up to ceil(x_j) (x_35 = _BINS, as cum ends at 1), the
    ``searchsorted(cum, b / _BINS, side="right")`` of each; and cum_j lies
    strictly inside bin floor(x_j) when x_j is not whole."""
    table = project_pair(rho, alpha_rad, beta_rad).clip(0.0, None)
    cum = table.reshape(-1).cumsum()
    cum /= cum[-1]
    scaled = cum * _BINS
    top = np.ceil(scaled)
    edge = top.astype(np.intp)
    cell = _CELL_INDEX.repeat(edge - np.concatenate(([0], edge[:-1])))
    split = np.zeros(_BINS, dtype=bool)
    split[scaled[top != scaled].astype(np.intp)] = True
    return table / table.sum(), cum, cell, split


def _sample_cells(lookup, n: int, rng: np.random.Generator):
    """Sample n joint outcomes from the Born-rule table of ``lookup``
    (:func:`_cell_lookup`), as int8 flat cells of the ``(2, 3, 2, 3)`` table.

    A uniform draw u selects the flat cell ``searchsorted(cum, u,
    side="right")`` of the cumulative table.  That lookup goes through
    ``_BINS`` equal bins of [0, 1) and is exact: ``u * _BINS`` scales by a
    power of two, so its floor b is exactly the bin [b, b + 1) / _BINS that
    holds u.  In a bin with no cumulative value strictly inside it, every u
    has the cell of the bin's left edge; only draws in the other bins (at
    most 35 of them) fall back to ``searchsorted``, on the draws themselves
    (``u * _BINS / _BINS`` is u again).
    """
    _, cum, cell, split = lookup
    u = rng.random(n)
    u *= _BINS
    bins = u.astype(np.intp)
    fallback = split.take(bins).nonzero()[0]
    fallback_cell = cum.searchsorted(u[fallback] / _BINS, side="right")
    del u
    cells = cell.take(bins)
    cells[fallback] = fallback_cell
    return cells


def sample_pair_outcomes(rho, alpha_rad: float, beta_rad: float, n: int, rng: np.random.Generator, lookup=None):
    """Sample n joint outcomes from the Born-rule table (:func:`_sample_cells`),
    from ``lookup`` when the caller has built it for this setting
    (:func:`_cell_lookup`).

    Returns (idler_port, idler_slot, signal_port, signal_slot) int arrays.
    """
    cells = _sample_cells(lookup or _cell_lookup(rho, alpha_rad, beta_rad), n, rng)
    return tuple(index.take(cells) for index in _OUTCOME_INDEX)


def detect(
    arrivals: dict[str, np.ndarray],
    det: DetectorConfig,
    duration_s: float,
    seed: int,
) -> dict[str, np.ndarray]:
    """Click-level detector model.

    Each photon arrival (ps timestamps per detector) is kept with the
    detector efficiency and smeared by Gaussian jitter.  A detector's stream,
    not time sorted, is its kept arrivals in input order, then Poisson dark
    counts spread uniformly over the duration.  Deterministic per seed, an
    int in [0, 2**32) (numpy raises OverflowError outside it).

    A draw of no value, or a Poisson draw of mean 0, leaves a generator as
    it was, so a detector with no arrival or no dark count skips it.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    streams: dict[str, np.ndarray] = {}
    # child i of ``SeedSequence(seed).spawn`` mixes the words [seed, 0, 0,
    # 0, i], its entropy padded to the 4-word pool and then its spawn key:
    # given as a uint32 array, they skip the spawn's slow coercion
    words = [int(seed), 0, 0, 0]
    children = [np.random.SeedSequence(np.array(words + [i], dtype=np.uint32)) for i in range(len(arrivals))]
    dark_mean = det.dark_count_rate_hz * duration_s
    for child, name in zip(children, sorted(arrivals)):
        rng = np.random.default_rng(child)
        times = np.asarray(arrivals[name], dtype=float)
        kept = np.empty(0)
        if times.size:
            kept = times.compress(rng.random(times.size) < det.efficiency)
            if det.jitter_sigma_ps > 0 and kept.size:
                kept += rng.normal(0.0, det.jitter_sigma_ps, size=kept.size)
        if dark_mean:
            dark = rng.uniform(0.0, duration_s * 1e12, size=rng.poisson(dark_mean))
            kept = np.concatenate([kept, dark]) if kept.size else dark
        streams[name] = kept
    return streams


def coincidence_histogram(
    stream_a: np.ndarray,
    stream_b: np.ndarray,
    cfg: CoincidenceConfig,
    span_ns: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of pairwise time differences t_b - t_a over +-span, in
    bins of the configured width centered on zero.

    Returns (bin_centers_ps, counts).  Streams must be time sorted.
    """
    a = np.asarray(stream_a, dtype=float)
    b = np.asarray(stream_b, dtype=float)
    for s in (a, b):
        if s.size > 1 and np.any(np.diff(s) < 0):
            raise ValueError("streams must be time sorted")
    nbins = int(np.ceil(2 * span_ns * 1e3 / cfg.histogram_bin_ps))
    edges = (np.arange(nbins + 1) - nbins / 2) * cfg.histogram_bin_ps
    lo = np.searchsorted(b, a + edges[0], side="left")
    n = np.searchsorted(b, a + edges[-1], side="right")
    n -= lo
    counts = np.zeros(nbins, dtype=np.int64)
    for a_idx, b_idx in _pair_walk(lo, n):
        counts += np.histogram(b[b_idx] - a[a_idx], bins=edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


def _pair_walk(lo: np.ndarray, n: np.ndarray):
    """Walk the per-row index ranges [lo, lo + n) rank by rank.

    Yields (row_index, column_index) for each rank r: the rows whose range
    holds more than r indices, and lo + r for each.  No array of every pair
    is built.
    """
    for rank in range(int(n.max(initial=0))):
        rows = (n > rank).nonzero()[0]
        yield rows, lo.take(rows) + rank


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
    over = (phase < 0).nonzero()[0]
    k[over] -= 1
    phase[over] += period_ps
    return k, phase


def _slot_keys(
    times_ps: np.ndarray,
    ref_ps: float,
    ports,
    weights: tuple[int, int],
    clock_period_ns: float,
    slot_spacing_ns: float,
    window_ps: float,
):
    """Assign each event, by its time after the clock reference ``ref_ps``,
    the slot center nearest its phase in the clock period (centers at 0,
    spacing and 2 * spacing; ties go to the earlier slot, and past the
    midpoint between the late slot and the period an event belongs to the
    next cycle's early slot).  Events farther than window/2 from that center
    are unclassified.

    Returns the sorted key of each classified event, its cycle with its cell
    ``port * weights[0] + slot * weights[1]`` (< 64) in the low six bits,
    and the unclassified count.  The nearest center lies within half a
    period minus one spacing, so the cycle is the whole periods of
    :func:`_fold_cycles` plus the wrap into the next cycle.
    """
    period_ps = clock_period_ns * 1e3
    spacing_ps = slot_spacing_ns * 1e3
    if not 2 * spacing_ps < period_ps:
        raise ValueError("the three slots must fit in one clock period (2 * spacing < period)")
    rel = np.asarray(times_ps, dtype=float)
    if ref_ps:
        rel = rel - ref_ps
    cycle, phase = _fold_cycles(rel, period_ps, spacing_ps)
    if cycle is not None:
        del rel  # a shifted copy goes before the slot arrays are built
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
    del phase, distance  # free them before the keys: a counting call's peak memory
    ports = np.asarray(ports)
    if ports.shape != ok.shape:
        raise ValueError(f"need one port per event: {ports.shape} ports for {ok.shape} events")
    if ports.size and (ports.min() < 0 or ports.max() > 1):
        raise ValueError("ports must be 0 or 1 (port k has index k - 1)")
    cycle <<= 6
    cycle += ports.astype(np.int8) * weights[0]
    cycle += slot * weights[1]
    key = cycle.compress(ok)
    key.sort(kind="stable")
    return key, int(ok.size - np.count_nonzero(ok))


def _same_cycle(idler_keys: np.ndarray, signal_keys: np.ndarray, shift: int):
    """The first index ``lo`` and the number ``n`` of the sorted
    ``idler_keys`` that share each signal key's cycle, a key's cycle being
    the key without its low ``shift`` bits.  Sorted signal keys make the
    searches sweep the idler keys in order."""
    bound = signal_keys & (-1 << shift)
    lo = idler_keys.searchsorted(bound, side="left")
    bound += 1 << shift
    n = idler_keys.searchsorted(bound, side="left")
    n -= lo
    return lo, n


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


def threefold_counts(
    idler_times_ps: np.ndarray,
    idler_ports: np.ndarray,
    signal_times_ps: np.ndarray,
    signal_ports: np.ndarray,
    clock_period_ns: float,
    cfg: CoincidenceConfig,
    *,
    slot_spacing_ns: float,
    signal_ref_ps: float = 0.0,
) -> ThreefoldCounts:
    """Count signal-idler coincidences triggered by the system clock.

    Each detection is assigned an arrival slot from its timestamp modulo the
    clock period (slot centers 0, 1 and 2 slot spacings after the
    clock-referenced short-short arrival).  The idler clicks are the clock
    reference; ``signal_ref_ps`` absorbs the signal side's fixed path or
    storage delay.  Events in the same clock cycle are paired and tallied
    per (slot, port) cell.

    Events may come in any order: each side is classified, keyed and
    sorted once (:func:`_slot_keys`), each signal event's same-cycle idler
    events are one range of the sorted idler keys, and the pairs are tallied
    rank by rank over those ranges, so memory grows with the events, not
    with the pairs.
    """
    # the flat index of counts[idler_port, idler_slot, signal_port,
    # signal_slot] is the idler cell plus the signal cell
    geometry = (clock_period_ns, slot_spacing_ns, cfg.window_ps)
    i_key, unclassified_idler = _slot_keys(idler_times_ps, 0.0, idler_ports, (18, 6), *geometry)
    s_key, unclassified_signal = _slot_keys(
        signal_times_ps, signal_ref_ps, signal_ports, (3, 1), *geometry
    )
    # the walk's rows are signal events, a block at a time, so that its
    # index arrays stay short
    i_cell = (i_key & 63).astype(np.int8)
    counts = np.zeros(36, dtype=np.int64)
    for start in range(0, s_key.size, _WALK_BLOCK):
        block = s_key[start : start + _WALK_BLOCK]
        lo, n = _same_cycle(i_key, block, 6)
        s_cell = (block & 63).astype(np.int8)
        for s_idx, i_idx in _pair_walk(lo, n):
            counts += np.bincount(i_cell.take(i_idx) + s_cell.take(s_idx), minlength=36)
    return ThreefoldCounts(
        counts=counts.reshape(2, 3, 2, 3),
        unclassified_idler=unclassified_idler,
        unclassified_signal=unclassified_signal,
    )


# per flat cell of the (2, 3, 2, 3) outcome table: each side's port
_IDLER_PORT = _OUTCOME_INDEX[0].astype(np.int8)
_SIGNAL_PORT = _OUTCOME_INDEX[2].astype(np.int8)


@dataclass(frozen=True)
class PairClicks:
    """The clicks of pairs whose signal photon clicks, in cycle coordinates.

    Pair k was emitted in clock cycle ``cycles[k]`` (sorted) with the joint
    outcome ``cells[k]``, a flat index of the ``(2, 3, 2, 3)`` table of
    :func:`project_pair`.  Its signal click lies ``signal_offsets_ps[k]``
    after its cycle's signal reference; the pairs ``idler_pairs`` (sorted
    indices) click on the idler side too, ``idler_offsets_ps`` after their
    cycle's idler reference.  An offset is the photon's slot times the slot
    spacing plus the detector jitter.
    """

    cycles: np.ndarray
    cells: np.ndarray
    signal_offsets_ps: np.ndarray
    idler_pairs: np.ndarray
    idler_offsets_ps: np.ndarray

    def idler_clicks(self, period_ps: float, which=slice(None)):
        """(times in ps, ports) of the idler clicks ``which``."""
        pairs = self.idler_pairs[which]
        return _click_times(
            self.cycles.take(pairs), self.cells.take(pairs), self.idler_offsets_ps[which], period_ps, 0.0, _IDLER_PORT
        )

    def signal_clicks(self, period_ps: float, ref_ps: float, which=slice(None)):
        """(times in ps, ports) of the signal clicks ``which``, whose cycle
        references lie ``ref_ps`` after the idler side's."""
        return _click_times(
            self.cycles[which], self.cells[which], self.signal_offsets_ps[which], period_ps, ref_ps, _SIGNAL_PORT
        )


def _click_times(cycles, cells, offsets_ps, period_ps, ref_ps, port):
    """(times in ps, ports) of clicks given by their pairs' cycles and
    cells and their offsets after the cycle reference ``ref_ps``."""
    times = cycles * period_ps
    times += ref_ps
    times += offsets_ps
    return times, port.take(cells)


def _offset_slots(offsets_ps: np.ndarray, period_ps: float, spacing_ps: float, window_ps: float):
    """Classify clicks given by their offsets from their pair's cycle
    reference, as :func:`_slot_keys` classifies times.

    Cycle d holds the offsets [dP - (P/2 - s), dP + P/2 + s), P the period
    and s the slot spacing: past the midpoint between the late slot and the
    period a click belongs to the next cycle's early slot.  Within it the
    slot is the nearest center, 0, s or 2s (ties to the earlier one), and a
    click farther than window/2 from it is unclassified.

    Returns ``(moved, shift, slot, ok)``: the indices of the clicks outside
    their pair's cycle and the cycle d of each, then every click's int8
    slot and whether it is classified.
    """
    lo = spacing_ps - period_ps / 2
    offsets = np.asarray(offsets_ps, dtype=float)
    moved = np.flatnonzero((offsets < lo) | (offsets >= lo + period_ps))
    shift = np.floor((offsets[moved] - lo) / period_ps).astype(np.int64)
    if moved.size:
        offsets = offsets.copy()
        offsets[moved] -= shift * period_ps
    slot = np.add(offsets > spacing_ps / 2, offsets > 3 * spacing_ps / 2, dtype=np.int8)
    distance = slot * spacing_ps
    distance -= offsets
    return moved, shift, slot, np.abs(distance, out=distance) <= window_ps / 2.0


# detector jitter is Gaussian: the click geometry below, and the callers
# that bound how far a click may land from its photon, reach clicks
# displaced by up to this many standard deviations, beyond which lies a
# share of 1.5e-23 of the clicks
_JITTER_REACH_SIGMAS = 10


def _reach_cycles(extent_ps: float, sigma_ps: float, period_ps: float) -> int:
    """The cycles d > 0 with dP <= extent + 10 sigma, P the period: how far
    a click whose photon lies within ``extent_ps`` of a region may land from
    it in whole periods, its jitter below ``_JITTER_REACH_SIGMAS`` sigma."""
    return math.floor((extent_ps + _JITTER_REACH_SIGMAS * sigma_ps) / period_ps)


def _gauss_mass(lo: float, hi: float) -> float:
    """P(lo <= Z < hi) for a standard normal Z, from :func:`math.erfc` on
    the side of zero away from the interval, so that a tail interval keeps
    its relative precision."""
    root2 = math.sqrt(2)
    if lo >= 0:
        return (math.erfc(lo / root2) - math.erfc(hi / root2)) / 2
    if hi <= 0:
        return (math.erfc(-hi / root2) - math.erfc(-lo / root2)) / 2
    return 1 - (math.erfc(-lo / root2) + math.erfc(hi / root2)) / 2


def _slot_classes(period_ps: float, spacing_ps: float, window_ps: float):
    """The click offsets after a cycle's reference that count toward each
    class of that cycle, as lists of ``(lo, hi)`` pieces: class k < 3 is
    slot k's window, class 3 (unclassified) the offsets outside them that
    lie between the previous cycle's last window and the next cycle's
    first.

    As :func:`_slot_keys` and :func:`_offset_slots` classify a click: the
    nearest slot center, 0, s or 2s for the slot spacing s, within the
    cycle's edges at -(P/2 - s) and P/2 + s for the period P, and within
    W/2 of it for the window W.
    """
    half_ps = window_ps / 2
    edges = (spacing_ps - period_ps / 2, spacing_ps / 2, 1.5 * spacing_ps, period_ps / 2 + spacing_ps)
    windows = [
        (max(k * spacing_ps - half_ps, edges[k]), min(k * spacing_ps + half_ps, edges[k + 1]))
        for k in range(3)
    ]
    bounds = [windows[2][1] - period_ps, *(x for window in windows for x in window), windows[0][0] + period_ps]
    gaps = [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi]
    return [[window] for window in windows] + [gaps]


@_memoized
def _landing_reach(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float) -> int:
    """w: the cycles on each side of a photon's cycle toward which its
    click may count in a slot window.  A click lies at most
    ``_JITTER_REACH_SIGMAS`` sigma from its slot, 0, s or 2s, and the
    windows of the cycle d later span the offsets [dP - b, dP + b'] with b'
    = min(2s + W/2, P/2 + s) (:func:`_slot_classes`) and 2s + b = b', so it
    reaches them when |d| P <= b' + 10 sigma.  Within w = 0 (at the
    calibration, and at 400 ps jitter) a click counts in its own cycle's
    classes or in none."""
    return _reach_cycles(_slot_classes(period_ps, spacing_ps, window_ps)[2][0][1], sigma_ps, period_ps)


@_memoized
def _landing_table(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float) -> np.ndarray:
    """``table[k, j]``: the chance that the click of a photon in slot k
    counts toward class j of its own cycle (:func:`_slot_classes`).

    The jitter is Gaussian of deviation sigma, so an entry is the
    :func:`_gauss_mass` of the class's pieces less the slot's offset.
    Where :func:`_landing_reach` is 0, a row misses 1 only by the clicks
    beyond 10 sigma.  With no jitter every click counts toward its own slot.
    """
    if sigma_ps == 0:
        return np.eye(3, 4)
    classes = _slot_classes(period_ps, spacing_ps, window_ps)
    return np.array(
        [
            [sum(_gauss_mass((lo - k * spacing_ps) / sigma_ps, (hi - k * spacing_ps) / sigma_ps) for lo, hi in pieces)
             for pieces in classes]
            for k in range(3)
        ]
    )


def pair_threefold_counts(
    pairs: PairClicks,
    idler_times_ps: np.ndarray,
    idler_ports: np.ndarray,
    signal_times_ps: np.ndarray,
    signal_ports: np.ndarray,
    clock_period_ns: float,
    cfg: CoincidenceConfig,
    *,
    slot_spacing_ns: float,
    signal_ref_ps: float = 0.0,
) -> ThreefoldCounts:
    """:func:`threefold_counts` of the clicks of ``pairs`` together with
    the stray clicks given as times and ports."""
    period_ps = clock_period_ns * 1e3
    i_pairs = pairs.idler_clicks(period_ps)
    s_pairs = pairs.signal_clicks(period_ps, signal_ref_ps)
    return threefold_counts(
        np.concatenate([i_pairs[0], idler_times_ps]),
        np.concatenate([i_pairs[1], idler_ports]),
        np.concatenate([s_pairs[0], signal_times_ps]),
        np.concatenate([s_pairs[1], signal_ports]),
        clock_period_ns,
        cfg,
        slot_spacing_ns=slot_spacing_ns,
        signal_ref_ps=signal_ref_ps,
    )


def g2_cross(tallies, n_cycles: int) -> np.ndarray:
    """Second-order cross-correlation P_si / (P_s P_i), probabilities per
    clock cycle over ``n_cycles``, of each ``(..., 3)`` row of (coincidences,
    signal singles, idler singles); NaN where a single is zero."""
    c, s, i = np.moveaxis(np.asarray(tallies, dtype=float), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (c / n_cycles) / ((s / n_cycles) * (i / n_cycles))
    return np.where((s > 0) & (i > 0), ratio, np.nan)
