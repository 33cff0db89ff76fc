"""End-to-end simulated acquisitions: source -> memory -> analyzers ->
detectors -> counting, plus per-channel run reports.

Acquisitions come in two flavors: ``stored=True`` sends the signal photon
through its memory channel (recall by the survival s of
:func:`afcsim.memory.storage_survival`, 1/Delta delay, memory noise) over
100 times the cycles (:func:`_stage_cycles`), while ``stored=False``
bypasses the memory.  Recall splits the Poissonian signal-band pairs into
two Poisson processes, each drawn at its own rate: the recalled pairs at s
times the band's rate, the lost pairs at 1 - s times it.

Everything is deterministic given (config, seed): independent acquisitions
derive child generators from stable string tags, so channels and settings
can be computed in any order.  A threefold scan (the CHSH, fringe or
tomography settings of one channel and stage) is a list of acquisition
specs and a fit of their counts; :func:`run_scans` acquires each spec and
fits each scan on the calling thread, as every other acquisition (the g2
runs, the DD acquisition whose clicks fig7 histograms) runs.

A threefold acquisition (:func:`acquire_threefold`) follows only the
pairs whose signal photon clicks: detection thins the recalled pairs once
more, at the detector efficiency.  Where no click can count toward another
cycle (at the calibration; not at several ns of jitter), cycles are
independent, and by Poisson colouring the number of signal-click pairs in a
cycle is all that is drawn about most of them, as counts: how many cycles
hold one pair, and how many hold each larger number.  A pair alone in a
cycle with no other classified click is lone, and the lone pairs' classes
(outcome cell, idler detection, and the slot window or none each click
lands in) are one Multinomial draw, from which their counts are read: no
cycle, cell, keep or jitter is drawn for them.  Only the other pairs, about
4% at the calibration before storage, are drawn one by one, in cycle
coordinates, and counted with the stray clicks.  The idler-only pairs,
whose signal photon gives no click, are drawn only in the cycles toward
which a signal click may count.  A before-storage CHSH acquisition peaks at
about 1.5 MB (tracemalloc), against 6.2 MB when every signal-click pair's
cycle was drawn.  The run's positions of the cycles drawn as counts, and
the clicks no count needs (the lone pairs', and the idler-only pairs' that
only fig7's histogram can meet), are drawn on demand
(:class:`Acquisition`).  A g2 run (:func:`acquire_g2`) draws no pair,
click or time: it counts only whether each cycle's signal and idler
windows hold a click, and by Poisson colouring those occupancies are
independent draws from one law, except where a pair's two clicks count
toward different cycles.  So a run is one Multinomial draw over the
cycles, and those rare split pairs (none at the calibration) are drawn one
by one.

What depends only on a phase or on the config is built once per process
(:func:`afcsim.analyzer._memoized`): a phase's POVM, the landing table,
reach and lone-law factors, the Poisson law of K and the detectors with no
dark count.  Each is a pure function keyed by value (floats, frozen
configs), its arrays are read-only and at most 64 are kept, so any later
acquisition gets what a fresh build gives.  The Born-rule table stays one
per acquisition.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from afcsim import bell
from afcsim import tomography as tom
from afcsim.analyzer import (
    _IDLER_PORT,
    _JITTER_REACH_SIGMAS,
    _OUTCOME_INDEX,
    DetectorConfig,
    PairClicks,
    ThreefoldCounts,
    _cell_lookup,
    _gauss_mass,
    _landing_reach,
    _landing_table,
    _memoized,
    _offset_slots,
    _reach_cycles,
    _sample_cells,
    _slot_classes,
    _slot_keys,
    detect,
    g2_cross,
    middle_middle,
    pair_threefold_counts,
    project_pair,
    sample_pair_outcomes,
)
from afcsim.config import ConfigError, ExperimentConfig
from afcsim.memory import CHANNEL_OFFSETS_GHZ, storage_survival
from afcsim.source import analytic_state, emission_arrays, pair_rate_per_cycle

__all__ = [
    "derive_rng",
    "HISTOGRAM_SPAN_NS",
    "channel_band",
    "Acquisition",
    "acquire_threefold",
    "G2Run",
    "acquire_g2",
    "acquire_spec",
    "run_scans",
    "chsh_scan",
    "fringe_scan",
    "tomography_scan",
    "analytic_counts",
    "channel_report",
    "run_report",
]


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Deterministic child generator for a (seed, tag...) path, the seed an
    int in [0, 2**32) as :class:`ExperimentConfig` requires."""
    # the seed and the tags' CRCs as uint32 words, which numpy coerces far
    # faster than a list of ints
    entropy = np.array([int(seed)] + [zlib.crc32(str(t).encode()) for t in tags], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _seed(cfg: ExperimentConfig, *tags) -> int:
    """Integer seed drawn from the (config seed, tag...) path."""
    return int(derive_rng(cfg.seed, *tags).integers(2**31))


def channel_band(channel: int, bandwidth_ghz: float):
    center = CHANNEL_OFFSETS_GHZ[channel]
    return (center - bandwidth_ghz / 2.0, center + bandwidth_ghz / 2.0)


_STORED_CYCLES_FACTOR = 100


def _stage_cycles(n_cycles: int, stored: bool) -> int:
    """The cycles an acquisition of ``n_cycles`` integrates: 100 times as
    many after storage, which recalls only 0.14-0.17% of the photons."""
    return n_cycles * _STORED_CYCLES_FACTOR if stored else n_cycles


def _recall(cfg: ExperimentConfig, channel: int, tags, stored: bool, duration_ps):
    """The memory step of the signal chain.

    Returns (survival, delay_ps, noise_times_ps, noise_ports): the recall
    survival s of :func:`storage_survival`, the share of signal-band pairs
    whose signal photon the memory recalls, the fixed 1/Delta recall delay,
    and the memory-noise arrivals at the bank's noise rate.  A bypassed
    memory (``stored=False``) recalls every photon, adds no delay and no noise.
    """
    if not stored:
        return 1.0, 0.0, np.empty(0), np.empty(0, dtype=np.int64)
    delay_ps = cfg.bank.channels[channel].storage_time_ns * 1e3
    rng_noise = derive_rng(cfg.seed, *tags, "memnoise")
    n_noise = rng_noise.poisson(cfg.bank.noise_rate_hz * duration_ps * 1e-12)
    # the ports come after the times from this stream, which feeds nothing
    # else, so a caller that ignores them sees the same times
    noise_t = rng_noise.uniform(0, duration_ps, n_noise)
    return storage_survival(cfg.bank, channel), delay_ps, noise_t, rng_noise.integers(0, 2, n_noise)


# the +- span of fig7's two-fold histogram of an acquisition's clicks
HISTOGRAM_SPAN_NS = 4.0

def _neighbour_cycles(cfg: ExperimentConfig) -> int:
    """w: the cycles on each side of a signal click's cycle in which the
    pair of an idler click that fig7's histogram meets it with was emitted.

    With period P and slot spacing s, a signal click at time r after the
    recall delay lies in cycle f = floor(r / P).  fig7 meets it with the
    idler clicks within H of r, H being the histogram span plus half a bin
    (its outer edges), and counting with those of its own cycle, f or, past
    the late-slot wrap at P/2 + s, f + 1; a cycle k holds the times
    [kP - (P/2 - s), kP + P/2 + s).  So every idler click it can meet lies
    in [fP - max(P/2 - s, H), (f + 1)P + max(P/2 + s, H)).  The idler of a
    pair emitted in cycle c arrives at cP + {0, s, 2s} plus its jitter j.  For
    |j| <= J, once wP >= max(P/2 + s, H) + J only cycles c up to f + w land
    there, and, as max(P/2 - s, H) + 2s < max(P/2 + s, H) + P, only cycles c
    from f - w.  J is ``_JITTER_REACH_SIGMAS`` detector jitter sigmas.  At
    the calibration (P = 16 ns, s = 1.25 ns, H = 4.05 ns, J = 0.4 ns) w = 1.
    """
    period_ps = cfg.clock_period_ns * 1e3
    wrap_ps = period_ps / 2 + cfg.source.pump.pulse_interval_ns * 1e3
    histogram_ps = HISTOGRAM_SPAN_NS * 1e3 + cfg.coincidence.histogram_bin_ps / 2
    jitter_ps = _JITTER_REACH_SIGMAS * cfg.detectors.jitter_sigma_ps
    return math.ceil((max(wrap_ps, histogram_ps) + jitter_ps) / period_ps)


def _click_cycles(clicks_ps: np.ndarray, delay_ps: float, period_ps: float) -> np.ndarray:
    """The cycles of the clicks: their times after the recall delay, in
    whole periods."""
    cycles = (clicks_ps - delay_ps) / period_ps
    return np.floor(cycles, out=cycles).astype(np.int64)


def _near_cycles(cycles: np.ndarray, w: int, n_cycles: int):
    """N, the sorted cycles of ``[0, n_cycles)`` within ``w`` of one of the
    sorted int64 ``cycles``.  Returns the size of N and a function that
    maps indices into N to their cycles, reading ``cycles``, which the
    caller leaves unchanged; N itself, up to 2w + 1 times as long as
    ``cycles``, is never built.

    Window r, [c_r - w, c_r + w], adds to the windows before it its last
    a_r = min(c_r - c_(r-1), 2w + 1) cycles, ending at e_r = c_r + w.  So
    with L_r the cycles added up to window r, index k of the unclipped N
    lies in the first window with L_r > k, and is e_r - (L_r - 1 - k).
    """
    added = np.empty_like(cycles)
    added[:1] = 2 * w + 1
    np.subtract(cycles[1:], cycles[:-1], out=added[1:])
    np.minimum(added, 2 * w + 1, out=added)
    last = np.cumsum(added, out=added)

    def below(cycle: int) -> int:
        """The cycles of the unclipped N below ``cycle``."""
        r = int(np.searchsorted(cycles, cycle - w))  # the first window that reaches it
        before = int(last[r - 1]) if r else 0
        if r == cycles.size:
            return before
        return before + max(0, cycle - 1 - (int(cycles[r]) + w) + int(last[r]) - before)

    start = below(0)

    def take(index: np.ndarray) -> np.ndarray:
        k = index + start
        r = np.searchsorted(last, k, side="right")
        k -= last.take(r)
        k += 1 + w
        k += cycles.take(r)
        return k

    return below(n_cycles) - start, take


def _idler_only(cfg: ExperimentConfig, channel: int, share: float):
    """The ``(band, fraction)`` processes of the pairs of a channel that
    give no signal click, in draw order: the idler filter's fringe below
    and above the signal band (none when the two filters match), then a
    share 1 - ``share`` of the signal-band pairs (none, and no draw, when
    ``share`` is 1).  A g2 run passes the recall survival, whose lost pairs
    have no signal photon to detect; a threefold acquisition passes the
    recall survival times the detector efficiency."""
    sig = channel_band(channel, cfg.filters.signal_bandwidth_ghz)
    processes = [(sig, 1.0 - share)]
    if cfg.filters.idler_bandwidth_ghz > cfg.filters.signal_bandwidth_ghz:
        full = channel_band(channel, cfg.filters.idler_bandwidth_ghz)
        processes[:0] = [((full[0], sig[0]), 1.0), ((sig[1], full[1]), 1.0)]
    return processes


def _draw(cfg: ExperimentConfig, processes, n_cycles: int, rng) -> np.ndarray:
    """The cycles of the pairs of the ``(band, fraction)`` processes, drawn
    over ``n_cycles`` cycles by :func:`emission_arrays`, one process after
    the other."""
    return np.concatenate([emission_arrays(cfg.source, n_cycles, rng, *p)[0] for p in processes])


def _rate(cfg: ExperimentConfig, processes) -> float:
    """The mean pairs per cycle of the ``(band, fraction)`` processes, the
    rates :func:`emission_arrays` draws them at."""
    mu = pair_rate_per_cycle(cfg.source)
    return sum(f * mu * (hi - lo) / cfg.source.pair_bandwidth_ghz for (lo, hi), f in processes)


def _click_geometry(cfg: ExperimentConfig):
    """(period, slot spacing, coincidence window, detector jitter sigma) in
    ps: the arguments of the analyzer's click geometry
    (:func:`afcsim.analyzer._slot_classes`, :func:`_landing_table`,
    :func:`_landing_reach`)."""
    return (
        cfg.clock_period_ns * 1e3,
        cfg.source.pump.pulse_interval_ns * 1e3,
        cfg.coincidence.window_ps,
        cfg.detectors.jitter_sigma_ps,
    )


# a lone pair's classes: [idler port, idler slot, signal port, signal slot,
# the class its signal click counts toward, the class its idler click counts
# toward or 4 when the idler detector misses it]
_LONE_SHAPE = (2, 3, 2, 3, 4, 5)


def _lone_law(cfg: ExperimentConfig, cells: np.ndarray) -> np.ndarray:
    """The chances of a lone pair's classes, shape ``_LONE_SHAPE``: its
    Born-rule cell (``cells``, the clipped and normalized table of
    :func:`afcsim.analyzer._cell_lookup`), times each side's landing chance
    (:func:`_landing_table`), the idler's times eta or, for no idler click,
    1 - eta."""
    signal, idler = _lone_factors(*_click_geometry(cfg), cfg.detectors.efficiency)
    return cells[..., None, None] * signal * idler


@_memoized
def _lone_factors(period_ps: float, spacing_ps: float, window_ps: float, sigma_ps: float, eta: float):
    """The landing factors of :func:`_lone_law`, broadcast to
    ``_LONE_SHAPE``: the signal's landing chances, then the idler's."""
    landing = _landing_table(period_ps, spacing_ps, window_ps, sigma_ps)
    idler = np.hstack([eta * landing, np.full((3, 1), 1.0 - eta)])
    return landing[:, :, None], idler[:, None, None, None, :]


def _multinomial(rng: np.random.Generator, n: int, law: np.ndarray) -> np.ndarray:
    """The numbers per class of ``n`` draws from ``law``, one Multinomial
    draw with the most likely class last, as the Multinomial gives the last
    class what the others leave."""
    order = law.argsort(kind="stable")
    numbers = np.empty(law.size, dtype=np.int64)
    numbers[order] = rng.multinomial(n, law[order])
    return numbers


@_memoized
def _pairs_law(mu: float) -> np.ndarray:
    """P(K = k), k = 0, 1, ...: the Poisson law of a cycle's number K of
    signal-click pairs, of mean ``mu``, up to the first k >= mu of chance
    below 2**-64; the tail beyond it falls to the most likely k
    (:func:`_multinomial`)."""
    law = []
    while True:
        k = len(law)
        law.append(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) if mu else float(k == 0))
        if k >= mu and law[-1] < 2.0**-64:
            return np.array(law)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, sorted: one sort and a mask, where numpy
    2.4's hashing ``np.unique`` takes about 40 times as long on 232k
    cycles."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _placement(n_free: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform placement of ``n`` items in ``range(n_free)``: n distinct
    values in a random order.  Where they fill over half the range, the
    first n of a permutation, at a cost of at most 2n.  Otherwise values
    drawn with replacement, their repeats drawn again until n are distinct:
    every step is unchanged by relabelling the values, so the set is a
    uniform n-subset, and each round leaves under half its draws repeated,
    so the cost grows with n, not with ``n_free``."""
    if not n:
        return np.empty(0, dtype=np.int64)
    if 2 * n > n_free:
        return rng.permutation(n_free)[:n]
    picked = _distinct(rng.integers(0, n_free, n))
    while picked.size < n:
        picked = _distinct(np.concatenate([picked, rng.integers(0, n_free, n - picked.size)]))
    rng.shuffle(picked)
    return picked


def _lone_counts(draw: np.ndarray) -> ThreefoldCounts:
    """The threefold counts of lone pairs drawn as ``draw``, their numbers
    per class: one count in the cell of each pair's two classified clicks.
    """
    by_class = draw.sum(axis=(1, 3))  # [idler port, signal port, signal class, idler class]
    return ThreefoldCounts(
        counts=by_class[:, :, :3, :3].transpose(0, 3, 1, 2),
        unclassified_idler=int(by_class[..., 3].sum()),
        unclassified_signal=int(by_class[:, :, 3].sum()),
    )


def _truncated_normal(bounds, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of a standard normal conditioned on the union of the
    disjoint intervals ``bounds``: an interval by its mass, then the
    inverse of the normal CDF on it, with no rejection.  An interval above
    zero is drawn as the negative of its mirror image, so that its CDF
    values are small numbers, exact to their last bits even 8 sigma out
    (a class of chance 6e-14 at the calibration)."""
    from scipy.special import ndtr, ndtri

    mass = np.cumsum([_gauss_mass(lo, hi) for lo, hi in bounds])
    piece = np.searchsorted(mass, rng.random(n) * mass[-1], side="right")
    np.minimum(piece, len(bounds) - 1, out=piece)
    z = np.empty(n)
    for i, (lo, hi) in enumerate(bounds):
        at = np.flatnonzero(piece == i)
        mirrored = lo >= 0
        if mirrored:
            lo, hi = -hi, -lo
        p_lo, p_hi = ndtr(lo), ndtr(hi)
        draws = ndtri(p_lo + rng.random(at.size) * (p_hi - p_lo))
        np.clip(draws, lo, hi, out=draws)
        z[at] = -draws if mirrored else draws
    return z


def _class_offsets(cfg: ExperimentConfig, slots, classes, rng: np.random.Generator) -> np.ndarray:
    """Click offsets of photons in ``slots`` whose clicks count toward
    ``classes`` of their cycle (:func:`_slot_classes`): slot times spacing
    plus a jitter drawn conditional on that class, slot and class pair by
    slot and class pair."""
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    sigma_ps = cfg.detectors.jitter_sigma_ps
    offsets = slots * spacing_ps
    if sigma_ps == 0:
        return offsets
    slot_classes = _slot_classes(*_click_geometry(cfg)[:3])
    for slot in range(3):
        for cls, pieces in enumerate(slot_classes):
            at = np.flatnonzero((slots == slot) & (classes == cls))
            if at.size:
                center = slot * spacing_ps
                bounds = [((lo - center) / sigma_ps, (hi - center) / sigma_ps) for lo, hi in pieces]
                offsets[at] += sigma_ps * _truncated_normal(bounds, at.size, rng)
    return offsets


@dataclass(frozen=True)
class Acquisition:
    """One analyzer acquisition: port/slot-resolved threefold counts, the
    clicks they were counted from and bookkeeping.

    The clicks are kept as they were counted (see :func:`acquire_threefold`).
    The explicit signal-click pairs (``pairs``) and the idler clicks of the
    idler-only pairs (``idler_only``: cycles, offsets after the cycle's
    reference, ports) lie in cycle coordinates, which ``real_cycles`` maps
    to the run's cycles.  The stray clicks are times and ports: the idler
    dark counts, and on the signal side the memory noise and the dark
    counts.  The lone pairs are counted from their classes and have no
    click until one is asked for.  ``n_pairs_sampled`` counts the pairs the
    acquisition stands for: the signal-click pairs of the whole run, and
    the idler-only pairs drawn in N.  ``draw_lone`` and ``draw_ring`` build
    the clicks no count needs a time of (see :meth:`idler_clicks`)."""

    threefold: ThreefoldCounts
    n_pairs_sampled: int
    delay_ps: float
    period_ps: float
    pairs: PairClicks
    idler_only: tuple[np.ndarray, np.ndarray, np.ndarray]
    stray_idler: tuple[np.ndarray, np.ndarray]
    stray_signal: tuple[np.ndarray, np.ndarray]
    real_cycles: Callable = field(repr=False)
    draw_lone: Callable = field(repr=False)
    draw_ring: Callable = field(repr=False)

    def _pairs_in_run(self) -> PairClicks:
        return replace(self.pairs, cycles=self.real_cycles(self.pairs.cycles))

    def idler_clicks(self, histogram: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(times in ps, ports) of every idler click counted: the explicit
        pairs', the idler-only pairs', the lone pairs', then the dark
        counts.  The cycles no count needed a position of are placed on the
        first call (``real_cycles``), and the lone pairs' clicks are drawn
        on each call, both from streams of their own, each click
        conditional on the class it was counted in, so that one
        :func:`threefold_counts` call over these clicks gives the
        acquisition's counts.  With ``histogram``, also the idler clicks of
        the idler-only pairs outside N that fig7's histogram can meet with a
        signal click, drawn on each call from a stream of their own."""
        cycles, offsets, ports = self.idler_only
        parts = [
            self._pairs_in_run().idler_clicks(self.period_ps),
            (self.real_cycles(cycles) * self.period_ps + offsets, ports),
            self.draw_lone()[0],
            self.stray_idler,
        ]
        if histogram:
            parts.append(self.draw_ring(self.signal_clicks()[0]))
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def signal_clicks(self) -> tuple[np.ndarray, np.ndarray]:
        """(times in ps, ports) of every signal click, the recall delay
        included: the explicit pairs', the lone pairs', then the stray ones."""
        parts = [
            self._pairs_in_run().signal_clicks(self.period_ps, self.delay_ps),
            self.draw_lone()[1],
            self.stray_signal,
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _jittered(slots_ps: np.ndarray, sigma_ps: float, rng: np.random.Generator) -> np.ndarray:
    """Click offsets: the photons' slot offsets plus Gaussian detector jitter."""
    if sigma_ps == 0:
        return slots_ps
    offsets = rng.standard_normal(slots_ps.size)
    offsets *= sigma_ps
    offsets += slots_ps
    return offsets


def _pair_clicks(cfg: ExperimentConfig, cycles, cells, rng: np.random.Generator) -> PairClicks:
    """The clicks of the signal-click pairs of ``cycles`` and flat
    ``cells``: each idler clicks with probability eta, and each click is
    its photon's slot offset plus jitter."""
    det = cfg.detectors
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    idler_pairs = (rng.random(cycles.size) < det.efficiency).nonzero()[0]
    signal_off = _jittered(spacing_ps * _OUTCOME_INDEX[3].take(cells), det.jitter_sigma_ps, rng)
    idler_off = _jittered(spacing_ps * _OUTCOME_INDEX[1].take(cells.take(idler_pairs)), det.jitter_sigma_ps, rng)
    return PairClicks(cycles, cells, signal_off, idler_pairs, idler_off)


# a side's two detectors, or the two sides, as int8 ports
_SIDES = np.int8([0, 1])


def _detect_side(times: np.ndarray, ports: np.ndarray, det: DetectorConfig, duration_ps, seed: int):
    """:func:`detect` of the arrivals at one side's two detectors: (times,
    int8 ports) of the port 1 clicks, then the port 2 clicks."""
    first = ports == 0
    streams = detect({"1": times.compress(first), "2": times.compress(~first)}, det, duration_ps * 1e-12, seed)
    one, two = streams["1"], streams["2"]
    return np.concatenate([one, two]), _SIDES.repeat([one.size, two.size])


@_memoized
def _without_dark(det: DetectorConfig) -> DetectorConfig:
    """The detectors ``det`` with no dark count."""
    return replace(det, dark_count_rate_hz=0.0)


def _classified_cycles(cfg: ExperimentConfig, times: np.ndarray, sides: np.ndarray):
    """The sorted cycles of the classified clicks at ``times`` (after their
    clock reference), and which of them lie on side 1: ``sides`` (0 or 1)
    is classified in place of the clicks' ports."""
    geometry = (cfg.clock_period_ns, cfg.source.pump.pulse_interval_ns, cfg.coincidence.window_ps)
    keys, _ = _slot_keys(times, 0.0, sides, (3, 1), *geometry)
    return keys >> 6, (keys & 63) >= 3


def acquire_threefold(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    tags: tuple,
    stored: bool,
) -> Acquisition:
    """Simulate one UMZI-analyzed acquisition at phases (alpha, beta).

    Pairs are emitted in the channel's idler-filter band, joint (port, slot)
    outcomes are Born-rule sampled from one table per acquisition
    (:func:`afcsim.analyzer._cell_lookup`), the signal photon is thinned by
    the memory band and (when stored) the recall survival s, and both sides
    pass the click-level detector model (efficiency eta, Gaussian jitter,
    dark counts) before clock-triggered threefold counting over
    :func:`_stage_cycles` cycles.

    By Poisson splitting the pairs form two independent processes: the
    signal-click pairs, mu = s eta lambda_sig per cycle, and the idler-only
    pairs (:func:`_idler_only`).  An idler-only click counts only in a cycle
    that holds a classified signal click, so those pairs are drawn only in
    N: S, the cycles that hold a signal click (a pair's, or a classified
    stray one), widened by the landing reach w (:func:`_landing_reach`) on
    each side, and their idlers pass :func:`detect` with no dark count.  The
    stray clicks (memory noise, dark counts) are drawn in the run's time by
    :func:`detect`.

    Where w > 0 (4 ns jitter), each signal-click pair is drawn at its cycle
    of the run (:func:`emission_arrays`).  Where w = 0 (the calibration,
    400 ps jitter), cycles are independent and, by Poisson colouring, most
    are counts, not positions.  A cycle that holds a classified stray click
    draws its own K ~ Poisson(mu) pairs at its cycle of the run; the others
    are one Multinomial over K (:func:`_pairs_law`), and those with K >= 1
    take cycle coordinates after every cycle a stray click is classified
    in.  A K = 1 pair is lone unless an idler-only click is classified in
    its cycle; being lone does not depend on its own marks, so the lone
    pairs' classes are one Multinomial over :func:`_lone_law`, read off by
    :func:`_lone_counts`.  The other pairs are explicit: each draws its
    cell, idler keep and jitter, and their clicks, with the idler-only and
    stray ones, are counted in cycle coordinates by
    :func:`pair_threefold_counts`.  Only the clicks' times need the run's
    cycle of a coordinate: ``real_cycles`` places those cycles uniformly
    among the run's cycles with no classified stray click, on first use.
    """
    n_cycles = _stage_cycles(n_cycles, stored)
    period_ps = cfg.clock_period_ns * 1e3
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    duration_ps = n_cycles * period_ps
    rho = analytic_state(cfg.source)
    lookup = _cell_lookup(rho, alpha_rad, beta_rad)

    survival, delay_ps, noise_t, noise_port = _recall(cfg, channel, tags, stored, duration_ps)
    share = survival * cfg.detectors.efficiency
    stray_signal = _detect_side(
        noise_t, noise_port, cfg.detectors, duration_ps, _seed(cfg, *tags, "signal-detector")
    )
    del noise_t, noise_port
    # the idler dark counts: the detector model with no arrival
    stray_idler = _detect_side(
        np.empty(0), np.empty(0, dtype=np.int8), cfg.detectors, duration_ps, _seed(cfg, *tags, "idler-detector")
    )
    reach = _landing_reach(*_click_geometry(cfg))
    # the cycles of the classified stray clicks, the signal side's times
    # after the recall delay; where w = 0 the idler side's too, in the same
    # classification (elsewhere only the signal side's are read)
    idler_t = stray_idler[0][:0] if reach else stray_idler[0]
    busy, idler_side = _classified_cycles(
        cfg,
        np.concatenate([stray_signal[0] - delay_ps, idler_t]),
        _SIDES.repeat([stray_signal[0].size, idler_t.size]),
    )
    signal_busy = busy[~idler_side]
    rng_em = derive_rng(cfg.seed, *tags, "emission")
    rng_cells = derive_rng(cfg.seed, *tags, "outcome")
    rng_click = derive_rng(cfg.seed, *tags, "pair-detector")
    sig_band = channel_band(channel, cfg.filters.signal_bandwidth_ghz)

    if reach:  # every pair is explicit, at its cycle of the run
        cycles = emission_arrays(cfg.source, n_cycles, rng_em, sig_band, share)[0]
        n_signal = cycles.size
        pairs = _pair_clicks(cfg, cycles, _sample_cells(lookup, cycles.size, rng_cells), rng_click)
        moved, shift, _, ok = _offset_slots(pairs.signal_offsets_ps, *_click_geometry(cfg)[:3])
        counted = cycles.copy()
        counted[moved] += shift
        s_cycles = np.sort(np.concatenate([counted[ok], signal_busy]), kind="stable")
        del cycles, counted
        n_near, near = _near_cycles(s_cycles, reach, n_cycles)
        n_single, single, hit = 0, 0, np.empty(0, dtype=np.int64)

        def real_cycles(cycles):
            return cycles

        def near_in_run():
            return s_cycles

    else:
        busy = _distinct(busy)
        in_run = busy[(busy >= 0) & (busy < n_cycles)]
        mu = _rate(cfg, [(sig_band, share)])
        busy_k = rng_em.poisson(mu, in_run.size)
        per_k = _multinomial(rng_em, n_cycles - in_run.size, _pairs_law(mu))
        crowded_k = np.arange(2, per_k.size).repeat(per_k[2:])
        n_single = int(per_k[1])
        n_signal = int(busy_k.sum() + crowded_k.sum()) + n_single
        # S: the stray-busy cycles with a pair or a classified signal click,
        # then the K >= 2 cycles and the K = 1 cycles, whose coordinates
        # start at base
        in_signal = signal_busy[(signal_busy >= 0) & (signal_busy < n_cycles)]
        s_busy = _distinct(np.concatenate([in_run[busy_k > 0], in_signal]))
        base = max(n_cycles, int(busy[-1]) + 1) if busy.size else n_cycles
        single = base + crowded_k.size
        n_drawn = crowded_k.size + n_single
        n_near = s_busy.size + n_drawn

        def near(index):
            cycles = index + (base - s_busy.size)
            busy_index = (index < s_busy.size).nonzero()[0]
            cycles[busy_index] = s_busy.take(index.take(busy_index))
            return cycles

        placed = []

        def real_cycles(cycles):
            """The run's cycles of the cycle coordinates ``cycles``: a
            stray-busy cycle is its own, and the cycles drawn as counts are
            placed among the others, on the first call."""
            if not placed:
                ranks = _placement(n_cycles - in_run.size, n_drawn, derive_rng(cfg.seed, *tags, "placement"))
                # the rank-th cycle of the run that is not stray-busy
                placed.append(ranks + np.searchsorted(in_run - np.arange(in_run.size), ranks, side="right"))
            in_run_cycles = cycles.copy()
            drawn = (cycles >= base) & (cycles < base + n_drawn)
            in_run_cycles[drawn] = placed[0].take(cycles[drawn] - base)
            return in_run_cycles

        def near_in_run():
            return np.sort(np.concatenate([s_busy, real_cycles(np.arange(base, base + n_drawn))]))

    only = np.empty(0, dtype=np.int64)
    if n_near:  # no signal click, no idler-only pair to draw
        rng_fringe = derive_rng(cfg.seed, *tags, "fringe")
        only = near(_draw(cfg, _idler_only(cfg, channel, share), n_near, rng_fringe))
    rng_only = derive_rng(cfg.seed, *tags, "idler-outcome")
    only_port, only_slot = sample_pair_outcomes(rho, alpha_rad, beta_rad, only.size, rng_only, lookup)[:2]
    n_only = only.size
    # their idlers pass the detector model in cycle coordinates, seeded from
    # the same stream, with no dark count: the idler detectors' are the
    # stray clicks'
    only_t = only_slot * spacing_ps
    only_t += only * period_ps
    del only, only_slot
    only_t, only_port = _detect_side(
        only_t,
        only_port,
        _without_dark(cfg.detectors),
        duration_ps,
        int(rng_only.integers(2**31)),
    )
    # a click's cycle: the one whose middle slot lies nearest, the cycle a
    # classified click counts toward (:func:`afcsim.analyzer._slot_keys`)
    only_cycles = np.floor((only_t - spacing_ps) / period_ps + 0.5).astype(np.int64)
    only_t -= only_cycles * period_ps
    idler_only = (only_cycles, only_t, only_port)
    only_t = only_cycles * period_ps
    only_t += idler_only[1]

    draw = np.zeros(_LONE_SHAPE, dtype=np.int64)
    if not reach:
        # the K = 1 cycles in which an idler-only click is classified
        hit = _classified_cycles(cfg, only_t, idler_only[2])[0]
        hit = _distinct(hit[(hit >= single) & (hit < single + n_single)])
        cycles = np.concatenate([in_run.repeat(busy_k), np.arange(base, single).repeat(crowded_k), hit])
        pairs = _pair_clicks(cfg, cycles, _sample_cells(lookup, cycles.size, rng_cells), rng_click)
        draw = _multinomial(rng_cells, n_single - hit.size, _lone_law(cfg, lookup[0]).ravel()).reshape(_LONE_SHAPE)

    explicit_tf = pair_threefold_counts(
        pairs,
        np.concatenate([only_t, stray_idler[0]]),
        np.concatenate([idler_only[2], stray_idler[1]]),
        *stray_signal,
        cfg.clock_period_ns,
        cfg.coincidence,
        slot_spacing_ns=cfg.source.pump.pulse_interval_ns,
        signal_ref_ps=delay_ps,
    )
    lone_tf = _lone_counts(draw)

    def draw_lone():
        """((times, ports) of the idler clicks, then of the signal clicks)
        of the lone pairs: the classes of ``draw`` in a random order, and
        each click's jitter conditional on its class."""
        rng = derive_rng(cfg.seed, *tags, "lone-clicks")
        classes = np.repeat(np.arange(draw.size), draw.ravel())
        rng.shuffle(classes)
        i_port, i_slot, s_port, s_slot, s_class, i_class = np.unravel_index(classes, _LONE_SHAPE)
        seen = np.flatnonzero(i_class < 4)
        lone = np.ones(n_single, dtype=bool)
        lone[hit - single] = False
        lone_cycles = real_cycles(single + np.flatnonzero(lone))
        signal_t = lone_cycles * period_ps
        signal_t += delay_ps
        signal_t += _class_offsets(cfg, s_slot, s_class, rng)
        idler_t = lone_cycles.take(seen) * period_ps
        idler_t += _class_offsets(cfg, i_slot.take(seen), i_class.take(seen), rng)
        return (idler_t, i_port.take(seen).astype(np.int8)), (signal_t, s_port.astype(np.int8))

    def draw_ring(signal_t):
        """(times, ports) of the idler clicks of the idler-only pairs outside
        N whose clicks fig7's histogram may meet with a signal click at
        ``signal_t``: those of the cycles within :func:`_neighbour_cycles`
        of one, less N.  The idler-only processes are thinned by eta, the
        idler clicks that are kept."""
        hist = np.sort(_click_cycles(signal_t, delay_ps, period_ps), kind="stable")
        n_wide, wide = _near_cycles(hist, _neighbour_cycles(cfg), n_cycles)
        if not n_wide:
            return np.empty(0), np.empty(0, dtype=np.int8)
        rng = derive_rng(cfg.seed, *tags, "ring")
        eta = cfg.detectors.efficiency
        ring = wide(_draw(cfg, [(band, f * eta) for band, f in _idler_only(cfg, channel, share)], n_wide, rng))
        known = near_in_run()
        at = np.searchsorted(known, ring - reach)
        in_near = at < known.size
        in_near[in_near] = known[at[in_near]] <= ring[in_near] + reach
        ring = ring[~in_near]
        ring_cells = _sample_cells(lookup, ring.size, rng)
        times = _jittered(spacing_ps * _OUTCOME_INDEX[1].take(ring_cells), cfg.detectors.jitter_sigma_ps, rng)
        times += ring * period_ps
        return times, _IDLER_PORT.take(ring_cells)

    return Acquisition(
        threefold=ThreefoldCounts(
            counts=explicit_tf.counts + lone_tf.counts,
            unclassified_idler=explicit_tf.unclassified_idler + lone_tf.unclassified_idler,
            unclassified_signal=explicit_tf.unclassified_signal + lone_tf.unclassified_signal,
        ),
        n_pairs_sampled=n_signal + n_only,
        delay_ps=delay_ps,
        period_ps=period_ps,
        pairs=pairs,
        idler_only=idler_only,
        stray_idler=stray_idler,
        stray_signal=stray_signal,
        real_cycles=real_cycles,
        draw_lone=draw_lone,
        draw_ring=draw_ring,
    )


def _landing_row(cfg: ExperimentConfig) -> np.ndarray:
    """p(d) for d in [-w - 1, w + 1]: the chance that the jitter of a click
    whose photon arrives at a cycle's clock reference makes it count toward
    the cycle d later.

    A click at time t after the clock reference counts toward cycle k when
    |t - kP| <= h, with h = min(W, P) / 2 for the coincidence window W and
    the period P, so p(d) = (erf((dP + h) / sigma sqrt 2) - erf((dP - h) /
    sigma sqrt 2)) / 2 for the detector jitter sigma.  Beyond w = floor((h +
    10 sigma) / P) cycles lies a jitter of more than ``_JITTER_REACH_SIGMAS``
    sigmas, a share of 1.5e-23 of the clicks.  At the calibration (P = 16 ns,
    W = 600 ps, sigma = 40 ps) w = 0; with no jitter p = [1].
    """
    period_ps = cfg.clock_period_ns * 1e3
    half_ps = min(cfg.coincidence.window_ps, period_ps) / 2
    sigma_ps = cfg.detectors.jitter_sigma_ps
    if sigma_ps == 0:
        return np.ones(1)
    w = _reach_cycles(half_ps, sigma_ps, period_ps)
    scale = sigma_ps * math.sqrt(2)
    row = [
        math.erf((d * period_ps + half_ps) / scale) - math.erf((d * period_ps - half_ps) / scale)
        for d in range(-w - 1, w + 2)
    ]
    return np.array(row) / 2


def _g2_rates(cfg: ExperimentConfig, signal_channel: int, idler_channel: int, stored: bool):
    """(A, B, C, split): the per-cycle Poisson means of the processes that
    fill a g2 run's signal and idler windows (see :func:`acquire_g2`).

    A counts the clicks of pairs whose two clicks count toward the cycle, B
    the signal clicks and C the idler clicks with no partner click in any
    cycle.  ``split[i, j]`` is the mean number per cycle of the pairs
    emitted in it whose signal click counts toward the cycle d_s = i - w - 1
    later and whose idler click toward d_i = j - w - 1 later, d_s != d_i
    (:func:`_landing_row`); its diagonal is zero.
    """
    det = cfg.detectors
    p = _landing_row(cfg)
    q = det.efficiency * p.sum()  # a photon's click counts toward some cycle
    survival = storage_survival(cfg.bank, signal_channel) if stored else 1.0
    noise_hz = cfg.bank.noise_rate_hz if stored else 0.0
    recalled = _rate(cfg, [(channel_band(signal_channel, cfg.filters.signal_bandwidth_ghz), survival)])
    split = np.zeros((p.size, p.size))
    if idler_channel == signal_channel:
        np.multiply.outer(p, p, out=split)
        both = recalled * det.efficiency**2 * np.trace(split)
        np.fill_diagonal(split, 0.0)
        split *= recalled * det.efficiency**2
        signal_only = recalled * q * (1 - q)
        idler_only = (recalled * (1 - q) + _rate(cfg, _idler_only(cfg, idler_channel, survival))) * q
    else:
        both, signal_only = 0.0, recalled * q
        idler_only = _rate(cfg, [(channel_band(idler_channel, cfg.filters.idler_bandwidth_ghz), 1.0)]) * q
    # dark counts and memory noise are uniform in time: a window of 2h holds
    # the rate times 2h of them
    window_s = min(cfg.coincidence.window_ps, cfg.clock_period_ns * 1e3) * 1e-12
    signal_only += (det.dark_count_rate_hz + det.efficiency * noise_hz) * window_s
    idler_only += det.dark_count_rate_hz * window_s
    return both, signal_only, idler_only, split


def _occupancy_law(a: float, b: float, c: float) -> np.ndarray:
    """The chances that a cycle's (signal, idler) windows hold (a click, a
    click), (a click, none), (none, a click) and (none, none), for
    independent Poisson numbers of clicks of means A, B and C as in
    :func:`_g2_rates`.  The last is the remainder, as
    :meth:`numpy.random.Generator.multinomial` takes it."""
    law = [
        -math.expm1(-a) + math.exp(-a) * math.expm1(-b) * math.expm1(-c),
        math.exp(-a - c) * -math.expm1(-b),
        math.exp(-a - b) * -math.expm1(-c),
    ]
    return np.array(law + [max(0.0, 1.0 - sum(law))])


@dataclass(frozen=True)
class G2Run:
    g2: float
    sigma_g2: float
    coincidences: int
    signal_singles: int
    idler_singles: int


def acquire_g2(
    cfg: ExperimentConfig,
    signal_channel: int,
    idler_channel: int,
    n_cycles: int,
    tags: tuple,
    stored: bool = True,
) -> G2Run:
    """Cross-correlation run with single-temporal-mode pairs and direct
    detection (no analyzers).

    The signal stream comes from the recalled pairs of ``signal_channel``'s
    memory band, the idler stream from pairs whose idlers pass
    ``idler_channel``'s filter.  For distinct channels the two sets are
    independent Poisson streams, so only accidental coincidences remain.
    The run integrates n = :func:`_stage_cycles` cycles.  A run in which
    either side has no click raises :class:`ConfigError`: g2 is undefined.

    A run counts, per cycle, whether its signal window and its idler window
    hold a click, so it is drawn as a law over cycle occupancy, not as
    events.  Pair numbers are Poissonian and every mark of a pair (recall,
    detection, jitter) is independent, so by Poisson colouring (Kingman,
    *Poisson Processes*, 1993) the clicks that count toward each cycle form
    independent Poisson processes (:func:`_g2_rates`):

    - A: the pairs whose two clicks count toward the cycle, r eta^2 sum
      p(d)^2 for one channel and none for two, r = lambda_sig s being the
      recalled pairs per cycle and p the landing row
      (:func:`_landing_row`);
    - B: signal clicks alone, r q (1 - q) for one channel and r q for two,
      q = eta sum p, plus the memory noise (thinned by eta) and the dark
      counts that fall in the window;
    - C: idler clicks alone, r (1 - q) q plus the idler-only pairs
      (:func:`_idler_only`) times q for one channel, the idler channel's
      pairs times q for two, plus the dark counts in the window.

    Given them, each cycle's occupancy follows :func:`_occupancy_law`,
    independently of the other cycles, except for the split pairs: those
    whose two clicks count toward different cycles, r eta^2 ((sum p)^2 -
    sum p^2) per cycle, which couple two cycles.  They are drawn one by one:
    a Poisson number over the run, a uniform cycle each, and (d_s, d_i) from
    the off-diagonal of p x p.  Each cycle they touch gets its own draw from
    the law, with their hits OR-ed in, and every other cycle is one
    Multinomial draw.  At the calibration the split pairs are below 1e-20
    per cycle, so a run is one Multinomial draw.  Left out are clicks whose
    jitter exceeds 10 sigma, and the pairs emitted outside the run whose
    clicks count toward its first or last cycles.
    """
    n_cycles = _stage_cycles(n_cycles, stored)
    both, signal_only, idler_only, split = _g2_rates(cfg, signal_channel, idler_channel, stored)
    law = _occupancy_law(both, signal_only, idler_only)
    rng = derive_rng(cfg.seed, *tags, "occupancy")
    # cycles with both windows occupied, the signal window only, the idler
    # window only, neither
    tally = np.zeros(4, dtype=np.int64)
    n_split = rng.poisson(n_cycles * split.sum())
    n_touched = 0
    if n_split:
        reach = split.shape[0] // 2
        cycles = rng.integers(0, n_cycles, n_split) - reach
        shifts = rng.choice(split.size, n_split, p=split.ravel() / split.sum())
        d_s, d_i = np.divmod(shifts, split.shape[0])
        signal_hits, idler_hits = cycles + d_s, cycles + d_i
        signal_hits = signal_hits[(signal_hits >= 0) & (signal_hits < n_cycles)]
        idler_hits = idler_hits[(idler_hits >= 0) & (idler_hits < n_cycles)]
        touched = np.union1d(signal_hits, idler_hits)
        n_touched = touched.size
        own = rng.choice(4, n_touched, p=law)
        signal = own < 2
        signal[np.searchsorted(touched, signal_hits)] = True
        idler = own % 2 == 0
        idler[np.searchsorted(touched, idler_hits)] = True
        tally += np.bincount(2 * ~signal + ~idler, minlength=4)
    tally += rng.multinomial(n_cycles - n_touched, law)
    c, s, i = int(tally[0]), int(tally[0] + tally[1]), int(tally[0] + tally[2])
    row = np.array([c, s, i], dtype=float)
    value = float(g2_cross(row, n_cycles))
    if math.isnan(value):
        raise ConfigError(
            f"g2 of signal channel {signal_channel + 1} and idler channel {idler_channel + 1} "
            f"over {n_cycles} cycles: zero singles; g2 undefined"
        )
    sigma = bell.monte_carlo_errors(
        row,
        lambda draws: g2_cross(draws, n_cycles),
        n_trials=cfg.desk_scale.mc_trials,
        seed=_seed(cfg, *tags, "mc"),
    )
    return G2Run(g2=value, sigma_g2=float(sigma), coincidences=c, signal_singles=s, idler_singles=i)


def _stage(stored: bool) -> str:
    return "after" if stored else "before"


def acquire_spec(cfg: ExperimentConfig, spec) -> Acquisition:
    """:func:`acquire_threefold` of one scan spec ``(kind, channel, stored,
    key, alpha, beta, n_cycles)``, tagged ``(kind, channel, stage, *key)``."""
    kind, channel, stored, key, alpha, beta, n_cycles = spec
    tags = (kind, channel, _stage(stored), *key)
    return acquire_threefold(cfg, channel, alpha, beta, n_cycles, tags, stored)


def run_scans(cfg: ExperimentConfig, scans):
    """Run the threefold scans ``[(scan, *args), ...]``: yield each
    ``scan(cfg, *args)``'s fit of its ``(len(specs), 2, 3, 2, 3)`` count
    stack, in scan order, each spec acquired on the calling thread when its
    scan's fit is taken.  Each acquisition draws from generators derived
    from its own tags, so a caller can run its own work (the g2 runs)
    between the fits."""
    for scan, *args in scans:
        specs, fit = scan(cfg, *args)
        yield fit(np.array([acquire_spec(cfg, spec).threefold.counts for spec in specs]))


def chsh_scan(cfg: ExperimentConfig, channel: int, stored: bool):
    """Fixed-setting CHSH test: four acquisitions at the setting pairs
    ((a,b), (a',b), (a,b'), (a',b')) of ``bell.DEFAULT_CHSH_PHASES``.  The
    fit returns ``(ChshResult, counts)`` from the middle-middle counts only;
    counts that leave S undefined (a setting with no middle-middle count)
    raise :class:`ConfigError`."""
    a, ap, b, bp = bell.DEFAULT_CHSH_PHASES
    n_cycles = cfg.desk_scale.chsh_cycles_per_setting
    specs = [
        ("chsh", channel, stored, (label,), alpha, beta, n_cycles)
        for label, (alpha, beta) in zip(
            ("ab", "apb", "abp", "apbp"), ((a, b), (ap, b), (a, bp), (ap, bp))
        )
    ]

    def fit(stack) -> tuple[bell.ChshResult, np.ndarray]:
        counts = middle_middle(stack).reshape(-1, 4).astype(float)
        try:
            result = bell.chsh_from_counts(
                counts,
                n_trials=cfg.desk_scale.mc_trials,
                seed=_seed(cfg, "chsh-mc", channel, _stage(stored)),
            )
        except ValueError as err:
            raise ConfigError(
                f"CHSH of channel {channel + 1} {_stage(stored)} storage over "
                f"{_stage_cycles(n_cycles, stored)} cycles per setting: {err}"
            ) from err
        return result, counts

    return specs, fit


def fringe_scan(cfg: ExperimentConfig, channel: int, alpha_rad: float, stored: bool):
    """Franson fringe scan over beta at fixed alpha.  The fit returns the
    scan and its four per-combination visibility fits."""
    betas = np.linspace(0.0, 2.0 * math.pi, cfg.desk_scale.fringe_points, endpoint=False)
    n_cycles = cfg.desk_scale.fringe_cycles_per_point
    specs = [
        ("fringe", channel, stored, (round(alpha_rad, 9), n), alpha_rad, float(beta), n_cycles)
        for n, beta in enumerate(betas)
    ]

    def fit(stack) -> tuple[bell.FringeScan, list[bell.VisibilityFit]]:
        counts = middle_middle(stack).reshape(-1, 4)
        scan = bell.FringeScan(alpha_rad=alpha_rad, beta_rad=betas, counts=counts)
        fits = [
            bell.fit_visibility(
                scan,
                k,
                n_trials=cfg.desk_scale.mc_trials,
                seed=_seed(cfg, "fringe-mc", channel, _stage(stored), k),
            )
            for k in range(4)
        ]
        return scan, fits

    return specs, fit


def tomography_scan(cfg: ExperimentConfig, channel: int, stored: bool):
    """The four energy-basis tomography settings of one channel, DD first,
    each labeled by its (signal, idler) middle-slot states: beta is the
    signal-side phase.

    The fit returns the ``(4, 16)`` count record.  Counts enter it from the
    port-2/port-2 detector pair, slot-resolved into the nine measurable
    bases per setting.
    """
    n_cycles = cfg.desk_scale.tomography_cycles_per_setting
    phase = tom.SETTING_PHASES
    specs = [
        ("tomo", channel, stored, (label,), phase[label[1]], phase[label[0]], n_cycles)
        for label in tom.SETTING_LABELS
    ]

    def fit(stack) -> np.ndarray:
        # counts[port_i=2, slot_i, port_s=2, slot_s] -> grid[slot_s, slot_i]
        return tom.assemble_counts(stack[:, 1, :, 1, :].transpose(0, 2, 1))

    return specs, fit


def _stage_scans(channel: int, stored: bool) -> list:
    """The CHSH, alpha = 0 fringe and tomography scans of one channel and stage."""
    return [
        (chsh_scan, channel, stored),
        (fringe_scan, channel, 0.0, stored),
        (tomography_scan, channel, stored),
    ]


def analytic_counts(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    stored: bool,
) -> np.ndarray:
    """Expected threefold counts, shape ``(2, 3, 2, 3)`` in the layout of
    :func:`project_pair`, including the leading double-pair accidental term.

    True coincidences come from the signal-band pairs whose two photons are
    detected, at the Born-rule rate of each (port, slot) cell.  Accidentals
    pair an idler click and a signal click of two different pairs in one
    cycle, at the product of the per-(port, slot) marginals of the two
    sides.  This is the infinite-statistics prediction for the same
    :func:`acquire_threefold` call without dark counts or memory noise; with
    negligible pair rate it reduces to the bare Born-rule rates of
    project_pair.
    """
    mu_full = pair_rate_per_cycle(cfg.source)
    lam_sig = mu_full * cfg.filters.signal_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
    lam_idl = mu_full * cfg.filters.idler_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
    eff = cfg.detectors.efficiency
    cs = eff * (storage_survival(cfg.bank, channel) if stored else 1.0)

    table = project_pair(analytic_state(cfg.source), alpha_rad, beta_rad)
    p_idler = table.sum(axis=(2, 3))  # per idler (port, slot)
    p_signal = table.sum(axis=(0, 1))  # per signal (port, slot)
    true = lam_sig * cs * eff * table
    acc = np.multiply.outer(lam_idl * eff * p_idler, lam_sig * cs * p_signal)
    return _stage_cycles(n_cycles, stored) * (true + acc)


# --- reports --------------------------------------------------------------


def _fit_dict(fit: bell.VisibilityFit) -> dict:
    return {
        "V": fit.visibility,
        "sigma_V": fit.sigma_visibility,
        "phase_offset_rad": fit.phase_offset_rad,
        "amplitude": fit.amplitude,
        "converged": fit.converged,
    }


def channel_report(cfg: ExperimentConfig, channel: int) -> dict:
    """All statistics for one spectral channel, before and after storage."""
    report: dict = {"channel": channel + 1}
    records = {}
    results = run_scans(cfg, _stage_scans(channel, False) + _stage_scans(channel, True))
    for stored in (False, True):
        stage = _stage(stored)
        chsh, chsh_counts = next(results)
        _, fits = next(results)
        records[stage] = next(results)
        g2_corr = acquire_g2(
            cfg, channel, channel, cfg.desk_scale.g2_cycles, ("g2", channel, stage), stored
        )
        a1b1 = float(chsh_counts[0, 0])
        cycles = _stage_cycles(cfg.desk_scale.chsh_cycles_per_setting, stored)
        time_per_setting = cycles * cfg.clock_period_ns * 1e-9
        rate = a1b1 / time_per_setting
        report[stage] = {
            "chsh": chsh.as_dict(),
            "g2_correlated": {"value": g2_corr.g2, "sigma": g2_corr.sigma_g2},
            "visibilities": {
                label: _fit_dict(fit) for label, fit in zip(bell.COMBO_LABELS, fits)
            },
            "coincidence_rate_hz": {
                "A1B1_measure_window": rate,
                "A1B1_wall_clock": rate * cfg.duty_cycle.measure_fraction,
                "sigma": math.sqrt(max(a1b1, 1.0)) / time_per_setting,
            },
        }
    other = (channel + 1) % len(cfg.bank.channels)
    g2_uncorr = acquire_g2(
        cfg, channel, other, cfg.desk_scale.g2_cycles, ("g2x", channel, other), True
    )
    report["g2_uncorrelated"] = {
        "idler_channel": other + 1,
        "value": g2_uncorr.g2,
        "sigma": g2_uncorr.sigma_g2,
    }

    fits, tomo = tom.reconstruct_with_errors(
        [records["before"], records["after"]],
        tom.storage_pair_metrics,
        n_trials=cfg.desk_scale.mc_trials,
        seed=_seed(cfg, "tomo-pair", channel),
    )
    report["tomography"] = tomo
    report["density_matrices"] = {
        stage: _matrix_to_lists(fit.rho) for stage, fit in zip(("before", "after"), fits)
    }
    return report


def _matrix_to_lists(m: np.ndarray) -> dict:
    return {
        "real": [[float(x) for x in row] for row in m.real],
        "imag": [[float(x) for x in row] for row in m.imag],
    }


def run_report(cfg: ExperimentConfig, channels=None) -> dict:
    """Full multi-channel run report (the ``simulate`` verb's payload)."""
    channels = list(range(len(cfg.bank.channels))) if channels is None else list(channels)
    # a stage's cycles before storage, the same for every channel: its scans
    # and its correlated g2 run, and after storage the uncorrelated g2 run
    cycles = cfg.desk_scale.g2_cycles + sum(
        spec[-1] for scan, *args in _stage_scans(0, False) for spec in scan(cfg, *args)[0]
    )
    period_s = cfg.clock_period_ns * 1e-9
    measure_time = {
        "before": _stage_cycles(cycles, False) * period_s,
        "after": _stage_cycles(cycles + cfg.desk_scale.g2_cycles, True) * period_s,
    }
    duty = cfg.duty_cycle.measure_fraction
    report = {
        "seed": cfg.seed,
        "timing": {
            "measure_window_time_per_stage_s": measure_time,
            "wall_clock_time_per_stage_s": {k: t / duty for k, t in measure_time.items()},
            "duty_measure_fraction": duty,
            "note": f"after storage each acquisition integrates {_STORED_CYCLES_FACTOR}x the "
            "cycles of its desk_scale key; reported rates use measure-window time",
        },
        "channels": [channel_report(cfg, ch) for ch in channels],
    }
    return report
