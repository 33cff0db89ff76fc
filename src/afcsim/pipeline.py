"""End-to-end simulated acquisitions: each draws from the per-cycle laws
of :mod:`afcsim.model`, counts, and reports; per-channel run reports.

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
hold one pair, and how many hold each larger number (:func:`model.pairs_law`).
A pair alone in a cycle with no other classified click is lone, and the
lone pairs' classes are one Multinomial draw over :func:`model.lone_law`, from
which their counts are read.  Only the other pairs are drawn one by one,
in cycle coordinates, and counted with the stray clicks.  The idler-only
pairs, whose signal photon gives no click, are drawn only in the cycles
toward which a signal click may count.  Such an acquisition has counts,
not clicks.  Click times come from one place, :func:`acquire_clicks`,
which draws every signal-click pair at its cycle of the run: the way
:func:`acquire_threefold` acquires where a click may count toward another
cycle, and the acquisition whose clicks fig7 histograms, at every config.
Only the idler-only pairs' clicks that fig7's histogram alone can meet are
drawn on demand (:class:`ClickAcquisition`).

A g2 run (:func:`acquire_g2`) draws no pair, click or time: each cycle's
signal and idler window occupancy follows one law (:func:`model.g2_rates`,
:func:`model.occupancy_law`), except where a pair's two clicks count toward
different cycles.  So a run is one Multinomial draw over the cycles, and
those rare split pairs (none at the calibration) are drawn one by one.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from afcsim import bell, model
from afcsim import tomography as tom
from afcsim.analyzer import (
    _IDLER_PORT,
    _OUTCOME_INDEX,
    DetectorConfig,
    PairClicks,
    ThreefoldCounts,
    _cell_lookup,
    _offset_slots,
    _sample_cells,
    _slot_keys,
    detect,
    g2_cross,
    middle_middle,
    pair_threefold_counts,
    sample_pair_outcomes,
)
from afcsim.config import ConfigError, ExperimentConfig
from afcsim.memory import storage_survival
from afcsim.source import analytic_state, emission_arrays

__all__ = [
    "derive_rng",
    "HISTOGRAM_SPAN_NS",
    "Acquisition",
    "ClickAcquisition",
    "acquire_threefold",
    "acquire_clicks",
    "G2Run",
    "acquire_g2",
    "acquire_spec",
    "run_scans",
    "chsh_scan",
    "fringe_scan",
    "tomography_scan",
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
    from f - w.  J is ``model.JITTER_REACH_SIGMAS`` detector jitter sigmas.  At
    the calibration (P = 16 ns, s = 1.25 ns, H = 4.05 ns, J = 0.4 ns) w = 1.
    """
    period_ps = cfg.clock_period_ns * 1e3
    wrap_ps = period_ps / 2 + cfg.source.pump.pulse_interval_ns * 1e3
    histogram_ps = HISTOGRAM_SPAN_NS * 1e3 + cfg.coincidence.histogram_bin_ps / 2
    jitter_ps = model.JITTER_REACH_SIGMAS * cfg.detectors.jitter_sigma_ps
    return math.ceil((max(wrap_ps, histogram_ps) + jitter_ps) / period_ps)


def _click_cycles(clicks_ps: np.ndarray, delay_ps: float, period_ps: float) -> np.ndarray:
    """The cycles of the clicks: their times after the recall delay, in
    whole periods."""
    cycles = (clicks_ps - delay_ps) / period_ps
    return np.floor(cycles, out=cycles).astype(np.int64)


def _near_cycles(cycles: np.ndarray, w: int, n_cycles: int) -> np.ndarray:
    """The sorted cycles of ``[0, n_cycles)`` within ``w`` of one of the
    int64 ``cycles``: the union of the intervals [c - w, c + w] over the
    distinct cycles c, each less what its predecessor's covers and clipped
    to the run, expanded one after the other, so that no array is longer
    than the cycles or the result."""
    cycles = _distinct(cycles)
    lo = np.maximum(cycles - w, 0)
    lo[1:] = np.maximum(lo[1:], cycles[:-1] + w + 1)
    hi = np.minimum(cycles + w + 1, n_cycles)
    lo, hi = lo[hi > lo], hi[hi > lo]
    # steps of 1, but from each interval's last cycle to the next one's first
    near = np.ones(int((hi - lo).sum()), dtype=np.int64)
    if near.size:
        near[0] = lo[0]
        near[(hi - lo).cumsum()[:-1]] = lo[1:] - hi[:-1] + 1
    return near.cumsum(out=near)


def _draw(cfg: ExperimentConfig, processes, n_cycles: int, rng) -> np.ndarray:
    """The cycles of the pairs of the ``(band, fraction)`` processes, drawn
    over ``n_cycles`` cycles by :func:`emission_arrays`, one process after
    the other."""
    return np.concatenate([emission_arrays(cfg.source, n_cycles, rng, *p)[0] for p in processes])


def _multinomial(rng: np.random.Generator, n: int, law: np.ndarray) -> np.ndarray:
    """The numbers per class of ``n`` draws from ``law``, one Multinomial
    draw with the most likely class last, as the Multinomial gives the last
    class what the others leave."""
    order = law.argsort(kind="stable")
    numbers = np.empty(law.size, dtype=np.int64)
    numbers[order] = rng.multinomial(n, law[order])
    return numbers


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, sorted: one sort and a mask, where numpy
    2.4's hashing ``np.unique`` takes about 40 times as long on 232k
    cycles."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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


@dataclass(frozen=True)
class Acquisition:
    """One analyzer acquisition: port/slot-resolved threefold counts and
    bookkeeping (see :func:`acquire_threefold`).  ``pairs`` are the
    signal-click pairs drawn one by one, in cycle coordinates.
    ``n_pairs_sampled`` counts the pairs the acquisition stands for: the
    signal-click pairs of the whole run, and the idler-only pairs drawn in
    N."""

    threefold: ThreefoldCounts
    n_pairs_sampled: int
    pairs: PairClicks


@dataclass(frozen=True)
class ClickAcquisition(Acquisition):
    """An acquisition with every click it counted (:func:`acquire_clicks`).

    Its cycles are the run's: ``pairs`` holds every signal-click pair.  The
    idler clicks of the idler-only pairs and the stray clicks (the idler
    dark counts, and on the signal side the memory noise and the dark
    counts) are times and ports.  ``draw_ring`` draws the idler clicks only
    fig7's histogram can meet (see :meth:`idler_clicks`)."""

    delay_ps: float
    period_ps: float
    idler_only: tuple[np.ndarray, np.ndarray]
    stray_idler: tuple[np.ndarray, np.ndarray]
    stray_signal: tuple[np.ndarray, np.ndarray]
    draw_ring: Callable = field(repr=False)

    def idler_clicks(self, histogram: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(times in ps, ports) of every idler click counted: the pairs',
        the idler-only pairs', then the dark counts, so that one
        :func:`threefold_counts` call over these clicks gives the
        acquisition's counts.  With ``histogram``, also the idler clicks of
        the idler-only pairs outside N that fig7's histogram can meet with a
        signal click, drawn on each call from a stream of their own."""
        parts = [self.pairs.idler_clicks(self.period_ps), self.idler_only, self.stray_idler]
        if histogram:
            parts.append(self.draw_ring(self.signal_clicks()[0]))
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def signal_clicks(self) -> tuple[np.ndarray, np.ndarray]:
        """(times in ps, ports) of every signal click, the recall delay
        included: the pairs', then the stray ones."""
        parts = [self.pairs.signal_clicks(self.period_ps, self.delay_ps), self.stray_signal]
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


@model.memoized
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


def _stray_clicks(cfg: ExperimentConfig, channel: int, tags, stored: bool, duration_ps):
    """The recall and the stray clicks of an acquisition: (s eta, the share
    of the signal-band pairs whose signal photon clicks; the recall delay;
    the signal side's and the idler side's stray clicks as (times, int8
    ports)).  On the signal side they are the memory noise and the dark
    counts, on the idler side the dark counts, drawn in the run's time."""
    survival, delay_ps, noise_t, noise_port = _recall(cfg, channel, tags, stored, duration_ps)
    stray_signal = _detect_side(
        noise_t, noise_port, cfg.detectors, duration_ps, _seed(cfg, *tags, "signal-detector")
    )
    # the idler dark counts: the detector model with no arrival
    stray_idler = _detect_side(
        np.empty(0), np.empty(0, dtype=np.int8), cfg.detectors, duration_ps, _seed(cfg, *tags, "idler-detector")
    )
    return survival * cfg.detectors.efficiency, delay_ps, stray_signal, stray_idler


def _idler_only_clicks(cfg: ExperimentConfig, processes, setting, n_near: int, near: Callable, tags, duration_ps):
    """The idler-only pairs of the ``processes``
    (:func:`model.idler_only_processes`) drawn in N, whose ``n_near`` cycles
    ``near`` maps indices to: (their number, (times in ps, int8 ports) of
    their idler clicks).  ``setting`` is the ``(rho, alpha, beta, lookup)``
    of their outcomes.  Their idlers pass the detector model in cycle
    coordinates, seeded from the outcomes' stream, with no dark count: the
    idler detectors' are the stray clicks'."""
    period_ps = cfg.clock_period_ns * 1e3
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    only = np.empty(0, dtype=np.int64)
    if n_near:  # no signal click, no idler-only pair to draw
        only = near(_draw(cfg, processes, n_near, derive_rng(cfg.seed, *tags, "fringe")))
    rng_only = derive_rng(cfg.seed, *tags, "idler-outcome")
    rho, alpha_rad, beta_rad, lookup = setting
    only_port, only_slot = sample_pair_outcomes(rho, alpha_rad, beta_rad, only.size, rng_only, lookup)[:2]
    only_t = only_slot * spacing_ps
    only_t += only * period_ps
    only_t, only_port = _detect_side(
        only_t, only_port, _without_dark(cfg.detectors), duration_ps, int(rng_only.integers(2**31))
    )
    # each click as its cycle's reference plus its offset after it, its
    # cycle the one whose middle slot lies nearest (the cycle a classified
    # click counts toward, :func:`afcsim.analyzer._slot_keys`).  The sum is
    # the detected time but for an ulp, and only below cycle 0; the counts
    # are pinned to the sum
    only_cycles = np.floor((only_t - spacing_ps) / period_ps + 0.5).astype(np.int64)
    only_t -= only_cycles * period_ps
    times = only_cycles * period_ps
    times += only_t
    return only.size, (times, only_port)


def _counts(cfg: ExperimentConfig, pairs: PairClicks, idler_only, stray_idler, stray_signal, delay_ps):
    """:func:`pair_threefold_counts` of the pairs with the idler-only and
    stray clicks."""
    return pair_threefold_counts(
        pairs,
        np.concatenate([idler_only[0], stray_idler[0]]),
        np.concatenate([idler_only[1], stray_idler[1]]),
        *stray_signal,
        cfg.clock_period_ns,
        cfg.coincidence,
        slot_spacing_ns=cfg.source.pump.pulse_interval_ns,
        signal_ref_ps=delay_ps,
    )


def acquire_threefold(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    tags: tuple,
    stored: bool,
) -> Acquisition:
    """Simulate one UMZI-analyzed acquisition at phases (alpha, beta): its
    counts, with no click time.

    Pairs are emitted in the channel's idler-filter band, joint (port, slot)
    outcomes are Born-rule sampled from one table per acquisition
    (:func:`afcsim.analyzer._cell_lookup`), the signal photon is thinned by
    the memory band and (when stored) the recall survival s, and both sides
    pass the click-level detector model (efficiency eta, Gaussian jitter,
    dark counts) before clock-triggered threefold counting over
    :func:`_stage_cycles` cycles.

    By Poisson splitting the pairs form two independent processes: the
    signal-click pairs, mu = s eta lambda_sig per cycle, and the idler-only
    pairs (:func:`model.idler_only_processes`).  An idler-only click counts
    only in a cycle that holds a classified signal click, so those pairs
    are drawn only in N: S, the cycles that hold a signal click (a pair's,
    or a classified stray one), widened by the landing reach w
    (:func:`model.landing_reach`) on each side, and their idlers pass
    :func:`detect` with no dark count.  The stray clicks (memory noise,
    dark counts) are drawn in the run's time by :func:`detect`.

    Where w > 0 (4 ns jitter), this is :func:`acquire_clicks`: each
    signal-click pair is drawn at its cycle of the run.  Where w = 0 (the
    calibration, 400 ps jitter), cycles are independent and, by Poisson
    colouring, most are counts, not positions.  A cycle that holds a
    classified stray click draws its own K ~ Poisson(mu) pairs at its cycle
    of the run; the others are one Multinomial over K
    (:func:`model.pairs_law`), and those with K >= 1 take cycle coordinates
    after every cycle a stray click is classified in.  A K = 1 pair is lone
    unless an idler-only click is classified in its cycle; being lone does
    not depend on its own marks, so the lone pairs' classes are one
    Multinomial over :func:`model.lone_law`, read off by
    :func:`_lone_counts`.  The other pairs are explicit: each draws its cell, idler keep and jitter, and their
    clicks, with the idler-only and stray ones, are counted in cycle
    coordinates by :func:`pair_threefold_counts`.
    """
    if model.landing_reach(*model.click_geometry(cfg)):
        return acquire_clicks(cfg, channel, alpha_rad, beta_rad, n_cycles, tags, stored)
    n_cycles = _stage_cycles(n_cycles, stored)
    duration_ps = n_cycles * cfg.clock_period_ns * 1e3
    rho = analytic_state(cfg.source)
    lookup = _cell_lookup(rho, alpha_rad, beta_rad)
    share, delay_ps, stray_signal, stray_idler = _stray_clicks(cfg, channel, tags, stored, duration_ps)
    # the cycles of the classified stray clicks, the signal side's times
    # after the recall delay, and which of them lie on the idler side
    busy, idler_side = _classified_cycles(
        cfg,
        np.concatenate([stray_signal[0] - delay_ps, stray_idler[0]]),
        _SIDES.repeat([stray_signal[0].size, stray_idler[0].size]),
    )
    signal_busy = busy[~idler_side]
    busy = _distinct(busy)
    in_run = busy[(busy >= 0) & (busy < n_cycles)]
    rng_em = derive_rng(cfg.seed, *tags, "emission")
    mu = model.process_rate(cfg, [(model.channel_band(channel, cfg.filters.signal_bandwidth_ghz), share)])
    busy_k = rng_em.poisson(mu, in_run.size)
    per_k = _multinomial(rng_em, n_cycles - in_run.size, model.pairs_law(mu))
    crowded_k = np.arange(2, per_k.size).repeat(per_k[2:])
    n_single = int(per_k[1])
    n_signal = int(busy_k.sum() + crowded_k.sum()) + n_single
    # S: the stray-busy cycles with a pair or a classified signal click,
    # then the K >= 2 cycles and the K = 1 cycles, whose coordinates start
    # at base
    in_signal = signal_busy[(signal_busy >= 0) & (signal_busy < n_cycles)]
    s_busy = _distinct(np.concatenate([in_run[busy_k > 0], in_signal]))
    base = max(n_cycles, int(busy[-1]) + 1) if busy.size else n_cycles
    single = base + crowded_k.size

    def near(index):
        cycles = index + (base - s_busy.size)
        busy_index = (index < s_busy.size).nonzero()[0]
        cycles[busy_index] = s_busy.take(index.take(busy_index))
        return cycles

    n_only, idler_only = _idler_only_clicks(
        cfg,
        model.idler_only_processes(cfg, channel, share),
        (rho, alpha_rad, beta_rad, lookup),
        s_busy.size + crowded_k.size + n_single,
        near,
        tags,
        duration_ps,
    )
    # the K = 1 cycles in which an idler-only click is classified
    hit = _classified_cycles(cfg, *idler_only)[0]
    hit = _distinct(hit[(hit >= single) & (hit < single + n_single)])
    cycles = np.concatenate([in_run.repeat(busy_k), np.arange(base, single).repeat(crowded_k), hit])
    rng_cells = derive_rng(cfg.seed, *tags, "outcome")
    pairs = _pair_clicks(
        cfg, cycles, _sample_cells(lookup, cycles.size, rng_cells), derive_rng(cfg.seed, *tags, "pair-detector")
    )
    law = model.lone_law(cfg, lookup[0])
    draw = _multinomial(rng_cells, n_single - hit.size, law.ravel()).reshape(law.shape)
    explicit_tf = _counts(cfg, pairs, idler_only, stray_idler, stray_signal, delay_ps)
    lone_tf = _lone_counts(draw)
    return Acquisition(
        threefold=ThreefoldCounts(
            counts=explicit_tf.counts + lone_tf.counts,
            unclassified_idler=explicit_tf.unclassified_idler + lone_tf.unclassified_idler,
            unclassified_signal=explicit_tf.unclassified_signal + lone_tf.unclassified_signal,
        ),
        n_pairs_sampled=n_signal + n_only,
        pairs=pairs,
    )


def acquire_clicks(
    cfg: ExperimentConfig,
    channel: int,
    alpha_rad: float,
    beta_rad: float,
    n_cycles: int,
    tags: tuple,
    stored: bool,
) -> ClickAcquisition:
    """The acquisition of :func:`acquire_threefold` with every click it
    counts: each signal-click pair drawn at its cycle of the run
    (:func:`emission_arrays`) with its cell, idler keep and jitter, the
    idler-only pairs drawn in N, materialized as the sorted cycles within w
    of S (:func:`_near_cycles`), and the stray clicks, all counted by one
    :func:`pair_threefold_counts` call.

    Where w > 0 this is how :func:`acquire_threefold` acquires.  Where w =
    0 it draws every signal-click pair that :func:`acquire_threefold` counts
    by class, so the two draw one law, not one sample.
    """
    n_cycles = _stage_cycles(n_cycles, stored)
    period_ps = cfg.clock_period_ns * 1e3
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    rho = analytic_state(cfg.source)
    lookup = _cell_lookup(rho, alpha_rad, beta_rad)
    share, delay_ps, stray_signal, stray_idler = _stray_clicks(cfg, channel, tags, stored, n_cycles * period_ps)
    processes = model.idler_only_processes(cfg, channel, share)
    reach = model.landing_reach(*model.click_geometry(cfg))
    # the cycles of the classified signal stray clicks, after the recall delay
    signal_t = stray_signal[0] - delay_ps
    signal_busy = _classified_cycles(cfg, signal_t, np.zeros(signal_t.size, dtype=np.int8))[0]
    sig_band = model.channel_band(channel, cfg.filters.signal_bandwidth_ghz)
    cycles = emission_arrays(cfg.source, n_cycles, derive_rng(cfg.seed, *tags, "emission"), sig_band, share)[0]
    cells = _sample_cells(lookup, cycles.size, derive_rng(cfg.seed, *tags, "outcome"))
    pairs = _pair_clicks(cfg, cycles, cells, derive_rng(cfg.seed, *tags, "pair-detector"))
    moved, shift, _, ok = _offset_slots(pairs.signal_offsets_ps, *model.click_geometry(cfg)[:3])
    counted = cycles.copy()
    counted[moved] += shift
    near = _near_cycles(np.concatenate([counted[ok], signal_busy]), reach, n_cycles)
    del counted
    n_only, idler_only = _idler_only_clicks(
        cfg, processes, (rho, alpha_rad, beta_rad, lookup), near.size, near.take, tags, n_cycles * period_ps
    )

    def draw_ring(signal_t):
        """(times, ports) of the idler clicks of the idler-only pairs outside
        N whose clicks fig7's histogram may meet with a signal click at
        ``signal_t``: those of the cycles within :func:`_neighbour_cycles`
        of one, less N.  The idler-only processes are thinned by eta, the
        idler clicks that are kept."""
        wide = _near_cycles(_click_cycles(signal_t, delay_ps, period_ps), _neighbour_cycles(cfg), n_cycles)
        if not wide.size:
            return np.empty(0), np.empty(0, dtype=np.int8)
        rng = derive_rng(cfg.seed, *tags, "ring")
        eta = cfg.detectors.efficiency
        ring = wide.take(_draw(cfg, [(band, f * eta) for band, f in processes], wide.size, rng))
        ring = ring[~np.isin(ring, near)]
        ring_cells = _sample_cells(lookup, ring.size, rng)
        times = _jittered(spacing_ps * _OUTCOME_INDEX[1].take(ring_cells), cfg.detectors.jitter_sigma_ps, rng)
        times += ring * period_ps
        return times, _IDLER_PORT.take(ring_cells)

    return ClickAcquisition(
        threefold=_counts(cfg, pairs, idler_only, stray_idler, stray_signal, delay_ps),
        n_pairs_sampled=cycles.size + n_only,
        pairs=pairs,
        delay_ps=delay_ps,
        period_ps=period_ps,
        idler_only=idler_only,
        stray_idler=stray_idler,
        stray_signal=stray_signal,
        draw_ring=draw_ring,
    )


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
    events: by Poisson colouring the clicks that count toward each cycle
    form independent Poisson processes of means A, B and C
    (:func:`model.g2_rates`).
    Given them, each cycle's occupancy follows :func:`model.occupancy_law`,
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
    both, signal_only, idler_only, split = model.g2_rates(cfg, signal_channel, idler_channel, stored)
    law = model.occupancy_law(both, signal_only, idler_only)
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


def _spec_args(spec) -> tuple:
    """The arguments after the config of an acquisition of one scan spec
    ``(kind, channel, stored, key, alpha, beta, n_cycles)``, tagged
    ``(kind, channel, stage, *key)``."""
    kind, channel, stored, key, alpha, beta, n_cycles = spec
    return channel, alpha, beta, n_cycles, (kind, channel, _stage(stored), *key), stored


def acquire_spec(cfg: ExperimentConfig, spec) -> Acquisition:
    """:func:`acquire_threefold` of one scan spec (:func:`_spec_args`)."""
    return acquire_threefold(cfg, *_spec_args(spec))


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
