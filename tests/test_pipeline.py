"""Pipeline integration tests: determinism, analytic self-consistency,
and the statistical structure of simulated acquisitions."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from afcsim import analyzer, bell, reports
from afcsim import pipeline as pl
from afcsim import states as st
from afcsim import tomography as tom
from afcsim.config import config_from_dict, reference_calibration_config
from afcsim.datasets import load_density_matrices, load_tomography_counts
from afcsim.memory import CHANNEL_OFFSETS_GHZ, AfcChannel, storage_survival
from afcsim.source import analytic_state, emission_arrays

from event_reference import g2_tallies


# the ideal source: no white noise or phase jitter, a balanced pump and
# 25 dB extinction
IDEAL_SOURCE = {
    "white_noise_fraction": 0.0,
    "pump": {"extinction_ratio_db": 25.0, "intensity_imbalance": 1.0, "phase_jitter_sigma_rad": 0.0},
}


def fast_config(**desk_overrides):
    """Shipped calibration with desk-scale statistics turned way down."""
    cfg = reference_calibration_config()
    desk = dict(
        chsh_cycles_per_setting=400_000,
        fringe_points=9,
        fringe_cycles_per_point=150_000,
        tomography_cycles_per_setting=300_000,
        g2_cycles=400_000,
        mc_trials=12,
    )
    desk.update(desk_overrides)
    return dataclasses.replace(cfg, desk_scale=dataclasses.replace(cfg.desk_scale, **desk))


def strong_memory(cfg):
    """``cfg`` with a channel-1 memory that recalls 100 times the
    calibration's share of the signal photons (s = 0.146) at 100 times its
    noise rate: a comb of d1 = 2F at finesse 3 with no background
    absorption, behind the transmission that brings its survival there.
    Stored over 1/100 of the cycles, it draws the pairs of a calibrated
    stored acquisition, so a test against the full-sampling references,
    which draw every pair of the idler band, keeps its power at their
    cost."""
    comb = AfcChannel(d1=6.0, finesse=3.0, d0=0.0)
    bank = dataclasses.replace(
        cfg.bank,
        channels=(comb, *cfg.bank.channels[1:]),
        transmission_efficiency=100 * storage_survival(cfg.bank, 0) / comb.efficiency,
        noise_rate_hz=100 * cfg.bank.noise_rate_hz,
    )
    return dataclasses.replace(cfg, bank=bank)


def _desk_cycles(n_cycles, stored):
    """The ``n_cycles`` argument of an acquisition that integrates
    ``n_cycles`` cycles (see ``pl._stage_cycles``)."""
    return n_cycles // pl._STORED_CYCLES_FACTOR if stored else n_cycles


def low_rate_config():
    """Tiny pair rate and no noise: accidentals negligible, so sampled
    counts must track the bare Born-rule rates."""
    raw = {
        "seed": 5,
        "source": {"pair_emission_probability_per_cycle": 0.02},
        "memory": {"noise_rate_hz": 0.0},
        "detectors": {"dark_count_rate_hz": 0.0},
        "desk_scale": {"fringe_cycles_per_point": 2_000_000},
    }
    return config_from_dict(raw)


class TestDeterminism:
    def test_reports_byte_identical(self):
        cfg = fast_config()
        a = json.dumps(pl.run_report(cfg, channels=[0]), sort_keys=True)
        b = json.dumps(pl.run_report(cfg, channels=[0]), sort_keys=True)
        assert a == b

    def test_seed_changes_statistics_within_3_sigma(self):
        cfg = fast_config()
        ((r1, _),) = pl.run_scans(cfg, [(pl.chsh_scan, 0, True)])
        ((r2, _),) = pl.run_scans(
            dataclasses.replace(cfg, seed=cfg.seed + 1), [(pl.chsh_scan, 0, True)]
        )
        mutual = math.hypot(r1.sigma_s, r2.sigma_s)
        assert abs(r1.s_value - r2.s_value) < 3 * mutual

    def test_acquisitions_independent_of_order(self):
        cfg = fast_config()
        a1 = pl.acquire_threefold(cfg, 0, 0.0, 0.5, 100_000, ("x",), stored=True)
        _ = pl.acquire_threefold(cfg, 1, 0.3, 0.1, 100_000, ("y",), stored=False)
        a2 = pl.acquire_threefold(cfg, 0, 0.0, 0.5, 100_000, ("x",), stored=True)
        np.testing.assert_array_equal(a1.threefold.counts, a2.threefold.counts)

    @staticmethod
    def _outputs(out):
        cfg = fast_config()
        report = json.dumps(pl.run_report(cfg, channels=[0, 1]), sort_keys=True)
        out.mkdir()
        reports.reproduce_fig4(cfg, out, 0)
        reports.reproduce_fig5(cfg, out, 0)
        reports.reproduce_fig7(cfg, out, 0)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return report, files

    def test_two_runs_give_the_same_bytes(self, tmp_path):
        # the report, and fig7's histogram of the lone pairs' clicks and of
        # the idler-only ring, each drawn on demand from its own stream
        first = self._outputs(tmp_path / "first")
        assert {"fig4_summary.json", "fig5_summary.json", "fig7_twofold_histogram.csv"} <= set(first[1])
        assert self._outputs(tmp_path / "second") == first


def _assert_same_fit(a, b):
    """Equal fits: dataclasses, tuples and lists field by field, arrays and
    scalars exactly."""
    if dataclasses.is_dataclass(a):
        a, b = dataclasses.astuple(a), dataclasses.astuple(b)
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_fit(x, y)
    else:
        np.testing.assert_array_equal(a, b)


class TestRunScans:
    def test_each_fit_is_its_scan_run_alone(self):
        cfg = fast_config(chsh_cycles_per_setting=150_000, tomography_cycles_per_setting=150_000)
        scans = [
            (pl.tomography_scan, 1, False),
            (pl.chsh_scan, 1, True),
            (pl.fringe_scan, 1, 0.3, True),
            (pl.chsh_scan, 1, False),
        ]
        together = list(pl.run_scans(cfg, scans))
        assert len(together) == len(scans)
        for scan, fit in zip(scans, together):
            (alone,) = pl.run_scans(cfg, [scan])
            _assert_same_fit(fit, alone)

    @pytest.mark.parametrize("call", ["channel_report", "fig4", "fig5"])
    def test_one_acquisition_per_spec(self, monkeypatch, tmp_path, call):
        # each spec of the call is acquired once, on the calling thread
        acquired = []
        original = pl.acquire_spec

        def recording_acquire_spec(cfg, spec):
            acquired.append((spec, threading.get_ident()))
            return original(cfg, spec)

        monkeypatch.setattr(pl, "acquire_spec", recording_acquire_spec)
        cfg = fast_config()
        points = cfg.desk_scale.fringe_points
        run, n_specs = {
            "channel_report": (lambda: pl.channel_report(cfg, 0), 2 * (4 + points + 4)),
            "fig4": (lambda: reports.reproduce_fig4(cfg, tmp_path, 0), 2 * points),
            "fig5": (lambda: reports.reproduce_fig5(cfg, tmp_path, 0), 2 * 4),
        }[call]
        run()
        specs = [(kind, channel, stored, key) for (kind, channel, stored, key, *_), _ in acquired]
        assert len(specs) == len(set(specs)) == n_specs
        assert {thread for _, thread in acquired} == {threading.get_ident()}

    def test_fig7_histograms_the_tomography_dd_setting(self, tmp_path):
        cfg = fast_config()
        reports.reproduce_fig7(cfg, tmp_path, 0)
        (record,) = pl.run_scans(cfg, [(pl.tomography_scan, 0, True)])
        slots = ("early", "middle", "late")
        with open(tmp_path / "fig7_threefold_slots.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9
        for row in rows:
            # the DD setting's basis of this (signal slot, idler slot) cell
            v = tom.SLOT_BASIS[0, slots.index(row["signal_slot"]), slots.index(row["idler_slot"])]
            assert int(row["count"]) == record[0, v]


def wide_jitter_config():
    """4 ns detector jitter and a window that classifies every click, so
    clicks often land, and are counted, in a neighbour of their pair's
    cycle; a 20 GHz idler filter and 0.95 pairs per cycle make idler-only
    pairs a large share of the counts."""
    cfg = fast_config()
    return dataclasses.replace(
        cfg,
        source=dataclasses.replace(cfg.source, pair_emission_probability_per_cycle=0.95),
        filters=dataclasses.replace(cfg.filters, idler_bandwidth_ghz=20.0),
        detectors=dataclasses.replace(cfg.detectors, jitter_sigma_ps=4000.0),
        coincidence=dataclasses.replace(cfg.coincidence, window_ps=16000.0),
    )


def _crowded_config():
    """Cycles with several pairs: 9.2 pairs a cycle (a pair in all but
    1e-4 of the cycles), of which the 4 GHz signal band gives 0.26 signal
    clicks a cycle."""
    cfg = fast_config()
    return dataclasses.replace(
        cfg,
        source=dataclasses.replace(cfg.source, pair_emission_probability_per_cycle=0.9999),
    )


def _noisy_config():
    """Dark counts and memory noise at 100 kHz: after storage most signal
    clicks are noise."""
    cfg = fast_config()
    return dataclasses.replace(
        cfg,
        bank=dataclasses.replace(cfg.bank, noise_rate_hz=1e5),
        detectors=dataclasses.replace(cfg.detectors, dark_count_rate_hz=1e5),
    )


def _busy_config():
    """Dark counts at 10 MHz and memory noise at 100 kHz (10 MHz in
    strong_memory's stored runs): a classified stray click in about 7% of
    the cycles, so that many signal-click pairs share a cycle with one and
    are drawn there one by one."""
    cfg = fast_config()
    return dataclasses.replace(
        cfg,
        bank=dataclasses.replace(cfg.bank, noise_rate_hz=1e5),
        detectors=dataclasses.replace(cfg.detectors, dark_count_rate_hz=1e7),
    )


def _dense_config():
    """34.5 pairs a cycle in a 64 GHz pair band with matching 4 GHz filters:
    1.5 signal clicks a cycle, so 78% of the cycles hold one and the
    placement of the cycles drawn as counts fills most of the run."""
    cfg = fast_config()
    return dataclasses.replace(
        cfg,
        source=dataclasses.replace(
            cfg.source, pair_emission_probability_per_cycle=1 - 1e-15, pair_bandwidth_ghz=64.0
        ),
        filters=dataclasses.replace(cfg.filters, idler_bandwidth_ghz=4.0),
    )


def _jitter_400_config():
    """400 ps detector jitter: no click leaves its cycle, so pairs are still
    lone, but a click lands in its neighbour slot's window with chance
    0.9% and outside every window with chance 45%."""
    cfg = fast_config()
    return dataclasses.replace(cfg, detectors=dataclasses.replace(cfg.detectors, jitter_sigma_ps=400.0))


def _recall_draw(cfg, channel, tags, n_signal, stored):
    """Which of ``n_signal`` signal photons the memory recalls: one keep
    draw per pair at the recall survival, from the tags' "storage" stream."""
    if not stored:
        return np.ones(n_signal, dtype=bool)
    rng = pl.derive_rng(cfg.seed, *tags, "storage")
    return rng.random(n_signal) < storage_survival(cfg.bank, channel)


def _full_sampling_clicks(cfg, channel, alpha, beta, n_cycles, tags, stored):
    """``(idler, signal, delay_ps)``: the (times, ports) of the clicks of the
    event path that draws every pair of the idler band over ``n_cycles``
    cycles, stored or not, gives each a joint outcome and sends each idler
    to a detector; the signal photon is kept in the signal band when the
    memory recalls it, by a keep draw per pair (``_recall_draw``)."""
    period_ps = cfg.clock_period_ns * 1e3
    spacing_ps = cfg.source.pump.pulse_interval_ns * 1e3
    duration_ps = n_cycles * period_ps
    band = pl.channel_band(channel, cfg.filters.idler_bandwidth_ghz)
    rng_em = pl.derive_rng(cfg.seed, *tags, "emission")
    cycles, offsets = emission_arrays(cfg.source, n_cycles, rng_em, band)
    in_band = np.abs(offsets - CHANNEL_OFFSETS_GHZ[channel]) <= cfg.filters.signal_bandwidth_ghz / 2
    i_port, i_slot, s_port, s_slot = analyzer.sample_pair_outcomes(
        analytic_state(cfg.source), alpha, beta, cycles.size, pl.derive_rng(cfg.seed, *tags, "outcome")
    )
    _, delay_ps, noise_t, noise_port = pl._recall(cfg, channel, tags, stored, duration_ps)
    keep = in_band & _recall_draw(cfg, channel, tags, cycles.size, stored)
    idler_t = cycles * period_ps + i_slot * spacing_ps
    signal_t = np.concatenate([(cycles * period_ps + delay_ps + s_slot * spacing_ps)[keep], noise_t])
    signal_port = np.concatenate([s_port[keep], noise_port])
    arrivals = {
        "A1": idler_t[i_port == 0],
        "A2": idler_t[i_port == 1],
        "B1": signal_t[signal_port == 0],
        "B2": signal_t[signal_port == 1],
    }
    seed = pl._seed(cfg, *tags, "detector")
    streams = analyzer.detect(arrivals, cfg.detectors, duration_ps * 1e-12, seed)
    idler, signal = (
        (np.concatenate([streams[a], streams[b]]), np.repeat([0, 1], [streams[a].size, streams[b].size]))
        for a, b in (("A1", "A2"), ("B1", "B2"))
    )
    return idler, signal, delay_ps


def _full_sampling_counts(cfg, channel, alpha, beta, n_cycles, tags, stored):
    """Threefold counts of the clicks of ``_full_sampling_clicks``."""
    idler, signal, delay_ps = _full_sampling_clicks(cfg, channel, alpha, beta, n_cycles, tags, stored)
    return analyzer.threefold_counts(
        *idler,
        *signal,
        cfg.clock_period_ns,
        cfg.coincidence,
        slot_spacing_ns=cfg.source.pump.pulse_interval_ns,
        signal_ref_ps=delay_ps,
    ).counts


class TestPoissonSplitting:
    """acquire_threefold draws the idler-only pairs only where a signal
    click may count, and the lone pairs as one Multinomial; its counts must
    have the distribution of the event path that draws every pair
    (``_full_sampling_counts``).  ``fast_config`` differs from the
    calibration only in its desk scale, which an acquisition does not
    read, so the fast cases are the calibration's."""

    SEEDS = 16

    def test_reference_is_the_full_sampling_path(self):
        # the pinned counts of the event path before the split, which ran
        # stored acquisitions at the recall and noise of strong_memory
        cfg = strong_memory(fast_config())
        counts = _full_sampling_counts(cfg, 0, 0.0, 0.5, 400_000, ("pin",), True)
        assert counts.reshape(-1).tolist() == [
            28, 38, 1, 31, 36, 3, 30, 112, 25, 35, 10, 35, 3, 36, 32, 2, 33, 25,
            30, 29, 0, 26, 37, 3, 27, 14, 32, 34, 115, 35, 3, 34, 29, 2, 24, 31,
        ]

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    def test_no_signal_click_draws_no_idler_only_pair(self, monkeypatch, stored):
        # no pair, memory noise or dark count: N is empty, and a draw over
        # no cycle would raise.  The signal-click pairs are numbers per
        # cycle class, not an emission draw, so no emission draw is made
        cfg = config_from_dict(
            {
                "source": {"pair_emission_probability_per_cycle": 0.0},
                "memory": {"noise_rate_hz": 0.0},
                "detectors": {"dark_count_rate_hz": 0.0},
            }
        )
        draws = []

        def recording_emission(model, n_cycles, rng, band_ghz, fraction=1.0):
            draws.append((band_ghz, fraction))
            return emission_arrays(model, n_cycles, rng, band_ghz, fraction)

        monkeypatch.setattr(pl, "emission_arrays", recording_emission)
        acq = pl.acquire_threefold(cfg, 0, 0.0, 0.0, 100_000, ("empty",), stored)
        assert draws == []
        assert acq.n_pairs_sampled == 0
        assert acq.idler_clicks()[0].size == acq.signal_clicks()[0].size == 0
        assert not acq.threefold.counts.any()

    @staticmethod
    def _chi2_p(cfg, n_cycles, stored):
        """p of the two-sample chi-square over the 36 cells, each summed over
        seeds, of split acquisitions against the reference over the same
        ``n_cycles`` integrated cycles: given X + Y, X is binomial(X + Y,
        1/2) when both have one mean."""
        split = np.zeros(36)
        full = np.zeros(36)
        for k in range(TestPoissonSplitting.SEEDS):
            cfg_k = dataclasses.replace(cfg, seed=k)
            acq = pl.acquire_threefold(
                cfg_k, 0, 0.0, 0.5, _desk_cycles(n_cycles, stored), ("split",), stored
            )
            split += acq.threefold.counts.reshape(-1)
            full += _full_sampling_counts(cfg_k, 0, 0.0, 0.5, n_cycles, ("full",), stored).reshape(-1)
        total = split + full
        cells = total > 0
        chi2 = np.sum((split - full)[cells] ** 2 / total[cells])
        return stats.chi2.sf(chi2, cells.sum()), split, full

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    @pytest.mark.parametrize(
        "make_config, n_cycles",
        [
            (fast_config, 3_000_000),
            (wide_jitter_config, 300_000),
            (_jitter_400_config, 3_000_000),
            (_crowded_config, 300_000),
            (_noisy_config, 1_000_000),
            (_busy_config, 1_000_000),
        ],
        ids=["fast", "wide-jitter", "jitter-400ps", "crowded", "noisy", "stray-busy"],
    )
    def test_split_matches_full_sampling(self, make_config, n_cycles, stored):
        # stored, at strong_memory's recall: the calibration's physical
        # recall is the next test's
        cfg = strong_memory(make_config()) if stored else make_config()
        p, split, full = self._chi2_p(cfg, n_cycles, stored)
        assert p > 1e-3, (split, full)

    @staticmethod
    def _histogram(cfg, idler_t, signal_t, delay_ps):
        """fig7's two-fold histogram of the clicks: (bin centers, counts)."""
        return analyzer.coincidence_histogram(
            np.sort(idler_t), np.sort(signal_t) - delay_ps, cfg.coincidence, span_ns=pl.HISTOGRAM_SPAN_NS
        )

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    def test_histogram_matches_full_sampling(self, stored):
        # fig7's histogram of the clicks an acquisition exposes: the lone
        # pairs' drawn on demand and the idler-only pairs' outside N drawn
        # for the histogram alone (the ring).  With memory noise and dark
        # counts at 100 kHz, most signal clicks lie outside every window,
        # and the idler-only clicks of their neighbouring cycles, drawn in
        # the ring alone, fill the floor between the five peaks
        cfg = strong_memory(_noisy_config()) if stored else _noisy_config()
        n_cycles = 3_000_000
        split, ringless, full = 0, 0, 0
        for k in range(self.SEEDS):
            cfg_k = dataclasses.replace(cfg, seed=k)
            acq = pl.acquire_threefold(cfg_k, 0, 0.0, 0.5, _desk_cycles(n_cycles, stored), ("split",), stored)
            signal_t = acq.signal_clicks()[0]
            centers, counts = self._histogram(cfg_k, acq.idler_clicks(histogram=True)[0], signal_t, acq.delay_ps)
            split = split + counts
            ringless = ringless + self._histogram(cfg_k, acq.idler_clicks()[0], signal_t, acq.delay_ps)[1]
            idler, signal, delay_ps = _full_sampling_clicks(cfg_k, 0, 0.0, 0.5, n_cycles, ("full",), stored)
            full = full + self._histogram(cfg_k, idler[0], signal[0], delay_ps)[1]
        spacing = cfg.source.pump.pulse_interval_ns * 1e3
        floor = np.abs(centers[:, None] - spacing * np.arange(-2, 3)).min(axis=1) > cfg.coincidence.window_ps
        # the ring's clicks, the same lone clicks drawn with and without
        # them, raise the floor by far more than its Poisson spread
        assert split[floor].sum() - ringless[floor].sum() > 5 * math.sqrt(split[floor].sum())
        total = split + full
        bins = total > 0
        chi2 = np.sum((split - full)[bins] ** 2 / total[bins])
        assert stats.chi2.sf(chi2, bins.sum()) > 1e-3, (split, full)

    def test_split_matches_full_sampling_at_physical_recall(self):
        # the calibration's recall over the same 3M cycles: about 150
        # recalled pairs a seed, and the lost pairs nearly the whole band
        p, split, full = self._chi2_p(fast_config(), 3_000_000, True)
        assert split.sum() > 500
        assert p > 1e-3, (split, full)


class TestNearCycles:
    def test_maps_indices_to_the_cycles_near_a_click(self):
        # N built cycle by cycle: every cycle of [0, n) within w of one
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n, w = int(rng.integers(1, 60)), int(rng.integers(0, 4))
            cycles = np.sort(rng.integers(-5, n + 5, int(rng.integers(0, 40))))
            expected = [k for k in range(n) if np.any(np.abs(cycles - k) <= w)]
            size, near = pl._near_cycles(cycles.copy(), w, n)
            assert size == len(expected)
            assert near(np.arange(size)).tolist() == expected
            if size:  # indices in any order, as several processes draw them
                picks = rng.integers(0, size, 5)
                assert near(picks).tolist() == [expected[k] for k in picks]


class TestPairCounting:
    """An acquisition counts its lone pairs from their own cells and every
    other click through threefold_counts; its counts and unclassified
    tallies must be those of one threefold_counts call over all its
    clicks."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    @pytest.mark.parametrize(
        "make_config, n_cycles",
        [
            (reference_calibration_config, 2_000_000),
            (fast_config, 400_000),
            (wide_jitter_config, 100_000),
            (_crowded_config, 100_000),
            (_noisy_config, 400_000),
            (_busy_config, 400_000),
        ],
        ids=["calibration", "fast", "wide-jitter", "crowded", "noisy", "stray-busy"],
    )
    def test_counts_are_those_of_every_click(self, make_config, n_cycles, stored, seed):
        self._assert_counts_are_those_of_every_click(make_config, n_cycles, stored, seed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    def test_counts_at_400ps_jitter_are_those_of_every_click(self, stored, seed):
        # lone clicks drawn into a neighbour slot's window or outside every
        # window, conditional on the class they were counted in
        self._assert_counts_are_those_of_every_click(_jitter_400_config, 400_000, stored, seed)

    @staticmethod
    def _assert_counts_are_those_of_every_click(make_config, n_cycles, stored, seed):
        cfg = dataclasses.replace(make_config(), seed=seed)
        acq = pl.acquire_threefold(cfg, 0, 0.3, 1.1, _desk_cycles(n_cycles, stored), ("exact",), stored)
        every = analyzer.threefold_counts(
            *acq.idler_clicks(),
            *acq.signal_clicks(),
            cfg.clock_period_ns,
            cfg.coincidence,
            slot_spacing_ns=cfg.source.pump.pulse_interval_ns,
            signal_ref_ps=acq.delay_ps,
        )
        tf = acq.threefold
        assert tf.counts.sum() > 0
        np.testing.assert_array_equal(tf.counts, every.counts)
        assert (tf.unclassified_idler, tf.unclassified_signal) == (
            every.unclassified_idler,
            every.unclassified_signal,
        )

    def test_counts_at_dense_placement_are_those_of_every_click(self):
        # before storage the cycles drawn as counts fill 78% of the cycles
        # with no classified stray click, and are placed as one permutation
        self._assert_counts_are_those_of_every_click(_dense_config, 50_000, False, 0)

    def test_configs_reach_the_cases(self):
        # clicks that leave their pair's cycle, cycles with several pairs,
        # signal clicks that are mostly stray, and many pairs in stray-busy
        # cycles.  A lone pair has a signal click and no other trace: its
        # number is that of the lone signal clicks
        def n_lone(acq):
            return acq.draw_lone()[1][0].size

        cfg = wide_jitter_config()
        pairs = pl.acquire_threefold(cfg, 0, 0.0, 0.0, 100_000, ("exact",), False).pairs
        moved, *_ = analyzer._offset_slots(pairs.signal_offsets_ps, 16000.0, 1250.0, 16000.0)
        assert moved.size > 0.01 * pairs.cycles.size
        pairs = pl.acquire_threefold(_crowded_config(), 0, 0.0, 0.0, 100_000, ("exact",), False).pairs
        assert np.count_nonzero(np.diff(pairs.cycles) == 0) > 0.1 * pairs.cycles.size
        acq = pl.acquire_threefold(_noisy_config(), 0, 0.0, 0.0, 4_000, ("exact",), True)
        assert acq.stray_signal[0].size > acq.pairs.cycles.size + n_lone(acq)
        # a stray-busy cycle keeps its cycle of the run; every other cycle
        # takes a coordinate after the run
        n_cycles = 100_000
        acq = pl.acquire_threefold(_busy_config(), 0, 0.0, 0.0, n_cycles, ("exact",), False)
        in_busy = np.count_nonzero(acq.pairs.cycles < n_cycles)
        assert in_busy > 0.05 * (acq.pairs.cycles.size + n_lone(acq))
        # at the calibration before storage nearly every pair is lone; at
        # 4 ns jitter clicks leave their cycle, and none is
        acq = pl.acquire_threefold(reference_calibration_config(), 0, 0.0, 0.0, 2_000_000, ("exact",), False)
        assert n_lone(acq) >= 0.9 * (n_lone(acq) + acq.pairs.cycles.size)
        acq = pl.acquire_threefold(cfg, 0, 0.0, 0.0, 100_000, ("exact",), False)
        assert n_lone(acq) == 0 < acq.pairs.cycles.size


class TestLonePairs:
    """The law of a lone pair's classes, the conditional jitter its clicks
    are drawn with on demand, and how few pairs the scans draw one by one."""

    @pytest.mark.parametrize(
        "cfg",
        [
            reference_calibration_config(),
            _jitter_400_config(),
            dataclasses.replace(fast_config(), detectors=analyzer.DetectorConfig(jitter_sigma_ps=0.0)),
        ],
        ids=["calibration", "jitter-400ps", "no-jitter"],
    )
    def test_law_sums_to_one(self, cfg):
        law = pl._lone_law(cfg, analyzer._cell_lookup(analytic_state(cfg.source), 0.3, 1.1)[0])
        assert law.shape == pl._LONE_SHAPE
        assert law.min() >= 0
        assert abs(law.sum() - 1) < 1e-12

    @pytest.mark.parametrize(
        "make_config", [reference_calibration_config, _jitter_400_config], ids=["calibration", "jitter-400ps"]
    )
    def test_candidates_times_law_match_analytic_counts(self, make_config):
        # the expected counts of a run's signal-click pairs, all counted by
        # the law, against analytic_counts less its accidentals, each
        # side's slots moved by the chance that a click lands in each
        # window (scipy's normal CDF; a 600 ps window fits between slots)
        cfg = make_config()
        alpha, beta, n_cycles = 0.3, 1.1, 1_000_000
        eta = cfg.detectors.efficiency
        band = pl.channel_band(0, cfg.filters.signal_bandwidth_ghz)
        n_pairs = pl._rate(cfg, [(band, eta)]) * n_cycles
        law = pl._lone_law(cfg, analyzer._cell_lookup(analytic_state(cfg.source), alpha, beta)[0])
        counts = n_pairs * np.einsum("ijklmn->inkm", law)[:, :3, :, :3]

        table = analyzer.project_pair(analytic_state(cfg.source), alpha, beta)
        idler_band = cfg.filters.idler_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
        lam_idl = pl._rate(cfg, [((0.0, idler_band * cfg.source.pair_bandwidth_ghz), 1.0)])
        accidentals = n_cycles * np.multiply.outer(
            lam_idl * eta * table.sum(axis=(2, 3)), pl._rate(cfg, [(band, eta)]) * table.sum(axis=(0, 1))
        )
        true = pl.analytic_counts(cfg, 0, alpha, beta, n_cycles, stored=False) - accidentals
        spacing, sigma, half = 1250.0, cfg.detectors.jitter_sigma_ps, cfg.coincidence.window_ps / 2
        jitter = stats.norm(scale=sigma)
        # landing[k, j]: a click from slot k in slot j's window
        shift = spacing * (np.arange(3)[None, :] - np.arange(3)[:, None])
        landing = jitter.cdf(shift + half) - jitter.cdf(shift - half)
        np.testing.assert_allclose(counts, np.einsum("abcd,bj,dk->ajck", true, landing, landing), rtol=1e-9)
        if make_config is reference_calibration_config:
            np.testing.assert_allclose(counts, true, rtol=1e-9)
        else:  # the neighbour slot's window
            assert landing[0, 1] == pytest.approx(0.0087, abs=2e-4)

    @pytest.mark.parametrize(
        "slot, cls, window",
        [(0, 0, (-300.0, 300.0)), (0, 1, (950.0, 1550.0)), (2, 1, (950.0, 1550.0))],
        ids=["own-window", "next-window", "previous-window"],
    )
    def test_window_jitter_is_the_truncated_normal(self, slot, cls, window):
        cfg = _jitter_400_config()
        n = 4000
        offsets = pl._class_offsets(cfg, np.full(n, slot), np.full(n, cls), np.random.default_rng(3))
        z = (offsets - slot * 1250.0) / 400.0
        lo, hi = ((w - slot * 1250.0) / 400.0 for w in window)
        assert z.min() >= lo and z.max() <= hi
        assert stats.kstest(z, stats.truncnorm(lo, hi).cdf).pvalue > 1e-3

    def test_tail_jitter_is_the_truncated_normal(self):
        # at the calibration a middle-slot click is unclassified with chance
        # 6.4e-14: 7.5 to 23.75 sigma from its slot, on either side (the
        # class's other pieces lie beyond 38 sigma).  It is drawn by inverting
        # the CDF, where a rejection loop would never end
        cfg = reference_calibration_config()
        landing = analyzer._landing_table(*pl._click_geometry(cfg))
        assert landing[1, 3] == pytest.approx(2 * stats.norm.sf(7.5), rel=1e-9)
        n = 4000
        z = (pl._class_offsets(cfg, np.full(n, 1), np.full(n, 3), np.random.default_rng(4)) - 1250.0) / 40.0
        assert np.abs(z).min() >= 7.5 and np.abs(z).max() <= 23.75
        # CDF values near 1 would leave a few hundred distinct draws
        assert np.unique(z).size == n
        side = stats.norm.sf(7.5) - stats.norm.sf(23.75)

        def cdf(x):
            left = np.clip(stats.norm.sf(-np.minimum(x, -7.5)) - stats.norm.sf(23.75), 0.0, None)
            right = np.where(x > 7.5, side - (stats.norm.sf(np.minimum(x, 23.75)) - stats.norm.sf(23.75)), 0.0)
            return (left + right) / (2 * side)

        assert stats.kstest(z, cdf).pvalue > 1e-3
        assert 0.45 < np.mean(z > 0) < 0.55

    def test_scans_draw_few_pairs_one_by_one(self, monkeypatch):
        # a before-storage CHSH scan at the calibration: over 200k
        # signal-click pairs an acquisition, of which cells and jitter are
        # drawn for at most a tenth, and no emission draw but the idler-only
        # pairs', a few percent as many; every draw on the calling thread
        cfg = reference_calibration_config()
        acquired, threads = [], set()
        acquire, emission = pl.acquire_threefold, pl.emission_arrays
        sample_cells, jittered = pl._sample_cells, pl._jittered

        def recording_acquire(*args):
            acquired.append({"emitted": 0, "cells": 0, "jitter": 0})
            acquired[-1]["acq"] = acquire(*args)
            return acquired[-1]["acq"]

        def recording_emission(model, n_cycles, rng, band_ghz, fraction=1.0):
            out = emission(model, n_cycles, rng, band_ghz, fraction)
            acquired[-1]["emitted"] += out[0].size
            threads.add(threading.get_ident())
            return out

        def recording_cells(lookup, n, rng):
            acquired[-1]["cells"] += n
            threads.add(threading.get_ident())
            return sample_cells(lookup, n, rng)

        def recording_jitter(slots_ps, sigma_ps, rng):
            acquired[-1]["jitter"] += slots_ps.size
            return jittered(slots_ps, sigma_ps, rng)

        monkeypatch.setattr(pl, "acquire_threefold", recording_acquire)
        monkeypatch.setattr(pl, "emission_arrays", recording_emission)
        monkeypatch.setattr(pl, "_sample_cells", recording_cells)
        monkeypatch.setattr(pl, "_jittered", recording_jitter)
        ((result, _),) = pl.run_scans(cfg, [(pl.chsh_scan, 0, False)])
        assert len(acquired) == 4
        for record in acquired:
            acq = record["acq"]
            # every pair drawn is an idler-only pair; the rest are the
            # signal-click pairs, drawn as numbers per cycle class
            n_signal = acq.n_pairs_sampled - record["emitted"]
            assert n_signal > 200_000
            assert record["emitted"] < 0.1 * n_signal
            # cells for the explicit pairs, then their signal and idler
            # jitter; the idler-only clicks are jittered by the detector model
            assert record["cells"] == acq.pairs.cycles.size <= 0.1 * n_signal
            assert record["jitter"] == record["cells"] + acq.pairs.idler_pairs.size
        assert threads == {threading.get_ident()}
        assert result.s_value > 2


class TestPlacement:
    @pytest.mark.parametrize("n_free, n", [(1000, 10), (1000, 499), (1000, 501), (1000, 1000), (7, 6)])
    def test_distinct_values_in_range(self, n_free, n):
        picked = pl._placement(n_free, n, np.random.default_rng(n))
        assert picked.size == np.unique(picked).size == n
        assert 0 <= picked.min() and picked.max() < n_free

    @pytest.mark.parametrize("n", [2, 4], ids=["sparse", "dense"])
    def test_uniform_subset_in_random_order(self, n):
        # each value is picked, and comes first, equally often
        rng = np.random.default_rng(3)
        draws = np.array([pl._placement(5, n, rng) for _ in range(20_000)])
        picked = np.bincount(draws.ravel(), minlength=5)
        first = np.bincount(draws[:, 0], minlength=5)
        assert stats.chisquare(picked).pvalue > 1e-3
        assert stats.chisquare(first).pvalue > 1e-3

    def test_a_full_run_is_one_permutation(self):
        # 200 of 2M free cycles left: redrawing the repeats would take
        # thousands of rounds, each a sort of 2M values
        n_free = 2_000_000
        picked = pl._placement(n_free, n_free - 200, np.random.default_rng(0))
        assert np.unique(picked).size == n_free - 200


class TestBornTable:
    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "bypassed"])
    @pytest.mark.parametrize("make_config", [fast_config, wide_jitter_config], ids=["fast", "wide-jitter"])
    def test_one_table_per_acquisition(self, monkeypatch, make_config, stored):
        # the explicit pairs' cells, the idler-only pairs' outcomes, the lone
        # pairs' law and fig7's ring all read one Born-rule table
        calls = []
        original = analyzer.project_pair

        def counting_project_pair(rho, alpha, beta):
            calls.append((alpha, beta))
            return original(rho, alpha, beta)

        monkeypatch.setattr(analyzer, "project_pair", counting_project_pair)
        monkeypatch.setattr(pl, "project_pair", counting_project_pair)
        acq = pl.acquire_threefold(make_config(), 0, 0.3, 1.1, 100_000, ("born",), stored)
        acq.idler_clicks(histogram=True)
        assert calls == [(0.3, 1.1)]


def _no_jitter_config():
    return dataclasses.replace(fast_config(), detectors=analyzer.DetectorConfig(jitter_sigma_ps=0.0))


class TestMemoizedTables:
    @pytest.mark.parametrize(
        "make_config",
        [reference_calibration_config, _jitter_400_config, wide_jitter_config, _no_jitter_config],
        ids=["calibration", "jitter-400ps", "wide-jitter", "no-jitter"],
    )
    def test_read_only_and_a_fresh_build(self, make_config):
        # what an acquisition reads of a config's click geometry and rates,
        # built once: the landing table, the lone law's landing factors and
        # the Poisson law of K, each array read-only and bit for bit a fresh
        # build; and the lone law, multiplied in the order it always was
        cfg = make_config()
        geometry = pl._click_geometry(cfg)
        eta = cfg.detectors.efficiency
        mu = pl._rate(cfg, [(pl.channel_band(0, cfg.filters.signal_bandwidth_ghz), 0.0016 * eta)])
        for table, args in [
            (analyzer._landing_table, geometry),
            (pl._lone_factors, (*geometry, eta)),
            (pl._pairs_law, (mu,)),
        ]:
            got, fresh = table(*args), table.__wrapped__(*args)
            assert table(*args) is got
            for g, f in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, fresh)), strict=True):
                assert g.dtype == f.dtype and g.shape == f.shape and g.tobytes() == f.tobytes()
                with pytest.raises(ValueError):
                    g[(0,) * g.ndim] = 0.5
        cells = analyzer._cell_lookup(analytic_state(cfg.source), 0.3, 1.1)[0]
        landing = analyzer._landing_table.__wrapped__(*geometry)
        idler = np.hstack([eta * landing, np.full((3, 1), 1.0 - eta)])
        want = cells[..., None, None] * landing[:, :, None] * idler[:, None, None, None, :]
        assert pl._lone_law(cfg, cells).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 20260810, 2**32 - 1, np.int64(5)])
    def test_derived_generators_mix_the_entropy_words(self, seed):
        # the seed and the tags' CRCs as a uint32 array: the generator of
        # the same words as a list of ints
        tags = ("fringe", 0, "after", 0.0, 3, "emission")
        entropy = [int(seed)] + [zlib.crc32(str(t).encode()) for t in tags]
        want = np.random.default_rng(np.random.SeedSequence(entropy))
        assert pl.derive_rng(seed, *tags).bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_a_seed_outside_the_config_range_raises(self, seed):
        with pytest.raises(OverflowError):
            pl.derive_rng(seed, "emission")
        with pytest.raises(OverflowError):
            analyzer.detect({"1": np.arange(3.0)}, analyzer.DetectorConfig(), 1e-6, seed)


def test_a_warm_process_gives_the_outputs_of_a_cold_one(tmp_path, monkeypatch):
    # acquisitions at other configs and seeds first fill every memoized
    # table (a phase's POVM, the landing table and factors, the law of K,
    # the detectors with no dark count); the verbs' files must still be
    # those of a fresh process
    for cfg in (wide_jitter_config(), dataclasses.replace(fast_config(), seed=11)):
        for stored in (True, False):
            pl.acquire_threefold(cfg, 0, 0.3, 1.1, 200_000, ("warm",), stored)
    code = (
        "import dataclasses, sys\n"
        "from pathlib import Path\n"
        "from afcsim import reports\n"
        "from afcsim.config import reference_calibration_config\n"
        "cfg = reference_calibration_config()\n"
        "cfg = dataclasses.replace(cfg, seed=7, desk_scale=dataclasses.replace(cfg.desk_scale, mc_trials=5))\n"
        "out = Path(sys.argv[1])\n"
        "(out / 'fig4').mkdir(parents=True)\n"
        "(out / 'simulate').mkdir()\n"
        "reports.reproduce_fig4(cfg, out / 'fig4')\n"
        "reports.write_simulation_report(cfg, out / 'simulate', [0])\n"
    )
    monkeypatch.setattr(sys, "argv", ["-c", str(tmp_path / "warm")])
    exec(code, {})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cold = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cold")], env=env, capture_output=True, text=True)
    assert cold.returncode == 0, cold.stderr

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    warm = files(tmp_path / "warm")
    assert {Path("fig4/fig4_summary.json"), Path("simulate/report.json")} <= set(warm)
    assert warm == files(tmp_path / "cold")


def _full_sampling_g2_tallies(cfg, signal_channel, idler_channel, n_cycles, tags, stored):
    """(coincidences, signal singles, idler singles) of the g2 path that
    draws every signal-band pair and keeps its signal photon by a keep draw
    per pair (``_recall_draw``); a same-channel run sends the idlers of all
    of them, recalled or lost, with the idler filter's fringe pairs."""
    period_ps = cfg.clock_period_ns * 1e3
    duration_ps = n_cycles * period_ps
    signal_band = pl.channel_band(signal_channel, cfg.filters.signal_bandwidth_ghz)
    idler_band = pl.channel_band(idler_channel, cfg.filters.idler_bandwidth_ghz)
    sig_cycles, _ = emission_arrays(
        cfg.source, n_cycles, pl.derive_rng(cfg.seed, *tags, "sig-emission"), signal_band
    )
    rng_idl = pl.derive_rng(cfg.seed, *tags, "idl-emission")
    if idler_channel == signal_channel:
        fringe = [(idler_band[0], signal_band[0]), (signal_band[1], idler_band[1])]
        idl_cycles = [sig_cycles] + [emission_arrays(cfg.source, n_cycles, rng_idl, b)[0] for b in fringe]
        idl_cycles = np.sort(np.concatenate(idl_cycles))
    else:
        idl_cycles, _ = emission_arrays(cfg.source, n_cycles, rng_idl, idler_band)
    _, delay_ps, noise_t, _ = pl._recall(cfg, signal_channel, tags, stored, duration_ps)
    keep = _recall_draw(cfg, signal_channel, tags, sig_cycles.size, stored)
    signal_t = np.sort(np.concatenate([sig_cycles[keep] * period_ps + delay_ps, noise_t]))
    streams = analyzer.detect(
        {"A": idl_cycles * period_ps, "B": signal_t},
        cfg.detectors,
        duration_ps * 1e-12,
        pl._seed(cfg, *tags, "detector"),
    )
    tallies = g2_tallies(
        streams["B"], streams["A"], cfg.clock_period_ns, cfg.coincidence, signal_ref_ps=delay_ps
    )
    return np.array(dataclasses.astuple(tallies), dtype=float)


class TestG2PoissonSplitting:
    """acquire_g2 draws each cycle's occupancy from its law, and the pairs
    whose two clicks count toward different cycles one by one; its tallies
    must have the distribution of the path that draws every pair and keeps
    each signal photon by a draw per pair (``_full_sampling_g2_tallies``).
    The wide-jitter config makes those split pairs common: its landing row
    reaches w = 3 cycles on each side, and the calibration's w = 0."""

    SEEDS = 16

    @staticmethod
    def _binomial_p(cfg, idler_channel, stored):
        """p of each tally summed over seeds, split runs against the
        reference over the same integrated cycles, ``g2_cycles``: given X +
        Y, X is binomial(X + Y, 1/2) when both have one mean."""
        split = np.zeros(3)
        full = np.zeros(3)
        n_cycles = cfg.desk_scale.g2_cycles
        for k in range(TestG2PoissonSplitting.SEEDS):
            cfg_k = dataclasses.replace(cfg, seed=k)
            run = pl.acquire_g2(
                cfg_k, 0, idler_channel, _desk_cycles(n_cycles, stored), ("split",), stored
            )
            split += (run.coincidences, run.signal_singles, run.idler_singles)
            full += _full_sampling_g2_tallies(cfg_k, 0, idler_channel, n_cycles, ("full",), stored)
        return stats.binom.cdf(np.minimum(split, full), split + full, 0.5) * 2, split, full

    @pytest.mark.parametrize(
        "idler_channel, make_config, stored",
        [
            (channel, make_config, stored)
            for channel in (0, 3)
            for make_config in (fast_config, wide_jitter_config)
            for stored in (True, False)
        ],
        # the calibration's stored runs keep their names
        ids=[
            f"{channel}{config}{stage}"
            for channel in ("same-channel", "cross-channel")
            for config in ("", "-wide-jitter")
            for stage in ("", "-bypassed")
        ],
    )
    def test_tallies_match_full_sampling(self, idler_channel, make_config, stored):
        # stored, at strong_memory's recall; the three tallies share clicks,
        # so each is tested on its own against a third of the level
        cfg = strong_memory(make_config()) if stored else make_config()
        p, split, full = self._binomial_p(cfg, idler_channel, stored)
        assert (3 * p > 1e-3).all(), (split, full)

    def test_tallies_match_full_sampling_at_physical_recall(self):
        # the calibration's recall over the same 400k cycles: about 20
        # recalled pairs a seed
        p, split, full = self._binomial_p(fast_config(), 0, True)
        assert split[1] > 150
        assert (3 * p > 1e-3).all(), (split, full)

    def test_spread_matches_full_sampling_at_wide_jitter(self):
        # each tally's spread over 120 seeds, where split pairs are about a
        # tenth of the coincidences; Levene's test, each tally against a
        # third of the level
        cfg = wide_jitter_config()
        n_cycles = 20_000
        assert pl._g2_rates(cfg, 0, 0, False)[3].sum() * n_cycles > 50
        split, full = [], []
        for k in range(120):
            cfg_k = dataclasses.replace(cfg, seed=k)
            run = pl.acquire_g2(cfg_k, 0, 0, n_cycles, ("split",), stored=False)
            split.append((run.coincidences, run.signal_singles, run.idler_singles))
            full.append(_full_sampling_g2_tallies(cfg_k, 0, 0, n_cycles, ("full",), False))
        split, full = np.array(split), np.array(full)
        for tally in range(3):
            p = stats.levene(split[:, tally], full[:, tally]).pvalue
            assert 3 * p > 1e-3, (tally, split[:, tally].std(), full[:, tally].std())

    def test_no_split_pair_at_the_calibration(self):
        # 40 ps jitter never moves a click 15.7 ns into a neighbour's window
        cfg = reference_calibration_config()
        for stored in (True, False):
            assert pl._g2_rates(cfg, 0, 0, stored)[3].sum() < 1e-20

    def test_reach(self):
        # the landing row spans d in [-w - 1, w + 1], w = floor((W / 2 + 10
        # sigma) / P): (300 + 400) / 16000 and (8000 + 40000) / 16000, windows
        # that hold all but the jitter tail
        assert pl._landing_row(fast_config()).tolist() == [0.0, pytest.approx(1.0), 0.0]
        row = pl._landing_row(wide_jitter_config())
        assert row.size == 9
        assert row.sum() == pytest.approx(1.0)
        # an 8 ns window at 8 ns jitter: a click counts toward its pair's
        # cycle or a neighbour's, or falls between two windows
        cfg = wide_jitter_config()
        cfg = dataclasses.replace(
            cfg,
            detectors=dataclasses.replace(cfg.detectors, jitter_sigma_ps=8000.0),
            coincidence=analyzer.CoincidenceConfig(window_ps=8000.0),
        )
        row = pl._landing_row(cfg)
        assert row.size == 13  # w = 5
        centers = np.arange(-6, 7) * 16000.0
        jitter = stats.norm(scale=8000.0)
        mass = jitter.cdf(centers + 4000) - jitter.cdf(centers - 4000)
        # each cycle's mass to the rounding of erf near +-1
        np.testing.assert_allclose(row, mass, rtol=1e-12, atol=1e-15)
        assert row.sum() == pytest.approx(mass.sum(), rel=1e-12)
        assert row.sum() > 1.3 * row[6]  # the neighbours' share
        # no jitter: every click counts toward its own cycle
        cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(cfg.detectors, jitter_sigma_ps=0.0))
        assert pl._landing_row(cfg).tolist() == [1.0]

    def test_draw_streams_are_distinct(self, monkeypatch):
        # the run's draws and its Monte-Carlo draws on one stream would
        # correlate the error bar with the tallies
        paths = []
        original = pl.derive_rng

        def recording_derive_rng(seed, *tags):
            paths.append(tags)
            return original(seed, *tags)

        monkeypatch.setattr(pl, "derive_rng", recording_derive_rng)
        pl.acquire_g2(wide_jitter_config(), 0, 0, 20_000, ("streams",), stored=False)
        assert paths == [("streams", "occupancy"), ("streams", "mc")]


class TestG2Memory:
    """A stored same-channel g2 run at the calibration size, 600M cycles,
    draws its cycle occupancy as one Multinomial and no pair: it peaks at
    ~12 kB of tracemalloc memory.  Drawing all ~300k idler-band pairs of a
    6M-cycle run, as the g2 path once did, peaked at 15.5 MB, and drawing
    the ~20k recalled pairs with the idler-only pairs next to them at
    ~1.5 MB; the 600M-cycle run holds ~30M pairs."""

    MAX_MB = 0.5

    def test_peak_memory(self):
        cfg = reference_calibration_config()
        pl.acquire_g2(cfg, 0, 0, 10_000, ("warm-up",), stored=True)
        tracemalloc.start()
        try:
            run = pl.acquire_g2(cfg, 0, 0, cfg.desk_scale.g2_cycles, ("memory",), stored=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.signal_singles >= 10_000
        assert peak / 1e6 < self.MAX_MB


class TestAcquisitionMemory:
    """An acquisition keeps its explicit pairs in cycle coordinates, draws
    its lone pairs as numbers per class, and builds no array as long as N
    or as its signal-click pairs.  Holding every pair-level array to the
    end, as the event path once did, peaked at ~158 bytes per sampled
    pair."""

    MAX_BYTES_PER_PAIR = 80

    def test_peak_memory_per_pair(self):
        # 5M cycles draw ~125k pairs, ~116k of them signal-click pairs
        cfg = fast_config()
        pl.acquire_threefold(cfg, 0, 0.0, 0.5, 10_000, ("warm-up",), stored=False)
        tracemalloc.start()
        try:
            acq = pl.acquire_threefold(cfg, 0, 0.0, 0.5, 5_000_000, ("memory",), stored=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acq.n_pairs_sampled >= 100_000
        assert peak / acq.n_pairs_sampled < self.MAX_BYTES_PER_PAIR

    def test_no_array_as_long_as_the_signal_click_pairs(self):
        # a calibrated before-storage CHSH acquisition: the cycles of its
        # ~232k signal-click pairs alone, as int64, would take 8 bytes a
        # pair.  Drawing them, sorting them and splitting the lone ones off
        # peaked at 6.2 MB, ~27 bytes a pair
        cfg = reference_calibration_config()
        n_cycles = cfg.desk_scale.chsh_cycles_per_setting
        band = pl.channel_band(0, cfg.filters.signal_bandwidth_ghz)
        n_signal = pl._rate(cfg, [(band, cfg.detectors.efficiency)]) * n_cycles
        pl.acquire_threefold(cfg, 0, 0.0, 0.5, 10_000, ("warm-up",), stored=False)
        tracemalloc.start()
        try:
            acq = pl.acquire_threefold(cfg, 0, 0.0, 0.5, n_cycles, ("memory",), stored=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acq.n_pairs_sampled > n_signal > 200_000
        assert peak < 8 * n_signal


class TestCountingMemory:
    """One threefold_counts call, on every click of a before-storage CHSH
    acquisition, sorts and pairs them without an array of every same-cycle
    pair.  Expanding every pair into flat index arrays, as counting once
    did, peaked at ~40 bytes per click."""

    MAX_BYTES_PER_CLICK = 30

    def test_peak_memory_per_click(self):
        cfg = reference_calibration_config()
        acq = pl.acquire_threefold(
            cfg, 0, 0.0, 0.5, cfg.desk_scale.chsh_cycles_per_setting, ("memory",), stored=False
        )
        (idler_t, idler_p), (signal_t, signal_p) = acq.idler_clicks(), acq.signal_clicks()
        args = (idler_t, idler_p, signal_t, signal_p, cfg.clock_period_ns, cfg.coincidence)
        kwargs = dict(slot_spacing_ns=cfg.source.pump.pulse_interval_ns, signal_ref_ps=acq.delay_ps)
        n_clicks = idler_t.size + signal_t.size
        analyzer.threefold_counts(*args, **kwargs)  # warm-up
        tracemalloc.start()
        try:
            analyzer.threefold_counts(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_clicks >= 200_000
        assert peak / n_clicks < self.MAX_BYTES_PER_CLICK


class TestPinnedCounts:
    """Exact integer results of the event path at the shipped seed.  Every
    rewrite of sampling, detection or counting must keep each draw and each
    count; a changed RNG stream or an off-by-one cycle shows here.  The
    threefold pins are those of the position-free acquisition: the
    signal-click pairs are numbers of cycles per pair count K (each
    stray-busy cycle drawing its own K), the lone pairs' classes one
    Multinomial, and only the explicit pairs (K >= 2, stray-busy, or hit by
    a classified idler-only click) drawn one by one, with the idler-only
    pairs (the fringe, then the share 1 - s eta the memory loses or the
    signal detector misses) drawn only in the cycles of a signal click.
    Its pairs drawn differ by stage: after storage far fewer pairs are
    recalled, over 100 times the cycles, and fewer signal clicks leave
    fewer cycles to draw idler-only pairs in; the 100 times longer run
    holds 100 times the dark counts, most of them unclassified.  They
    replaced the pins of the acquisition that drew every signal-click
    pair's cycle and split the lone ones off by position (stored: counts
    [35, 45, 3, 34, 36, 1, 19, 120, 31, 26, 12, 38, 3, 37, 28, 2, 26, 38,
    36, 29, 0, 29, 25, 2, 39, 9, 30, 29, 121, 37, 1, 33, 23, 2, 29, 22],
    unclassified (12, 29), 1,429 pairs; bypassed: counts [204, 223, 8,
    188, 195, 13, 219, 780, 216, 219, 92, 218, 15, 225, 213, 13, 227, 211,
    190, 194, 17, 194, 194, 17, 198, 96, 217, 227, 765, 218, 9, 240, 215,
    10, 198, 201], unclassified (0, 0), 9,569 pairs), which had replaced
    those of the path that drew every signal-click pair's cell and jitter
    (stored: unclassified (11, 29), 1,583 pairs; bypassed: 10,046 pairs);
    each differs from the last at the Monte-Carlo level only.  The g2 pins
    are those of a stored same-channel run drawn as a law over cycle
    occupancy: one Multinomial over the 40M integrated cycles, as no split
    pair occurs at 40 ps jitter.  They replaced (996, 1388, 1411522), the
    pins of the event path that drew the recalled pairs and detected their
    clicks; the two differ at the Monte-Carlo level only."""

    @pytest.mark.parametrize(
        "stored, counts, unclassified, n_pairs",
        [
            (
                True,
                [22, 30, 1, 31, 26, 2, 33, 120, 36, 24, 18, 37, 1, 34, 23, 1, 35, 31,
                 20, 22, 0, 37, 23, 3, 30, 12, 40, 33, 108, 33, 1, 32, 25, 4, 26, 30],
                (12, 29),
                1_395,
            ),
            (
                False,
                [172, 216, 14, 205, 211, 18, 210, 751, 215, 213, 99, 224, 14, 219, 228, 8, 216, 175,
                 188, 218, 13, 184, 187, 18, 208, 101, 219, 218, 761, 232, 9, 205, 224, 15, 194, 235],
                (0, 0),
                9_539,
            ),
        ],
        ids=["stored", "bypassed"],
    )
    def test_threefold(self, stored, counts, unclassified, n_pairs):
        acq = pl.acquire_threefold(fast_config(), 0, 0.0, 0.5, 400_000, ("pin",), stored=stored)
        tf = acq.threefold
        assert tf.counts.reshape(-1).tolist() == counts
        assert (tf.unclassified_idler, tf.unclassified_signal) == unclassified
        assert acq.n_pairs_sampled == n_pairs

    def test_g2(self):
        cfg = fast_config()
        run = pl.acquire_g2(cfg, 0, 0, cfg.desk_scale.g2_cycles, ("pin-g2",), stored=True)
        assert (run.coincidences, run.signal_singles, run.idler_singles) == (953, 1329, 1411526)


class TestAnalyticConsistency:
    def test_sampled_counts_track_born_rates(self):
        # negligible-rate config: each of the 36 sampled cells within 5
        # sigma of the exact project_pair prediction plus accidentals
        cfg = low_rate_config()
        n_cycles = 3_000_000
        for stored in (False, True):
            for alpha, beta in ((0.0, np.pi / 4), (np.pi / 2, -np.pi / 4)):
                acq = pl.acquire_threefold(
                    cfg, 0, alpha, beta, n_cycles, ("cons", stored, alpha, beta), stored
                )
                expected = pl.analytic_counts(cfg, 0, alpha, beta, n_cycles, stored).reshape(-1)
                observed = acq.threefold.counts.reshape(-1).astype(float)
                for obs, exp in zip(observed, expected):
                    assert abs(obs - exp) < 5 * np.sqrt(max(exp, 1.0))

    def test_chsh_matches_analytic_s(self):
        cfg = low_rate_config()
        cfg = dataclasses.replace(
            cfg,
            desk_scale=dataclasses.replace(
                cfg.desk_scale, chsh_cycles_per_setting=3_000_000, mc_trials=40
            ),
        )
        ((result, _),) = pl.run_scans(cfg, [(pl.chsh_scan, 0, False)])
        from afcsim.source import analytic_state

        s_exact = bell.analytic_chsh(analytic_state(cfg.source))
        assert abs(result.s_value - s_exact) < 5 * result.sigma_s


class TestMemoryNoise:
    # no pairs and no dark counts: every signal click is memory noise,
    # injected at the noise rate over the stored run, 100 times n_cycles,
    # and thinned by the detector efficiency
    NOISE_ONLY = {
        "seed": 0,
        "source": {**IDEAL_SOURCE, "pair_emission_probability_per_cycle": 0.0},
        "memory": {"noise_rate_hz": 1e4, "channels": [{"d1": 1.1} for _ in range(5)]},
        "detectors": {"dark_count_rate_hz": 0.0},
        "desk_scale": {"fringe_cycles_per_point": 2_000_000},
    }

    def test_noise_clicks_track_the_noise_rate(self):
        cfg = config_from_dict(self.NOISE_ONLY)
        n_cycles = 1_000_000
        acq = pl.acquire_threefold(cfg, 0, 0.0, 0.0, n_cycles, ("noise",), True)
        assert acq.n_pairs_sampled == 0
        expected = (
            cfg.bank.noise_rate_hz
            * pl._stage_cycles(n_cycles, True)
            * cfg.clock_period_ns
            * 1e-9
            * cfg.detectors.efficiency
        )
        assert abs(acq.signal_clicks()[0].size - expected) < 4 * np.sqrt(expected)
        assert acq.idler_clicks()[0].size == 0

    def test_g2_signal_rate_carries_the_noise(self):
        # the g2 path recalls through the same memory: the signal-only mean
        # B holds the memory noise thinned by eta and the dark counts
        # unthinned, over one window, and the idler-only mean C the dark
        # counts alone.  With no pair and no dark count the idler side never
        # clicks, and g2 is undefined
        cfg = config_from_dict(self.NOISE_ONLY)
        with pytest.raises(ValueError, match="zero singles"):
            pl.acquire_g2(cfg, 0, 0, 1_000_000, ("noise-g2",), stored=True)
        dark_hz, eta = 300.0, cfg.detectors.efficiency
        cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(cfg.detectors, dark_count_rate_hz=dark_hz))
        window_s = cfg.coincidence.window_ps * 1e-12
        for stored, noise_hz in ((True, cfg.bank.noise_rate_hz), (False, 0.0)):
            both, signal_only, idler_only, split = pl._g2_rates(cfg, 0, 0, stored)
            assert both == split.sum() == 0.0
            assert signal_only == pytest.approx((dark_hz + eta * noise_hz) * window_s, rel=1e-12)
            assert idler_only == pytest.approx(dark_hz * window_s, rel=1e-12)
        # a run's signal singles track it: ~440 over the stored 100M cycles
        n_cycles = 1_000_000
        run = pl.acquire_g2(cfg, 0, 0, n_cycles, ("noise-g2",), stored=True)
        rate = (dark_hz + eta * cfg.bank.noise_rate_hz) * window_s
        expected = pl._stage_cycles(n_cycles, True) * -math.expm1(-rate)
        assert abs(run.signal_singles - expected) < 4 * np.sqrt(expected)


class TestG2Structure:
    def test_correlated_tracks_pair_rate(self):
        # g2 ~ 1 + 1/lambda with lambda the idler-band pair rate
        cfg = fast_config(g2_cycles=2_000_000)
        run = pl.acquire_g2(cfg, 2, 2, cfg.desk_scale.g2_cycles, ("g2c",), stored=False)
        mu = -math.log1p(-cfg.source.pair_emission_probability_per_cycle)
        lam = mu * cfg.filters.idler_bandwidth_ghz / cfg.source.pair_bandwidth_ghz
        assert run.g2 == pytest.approx(1.0 + 1.0 / lam, rel=0.08)

    def test_uncorrelated_factorizes(self):
        cfg = fast_config(g2_cycles=4_000_000)
        run = pl.acquire_g2(cfg, 0, 3, cfg.desk_scale.g2_cycles, ("g2u",), stored=True)
        assert run.g2 == pytest.approx(1.0, abs=5 * run.sigma_g2 + 0.05)

    def test_storage_reduces_singles_not_g2(self):
        cfg = fast_config(g2_cycles=2_000_000)
        before = pl.acquire_g2(cfg, 0, 0, cfg.desk_scale.g2_cycles, ("b",), stored=False)
        after = pl.acquire_g2(cfg, 0, 0, cfg.desk_scale.g2_cycles, ("a",), stored=True)
        assert after.signal_singles < 0.5 * before.signal_singles
        assert abs(after.g2 - before.g2) < 5 * math.hypot(after.sigma_g2, before.sigma_g2)


class TestIdealSource:
    def test_ideal_config_saturates_bell_bound(self):
        # perfect state, negligible pair rate, no noise: sampled S -> 2 sqrt 2
        raw = {
            "seed": 3,
            "source": {**IDEAL_SOURCE, "pair_emission_probability_per_cycle": 0.01},
            "memory": {
                "noise_rate_hz": 0.0,
                "channels": [{"d1": 1.1} for _ in range(5)],
            },
            "detectors": {"dark_count_rate_hz": 0.0},
            "desk_scale": {
                "chsh_cycles_per_setting": 6_000_000,
                "fringe_cycles_per_point": 2_000_000,
                "mc_trials": 30,
            },
        }
        cfg = config_from_dict(raw)
        ((result, _),) = pl.run_scans(cfg, [(pl.chsh_scan, 2, False)])
        assert abs(result.s_value - 2 * math.sqrt(2)) < max(5 * result.sigma_s, 0.02)

    def test_dd_setting_populates_nine_bases(self):
        cfg = fast_config()
        (record,) = pl.run_scans(cfg, [(pl.tomography_scan, 0, False)])
        dd_row = record[0]
        measured = tom.measured_mask()[0]
        assert measured.sum() == 9
        assert (dd_row[measured] > 0).all()
        assert (dd_row[~measured] == 0).all()


class TestStageOrdering:
    def test_before_has_more_counts_and_smaller_sigma(self):
        cfg = fast_config()
        ((r_before, c_before),) = pl.run_scans(cfg, [(pl.chsh_scan, 0, False)])
        ((r_after, c_after),) = pl.run_scans(cfg, [(pl.chsh_scan, 0, True)])
        assert c_before.sum() > 3 * c_after.sum()
        assert r_before.sigma_s < r_after.sigma_s


class TestChannelReport:
    def test_report_structure(self):
        cfg = fast_config()
        rep = pl.channel_report(cfg, 1)
        assert rep["channel"] == 2
        for stage in ("before", "after"):
            assert {"chsh", "g2_correlated", "visibilities", "coincidence_rate_hz"} <= set(
                rep[stage]
            )
            assert set(rep[stage]["visibilities"]) == set(bell.COMBO_LABELS)
        assert "fidelity_in_out" in rep["tomography"]
        assert rep["g2_uncorrelated"]["idler_channel"] != rep["channel"]

    def test_every_statistic_has_error_bar(self):
        cfg = fast_config()
        rep = pl.channel_report(cfg, 0)
        for stage in ("before", "after"):
            assert rep[stage]["chsh"]["sigma_S"] > 0
            assert rep[stage]["g2_correlated"]["sigma"] > 0
            for fit in rep[stage]["visibilities"].values():
                assert fit["sigma_V"] > 0
            assert rep[stage]["coincidence_rate_hz"]["sigma"] > 0
        for metric in rep["tomography"].values():
            assert metric["sigma"] > 0

    def test_timing_holds_both_stages(self):
        cfg = fast_config()
        report = pl.run_report(cfg, channels=[0])
        assert "desk_scale" not in report
        measure = report["timing"]["measure_window_time_per_stage_s"]
        wall = report["timing"]["wall_clock_time_per_stage_s"]
        assert set(measure) == set(wall) == {"before", "after"}
        # after storage the channel also runs the uncorrelated g2 run
        g2x_s = cfg.desk_scale.g2_cycles * cfg.clock_period_ns * 1e-9
        assert measure["after"] == pytest.approx(100 * (measure["before"] + g2x_s), rel=1e-12)
        for stage in ("before", "after"):
            assert wall[stage] > measure[stage]

    def test_after_storage_rate_is_physical(self):
        # the A1B1 rate over the stored integration time, 100 times the
        # CHSH cycles, is the calibration's: near 160 Hz, not 100 times it
        cfg = fast_config(chsh_cycles_per_setting=2_000_000)
        rate = pl.channel_report(cfg, 0)["after"]["coincidence_rate_hz"]
        a, _, b, _ = bell.DEFAULT_CHSH_PHASES
        n_cycles = cfg.desk_scale.chsh_cycles_per_setting
        expected = pl.analytic_counts(cfg, 0, a, b, n_cycles, True)[0, 1, 0, 1]
        time_s = pl._stage_cycles(n_cycles, True) * cfg.clock_period_ns * 1e-9
        assert 100 < expected / time_s < 250
        assert abs(rate["A1B1_measure_window"] - expected / time_s) < 4 * np.sqrt(expected) / time_s
        assert rate["sigma"] == pytest.approx(np.sqrt(rate["A1B1_measure_window"] / time_s))


BELL = st.projector(st.bell_psi_plus())
REFERENCE = load_density_matrices()[1]


def _state_metrics(rho):
    return tom.state_metrics(rho, REFERENCE)


def _state_reference(rho):
    return {
        "fidelity_bell": st.fidelity(rho, BELL),
        "purity": st.purity(rho),
        "entanglement_of_formation": st.entanglement_of_formation(rho),
        "fidelity_reference": st.fidelity(rho, REFERENCE),
    }


def _pair_reference(rho_in, rho_out):
    return {
        "fidelity_bell_in": st.fidelity(rho_in, BELL),
        "fidelity_bell_out": st.fidelity(rho_out, BELL),
        "purity_in": st.purity(rho_in),
        "purity_out": st.purity(rho_out),
        "eof_in": st.entanglement_of_formation(rho_in),
        "eof_out": st.entanglement_of_formation(rho_out),
        "fidelity_in_out": st.fidelity(rho_in, rho_out),
    }


class TestTomographyPairErrors:
    @pytest.mark.parametrize(
        "n_records, metrics, reference",
        [(1, _state_metrics, _state_reference), (2, tom.storage_pair_metrics, _pair_reference)],
        ids=["one-record", "two-records"],
    )
    def test_pair_error_bars_match_per_trial_resampling(
        self, monkeypatch, n_records, metrics, reference
    ):
        # a fixed solver (the MLE's starting point) in place of the batched
        # one isolates the resampling stream from the optimizer; it solves
        # row by row, so a row's result does not depend on its batch
        def linear_solver(counts, exposures):
            rhos = []
            for n, c in zip(counts, exposures):
                start = tom.params_from_rho(tom._linear_inversion(n, c))
                rhos.append(st.nearest_psd(tom.rho_from_params(start)))
            ones = np.ones(len(rhos), dtype=bool)
            return tom.ReconstructionResult(np.array(rhos), np.zeros(len(rhos), dtype=int), ones)

        monkeypatch.setattr(tom, "mle_reconstruct_batch", linear_solver)
        golden = load_tomography_counts()
        records = np.array([golden, np.round(0.6 * golden)])[:n_records]
        _, summary = tom.reconstruct_with_errors(records, metrics, n_trials=15, seed=31)

        # each record's 15 resamples, one record after the other
        rng = np.random.default_rng(31)
        resampled = [[rng.poisson(rec) for _ in range(15)] for rec in records]
        trials = []
        for k in range(15):
            rhos = []
            for record_trials in resampled:
                trial = record_trials[k]
                fit = linear_solver(trial.sum(axis=0)[None], tom.basis_exposures(trial)[None])
                rhos.append(fit.rho[0])
            trials.append(reference(*rhos))
        assert list(summary) == list(trials[0])
        for key, entry in summary.items():
            expected = np.std([t[key] for t in trials], ddof=1)
            assert entry["sigma"] == pytest.approx(expected, rel=0, abs=1e-15)

    def test_before_error_bars_do_not_depend_on_the_after_record(self):
        # each record's resamples come from their own run of the stream, and
        # the batched MLE solves each row on its own
        golden = load_tomography_counts()
        before = np.round(0.6 * golden)
        summaries = [
            tom.reconstruct_with_errors([before, after], tom.storage_pair_metrics, 20, seed=5)[1]
            for after in (golden, np.round(0.3 * golden), 2 * golden)
        ]
        assert summaries[1]["fidelity_bell_out"] != summaries[0]["fidelity_bell_out"]
        for key in ("fidelity_bell_in", "purity_in", "eof_in"):
            assert summaries[1][key] == summaries[2][key] == summaries[0][key], key
