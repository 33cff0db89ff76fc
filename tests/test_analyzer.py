"""Tests for the qubit analyzers, detector model, and coincidence counting."""

import dataclasses
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from afcsim import analyzer as an
from afcsim import model
from afcsim import states as st
from afcsim.config import ExperimentConfig
from afcsim.source import analytic_state

from event_reference import g2_tallies


class TestUmziPovm:
    @given(hst.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_completeness(self, phase):
        elems = model.umzi_povm(phase)
        total = elems.sum(axis=(0, 1))
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @given(hst.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_semidefinite(self, phase):
        elems = model.umzi_povm(phase)
        for port in range(2):
            for slot in range(3):
                vals = np.linalg.eigvalsh(elems[port, slot])
                assert vals.min() >= -1e-14

    def test_early_input_distribution(self):
        # |e> photon: short arm -> early (1/2 total), long arm -> middle
        # (1/2 total, 1/4 per port), never late
        elems = model.umzi_povm(0.7)
        rho_e = np.array([[1, 0], [0, 0]], dtype=complex)
        probs = np.einsum("psij,ji->ps", elems, rho_e).real
        np.testing.assert_allclose(probs.sum(axis=0), [0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(probs[:, an.SLOT_MIDDLE], [0.25, 0.25], atol=1e-12)

    def test_diagonal_input_interference(self):
        # (|e>+|l>)/sqrt(2) with phi = 0 interferes fully: the (-) port 1
        # middle slot goes dark, port 2 takes the whole middle probability
        elems = model.umzi_povm(0.0)
        d = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(d, d.conj())
        p1 = np.trace(rho @ elems[0, an.SLOT_MIDDLE]).real
        p2 = np.trace(rho @ elems[1, an.SLOT_MIDDLE]).real
        assert p1 == pytest.approx(0.0, abs=1e-12)
        assert p2 == pytest.approx(0.5, abs=1e-12)


def _povm_reference(phase):
    """The six POVM elements built from the phase as given, with no memo."""
    e = np.array([1.0, 0.0], dtype=complex)
    l = np.array([0.0, 1.0], dtype=complex)
    out = np.zeros((2, 3, 2, 2), dtype=complex)
    for k in (1, 2):
        u = e + (-1) ** k * np.exp(-1j * phase) * l
        out[k - 1, an.SLOT_EARLY] = 0.25 * np.outer(e, e.conj())
        out[k - 1, an.SLOT_MIDDLE] = 0.25 * np.outer(u, u.conj())
        out[k - 1, an.SLOT_LATE] = 0.25 * np.outer(l, l.conj())
    return out


class TestMemoized:
    @given(
        hst.floats(-10.0, 10.0)
        | hst.floats(-10.0, 10.0).map(np.float64)
        | hst.sampled_from([0.0, -0.0, math.pi, -math.pi / 2, 1, np.float64(-0.0)])
    )
    @settings(max_examples=100, deadline=None)
    def test_povm_is_read_only_and_a_fresh_build(self, phase):
        # a phase's elements, built once, are those of a build from the
        # phase as given, whatever its type, bit for bit
        povm = model.umzi_povm(phase)
        assert model.umzi_povm(phase) is povm
        fresh = _povm_reference(phase)
        assert povm.dtype == fresh.dtype and povm.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            povm[1, an.SLOT_MIDDLE, 0, 1] = 0.0

    def test_povm_of_minus_zero_is_its_own(self):
        assert model.umzi_povm(-0.0) is not model.umzi_povm(0.0)
        assert model.umzi_povm(-0.0).tobytes() == _povm_reference(-0.0).tobytes()

    def test_keeps_the_64_latest_used_results(self):
        builds = []
        squares = model.memoized(lambda x: builds.append(x) or np.full(2, x * x))
        for x in range(64):
            squares(x)
        squares(0)
        squares(64)
        assert builds == list(range(65))
        # 1, the least recently used, was dropped and is built again; 0 was
        # used again and is kept
        assert squares(1).tolist() == [1, 1] and builds[-1] == 1 and len(builds) == 66
        assert squares(0).tolist() == [0, 0] and len(builds) == 66
        with pytest.raises(ValueError):
            squares(3)[0] = 1
        assert squares.__wrapped__(3).flags.writeable


def _kron_loop_table(rho, alpha, beta):
    # one np.kron operator and one trace per (idler, signal) outcome pair
    m = np.asarray(rho, dtype=complex)
    e_idler, e_signal = model.umzi_povm(alpha), model.umzi_povm(beta)
    table = np.empty((2, 3, 2, 3))
    for ip in range(2):
        for isl in range(3):
            for sp in range(2):
                for ssl in range(3):
                    op = np.kron(e_signal[sp, ssl], e_idler[ip, isl])
                    table[ip, isl, sp, ssl] = np.trace(m @ op).real
    return table


class TestProjectPair:
    def test_equals_kron_loop_bit_for_bit(self):
        rng = np.random.default_rng(14)
        shipped = analytic_state(ExperimentConfig().source)
        cases = [(shipped, a, b) for a, b in [(0.0, 0.0), (0.0, np.pi / 2), (np.pi, np.pi / 4)]]
        cases += [(np.eye(4) / 4, 0.9, 0.3), (st.projector(st.bell_psi_plus()), 0.3, 0.4)]
        for k in range(300):
            rho = shipped if k % 3 == 0 else st.random_density_matrix(rng)
            cases.append((rho, *rng.uniform(-10.0, 10.0, 2)))
        for rho, alpha, beta in cases:
            table = model.project_pair(rho, alpha, beta)
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert np.array_equal(table, _kron_loop_table(rho, alpha, beta))

    def test_table_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rho = st.random_density_matrix(rng)
            table = model.project_pair(rho, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            assert table.min() >= -1e-12

    def test_franson_law_for_bell_state(self):
        rho = st.projector(st.bell_psi_plus())
        for alpha, beta in [(0.0, 0.0), (0.3, 0.4), (1.0, -0.25)]:
            table = model.project_pair(rho, alpha, beta)
            c = np.cos(alpha + beta)
            for k in range(2):
                for m in range(2):
                    sign = (-1) ** ((k + 1) + (m + 1))
                    expected = (1 + sign * c) / 16.0
                    assert table[k, 1, m, 1] == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_symmetric(self):
        table = model.project_pair(np.eye(4) / 4, 0.9, 0.3)
        mm = table[:, 1, :, 1].reshape(-1)
        np.testing.assert_allclose(mm, mm[0], atol=1e-14)

    def test_balance_point(self):
        # alpha = 0, beta = pi/2: cos = 0, all four port combos equal
        rho = st.projector(st.bell_psi_plus())
        table = model.project_pair(rho, 0.0, np.pi / 2)
        assert table[0, 1, 0, 1] == pytest.approx(table[0, 1, 1, 1], abs=1e-12)

    def test_sampling_matches_table(self):
        rho = st.werner_state(0.9)
        rng = np.random.default_rng(5)
        n = 200_000
        idx = an.sample_pair_outcomes(rho, 0.0, np.pi / 4, n, rng)
        table = model.project_pair(rho, 0.0, np.pi / 4)
        counts = np.zeros_like(table)
        np.add.at(counts, idx, 1)
        # 5-sigma binomial agreement per cell
        for cell, expected in zip(counts.reshape(-1), table.reshape(-1) * n):
            if expected > 25:
                assert abs(cell - expected) < 5 * np.sqrt(expected)

    def test_sampling_matches_unravel_index(self):
        rho = st.werner_state(0.8)
        n = 10_000
        got = an.sample_pair_outcomes(rho, 0.4, -1.2, n, np.random.default_rng(9))
        table = model.project_pair(rho, 0.4, -1.2)
        cum = np.cumsum(np.clip(table.reshape(-1), 0.0, None))
        cum /= cum[-1]
        flat = np.searchsorted(cum, np.random.default_rng(9).random(n), side="right")
        for g, e in zip(got, np.unravel_index(flat, table.shape), strict=True):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)


class _FixedDraws:
    """Stands in for a generator whose ``random(n)`` returns given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, n):
        assert n == self.draws.size
        return self.draws.copy()


@hst.composite
def _outcome_table_and_draws(draw):
    """A (2, 3, 2, 3) outcome table with zero cells, whose cumulative values
    may sit exactly on bin edges j / 2**bits, and draws at 0, on bin edges,
    on and next to the cumulative values, at 1 - 2**-53, and anywhere."""
    bits = draw(hst.integers(1, 16))
    cell_weight = hst.integers(0, 2**bits // 36 + 2) | hst.just(0)
    weights = draw(hst.lists(cell_weight, min_size=35, max_size=35))
    if draw(hst.booleans()):
        # integer weights summing to a power of two: exact cumulative values
        total = 2 ** max(bits, int(sum(weights)).bit_length())
        probs = np.array(weights + [total - sum(weights)], dtype=float) / total
    else:
        probs = np.array(weights + [draw(hst.integers(0, 5))], dtype=float)
        probs *= draw(hst.floats(0.1, 3.0))
        if probs.sum() == 0:
            probs[draw(hst.integers(0, 35))] = 1.0
    cum = np.cumsum(probs)
    cum /= cum[-1]
    specials = [0.0, 1.0 - 2.0**-53]
    specials += [j / an._BINS for j in (1, 2, an._BINS // 3, an._BINS - 1)]
    specials += [c for c in cum[:-1]] + [np.nextafter(c, 0.0) for c in cum[:-1] if c > 0]
    specials += [np.nextafter(c, 1.0) for c in cum[:-1]]
    draws = draw(
        hst.lists(
            hst.sampled_from([u for u in specials if u < 1.0])
            | hst.floats(0.0, 1.0, exclude_max=True),
            min_size=1,
            max_size=200,
        )
    )
    return probs.reshape(2, 3, 2, 3), np.array(draws)


@hst.composite
def _random_table(draw):
    """A (2, 3, 2, 3) table of any nonnegative weights, some of them zero
    or (as a Born-rule table may hold) a rounding error below zero."""
    weight = hst.floats(0.0, 1.0) | hst.just(0.0) | hst.floats(-1e-15, 0.0)
    weights = np.array(draw(hst.lists(weight, min_size=36, max_size=36)))
    if not (weights > 0).any():
        weights[draw(hst.integers(0, 35))] = draw(hst.floats(1e-300, 1.0))
    return weights.reshape(2, 3, 2, 3)


class TestBucketedOutcomes:
    @given(_outcome_table_and_draws().map(lambda case: case[0]) | _random_table())
    @settings(max_examples=300, deadline=None)
    def test_lookup_bins_match_searchsorted(self, table):
        # the bins built by integer arithmetic, whose tables include zero
        # cells and cumulative values exactly on multiples of 1 / 4096:
        # each bin's cell at its left edge, and whether a cumulative value
        # lies strictly inside it, as searches over the bin edges give them
        with patch.object(an, "project_pair", return_value=table):
            _, cum, cell, split = an._cell_lookup(None, 0.0, 0.0)
        edges = np.arange(an._BINS + 1) / an._BINS
        left = np.searchsorted(cum, edges[:-1], side="right")
        assert cell.dtype == np.int8 and split.dtype == bool
        np.testing.assert_array_equal(cell, left)
        np.testing.assert_array_equal(split, np.searchsorted(cum, edges[1:], side="left") != left)

    @given(_outcome_table_and_draws())
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_and_unravel_index(self, case):
        table, draws = case
        with patch.object(an, "project_pair", return_value=table):
            got = an.sample_pair_outcomes(None, 0.0, 0.0, draws.size, _FixedDraws(draws))
        cum = np.cumsum(np.clip(table.reshape(-1), 0.0, None))
        cum /= cum[-1]
        flat = np.searchsorted(cum, draws, side="right")
        for g, e in zip(got, np.unravel_index(flat, table.shape), strict=True):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)


@hst.composite
def _period_and_times(draw):
    """A whole-number period and times on its multiples, one ulp either side
    of them (where the quotient rounds onto an integer), tiny distances
    either side of zero, -0.0, and anywhere."""
    period = draw(hst.sampled_from([16000.0, 12500.0, 1.0, 3.0]))
    multiple = hst.builds(
        lambda cycle, toward: cycle * period if toward == 0 else np.nextafter(cycle * period, toward),
        hst.integers(-10**9, 10**9),
        hst.sampled_from([-np.inf, 0, np.inf]),
    )
    tiny = hst.sampled_from([1e-12, -1e-12, 1e-300, -1e-300, 5e-324, -5e-324])
    times = draw(hst.lists(multiple | tiny | hst.floats(-1e12, 1e12), min_size=1, max_size=40))
    return period, np.array(times + [-0.0])


class TestFoldCycles:
    @given(_period_and_times())
    @settings(max_examples=300, deadline=None)
    def test_phase_is_np_mod_bit_for_bit_and_k_is_the_floor(self, case):
        period, rel = case
        k, phase = an._fold_cycles(rel, period, period / 2)
        np.testing.assert_array_equal(phase.view(np.int64), np.mod(rel, period).view(np.int64))
        expected = [math.floor(Fraction(t) / Fraction(period)) for t in rel]
        assert k.dtype == np.int64 and k.tolist() == expected

    def test_a_fractional_period_takes_np_mod(self):
        rel = np.array([-1.0, 0.0, 16000.25, 1e9])
        k, phase = an._fold_cycles(rel, 16000.1, 1250.0)
        assert k is None
        np.testing.assert_array_equal(phase, np.mod(rel, 16000.1))


class TestDetect:
    def test_identity_when_perfect(self):
        det = an.DetectorConfig(efficiency=1.0, dark_count_rate_hz=0.0, jitter_sigma_ps=0.0)
        arrivals = {"B1": np.array([100.0, 5000.0, 9000.0])}
        out = an.detect(arrivals, det, duration_s=1e-6, seed=1)
        np.testing.assert_array_equal(out["B1"], arrivals["B1"])

    def test_dark_count_rate(self):
        det = an.DetectorConfig(efficiency=0.7, dark_count_rate_hz=10.0, jitter_sigma_ps=0.0)
        out = an.detect({"A1": np.array([])}, det, duration_s=200.0, seed=2)
        assert abs(len(out["A1"]) - 2000) < 4 * np.sqrt(2000)

    def test_efficiency_thinning(self):
        det = an.DetectorConfig(efficiency=0.7, dark_count_rate_hz=0.0, jitter_sigma_ps=0.0)
        n = 100_000
        out = an.detect({"B2": np.arange(n) * 1e4}, det, duration_s=1.0, seed=3)
        kept = len(out["B2"])
        assert abs(kept - 0.7 * n) < 4 * np.sqrt(n * 0.7 * 0.3)

    def test_deterministic_per_seed(self):
        det = an.DetectorConfig()
        arrivals = {"A1": np.arange(1000) * 1e4, "B1": np.arange(500) * 2e4}
        a = an.detect(arrivals, det, 1.0, seed=11)
        b = an.detect(arrivals, det, 1.0, seed=11)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, np.int64(5)])
    @pytest.mark.parametrize("dark_hz", [0.0, 1e5])
    def test_streams_of_the_spawned_generators(self, seed, dark_hz):
        # each detector's generator built from the words its spawned child
        # mixes, and the draws of no value skipped: the streams of
        # SeedSequence(seed).spawn with every draw made
        det = an.DetectorConfig(dark_count_rate_hz=dark_hz)
        arrivals = {"B2": np.arange(300) * 1e4, "A1": np.empty(0), "B1": np.arange(5.0)}
        duration_s = 1e-3
        got = an.detect(arrivals, det, duration_s, seed)
        children = np.random.SeedSequence(seed).spawn(len(arrivals))
        for child, name in zip(children, sorted(arrivals)):
            rng = np.random.default_rng(child)
            kept = np.compress(rng.random(arrivals[name].size) < det.efficiency, arrivals[name])
            kept += rng.normal(0.0, det.jitter_sigma_ps, size=kept.size)
            dark = rng.uniform(0.0, duration_s * 1e12, size=rng.poisson(dark_hz * duration_s))
            want = np.concatenate([kept, dark])
            assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes()

    def test_kept_arrivals_in_input_order_then_dark_counts(self):
        # arrivals 1 ns apart in falling time order, after the 1 ms over
        # which ~100 dark counts fall; 100 ps of jitter keeps each one
        # nearest its own nanosecond
        det = an.DetectorConfig(efficiency=0.7, dark_count_rate_hz=1e5, jitter_sigma_ps=100.0)
        arrivals = 2e9 - np.arange(2000) * 1e3
        out = an.detect({"A2": arrivals}, det, 1e-3, seed=4)["A2"]
        n_kept = np.count_nonzero(out > 1e9)
        assert 0.6 * arrivals.size < n_kept < out.size
        source = np.round((2e9 - out[:n_kept]) / 1e3)
        assert np.all(np.diff(source) > 0)
        assert np.all(out[n_kept:] < 1e9)


@hst.composite
def _histogram_case(draw):
    """Sorted whole-ps times, so that every difference is exact: ties,
    partners exactly +-span and +-(bins / 2) bins apart, and events with
    no partner within reach."""
    bin_ps = draw(hst.sampled_from([100.0, 300.0, 250.0, 700.0]))
    span_ns = draw(hst.sampled_from([1.0, 2.0, 4.0]))
    reach = math.ceil(2 * span_ns * 1e3 / bin_ps) / 2 * bin_ps
    times = hst.integers(0, 40_000).map(float)
    a = sorted(draw(hst.lists(times, max_size=20)))
    b = draw(hst.lists(times, max_size=20))
    for t in draw(hst.lists(hst.sampled_from(a), max_size=8)) if a else []:
        b.append(t + draw(hst.sampled_from([0.0, -span_ns * 1e3, span_ns * 1e3, -reach, reach])))
    b += [1e6] * draw(hst.integers(0, 2))
    return np.array(a), np.array(sorted(b)), bin_ps, span_ns


class TestCoincidenceHistogram:
    CFG = an.CoincidenceConfig(window_ps=600.0, histogram_bin_ps=100.0)

    def test_identical_streams_peak_at_zero(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 1e9, 2000))
        centers, counts = an.coincidence_histogram(t, t, self.CFG, span_ns=5.0)
        assert counts.max() >= 2000
        assert abs(centers[np.argmax(counts)]) <= self.CFG.histogram_bin_ps

    def test_flat_for_independent_poisson(self):
        rng = np.random.default_rng(1)
        duration_ps = 1e12  # 1 s
        rate = 5e-8  # per ps -> 50 kHz
        a = np.sort(rng.uniform(0, duration_ps, int(rate * duration_ps)))
        b = np.sort(rng.uniform(0, duration_ps, int(rate * duration_ps)))
        centers, counts = an.coincidence_histogram(a, b, self.CFG, span_ns=3.0)
        expected = rate * rate * duration_ps * self.CFG.histogram_bin_ps
        assert abs(counts.mean() - expected) < 5 * np.sqrt(expected / len(counts))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            an.coincidence_histogram(np.array([5.0, 1.0]), np.array([1.0]), self.CFG, 2.0)

    def test_bins_have_the_configured_width(self):
        # 8 ns in 300 ps bins: 27 bins centered on zero, out to +-4050 ps
        cfg = an.CoincidenceConfig(window_ps=600.0, histogram_bin_ps=300.0)
        a = np.array([0.0])
        b = np.array([-4050.0, -4000.0, 0.0, 4020.0, 4050.0, 4051.0])
        centers, counts = an.coincidence_histogram(a, b, cfg, span_ns=4.0)
        np.testing.assert_array_equal(centers, (np.arange(27) - 13) * 300.0)
        assert counts.tolist() == [2] + [0] * 12 + [1] + [0] * 12 + [2]

    @given(_histogram_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_every_pair(self, case):
        a, b, bin_ps, span_ns = case
        cfg = an.CoincidenceConfig(window_ps=3000.0, histogram_bin_ps=bin_ps)
        centers, counts = an.coincidence_histogram(a, b, cfg, span_ns=span_ns)
        nbins = math.ceil(2 * span_ns * 1e3 / bin_ps)
        edges = (np.arange(nbins + 1) - nbins / 2) * bin_ps
        np.testing.assert_array_equal(centers, 0.5 * (edges[:-1] + edges[1:]))
        diffs = [tb - ta for ta in a for tb in b]
        np.testing.assert_array_equal(counts, np.histogram(diffs, bins=edges)[0])


class TestPairWalk:
    @given(hst.lists(hst.tuples(hst.integers(-5, 50), hst.integers(-3, 6)), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_covers_every_pair_once(self, ranges):
        lo = np.array([r[0] for r in ranges], dtype=np.int64)
        n = np.array([r[1] for r in ranges], dtype=np.int64)
        walked = []
        for rows, cols in an._pair_walk(lo, n):
            assert rows.size and np.unique(rows).size == rows.size
            walked += zip(rows.tolist(), cols.tolist())
        expected = [(row, j) for row, (start, k) in enumerate(ranges) for j in range(start, start + k)]
        assert sorted(walked) == sorted(expected)


class TestThreefold:
    CFG = an.CoincidenceConfig()

    def test_slot_centers_classified(self):
        period = 16.0
        cycles = np.arange(100)
        i_times = cycles * period * 1e3  # early slot
        s_times = cycles * period * 1e3 + 2500.0  # late slot
        res = an.threefold_counts(
            i_times, np.zeros(100, int), s_times, np.ones(100, int), period, self.CFG,
            slot_spacing_ns=1.25,
        )
        assert res.unclassified_idler == 0
        assert res.unclassified_signal == 0
        assert res.counts[0, an.SLOT_EARLY, 1, an.SLOT_LATE] == 100
        assert res.counts.sum() == 100

    def test_off_center_events_unclassified(self):
        res = an.threefold_counts(
            np.array([700.0]), np.array([0]), np.array([]), np.array([], int), 16.0, self.CFG,
            slot_spacing_ns=1.25,
        )
        assert res.unclassified_idler == 1

    def test_reference_offsets_absorb_delay(self):
        period = 16.0
        delay_ps = 152_000.0
        cycles = np.arange(50)
        i_times = cycles * period * 1e3 + 1250.0
        s_times = cycles * period * 1e3 + delay_ps + 1250.0
        res = an.threefold_counts(
            i_times,
            np.ones(50, int),
            s_times,
            np.ones(50, int),
            period,
            self.CFG,
            slot_spacing_ns=1.25,
            signal_ref_ps=delay_ps,
        )
        assert res.counts[1, an.SLOT_MIDDLE, 1, an.SLOT_MIDDLE] == 50

    def test_same_cycle_required(self):
        i_times = np.array([0.0])
        s_times = np.array([16_000.0])  # next cycle
        res = an.threefold_counts(
            i_times, np.array([0]), s_times, np.array([0]), 16.0, self.CFG,
            slot_spacing_ns=1.25,
        )
        assert res.counts.sum() == 0


class TestG2:
    CFG = an.CoincidenceConfig()

    def test_factorization_for_independent_streams(self):
        rng = np.random.default_rng(3)
        n_cycles = 2_000_000
        period_ps = 16_000.0
        s = np.flatnonzero(rng.random(n_cycles) < 0.05) * period_ps
        i = np.flatnonzero(rng.random(n_cycles) < 0.05) * period_ps
        t = g2_tallies(s, i, 16.0, self.CFG)
        # ~5000 accidental coincidences -> 4 sigma is about 6% relative
        assert an.g2_cross(dataclasses.astuple(t), n_cycles) == pytest.approx(1.0, abs=0.06)

    def test_correlated_pairs(self):
        rng = np.random.default_rng(4)
        n_cycles = 1_000_000
        period_ps = 16_000.0
        mask = rng.random(n_cycles) < 0.01
        cycles = np.flatnonzero(mask) * period_ps
        keep_s = rng.random(cycles.size) < 0.5
        keep_i = rng.random(cycles.size) < 0.5
        t = g2_tallies(cycles[keep_s], cycles[keep_i], 16.0, self.CFG)
        # independent thinning of a common parent: g2 = 1/p = 100
        assert an.g2_cross(dataclasses.astuple(t), n_cycles) == pytest.approx(100.0, rel=0.05)

    def test_zero_singles_error(self):
        # g2 is undefined without singles: NaN, which drops a Monte-Carlo trial
        assert np.isnan(an.g2_cross([0, 0, 5], 10))

    def test_rows_match_the_scalar_formula(self):
        # every row, bit for bit, as P_si / (P_s P_i) of one tally; a row
        # with a zero single is NaN
        rng = np.random.default_rng(9)
        n_cycles = 4_000_000
        rows = rng.integers(0, [2_000, 50_000, 400_000], size=(500, 3))
        rows[:20, 1] = 0
        rows[20:40, 2] = 0
        g2 = an.g2_cross(rows.astype(float).reshape(50, 10, 3), n_cycles).reshape(-1)
        for (c, s, i), value in zip(rows.tolist(), g2):
            if s == 0 or i == 0:
                assert np.isnan(value)
            else:
                assert value == (c / n_cycles) / ((s / n_cycles) * (i / n_cycles))


def _reference_slot(t, period_ps, spacing_ps, window_ps, ref_ps):
    """Per-event nearest-slot rule: circular distance to each of the three
    slot centers, first minimum wins.  Returns (cycle, slot, classified)."""
    rel = t - ref_ps
    phase = rel % period_ps
    dist = []
    for k in range(3):
        d = phase - k * spacing_ps
        dist.append(d - period_ps * round(d / period_ps))
    slot = min(range(3), key=lambda k: abs(dist[k]))
    return round((rel - slot * spacing_ps) / period_ps), slot, abs(dist[slot]) <= window_ps / 2


def _reference_threefold(i_times, i_ports, s_times, s_ports, period_ns, spacing_ns, window_ps, s_ref):
    def classify(times, ports, ref):
        events, unclassified = [], 0
        for t, port in zip(times, ports):
            cycle, slot, ok = _reference_slot(t, period_ns * 1e3, spacing_ns * 1e3, window_ps, ref)
            if ok:
                events.append((cycle, slot, port))
            else:
                unclassified += 1
        return events, unclassified

    idler, un_i = classify(i_times, i_ports, 0.0)
    signal, un_s = classify(s_times, s_ports, s_ref)
    counts = np.zeros((2, 3, 2, 3), dtype=np.int64)
    for ic, isl, ip in idler:
        for sc, ssl, sp in signal:
            if ic == sc:
                counts[ip, isl, sp, ssl] += 1
    return counts, un_i, un_s


def _reference_g2(s_times, i_times, period_ns, window_ps, s_ref):
    period_ps = period_ns * 1e3

    def occupied(times, ref):
        cycles = set()
        for t in times:
            rel = t - ref
            phase = (rel + period_ps / 2) % period_ps - period_ps / 2
            if abs(phase) <= window_ps / 2:
                cycles.add(round((rel - phase) / period_ps))
        return cycles

    s, i = occupied(s_times, s_ref), occupied(i_times, 0.0)
    return len(s & i), len(s), len(i)


@hst.composite
def _counting_case(draw):
    """Unsorted event times (possibly none) spread over a few cycles, placed
    at slot centers, at +-window/2 from them, at slot midpoints, just below
    a full clock period, and anywhere.  The idler clicks are the clock
    reference; the signal reference may lie after the events."""
    # a period of 16000.1 ps is not a whole number of ps: the np.mod route
    period_ns, spacing_ns = draw(hst.sampled_from([(16.0, 1.25), (12.5, 2.5), (16.0001, 1.25)]))
    window_ps = draw(hst.sampled_from([600.0, 100.0, 1250.0, 2500.0]) | hst.floats(50.0, 3000.0))
    period_ps, spacing_ps = period_ns * 1e3, spacing_ns * 1e3
    special = [
        k * spacing_ps + side * window_ps / 2 for k in range(3) for side in (-1, 0, 1)
    ] + [spacing_ps / 2, 1.5 * spacing_ps, (period_ps + 2 * spacing_ps) / 2, period_ps - 1e-9, period_ps]
    offset = hst.sampled_from(special) | hst.floats(0.0, period_ps)
    refs = hst.sampled_from([0.0, 152_000.0]) | hst.floats(-5e4, 2e5)

    def stream(ref):
        times = draw(hst.lists(hst.tuples(hst.integers(-3, 12), offset), max_size=25))
        return np.array([c * period_ps + off + ref for c, off in times])

    i_times = stream(0.0)
    s_ref = draw(refs)
    s_times = stream(s_ref)
    i_ports = np.array(draw(hst.lists(hst.integers(0, 1), min_size=i_times.size, max_size=i_times.size)), dtype=int)
    s_ports = np.array(draw(hst.lists(hst.integers(0, 1), min_size=s_times.size, max_size=s_times.size)), dtype=int)
    return period_ns, spacing_ns, window_ps, i_times, i_ports, s_times, s_ports, s_ref


class TestCountingMatchesReference:
    @given(_counting_case(), hst.sampled_from([an._WALK_BLOCK, 1, 3]))
    @settings(max_examples=300, deadline=None)
    def test_threefold_counts(self, case, block):
        # the signal events are walked in blocks of any size
        period_ns, spacing_ns, window_ps, i_times, i_ports, s_times, s_ports, s_ref = case
        cfg = an.CoincidenceConfig(window_ps=window_ps, histogram_bin_ps=min(window_ps, 100.0))
        with patch.object(an, "_WALK_BLOCK", block):
            res = an.threefold_counts(
                i_times, i_ports, s_times, s_ports, period_ns, cfg,
                slot_spacing_ns=spacing_ns, signal_ref_ps=s_ref,
            )
        counts, un_i, un_s = _reference_threefold(
            i_times, i_ports, s_times, s_ports, period_ns, spacing_ns, window_ps, s_ref
        )
        np.testing.assert_array_equal(res.counts, counts)
        assert (res.unclassified_idler, res.unclassified_signal) == (un_i, un_s)

    @given(_counting_case())
    @settings(max_examples=300, deadline=None)
    def test_g2_tallies(self, case):
        period_ns, _, window_ps, i_times, _, s_times, _, s_ref = case
        cfg = an.CoincidenceConfig(window_ps=window_ps, histogram_bin_ps=min(window_ps, 100.0))
        t = g2_tallies(s_times, i_times, period_ns, cfg, signal_ref_ps=s_ref)
        expected = _reference_g2(s_times, i_times, period_ns, window_ps, s_ref)
        assert (t.coincidences, t.signal_singles, t.idler_singles) == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("period_ns, spacing_ns", [(16.0, 1.25), (12.5, 2.5)])
    @pytest.mark.parametrize("window_ps", [600.0, 2500.0, 16000.0])
    def test_pair_counts(self, seed, period_ns, spacing_ns, window_ps):
        # pairs crowded into few cycles, clicks jittered by up to a few
        # periods, and stray clicks among them: counting pair by pair gives
        # the counts of one call over every click
        rng = np.random.default_rng(seed)
        period_ps, spacing_ps = period_ns * 1e3, spacing_ns * 1e3
        n = 400
        cells = rng.integers(0, 36, n).astype(np.int8)

        def offsets(slots):
            return slots * spacing_ps + rng.normal(0.0, rng.choice([10.0, 400.0, 5000.0], slots.size))

        idler_pairs = np.flatnonzero(rng.random(n) < 0.7)
        pairs = an.PairClicks(
            np.sort(rng.integers(-2, 300, n)),
            cells,
            offsets(an._OUTCOME_INDEX[3].take(cells)),
            idler_pairs,
            offsets(an._OUTCOME_INDEX[1].take(cells.take(idler_pairs))),
        )
        ref_ps = 152_000.0
        stray = [(rng.uniform(-1e4, 300 * period_ps, k), rng.integers(0, 2, k)) for k in (60, 30)]
        stray[1] = (stray[1][0] + ref_ps, stray[1][1])
        cfg = an.CoincidenceConfig(window_ps=window_ps)
        geometry = dict(slot_spacing_ns=spacing_ns, signal_ref_ps=ref_ps)
        got = an.pair_threefold_counts(pairs, *stray[0], *stray[1], period_ns, cfg, **geometry)
        idler = [np.concatenate(x) for x in zip(pairs.idler_clicks(period_ps), stray[0])]
        signal = [np.concatenate(x) for x in zip(pairs.signal_clicks(period_ps, ref_ps), stray[1])]
        want = an.threefold_counts(*idler, *signal, period_ns, cfg, **geometry)
        assert want.counts.sum() > 0
        np.testing.assert_array_equal(got.counts, want.counts)
        assert (got.unclassified_idler, got.unclassified_signal) == (
            want.unclassified_idler,
            want.unclassified_signal,
        )

    def test_slots_must_fit_in_the_period(self):
        with pytest.raises(ValueError, match="clock period"):
            an.threefold_counts(
                np.array([0.0]), np.array([0]), np.array([]), np.array([], int), 2.0,
                an.CoincidenceConfig(), slot_spacing_ns=1.0,
            )

    @pytest.mark.parametrize("ports", [[0, 1, 0], [0]], ids=["more", "fewer"])
    def test_one_port_per_event(self, ports):
        with pytest.raises(ValueError, match="one port per event"):
            an.threefold_counts(
                np.array([0.0, 16000.0]), np.array(ports), np.array([0.0]), np.array([0]), 16.0,
                an.CoincidenceConfig(), slot_spacing_ns=1.25,
            )

    def test_ports_must_be_0_or_1(self):
        with pytest.raises(ValueError, match="ports"):
            an.threefold_counts(
                np.array([0.0]), np.array([2]), np.array([0.0]), np.array([0]), 16.0, an.CoincidenceConfig(),
                slot_spacing_ns=1.25,
            )
