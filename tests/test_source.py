"""Tests for the entangled-pair source model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy import stats

from afcsim import states as st
from afcsim.source import (
    PumpConfig,
    SourceModel,
    analytic_state,
    emission_arrays,
    pair_rate_per_cycle,
)

BELL = st.projector(st.bell_psi_plus())


def model(w=0.0, sigma=0.0, imbalance=1.0, er_db=200.0, p=0.05):
    # er_db=200 makes leakage numerically zero ("ideal extinction")
    return SourceModel(
        pump=PumpConfig(
            extinction_ratio_db=er_db,
            intensity_imbalance=imbalance,
            phase_jitter_sigma_rad=sigma,
        ),
        pair_emission_probability_per_cycle=p,
        white_noise_fraction=w,
    )


class TestPumpConfigValidation:
    def test_defaults_valid(self):
        PumpConfig()

    def test_interval_must_fit_period(self):
        with pytest.raises(ValueError):
            PumpConfig(period_ns=1.0, pulse_interval_ns=1.25)
        with pytest.raises(ValueError, match="two pulse intervals"):
            PumpConfig(period_ns=2.5, pulse_interval_ns=1.25)

    def test_extinction_positive(self):
        with pytest.raises(ValueError):
            PumpConfig(extinction_ratio_db=0.0)


class TestAnalyticState:
    def test_ideal_source_is_bell_state(self):
        rho = analytic_state(model())
        np.testing.assert_allclose(rho, BELL, atol=1e-12)

    def test_full_white_noise_is_maximally_mixed(self):
        rho = analytic_state(model(w=1.0))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_always_a_valid_state(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = model(
                w=rng.uniform(0, 1),
                sigma=rng.uniform(0, 2),
                imbalance=rng.uniform(0.3, 3.0),
                er_db=rng.uniform(5, 40),
            )
            rho = analytic_state(m)
            assert rho.shape == (4, 4)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert abs(np.trace(rho).imag) <= 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-8

    def test_leakage_populates_el_le(self):
        rho = analytic_state(model(er_db=10.0))
        leak = 0.1 / 1.2  # 10^-1 relative weight, renormalized
        assert rho[1, 1].real == pytest.approx(leak, abs=1e-12)
        assert rho[2, 2].real == pytest.approx(leak, abs=1e-12)

    def test_jitter_damps_coherence_only(self):
        rho = analytic_state(model(sigma=0.5))
        assert rho[0, 3].real == pytest.approx(0.5 * np.exp(-0.125), abs=1e-12)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)

    @given(hst.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_fidelity_monotone_in_white_noise(self, w):
        f_lo = st.fidelity(analytic_state(model(w=w)), BELL)
        f_hi = st.fidelity(analytic_state(model(w=min(w + 0.05, 1.0))), BELL)
        assert f_hi <= f_lo + 1e-12

    @given(hst.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_fidelity_monotone_in_jitter(self, sigma):
        f_lo = st.fidelity(analytic_state(model(sigma=sigma)), BELL)
        f_hi = st.fidelity(analytic_state(model(sigma=sigma + 0.2)), BELL)
        assert f_hi <= f_lo + 1e-12

    @given(hst.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_fidelity_monotone_in_imbalance(self, delta):
        # compare r = 1 + delta against r = 1 + delta + 0.2 (and mirrored 1/r)
        f_lo = st.fidelity(analytic_state(model(imbalance=1 + delta)), BELL)
        f_hi = st.fidelity(analytic_state(model(imbalance=1.2 + delta)), BELL)
        assert f_hi <= f_lo + 1e-12
        f_inv = st.fidelity(analytic_state(model(imbalance=1 / (1 + delta))), BELL)
        assert f_inv == pytest.approx(f_lo, abs=1e-12)


class TestCalibration:
    def test_fidelity_family_pins_purity(self):
        # any (w, sigma) pair reaching F = 0.9133 lands purity in 0.84 +- 0.02
        for w in np.linspace(0.0, 0.11, 8):
            damp_target = (0.9133 - w / 4) / (1 - w) * 2 - 1
            if not 0 < damp_target <= 1:
                continue
            sigma = float(np.sqrt(-2 * np.log(damp_target)))
            rho = analytic_state(model(w=w, sigma=sigma))
            assert st.fidelity(rho, BELL) == pytest.approx(0.9133, abs=1e-9)
            assert abs(st.purity(rho) - 0.84) < 0.02


def sample(m, n_cycles, seed, band_ghz=(-50.0, 50.0)):
    # by default the whole 100 GHz pair band of model()
    return emission_arrays(m, n_cycles, np.random.default_rng(seed), band_ghz)


class TestSampleEmissions:
    """Pair-emission sampling on the array path, ``emission_arrays``."""

    def test_zero_probability_empty(self):
        cycles, offsets = sample(model(p=0.0), 1000, seed=1)
        assert cycles.size == 0 and offsets.size == 0

    def test_deterministic_per_seed(self):
        a = sample(model(p=0.05), 20000, seed=42)
        b = sample(model(p=0.05), 20000, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = sample(model(p=0.05), 20000, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_emitting_cycle_count_binomial(self):
        # p = 0.01, n = 1e6: cycles with >= 1 emission ~ Binomial(n, p)
        n = 1_000_000
        cycles, _ = sample(model(p=0.01), n, seed=7)
        n_emitting = np.unique(cycles).size
        sigma = np.sqrt(n * 0.01 * 0.99)
        assert abs(n_emitting - n * 0.01) < 4 * sigma

    def test_offsets_uniform_ks(self):
        _, offsets = sample(model(p=0.2), 600_000, seed=3)
        n = len(offsets)
        assert n > 100_000
        stat = stats.kstest(offsets[:100_000], stats.uniform(loc=-50, scale=100).cdf).statistic
        assert stat < 1.628 / np.sqrt(100_000)  # 1% critical value

    def test_band_restriction(self):
        _, offsets = sample(model(p=0.3), 50_000, seed=5, band_ghz=(13.0, 17.0))
        assert offsets.size
        assert np.all((13.0 <= offsets) & (offsets <= 17.0))
        with pytest.raises(ValueError, match="pair band"):
            sample(model(p=0.3), 1000, seed=5, band_ghz=(48.0, 52.0))

    def test_band_rate_matches_fraction(self):
        # a 4 GHz band out of 100 GHz carries 4% of the pair rate
        n = 200_000
        m = model(p=0.4)
        _, full = sample(m, n, seed=9)
        band, _ = sample(m, n, seed=10, band_ghz=(-2.0, 2.0))
        expected = pair_rate_per_cycle(m) * n * 0.04
        assert abs(len(band) - expected) < 4 * np.sqrt(expected)
        in_band = np.count_nonzero((-2 <= full) & (full <= 2))
        assert abs(in_band - expected) < 4 * np.sqrt(expected)
