"""Tests for the AFC memory model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from afcsim import memory as mem
from afcsim.config import reference_calibration_config
from afcsim.datasets import load_efficiency_grid


class TestStorageTime:
    def test_reference_teeth_spacing(self):
        t = mem.storage_time_ns(6.58)
        assert 151.5 < t < 152.5

    def test_unit_identity(self):
        assert mem.storage_time_ns(1000.0) == pytest.approx(1.0)

    def test_reciprocal(self):
        assert mem.storage_time_ns(10.0) == pytest.approx(100.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mem.storage_time_ns(0.0)


class TestAfcEfficiency:
    def test_reference_point(self):
        # high-precision evaluation of the formula at the quoted comb shape
        assert mem.afc_efficiency(1.5, 2.0, 1.7) == pytest.approx(0.0084350, abs=1e-6)

    def test_zero_comb(self):
        assert mem.afc_efficiency(0.0, 2.0, 1.7) == 0.0

    def test_background_factorizes(self):
        base = mem.afc_efficiency(1.5, 2.0, 1.7)
        assert mem.afc_efficiency(1.5, 2.0, 2.7) == pytest.approx(base * np.exp(-1.0), rel=1e-12)

    @given(
        hst.floats(min_value=0.0, max_value=10.0),
        hst.floats(min_value=1.0, max_value=10.0),
        hst.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_upper_bound(self, d1, finesse, d0):
        # formula maximum over d1 sits at d1/F = 2
        bound = np.exp(-7 / finesse**2) * np.exp(-d0) * 4 * np.exp(-2)
        assert mem.afc_efficiency(d1, finesse, d0) <= bound + 1e-15


class TestChannelGrid:
    def test_default_efficiencies_match_grid(self):
        # the shipped comb depths are calibrated to the 152 ns efficiency row
        bank = reference_calibration_config().bank
        grid = load_efficiency_grid()
        row = grid.efficiency_pct[list(grid.times_ns).index(152.0)]
        for ch, expected in zip(bank.channels, row):
            assert ch.efficiency * 100 == pytest.approx(expected, abs=1e-4)


@pytest.fixture(scope="module")
def grid():
    return load_efficiency_grid()


class TestDecayFit:

    def test_non_monotone_detection(self, grid):
        rows = mem.non_monotone_rows(grid.times_ns, grid.efficiency_pct[:, 0])
        assert [int(grid.times_ns[i]) for i in rows] == [170]

    def test_channel1_fit_within_tolerance(self, grid):
        fit = mem.fit_decay_model(grid.times_ns, grid.efficiency_pct[:, 0])
        assert fit.excluded_times_ns == (170.0,)
        assert fit.max_residual_pct <= 0.1

    def test_decay_limit(self, grid):
        fit = mem.fit_decay_model(grid.times_ns, grid.efficiency_pct[:, 0])
        assert fit.efficiency_pct(1e7) == pytest.approx(0.0, abs=1e-12)

    def test_efficiency_table_shape(self, grid):
        fits = [
            mem.fit_decay_model(grid.times_ns, grid.efficiency_pct[:, c]) for c in range(5)
        ]
        table = np.column_stack([fit.efficiency_pct(np.array([90.0, 152.0])) for fit in fits])
        assert table.shape == (2, 5)
        # fitted model reproduces the anchor points loosely
        assert table[1, 0] == pytest.approx(0.56, abs=0.1)
        assert table[0, 4] == pytest.approx(1.10, abs=0.1)


class TestBankValidation:
    def test_wrong_channel_count(self):
        ch = mem.AfcChannel(d1=1.1)
        with pytest.raises(ValueError):
            mem.MemoryBank(channels=(ch,) * 3)
