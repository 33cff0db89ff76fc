"""Tests for the per-cycle laws of ``afcsim.model`` that no sampler test
pins directly: the click geometry, the landing chances and the g2
occupancy law, and the module's import boundary."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from afcsim import analyzer, bell, model, pipeline
from afcsim.config import reference_calibration_config


def _jitter(sigma_ps, window_ps=None):
    """The calibration with detector jitter ``sigma_ps`` and, if given, a
    coincidence window of ``window_ps``."""
    cfg = reference_calibration_config()
    cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(cfg.detectors, jitter_sigma_ps=sigma_ps))
    if window_ps is None:
        return cfg
    return dataclasses.replace(cfg, coincidence=dataclasses.replace(cfg.coincidence, window_ps=window_ps))


# the calibration, 400 ps jitter, and 4 ns jitter with a one-period window
# (clicks land, and are counted, in a neighbour of their pair's cycle)
CONFIGS = {
    "calibration": reference_calibration_config(),
    "jitter-400ps": _jitter(400.0),
    "jitter-4ns": _jitter(4000.0, 16000.0),
}


class TestSlotClasses:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_agrees_with_offset_slots(self, name):
        # a dense grid over five periods, 0.05 ps or more from every edge
        # (the edges are multiples of 25 ps): each offset lies in a window
        # piece of exactly the (cycle, slot) _offset_slots classifies it in,
        # and an unclassified offset in its own cycle's class-3 pieces (at
        # a one-period window every offset is classified)
        period, spacing, window, _ = model.click_geometry(CONFIGS[name])
        x = 0.05 + 0.7 * np.arange(int(5 * period / 0.7)) - 2 * period
        moved, shift, slot, ok = analyzer._offset_slots(x, period, spacing, window)
        cycle = np.zeros(x.size, dtype=np.int64)
        cycle[moved] = shift
        assert set(cycle.tolist()) == set(range(-2, 4))
        assert ok.any()
        classes = model.slot_classes(period, spacing, window)
        for d in range(-3, 4):
            for j, pieces in enumerate(classes):
                inside = np.zeros(x.size, dtype=bool)
                for lo, hi in pieces:
                    inside |= (lo <= x - d * period) & (x - d * period < hi)
                counted = (cycle == d) & (np.where(ok, slot, 3) == j)
                if j < 3:
                    np.testing.assert_array_equal(inside, counted)
                else:
                    assert inside[counted].all()


class TestLandingTable:
    @pytest.mark.parametrize("name", ["calibration", "jitter-400ps"])
    def test_rows_sum_to_one_where_the_reach_is_0(self, name):
        # a click counts toward a class of its own cycle but for the clicks
        # beyond 10 sigma, a share of 1.5e-23
        geometry = model.click_geometry(CONFIGS[name])
        assert model.landing_reach(*geometry) == 0
        table = model.landing_table(*geometry)
        assert table.shape == (3, 4) and table.min() >= 0
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=4 * np.finfo(float).eps)

    def test_rows_miss_the_clicks_that_leave_their_cycle(self):
        geometry = model.click_geometry(CONFIGS["jitter-4ns"])
        assert model.landing_reach(*geometry) > 0
        assert (model.landing_table(*geometry).sum(axis=1) < 0.99).all()


class TestLandingRow:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_is_the_gauss_mass_of_each_window(self, name):
        # p(d) = P(dP - h <= jitter < dP + h), h = min(W, P) / 2
        cfg = CONFIGS[name]
        period, _, window, sigma = model.click_geometry(cfg)
        half = min(window, period) / 2
        row = model.landing_row(cfg)
        w = (row.size - 3) // 2
        assert w == model.reach_cycles(half, sigma, period)
        edges = [(d * period - half, d * period + half) for d in range(-w - 1, w + 2)]
        want = [model.gauss_mass(lo / sigma, hi / sigma) for lo, hi in edges]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


class TestOccupancyLaw:
    def test_nonnegative_and_sums_to_one(self):
        means = [0.0, 1e-12, 1e-6, 0.01, 0.5, 3.0, 40.0]
        for a in means:
            for b in means:
                for c in means:
                    law = model.occupancy_law(a, b, c)
                    assert law.shape == (4,) and law.min() >= 0
                    assert abs(law.sum() - 1) < 1e-12, (a, b, c, law)


def test_imports_no_sampler_config_or_scipy():
    code = (
        "import sys, afcsim.model\n"
        "loaded = [m for m in ('afcsim.analyzer', 'afcsim.pipeline', 'afcsim.config', 'scipy') if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_each_law_has_one_home():
    # the samplers bind the model's laws; none defines one of its own
    for module in (analyzer, bell, pipeline):
        own = [name for name, value in vars(module).items() if getattr(value, "__module__", None) == module.__name__]
        assert not {name.lstrip("_") for name in own} & set(model.__all__), module.__name__
    assert not hasattr(bell, "project_pair")
