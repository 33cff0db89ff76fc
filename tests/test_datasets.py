"""Fixture integrity and loader tests."""

import shutil

import numpy as np
import pytest

from afcsim import datasets as ds


class TestChecksums:
    def test_bundled_fixtures_verify(self):
        ds.verify_checksums()

    def test_corruption_detected(self, tmp_path, monkeypatch):
        # copy the data dir, corrupt one file, point the loader at it
        data_dir = ds.fixture_path("checksums.json").parent
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        grid = work / "storage_efficiency_grid.csv"
        grid.write_text(grid.read_text().replace("1.05", "9.99"))
        monkeypatch.setattr(ds, "fixture_path", lambda name: work / name)
        with pytest.raises(ds.FixtureError, match="checksum"):
            ds.verify_checksums()

    def test_missing_fixture_detected(self, tmp_path, monkeypatch):
        data_dir = ds.fixture_path("checksums.json").parent
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        (work / "tomography_counts.csv").unlink()
        monkeypatch.setattr(ds, "fixture_path", lambda name: work / name)
        with pytest.raises(ds.FixtureError, match="missing"):
            ds.verify_checksums()


class TestLoaders:
    def test_efficiency_grid_shape(self):
        grid = ds.load_efficiency_grid()
        assert grid.times_ns.shape == (9,)
        assert grid.efficiency_pct.shape == (9, 5)
        assert grid.efficiency_pct[4, 0] == 0.56  # 152 ns row, channel 1

    def test_tomography_counts_totals(self):
        table = ds.load_tomography_counts()
        assert table.n_v.sum() == 12291
        assert table.signal_states[:4] == ("e", "e", "e", "e")
        assert np.isnan(table.per_setting[1, 2])  # eD not measured in DR

    def test_density_matrices_traces(self):
        before, after = ds.load_density_matrices()
        assert np.trace(before).real == pytest.approx(0.999, abs=1e-9)
        assert np.trace(after).real == pytest.approx(0.999, abs=1e-9)

    def test_inconsistent_table_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("v,photon1,photon2,DD,DR,RD,RR,n_v\n" + "\n".join(
            f"{v},e,e,1,1,1,1,{5 if v == 1 else 4}" for v in range(1, 17)
        ))
        with pytest.raises(ds.FixtureError, match="inconsistent"):
            ds.read_counts_csv(bad)
