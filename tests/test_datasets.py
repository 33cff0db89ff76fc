"""Fixture integrity and loader tests."""

import shutil

import numpy as np
import pytest

from afcsim import datasets as ds
from afcsim import reports


# the fixture each loader parses (for load_density_matrices, the second of
# its two files)
_PARSED = {
    "verify_checksums": "density_after_storage.txt",
    "load_efficiency_grid": "storage_efficiency_grid.csv",
    "load_tomography_counts": "tomography_counts.csv",
    "load_density_matrices": "density_after_storage.txt",
}


class TestChecksums:
    def test_bundled_fixtures_verify(self):
        ds.verify_checksums()

    @pytest.mark.parametrize(
        "load",
        [
            ds.verify_checksums,
            ds.load_efficiency_grid,
            ds.load_tomography_counts,
            ds.load_density_matrices,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_corruption_detected(self, tmp_path, monkeypatch, load):
        # copy the data dir, edit a file the loader parses (a comment line
        # the parsers skip), point the loader at it
        data_dir = ds.fixture_path("checksums.json").parent
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        target = work / _PARSED[load.__name__]
        target.write_text(target.read_text() + "# edited\n")
        monkeypatch.setattr(ds, "fixture_path", lambda name: work / name)
        with pytest.raises(ds.FixtureError, match="checksum"):
            load()

    def test_missing_fixture_detected(self, tmp_path, monkeypatch):
        data_dir = ds.fixture_path("checksums.json").parent
        work = tmp_path / "data"
        shutil.copytree(data_dir, work)
        (work / "tomography_counts.csv").unlink()
        monkeypatch.setattr(ds, "fixture_path", lambda name: work / name)
        with pytest.raises(ds.FixtureError, match="missing"):
            ds.verify_checksums()

    def test_each_loader_hashes_only_the_files_it_parses(self, tmp_path, monkeypatch):
        # table3 parses the count table and the two density matrices
        hashed = []
        sha256 = ds._sha256
        monkeypatch.setattr(ds, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
        reports.analyze_table3(tmp_path, mc_trials=2, seed=0)
        assert sorted(hashed) == [
            "density_after_storage.txt",
            "density_before_storage.txt",
            "tomography_counts.csv",
        ]


class TestLoaders:
    def test_efficiency_grid_shape(self):
        grid = ds.load_efficiency_grid()
        assert grid.times_ns.shape == (9,)
        assert grid.efficiency_pct.shape == (9, 5)
        assert grid.efficiency_pct[4, 0] == 0.56  # 152 ns row, channel 1

    def test_tomography_counts_totals(self):
        record = ds.load_tomography_counts()
        assert record.shape == (4, 16)
        assert record.sum(axis=0).sum() == 12291
        assert record[1, 2] == 0  # eD not measured in DR

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

    def test_mislabeled_column_rejected(self, tmp_path):
        # photon1 and photon2 swapped: the counts are those of the fixture,
        # but the states no longer name each basis v
        good = ds.fixture_path("tomography_counts.csv").read_text().splitlines()
        swapped = []
        for line in good:
            rec = line.split(",")
            if rec[0].isdigit():
                rec[1], rec[2] = rec[2], rec[1]
            swapped.append(",".join(rec))
        bad = tmp_path / "swapped.csv"
        bad.write_text("\n".join(swapped) + "\n")
        with pytest.raises(ds.FixtureError, match="basis 2 labeled"):
            ds.read_counts_csv(bad)

    def test_unmeasurable_cell_rejected(self, tmp_path):
        # a count in a cell the setting cannot measure (eD in DR)
        good = ds.fixture_path("tomography_counts.csv").read_text()
        bad = tmp_path / "pattern.csv"
        bad.write_text(good.replace("3,e,D,390,-,369,-,759", "3,e,D,390,0,369,-,759"))
        with pytest.raises(ds.FixtureError, match="pattern"):
            ds.read_counts_csv(bad)

    @pytest.mark.parametrize("index", ["0", "17"])
    def test_basis_index_outside_range_rejected(self, tmp_path, index):
        # index 0 used to land in basis 16's column
        good = ds.fixture_path("tomography_counts.csv").read_text()
        bad = tmp_path / "index.csv"
        bad.write_text(good.replace("\n1,e,e,", f"\n{index},e,e,"))
        with pytest.raises(ds.FixtureError, match=f"basis index {index} outside 1..16"):
            ds.read_counts_csv(bad)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,e,e,328,366,282,276,1252", "invalid literal"),
            ("1,e,e,328", "has 4 fields, not 8"),
            ("1,e,e,-328,366,282,276,596", "nonnegative"),
        ],
        ids=["non-integer-index", "short-row", "negative-count"],
    )
    def test_malformed_row_rejected(self, tmp_path, row, message):
        good = ds.fixture_path("tomography_counts.csv").read_text()
        bad = tmp_path / "malformed.csv"
        bad.write_text(good.replace("1,e,e,328,366,282,276,1252", row))
        with pytest.raises(ds.FixtureError, match=message):
            ds.read_counts_csv(bad)

    def test_repeated_basis_rejected(self, tmp_path):
        good = ds.fixture_path("tomography_counts.csv").read_text()
        bad = tmp_path / "repeated.csv"
        bad.write_text(good.replace("\n2,e,l,", "\n1,e,l,"))
        with pytest.raises(ds.FixtureError, match="basis 1 given twice"):
            ds.read_counts_csv(bad)
