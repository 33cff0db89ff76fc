"""Bundled reference datasets and checksum-guarded loaders.

Three golden fixtures ship with the package:

* ``table2`` — internal storage efficiency (%) per channel vs storage time,
* ``table3`` — three-fold coincidence counts on the 16 tomography bases
  (channel 1, after storage), with per-setting sub-counts,
* ``table4`` — reconstructed density matrices for channel 1 before and
  after storage, in the text matrix format.

Loaders verify SHA-256 checksums before parsing so silent fixture
corruption fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from afcsim.states import parse_density_matrix
from afcsim.tomography import BASES, CountRecord

__all__ = [
    "FixtureError",
    "fixture_path",
    "verify_checksums",
    "load_efficiency_grid",
    "read_counts_csv",
    "load_tomography_counts",
    "load_density_matrices",
    "EfficiencyGrid",
]


class FixtureError(RuntimeError):
    """Raised when a bundled dataset is missing or fails its checksum."""


_DATA_FILES = (
    "storage_efficiency_grid.csv",
    "tomography_counts.csv",
    "density_before_storage.txt",
    "density_after_storage.txt",
)


def fixture_path(name: str) -> Path:
    path = resources.files("afcsim").joinpath("data", name)
    return Path(str(path))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_checksums() -> None:
    manifest = fixture_path("checksums.json")
    if not manifest.exists():
        raise FixtureError("checksum manifest missing from package data")
    expected = json.loads(manifest.read_text())
    for name in _DATA_FILES:
        path = fixture_path(name)
        if not path.exists():
            raise FixtureError(f"fixture {name} missing")
        actual = _sha256(path)
        if actual != expected.get(name):
            raise FixtureError(f"fixture {name} checksum mismatch ({actual})")


@dataclass(frozen=True)
class EfficiencyGrid:
    times_ns: np.ndarray          # (n_times,)
    efficiency_pct: np.ndarray    # (n_times, 5)
    sigma_pct: float = 0.01


def load_efficiency_grid() -> EfficiencyGrid:
    verify_checksums()
    path = fixture_path("storage_efficiency_grid.csv")
    times, rows = [], []
    with open(path, newline="") as f:
        for rec in csv.reader(f):
            if not rec or rec[0].startswith("#") or rec[0] == "storage_time_ns":
                continue
            times.append(float(rec[0]))
            rows.append([float(x) for x in rec[1:6]])
    return EfficiencyGrid(times_ns=np.array(times), efficiency_pct=np.array(rows))


def read_counts_csv(path) -> CountRecord:
    """Parse a 16-basis count table in the fixture layout:
    v, photon1, photon2, DD, DR, RD, RR, n_v with '-' for unmeasured cells.

    v runs 1..16 with one row each, photon1/photon2 must name basis v's
    signal/idler states, and the measured cells must follow the settings'
    pattern."""
    per_setting = np.full((4, 16), np.nan)
    n_v = np.zeros(16)
    states = {}
    with open(path, newline="") as f:
        for rec in csv.reader(f):
            if not rec or rec[0].startswith("#") or rec[0] == "v":
                continue
            v = int(rec[0]) - 1
            if not 0 <= v < 16:
                raise FixtureError(f"{path}: basis index {v + 1} outside 1..16")
            if v in states:
                raise FixtureError(f"{path}: basis {v + 1} given twice")
            states[v] = (rec[1], rec[2])
            for s, tok in enumerate(rec[3:7]):
                if tok.strip() != "-":
                    per_setting[s, v] = float(tok)
            n_v[v] = float(rec[7])
    if not np.allclose(np.nansum(per_setting, axis=0), n_v):
        raise FixtureError(f"{path}: inconsistent table (n_v != setting sum)")
    for v, labeled in states.items():
        if labeled != BASES[v]:
            raise FixtureError(f"{path}: basis {v + 1} labeled {labeled}, expected {BASES[v]}")
    try:
        return CountRecord(per_setting=per_setting)
    except ValueError as err:
        raise FixtureError(f"{path}: {err}") from None


def load_tomography_counts() -> CountRecord:
    verify_checksums()
    return read_counts_csv(fixture_path("tomography_counts.csv"))


def load_density_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(before, after) reference density matrices, raw as printed."""
    verify_checksums()
    before = parse_density_matrix(fixture_path("density_before_storage.txt").read_text())
    after = parse_density_matrix(fixture_path("density_after_storage.txt").read_text())
    return before, after
