"""Bundled reference datasets and checksum-guarded loaders.

Three golden fixtures ship with the package:

* ``table2`` — internal storage efficiency (%) per channel vs storage time,
* ``table3`` — three-fold coincidence counts on the 16 tomography bases
  (channel 1, after storage), with per-setting sub-counts, loaded as a
  ``(4, 16)`` count record (0 in the cells a setting cannot measure),
* ``table4`` — reconstructed density matrices for channel 1 before and
  after storage, in the text matrix format.

Each loader verifies the SHA-256 checksum of every file it parses before
parsing it, so silent fixture corruption fails loudly.
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
from afcsim.tomography import BASES, measured_mask

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


def _verified(name: str) -> Path:
    """The path of fixture ``name``, once its checksum matches the manifest."""
    manifest = fixture_path("checksums.json")
    if not manifest.exists():
        raise FixtureError("checksum manifest missing from package data")
    path = fixture_path(name)
    if not path.exists():
        raise FixtureError(f"fixture {name} missing")
    actual = _sha256(path)
    if actual != json.loads(manifest.read_text()).get(name):
        raise FixtureError(f"fixture {name} checksum mismatch ({actual})")
    return path


def verify_checksums() -> None:
    """Check every bundled fixture against the manifest."""
    for name in _DATA_FILES:
        _verified(name)


@dataclass(frozen=True)
class EfficiencyGrid:
    times_ns: np.ndarray          # (n_times,)
    efficiency_pct: np.ndarray    # (n_times, 5)


def load_efficiency_grid() -> EfficiencyGrid:
    path = _verified("storage_efficiency_grid.csv")
    times, rows = [], []
    with open(path, newline="") as f:
        for rec in csv.reader(f):
            if not rec or rec[0].startswith("#") or rec[0] == "storage_time_ns":
                continue
            times.append(float(rec[0]))
            rows.append([float(x) for x in rec[1:6]])
    return EfficiencyGrid(times_ns=np.array(times), efficiency_pct=np.array(rows))


def read_counts_csv(path) -> np.ndarray:
    """Parse a 16-basis count table in the fixture layout into a ``(4, 16)``
    count record: v, photon1, photon2, DD, DR, RD, RR, n_v with '-' for
    unmeasured cells.

    Every row has eight fields, v runs 1..16 with one row each,
    photon1/photon2 must name basis v's signal/idler states, the '-' cells
    must follow :func:`afcsim.tomography.measured_mask` and the counts must
    be nonnegative; any other table raises :class:`FixtureError`."""
    counts = np.zeros((4, 16))
    measured = np.zeros((4, 16), dtype=bool)
    n_v = np.zeros(16)
    states = {}
    with open(path, newline="") as f:
        for rec in csv.reader(f):
            if not rec or rec[0].startswith("#") or rec[0] == "v":
                continue
            if len(rec) != 8:
                raise FixtureError(f"{path}: row {','.join(rec)!r} has {len(rec)} fields, not 8")
            try:
                v = int(rec[0]) - 1
                cells = [None if tok.strip() == "-" else float(tok) for tok in rec[3:7]]
                total = float(rec[7])
            except ValueError as err:
                raise FixtureError(f"{path}: row {','.join(rec)!r}: {err}") from None
            if not 0 <= v < 16:
                raise FixtureError(f"{path}: basis index {v + 1} outside 1..16")
            if v in states:
                raise FixtureError(f"{path}: basis {v + 1} given twice")
            states[v] = (rec[1], rec[2])
            for s, cell in enumerate(cells):
                if cell is not None:
                    counts[s, v], measured[s, v] = cell, True
            n_v[v] = total
    if not np.allclose(counts.sum(axis=0), n_v):
        raise FixtureError(f"{path}: inconsistent table (n_v != setting sum)")
    for v, labeled in states.items():
        if labeled != BASES[v]:
            raise FixtureError(f"{path}: basis {v + 1} labeled {labeled}, expected {BASES[v]}")
    if not np.array_equal(measured, measured_mask()):
        raise FixtureError(f"{path}: per-setting counts present/absent pattern is wrong")
    if counts.min() < 0:
        raise FixtureError(f"{path}: counts must be nonnegative")
    return counts


def load_tomography_counts() -> np.ndarray:
    return read_counts_csv(_verified("tomography_counts.csv"))


def load_density_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(before, after) reference density matrices, raw as printed."""
    before = parse_density_matrix(_verified("density_before_storage.txt").read_text())
    after = parse_density_matrix(_verified("density_after_storage.txt").read_text())
    return before, after
