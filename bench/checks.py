"""Output checks and output digests for the afcsim benchmark."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Channel-1 CHSH S windows, (value, 1-sigma), gated at 3 sigma: the
# ``PUBLISHED`` entries that ``afcsim reproduce table1`` gates on.  Pinned
# here so that the benchmark's gate does not move with the program.
S_WINDOWS = {"before": (2.518, 0.02), "after": (2.549, 0.020)}
N_SIGMA = 3.0
MATRIX_TOL = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _sigmas(node, path=""):
    """Yield (path, value) for every value under a key starting 'sigma'."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}/{key}"
            if key.startswith("sigma"):
                for v in value if isinstance(value, list) else [value]:
                    yield sub, v
            else:
                yield from _sigmas(value, sub)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _sigmas(value, f"{path}/{i}")


def check_simulate_report(text: str) -> tuple[list[str], list[str]]:
    """Check a ``simulate`` report.json; return (problems, gaps).

    Problems make the run a failed one: the report must parse strictly (no
    NaN or Infinity), carry finite positive error bars and hold Hermitian,
    unit-trace, PSD density matrices.  Gaps are channel-1 S values before
    or after storage outside the published 3-sigma windows: the estimate at
    one seed is a random draw, so a gap is reported, not failed.
    """
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:
        return [f"report.json is not strict JSON: {err}"], []
    try:
        return _report_problems(report), _s_gaps(report)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        return [f"report.json is malformed: {err!r}"], []


def _report_problems(report: dict) -> list[str]:
    problems = []
    for path, value in _sigmas(report):
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            problems.append(f"{path} = {value!r} is not a finite positive sigma")
    channels = {ch["channel"]: ch for ch in report["channels"]}
    for ch in channels.values():
        for stage, rho in ch["density_matrices"].items():
            m = np.array(rho["real"]) + 1j * np.array(rho["imag"])
            where = f"channel {ch['channel']} {stage}"
            if np.max(np.abs(m - m.conj().T)) > MATRIX_TOL:
                problems.append(f"{where}: density matrix is not Hermitian")
            if abs(np.trace(m).real - 1.0) > MATRIX_TOL:
                problems.append(f"{where}: density matrix trace {np.trace(m).real!r} != 1")
            if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -MATRIX_TOL:
                problems.append(f"{where}: density matrix is not PSD")
    if 1 not in channels:
        problems.append("report has no channel 1")
    return problems


def _s_gaps(report: dict) -> list[str]:
    channel1 = [ch for ch in report["channels"] if ch["channel"] == 1]
    gaps = []
    for ch in channel1:
        for stage, (target, sigma) in S_WINDOWS.items():
            s = ch[stage]["chsh"]["S"]
            if not abs(s - target) <= N_SIGMA * sigma:
                gaps.append(f"channel 1 S {stage} = {s!r} outside {target} +- {N_SIGMA}*{sigma}")
    return gaps


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
