"""Tests of the benchmark's own tracer and output checks."""

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
try:
    import afcsim  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

import checks
import run
import tracing
from tracing import Tracer, self_times


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    rows = tracer.rows()
    assert [r[0] for r in rows] == ["m.outer", "m.inner", "m.inner"]
    assert [r[3] for r in rows] == [-1, 0, 0]
    assert self_times(rows) == [5.0, 2.0, 3.0]


def test_wrapper_records_names_imported_by_name():
    from afcsim import analyzer, pipeline, states, tomography
    from afcsim.config import reference_calibration_config

    original_detect = analyzer.detect
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.detect is analyzer.detect is not original_detect
        assert tomography.fidelity is states.fidelity
        pipeline.acquire_threefold(
            reference_calibration_config(), 0, 0.0, 0.0, 20_000, ("bench-test",), stored=True
        )
    finally:
        tracer.uninstall()
    assert pipeline.detect is analyzer.detect is original_detect

    rows = tracer.rows()
    assert [r[3] for r in rows].count(-1) == 1
    assert math.isclose(sum(self_times(rows)), rows[0][2] - rows[0][1], rel_tol=1e-9)
    parent_of = {r[0]: rows[r[3]][0] for r in rows if r[3] >= 0}
    for name in (
        "source.emission_arrays",
        "source.analytic_state",
        "analyzer.sample_pair_outcomes",
        "analyzer.detect",
        "analyzer.threefold_counts",
    ):
        assert parent_of[name] == "pipeline.acquire_threefold"
    assert tracer.counters["pipeline.acquire_threefold.cycles"] == 20_000
    assert tracer.counters["analyzer.detect.arrivals"] > 0


def test_summary_reports_every_layer_metric():
    tracer = Tracer()
    tracer.wrap("tomography.mle_reconstruct", lambda: None)()
    metrics = tracing.summarize({"spans": tracer.rows(), "counters": {}})
    measured = set(tracing.LAYER_METRICS) - {"process.cpu_s", "trace.overhead_s"}
    assert set(metrics) == measured
    assert metrics["source.emission_arrays.self_s"] == 0


def _report(s_before=2.52, s_after=2.55, sigma=0.01, rho=None):
    rho = np.outer([0, 1, 1, 0], [0, 1, 1, 0]) / 2 if rho is None else rho
    matrix = {"real": np.real(rho).tolist(), "imag": np.imag(rho).tolist()}
    return {
        "channels": [
            {
                "channel": 1,
                "before": {"chsh": {"S": s_before, "sigma_S": sigma}},
                "after": {"chsh": {"S": s_after, "sigma_S": 0.02, "sigma_E": [0.01, 0.01]}},
                "density_matrices": {"before": matrix, "after": matrix},
            }
        ]
    }


def test_output_check_accepts_a_good_report():
    assert checks.check_simulate_report(json.dumps(_report())) == ([], [])


@pytest.mark.parametrize(
    "report, problem",
    [
        (_report(sigma=math.nan), "not strict JSON"),
        (_report(sigma=0.0), "finite positive sigma"),
        (_report(rho=np.diag([1.2, -0.2, 0.0, 0.0])), "not PSD"),
        (_report(rho=np.diag([0.5, 0.4, 0.0, 0.0])), "trace"),
    ],
)
def test_output_check_rejects(report, problem):
    problems, _ = checks.check_simulate_report(json.dumps(report))
    assert any(problem in p for p in problems), problems


@pytest.mark.parametrize("report, gap", [(_report(s_before=2.6), "S before"), (_report(s_after=2.45), "S after")])
def test_output_check_reports_s_outside_its_window(report, gap):
    problems, gaps = checks.check_simulate_report(json.dumps(report))
    assert problems == [] and any(gap in g for g in gaps), gaps


def test_pinned_s_windows_match_the_published_table():
    from afcsim.reports import PUBLISHED

    assert checks.S_WINDOWS == {"before": PUBLISHED["s_in"], "after": PUBLISHED["s_out"]}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.LAYER_METRICS.items()
    }


def test_run_process_kills_a_run_past_its_time_limit(tmp_path):
    start = time.monotonic()
    result = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(60)"], None, tmp_path, tmp_path / "log", 0.5
    )
    assert result["rc"] == -signal.SIGKILL
    assert time.monotonic() - start < 10


def _fake_afcsim(root: Path, cli: str) -> None:
    package = root / "src" / "afcsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "config.py").write_text("def reference_calibration_config():\n    pass\n")
    (package / "datasets.py").write_text("def verify_checksums():\n    pass\n")
    (package / "cli.py").write_text(cli)


def _bench_result(root, monkeypatch, capsys) -> dict:
    monkeypatch.chdir(root)
    assert run.main(["--workload", "g2-grid", "--seconds", "1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_setup_counts_as_a_failed_run(tmp_path, monkeypatch, capsys):
    _fake_afcsim(tmp_path, "raise ImportError('broken set-up')\n")
    result = _bench_result(tmp_path, monkeypatch, capsys)
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_a_verb_outside_its_tolerance_is_a_gate_miss_not_a_failure(tmp_path, monkeypatch, capsys):
    _fake_afcsim(tmp_path, "def main(argv):\n    return 1\n")
    result = _bench_result(tmp_path, monkeypatch, capsys)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(run.E2E)
    record = json.loads((tmp_path / ".bench_out/results/g2-grid-seed20260810-trace0.json").read_text())
    assert record["gate_misses"] == result["attempted"] >= run.MIN_RUNS


def test_a_verb_that_raises_is_a_failed_run(tmp_path, monkeypatch, capsys):
    _fake_afcsim(tmp_path, "def main(argv):\n    raise RuntimeError('broken verb')\n")
    result = _bench_result(tmp_path, monkeypatch, capsys)
    assert (result["correct"], result["metrics"]) == (False, {})
    assert result["failed"] == result["attempted"] >= run.MIN_RUNS


def test_outputs_that_differ_at_one_seed_fail_the_repeat_run(tmp_path, monkeypatch, capsys):
    cli = (
        "import pathlib, time\n"
        "def main(argv):\n"
        "    out = pathlib.Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir(parents=True, exist_ok=True)\n"
        "    (out / 'x.txt').write_text(str(time.time_ns()))\n"
        "    return 0\n"
    )
    _fake_afcsim(tmp_path, cli)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "g2-grid", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2
