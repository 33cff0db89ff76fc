"""afcsim benchmark: run a CLI workload as a user runs it, check its outputs,
and report end-to-end or per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload run is a fresh
``bench/workload.py`` process with ``src`` on PYTHONPATH, one at a time,
with one BLAS/OpenMP thread: afcsim's matrices (4x4 to 16x16) are too
small for a second thread to help, and one thread keeps the load at one
busy core.  After set-up probes, at least ``MIN_RUNS`` runs are made, and
more while the next one, taking as long as the last, would end within
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) of the first
run's start.  Run ``n`` uses seed ``--seed + n`` (see ``Bench.measure``).

--trace 0 reports, as medians over the runs:
  wall_s       verb call after set-up
  setup_s      process start to verb-ready (also sampled by set-up-only
               processes)
  peak_rss_mb  peak resident memory of the workload process tree
--trace 1 runs untraced and traced runs in pairs, one seed per pair, and
reports the per-layer metrics of ``tracing.LAYER_METRICS``.

Every run is checked: the verb ends (exit code 0, or 1 when its results
fall outside the published tolerances it gates on), the ``simulate``
report check of ``checks.py``, SHA-256 determinism of the output files
against every other run of the same source tree, workload and seed.  A run
that fails any check, or a failed set-up probe, counts in ``ops_failed``.
A run outside the published tolerances (the verb's own gate, or the
channel-1 S windows of ``simulate``) is a random draw at that seed, not a
fault: it counts in ``gate_misses``, which is printed and recorded.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the full record, with provenance, goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing

CALIBRATION_SEED = 20260810
SETUP_PROBES = 3
# A fixed minimum, so that a slow first run does not end the invocation and
# stand alone as its median (that selection made long workloads bimodal).
MIN_RUNS = 2
# A run is killed RUN_LIMIT_S after its own start, or once the invocation has
# lasted ``--seconds`` + SLACK_S, whichever comes first: with run_seconds of
# BENCHMARK.json (36) an invocation ends within 180 s even when runs hang.
RUN_LIMIT_S = 120.0
SLACK_S = 130.0
BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# name -> afcsim CLI arguments; BENCHMARK.json says why each workload is here.
# ``simulate`` runs 20 Monte-Carlo trials, not the default 100: at 100 its MLE
# fits (56% of wall) took up to twice as long on one seed as on another, and
# a 20-s run left room for one seed per invocation, so its wall time spread
# over 0.3 across seeds.  ``analyze-golden table3`` (MLE fits only) is left
# out for the same reason and for the time all runs may take together.
WORKLOADS = {
    "simulate-ch1": ["simulate", "--channels", "1", "--trials", "20"],
    "fringe-fig4": ["reproduce", "fig4"],
    "g2-grid": ["reproduce", "fig3"],
}

E2E = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _proc_tree_rss_bytes(root_pid: int) -> int:
    """Summed VmRSS of ``root_pid`` and all its descendants, read from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat[stat.rindex(")") + 2 :].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
        except OSError:
            continue
    return total


def run_process(cmd, env, cwd, log_path: Path, timeout_s: float) -> dict:
    """Run ``cmd`` to completion; return its start time, exit code, CPU time
    of the process tree and peak RSS of the tree (MB)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
    peak = 0
    done = threading.Event()

    def sample():
        nonlocal peak
        while not done.wait(0.2):
            peak = max(peak, _proc_tree_rss_bytes(proc.pid))
            if time.monotonic() - start > timeout_s:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)  # the process and any it started
                except ProcessLookupError:
                    pass

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    _, status, usage = os.wait4(proc.pid, 0)
    done.set()
    sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": max(usage.ru_maxrss * 1024, peak) / 1e6,  # ru_maxrss is in KiB
    }


def _quartiles(values) -> dict | None:
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, thread_cap: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None  # outside a git checkout, source_sha256 alone names the code
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_cap": thread_cap,
        "git_commit": commit,
        "source_sha256": source_digest(root / "src"),
    }


class Bench:
    """One benchmark invocation: a workload, a seed, a scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, prov: dict, env):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.prov, self.env = prov, env
        self.deadline = time.monotonic() + seconds + SLACK_S
        self.work = root / ".bench_out" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.script = str(Path(__file__).with_name("workload.py"))
        self.setups: list[float] = []
        self.runs: list[dict] = []
        self.digest_path = root / ".bench_out" / "digests.json"

    def _child(self, extra, verb=(), trace=False) -> dict:
        stats = self.work / "stats.json"
        stats.unlink(missing_ok=True)
        cmd = [sys.executable, self.script, "--stats", str(stats)] + list(extra)
        if trace:
            cmd += ["--trace", str(self.work / "spans.json")]
        cmd += ["--", *verb]
        limit = min(RUN_LIMIT_S, self.deadline - time.monotonic())
        result = run_process(cmd, self.env, self.root, self.work / "log.txt", limit)
        if stats.exists():
            with open(stats) as f:
                child = json.load(f)
            result["setup_s"] = child["ready"] - result["start"]
            if "end" in child:
                result["wall_s"] = child["end"] - child["ready"]
                result["verb_rc"] = child["rc"]
        return result

    def setup_probe(self) -> bool:
        """One set-up-only process; a failure is recorded as a failed run."""
        result = self._child(["--setup-only"])
        if result["rc"] != 0 or "setup_s" not in result:
            print(f"set-up failed:\n{(self.work / 'log.txt').read_text()[-4000:]}", file=sys.stderr)
            result.update(trace=False, problems=[f"set-up failed with exit code {result['rc']}"])
            self.runs.append(result)
            return False
        self.setups.append(result["setup_s"])
        return True

    def run_once(self, seed: int, trace: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        verb = WORKLOADS[self.workload] + ["--seed", str(seed), "--out", str(out)]
        result = self._child([], verb, trace)
        result["seed"], result["trace"] = seed, trace
        problems, gaps = [], []
        # A verb that returns 1 ran to the end and found its results outside
        # its published tolerances: a gap against the paper, not a failure.
        gate_miss = result["rc"] == result.get("verb_rc") == 1
        if result["rc"] != 0 and not gate_miss:
            problems.append(f"exit code {result['rc']}")
        elif "wall_s" not in result:
            problems.append("no timing recorded")
        else:
            if gate_miss:
                gaps.append(f"{' '.join(WORKLOADS[self.workload])}: outside its published tolerance")
            self.setups.append(result["setup_s"])
            report = out / "report.json"
            if self.workload == "simulate-ch1":
                if report.is_file():
                    found, s_gaps = checks.check_simulate_report(report.read_text())
                    problems += found
                    gaps += s_gaps
                else:
                    problems.append("no report.json")
            result["digest"] = checks.output_digest(out)
            problems += self._check_digest(seed, result["digest"])
            if trace:
                with open(self.work / "spans.json") as f:
                    result["layers"] = tracing.summarize(json.load(f))
        if problems:
            log = (self.work / "log.txt").read_text()[-4000:]
            print(f"run failed: {'; '.join(problems)}\n{log}", file=sys.stderr)
        elif gaps:
            print(f"gap against the paper: {'; '.join(gaps)}", file=sys.stderr)
        result["problems"], result["gaps"] = problems, gaps
        self.runs.append(result)
        return result

    def _check_digest(self, seed: int, digest: str) -> list[str]:
        """Outputs of one source tree, workload and seed must never differ."""
        known = json.loads(self.digest_path.read_text()) if self.digest_path.exists() else {}
        first = known.setdefault(f"{self.prov['source_sha256']}:{self.workload}:{seed}", digest)
        if first != digest:
            return [f"outputs differ from an earlier run with this seed ({first[:12]} != {digest[:12]})"]
        tmp = self.digest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(self.digest_path)
        return []

    def measure(self, trace: bool) -> None:
        """Set-up probes, then ``MIN_RUNS`` workload runs, and more while the
        next one, taking as long as the last, would end within ``seconds`` of
        the first run's start.

        Run ``n`` uses seed ``seed + n``, so that seed-dependent work (MLE
        iterations per fit vary up to twofold from one seed to the next)
        does not set the median.  With ``trace``, runs come in pairs, an
        untraced and a traced run at one seed, so the tracing overhead is
        taken at equal work and the pair's outputs must be byte-identical."""
        if not self.setup_probe():  # untimed warm-up: bytecode and page cache
            return
        self.setups.clear()
        for _ in range(SETUP_PROBES):
            if not self.setup_probe():
                return
        start = time.monotonic()
        n = 0
        while True:
            run_start = time.monotonic()
            self.run_once(self.seed + (n // 2 if trace else n), trace and n % 2 == 1)
            n += 1
            now = time.monotonic()
            if n >= MIN_RUNS and now + (now - run_start) - start > self.seconds:
                break

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def record(self, trace: bool) -> dict:
        ok = [r for r in self.runs if not r["problems"]]
        plain = [r for r in ok if not r["trace"]]
        traced = [r for r in ok if r["trace"]]
        summary = {
            "wall_s": _quartiles([r["wall_s"] for r in plain]),
            "setup_s": _quartiles(self.setups),
            "peak_rss_mb": _quartiles([r["rss_mb"] for r in plain]),
        }
        failed = len(self.runs) - len(ok)
        metrics = {}
        if trace:
            plain_wall = {r["seed"]: r["wall_s"] for r in plain}
            overheads = [r["wall_s"] - plain_wall[r["seed"]] for r in traced if r["seed"] in plain_wall]
            if overheads:
                for key in tracing.LAYER_METRICS:
                    unit = tracing.LAYER_METRICS[key][0]
                    if key == "process.cpu_s":
                        value = statistics.median(r["cpu_s"] for r in plain)
                    elif key == "trace.overhead_s":
                        value = statistics.median(overheads)
                    else:
                        value = statistics.median(r["layers"][key] for r in traced)
                    metrics[key] = {"value": value, "unit": unit}
        elif plain:
            metrics = {k: {"value": summary[k]["median"], "unit": u} for k, u in E2E.items()}
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(trace),
            "runs": len(self.runs),
            "ops_failed": failed,
            "gate_misses": sum(1 for r in self.runs if r.get("gaps")),
            "quartiles": summary,
            "digests": sorted({r["digest"] for r in self.runs if "digest" in r}),
            "provenance": self.prov,
            "run_detail": [
                {k: v for k, v in r.items() if k not in ("layers", "start")} for r in self.runs
            ],
            "result": {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(self.runs),
                "failed": failed,
                "metrics": metrics,
            },
        }


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}")
    for key, unit in E2E.items():
        q = rec["quartiles"][key]
        if q is None:
            print(f"  {key:<12} n/a")
        else:
            print(
                f"  {key:<12} {q['median']:.4f} {unit}"
                f"  (median; q1 {q['q1']:.4f}, q3 {q['q3']:.4f}; n={q['n']})"
            )
    print(f"  {'ops_failed':<12} {rec['ops_failed']} of {rec['runs']} runs")
    print(
        f"  {'gate_misses':<12} {rec['gate_misses']} of {rec['runs']} runs"
        " (outside the published tolerances; reported, not failed)"
    )
    for key, m in rec["result"]["metrics"].items():
        if key not in E2E:
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    print(f"  outputs sha256 {', '.join(rec['digests'])}")
    print("  provenance " + json.dumps(rec["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=CALIBRATION_SEED)
    parser.add_argument(
        "--seconds", type=float, default=json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "afcsim" / "cli.py").is_file():
        print(f"error: no afcsim sources under {src}; run from the repository root", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    prov = provenance(root, int(env["OPENBLAS_NUM_THREADS"]))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = root / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        bench = Bench(root, name, args.seed, args.seconds, prov, env)
        try:
            bench.measure(bool(args.trace))
        finally:
            bench.close()
        rec = bench.record(bool(args.trace))
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1, sort_keys=True) + "\n"
        )
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": m for r in records for k, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
