"""In-memory span tracer for the afcsim benchmark.

``Tracer.install()`` replaces each layer-boundary function of ``afcsim``
(``TRACED``) with a wrapper that records a span (name, start, end, parent).
A function that other modules import by name (``pipeline`` imports
``analyzer.detect``; ``tomography`` imports ``states.fidelity``) is patched
in every ``afcsim`` namespace that holds it, so no call escapes the trace.
Spans stay in memory until ``dump()``; ``summarize()`` turns them into the
per-layer metrics listed in ``LAYER_METRICS``.

A span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Per-layer metric -> (unit, better, the workloads whose wall_s it should
# move, with the layer's share of their traced wall time at the calibration
# seed).  Counts depend only on (config, seed), so they repeat exactly for
# one ``--seed``.
LAYER_METRICS = {
    "source.emission_arrays.self_s": ("s", "lower", "g2-grid 11%, fringe-fig4 8%, simulate-ch1 7%"),
    "source.emission_arrays.pairs": ("count", "lower", "g2-grid, fringe-fig4, simulate-ch1"),
    "analyzer.sample_pair_outcomes.self_s": ("s", "lower", "fringe-fig4 15%, simulate-ch1 12%"),
    "analyzer.sample_pair_outcomes.outcomes": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "analyzer.detect.self_s": ("s", "lower", "fringe-fig4 8%, simulate-ch1 8%, g2-grid 7%"),
    "analyzer.detect.arrivals": ("count", "lower", "fringe-fig4, g2-grid, simulate-ch1"),
    "analyzer.detect.clicks": ("count", "lower", "fringe-fig4, g2-grid, simulate-ch1"),
    "analyzer.detect.click_frac": ("ratio", "higher", "fringe-fig4, g2-grid, simulate-ch1"),
    "analyzer.threefold_counts.self_s": ("s", "lower", "simulate-ch1 27%, fringe-fig4 26%"),
    "analyzer.threefold_counts.events": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "analyzer.threefold_counts.unclassified": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "analyzer.threefold_counts.classified_frac": ("ratio", "higher", "fringe-fig4, simulate-ch1"),
    "analyzer.g2_tallies.self_s": ("s", "lower", "g2-grid 77%, simulate-ch1 6%"),
    "analyzer.g2_tallies.events": ("count", "lower", "g2-grid, simulate-ch1"),
    "bell.monte_carlo_errors.self_s": ("s", "lower", "fringe-fig4 26%, simulate-ch1 2%, g2-grid 2%"),
    "bell.monte_carlo_errors.trials": ("count", "lower", "fringe-fig4, simulate-ch1, g2-grid"),
    "bell.monte_carlo_errors.nonfinite": ("count", "lower", "fringe-fig4, simulate-ch1, g2-grid"),
    "bell.monte_carlo_errors.finite_frac": ("ratio", "higher", "fringe-fig4, simulate-ch1, g2-grid"),
    "bell.fit_visibility.calls": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "bell.fit_visibility.not_converged": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "tomography.mle_reconstruct.self_s": ("s", "lower", "simulate-ch1 21%"),
    "tomography.mle_reconstruct.iterations": ("count", "lower", "simulate-ch1"),
    "tomography.mle_reconstruct.iterations_per_fit": ("count", "lower", "simulate-ch1"),
    "tomography.mle_reconstruct.not_converged": ("count", "lower", "simulate-ch1"),
    "states.fidelity.self_s": ("s", "lower", "simulate-ch1 (<1%)"),
    "states.purity.self_s": ("s", "lower", "simulate-ch1 (<1%)"),
    "states.entanglement_of_formation.self_s": ("s", "lower", "simulate-ch1 (<1%)"),
    "pipeline.acquire_threefold.self_s": ("s", "lower", "fringe-fig4 16%, simulate-ch1 15%"),
    "pipeline.acquire_threefold.cycles": ("count", "lower", "fringe-fig4, simulate-ch1"),
    "pipeline.acquire_g2.self_s": ("s", "lower", "g2-grid 3%, simulate-ch1 (<1%)"),
    "pipeline.acquire_g2.cycles": ("count", "lower", "g2-grid, simulate-ch1"),
    "pipeline.tomography_pair_with_errors.self_s": ("s", "lower", "simulate-ch1"),
    "reports.write_simulation_report.self_s": ("s", "lower", "simulate-ch1"),
    "reports.reproduce_fig3.self_s": ("s", "lower", "g2-grid"),
    "reports.reproduce_fig4.self_s": ("s", "lower", "fringe-fig4"),
    "datasets.verify_checksums.self_s": ("s", "lower", "setup_s of every workload"),
    "config.reference_calibration_config.self_s": ("s", "lower", "setup_s of every workload"),
    "process.cpu_s": ("s", "lower", "every workload; read beside wall_s for any fan-out"),
    "trace.overhead_s": ("s", "lower", "every workload; traced minus untraced wall_s"),
}


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bind(fn, args, kwargs) -> dict:
    """The call's arguments by parameter name, defaults included."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- count hooks: each makes the call itself and records work counts -------


def _emission_arrays(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.add("source.emission_arrays.pairs", len(out[0]))
    return out


def _sample_pair_outcomes(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.add("analyzer.sample_pair_outcomes.outcomes", len(out[0]))
    return out


def _detect(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.add("analyzer.detect.arrivals", sum(len(v) for v in _bind(fn, args, kwargs)["arrivals"].values()))
    tr.add("analyzer.detect.clicks", sum(len(v) for v in out.values()))
    return out


def _threefold_counts(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    bound = _bind(fn, args, kwargs)
    tr.add(
        "analyzer.threefold_counts.events",
        len(bound["idler_times_ps"]) + len(bound["signal_times_ps"]),
    )
    tr.add("analyzer.threefold_counts.unclassified", out.unclassified_idler + out.unclassified_signal)
    return out


def _g2_tallies(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    bound = _bind(fn, args, kwargs)
    tr.add("analyzer.g2_tallies.events", len(bound["signal_times_ps"]) + len(bound["idler_times_ps"]))
    return out


def _monte_carlo_errors(tr, fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    statistic = bound.arguments["statistic"]

    def counted(resampled):
        value = statistic(resampled)
        tr.add("bell.monte_carlo_errors.trials", 1)
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            tr.add("bell.monte_carlo_errors.nonfinite", 1)
        return value

    bound.arguments["statistic"] = counted
    return fn(*bound.args, **bound.kwargs)


def _fit_visibility(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.add("bell.fit_visibility.not_converged", int(not out.converged))
    return out


def _mle_reconstruct(tr, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.add("tomography.mle_reconstruct.iterations", out.iterations)
    tr.add("tomography.mle_reconstruct.not_converged", int(not out.converged))
    return out


def _acquire_threefold(tr, fn, args, kwargs):
    tr.add("pipeline.acquire_threefold.cycles", _bind(fn, args, kwargs)["n_cycles"])
    return fn(*args, **kwargs)


def _acquire_g2(tr, fn, args, kwargs):
    tr.add("pipeline.acquire_g2.cycles", _bind(fn, args, kwargs)["n_cycles"])
    return fn(*args, **kwargs)


HOOKS = {
    "source.emission_arrays": _emission_arrays,
    "analyzer.sample_pair_outcomes": _sample_pair_outcomes,
    "analyzer.detect": _detect,
    "analyzer.threefold_counts": _threefold_counts,
    "analyzer.g2_tallies": _g2_tallies,
    "bell.monte_carlo_errors": _monte_carlo_errors,
    "bell.fit_visibility": _fit_visibility,
    "tomography.mle_reconstruct": _mle_reconstruct,
    "pipeline.acquire_threefold": _acquire_threefold,
    "pipeline.acquire_g2": _acquire_g2,
}


# Layer boundaries: the public functions that get a span.  A helper that
# is not listed (``tomography.log_likelihood_and_gradient``, the memory
# bookkeeping that ``pipeline`` does inline) runs inside its caller's span,
# so a layer's self time does not move when its helpers are renamed or
# merged.  ``afcsim.memory`` has no public function with measurable work on
# these workloads and gets no span.
TRACED = (
    "cli.main",
    "config.reference_calibration_config",
    "datasets.verify_checksums",
    "reports.write_simulation_report",
    "reports.reproduce_fig3",
    "reports.reproduce_fig4",
    "pipeline.run_report",
    "pipeline.channel_report",
    "pipeline.run_chsh",
    "pipeline.run_fringe",
    "pipeline.run_tomography_counts",
    "pipeline.tomography_pair_with_errors",
    "pipeline.acquire_threefold",
    "pipeline.acquire_g2",
    "source.emission_arrays",
    "source.analytic_state",
    "analyzer.sample_pair_outcomes",
    "analyzer.detect",
    "analyzer.threefold_counts",
    "analyzer.g2_tallies",
    "bell.chsh_from_counts",
    "bell.fit_visibility",
    "bell.monte_carlo_errors",
    "tomography.reconstruct_with_errors",
    "tomography.mle_reconstruct",
    "states.fidelity",
    "states.purity",
    "states.entanglement_of_formation",
)


class Tracer:
    """Records nested call spans and work counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def add(self, counter: str, amount) -> None:
        self.counters[counter] += amount

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``hook(tracer, fn, args, kwargs)``, when given, makes the call itself
        and records work counters; it runs inside the span.
        """
        spans, clock, local = self.spans, self.clock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each function in ``TRACED``, in every ``afcsim`` module
        namespace that holds it.  Names afcsim no longer has are skipped."""
        root = importlib.import_module("afcsim")
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"afcsim.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items()) if n.partition(".")[0] == "afcsim"]
        wrappers = {}
        for name in TRACED:
            module, _, attr = name.partition(".")
            fn = getattr(sys.modules[f"afcsim.{module}"], attr, None)
            if inspect.isfunction(fn):
                wrappers[fn] = self.wrap(name, fn, HOOKS.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def rows(self) -> list[list]:
        """Spans as ``[name, start, end, parent_index]`` (-1 for a root)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)]]
            for name, start, end, parent in self.spans
        ]

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w") as f:
            json.dump({"spans": self.rows(), "counters": dict(self.counters)}, f)


def self_times(rows: list[list]) -> list[float]:
    """Self time of each span row ``[name, start, end, parent_index]``: its
    duration minus its children's durations.  Spans come from one call stack,
    so children are disjoint and lie inside their parent, and the self times
    of a tree sum to its root's duration."""
    out = [end - start for _, start, end, _ in rows]
    for _, start, end, parent in rows:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced process.  Layers a workload does not
    reach read 0."""
    rows, counters = trace["spans"], trace["counters"]
    selfs = self_times(rows)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for (name, *_), s in zip(rows, selfs):
        calls[name] += 1
        self_s[name] += s

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for key in LAYER_METRICS:
        layer, _, field = key.rpartition(".")
        if field == "self_s":
            metrics[key] = self_s.get(layer, 0.0)
        elif field == "calls":
            metrics[key] = calls.get(layer, 0)
        elif key in counters:
            metrics[key] = counters[key]
    c = counters.get
    metrics["analyzer.detect.click_frac"] = ratio(
        c("analyzer.detect.clicks", 0), c("analyzer.detect.arrivals", 0)
    )
    events = c("analyzer.threefold_counts.events", 0)
    metrics["analyzer.threefold_counts.classified_frac"] = ratio(
        events - c("analyzer.threefold_counts.unclassified", 0), events
    )
    trials = c("bell.monte_carlo_errors.trials", 0)
    metrics["bell.monte_carlo_errors.finite_frac"] = ratio(
        trials - c("bell.monte_carlo_errors.nonfinite", 0), trials
    )
    metrics["tomography.mle_reconstruct.iterations_per_fit"] = ratio(
        c("tomography.mle_reconstruct.iterations", 0), calls.get("tomography.mle_reconstruct", 0)
    )
    for key in LAYER_METRICS:
        if key not in ("process.cpu_s", "trace.overhead_s"):
            metrics.setdefault(key, 0)
    return metrics
