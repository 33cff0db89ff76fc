"""Command-line interface.

Three verbs:

* ``simulate``       — full configuration-driven run; writes report.json
                       and per-channel artifacts.
* ``analyze-golden`` — re-analyze a bundled reference dataset
                       (table2 | table3 | table4).
* ``reproduce``      — regenerate a figure/table analysis
                       (fig3 | fig4 | fig5 | fig7 | table1 | table2).

Each artifact takes only the options it reads (``_ARTIFACTS``); any other
option is a configuration error, as is more than one ``--channels`` label
for a single-channel figure (fig4, fig5, fig7).  Every option is checked
before ``--out`` is created.

Exit codes: 0 success, 1 a tolerance check failed, 2 configuration error.

Allocator policy: ``main`` keeps the heap that the event path frees mapped
for the next acquisition (``_keep_heap_mapped``).  Each acquisition builds
and frees arrays of 1.5-4 MB (emission cycles, outcome draws, times, masks,
sort keys, ``np.compress`` index buffers); glibc's dynamic thresholds serve
such blocks with ``mmap`` or trim them off the top of the heap, so every
acquisition zero-fills its pages again.  ``main`` sets glibc's
``M_MMAP_THRESHOLD`` to 32 MiB and ``M_TRIM_THRESHOLD`` to 256 MiB; with
both, ``simulate --channels 1 --trials 20`` takes about 20k minor page
faults instead of about 385k and spends 0.05 s instead of about 0.9 s in the
kernel (getrusage of the verb).  Either setting alone leaves most of the
faults.  ``main`` also sets ``M_ARENA_MAX`` to 1: the threads that run a
setting scan (``afcsim.pipeline``) then allocate from the one main arena
that the two thresholds keep mapped, instead of each faulting in an arena of
its own.  Without the cap, ``simulate --channels 1 --trials 20`` peaks at
about 154 MB of RSS on two threads; with it, at about 96 MB, against about
120 MB when the scans ran on one thread (``ru_maxrss``).  The policy applies
to glibc only: where ``mallopt`` is missing or refuses the value, the
allocator is left as it is.  It changes no number, and code that imports
``afcsim`` as a library keeps its own allocator; only ``main`` sets it.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
from pathlib import Path

from afcsim import reports
from afcsim.config import ConfigError, ExperimentConfig, load_config, reference_calibration_config
from afcsim.datasets import FixtureError

_RUN_OPTIONS = ("config", "seed", "channels", "trials")

# glibc mallopt parameters (malloc.h) and the values main sets; 32 MiB is
# the largest mmap threshold every 64-bit glibc accepts, and one arena
# serves every scan thread
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_POLICY = (
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 256 << 20),
    (_M_ARENA_MAX, 1),
)

# Every artifact, keyed by (verb, artifact): the options it reads, whether
# it takes one channel, and the call that writes it.  An artifact that reads
# --config is written by ``write(cfg, out, channels)``, with one channel
# index for a single-channel figure; a bundled dataset by
# ``write(out, args)``.  ``simulate`` writes one artifact, its run report.
# fig5 and fig7 draw no Monte-Carlo error bar; the golden tables other than
# table3 are fixed datasets with no random draw.
_ARTIFACTS = {
    ("simulate", None): (_RUN_OPTIONS, False, reports.write_simulation_report),
    ("analyze-golden", "table2"): ((), False, lambda out, args: reports.analyze_table2(out)),
    ("analyze-golden", "table3"): (
        ("seed", "trials"),
        False,
        lambda out, args: reports.analyze_table3(out, args.trials or 100, args.seed or 0),
    ),
    ("analyze-golden", "table4"): ((), False, lambda out, args: reports.analyze_table4(out)),
    ("reproduce", "fig3"): (_RUN_OPTIONS, False, reports.reproduce_fig3),
    ("reproduce", "fig4"): (_RUN_OPTIONS, True, reports.reproduce_fig4),
    ("reproduce", "fig5"): (("config", "seed", "channels"), True, reports.reproduce_fig5),
    ("reproduce", "fig7"): (("config", "seed", "channels"), True, reports.reproduce_fig7),
    ("reproduce", "table1"): (_RUN_OPTIONS, False, reports.reproduce_table1),
    ("reproduce", "table2"): ((), False, lambda out, args: reports.analyze_table2(out)),
}


def _parse_channels(text: str | None):
    if text is None:
        return None
    try:
        channels = sorted({int(tok) - 1 for tok in text.split(",") if tok.strip()})
    except ValueError as err:
        raise ConfigError(f"--channels: {err}") from err
    if not channels:
        raise ConfigError("--channels: no channel labels given")
    if any(not 0 <= c < 5 for c in channels):
        raise ConfigError("--channels: channel labels run 1..5")
    return channels


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else reference_calibration_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = dataclasses.replace(
            cfg, desk_scale=dataclasses.replace(cfg.desk_scale, mc_trials=args.trials)
        )
    return cfg


def _run(args) -> int:
    """Check every option given to the artifact, then create ``--out`` and
    write the artifact into it."""
    artifact = getattr(args, "figure", getattr(args, "dataset", None))
    label = " ".join(filter(None, (args.command, artifact)))
    reads, one_channel, write = _ARTIFACTS[(args.command, artifact)]
    given = [name for name in _RUN_OPTIONS if getattr(args, name, None) is not None]
    unread = [f"--{name}" for name in given if name not in reads]
    if unread:
        raise ConfigError(f"{label} does not read {', '.join(unread)}")
    channels = _parse_channels(getattr(args, "channels", None))
    if one_channel and channels is not None and len(channels) > 1:
        raise ConfigError(f"--channels: {artifact} is a single-channel figure; give one label")
    if "config" in reads:
        cfg = _load(args)  # the config dataclasses check the seed and the trials
    elif args.trials is not None and args.trials < 2:
        # the rule desk_scale.mc_trials follows for the other artifacts
        raise ConfigError("--trials: Monte-Carlo error bars need at least 2 trials")
    elif args.seed is not None and not 0 <= args.seed < 2**32:
        # the rule ExperimentConfig.seed follows for the other artifacts
        raise ConfigError(f"--seed: {args.seed} is outside [0, 2**32)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "config" not in reads:
        summary, ok = write(out, args)
    elif artifact is None:
        report = write(cfg, out, channels)
        print(f"simulate: report for {len(report['channels'])} channel(s) -> {out/'report.json'}")
        return 0
    else:
        summary, ok = write(cfg, out, (channels or [0])[0] if one_channel else channels)
    print(f"{label}: {'PASS' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcsim",
        description=(
            "Simulate and analyze a five-channel AFC photonic memory storing "
            "time-bin entangled photon pairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the full simulated experiment")
    sim.add_argument("--config", help="JSON config path (default: bundled calibrated config)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--channels", help="comma-separated channel labels, e.g. 1,3")
    sim.add_argument("--trials", type=int, help="Monte-Carlo trials for error bars")

    gold = sub.add_parser("analyze-golden", help="re-analyze a bundled reference dataset")
    gold.add_argument("dataset", choices=("table2", "table3", "table4"))
    gold.add_argument("--out", required=True)
    gold.add_argument("--seed", type=int)
    gold.add_argument("--trials", type=int)

    rep = sub.add_parser("reproduce", help="regenerate a figure/table analysis")
    rep.add_argument("figure", choices=("fig3", "fig4", "fig5", "fig7", "table1", "table2"))
    rep.add_argument("--config")
    rep.add_argument("--out", required=True)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--channels")
    rep.add_argument("--trials", type=int)

    return parser


def _keep_heap_mapped() -> None:
    """Keep freed heap mapped for the next acquisition (see the module
    docstring).  The mmap threshold, the only value glibc can refuse, is set
    first, so a refusal leaves the allocator as it was."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        if mallopt(param, value) == 0:
            return


def main(argv=None) -> int:
    _keep_heap_mapped()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, FixtureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
