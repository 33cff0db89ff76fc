"""One workload process: set up afcsim as the CLI does, then run one verb.

    python3 bench/workload.py --stats STATS.json [--trace SPANS.json] \
        [--setup-only] -- <afcsim CLI arguments>

Set-up is interpreter start, ``import afcsim.cli``, the calibrated config
and the fixture checksums.  STATS.json receives CLOCK_MONOTONIC readings
(comparable with the parent's) at verb-ready and at verb end, and the
verb's exit code.  With ``--trace`` every public afcsim function is wrapped
before set-up and the spans are written to SPANS.json after the verb.
"""

import argparse
import json
import sys
import time

import afcsim.cli
from afcsim import config, datasets


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("verb", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config.reference_calibration_config()
    datasets.verify_checksums()
    stats = {"ready": time.monotonic()}
    rc = 0
    if not args.setup_only:
        verb = args.verb[1:] if args.verb[:1] == ["--"] else args.verb
        rc = afcsim.cli.main(verb)
        stats["end"] = time.monotonic()
    stats["rc"] = rc
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.stats, "w") as f:
        json.dump(stats, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
