"""One benchmark sample, in a fresh interpreter.

run.py starts this script once per sample, so every sample begins cold: the
lru_cache on origami.singularity_orders (65536 entries) and the unbounded
cache on origami._stratum_classes_python both live only as long as one
process, and a warm repeat would time dictionary lookups.

Set-up time runs from the moment run.py starts the process (--t0, read from
the system-wide monotonic clock) to the first timed item.  It covers the
interpreter start, the flatkit import, fixture loading and drawing the
seeded inputs.

The record gives times on the system-wide monotonic clock, so that run.py
can scale each stretch by the host speed it measured at that moment.

Modes: `setup` stops after set-up, `run` does the timed work, `trace` does
it with the per-layer tracer installed.  The last stdout line is one JSON
record.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import tempfile
import time
from pathlib import Path

import tracer
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    out_dir = workloads.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workload = workloads.WORKLOADS[args.workload]()
        is_cli = args.workload == "cli_fixtures"
        if is_cli:
            workload.traced = args.mode == "trace"
        workload.setup(args.seed, tmp)
        record: dict = {"setup": [args.t0, time.monotonic()]}
        if args.mode != "setup":
            spans = tracer.Tracer() if args.mode == "trace" and not is_cli else None
            if spans is not None:
                spans.install()
            out = workloads.Outcome()
            try:
                workload.run(out)
            finally:
                out.finish()
                if spans is not None:
                    spans.uninstall()
            record.update(
                marks=out.marks,
                groups=out.groups,
                killed=out.killed,
                attempted=out.attempted,
                failed=out.failed,
                known=out.known,
                problems=out.problems,
                extra=out.extra,
                # ru_maxrss is in KiB on Linux; on cli_fixtures the CLI processes
                # are the program, and the worker only starts them.
                peak_rss_mb=out.extra.get("peak_rss_mb")
                or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if args.mode == "trace":
                record["trace"] = spans.to_dict() if spans else tracer.merge(workload.traces)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
