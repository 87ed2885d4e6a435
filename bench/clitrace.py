"""Run one flatkit CLI command with the per-layer tracer installed.

Usage: python bench/clitrace.py TRACE_JSON ARG...

Behaves like `python -m flatkit.cli ARG...` (same stdout, stderr and exit
status) and writes the trace to TRACE_JSON, also when the command fails.
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.install()
    from flatkit import cli

    try:
        code = cli.main(argv)
    finally:
        spans.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(spans.to_dict(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
