"""flatkit benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload h4_classify --seed 1 --seconds 30 --trace 0

Every sample is a fresh interpreter running bench/worker.py (see there for
why), started one at a time with PYTHONPATH=src.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it and .bench_out/<workload>-seed<n>-trace<t>.json hold the
details (environment, per-sample values, tail percentile, known defects).

--trace 0: samples are repeated while the next one still fits in --seconds
(at least one), with set-up-only starts between them.  Each item and each
gap between items is timed in every sample; the end-to-end metrics use each
one's median over the samples.  All end-to-end times are scaled by the host
speed that a thread of this process measures meanwhile (speed.py).

--trace 1: one untraced sample, then two traced ones whose exact counts
must agree; the per-layer metrics come from the traced pair.

The metric names and units are read from BENCHMARK.json; see bench/README.md
for their definitions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
from tracer import exact_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("h4_classify", "h31_scan", "polygon_gl2", "cli_fixtures")
SETUP_REPEATS = 3  # set-up-only starts before each sample and after the last
IMPORT_REPEATS = 5
RUN_LIMIT_S = 170.0  # the whole run, so that it ends before an outside 180 s limit
TAIL_BEYOND = 10  # the tail is the highest percentile with this many items above it
SUBCOMMANDS = ("analyze", "orbit", "spin", "act", "strata", "divisor", "render")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set order must not move the exact counts
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def scale(record: dict, monitor: speed.Monitor) -> dict:
    """Turn a worker's monotonic-clock marks into times scaled by host speed.

    Segment k of the timed region runs from marks[k] to marks[k + 1]; item i
    is segment 2i + 1.  An item killed at a time limit keeps its raw time.
    """
    start, end = record["setup"]
    record["raw_setup_s"] = end - start
    record["setup_s"] = (end - start) * monitor.factor(start, end)
    if "marks" in record:
        marks = record["marks"]
        killed = {2 * i + 1 for i in record["killed"]}
        spans = list(zip(marks, marks[1:]))
        factors = [1.0 if k in killed else monitor.factor(a, b) for k, (a, b) in enumerate(spans)]
        record["segments"] = [(b - a) * f for (a, b), f in zip(spans, factors)]
        record["groups"] = [(ms * f, n) for (ms, n), f in zip(record["groups"], factors[1::2])]
        record["wall_s"] = sum(record["segments"])
        record["raw_wall_s"] = marks[-1] - marks[0]
    return record


def spawn(workload: str, seed: int, mode: str, deadline: float, monitor: speed.Monitor) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=_remaining(deadline)
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} sample of {workload} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} sample of {workload} failed:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["span_s"] = time.monotonic() - t0
    return scale(record, monitor)


def import_seconds(deadline: float) -> float:
    """Median time of `import flatkit.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import flatkit.cli; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
            env=_env(), timeout=_remaining(deadline), check=True,
        )
        values.append(float(proc.stdout))
    return statistics.median(values)


# --- item latency -------------------------------------------------------------


def _position_medians(rows: list[list[float]]) -> list[float] | None:
    """Each position's median over the rows, or None if their lengths differ.

    All samples of a run see the same inputs, so position k is the same item
    (or the same gap between items) in each; its median keeps a slow moment
    of a shared host in one sample out of the result.
    """
    if len({len(row) for row in rows}) != 1:
        return None  # a failed check changed the item list
    return [statistics.median(column) for column in zip(*rows)]


def robust_wall(samples: list[dict]) -> float:
    """Sum over the timed region's segments of each segment's median."""
    medians = _position_medians([s["segments"] for s in samples])
    if medians is None:
        return statistics.median(s["wall_s"] for s in samples)
    return sum(medians)


def item_latency(samples: list[dict]) -> dict:
    """Median and tail over the items; groups are (ms, count) pairs."""
    ms = _position_medians([[m for m, _ in s["groups"]] for s in samples])
    groups = samples[0]["groups"]
    if ms is not None:
        groups = [(m, count) for m, (_, count) in zip(ms, groups)]
    ordered = sorted(groups)
    n = sum(count for _, count in ordered)

    def at(rank: int) -> float:
        seen = 0
        for value, count in ordered:
            seen += count
            if rank < seen:
                return value
        return ordered[-1][0]

    tail_rank = max(n - 1 - TAIL_BEYOND, 0)
    return {
        "p50_ms": (at((n - 1) // 2) + at(n // 2)) / 2,
        "tail_ms": at(tail_rank),
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "items": n,
    }


# --- runs ---------------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: int, deadline: float, monitor: speed.Monitor):
    # Set-up-only starts go before, between and after the samples: CPU speed
    # on a shared host drifts over seconds, and one block of starts would all
    # land in the same phase.
    start = time.monotonic()
    samples: list[dict] = []
    setups: list[dict] = []
    while not samples or time.monotonic() - start + samples[-1]["span_s"] <= seconds:
        setups += [spawn(workload, seed, "setup", deadline, monitor) for _ in range(SETUP_REPEATS)]
        samples.append(spawn(workload, seed, "run", deadline, monitor))
    setups += [spawn(workload, seed, "setup", deadline, monitor) for _ in range(SETUP_REPEATS)]
    setups += samples
    latency = item_latency(samples)
    wall = robust_wall(samples)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "items_per_s": (samples[0]["attempted"] - samples[0]["failed"]) / wall,
        "item_p50_ms": latency["p50_ms"],
        "item_tail_ms": latency["tail_ms"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    detail = {
        "setup_s": [s["setup_s"] for s in setups],
        "raw_setup_s": [s["raw_setup_s"] for s in setups],
        "wall_s": [s["wall_s"] for s in samples],
        "raw_wall_s": [s["raw_wall_s"] for s in samples],
        "item_latency": latency,
    }
    return samples, metrics, detail


def traced_run(workload: str, seed: int, deadline: float, monitor: speed.Monitor):
    plain = spawn(workload, seed, "run", deadline, monitor)
    traced = [spawn(workload, seed, "trace", deadline, monitor) for _ in range(2)]
    problems = [p for s in traced for p in layers.trace_problems(s["trace"], s["raw_wall_s"])]
    values = [layers.layer_values(s["trace"]) for s in traced]
    exact = [exact_counts(s["trace"]) for s in traced]
    if exact[0] != exact[1]:
        diff = sorted(k for k in exact[0].keys() | exact[1].keys() if exact[0].get(k) != exact[1].get(k))
        problems.append(f"counts differ between the two traced samples: {diff[:10]}")
    metrics = {
        k: (v if isinstance(v, int) else (v + values[1][k]) / 2) for k, v in values[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - plain["wall_s"]
    metrics["cli.import_s"] = import_seconds(deadline)
    process_ms = plain["extra"].get("process_ms", {})
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.process_ms"] = (
            statistics.median(process_ms[sub]) if process_ms.get(sub) else 0.0
        )
    metrics["cli.error_path.clean_ratio"] = layers.ratio(
        plain["extra"].get("error_clean", 0), plain["extra"].get("error_total", 0)
    )
    detail = {
        "wall_s": {"untraced": plain["wall_s"], "traced": [s["wall_s"] for s in traced]},
        "trace": traced[0]["trace"],
    }
    return [plain, *traced], metrics, detail, problems


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flatkit" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a flatkit checkout (src/flatkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        with speed.Monitor() as monitor:
            if args.trace:
                samples, metrics, detail, problems = traced_run(
                    args.workload, args.seed, deadline, monitor
                )
            else:
                samples, metrics, detail = untraced_run(
                    args.workload, args.seed, args.seconds, deadline, monitor
                )
                problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    problems += [p for s in samples for p in s["problems"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    known = sorted({k for s in samples for k in s["known"]})
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": len(samples),
        "fail_ratio": failed / attempted,
        "known_defects_failed": known,
        "problems": problems[:20],
        **detail,
        "result": result,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("trace", "result", "item_latency")}
    print("detail: " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
