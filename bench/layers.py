"""Per-layer metrics derived from a trace (see tracer.py and README.md)."""

from __future__ import annotations

import math

CLASS_DEGREE_LIMIT = 9  # stratum_pairs_raw yields one pair per class below this degree


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(trace: dict) -> dict:
    """Per-layer metrics that come from one trace (times and exact counts)."""
    stats = trace["stats"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_s": {}, "counts": {}}

    def st(name: str) -> dict:
        return stats.get(name, empty)

    out = {}
    for name in (
        "flatcore.validate", "origami.singularity_orders", "origami.canonical_form",
        "spin.build_quadratic_form", "spin.hyperelliptic_involution", "gl2.apply",
    ):
        out[f"{name}.calls"] = st(name)["calls"]
    for name in (
        "flatcore.validate", "flatcore.singularities", "flatcore.stratum", "flatcore.periods",
        "origami.singularity_orders", "origami.to_polygons", "origami.origamis_in_stratum",
        "origami.canonical_form", "origami.stratum_pairs_raw", "origami.orbit",
        "spin.build_quadratic_form", "spin.hyperelliptic_involution", "spin.classify_component",
        "spin.hyperelliptic_scan", "gl2.apply", "hyperell.divisor_of_form", "strata.partitions",
    ):
        out[f"{name}.self_s"] = st(name)["self_s"]

    validate = st("flatcore.validate")["counts"]
    out["flatcore.validate.calls_per_stratum"] = ratio(
        validate.get("within:flatcore.stratum", 0), st("flatcore.stratum")["calls"]
    )
    orders = st("origami.singularity_orders")
    out["origami.singularity_orders.oracle_share"] = ratio(
        orders["child_s"].get("flatcore", 0.0), orders["total_s"]
    )

    enum = st("origami.origamis_in_stratum")["counts"]
    raw = st("origami.stratum_pairs_raw")
    classes = sum(v for k, v in enum.items() if k.startswith("yields_d:")) + sum(
        v for k, v in raw["counts"].items()
        if k.startswith("yields_d:") and int(k.split(":")[1]) < CLASS_DEGREE_LIMIT
    )
    canon = st("origami.canonical_form")["counts"]
    out["origami.canonical_form.calls_per_class"] = ratio(
        canon.get("within:origami.origamis_in_stratum", 0)
        + canon.get("within:origami.stratum_pairs_raw", 0),
        classes,
    )
    pairs = sum(v for k, v in raw["counts"].items() if k.startswith("yields_d:"))
    candidates = sum(
        v * partition_count(int(k.split(":")[1])) * math.factorial(int(k.split(":")[1]))
        for k, v in raw["counts"].items()
        if k.startswith("calls_d:")
    )
    out["origami.stratum_pairs_raw.pairs"] = pairs
    out["origami.stratum_pairs_raw.pairs_per_s"] = ratio(pairs, raw["total_s"])
    out["origami.stratum_pairs_raw.yield_ratio"] = ratio(pairs, candidates)
    out["origami.orbit.elements"] = st("origami.orbit")["counts"].get("elements", 0)
    scan = st("spin.hyperelliptic_scan")
    out["spin.hyperelliptic_scan.us_per_pair"] = 1e6 * ratio(
        scan["self_s"], scan["counts"].get("pairs", 0)
    )
    out["spin.hyperelliptic_scan.witnesses"] = scan["counts"].get("witnesses", 0)
    return out


def partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def trace_problems(trace: dict, wall_s: float) -> list[str]:
    """Nesting violations, and self times that exceed the sample's wall time."""
    problems = list(trace["violations"])
    self_total = sum(st["self_s"] for st in trace["stats"].values())
    if any(st["self_s"] < 0 for st in trace["stats"].values()):
        problems.append("negative self time")
    if self_total > wall_s:
        problems.append(f"self times add up to {self_total:.3f} s > wall {wall_s:.3f} s")
    if trace["missing"]:
        problems.append(f"traced functions missing: {trace['missing']}")
    return problems
