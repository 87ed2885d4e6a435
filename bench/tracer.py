"""Per-layer tracing of flatkit from outside the package.

`Tracer.install()` rebinds the public functions listed in TRACED to timing
wrappers, in their own module and in every flatkit module that imported
them by name (`spin.singularity_orders`, for example).  Calls inside a
module resolve through module globals, so the wrappers also see internal
calls such as stratum -> singularities -> validate.  `uninstall()` puts the
originals back.  Nothing under src/ is edited.

Spans are not kept one by one: many wrapped functions run 10^4 to 10^6 times
per sample, so each name keeps counts, total time and self time (span time
minus the time of wrapped child spans).  Nesting is still checked on every
span: a child must start after its parent started and end before it ends,
and a span's children can never cover more than its own duration.

Generator functions (the enumerators) are timed on each next(), so their
self time is the enumeration work and the consumer's time is not in it.

Leaf helpers that cost about a microsecond (invert_perm, cycles_of,
commutator, relabel, the act_* moves) are left unwrapped on purpose: a
wrapper would cost as much as the call.  Their time counts as self time of
the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable

TRACED = {
    "flatcore": (
        "validate",
        "singularities",
        "genus",
        "stratum",
        "periods",
        "is_integral",
        "surface_from_json",
        "surface_to_json",
    ),
    "origami": (
        "parse_origami_text",
        "to_polygons",
        "singularity_orders",
        "genus",
        "canonical_form",
        "orbit",
        "origamis_in_stratum",
        "stratum_pairs_raw",
    ),
    "spin": (
        "fundamental_cycles",
        "build_quadratic_form",
        "spin_parity",
        "hyperelliptic_involution",
        "hyperelliptic_scan",
        "classify_component",
    ),
    "gl2": ("apply", "check_linear_relations"),
    "hyperell": ("branch_set", "parse_form", "divisor_of_form", "is_holomorphic"),
    "strata": ("partitions", "dimension", "components", "hodge_dimension"),
}

# Modules whose globals may hold a traced function imported by name.
MODULES = ("flatcore", "origami", "spin", "gl2", "hyperell", "strata", "cli")

# inner span -> outer spans whose open calls it is counted under.
NESTED = {
    "flatcore.validate": ("flatcore.stratum",),
    "origami.canonical_form": ("origami.origamis_in_stratum", "origami.stratum_pairs_raw"),
}

# Exact counts taken from a function's return value.
RESULT_COUNTS: dict[str, Callable[[object], dict[str, int]]] = {
    "origami.orbit": lambda r: {"elements": len(r.elements)},
    "spin.hyperelliptic_scan": lambda r: {"pairs": int(r[0]), "witnesses": int(r[1])},
}

_TOLERANCE_S = 1e-7


class Stat:
    """Aggregate of every span of one traced name."""

    __slots__ = ("name", "calls", "total_s", "self_s", "child_s", "counts", "open")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.child_s: dict[str, float] = {}  # child layer -> time in its spans
        self.counts: dict[str, int] = {}  # exact counters
        self.open = 0

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "child_s": self.child_s,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames: [t0, child_s, last_child_end, stat, child_by_layer]
        self.violations: list[str] = []
        self.missing: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _enter(self, st: Stat) -> list:
        t0 = time.perf_counter()
        stack = self.stack
        if stack and t0 < stack[-1][0]:
            self.violations.append(f"{st.name} starts before its parent {stack[-1][3].name}")
        for outer in NESTED.get(st.name, ()):
            if self.stats[outer].open:
                st.bump("within:" + outer)
        frame = [t0, 0.0, t0, st, None]
        stack.append(frame)
        st.open += 1
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        t0, child, last_child_end, st, by_layer = frame
        stack = self.stack
        if not stack or stack[-1] is not frame:
            self.violations.append(f"{st.name} closed out of order")
            if frame in stack:
                stack.remove(frame)
        else:
            stack.pop()
        st.open -= 1
        duration = t1 - t0
        if child > duration + _TOLERANCE_S or last_child_end > t1:
            self.violations.append(f"children of {st.name} outlast it")
        st.total_s += duration
        st.self_s += duration - child
        if by_layer:
            for layer, seconds in by_layer.items():
                st.child_s[layer] = st.child_s.get(layer, 0.0) + seconds
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[2] = t1
            layer = st.name.split(".", 1)[0]
            if parent[4] is None:
                parent[4] = {}
            parent[4][layer] = parent[4].get(layer, 0.0) + duration

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name)
        return self.stats[name]

    def wrap_call(self, name: str, fn: Callable) -> Callable:
        st = self._stat(name)
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            frame = self._enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                for key, n in counter(result).items():
                    st.bump(key, n)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each next() is one span; yields are counted per degree (first arg)."""
        st = self._stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            d = args[0] if args else kwargs.get("d")
            st.bump(f"calls_d:{d}")
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    frame = self._enter(st)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    st.bump(f"yields_d:{d}")
                    yield item

            return spans()

        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        originals: dict[int, object] = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"flatkit.{module_name}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                qual = f"{module_name}.{fname}"
                target = getattr(fn, "__wrapped__", fn)
                if inspect.isgeneratorfunction(target):
                    wrappers[id(fn)] = self.wrap_generator(qual, fn)
                else:
                    wrappers[id(fn)] = self.wrap_call(qual, fn)
                originals[id(fn)] = fn
        for outer_names in NESTED.values():
            for outer in outer_names:
                self._stat(outer)
        for module_name in MODULES:
            module = importlib.import_module(f"flatkit.{module_name}")
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def to_dict(self) -> dict:
        return {
            "stats": {name: st.to_dict() for name, st in self.stats.items()},
            "violations": self.violations[:20],
            "violation_count": len(self.violations),
            "missing": self.missing,
        }


def merge(traces: list[dict]) -> dict:
    """Sum several traces (one per CLI process) into one."""
    out: dict = {"stats": {}, "violations": [], "violation_count": 0, "missing": []}
    for trace in traces:
        out["violations"].extend(trace["violations"])
        out["violation_count"] += trace["violation_count"]
        out["missing"] = sorted(set(out["missing"]) | set(trace["missing"]))
        for name, st in trace["stats"].items():
            agg = out["stats"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_s": {}, "counts": {}}
            )
            agg["calls"] += st["calls"]
            agg["total_s"] += st["total_s"]
            agg["self_s"] += st["self_s"]
            for key, value in st["child_s"].items():
                agg["child_s"][key] = agg["child_s"].get(key, 0.0) + value
            for key, value in st["counts"].items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
    out["violations"] = out["violations"][:20]
    return out


def exact_counts(trace: dict) -> dict:
    """Every count a traced run must repeat exactly."""
    out = {}
    for name, st in trace["stats"].items():
        out[f"{name}.calls"] = st["calls"]
        for key, value in st["counts"].items():
            out[f"{name}.{key}"] = value
    return out
