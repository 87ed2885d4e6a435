"""The four benchmark workloads: seeded inputs, timed items, output checks.

Each workload has `setup(seed, tmp)`, which loads fixtures and draws its
inputs from the seed, and `run(out)`, which does the timed work and checks
every answer against frozen or independently derived values.  The worker
times set-up (interpreter start, the flatkit import below, `setup`) and
`run` separately; see worker.py.

An item is the unit that item latency is reported on: a class on
h4_classify, a pair on h31_scan, a surface on polygon_gl2 and a command on
cli_fixtures.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
BENCH = Path(__file__).resolve().parent

from flatkit import flatcore, gl2, origami, spin, strata  # noqa: E402  (set-up time includes this import)
from layers import partition_count  # noqa: E402


class Outcome:
    """Items of one sample plus the checks that failed.

    groups holds (milliseconds per item, item count) pairs; a group of more
    than one item is only used where single items cannot be timed without
    tracing (h31_scan, whose items are the pairs inside one call).

    marks holds monotonic-clock times: the start of the timed region, then
    the start and end of each item, then the end.  Their differences are the
    segments (items and the gaps between them), which run.py scales by the
    host speed measured at that time and compares over samples.
    """

    def __init__(self) -> None:
        self.groups: list[tuple[float, int]] = []
        self.marks = [time.monotonic()]
        self.killed: list[int] = []  # items that hit a time limit
        self.attempted = 0
        self.failed = 0
        self.known: list[str] = []  # known-defect items that failed
        self.problems: list[str] = []  # every other failed check
        self.extra: dict = {}

    def item(
        self, ms: float, ok: bool, label: str, known: str | None = None, count: int = 1,
        killed: bool = False,
    ) -> None:
        """Record an item that ended just now and took ms per item."""
        now = time.monotonic()
        self.marks += [now - ms * count / 1e3, now]
        if killed:
            self.killed.append(len(self.groups))
        self.groups.append((ms, count))
        self.attempted += count
        if not ok:
            self.failed += count
            if known is not None:
                self.known.append(known)
            else:
                self.problems.append(label)

    def finish(self) -> None:
        self.marks.append(time.monotonic())

    def check(self, ok: bool, label: str, missing: int = 0) -> None:
        """An answer that is not one item, such as a class count."""
        if not ok:
            self.problems.append(label)
            self.attempted += missing
            self.failed += missing


def _elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _corner_orders(h: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Zero orders from the cycles of h v h^-1 v^-1, independent of flatkit."""
    d = len(h)
    hinv, vinv = [0] * d, [0] * d
    for s in range(d):
        hinv[h[s]] = s
        vinv[v[s]] = s
    comm = [h[v[hinv[vinv[s]]]] for s in range(d)]
    seen = [False] * d
    orders = []
    for s in range(d):
        length = 0
        while not seen[s]:
            seen[s] = True
            s = comm[s]
            length += 1
        if length > 1:
            orders.append(length - 1)
    return tuple(sorted(orders, reverse=True))


def _invariants(orders: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """(genus, orders, period rank); rank is 2g + n - 1 with n marked points."""
    g = sum(orders) // 2 + 1
    return g, orders, 2 * g + max(len(orders), 1) - 1


# --- h4_classify --------------------------------------------------------------

H4_CLASSES = {5: 40, 6: 225, 7: 775}
# Classes with a flat involution; relabeling cannot change these counts.
H4_HYPERELLIPTIC = {5: 18, 6: 70, 7: 255}
H4_COMBOS = {(0, True), (1, False)}
H4_LABELS = {"hyperelliptic", "odd_spin"}


class H4Classify:
    def setup(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        self.relabelings = {
            d: [rng.sample(range(d), d) for _ in range(n)] for d, n in H4_CLASSES.items()
        }

    def run(self, out: Outcome) -> None:
        labels = {str(c) for c in strata.components((4,))}
        out.check(labels == H4_LABELS, f"components of H(4) are {sorted(labels)}")
        combos = set()
        for d, expected in H4_CLASSES.items():
            classes = list(origami.origamis_in_stratum(d, (4,)))
            out.check(
                len(classes) == expected,
                f"H(4) d={d}: {len(classes)} classes, expected {expected}",
                missing=max(expected - len(classes), 0),
            )
            hyperelliptic = 0
            for o, sigma in zip(classes, self.relabelings[d]):
                r = origami.relabel(o, sigma)
                t0 = time.perf_counter()
                try:
                    parity = spin.spin_parity(r)
                    has_inv = spin.hyperelliptic_involution(r) is not None
                    label = str(spin.classify_component(r))
                except Exception as exc:  # a crash is a failed item, not a crashed benchmark
                    out.item(_elapsed_ms(t0), False, f"H(4) d={d} {r}: {exc!r}")
                    continue
                ms = _elapsed_ms(t0)
                combos.add((parity, has_inv))
                hyperelliptic += has_inv
                ok = (
                    (parity, has_inv) in H4_COMBOS
                    and label in labels
                    and (label == "hyperelliptic") == has_inv
                )
                out.item(ms, ok, f"H(4) d={d} {r}: parity {parity}, involution {has_inv}, {label}")
            out.check(
                hyperelliptic == H4_HYPERELLIPTIC[d],
                f"H(4) d={d}: {hyperelliptic} hyperelliptic classes, expected {H4_HYPERELLIPTIC[d]}",
            )
        out.check(combos == H4_COMBOS, f"(parity, involution) pairs {sorted(combos)}")


# --- h31_scan -----------------------------------------------------------------

H31_SCANS = {8: (4032, 0), 9: (647560, 0)}


class H31Scan:
    """Exhaustive, so the seed is not used."""

    def setup(self, seed: int, tmp: Path) -> None:
        pass

    def run(self, out: Outcome) -> None:
        for d, expected in H31_SCANS.items():
            t0 = time.perf_counter()
            result = tuple(spin.hyperelliptic_scan(d, (3, 1)))
            ms = _elapsed_ms(t0)
            # One call per degree: each pair is given the mean time of its call.
            out.item(
                ms / expected[0],
                result == expected,
                f"H(3,1) d={d}: scan gave {result}, expected {expected}",
                count=expected[0],
            )


# --- polygon_gl2 --------------------------------------------------------------

POLYGON_FIXTURES = {"octagon.json": (2,), "decagon.json": (1, 1), "torus.json": ()}
NGON_RANGE = range(3, 13)
POLYGON_REPEATS = 4  # each of the 13 polygon sources, with fresh matrices
ORIGAMI_DEGREES = range(6, 17)
ORIGAMI_REPEATS = 5  # random origamis per degree


def _ngon_orders(n: int) -> tuple[int, ...]:
    """Zero orders of the convex 2n-gon with opposite sides glued."""
    if n % 2 == 0:
        return (n - 2,)
    return ((n - 3) // 2,) * 2 if n > 3 else ()


def _ngon_points(n: int) -> list[tuple[int, int]]:
    """Edge vectors (1, 2k - n - 1), k = 1..n, then the same negated: convex."""
    vectors = [(1, 2 * k - n - 1) for k in range(1, n + 1)]
    vectors += [(-x, -y) for x, y in vectors]
    points, x, y = [], 0, 0
    for vx, vy in vectors:
        points.append((x, y))
        x, y = x + vx, y + vy
    return points


MATRIX_DENOMINATOR = 7


def random_matrix(rng: random.Random):
    """[[a, b], [c, d]] / 7 with nonzero |a|, |b|, |c|, |d| <= 9 and det > 0.

    One shared denominator and no zero entries keep every matrix about
    equally costly for Fraction arithmetic, so the seed changes the inputs
    but hardly the amount of work."""
    while True:
        a, b, c, d = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(4))
        if a * d - b * c > 0:
            return gl2.Mat2(*(Fraction(x, MATRIX_DENOMINATOR) for x in (a, b, c, d)))


class PolygonGL2:
    """The mix is fixed (every source the same number of times, every degree
    the same number of origamis) and the seed draws matrices, origamis and
    order: an unbalanced draw would move wall time from seed to seed."""

    def setup(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        sources = [
            (name, flatcore.load_surface(str(DATA / name)), orders)
            for name, orders in POLYGON_FIXTURES.items()
        ]
        for n in NGON_RANGE:
            surf = flatcore.surface([_ngon_points(n)], {(0, i): (0, i + n) for i in range(n)})
            sources.append((f"{2 * n}-gon", surf, _ngon_orders(n)))
        self.cases = []
        for _ in range(POLYGON_REPEATS):
            for name, surf, orders in sources:
                self.cases.append((name, surf, None, _invariants(orders), random_matrix(rng)))
        for d in ORIGAMI_DEGREES:
            for _ in range(ORIGAMI_REPEATS):
                o = origami.random_origami(d, rng)
                expected = _invariants(_corner_orders(o.h, o.v))
                self.cases.append((f"origami d={d}", None, o, expected, random_matrix(rng)))
        rng.shuffle(self.cases)

    def run(self, out: Outcome) -> None:
        for name, surf, o, (g, orders, rank), m in self.cases:
            t0 = time.perf_counter()
            try:
                source = surf if o is None else origami.to_polygons(o)
                image = gl2.apply(source, m)
                report = flatcore.validate(image)
                points = flatcore.singularities(image)
                signature = flatcore.stratum(image)
                image_rank = flatcore.periods(image).rank
            except Exception as exc:
                out.item(_elapsed_ms(t0), False, f"{name} under {m}: {exc!r}")
                continue
            ms = _elapsed_ms(t0)
            ok = (
                report.ok
                and (signature.genus, signature.orders) == (g, orders)
                and sum(cp.zero_order for cp in points) == 2 * g - 2
                and image_rank == rank
            )
            out.item(ms, ok, f"{name} under {m}: {signature} rank {image_rank}")


# --- cli_fixtures -------------------------------------------------------------

COMMAND_LIMIT_S = 3.0
SEEDED_BASE = ("(1,2,3,4,5,6,7,8,9)", "(1,4)(2,7)")  # d = 9 in H(2,1,1)
ORBITS = {  # orbit size and sorted cusp widths, or the number of cusps
    "l3.origami": (3, [1, 2]),
    "l5.origami": (18, [1, 2, 4, 5, 6]),
    "seeded.origami": (3144, 428),
}
ANALYZE = {
    "octagon.json": dict(
        kind="surface", genus=2, stratum_orders=[2], cone_angle_turns=[3], period_rank=4
    ),
    "decagon.json": dict(kind="surface", genus=2, stratum_orders=[1, 1], period_rank=5),
    "torus.json": dict(kind="surface", genus=1, stratum_orders=[], period_rank=2),
    "l3.origami": dict(
        kind="origami", degree=3, genus=2, stratum_orders=[2], spin_parity=1, component="connected"
    ),
    "l5.origami": dict(
        kind="origami", degree=5, genus=2, stratum_orders=[2], spin_parity=1,
        component="connected", period_rank=4,
    ),
    "seeded.origami": dict(
        kind="origami", degree=9, genus=3, stratum_orders=[2, 1, 1], component="connected",
        period_rank=8,
    ),
}
FIXTURES = tuple(name for name in ANALYZE if name != "seeded.origami")
STRATA_GENERA = (2, 3, 4, 5)
DIVISOR_GENERA = (2, 3, 4)
# Inputs that must end in exit 1 with an error: or invalid: line.  These
# fail at the time of writing (ROADMAP, "Recent"); they stay in the workload
# and count in `failed`, and only a failure of any other item is a problem.
KNOWN_DEFECTS = {
    "polygons_not_list": "TypeError traceback",
    "pairing_not_pair": "TypeError traceback",
    "index_0.9": "truncated to 0, exit 0",
    "edge_true": "accepted as edge 1, exit 0",
    "strata_genus_40": "no budget, still running at the limit",
}


def _point(raw) -> tuple[Fraction, Fraction]:
    return Fraction(raw[0]), Fraction(raw[1])


# Each check takes (stdout, stderr) of a command that exited 0 and returns
# None when the output is right, otherwise what is wrong.


def _check_analyze(expected: dict):
    def check(out, err):
        got = json.loads(out)
        wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return f"wrong fields {wrong}" if wrong else None
    return check


def _check_orbit(size: int, cusps):
    def check(out, err):
        got = json.loads(out)
        widths = sorted(got["cusp_widths"])
        ok = got["orbit_size"] == size == sum(widths) == len(got["elements"])
        ok = ok and (widths == cusps if isinstance(cusps, list) else len(widths) == cusps)
        return None if ok else f"orbit of {got['orbit_size']} with {len(widths)} cusps"
    return check


def _check_spin(out, err):
    return None if json.loads(out)["spin_parity"] == 1 else f"parity in {out!r}"


def _check_act(path: Path, m) -> Callable:
    def image(x, y):
        return m.a * x + m.b * y, m.c * x + m.d * y

    if path.suffix == ".json":
        source = json.loads(path.read_text())["polygons"]
        expected = [[image(*_point(p)) for p in poly] for poly in source]
    else:  # unit squares: every image square has the edge vectors of M applied to it
        unit = [image(1, 0), image(0, 1), image(-1, 0), image(0, -1)]
        expected = origami.load_origami(str(path)).d

    def check(out, err):
        got = [[_point(p) for p in poly] for poly in json.loads(out)["polygons"]]
        if isinstance(expected, list):
            ok = got == expected
        else:
            ok = len(got) == expected and all(
                [(q[0] - p[0], q[1] - p[1]) for p, q in zip(poly, poly[1:] + poly[:1])] == unit
                for poly in got
            )
        return None if ok else "image differs from the exact matrix image"
    return check


def _check_strata(g: int):
    def check(out, err):
        rows = json.loads(out)["strata"]
        ok = len(rows) == partition_count(2 * g - 2) and all(
            r["dimension"] == 2 * g + len(r["orders"]) - 1 and sum(r["orders"]) == 2 * g - 2
            for r in rows
        )
        return None if ok else f"{len(rows)} strata"
    return check


def _check_divisor(g: int, root: int):
    def check(out, err):
        got = json.loads(out)
        ok = (
            got["genus"] == g
            and got["total_order"] == 2 * g - 2
            and got["holomorphic"] is True
            and got["entries"] == [[f"W({root})", 2 * g - 2]]
        )
        return None if ok else str(got)
    return check


def _check_render(svg: Path, polygons: int):
    def check(out, err):
        text = svg.read_text() if svg.exists() else ""
        ok = out.strip() == f"wrote {svg}" and text.startswith("<svg")
        ok = ok and text.count("<polygon ") == polygons
        return None if ok else f"svg of {len(text)} bytes"
    return check


def _error_verdict(code: int, err: str) -> str | None:
    clean = (
        code == 1
        and "Traceback" not in err
        and any(line.startswith(("error:", "invalid:")) for line in err.splitlines())
    )
    return None if clean else f"exit {code}, stderr {err.strip()[-120:]!r}"


class CliFixtures:
    """Every subcommand on every fixture it accepts, then the error paths.

    Each command is a fresh `python -m flatkit.cli` process, run one at a
    time; start-up is part of what a user waits for.
    """

    traced = False  # run each command under bench/clitrace.py instead

    def setup(self, seed: int, tmp: Path) -> None:
        self.tmp = tmp
        self.traces: list[dict] = []
        rng = random.Random(seed)
        paths = {name: DATA / name for name in FIXTURES}

        o = origami.make(9, *SEEDED_BASE)
        for _ in range(rng.randint(5, 40)):
            o = rng.choice((origami.act_S, origami.act_T, origami.act_T_inverse))(o)
        paths["seeded.origami"] = tmp / "seeded.origami"
        origami.dump_origami(origami.relabel(o, rng.sample(range(9), 9)), str(paths["seeded.origami"]))

        # (label, argv, check of a successful run, or None for an error-path input)
        self.commands: list[tuple[str, list[str], Callable | None]] = []
        add = self.commands.append
        for name, path in paths.items():
            add((f"analyze {name}", ["analyze", str(path), "--json"], _check_analyze(ANALYZE[name])))
        for name in ORBITS:
            add((f"orbit {name}", ["orbit", str(paths[name]), "--json"], _check_orbit(*ORBITS[name])))
        for name in ("l3.origami", "l5.origami"):
            add((f"spin {name}", ["spin", str(paths[name]), "--json"], _check_spin))
        for name in FIXTURES:
            m = random_matrix(rng)
            token = ",".join(str(x) for x in (m.a, m.b, m.c, m.d))
            add((f"act {name}", ["act", str(paths[name]), f"--matrix={token}"], _check_act(paths[name], m)))
        for g in STRATA_GENERA:
            add((f"strata {g}", ["strata", "--genus", str(g), "--json"], _check_strata(g)))
        for g in DIVISOR_GENERA:
            points = sorted(rng.sample(range(-30, 31), 2 * g + 2))
            root = rng.choice(points)
            form = f"(z{'-' if root >= 0 else '+'}{abs(root)})^{g - 1}"
            argv = ["divisor", "--genus", str(g), f"--branch={','.join(map(str, points))}", "--form", form, "--json"]
            add((f"divisor {g}", argv, _check_divisor(g, root)))
        for name in FIXTURES:
            svg = tmp / f"{name.split('.')[0]}.svg"
            polygons = (
                len(json.loads(paths[name].read_text())["polygons"])
                if name.endswith(".json")
                else origami.load_origami(str(paths[name])).d
            )
            add((f"render {name}", ["render", str(paths[name]), "-o", str(svg)], _check_render(svg, polygons)))

        base = json.loads((DATA / rng.choice(("octagon.json", "decagon.json"))).read_text())
        pairs = base["pairings"]
        k = rng.randrange(len(pairs))
        bad = {
            "polygons_not_list": {"polygons": rng.randint(1, 9), "pairings": pairs},
            "pairing_not_pair": {**base, "pairings": pairs[:k] + [rng.randint(0, 9)] + pairs[k + 1 :]},
            "index_0.9": {**base, "pairings": pairs[:k] + [[[0.9, pairs[k][0][1]], pairs[k][1]]] + pairs[k + 1 :]},
            "edge_true": {**base, "pairings": [pairs[0], [[0, True], pairs[1][1]]] + pairs[2:]},
        }
        for label, payload in bad.items():
            path = tmp / f"{label}.json"
            path.write_text(json.dumps(payload))
            add((label, ["analyze", str(path)], None))
        entries = ["1", "2", "3", "4"]
        entries[rng.randrange(4)] = rng.choice(("x", "1/0", "", "2//3"))
        add(("bad_matrix", ["act", str(paths["octagon.json"]), f"--matrix={','.join(entries)}"], None))
        add(("strata_genus_40", ["strata", "--genus", "40"], None))

    def _command(self, argv: list[str], index: int):
        """Run one command in a fresh interpreter.

        Returns (ms, exit code, stdout, stderr, peak RSS in MiB); the code is
        None when the command was killed at COMMAND_LIMIT_S.  os.wait4 gives
        the peak RSS of this one process, which RUSAGE_CHILDREN cannot.
        """
        trace_file = self.tmp / f"trace-{index}.json"
        if self.traced:
            cmd = [sys.executable, str(BENCH / "clitrace.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "flatkit.cli", *argv]
        out_path, err_path = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ms = _elapsed_ms(t0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        if self.traced and trace_file.exists():
            self.traces.append(json.loads(trace_file.read_text()))
            trace_file.unlink()
        return (
            ms,
            None if killed else proc.returncode,
            out_path.read_text(),
            err_path.read_text(),
            usage.ru_maxrss / 1024.0,
        )

    def run(self, out: Outcome) -> None:
        process_ms: dict[str, list[float]] = {}
        clean = errors = 0
        peak_rss = 0.0
        for index, (label, argv, check) in enumerate(self.commands):
            ms, code, stdout, stderr, rss = self._command(argv, index)
            if code is None:
                problem = f"killed at the {COMMAND_LIMIT_S} s limit"
            elif check is None:
                problem = _error_verdict(code, stderr)
            elif code != 0:
                problem = f"exit {code}, stderr {stderr.strip()[-120:]!r}"
            else:
                try:
                    problem = check(stdout, stderr)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
            known = label if label in KNOWN_DEFECTS else None
            out.item(ms, problem is None, f"{label}: {problem}", known=known, killed=code is None)
            if check is None:
                errors += 1
                clean += problem is None
            else:
                process_ms.setdefault(argv[0], []).append(ms)
                peak_rss = max(peak_rss, rss)
        out.extra.update(
            process_ms=process_ms, error_clean=clean, error_total=errors, peak_rss_mb=peak_rss
        )


WORKLOADS = {
    "h4_classify": H4Classify,
    "h31_scan": H31Scan,
    "polygon_gl2": PolygonGL2,
    "cli_fixtures": CliFixtures,
}
