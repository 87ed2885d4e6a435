"""A re-runnable mutation table: each mutant must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python3 tools/mutants.py

For each mutant the runner copies src/ and tests/ to a temporary directory,
applies the mutant's edits there (each old text must occur exactly once in its
file), runs only the mutant's tests with `pytest -x -q -p no:cacheprovider`
and the copy's src/ first on the path, and prints `killed` (a test failed) or
`survived` (all passed) with the seconds taken.  Any other pytest exit, such as
a test id that does not collect, prints `error`.  The exit status is 0 only
when every mutant is killed.  A mutant that survives stays in the table: it
marks a hole in the tests, not in the table.  tests/test_mutants.py checks the
table without running any mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (old text, new text), applied in order
    tests: tuple[str, ...]  # pytest node ids "tests/<file>::<test function>", no parameters


MUTANTS = (
    # The orbit filter drops a row whose conjugate only ties with it.
    Mutant(
        "orbit-filter-ties",
        "src/flatkit/census.py",
        (("keep[tied[theirs < mine]] = False", "keep[tied[theirs <= mine]] = False"),),
        ("tests/test_origami.py::test_least_conjugates_matches_the_orbit_reference",),
    ),
    # A row that succeeds from several starts in one round is counted once.
    Mutant(
        "propagation-fancy-add",
        "src/flatkit/census.py",
        (
            (
                "np.add.at(counts, alive[still & ~clash & (state.min(axis=0) >= 0)], 1)",
                "counts[alive[still & ~clash & (state.min(axis=0) >= 0)]] += 1",
            ),
        ),
        ("tests/test_origami.py::test_propagations_match_the_per_start_reference",),
    ),
    # The propagation drops its last start.
    Mutant(
        "propagation-last-start",
        "src/flatkit/census.py",
        (
            (
                "alive = np.tile(rows, len(starts))",
                "alive = np.tile(rows, len(starts))[: -len(rows)]",
            ),
            (
                "state[0] = np.repeat(np.array(starts, dtype=np.int8), len(rows))",
                "state[0] = np.repeat(np.array(starts, dtype=np.int8), len(rows))[: -len(rows)]",
            ),
        ),
        ("tests/test_origami.py::test_propagations_match_the_per_start_reference",),
    ),
    # The orbit filter relabels a single fixed point, which changes no output.
    Mutant(
        "relabel-one-fixed-point",
        "src/flatkit/census.py",
        (("relabel = n > 0 and d - n > 1", "relabel = n > 0 and d - n > 0"),),
        ("tests/test_origami.py::test_one_fixed_point_builds_no_relabeling",),
    ),
    # The involution sends the bottom-left corner of s to the bottom-right corner
    # of sigma(s), not to its top-right corner.
    Mutant(
        "involution-opposite-corner",
        "src/flatkit/spin.py",
        (("vertex[h[v[sigma[c[0]]]]]", "vertex[h[sigma[c[0]]]]"),),
        ("tests/test_spin.py::test_involution_values",),
    ),
    # The zero-swap test is inverted.
    Mutant(
        "zero-swap-inverted",
        "src/flatkit/spin.py",
        (
            (
                "if o._vertex[o.h[o.v[witness[zero[0]]]]] == k:",
                "if o._vertex[o.h[o.v[witness[zero[0]]]]] != k:",
            ),
        ),
        ("tests/test_spin.py::test_hyperelliptic_components_have_the_kontsevich_zorich_parity",),
    ),
    # The sweep direction (1, max |y|) is parallel to an edge (1, max |y|).
    Mutant(
        "sweep-direction-on-an-edge",
        "src/flatkit/flatcore.py",
        (("return (1, 1 + max(", "return (1, max("),),
        ("tests/test_flatcore.py::test_2ngon_family",),
    ),
    # act_T shears the other way, so the T and T^-1 edges of an orbit swap.
    Mutant(
        "shear-the-other-way",
        "src/flatkit/origami.py",
        (
            (
                "tuple(hinv[o.v[s]] for s in range(o.d))",
                "tuple(o.h[o.v[s]] for s in range(o.d))",
            ),
        ),
        ("tests/test_origami.py::test_orbits_satisfy_the_modular_relations",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant's edits into the copy of the tree at root."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        if text.count(old) != 1:
            found = text.count(old)
            raise ValueError(f"{mutant.id}: {old!r} occurs {found} times in {mutant.file}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def run(mutant: Mutant) -> tuple[str, float]:
    """The verdict on one mutant, and the seconds its tests took."""
    with tempfile.TemporaryDirectory(prefix="flatkit-mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        done = subprocess.run(
            command + list(mutant.tests), cwd=root, env=env, capture_output=True, text=True
        )
        seconds = time.perf_counter() - start
    error = f"error (pytest exit {done.returncode})"
    return {0: "survived", 1: "killed"}.get(done.returncode, error), seconds


def main() -> int:
    start = time.perf_counter()
    failures = 0
    for mutant in MUTANTS:
        verdict, seconds = run(mutant)
        failures += verdict != "killed"
        print(f"{mutant.id:28} {verdict:10} {seconds:6.1f} s", flush=True)
    seconds = time.perf_counter() - start
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} killed in {seconds:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
