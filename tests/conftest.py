"""Shared fixtures: reference surfaces, reference origamis, seeded RNG.

The RNG seed comes from FLATSURF_SEED (default 0) so failures reproduce by
exporting the same value.
"""

import os
import pathlib
import random

import pytest

from flatkit import flatcore, origami, strata

DATA = pathlib.Path(__file__).parent / "data"

SEED = int(os.environ.get("FLATSURF_SEED", "0"))


def make_rng(salt: int = 0) -> random.Random:
    return random.Random(SEED * 1000003 + salt)


def signatures(d):
    """Every stratum with origamis of degree d (the torus first)."""
    return [()] + [
        orders
        for g in range(2, d // 2 + 2)
        for orders in strata.partitions(g)
        if sum(m + 1 for m in orders) <= d
    ]


@pytest.fixture
def rng() -> random.Random:
    return make_rng()


@pytest.fixture
def validation_calls(monkeypatch) -> list:
    """The surfaces that run flatcore's private validation body, in call order."""
    calls = []
    body = flatcore._validate

    def counted(surf):
        calls.append(surf)
        return body(surf)

    monkeypatch.setattr(flatcore, "_validate", counted)
    return calls


# --- polygon fixtures -------------------------------------------------------


@pytest.fixture(scope="session")
def octagon() -> flatcore.TranslationSurface:
    return flatcore.load_surface(str(DATA / "octagon.json"))


@pytest.fixture(scope="session")
def decagon() -> flatcore.TranslationSurface:
    return flatcore.load_surface(str(DATA / "decagon.json"))


@pytest.fixture(scope="session")
def torus_surface() -> flatcore.TranslationSurface:
    return flatcore.load_surface(str(DATA / "torus.json"))


def build_merged_octagon() -> flatcore.TranslationSurface:
    # the decagon fixture with one vertex dropped, collapsing its two cone
    # points into a single one of twice the excess angle
    points = [(0, 0), (4, -4), (7, -2), (7, 1), (9, 4), (5, 8), (2, 6), (2, 3)]
    pairing = {(0, i): (0, i + 4) for i in range(4)}
    return flatcore.surface([points], pairing)


@pytest.fixture(scope="session")
def merged_octagon() -> flatcore.TranslationSurface:
    return build_merged_octagon()


def build_step_octagon() -> flatcore.TranslationSurface:
    # L-shaped staircase: three unit squares glued into one polygon
    points = [(0, 0), (1, 0), (4, 0), (4, 1), (1, 1), (1, 2), (0, 2), (0, 1)]
    pairing = {(0, 0): (0, 5), (0, 1): (0, 3), (0, 2): (0, 7), (0, 4): (0, 6)}
    return flatcore.surface([points], pairing)


@pytest.fixture(scope="session")
def step_octagon() -> flatcore.TranslationSurface:
    return build_step_octagon()


def build_2ngon(n: int) -> flatcore.TranslationSurface:
    """Convex 2n-gon with opposite sides identified.

    Edge vectors u_k = (1, 2k - n - 1) for k = 1..n have strictly increasing
    slope, then repeat negated, so the polygon is convex and counterclockwise.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    vectors = [(1, 2 * k - n - 1) for k in range(1, n + 1)]
    vectors += [(-x, -y) for x, y in vectors]
    points = []
    x = y = 0
    for vx, vy in vectors:
        points.append((x, y))
        x += vx
        y += vy
    assert (x, y) == (0, 0)
    pairing = {(0, i): (0, i + n) for i in range(n)}
    return flatcore.surface([points], pairing)


def build_bad_square() -> flatcore.TranslationSurface:
    # unit square gluing adjacent sides: paired vectors are not opposite
    points = [(0, 0), (1, 0), (1, 1), (0, 1)]
    pairing = {(0, 0): (0, 3), (0, 1): (0, 2)}
    return flatcore.surface([points], pairing)


# --- origami fixtures -------------------------------------------------------


@pytest.fixture(scope="session")
def l5() -> origami.Origami:
    """Degree-5 L: a 4-square row with a fifth square on top of the first."""
    return origami.load_origami(str(DATA / "l5.origami"))


@pytest.fixture(scope="session")
def l3() -> origami.Origami:
    """Degree-3 L: two squares in a row, one on top of the first."""
    return origami.load_origami(str(DATA / "l3.origami"))


@pytest.fixture(scope="session")
def torus_origami() -> origami.Origami:
    return origami.make(1, "", "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One summary line per acceptance criterion so test logs read at a glance."""
    lines = []
    for state in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(state, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::", 1)[1]
                number = name.split("_")[2]
                verdict = "PASS" if state == "passed" else "FAIL"
                lines.append((number, f"ACCEPTANCE {number} {verdict}  {name}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
