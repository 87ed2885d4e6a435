"""Polygon model: validation, cone points, genus, strata, periods, JSON."""

import functools
import re
from fractions import Fraction

import pytest

from flatkit import flatcore, gl2, hyperell, origami, spin
from flatkit.flatcore import PlanarVec

import oracles
from conftest import DATA, build_2ngon, build_bad_square, build_step_octagon, make_rng


def test_planar_vec_exact_arithmetic():
    v = PlanarVec("1/3", 2)
    w = PlanarVec(Fraction(2, 3), -1)
    assert v + w == PlanarVec(1, 1)
    assert v - w == PlanarVec(Fraction(-1, 3), 3)
    assert -v == PlanarVec(Fraction(-1, 3), -2)
    assert v.cross(w) == Fraction(1, 3) * (-1) - 2 * Fraction(2, 3)
    assert PlanarVec(3, -4).is_integral
    assert not v.is_integral


def test_octagon_is_valid(octagon):
    report = flatcore.validate(octagon)
    assert report.ok
    assert report.violations == ()


def test_octagon_invariants(octagon):
    points = flatcore.singularities(octagon)
    assert len(points) == 1
    assert points[0].angle_turns == 3
    assert points[0].zero_order == 2
    assert len(points[0].corners) == 8
    assert flatcore.genus(octagon) == 2
    sig = flatcore.stratum(octagon)
    assert (sig.genus, sig.orders) == (2, (2,))
    assert str(sig) == "H(2)"


def test_octagon_periods(octagon):
    data = flatcore.periods(octagon)
    assert data.rank == 4
    assert len(data.pairs) == 4
    assert len(data.vectors) == 4
    # each period is the vector of the first edge of its pair
    for (e1, _), vec in zip(data.pairs, data.vectors):
        assert octagon.edge_vector(e1) == vec


def test_decagon_invariants(decagon):
    points = flatcore.singularities(decagon)
    assert sorted(cp.angle_turns for cp in points) == [2, 2]
    sig = flatcore.stratum(decagon)
    assert (sig.genus, sig.orders) == (2, (1, 1))
    assert str(sig) == "H(1,1)"
    assert flatcore.periods(decagon).rank == 5


def test_merged_octagon_collapses_to_single_cone_point(merged_octagon):
    # one vertex of the decagon removed: the two simple cone points merge
    sig = flatcore.stratum(merged_octagon)
    assert (sig.genus, sig.orders) == (2, (2,))
    assert flatcore.periods(merged_octagon).rank == 4


def test_torus_surface(torus_surface):
    assert flatcore.validate(torus_surface).ok
    points = flatcore.singularities(torus_surface)
    assert len(points) == 1
    assert points[0].angle_turns == 1
    assert points[0].zero_order == 0
    sig = flatcore.stratum(torus_surface)
    assert (sig.genus, sig.orders) == (1, ())
    assert str(sig) == "H()"
    # one marked regular point: rank 2g + 1 - 1 = 2
    assert flatcore.periods(torus_surface).rank == 2


def test_step_octagon_periods_exact():
    surf = build_step_octagon()
    assert flatcore.validate(surf).ok
    sig = flatcore.stratum(surf)
    assert (sig.genus, sig.orders) == (2, (2,))
    data = flatcore.periods(surf)
    assert data.rank == 4
    assert data.vectors == (
        PlanarVec(1, 0),
        PlanarVec(3, 0),
        PlanarVec(0, 1),
        PlanarVec(0, 1),
    )
    assert flatcore.is_integral(surf)


@pytest.mark.parametrize(
    "n,genus,orders",
    [
        (3, 1, ()),
        (4, 2, (2,)),
        (5, 2, (1, 1)),
        (6, 3, (4,)),
        (7, 3, (2, 2)),
        (8, 4, (6,)),
    ],
)
def test_2ngon_family(n, genus, orders):
    surf = build_2ngon(n)
    assert flatcore.validate(surf).ok
    sig = flatcore.stratum(surf)
    assert (sig.genus, sig.orders) == (genus, orders)
    # zero orders sum to 2g - 2 regardless of marked points
    assert sum(cp.zero_order for cp in flatcore.singularities(surf)) == 2 * genus - 2


def test_angle_consistency_across_fixtures(octagon, decagon, torus_surface):
    for surf in (octagon, decagon, torus_surface):
        points = flatcore.singularities(surf)
        total_corners = sum(len(cp.corners) for cp in points)
        assert total_corners == sum(p.n for p in surf.polygons)
        # total turning matches the polygon angle sum
        assert 2 * sum(cp.angle_turns for cp in points) == sum(
            p.n - 2 for p in surf.polygons
        )


def test_period_rank_formula(octagon, decagon, torus_surface):
    for surf in (octagon, decagon, torus_surface):
        g = flatcore.genus(surf)
        marked = max(1, len([cp for cp in flatcore.singularities(surf) if cp.zero_order > 0]))
        assert flatcore.periods(surf).rank == 2 * g + marked - 1


# --- validation failures ----------------------------------------------------


def test_clockwise_polygon_rejected():
    surf = flatcore.surface(
        [[(0, 0), (0, 1), (1, 1), (1, 0)]],
        {(0, 0): (0, 2), (0, 1): (0, 3)},
    )
    report = flatcore.validate(surf)
    assert not report.ok
    assert any("clockwise" in v for v in report.violations)


def test_adjacent_pairing_rejected():
    report = flatcore.validate(build_bad_square())
    assert not report.ok
    assert any("paired edge vectors not opposite" in v for v in report.violations)


def test_unpaired_edge_rejected():
    surf = flatcore.surface(
        [[(0, 0), (1, 0), (1, 1), (0, 1)]],
        {(0, 0): (0, 2)},
    )
    report = flatcore.validate(surf)
    assert any("is unpaired" in v for v in report.violations)


def test_self_paired_edge_rejected():
    surf = flatcore.TranslationSurface(
        (flatcore.polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),),
        {
            flatcore.EdgeRef(0, 0): flatcore.EdgeRef(0, 0),
            flatcore.EdgeRef(0, 1): flatcore.EdgeRef(0, 3),
            flatcore.EdgeRef(0, 3): flatcore.EdgeRef(0, 1),
            flatcore.EdgeRef(0, 2): flatcore.EdgeRef(0, 2),
        },
    )
    report = flatcore.validate(surf)
    assert any("paired with itself" in v for v in report.violations)


def test_disconnected_surface_rejected():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    surf = flatcore.surface(
        [square, [(5, 5), (6, 5), (6, 6), (5, 6)]],
        {(0, 0): (0, 2), (0, 1): (0, 3), (1, 0): (1, 2), (1, 1): (1, 3)},
    )
    report = flatcore.validate(surf)
    assert any("not connected" in v for v in report.violations)


def test_nonsimple_polygon_rejected():
    # bowtie: edges 0 and 2 cross
    surf = flatcore.surface(
        [[(0, 0), (2, 2), (2, 0), (0, 2)]],
        {(0, 0): (0, 2), (0, 1): (0, 3)},
    )
    report = flatcore.validate(surf)
    assert not report.ok
    assert any("intersect" in v or "overlap" in v for v in report.violations)


def test_degenerate_polygon_rejected():
    surf = flatcore.surface([[(0, 0), (1, 0), (2, 0)]], {})
    report = flatcore.validate(surf)
    assert any("degenerate" in v or "zero-length" in v for v in report.violations)


def test_operations_refuse_invalid_input():
    bad = build_bad_square()
    operations = (
        flatcore.singularities, flatcore.genus, flatcore.stratum, flatcore.periods,
        flatcore.is_integral,
    )
    for _ in range(2):  # the verdict is cached on the surface; it must hold on every call
        for operation in operations:
            with pytest.raises(ValueError, match="invalid surface"):
                operation(bad)


def test_pairing_is_read_only():
    surf = build_step_octagon()
    key = next(iter(surf.pairing))
    with pytest.raises(TypeError):
        surf.pairing[key] = key
    # Built from a caller's dict, a surface keeps its own copy.
    pairing = dict(surf.pairing)
    copy = flatcore.TranslationSurface(surf.polygons, pairing)
    pairing.clear()
    assert copy.pairing == surf.pairing


def test_validation_runs_once_per_surface(validation_calls):
    surf = build_step_octagon()
    for _ in range(3):
        assert flatcore.validate(surf).ok
        flatcore.singularities(surf)
        flatcore.stratum(surf)
        flatcore.periods(surf)
        flatcore.is_integral(surf)
    assert validation_calls == [surf]
    bad = build_bad_square()
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid surface"):
            flatcore.stratum(bad)
    assert validation_calls == [surf, bad]


def test_singularities_returns_a_fresh_list(octagon):
    points = flatcore.singularities(octagon)
    points.clear()
    assert len(flatcore.singularities(octagon)) == 1


# --- integer predicates against the Fraction reference ----------------------


def assert_matches_reference(surf, label):
    violations = flatcore.validate(surf).violations
    assert violations == oracles.reference_violations(surf), label
    if not violations:
        got = [(cp.corners, cp.angle_turns) for cp in flatcore.singularities(surf)]
        assert got == oracles.reference_cone_points(surf), label
    return violations


# Each shape's vertex list and pairing; every one but the squares breaks a check.
SHAPES = {
    "bowtie": ([(0, 0), (2, 2), (2, 0), (0, 2)], {(0, 0): (0, 2), (0, 1): (0, 3)}),
    "vertex on a non-adjacent edge": (
        [(0, 0), (6, 0), (6, 4), (4, 4), (3, 0), (2, 4), (0, 4)], {(0, 0): (0, 5)},
    ),
    "collinear overlap": (
        [(0, 0), (6, 0), (6, 2), (4, 2), (4, 0), (2, 0), (2, 2), (0, 2)],
        {(0, i): (0, i + 4) for i in range(4)},
    ),
    "fold-back": ([(0, 0), (4, 0), (2, 0), (2, 2)], {(0, 0): (0, 2), (0, 1): (0, 3)}),
    "fold-back across the first vertex": ([(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)], {}),
    "pinched": (
        [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], {(0, i): (0, i + 3) for i in range(3)},
    ),
    "zero-length edge": ([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)], {(0, 0): (0, 3)}),
    "clockwise": ([(0, 0), (0, 1), (1, 1), (1, 0)], {(0, 0): (0, 2), (0, 1): (0, 3)}),
    "zero area": ([(0, 0), (1, 0), (2, 0)], {}),
    "square": ([(0, 0), (1, 0), (1, 1), (0, 1)], {(0, 0): (0, 2), (0, 1): (0, 3)}),
    "square glued wrongly": ([(0, 0), (1, 0), (1, 1), (0, 1)], {(0, 0): (0, 3), (0, 1): (0, 2)}),
}

# Affine maps x -> Ax + t with det A > 0 keep every predicate, hence every violation.
F = Fraction
BIG = 10**30
AFFINE = (
    ((F(1, 3), F(5, 7), F(-2, 13), F(11, 13)), (F(1, 3), F(-5, 7))),
    ((F(BIG + 1, 3), F(5, 7), F(-11, 13), F(BIG - 1, 7)), (F(BIG, 11), F(5 - BIG, 7))),
)


def affine_image(points, matrix, shift):
    a, b, c, d = matrix
    return [(a * x + b * y + shift[0], c * x + d * y + shift[1]) for x, y in points]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_degenerate_shapes_match_fraction_reference(name):
    points, pairing = SHAPES[name]
    expected = assert_matches_reference(flatcore.surface([points], pairing), name)
    assert name.startswith("square") or any(v.startswith("polygon 0") for v in expected)
    for matrix, shift in AFFINE:
        image = flatcore.surface([affine_image(points, matrix, shift)], pairing)
        assert assert_matches_reference(image, name) == expected


def random_matrix(rng):
    """A GL(2,Q) matrix with det > 0 and mixed denominators."""
    while True:
        m = gl2.mat2(*(F(rng.randint(-9, 9), rng.choice((1, 3, 7, 13))) for _ in range(4)))
        if m.det > 0:
            return m


def test_gl2_images_match_fraction_reference():
    rng = make_rng(9)
    names = ("octagon.json", "decagon.json", "torus.json")
    sources = [flatcore.load_surface(str(DATA / name)) for name in names]
    sources += [build_2ngon(n) for n in range(3, 13)] + [build_step_octagon()]
    sources += [origami.to_polygons(origami.random_origami(d, rng)) for d in range(2, 13)]
    for k, source in enumerate(sources):
        assert_matches_reference(source, k)
        for _ in range(2):
            assert_matches_reference(gl2.apply(source, random_matrix(rng)), k)


def test_is_integral_matches_the_edge_vector_rule():
    rng = make_rng(22)
    names = ("octagon.json", "decagon.json", "torus.json")
    sources = [flatcore.load_surface(str(DATA / name)) for name in names]
    sources += [build_2ngon(n) for n in range(3, 13)] + [build_step_octagon()]
    shears = (gl2.mat2(1, 1, 0, 1), gl2.mat2(2, "1/2", 0, "1/2"), gl2.mat2("1/3", 0, 0, 3))
    surfaces = sources + [gl2.apply(s, m) for s in sources for m in shears]
    surfaces += [gl2.apply(s, random_matrix(rng)) for s in sources]
    seen = set()
    for surf in surfaces:
        expected = all(surf.edge_vector(e).is_integral for e in surf.edge_refs())
        assert flatcore.is_integral(surf) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_integer_view_has_one_scale_per_surface():
    # Scaled per polygon, (1/2, 0) and (-1/3, 0) would both become unit vectors.
    halves = [(0, 0), ("1/2", 0), (0, "1/2")]
    thirds = [("1/3", "1/3"), (0, "1/3"), (0, 0)]
    surf = flatcore.surface([halves, thirds], {(0, i): (1, i) for i in range(3)})
    violations = assert_matches_reference(surf, "halves and thirds")
    assert "paired edge vectors not opposite: (0, 0) and (1, 0)" in violations


# --- validation against its earlier integer-view body -----------------------


def polygon_soup(rng) -> flatcore.TranslationSurface:
    """Up to three polygons with coordinates in [-3, 3] over one denominator, each a
    random vertex list, a counterclockwise triangle or a rectangle, and a pairing that
    is either a random matching or one broken by an unknown edge, a self-pairing, an
    unpaired edge or a non-involution."""
    q = rng.choice((1, 1, 2, 3))

    def coord():
        return Fraction(rng.randint(-3 * q, 3 * q), q)

    polys, glued = [], {}
    for p in range(0 if rng.random() < 0.01 else rng.randint(1, 3)):
        shape = rng.random()
        if shape < 0.25:
            pts = [(coord(), coord()) for _ in range(3)]
            if oracles._orient(*(PlanarVec(*pt) for pt in pts)) < 0:
                pts.reverse()
        elif shape < 0.5:
            (x0, x1), (y0, y1) = sorted((coord(), coord())), sorted((coord(), coord()))
            pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            if rng.random() < 0.5:  # opposite sides glued: a torus of its own
                glued.update({(p, 0): (p, 2), (p, 2): (p, 0), (p, 1): (p, 3), (p, 3): (p, 1)})
        else:
            pts = [(coord(), coord()) for _ in range(rng.choice((1, 2, 3, 4, 4, 5, 6, 7)))]
            if len(pts) > 1 and rng.random() < 0.1:
                k = rng.randrange(len(pts))
                pts.insert(k, pts[k])
        polys.append(pts)
    edges = [(p, e) for p, pts in enumerate(polys) for e in range(len(pts)) if (p, e) not in glued]
    rng.shuffle(edges)
    pairing = dict(glued)
    for a, b in zip(edges[::2], edges[1::2]):
        pairing[a], pairing[b] = b, a
    keys = sorted(pairing)
    broken = rng.randrange(5)
    if broken == 0:
        p = rng.randrange(len(polys) + 1)
        bad = (p, len(polys[p]) if p < len(polys) else 0)
        pairing[bad if rng.random() < 0.5 else rng.choice(keys or [bad])] = bad
    elif keys and broken == 1:
        e = rng.choice(keys)
        pairing[e] = e
    elif keys and broken == 2:
        del pairing[rng.choice(keys)]
    elif len(keys) > 2 and broken == 3:
        a, c = rng.sample(keys, 2)
        pairing[a] = c
    return flatcore.TranslationSurface([flatcore.polygon(pts) for pts in polys], pairing)


@functools.cache
def validation_sets() -> tuple[list, list, list, list]:
    """Fixtures and 2n-gons, random square-tiled surfaces, their linear images and
    3000 polygon soups; built once, as surfaces are immutable."""
    rng = make_rng(25)
    names = ("octagon.json", "decagon.json", "torus.json")
    sources = [flatcore.load_surface(str(DATA / name)) for name in names]
    sources += [origami.to_polygons(origami.load_origami(str(DATA / f"{name}.origami")))
                for name in ("l3", "l5")]
    sources += [build_2ngon(n) for n in range(3, 13)]
    square_tiled = [origami.to_polygons(origami.random_origami(d, rng)) for d in range(1, 17)]
    images = [gl2.apply(s, random_matrix(rng)) for s in square_tiled for _ in range(2)]
    soups = [polygon_soup(rng) for _ in range(3000)]
    return sources, square_tiled, images, soups


def test_validation_equals_the_earlier_body():
    sources, square_tiled, images, soups = validation_sets()
    kinds = set()
    for k, surf in enumerate(sources + square_tiled + images + soups):
        violations = flatcore.validate(surf).violations
        assert violations == oracles.validation_reference(surf), k
        kinds.update(re.sub(r"-?\d+", "#", v) for v in violations)
    assert all(flatcore.validate(s).ok for s in sources + square_tiled + images)
    assert sum(not flatcore.validate(s).ok for s in soups) > 2500
    assert kinds == {
        "no polygons",
        "polygon #: fewer than # vertices",
        "polygon #: zero-length edge at vertex #",
        "polygon #: degenerate (zero signed area)",
        "polygon #: vertices are clockwise (negative signed area)",
        "polygon #: edges # and # overlap beyond their shared vertex",
        "polygon #: edges # and # intersect",
        "pairing refers to nonexistent edge (#, #)",
        "edge (#, #) is unpaired",
        "edge (#, #) is paired with itself",
        "pairing is not an involution at edge (#, #)",
        "paired edge vectors not opposite: (#, #) and (#, #)",
        "not connected: gluing graph has multiple components",
    }


# Consecutive edges overlap beyond their shared vertex exactly when their vectors
# are antiparallel: a spike, however long its return edge, and the pair (0, n - 1).
FOLD_BACKS = {
    "return shorter than the spike": (
        [(0, 0), (4, 0), (4, 2), (7, 2), (5, 2), (4, 4), (0, 4)],
        ("edges 2 and 3 overlap beyond their shared vertex", "edges 2 and 4 intersect"),
    ),
    "return as long as the spike": (
        [(0, 0), (4, 0), (4, 2), (7, 2), (4, 2), (4, 4), (0, 4)],
        (
            "edges 1 and 3 intersect",
            "edges 1 and 4 intersect",
            "edges 2 and 3 overlap beyond their shared vertex",
            "edges 2 and 4 intersect",
        ),
    ),
    "return longer than the spike": (
        [(0, 0), (4, 0), (4, 2), (7, 2), (3, 2), (4, 4), (0, 4)],
        ("edges 1 and 3 intersect", "edges 2 and 3 overlap beyond their shared vertex"),
    ),
    "spike from the first vertex": (
        [(0, 0), (4, 0), (2, 0), (2, 3)],
        ("edges 0 and 1 overlap beyond their shared vertex", "edges 0 and 2 intersect"),
    ),
    "wrap-around pair": (
        [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)],
        ("edges 0 and 3 intersect", "edges 0 and 4 overlap beyond their shared vertex"),
    ),
    "triangle folded at its second vertex": (
        [(0, 0), (4, 0), (2, 0)],
        (
            "degenerate (zero signed area)",
            "edges 0 and 1 overlap beyond their shared vertex",
            "edges 0 and 2 overlap beyond their shared vertex",
        ),
    ),
    "triangle folded at its first vertex": (
        [(0, 0), (4, 0), (6, 0)],
        (
            "degenerate (zero signed area)",
            "edges 0 and 2 overlap beyond their shared vertex",
            "edges 1 and 2 overlap beyond their shared vertex",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(FOLD_BACKS))
def test_fold_backs_overlap_beyond_the_shared_vertex(name):
    points, expected = FOLD_BACKS[name]
    surf = flatcore.surface([points], {})
    violations = flatcore.validate(surf).violations
    assert tuple(v for v in violations if v.startswith("polygon 0: ")) == tuple(
        "polygon 0: " + v for v in expected
    )
    assert violations == oracles.validation_reference(surf) == oracles.reference_violations(surf)


def straight_vertex_square() -> flatcore.TranslationSurface:
    # The unit edges of a 2 x 2 square split at their midpoints continue straight on.
    points = [(0, 0), (1, 0), (2, 0), (2, 2), (1, 2), (0, 2)]
    return flatcore.surface([points], {(0, 0): (0, 4), (0, 1): (0, 3), (0, 2): (0, 5)})


def test_a_straight_vertex_is_no_fold_back():
    surf = straight_vertex_square()
    assert flatcore.validate(surf).violations == ()
    assert flatcore.stratum(surf) == flatcore.StratumSignature(1, ())
    assert [cp.angle_turns for cp in flatcore.singularities(surf)] == [1, 1]


# Invalid shapes for the once-per-shape rule: the fold-backs above and four more.
INVALID_SHAPES = {name: points for name, (points, _) in FOLD_BACKS.items()}
INVALID_SHAPES.update({
    "bow-tie": [(0, 0), (2, 2), (2, 0), (0, 2)],
    "clockwise triangle": [(0, 0), (0, 2), (2, 0)],
    "zero-length edge": [(0, 0), (2, 0), (2, 0), (0, 2)],
    "2-gon": [(0, 0), (2, 0)],
})
BAD_REFS = [("0", 1), (0.0, 1), (0, 7), (-1, 0)]
SHAPES_BY_KIND = {
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "triangle": [(0, 0), (3, 0), (0, 3)],
}
LAYOUTS = [  # (kind, shift) per polygon; "bad" is the shape under test
    [("square", (0, 0)), ("bad", (10, 0)), ("bad", (-7, 5)), ("square", (4, 4)),
     ("square", (0, -9))],
    [("bad", (0, 0)), ("bad", (1, 1)), ("bad", (20, -3)), ("triangle", (5, 5)),
     ("triangle", (6, 5))],
    [("triangle", (0, 0)), ("bad", (3, 1)), ("square", (2, 2)), ("bad", (3, 1)),
     ("bad", (-4, 0)), ("triangle", (9, 9)), ("square", (0, 0))],
]


@pytest.fixture
def polygon_checks(monkeypatch) -> list:
    """The index of each polygon that runs flatcore's polygon tests, in call order."""
    checks = []
    body = flatcore._polygon_violations

    def counted(index, pts, edges):
        checks.append(index)
        return body(index, pts, edges)

    monkeypatch.setattr(flatcore, "_polygon_violations", counted)
    return checks


@pytest.mark.parametrize("name", sorted(INVALID_SHAPES))
def test_each_passing_shape_is_checked_once(name, polygon_checks):
    """Translates of a failing shape are each checked and report at their own
    index, in order; a passing shape is checked once per surface, at its first
    index, however often it recurs.  Broken refs leave the answers unchanged."""
    shapes = dict(SHAPES_BY_KIND, bad=INVALID_SHAPES[name])
    for layout in LAYOUTS:
        polys = [[(x + dx, y + dy) for x, y in shapes[kind]] for kind, (dx, dy) in layout]
        kinds = [kind for kind, _ in layout]
        expected = [i for i, kind in enumerate(kinds) if kind == "bad" or kinds.index(kind) == i]
        edges = [(p, e) for p, pts in enumerate(polys) for e in range(len(pts))]
        matching = list(zip(edges[::2], edges[1::2]))
        extras = [[]] + [[(ref, edges[0])] for ref in BAD_REFS]
        extras += [[(edges[1], ref)] for ref in BAD_REFS]
        for extra in extras:
            surf = flatcore.surface(polys, matching + extra)
            polygon_checks.clear()
            violations = flatcore.validate(surf).violations
            assert violations == oracles.validation_reference(surf), (layout, extra)
            assert polygon_checks == expected, (layout, extra)
            reported = {int(v.split()[1].rstrip(":")) for v in violations if v.startswith("polygon ")}
            assert reported == {i for i, kind in enumerate(kinds) if kind == "bad"}


def test_square_tilings_and_their_images_check_one_shape(polygon_checks):
    rng = make_rng(29)
    for d in range(1, 13):
        surf = origami.to_polygons(origami.random_origami(d, rng))
        image = gl2.apply(surf, random_matrix(rng))
        assert len(surf._scaled) == len(image._scaled) == d
        assert image._pairs is surf._pairs  # the pair list the source's validation built
        assert polygon_checks == [0, 0], d  # the source's first square, then the image's
        polygon_checks.clear()


# --- period rank against dense elimination ------------------------------------


def test_period_rank_equals_the_dense_elimination(torus_surface):
    rng = make_rng(26)
    surfaces = [s for group in validation_sets() for s in group if flatcore.validate(s).ok]
    surfaces += [straight_vertex_square(), torus_surface]  # no zeros: one cone point kept marked
    surfaces += [origami.to_polygons(origami.random_origami(d, rng)) for d in (50, 100, 200, 300)]
    for k, surf in enumerate(surfaces):
        assert flatcore.periods(surf).rank == oracles.period_rank_reference(surf), k


def test_period_vectors_are_built_on_first_read():
    rng = make_rng(28)
    sources = [origami.to_polygons(origami.random_origami(d, rng)) for d in range(1, 13)]
    sources += [build_2ngon(n) for n in range(3, 8)]
    for k, surf in enumerate(sources + [gl2.apply(s, random_matrix(rng)) for s in sources]):
        data = flatcore.periods(surf)
        assert data.rank == oracles.period_rank_reference(surf), k
        assert "vectors" not in vars(data), k
        assert data.vectors == tuple(surf.edge_vector(e) for e, _ in data.pairs), k
        assert data.vectors is data.vectors
        twin = flatcore.PeriodData(data.pairs, data.vectors, data.rank)
        assert data == twin and hash(data) == hash(twin) and repr(data) == repr(twin), k


def test_period_rank_is_checked_against_the_genus():
    surf = build_2ngon(4)  # H(2): genus 2, one zero, rank 4
    points, g = surf._swept
    surf.__dict__["_swept"] = (points, g + 1)
    with pytest.raises(RuntimeError, match=r"period rank 4 does not match 2g\+n-1 = 6"):
        flatcore.periods(surf)


def test_json_roundtrip(octagon):
    data = flatcore.surface_to_json(octagon)
    back = flatcore.surface_from_json(data)
    assert back.polygons == octagon.polygons
    assert back.pairing == octagon.pairing


def test_json_accepts_fraction_strings():
    surf = flatcore.surface_from_json(
        {
            "polygons": [[["1/2", 0], ["3/2", 0], ["3/2", 1], ["1/2", 1]]],
            "pairings": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        }
    )
    assert surf.polygons[0].vertex(0) == PlanarVec(Fraction(1, 2), 0)
    assert flatcore.validate(surf).ok


def test_json_rejects_bad_pairing():
    base = {
        "polygons": [[[0, 0], [1, 0], [1, 1], [0, 1]]],
        "pairings": [[[0, 0], [0, 2]], [[0, 1], [0, 3]], [[0, 3], [0, 1]]],
    }
    with pytest.raises(ValueError, match="paired twice"):
        flatcore.surface_from_json(base)
    # Pairings that a dict can hold are read as they are and judged by validate.
    self_paired = flatcore.surface_from_json(
        {
            "polygons": base["polygons"],
            "pairings": [[[0, 0], [0, 0]], [[0, 1], [0, 3]], [[0, 2], [0, 2]]],
        }
    )
    assert flatcore.validate(self_paired).violations == (
        "edge (0, 0) is paired with itself",
        "edge (0, 2) is paired with itself",
    )
    out_of_range = flatcore.surface_from_json(
        {"polygons": base["polygons"], "pairings": [[[0, 0], [0, 9]]]}
    )
    assert flatcore.validate(out_of_range).violations == (
        "pairing refers to nonexistent edge (0, 9)",
    )


def test_json_rejects_bad_coordinate():
    with pytest.raises(ValueError, match="coordinate"):
        flatcore.surface_from_json(
            {"polygons": [[[0, 0], ["x", 0], [1, 1]]], "pairings": []}
        )


def test_load_dump_roundtrip(tmp_path, decagon):
    path = tmp_path / "surf.json"
    flatcore.dump_surface(decagon, str(path))
    back = flatcore.load_surface(str(path))
    assert back.polygons == decagon.polygons
    assert back.pairing == decagon.pairing


def test_data_files_are_valid():
    for name in ("octagon.json", "decagon.json", "torus.json"):
        surf = flatcore.load_surface(str(DATA / name))
        assert flatcore.validate(surf).ok, name


# One sample per record type: its keyword fields, and the repr and hash read
# from the frozen dataclasses these records replaced (None where the hash
# depends on PYTHONHASHSEED through a str field, or is by identity).
_TORUS = origami.Origami(1, (0,), (0,))
_CHAIN = flatcore.PolygonChain((PlanarVec(0, 0), PlanarVec(1, 0), PlanarVec(0, 1)))
RECORD_SAMPLES = [
    (PlanarVec, dict(x=1, y="1/2"), "(1, 1/2)", 3180726016069507864),
    (
        flatcore.PolygonChain,
        dict(vertices=[PlanarVec(0, 0), PlanarVec(1, 0), PlanarVec(0, 1)]),
        "PolygonChain(vertices=((0, 0), (1, 0), (0, 1)))",
        -4625737809571893643,
    ),
    (
        flatcore.TranslationSurface,
        dict(polygons=[_CHAIN], pairing={(0, 0): (0, 1), (0, 1): (0, 0)}),
        "TranslationSurface(polygons=(PolygonChain(vertices=((0, 0), (1, 0), (0, 1))),), "
        "pairing=mappingproxy({EdgeRef(polygon=0, edge=0): EdgeRef(polygon=0, edge=1), "
        "EdgeRef(polygon=0, edge=1): EdgeRef(polygon=0, edge=0)}))",
        None,
    ),
    (
        flatcore.ValidationReport,
        dict(violations=()),
        "ValidationReport(violations=())",
        -5486347211504344842,
    ),
    (
        flatcore.ConePoint,
        dict(corners=((0, 0), (0, 2)), angle_turns=3),
        "ConePoint(corners=((0, 0), (0, 2)), angle_turns=3)",
        -703931410063077651,
    ),
    (
        flatcore.StratumSignature,
        dict(genus=2, orders=(2,)),
        "StratumSignature(genus=2, orders=(2,))",
        3150163551385470573,
    ),
    (
        flatcore.PeriodData,
        dict(pairs=((flatcore.EdgeRef(0, 0), flatcore.EdgeRef(0, 4)),), vectors=(PlanarVec(1, 0),),
             rank=4),
        "PeriodData(pairs=((EdgeRef(polygon=0, edge=0), EdgeRef(polygon=0, edge=4)),), "
        "vectors=((1, 0),), rank=4)",
        -4512914273109570111,
    ),
    (
        gl2.Mat2,
        dict(a=1, b="1/2", c=0, d=2),
        "Mat2(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(0, 1), d=Fraction(2, 1))",
        -3447118018142938253,
    ),
    (
        hyperell.BranchSet,
        dict(points=(0, 1, 2, "3/2")),
        "BranchSet(points=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 2)))",
        -629577862828673685,
    ),
    (
        hyperell.FactoredForm,
        dict(constant=3, factors=[(1, 2)]),
        "FactoredForm(constant=Fraction(3, 1), factors=((Fraction(1, 1), 2),))",
        337788703002954847,
    ),
    (
        hyperell.WeierstrassPlace,
        dict(branch=Fraction(1)),
        "WeierstrassPlace(branch=Fraction(1, 1))",
        -6644214454873602895,
    ),
    (
        hyperell.ConjugatePairPlace,
        dict(root=Fraction(1)),
        "ConjugatePairPlace(root=Fraction(1, 1))",
        -6644214454873602895,
    ),
    (hyperell.InfinityPlace, dict(sign=1), "InfinityPlace(sign=1)", -6644214454873602895),
    (
        hyperell.DivisorOnCurve,
        dict(entries=((hyperell.WeierstrassPlace(Fraction(1)), 2),)),
        "DivisorOnCurve(entries=((WeierstrassPlace(branch=Fraction(1, 1)), 2),))",
        902348366228228030,
    ),
    (
        hyperell.BasisReport,
        dict(genus=2, holomorphic=(True, True, False)),
        "BasisReport(genus=2, holomorphic=(True, True, False))",
        4968609506961868998,
    ),
    (
        origami.Origami,
        dict(d=3, h=[1, 2, 0], v=(0, 2, 1)),
        "Origami(d=3, h=(1, 2, 0), v=(0, 2, 1))",
        -2191325850733006959,
    ),
    (
        origami.OrbitData,
        dict(elements=((1, 0, 0),), cusp_widths=(1,), edges=((0, "S", 0),)),
        "OrbitData(elements=((1, 0, 0),), cusp_widths=(1,), edges=((0, 'S', 0),))",
        None,
    ),
    (origami.Cylinder, dict(width=3, height=1), "Cylinder(width=3, height=1)", 8756109708711196808),
    (
        origami.CylinderDecomposition,
        dict(cylinders=(origami.Cylinder(3, 1),)),
        "CylinderDecomposition(cylinders=(Cylinder(width=3, height=1),))",
        -3108017069101550676,
    ),
    (
        spin.SimpleCycle,
        dict(origami=_TORUS, steps=[(0, "E")]),
        "SimpleCycle(origami=Origami(d=1, h=(0,), v=(0,)), steps=((0, 'E'),))",
        None,
    ),
    (
        spin.QuadraticFormData,
        dict(_origami=_TORUS, _walks=(((0,), (0,)), ((0,), (1,))), _rows=(2, 1), q_values=(1, 1),
             radical_rank=0, symplectic_rank=2, arf=1),
        "QuadraticFormData(_origami=Origami(d=1, h=(0,), v=(0,)), "
        "_walks=(((0,), (0,)), ((0,), (1,))), _rows=(2, 1), q_values=(1, 1), "
        "radical_rank=0, symplectic_rank=2, arf=1)",
        4081610830348526978,
    ),
]


def test_every_record_type_has_a_sample():
    assert {cls for cls, *_ in RECORD_SAMPLES} == set(flatcore._Record.__subclasses__())


@pytest.mark.parametrize(
    "cls, fields, expected_repr, expected_hash",
    RECORD_SAMPLES,
    ids=[sample[0].__name__ for sample in RECORD_SAMPLES],
)
def test_record_semantics(cls, fields, expected_repr, expected_hash):
    """Each record keeps the frozen dataclass semantics: positional and keyword
    construction, field-tuple equality and hash within one class, repr, and
    no assignment or deletion; a TranslationSurface equals only itself."""
    record = cls(**fields)
    values = tuple(getattr(record, name) for name in fields)
    same = cls(*fields.values())
    assert repr(record) == expected_repr
    assert record == record
    # the same values in a subclass, and in every other record type of as many fields
    twins = [(type(cls.__name__, (cls,), {}), fields)]
    twins += [(c, f) for c, f, *_ in RECORD_SAMPLES if c is not cls and len(f) == len(fields)]
    for other_cls, other_fields in twins:
        twin = object.__new__(other_cls)
        twin.__dict__.update(zip(other_fields, values))
        assert record != twin and twin != record, other_cls
    if cls is flatcore.TranslationSurface:
        assert record != same and hash(record) == object.__hash__(record)
    else:
        assert record == same and not record != same
        assert hash(record) == hash(same) == hash(values)
        if expected_hash is not None:
            assert hash(record) == expected_hash
    for name in (next(iter(fields)), "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    # arguments bind as a signature binds them, and the fields are stored in order
    for args, kwargs in (
        (values + (0,), {}), (values[:-1], {}), ((), dict(fields, other=0)), (values[:1], fields)
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if cls is not flatcore.TranslationSurface:
        assert list(vars(cls(*values))) == list(fields) == list(cls._fields)

