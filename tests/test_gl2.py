"""Linear action on translation surfaces: validity, invariants, covariance."""

import json
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatkit import cli, flatcore, gl2, origami

from conftest import DATA, build_2ngon, build_step_octagon, make_rng

FIXTURES = tuple(
    flatcore.load_surface(str(DATA / name)) for name in ("octagon.json", "decagon.json", "torus.json")
)
entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
positive_matrices = st.builds(gl2.mat2, entries, entries, entries, entries).filter(
    lambda m: m.det > 0
)


# Entries over pairwise different denominators: the common one is 210.
MIXED_DENOMINATORS = (
    gl2.mat2("1/2", "2/3", "-3/5", "5/7"),
    gl2.mat2("5/7", "-1/2", "3/5", "2/3"),
    gl2.mat2("3/5", "5/7", "-2/3", "1/2"),
)


def polygon_sources(rng: random.Random) -> list[flatcore.TranslationSurface]:
    """The fixtures, the 2n-gons of test_2ngon_family and square-tiled surfaces."""
    sources = list(FIXTURES) + [build_2ngon(n) for n in range(3, 9)]
    return sources + [origami.to_polygons(origami.random_origami(d, rng)) for d in range(1, 10)]


def assert_seeded_view_is_fresh(surf: flatcore.TranslationSurface) -> None:
    """The view a surface was built with equals the one its Fractions give, and
    its pairing, stored as given, is the read-only EdgeRef map the public
    constructor builds."""
    assert {"_scale", "_scaled"} <= surf.__dict__.keys()
    fresh = flatcore.TranslationSurface(surf.polygons, surf.pairing)
    assert (surf._scale, surf._scaled) == (fresh._scale, fresh._scaled)
    assert isinstance(surf.pairing, MappingProxyType) and surf.pairing == fresh.pairing
    assert all(type(ref) is flatcore.EdgeRef for pair in surf.pairing.items() for ref in pair)


def random_positive_matrix(rng: random.Random) -> gl2.Mat2:
    """Random rational 2x2 matrix with positive determinant."""
    while True:
        entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        m = gl2.mat2(*entries)
        if m.det > 0:
            return m


def test_mat2_basics():
    m = gl2.mat2(1, 2, 3, 4)
    assert m.det == -2
    i = gl2.IDENTITY
    assert m @ i == m
    assert i @ m == m
    a = gl2.mat2(2, 0, 0, 1)
    b = gl2.mat2(1, 1, 0, 1)
    assert (a @ b).map_vec(flatcore.PlanarVec(1, 0)) == a.map_vec(
        b.map_vec(flatcore.PlanarVec(1, 0))
    )


def test_rotation_validation():
    r = gl2.rotation(Fraction(3, 5), Fraction(4, 5))
    assert r.det == 1
    with pytest.raises(ValueError):
        gl2.rotation(Fraction(1, 2), Fraction(1, 2))


def test_entries_must_be_exact_rationals():
    m = gl2.mat2(1, "1/2", Fraction(1, 3), "-2")
    assert (m.a, m.b, m.c, m.d) == (1, Fraction(1, 2), Fraction(1, 3), -2)
    assert gl2.rotation("3/5", Fraction(4, 5)) == gl2.rotation(Fraction(3, 5), Fraction(4, 5))
    with pytest.raises(TypeError, match="not a rational value"):
        gl2.mat2(0.1, 0, 0, 1)
    with pytest.raises(TypeError, match="not a rational value"):
        gl2.mat2(True, 0, 0, 1)  # a bool is not read as 1
    for spelling in ("1.5", "1e0", " 1", "+1", "1_0", "\u0661", "1/0"):
        with pytest.raises(ValueError, match="rational value"):
            gl2.mat2(spelling, 0, 0, 1)
    with pytest.raises(TypeError, match="not a rational value"):
        gl2.rotation(0.6, 0.8)


def test_apply_preserves_invariants(octagon, decagon, rng):
    for surf in (octagon, decagon):
        sig = flatcore.stratum(surf)
        for _ in range(20):
            m = random_positive_matrix(rng)
            image = gl2.apply(surf, m)
            assert flatcore.validate(image).ok
            assert flatcore.stratum(image) == sig
            assert flatcore.periods(image).rank == flatcore.periods(surf).rank


def test_apply_rejects_bad_matrices(octagon):
    with pytest.raises(ValueError, match="orientation-reversing or singular"):
        gl2.apply(octagon, gl2.mat2(1, 0, 0, -1))
    with pytest.raises(ValueError, match="orientation-reversing or singular"):
        gl2.apply(octagon, gl2.mat2(1, 2, 2, 4))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURES), positive_matrices, positive_matrices)
@example(FIXTURES[0], gl2.mat2(1, 1, 0, 1), gl2.mat2(2, 0, 1, 1))
def test_apply_is_functorial(surf, a, b):
    seq = gl2.apply(gl2.apply(surf, a), b)
    prod = gl2.apply(surf, b @ a)
    assert seq.polygons == prod.polygons
    assert seq.pairing == prod.pairing


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURES), positive_matrices)
def test_image_survives_json_roundtrip(surf, m):
    image = gl2.apply(surf, m)
    back = flatcore.surface_from_json(json.dumps(flatcore.surface_to_json(image)))
    assert back.polygons == image.polygons
    assert back.pairing == image.pairing


def test_rotation_period_covariance(octagon):
    r = gl2.rotation(Fraction(3, 5), Fraction(4, 5))
    before = flatcore.periods(octagon)
    after = flatcore.periods(gl2.apply(octagon, r))
    assert after.pairs == before.pairs
    assert after.vectors == tuple(r.map_vec(v) for v in before.vectors)


def test_step_octagon_relations_preserved(rng):
    surf = build_step_octagon()
    # the two vertical sides are equal; the long bottom is three times the
    # short one (periods are listed in edge-pair order)
    relations = [(0, 0, -1, 1), (3, -1, 0, 0)]
    for _ in range(20):
        m = random_positive_matrix(rng)
        assert gl2.check_linear_relations(surf, relations, m)
    shear = gl2.mat2(1, 1, 0, 1)
    with pytest.raises(ValueError, match="does not hold"):
        gl2.check_linear_relations(surf, [(1, 0, 0, 0)], shear)
    with pytest.raises(ValueError, match="length"):
        gl2.check_linear_relations(surf, [(1, 0)], shear)


def test_apply_validates_input():
    bad = flatcore.surface(
        [[(0, 0), (1, 0), (1, 1), (0, 1)]],
        {(0, 0): (0, 3), (0, 1): (0, 2)},
    )
    with pytest.raises(ValueError, match="invalid surface"):
        gl2.apply(bad, gl2.IDENTITY)


def test_apply_validates_source_and_image_once(validation_calls):
    source = build_step_octagon()
    image = gl2.apply(source, gl2.mat2(1, 1, 0, 1))
    assert flatcore.validate(image).ok
    flatcore.singularities(image)
    flatcore.stratum(image)
    flatcore.periods(image)
    assert validation_calls == [source, image]


def test_apply_refuses_an_image_that_fails_its_own_validation(monkeypatch):
    # The image is validated by itself: no verdict is carried over from the source.
    source = build_step_octagon()
    assert flatcore.validate(source).ok
    body = flatcore._validate

    def fail_images(surf):
        return body(surf) if surf is source else flatcore.ValidationReport(("forced",))

    monkeypatch.setattr(flatcore, "_validate", fail_images)
    with pytest.raises(RuntimeError, match="^matrix image failed validation: forced$"):
        gl2.apply(source, gl2.mat2(1, 1, 0, 1))


def test_apply_equals_the_map_vec_image(rng):
    for source in polygon_sources(rng):
        for m in MIXED_DENOMINATORS + (gl2.IDENTITY, random_positive_matrix(rng)):
            image = gl2.apply(source, m)
            assert image.polygons == tuple(
                flatcore.PolygonChain(tuple(m.map_vec(p) for p in poly.vertices))
                for poly in source.polygons
            )
            assert image.pairing is source.pairing  # shared, not rebuilt
            assert_seeded_view_is_fresh(image)


def test_square_tiled_surfaces_seed_their_integer_view(rng):
    one_square = origami.to_polygons(origami.make(1, "", ""))
    assert one_square._scale == 1  # the gcd takes the scale 4 down to 1
    assert one_square._scaled == (((0, 0), (1, 0), (1, 1), (0, 1)),)
    assert_seeded_view_is_fresh(one_square)
    for d in range(2, 10):
        surf = origami.to_polygons(origami.random_origami(d, rng))
        assert surf._scale == 4
        assert_seeded_view_is_fresh(surf)


def test_periods_equal_the_edge_vectors(rng):
    sources = polygon_sources(rng) + [build_step_octagon()]
    for surf in sources + [gl2.apply(s, MIXED_DENOMINATORS[0]) for s in sources]:
        data = flatcore.periods(surf)
        assert data.vectors == tuple(surf.edge_vector(rep) for rep, _ in data.pairs)


def test_json_coordinates_are_the_fraction_vertices_in_lowest_terms():
    def written(c: Fraction) -> object:
        return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    for source in FIXTURES:
        for surf in [source] + [gl2.apply(source, m) for m in MIXED_DENOMINATORS]:
            blob = json.dumps(flatcore.surface_to_json(surf)["polygons"])  # before polygons is read
            polys = [[[written(p.x), written(p.y)] for p in poly.vertices] for poly in surf.polygons]
            assert blob == json.dumps(polys)


def test_images_and_square_tilings_build_their_polygons_on_first_read(rng):
    """Every reader works on the integer view; polygons appear only when read."""
    for d in range(1, 10):
        square_tiled = origami.to_polygons(origami.random_origami(d, rng))
        sources = (square_tiled, build_2ngon(d + 2))
        matrices = [random_positive_matrix(rng) for _ in sources]
        images = [gl2.apply(source, m) for source, m in zip(sources, matrices)]
        for surf in [square_tiled] + images:
            assert flatcore.validate(surf).ok
            flatcore.singularities(surf)
            flatcore.stratum(surf)
            flatcore.genus(surf)
            flatcore.periods(surf)
            flatcore.is_integral(surf)
            flatcore.surface_to_json(surf)
            cli.render_svg(surf)
            assert "polygons" not in surf.__dict__
        assert square_tiled.polygons == tuple(  # unit squares 5/4 apart
            flatcore.polygon([(x, 0), (x + 1, 0), (x + 1, 1), (x, 1)])
            for x in (Fraction(5 * s, 4) for s in range(d))
        )
        for source, m, image in zip(sources, matrices, images):
            expected = tuple(
                flatcore.PolygonChain(tuple(m.map_vec(p) for p in poly.vertices))
                for poly in source.polygons
            )
            assert image.polygons == expected and image.polygons is image.polygons
            assert repr(image) == (
                f"TranslationSurface(polygons={expected!r}, pairing={source.pairing!r})"
            )
            twin = gl2.apply(source, m)
            assert image == image and image != twin and twin.polygons == expected
            assert hash(image) == object.__hash__(image)
            assert_seeded_view_is_fresh(image)
        assert_seeded_view_is_fresh(square_tiled)
