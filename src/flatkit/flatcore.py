"""Exact model of translation surfaces given as polygons glued by translations.

A surface is a finite list of simple polygons with rational vertices together
with a pairing of their boundary edges.  Paired edges must be parallel, of
equal length and oppositely oriented, so that the identification is a pure
translation.  Everything here is computed in exact rational arithmetic; no
floating point is used anywhere in this module.  Validation and the cone-point
sweep decide their predicates on integers: each surface keeps its vertices times
the common denominator of all its coordinates.  Scaling by one positive integer
keeps every sign of a cross product or coordinate difference and every equality
of vertices or edge vectors, so each answer is that of the rational coordinates.
Every surface stores only that view and builds its Fraction vertices on first
read, as periods does its Fraction vectors; every reader here works on the view
and its one list of edge vectors, and validation tests each polygon shape once.

The main operations are structural validation, the cone-point (singularity)
sweep, genus and stratum computation, the rank of the relative period lattice,
and strict JSON reading and writing of surfaces.  Its records are plain classes on
_Record; each name it imports from _base is re-exported here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from ._base import Rational, StratumSignature, _as_fraction, _read_rational, _Record, _roots

Point = tuple[int, int]  # a vertex or edge vector of the integer view


class PlanarVec(_Record):
    """A point or translation vector in the plane with rational coordinates."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Rational, y: Rational) -> None:
        self.__dict__.update(x=_as_fraction(x), y=_as_fraction(y))

    def __add__(self, other: "PlanarVec") -> "PlanarVec":
        return PlanarVec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanarVec") -> "PlanarVec":
        return PlanarVec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlanarVec":
        return PlanarVec(-self.x, -self.y)

    def cross(self, other: "PlanarVec") -> Fraction:
        return self.x * other.y - self.y * other.x

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


class EdgeRef(NamedTuple):
    """Reference to one directed boundary edge: (polygon index, edge index)."""

    polygon: int
    edge: int


class PolygonChain(_Record):
    """A polygon given by its cyclic vertex list, counterclockwise.

    Edge i runs from vertices[i] to vertices[(i+1) % n].  Collinear
    consecutive vertices are allowed; they create straight (angle pi)
    corners, which occur naturally when an edge of a bigger polygon is
    subdivided or when a degeneration collapses an edge.
    """

    vertices: tuple[PlanarVec, ...]

    def __init__(self, vertices: Iterable[PlanarVec]) -> None:
        self.__dict__["vertices"] = tuple(vertices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> PlanarVec:
        return self.vertices[i % self.n]

    def edge_vector(self, i: int) -> PlanarVec:
        return self.vertex(i + 1) - self.vertex(i)


def polygon(points: Iterable[Sequence[Rational]]) -> PolygonChain:
    """Build a PolygonChain from raw (x, y) coordinate pairs."""
    return PolygonChain(tuple(PlanarVec(x, y) for x, y in points))


class TranslationSurface(_Record):
    """Immutable polygons plus a pairing (involution) on their directed boundary edges,
    equal only to itself."""

    polygons: tuple[PolygonChain, ...]
    pairing: Mapping[EdgeRef, EdgeRef]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, polygons: Iterable[PolygonChain], pairing: Mapping) -> None:
        polygons = tuple(polygons)  # stored as the integer view alone, as by _from_scaled
        scale = lcm(*(c.denominator for p in polygons for v in p.vertices for c in (v.x, v.y)))

        def lift(c: Fraction) -> int:  # over the lcm of reduced denominators: gcd 1 already
            return c.numerator * (scale // c.denominator)

        scaled = tuple(tuple((lift(v.x), lift(v.y)) for v in p.vertices) for p in polygons)
        pairing = {EdgeRef(*k): EdgeRef(*v) for k, v in dict(pairing).items()}
        self.__dict__.update(pairing=MappingProxyType(pairing), _scale=scale, _scaled=scaled)

    @classmethod
    def _from_scaled(
        cls, points: Sequence[Sequence[Point]], scale: int, pairing: Mapping[EdgeRef, EdgeRef]
    ) -> "TranslationSurface":
        """The surface with vertices points / scale, stored as its integer view alone (over
        the gcd of points and scale); polygons are built on first read.  pairing is stored
        as given: a read-only EdgeRef to EdgeRef map."""
        g = gcd(scale, *(c for pts in points for pt in pts for c in pt))
        scale, scaled = scale // g, tuple(tuple((x // g, y // g) for x, y in pts) for pts in points)
        surf = object.__new__(cls)
        surf.__dict__.update(pairing=pairing, _scale=scale, _scaled=scaled)
        return surf

    @cached_property
    def polygons(self) -> tuple[PolygonChain, ...]:
        """The Fraction polygons, built from the integer view on first read."""
        scale = self._scale
        return tuple(
            PolygonChain(tuple(PlanarVec(Fraction(x, scale), Fraction(y, scale)) for x, y in pts))
            for pts in self._scaled
        )

    @cached_property
    def _edges(self) -> tuple[tuple[Point, ...], ...]:
        """Each polygon's edge vectors (vertex i to i + 1) on the integer view: the one
        source of edges for validation, the sweep, periods and is_integral."""
        return tuple(
            tuple((x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
            for pts in self._scaled
        )

    @cached_property
    def _pairs(self) -> tuple[tuple[EdgeRef, EdgeRef], ...]:
        """Each edge pair once as (e, partner) with e < partner, sorted: the one source of
        pairs for validation's edge-vector test, periods, surface_to_json and rendering."""
        pairing = self.pairing
        return tuple((e, pairing[e]) for e in sorted(pairing) if e < pairing[e])

    @cached_property
    def _report(self) -> "ValidationReport":
        return _validate(self)

    @cached_property
    def _swept(self) -> tuple[tuple["ConePoint", ...], int]:
        _require_valid(self)  # a raising getter caches nothing: refused on every call
        return _sweep(self)

    def edge_refs(self) -> Iterator[EdgeRef]:
        for p, pts in enumerate(self._scaled):
            for e in range(len(pts)):
                yield EdgeRef(p, e)

    def edge_vector(self, ref: EdgeRef) -> PlanarVec:
        return self.polygons[ref.polygon].edge_vector(ref.edge)


def surface(
    polygons: Iterable[Iterable[Sequence[Rational]]],
    pairs: Union[Iterable[Sequence[Sequence[int]]], Mapping[Sequence[int], Sequence[int]]],
) -> TranslationSurface:
    """Build a TranslationSurface from vertex lists and edge pairs.

    pairs may be a list of ((p1, e1), (p2, e2)) entries or a mapping
    (p1, e1) -> (p2, e2); either direction of each pair suffices.
    """
    if isinstance(pairs, Mapping):
        pairs = pairs.items()
    pairing: dict[EdgeRef, EdgeRef] = {}
    for (p1, e1), (p2, e2) in pairs:
        a, b = EdgeRef(p1, e1), EdgeRef(p2, e2)
        pairing[a] = b
        pairing[b] = a
    return TranslationSurface(tuple(polygon(ps) for ps in polygons), pairing)


class ValidationReport(_Record):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _cross(u: Point, v: Point) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _orient(a: Point, b: Point, c: Point) -> int:
    value = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (value > 0) - (value < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    return (
        _orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments [a,b] and [c,d] share at least one point."""
    return (
        _orient(c, d, a) * _orient(c, d, b) < 0 and _orient(a, b, c) * _orient(a, b, d) < 0
        or _on_segment(a, c, d)
        or _on_segment(b, c, d)
        or _on_segment(c, a, b)
        or _on_segment(d, a, b)
    )


def _polygon_violations(index: int, pts: Sequence[Point], edges: Sequence[Point]) -> list[str]:
    n = len(pts)
    if n < 3:
        return [f"polygon {index}: fewer than 3 vertices"]
    out = [f"polygon {index}: zero-length edge at vertex {i}"
           for i, v in enumerate(edges) if v == (0, 0)]
    if out:
        return out
    area2 = sum(_cross(pts[i - 1], pts[i]) for i in range(n))
    if area2 == 0:
        out.append(f"polygon {index}: degenerate (zero signed area)")
    elif area2 < 0:
        out.append(f"polygon {index}: vertices are clockwise (negative signed area)")

    # Simplicity: edges may meet only where consecutive edges share a vertex.  Two
    # consecutive edges, neither of zero length, meet beyond it (one folds back over
    # the other) exactly when their vectors are antiparallel.  Closed segments with
    # disjoint bounding boxes cannot meet: each edge's box is taken once.
    ends = pts[1:] + pts[:1]
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
             for a, b in zip(pts, ends)]
    for i in range(n):
        a, b, (ux, uy), (x0, x1, y0, y1) = pts[i], ends[i], edges[i], boxes[i]
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                vx, vy = edges[j]
                if ux * vy == uy * vx and ux * vx + uy * vy < 0:
                    out.append(
                        f"polygon {index}: edges {i} and {j} overlap beyond their shared vertex"
                    )
            elif x1 < boxes[j][0] or boxes[j][1] < x0 or y1 < boxes[j][2] or boxes[j][3] < y0:
                continue
            elif _segments_touch(a, b, pts[j], ends[j]):
                out.append(f"polygon {index}: edges {i} and {j} intersect")
    return out


def _validate(surf: TranslationSurface) -> ValidationReport:
    """Every check.  Polygon tests are exact and translation-invariant, and edge vectors fix a
    polygon up to translation: a passing shape is tested once, a failing one at each index."""
    out: list[str] = []
    scaled, edges = surf._scaled, surf._edges
    if not scaled:
        return ValidationReport(("no polygons",))
    passed: set[tuple[Point, ...]] = set()
    for i, pts in enumerate(scaled):
        if edges[i] not in passed:
            found = _polygon_violations(i, pts, edges[i])
            out += found
            if not found:
                passed.add(edges[i])
    polygons_ok = not out

    all_edges = {(p, e) for p, pts in enumerate(scaled) for e in range(len(pts))}
    keys = set(surf.pairing.keys())
    refs = dict.fromkeys(ref for pair in surf.pairing.items() for ref in pair)
    unknown = [ref for ref in refs if ref not in all_edges]
    for e in unknown:
        out.append(f"pairing refers to nonexistent edge {tuple(e)}")
    structural_ok = not unknown
    if structural_ok:
        missing = all_edges - keys
        for e in sorted(missing):
            out.append(f"edge {tuple(e)} is unpaired")
        for e in sorted(keys):
            partner = surf.pairing[e]
            if partner == e:
                out.append(f"edge {tuple(e)} is paired with itself")
                structural_ok = False
            elif surf.pairing.get(partner) != e:
                out.append(f"pairing is not an involution at edge {tuple(e)}")
                structural_ok = False
        if missing:
            structural_ok = False

    if structural_ok and polygons_ok:
        # The pairing is an involution without fixed points: _pairs holds each pair once.
        for e, partner in surf._pairs:
            x, y = edges[e.polygon][e.edge]
            if edges[partner.polygon][partner.edge] != (-x, -y):
                out.append(f"paired edge vectors not opposite: {tuple(e)} and {tuple(partner)}")
        # Gluing graph on polygons must be connected.
        links = ((e.polygon, partner.polygon) for e, partner in surf._pairs)
        if len(set(_roots(len(scaled), links))) > 1:
            out.append("not connected: gluing graph has multiple components")

    return ValidationReport(tuple(out))


def validate(surf: TranslationSurface) -> ValidationReport:
    """Structural gate, run once per surface: every other operation refuses a failed one."""
    return surf._report


def _require_valid(surf: TranslationSurface) -> None:
    report = validate(surf)
    if not report.ok:
        raise ValueError("invalid surface: " + "; ".join(report.violations))


# --- singularities ---------------------------------------------------------


class ConePoint(_Record):
    """One identified vertex of the surface.

    corners lists the (polygon, vertex) corners in the orbit; the total cone
    angle is 2*pi*angle_turns and the induced zero of the one-form dz has
    order zero_order = angle_turns - 1.
    """

    corners: tuple[tuple[int, int], ...]
    angle_turns: int

    @property
    def zero_order(self) -> int:
        return self.angle_turns - 1


def _rational_directions() -> Iterator[Fraction]:
    """Deterministic scan 0, 1, 1/2, 2, 1/3, 3, 2/3, 3/2, ... of slopes."""
    yield Fraction(0)
    for total in count(2):
        for num in range(1, total):
            den = total - num
            if gcd(num, den) == 1:
                yield Fraction(num, den)


def _reference_direction(edges: Sequence[Sequence[Point]]) -> Point:
    """A direction (q, p) of slope p/q parallel to no vector of edges, to count angle sweeps."""
    edge_vecs = {v for vs in edges for v in vs}
    for slope in _rational_directions():
        ref = (slope.denominator, slope.numerator)
        if all(_cross(ref, v) != 0 for v in edge_vecs):
            return ref
    raise AssertionError("unreachable: finitely many edge directions")


def _sector_contains(ref: Point, start: Point, end: Point) -> bool:
    """True iff ref lies strictly inside the ccw sector from start to end.

    start and end are distinct directions (never opposite ends of the same
    ray) and ref is parallel to neither, so the open/closed distinction
    never matters.
    """
    s = _cross(start, end)
    if s > 0:
        return _cross(start, ref) > 0 and _cross(ref, end) > 0
    if s < 0:
        return _cross(start, ref) > 0 or _cross(ref, end) > 0
    # start and end opposite: the sector is the half plane to the left of start.
    return _cross(start, ref) > 0


def _corner_orbits(surf: TranslationSurface) -> list[list[tuple[int, int]]]:
    """Orbits of the corner walk that circles each identified vertex.

    From the corner at vertex i of polygon p, crossing the incoming edge
    (p, i-1) through its pairing lands at the start vertex of the partner
    edge; repeating sweeps counterclockwise around one vertex of the glued
    surface until the walk closes up.
    """
    next_corner = {(p, i): tuple(surf.pairing[p, (i - 1) % len(pts)])  # keys sorted
                   for p, pts in enumerate(surf._scaled) for i in range(len(pts))}
    orbits: list[list[tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    for start in next_corner:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = next_corner[start]
        while cur != start:
            if cur in seen:
                raise RuntimeError(f"corner orbit through {start} does not close")
            orbit.append(cur)
            seen.add(cur)
            cur = next_corner[cur]
        orbits.append(orbit)
    return orbits


def _sweep(surf: TranslationSurface) -> tuple[tuple[ConePoint, ...], int]:
    """Cone points and genus of a surface that has already passed validate.

    The angle around a vertex is a positive multiple of 2*pi.  It is counted
    without transcendental functions: a fixed reference direction crosses the
    interior sector of a corner at most once, and the number of corners in an
    orbit whose sector contains the reference direction equals the number of
    full turns.  The genus comes from the Euler characteristic of the induced
    cell structure.
    """
    edges = surf._edges
    ref = _reference_direction(edges)
    points: list[ConePoint] = []
    total_turns = 0
    for orbit in _corner_orbits(surf):
        turns = 0
        for p, i in orbit:
            x, y = edges[p][i - 1]
            if _sector_contains(ref, edges[p][i], (-x, -y)):
                turns += 1
        if turns < 1:
            raise RuntimeError(f"empty angle sweep at corner orbit {orbit[0]}")
        total_turns += turns
        points.append(ConePoint(tuple(sorted(orbit)), turns))
    # Total interior angle of each n-gon is (n-2)*pi, so the turn counts
    # must add up to half the sum of (n-2) over the polygons.
    expected_double = sum(len(vs) - 2 for vs in edges)
    if 2 * total_turns != expected_double:
        raise RuntimeError(
            f"angle sweep mismatch: counted {total_turns} turns, "
            f"expected {expected_double}/2"
        )
    points.sort(key=lambda cp: cp.corners[0])

    n_edges = sum(len(vs) for vs in edges) // 2
    chi = len(points) - n_edges + len(edges)
    if chi % 2 != 0:
        raise RuntimeError(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    zeros = sum(cp.zero_order for cp in points)
    if zeros != 2 * g - 2:
        raise RuntimeError(
            f"zero orders sum to {zeros} but 2g-2 = {2 * g - 2}; broken representation"
        )
    return tuple(points), g


def singularities(surf: TranslationSurface) -> list[ConePoint]:
    """All identified vertices with their exact cone angles."""
    return list(surf._swept[0])


def genus(surf: TranslationSurface) -> int:
    """Genus via the Euler characteristic of the induced cell structure."""
    return surf._swept[1]


def stratum(surf: TranslationSurface) -> StratumSignature:
    """Stratum of the surface; zero orders of marked regular points are dropped."""
    points, g = surf._swept
    orders = tuple(sorted((cp.zero_order for cp in points if cp.zero_order > 0), reverse=True))
    return StratumSignature(g, orders)


# --- periods ---------------------------------------------------------------


class PeriodData(_Record):
    """One translation vector per edge pair and the rank they span.

    rank is the dimension over the rationals of the span of the edge-pair
    generators modulo the polygon boundary relations, relative to the set of
    actual zeros (for the torus a single marked point is kept).  Both kinds of
    relation are rows of incidence matrices, so periods counts the rank from
    connected components; it always equals 2g + n - 1 for n marked points.
    periods builds the vectors on first read; ==, hash and repr read them as a field.
    """

    pairs: tuple[tuple[EdgeRef, EdgeRef], ...]
    vectors: tuple[PlanarVec, ...]
    rank: int

    @cached_property
    def vectors(self) -> tuple[PlanarVec, ...]:  # the constructor stores them; periods does not
        edges, scale = self._surface._edges, self._surface._scale
        pair_edges = (edges[p][i] for (p, i), _ in self.pairs)
        return tuple(PlanarVec(Fraction(dx, scale), Fraction(dy, scale)) for dx, dy in pair_edges)


def periods(surf: TranslationSurface) -> PeriodData:
    """Relative period rank, checked to be 2g + n - 1, and edge-pair vectors built on first read.

    The rank is the number of edge pairs less the ranks of two sets of relations.  Each
    set is made of rows of an incidence matrix, whose rows are dependent only through
    their sum over a connected component, so each rank is a count of components:
    - the boundary of each polygon: the incidence matrix of the dual graph (polygons
      joined by edge pairs), of rank F - 1, since validation found it connected;
    - the endpoints at each unmarked vertex, since a relative cycle may have boundary
      only on marked points: the unmarked rows of the incidence matrix of the
      1-skeleton (cone points joined by edge pairs), of rank V - m minus the number
      of components with no marked vertex.
    """
    points, g = surf._swept
    pairs, edges = surf._pairs, surf._edges
    boundary_rank = len(edges) - 1

    vertex_of = {corner: k for k, cp in enumerate(points) for corner in cp.corners}
    marked = {k for k, cp in enumerate(points) if cp.zero_order > 0} or {0}
    links = ((vertex_of[p, i], vertex_of[p, (i + 1) % len(edges[p])]) for (p, i), _ in pairs)
    skeleton = _roots(len(points), links)
    unmarked_components = set(skeleton) - {skeleton[k] for k in marked}
    endpoint_rank = len(points) - len(marked) - len(unmarked_components)

    rank = len(pairs) - endpoint_rank - boundary_rank
    expected = 2 * g + len(marked) - 1
    if rank != expected:
        raise RuntimeError(
            f"period rank {rank} does not match 2g+n-1 = {expected}; broken representation"
        )
    data = object.__new__(PeriodData)
    data.__dict__.update(pairs=pairs, rank=rank, _surface=surf)
    return data


def is_integral(surf: TranslationSurface) -> bool:
    """True iff every edge vector has integer coordinates: _scale divides each of _edges."""
    _require_valid(surf)
    scale = surf._scale
    return all(c % scale == 0 for vs in surf._edges for v in vs for c in v)


# --- JSON interchange ------------------------------------------------------


def _coord_to_json(value: int, scale: int) -> int | str:
    """value / scale in lowest terms: an int, or a "p/q" string."""
    g = gcd(value, scale)
    return value // g if g == scale else f"{value // g}/{scale // g}"


def _coord_from_json(raw: object) -> tuple[int, int]:
    """A JSON coordinate as (numerator, denominator): an integer, or a "p/q" string."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"coordinate must be an integer or 'p/q' string, got {raw!r}")
    return (raw, 1) if isinstance(raw, int) else _read_rational(raw, "coordinate")


def _object_from_json(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are each given once."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one JSON object")
        obj[key] = value
    return obj


def _list_from_json(raw: object, what: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list, got {raw!r}")
    return raw


def _pair_from_json(raw: object, what: str) -> list:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ValueError(f"{what} must be a pair, got {raw!r}")
    return raw


def _edge_from_json(raw: object) -> EdgeRef:
    pair = _pair_from_json(raw, "edge reference [polygon, edge]")
    # bool is a subclass of int, and int() would truncate 0.9 to 0.
    if any(isinstance(i, bool) or not isinstance(i, int) for i in pair):
        raise ValueError(f"edge indices must be integers, got {raw!r}")
    return EdgeRef(*pair)


def surface_to_json(surf: TranslationSurface) -> dict:
    polys = [[[_coord_to_json(c, surf._scale) for c in pt] for pt in pts] for pts in surf._scaled]
    pairs = [[list(e), list(partner)] for e, partner in surf._pairs]
    return {"polygons": polys, "pairings": pairs}


def surface_from_json(data: Union[str, dict]) -> TranslationSurface:
    """The surface of JSON text or its object: the keys "polygons" and "pairings", each once;
    the coordinates go straight into the integer view, over the lcm of their denominators."""
    if isinstance(data, str):
        data = json.loads(data, object_pairs_hook=_object_from_json)
    if not isinstance(data, dict):
        raise ValueError("surface JSON must be an object")
    for key in (*data, "polygons", "pairings"):  # unknown keys in file order, then missing ones
        if key not in data or key not in ("polygons", "pairings"):
            raise ValueError(f"surface JSON {'has unknown' if key in data else 'missing'} key {key!r}")
    raw_polys = _list_from_json(data["polygons"], '"polygons"')
    raw_pairs = _list_from_json(data["pairings"], '"pairings"')
    polys = []  # each vertex as ((x numerator, x denominator), (y numerator, y denominator))
    for i, raw in enumerate(raw_polys):
        pts, what = _list_from_json(raw, f"polygon {i}"), f"vertex of polygon {i}"
        polys.append([tuple(map(_coord_from_json, _pair_from_json(pt, what))) for pt in pts])
    scale = lcm(*(q for pts in polys for pt in pts for _, q in pt))
    points = [[tuple(n * (scale // q) for n, q in pt) for pt in pts] for pts in polys]
    # validate reports nonexistent, unpaired and self-paired edges; only an
    # edge paired twice cannot be held in the pairing dict.
    pairing: dict[EdgeRef, EdgeRef] = {}
    for entry in raw_pairs:
        a, b = (_edge_from_json(ref) for ref in _pair_from_json(entry, "pairing entry"))
        for ref in (a, b):
            if ref in pairing:
                raise ValueError(f"edge {tuple(ref)} is paired twice")
        pairing[a] = b
        pairing[b] = a
    return TranslationSurface._from_scaled(points, scale, MappingProxyType(pairing))


def load_surface(path: str) -> TranslationSurface:
    with open(path, "r", encoding="utf-8") as fh:
        return surface_from_json(fh.read())


def dump_surface(surf: TranslationSurface, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_json(surf), fh, indent=2)
        fh.write("\n")
