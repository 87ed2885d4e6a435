"""Square-tiled surfaces given by a pair of permutations.

An origami of degree d is d unit squares with the right edge of square s
glued to the left edge of square h(s) and the top edge of s glued to the
bottom edge of v(s); the pair must act transitively so the surface is
connected.  Squares are 0-based internally; the text format is 1-based.
Each Origami derives h^-1, v^-1 and the cycles of its corner permutation
once, on first read, in private cached properties (_hinv, _vinv,
_corner_cycles, and _signature from them), and every reader here and in
flatkit.spin takes them from there (flatkit.spin also stores its _arf and
_involution there); ==, hash and repr see d, h and v only.

Provides the polygon surface (to_polygons imports flatkit.flatcore when it
runs), the stratum and cone angles from the corner permutation (the source
of truth; the tests check both against to_polygons), canonical forms and
isomorphism, the shear and quarter-turn actions with orbit enumeration,
horizontal cylinders, and enumeration by stratum through flatkit.census,
which origamis_in_stratum and stratum_pairs_raw import only when they run.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Optional, Sequence, Union

from ._base import StratumSignature, _Record, _roots
from .strata import _integers

Perm = tuple[int, ...]
CanonicalForm = tuple[int, ...]


def invert_perm(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def _check_perm(p: Sequence[int], d: int, name: str) -> Perm:
    p = _integers(p, name)
    if len(p) != d or sorted(p) != list(range(d)):
        raise ValueError(f"{name} is not a permutation of 0..{d - 1}: {p}")
    return p


class Origami(_Record):
    """Degree plus the right-neighbor and top-neighbor permutations (0-based)."""

    d: int
    h: Perm
    v: Perm

    def __init__(self, d: int, h: Sequence[int], v: Sequence[int]) -> None:
        if d < 1:
            raise ValueError(f"degree must be positive, got {d}")
        self.__dict__.update(d=d, h=_check_perm(h, d, "h"), v=_check_perm(v, d, "v"))

    @classmethod
    def _trusted(cls, d: int, h: Perm, v: Perm) -> Origami:
        """An origami from two permutation tuples of 0..d-1 that the caller
        already knows to be valid; __init__ does not run."""
        o = object.__new__(cls)
        o.__dict__.update(d=d, h=h, v=v)
        return o

    @cached_property
    def _hinv(self) -> Perm:
        return invert_perm(self.h)

    @cached_property
    def _vinv(self) -> Perm:
        return invert_perm(self.v)

    @cached_property
    def _corner_cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, cycles_of(commutator(self))))

    @cached_property
    def _signature(self) -> StratumSignature:
        orders = sorted((len(c) - 1 for c in self._corner_cycles if len(c) > 1), reverse=True)
        return StratumSignature(sum(orders) // 2 + 1, tuple(orders))


def is_connected(o: Origami) -> bool:
    seen = [False] * o.d
    seen[0] = True
    stack = [0]
    hinv, vinv = o._hinv, o._vinv
    while stack:
        s = stack.pop()
        for t in (o.h[s], hinv[s], o.v[s], vinv[s]):
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return all(seen)


def _perm_from_spec(spec: Union[str, Sequence[int]], d: int, name: str) -> Perm:
    """A permutation from cycle notation (1-based) or a 1-based image list."""
    if isinstance(spec, str):
        return parse_cycles(spec, d)
    images = _integers(spec, name)
    if sorted(images) != list(range(1, d + 1)):
        raise ValueError(f"{name} is not a 1-based permutation of 1..{d}: {spec}")
    return tuple(x - 1 for x in images)


def make(d: int, h: Union[str, Sequence[int]], v: Union[str, Sequence[int]]) -> Origami:
    """Public constructor: builds and checks connectivity.

    h and v may be cycle strings like "(1,2,3)(4,5)" or 1-based image lists.
    """
    o = Origami(d, _perm_from_spec(h, d, "h"), _perm_from_spec(v, d, "v"))
    if not is_connected(o):
        raise ValueError("not connected: h and v do not act transitively")
    return o


# --- cycle notation ---------------------------------------------------------

_BLANKS = " \t"
# One cycle after optional blanks: labels [0-9]+, apart by a comma or by blanks.  Blank text
# and "id" write no cycle; each label is in 1..d and written at most once.
_CYCLE_RE = re.compile(r"[ \t]*\([ \t]*((?:[0-9]+(?:[ \t]*,[ \t]*|[ \t]+))*[0-9]+)?[ \t]*\)")


def _read_cycles(text: str, d: int) -> dict[int, int]:
    """1-based cycle notation, read in one pass, as the 0-based image of each written label."""
    stripped, images, pos = text.strip(_BLANKS), {}, 0
    while pos < len(stripped) and stripped != "id":
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ValueError(f"unparsed text {stripped[pos:]!r} in cycle notation {text!r}")
        pos, cycle = m.end(), [int(x) - 1 for x in (m[1] or "").replace(",", " ").split()]
        for s, t in zip(cycle, cycle[1:] + cycle[:1]):
            if not 0 <= s < d:
                raise ValueError(f"cycle entry {s + 1} out of range 1..{d}")
            if s in images:
                raise ValueError(f"label {s + 1} appears twice in cycle notation {text!r}")
            images[s] = t
    return images


def parse_cycles(text: str, d: int) -> Perm:
    """1-based cycle notation "(1,2,3)(4,5)"; fixed points may be omitted."""
    images = _read_cycles(text, d)
    return tuple(images.get(s, s) for s in range(d))


def cycles_of(p: Sequence[int]) -> list[list[int]]:
    """Cycles of a 0-based permutation, each starting at its least element."""
    seen = [False] * len(p)
    out: list[list[int]] = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p[cur]
        out.append(cyc)
    return out


def format_cycles(p: Sequence[int]) -> str:
    """1-based cycle notation; fixed points omitted; identity is "()"."""
    parts = [
        "(" + ",".join(str(x + 1) for x in cyc) + ")"
        for cyc in cycles_of(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


# --- text file format -------------------------------------------------------


def parse_origami_text(text: str) -> Origami:
    """Parse the three-line format: "d: 5" then "h: (1,2,3,4)" then "v: (1,5)".

    Blank lines are skipped and everything after a # is a comment; h and v may appear
    in either order but d must come first so omitted fixed points are defined.  README,
    "File formats", states the grammar."""
    d: Optional[int] = None
    cycles: dict[str, dict[int, int]] = {}
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if not line:
            continue
        key, colon, rest = line.partition(":")
        key, rest = key.rstrip(_BLANKS), rest.lstrip(_BLANKS)
        if not colon or key not in ("d", "h", "v"):
            raise ValueError(f"line {lineno}: expected 'd:', 'h:' or 'v:', got {raw!r}")
        if key == "d":
            if d is not None:
                raise ValueError(f"line {lineno}: duplicate 'd:' line")
            if not (rest.isascii() and rest.isdigit()):
                raise ValueError(f"line {lineno}: bad degree {rest!r}")
            d = int(rest)
            if d < 1:
                raise ValueError(f"line {lineno}: degree must be positive, got {d}")
        else:
            if d is None:
                raise ValueError(f"line {lineno}: 'd:' must come before '{key}:'")
            if key in cycles:
                raise ValueError(f"line {lineno}: duplicate '{key}:' line")
            try:
                cycles[key] = _read_cycles(rest, d)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    if d is None or "h" not in cycles or "v" not in cycles:
        raise ValueError("origami text needs 'd:', 'h:' and 'v:' lines")
    # From d = 2 on, a square in no written cycle is fixed by h and v, so isolated:
    # refuse such a degree before allocating it.
    if d <= max(1, len(cycles["h"]) + len(cycles["v"])):
        h, v = (tuple(cycles[key].get(s, s) for s in range(d)) for key in "hv")
        o = Origami._trusted(d, h, v)
        if is_connected(o):
            return o
    raise ValueError("not connected: h and v do not act transitively")


def origami_to_text(o: Origami) -> str:
    return f"d: {o.d}\nh: {format_cycles(o.h)}\nv: {format_cycles(o.v)}\n"


def load_origami(path: str) -> Origami:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_origami_text(fh.read())


def dump_origami(o: Origami, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(origami_to_text(o))


# --- geometry ---------------------------------------------------------------


def to_polygons(o: Origami) -> TranslationSurface:
    """The polygon surface: one unit square per label, drawn in a row.

    Square s sits at horizontal offset 5s/4 (the 1/4 gap keeps renderings
    readable); edge order is bottom, right, top, left, counterclockwise.
    The squares are built as integer points over the scale 4, which seeds
    the surface's integer view.
    """
    from .flatcore import EdgeRef, TranslationSurface

    squares = tuple(((5 * s, 0), (5 * s + 4, 0), (5 * s + 4, 4), (5 * s, 4)) for s in range(o.d))
    pairing: dict[EdgeRef, EdgeRef] = {}
    for s in range(o.d):
        right, left_of_h = EdgeRef(s, 1), EdgeRef(o.h[s], 3)
        top, bottom_of_v = EdgeRef(s, 2), EdgeRef(o.v[s], 0)
        pairing[right] = left_of_h
        pairing[left_of_h] = right
        pairing[top] = bottom_of_v
        pairing[bottom_of_v] = top
    return TranslationSurface._from_scaled(squares, 4, MappingProxyType(pairing))


def commutator(o: Origami) -> Perm:
    """The corner permutation h v h^-1 v^-1 (applied right to left).

    Its cycles are the vertices of the tiling; a cycle of length k is a cone
    point of angle 2*pi*k.
    """
    hinv, vinv = o._hinv, o._vinv
    return tuple(o.h[o.v[hinv[vinv[s]]]] for s in range(o.d))


def singularity_orders(o: Origami) -> StratumSignature:
    """Stratum from the cycles of the corner permutation.

    A cycle of length k is a zero of order k - 1, and the orders sum to
    2g - 2.  This count is the source of truth for origami strata; the tests
    check it against the stratum of the polygon model on every class up to
    degree 6 and on random origamis.  Each origami computes it once.
    """
    return o._signature


def genus(o: Origami) -> int:
    return singularity_orders(o).genus


def cone_angle_turns(o: Origami) -> list[int]:
    """Cone angles in turns, ordered as flatcore.singularities orders to_polygons(o): by each
    vertex's least corner (s, i), corner i being the bottom-left of s, h(s), h(v(s)), v(s)."""
    cycles, h, v = o._corner_cycles, o.h, o.v
    vertex = {s: k for k, cyc in enumerate(cycles) for s in cyc}
    first = dict.fromkeys(vertex[t] for s in range(o.d) for t in (s, h[s], h[v[s]], v[s]))
    return [len(cycles[k]) for k in first]


# --- canonical form and isomorphism ----------------------------------------


def canonical_form(o: Origami) -> CanonicalForm:
    """Least relabeled encoding (d, h', v') over breadth-first relabelings.

    Squares are renamed in breadth-first discovery order with neighbor order
    right, left, up, down, once from each possible start square; the
    lexicographically least flat tuple is canonical.  Two origamis have equal
    canonical forms exactly when one is a relabeling of the other.

    Two exact rules skip most of the relabelings and leave every code as
    the all-starts minimum would give it.  Start rule: the h-part compares
    first, and h' = (hp[0], hp[1], ...) with hp[k] the label of h(order[k]).
    hp[0] is 0 when h fixes the start and 1 otherwise, since h(start) is
    found first.  If h moves the start, hp[1] is the label of h^2(start):
    0 on a 2-cycle, 2 on a 3-cycle, where h^2(start) = h^-1(start) got
    label 2, and at least 3 on a longer cycle.  So when the shortest cycle
    of h has length m <= 3, only starts on cycles of length m can reach the
    least code, and only they are tried; when m >= 4 every start is.  Early
    abort: hp[k] is final once the search has visited order[k], so a start
    is dropped at the first entry of h' larger than in the best code so
    far, and is compared no further once an entry is smaller.
    """
    code = _canonical_code(o.d, o.h, o.v, o._hinv, o._vinv)
    if code is None:
        raise ValueError("not connected: h and v do not act transitively")
    return code


def _canonical_code(
    d: int, h: Sequence[int], v: Sequence[int], hinv: Sequence[int], vinv: Sequence[int]
) -> Optional[CanonicalForm]:
    """canonical_form of the pair (h, v), or None when it is disconnected.

    The caller passes the inverses, so a scan that holds them already does
    not build an Origami or invert anything per pair.  A disconnected pair
    shows on the first breadth-first search, which always runs to the end.
    The four neighbor steps are written out: a loop over them costs about a
    third more per call.
    """
    starts = (
        [s for s in range(d) if h[s] == s]
        or [s for s in range(d) if h[h[s]] == s]
        or [s for s in range(d) if h[h[h[s]]] == s]
        or range(d)
    )
    best_h: Optional[list[int]] = None
    best_v: list[int] = []
    for start in starts:
        label = [-1] * d
        label[start] = 0
        order = [start]
        n = 1
        hp: list[int] = []
        vp: list[int] = []
        tied = best_h is not None
        for s in order:
            t = h[s]
            if label[t] < 0:
                label[t] = n
                n += 1
                order.append(t)
            entry = label[t]
            if tied and entry != best_h[len(hp)]:
                if entry > best_h[len(hp)]:
                    break
                tied = False
            hp.append(entry)
            t = hinv[s]
            if label[t] < 0:
                label[t] = n
                n += 1
                order.append(t)
            t = v[s]
            if label[t] < 0:
                label[t] = n
                n += 1
                order.append(t)
            vp.append(label[t])
            t = vinv[s]
            if label[t] < 0:
                label[t] = n
                n += 1
                order.append(t)
        else:
            if best_h is None:
                if n != d:
                    return None
            elif tied and vp >= best_v:
                continue
            best_h, best_v = hp, vp
    return (d, *best_h, *best_v)


def decode_canonical(code: CanonicalForm) -> Origami:
    d = code[0]
    if len(code) != 1 + 2 * d:
        raise ValueError(f"canonical form has wrong length for degree {d}")
    return Origami(d, tuple(code[1 : 1 + d]), tuple(code[1 + d :]))


def is_isomorphic(o1: Origami, o2: Origami) -> bool:
    if o1.d != o2.d:
        return False
    return canonical_form(o1) == canonical_form(o2)


def relabel(o: Origami, sigma: Sequence[int]) -> Origami:
    """Conjugate both permutations by sigma (sigma maps old label -> new); only sigma is checked."""
    sigma = _check_perm(sigma, o.d, "sigma")
    inv = invert_perm(sigma)
    return Origami._trusted(o.d, *(tuple(sigma[p[i]] for i in inv) for p in (o.h, o.v)))


# --- integer shear and rotation actions -------------------------------------
# Each move composes the permutations of a valid origami, so its image is
# valid too and is built without checking it again.


def act_T(o: Origami) -> Origami:
    """Horizontal unit shear: rows stay, the top-neighbor map becomes h^-1 v.

    After shearing, climbing out of square s lands one square further left in
    the row above, which composes the old climb with one step of h^-1.
    """
    hinv = o._hinv
    return Origami._trusted(o.d, o.h, tuple(hinv[o.v[s]] for s in range(o.d)))


def act_T_inverse(o: Origami) -> Origami:
    return Origami._trusted(o.d, o.h, tuple(o.h[o.v[s]] for s in range(o.d)))


def act_S(o: Origami) -> Origami:
    """Quarter turn: rows become columns; (h, v) -> (v, h^-1).  S^4 = id."""
    return Origami._trusted(o.d, o.v, o._hinv)


class OrbitData(_Record):
    """Closure of one origami under the shear and quarter-turn moves.

    elements are canonical forms in sorted order; cusp_widths are the sizes
    of the shear orbits on the elements, largest first; edges hold, sorted,
    one (source index, move label, target index) triple per element and
    move, with the labels "S", "T" and "T^-1".
    """

    elements: tuple[CanonicalForm, ...]
    cusp_widths: tuple[int, ...]
    edges: tuple[tuple[int, str, int], ...]


def orbit(o: Origami, max_elements: int = 10000) -> OrbitData:
    """The SL(2,Z) orbit of o, as a permutation representation on its classes.

    The orbit is explored with the generators S and T only: on a finite set,
    closure under S and T is closure under T^-1 as well.  The S and T images
    of the sorted elements are index permutations s and t; the T^-1 edges
    are those of the inverse of t, and the cusp widths are the cycle lengths
    of t.  Raises RuntimeError when the orbit has more than max_elements
    elements.  Logs at DEBUG on the flatkit.origami logger the nodes, the
    edges and the canonical forms computed: the start's, and those of the S
    and T images of each node.  The elements are canonical codes of valid
    origamis, so each is read back, and moved, without checking its
    permutations again.
    """
    import logging

    if max_elements < 1:
        raise ValueError("max_elements must be at least 1")
    start = canonical_form(o)
    forms = 1
    images: dict[CanonicalForm, tuple[CanonicalForm, CanonicalForm]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        code = frontier.pop()
        d = code[0]
        rep = Origami._trusted(d, code[1 : 1 + d], code[1 + d :])
        images[code] = (canonical_form(act_S(rep)), canonical_form(act_T(rep)))
        forms += 2
        for image in images[code]:
            if image not in seen:
                if len(seen) == max_elements:
                    raise RuntimeError(
                        f"budget exceeded: orbit has more than {max_elements} elements"
                    )
                seen.add(image)
                frontier.append(image)

    elements = tuple(sorted(seen))
    index = {code: i for i, code in enumerate(elements)}
    s = [index[images[code][0]] for code in elements]
    t = [index[images[code][1]] for code in elements]
    if sorted(t) != list(range(len(elements))):
        raise RuntimeError("the shear does not permute the orbit")
    edges = sorted(
        (i, label, target)
        for label, targets in (("S", s), ("T", t), ("T^-1", invert_perm(t)))
        for i, target in enumerate(targets)
    )
    widths = sorted(map(len, cycles_of(t)), reverse=True)
    logging.getLogger(__name__).debug(
        "orbit: %d nodes, %d edges, %d canonical forms", len(elements), len(edges), forms
    )
    return OrbitData(elements, tuple(widths), tuple(edges))


# --- horizontal cylinders ---------------------------------------------------


class Cylinder(_Record):
    width: int
    height: int


class CylinderDecomposition(_Record):
    cylinders: tuple[Cylinder, ...]


def cylinders(o: Origami) -> CylinderDecomposition:
    """Horizontal cylinders: rows of squares merged across clean interfaces.

    Each cycle of h is a row.  The interface above a row is free of cone
    points exactly when no top corner of the row lies in a singular vertex;
    then the row above continues the same cylinder.  The cycle of s under the
    corner permutation is the vertex at the bottom-left corner of s, so the
    top-left corner of s is the vertex of v(s); the top-right corner of s is
    the top-left corner of h(s), in the same row.
    """
    singular = {s for cyc in o._corner_cycles if len(cyc) > 1 for s in cyc}
    rows = cycles_of(o.h)
    row_of = {s: r for r, row in enumerate(rows) for s in row}

    links = []
    for r, row in enumerate(rows):
        clean = all(o.v[s] not in singular for s in row)
        if not clean:
            continue
        above = {row_of[o.v[s]] for s in row}
        if len(above) != 1:
            raise RuntimeError(f"clean interface above row {row} maps to several rows")
        r_above = above.pop()
        if len(rows[r_above]) != len(row):
            raise RuntimeError(f"clean interface joins rows of different widths")
        links.append((r, r_above))

    # Links only join rows of equal width, so a cylinder has the width of its root row.
    roots = _roots(len(rows), links)
    cyls = [Cylinder(len(rows[root]), roots.count(root)) for root in set(roots)]
    cyls.sort(key=lambda c: (c.width, c.height), reverse=True)
    total = sum(c.width * c.height for c in cyls)
    if total != o.d:
        raise RuntimeError(f"cylinder areas sum to {total}, expected {o.d}")
    return CylinderDecomposition(tuple(cyls))


# --- enumeration ------------------------------------------------------------


def random_origami(d: int, rng: random.Random) -> Origami:
    """Uniform connected pair by rejection sampling."""
    labels = list(range(d))
    while True:
        h = labels[:]
        v = labels[:]
        rng.shuffle(h)
        rng.shuffle(v)
        o = Origami(d, tuple(h), tuple(v))
        if is_connected(o):
            return o


def origamis_in_stratum(d: int, orders: Sequence[int]) -> Iterator[Origami]:
    """All connected degree-d origamis whose zero orders equal the given ones.

    One representative per isomorphism class, in its canonical labeling, in
    the order the scan first meets the class: itertools.permutations order
    below _NUMPY_DEGREE, _all_perms_array column order from it on, so the
    two paths list the same classes in different orders.  A class is one
    orbit of the raw pairs under conjugation by the centralizer of h, and
    one canonical form is computed per class.  Degrees too small to carry
    the orders give an empty enumeration; orders that are not positive
    integers with an even sum raise ValueError.
    """
    from . import census

    yield from census._classes(d, orders)


def stratum_pairs_raw(d: int, orders: Sequence[int]) -> Iterator[tuple[Perm, Perm]]:
    """Raw (h, v) permutation pairs whose corner cycle type matches orders.

    Below _RAW_DEGREE one pair per isomorphism class (all connected).  From
    it on every labeled pair with the right cycle type, with NO connectivity
    check, one tuple pair per row of the numpy batches in scan order
    (_scan_rank): the superset that a universally quantified scan needs.
    """
    from . import census

    yield from census._raw_pairs(d, orders)
