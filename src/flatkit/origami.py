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

Provides conversion to a polygon surface, stratum computation from the
corner permutation (the source of truth; the tests check it against the
polygon model), canonical forms and isomorphism, the shear and quarter-turn
actions with orbit enumeration, horizontal cylinder decompositions, and
exhaustive enumeration by stratum.  Enumeration fixes h to the
representative of its cycle type; a kernel tests one v per right coset
v C(h) of the centralizer of h (the rows of a coset share their corner
permutation), counting fixed points before the full cycle type, and
expands the passing cosets.  It is pure Python below degree 8, where
importing numpy costs more than the scan, and numpy from degree 8 on, with
one batch of int8 arrays per cycle type of h.  A class is
one orbit of the rows under conjugation by C(h).  Below degree 8 the class
loop marks each orbit at its first row; from degree 8 on one rule keeps one
row per orbit (_orbit_representatives), which the classes code once and the
involution scan of flatkit.spin tests once; each of them drops the
disconnected kept rows with a test it runs anyway.  Enumeration stops at
degree 10, where the numpy kernel holds all 10! permutations.
"""

from __future__ import annotations

import math
import random
import re
from functools import cached_property
from itertools import permutations, product
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .flatcore import EdgeRef, StratumSignature, TranslationSurface, _Record, _roots
from .strata import _integers, int_partitions, normalize_orders

if TYPE_CHECKING:
    import numpy as np

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

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, d: int) -> Perm:
    """1-based cycle notation "(1,2,3)(4,5)"; fixed points may be omitted."""
    stripped = text.strip()
    if stripped in ("", "id"):
        return tuple(range(d))
    if stripped.replace("(", "").replace(")", "").strip() == "":
        return tuple(range(d))
    consumed = _CYCLE_RE.sub("", stripped).strip()
    if consumed:
        raise ValueError(f"unparsed text {consumed!r} in cycle notation {text!r}")
    images = list(range(d))
    seen: set[int] = set()
    for group in _CYCLE_RE.findall(stripped):
        entries = [e for e in re.split(r"[,\s]+", group.strip()) if e]
        if not entries:
            continue
        try:
            cycle = [int(e) for e in entries]
        except ValueError as exc:
            raise ValueError(f"bad cycle entry in {text!r}: {exc}") from exc
        for x in cycle:
            if not 1 <= x <= d:
                raise ValueError(f"cycle entry {x} out of range 1..{d}")
            if x in seen:
                raise ValueError(f"label {x} appears twice in cycle notation {text!r}")
            seen.add(x)
        for i, x in enumerate(cycle):
            images[x - 1] = cycle[(i + 1) % len(cycle)] - 1
    return tuple(images)


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

    Blank lines are skipped and everything after a # is a comment; h and v
    may appear in either order but d must come first so omitted fixed points
    are defined.
    """
    d: Optional[int] = None
    cycles: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(d|h|v)\s*:\s*(.*)$", line)
        if m is None:
            raise ValueError(f"line {lineno}: expected 'd:', 'h:' or 'v:', got {raw!r}")
        key, rest = m.group(1), m.group(2).strip()
        if key == "d":
            if d is not None:
                raise ValueError(f"line {lineno}: duplicate 'd:' line")
            try:
                d = int(rest)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad degree {rest!r}") from exc
            if d < 1:
                raise ValueError(f"line {lineno}: degree must be positive, got {d}")
        else:
            if d is None:
                raise ValueError(f"line {lineno}: 'd:' must come before '{key}:'")
            if key in cycles:
                raise ValueError(f"line {lineno}: duplicate '{key}:' line")
            cycles[key] = (lineno, rest)
    if d is None or "h" not in cycles or "v" not in cycles:
        raise ValueError("origami text needs 'd:', 'h:' and 'v:' lines")
    # Each label is written with a digit run, and from d = 2 on a square in no
    # cycle of h or v is isolated: refuse such a degree before allocating it.
    if d <= max(1, sum(len(re.findall(r"\d+", rest)) for _, rest in cycles.values())):
        perms = {}
        for key, (lineno, rest) in cycles.items():
            try:
                perms[key] = parse_cycles(rest, d)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        o = Origami(d, perms["h"], perms["v"])
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
    """Conjugate both permutations by sigma (sigma maps old label -> new)."""
    sigma = _check_perm(sigma, o.d, "sigma")
    inv = invert_perm(sigma)
    h = tuple(sigma[o.h[inv[s]]] for s in range(o.d))
    v = tuple(sigma[o.v[inv[s]]] for s in range(o.d))
    return Origami(o.d, h, v)


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

    def __init__(
        self, elements: tuple[CanonicalForm, ...], cusp_widths: tuple[int, ...],
        edges: tuple[tuple[int, str, int], ...],
    ) -> None:
        self.__dict__.update(elements=elements, cusp_widths=cusp_widths, edges=edges)


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

    def __init__(self, width: int, height: int) -> None:
        self.__dict__.update(width=width, height=height)


class CylinderDecomposition(_Record):
    cylinders: tuple[Cylinder, ...]

    def __init__(self, cylinders: tuple[Cylinder, ...]) -> None:
        self.__dict__["cylinders"] = cylinders


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
    row_of = {}
    for r, row in enumerate(rows):
        for s in row:
            row_of[s] = r

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


def _cycle_type_rep(parts: Sequence[int]) -> Perm:
    """The permutation with consecutive cycles of the given lengths."""
    images = []
    base = 0
    for length in parts:
        images.extend(list(range(base + 1, base + length)) + [base])
        base += length
    return tuple(images)


def _centralizer_subset(parts: Sequence[int]) -> list[Perm]:
    """The elements of the centralizer of _cycle_type_rep(parts) that fix its fixed points.

    Each one maps every non-trivial cycle of h, rotated, onto a cycle of the
    same length, so there are prod_{k>=2} m_k! * k^m_k of them when h has
    m_k cycles of length k.  The identity comes first.
    """
    bases: dict[int, list[int]] = {}
    base = 0
    for length in parts:
        if length > 1:
            bases.setdefault(length, []).append(base)
        base += length
    moves_by_length = [
        [
            [
                (src + j, dst + (j + shift) % length)
                for src, dst, shift in zip(starts, targets, shifts)
                for j in range(length)
            ]
            for targets in permutations(starts)
            for shifts in product(range(length), repeat=len(starts))
        ]
        for length, starts in bases.items()
    ]
    out = []
    for moves in product(*moves_by_length):
        c = list(range(base))
        for group in moves:
            for src, dst in group:
                c[src] = dst
        out.append(tuple(c))
    return out


def _centralizer(parts: Sequence[int]) -> list[Perm]:
    """The centralizer C(h) of h = _cycle_type_rep(parts): each element of
    _centralizer_subset(parts) combined with each permutation of the fixed
    points n..d-1 of h, prod_k m_k! * k^m_k elements, k = 1 included."""
    n = sum(length for length in parts if length > 1)
    return [c[:n] + p for c in _centralizer_subset(parts) for p in permutations(range(n, len(c)))]


def _centralizer_order(parts: Sequence[int]) -> int:
    """|C(h)| = prod_k m_k! * k^m_k when h has m_k cycles of length k."""
    order = 1
    for length in set(parts):
        m = parts.count(length)
        order *= math.factorial(m) * length**m
    return order


def _coset_pairs(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Position pairs (i, j) with v[i] < v[j] exactly on the representatives
    of the right cosets v C(h), for h = _cycle_type_rep(parts).

    [h, v c] = [h, v] for every c in C(h), so the corner permutation is the
    same on the whole coset.  Composing v with c on the right permutes the
    positions of v: the fixed points of h freely, each cycle block by a
    rotation, and blocks of equal length among themselves.  Each coset thus
    holds one v whose entries on the fixed points increase, whose cycle
    blocks start with their least entry, and whose blocks of equal length
    have increasing first entries.
    """
    pairs = []
    chains: dict[int, list[int]] = {}
    base = 0
    for length in parts:
        pairs.extend((base, base + j) for j in range(1, length))
        chains.setdefault(length, []).append(base)
        base += length
    for starts in chains.values():
        pairs.extend(zip(starts, starts[1:]))
    return pairs


def _target_type(d: int, orders: Sequence[int]) -> tuple[int, ...]:
    """The corner cycle type of the orders; the caller knows that d squares carry them."""
    lengths = sorted((m + 1 for m in orders), reverse=True)
    return tuple(lengths + [1] * (d - sum(lengths)))


def _coset_representatives(parts: Sequence[int]) -> list[Perm]:
    """The representatives of the right cosets v C(h) (_coset_pairs), in
    lexicographic order, for h = _cycle_type_rep(parts).

    Each position is bounded below by at most one earlier position: a cycle
    block's later entries by its first entry, a block's first entry by the
    first entry of the previous block of the same length (fixed points are
    blocks of length 1).  So filling the positions in order, each with the
    free values above its bound taken in increasing order, lists exactly the
    permutations that pass the _coset_pairs test, in the order of
    itertools.permutations, without walking all d! of them.
    """
    d = sum(parts)
    bound = [-1] * d
    for i, j in _coset_pairs(parts):
        bound[j] = i
    v = [0] * d
    free = [True] * d
    out: list[Perm] = []

    def fill(p: int) -> None:
        if p == d:
            out.append(tuple(v))
            return
        for x in range(v[bound[p]] + 1 if bound[p] >= 0 else 0, d):
            if free[x]:
                free[x] = False
                v[p] = x
                fill(p + 1)
                free[x] = True

    fill(0)
    return out


def _python_batches(
    d: int, orders: tuple[int, ...]
) -> Iterator[tuple[Perm, Perm, list[Perm], list[Perm]]]:
    """(h, h^-1, C(h), rows) per cycle type of h, h its type representative.

    The corner cycle type is tested once per right coset v C(h), on its
    representative (_coset_representatives), and a passing coset gives all
    its rows v c, sorted into the order of itertools.permutations: the rows
    a test of all d! permutations would pass, in that order.  As in the
    numpy kernel, a representative is dropped uninverted when the conjugate
    t = v^-1 h v h^-1 of the corner permutation has the wrong number of
    fixed points, the s with h(v(h^-1(s))) = v(s).
    """
    target = list(_target_type(d, orders))
    fixed = target.count(1)
    squares = range(d)
    for parts in int_partitions(d):
        h = _cycle_type_rep(parts)
        hinv = invert_perm(h)
        centralizer = _centralizer(parts)
        rows = []
        for v in _coset_representatives(parts):
            if sum([h[v[hinv[s]]] == v[s] for s in squares]) != fixed:
                continue
            vinv = invert_perm(v)
            comm = [h[v[hinv[vinv[s]]]] for s in squares]
            if sorted(map(len, cycles_of(comm)), reverse=True) == target:
                rows.extend(tuple(map(v.__getitem__, c)) for c in centralizer)
        rows.sort()
        yield h, hinv, centralizer, rows


_NUMPY_DEGREE = 8  # the numpy kernel scans from this degree on, the Python kernel below it
_RAW_DEGREE = 9  # stratum_pairs_raw yields raw pairs from this degree on, classes below it
_MAX_DEGREE = 10  # at degree 11 the d! permutations alone would take about 440 MB
_BLOCK = 65536  # columns per numpy piece in _inverse_columns, _orbit_representatives,
# the class-order pass of _classes and spin._propagations, which bounds their temporaries


def _stratum_orders(d: int, orders: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The normalized orders, or None when d squares cannot carry them.

    Degrees above _MAX_DEGREE raise RuntimeError before anything is scanned.
    """
    orders = normalize_orders(orders)
    if d > _MAX_DEGREE:
        raise RuntimeError(
            f"budget exceeded: stratum enumeration stops at degree {_MAX_DEGREE}, got {d}"
        )
    if sum(m + 1 for m in orders) > d:
        return None
    return orders


def _all_perms_array(d: int):
    """All d! permutations of 0..d-1, one per column of a (d, d!) int8 array.

    Built by insertion.  Keeping the squares down the rows makes every
    reduction over one permutation an elementwise pass over d rows.
    """
    import numpy as np

    out = np.zeros((1, 1), dtype=np.int8)
    for k in range(2, d + 1):
        prev = out
        m = prev.shape[1]
        new = np.empty((k, m * k), dtype=np.int8)
        for pos in range(k):
            block = new[:, pos * m : (pos + 1) * m]
            block[:pos] = prev[:pos]
            block[pos] = k - 1
            block[pos + 1 :] = prev[pos:]
        out = new
    return out


def _flat_index(rows):
    """Flat positions, in a (d, n) array, of entry [rows[s, r], r] for every s, r.

    Indexing the raveled array with them applies permutation column r to
    the entries of column r, with no intermediate array beyond the result.
    """
    import numpy as np

    at = rows.astype(np.intp)
    at *= rows.shape[1]
    at += np.arange(rows.shape[1])
    return at


class PairBatch(NamedTuple):
    """The raw pairs of one cycle type of h, as int8 arrays: h and hinv of
    shape (d,), v one permutation per row, vinv their inverses.  The rows
    are whole right cosets v C(h), one coset per run of |C(h)| rows, so
    their number is a multiple of |C(h)|; they are not in scan order.
    """

    cycle_type: tuple[int, ...]
    h: np.ndarray
    hinv: np.ndarray
    v: np.ndarray
    vinv: np.ndarray


def _stratum_batches(d: int, orders: Sequence[int]) -> Iterator[PairBatch]:
    """Raw (h, v) pairs with the given corner cycle type, one batch per type of h.

    Vectorized test of the coset representatives (_coset_pairs), d!/|C(h)|
    columns per type.  The corner permutation h v h^-1 v^-1 is never formed:
    its conjugate t = v^-1 h v h^-1 has the same cycle type, and the fixed
    points of t solve h(v(h^-1(s))) = v(s), with no inversion of v.  On the
    columns passing that count, the fixed points of the powers of t pin down
    the multiplicity of every cycle length up to the largest target length.
    The rows v c^-1 of the passing cosets are gathered from the passing
    representatives through C(h)^-1, paired row by row with their inverses
    c v^-1 = _centralizer_array(parts)[vinv], one whole coset after another
    and NOT in scan order: a reader that needs that order sorts by
    _scan_rank.  Connectivity is NOT checked and isomorphic duplicates are
    NOT removed.  Every cycle type of h gets a batch, possibly empty;
    degrees too small to carry the orders give none.
    """
    import numpy as np

    orders = _stratum_orders(d, orders)
    if orders is None:
        return
    target = _target_type(d, orders)
    counts = {length: target.count(length) for length in set(target)}
    max_len = max(target)
    expected_fix = {
        k: sum(length * n for length, n in counts.items() if k % length == 0)
        for k in range(1, max_len + 1)
    }

    all_perms = _all_perms_array(d)
    squares = np.arange(d, dtype=np.int8)[:, None]
    for parts in int_partitions(d):
        h = np.array(_cycle_type_rep(parts), dtype=np.int8)
        hinv = _inverse_columns(h[:, None])[:, 0]
        v = all_perms[:, _coset_columns(all_perms, _coset_pairs(parts))]
        g = h[v[hinv]]
        keep = (g == v).sum(axis=0, dtype=np.int8) == expected_fix[1]
        v = np.compress(keep, v, axis=1)
        vinv = _inverse_columns(v)
        conj = vinv.ravel()[_flat_index(np.compress(keep, g, axis=1))]
        conj_at = _flat_index(conj)
        mask = np.ones(v.shape[1], dtype=bool)
        power = conj
        for k in range(2, max_len + 1):
            if not mask.any():
                break
            power = power.ravel()[conj_at]
            mask &= (power == squares).sum(axis=0, dtype=np.int8) == expected_fix[k]
        v, vinv = np.compress(mask, v, axis=1), np.compress(mask, vinv, axis=1)
        if v.size:  # an empty type skips its centralizer, which can hold 10! elements
            centralizer = _centralizer_array(parts)
            v = v[_inverse_columns(centralizer)].transpose(0, 2, 1).reshape(d, -1)
            vinv = centralizer[vinv].reshape(d, -1)
        yield PairBatch(parts, h, hinv, v.T, vinv.T)


def _coset_columns(perms, pairs):
    """Indices of the columns of perms that represent their coset (_coset_pairs)."""
    import numpy as np

    keep = np.ones(perms.shape[1], dtype=bool)
    for i, j in pairs:
        keep &= perms[i] < perms[j]
    return np.flatnonzero(keep)


def _centralizer_array(parts: Sequence[int]):
    """The elements of C(h), one per column of a (d, |C(h)|)
    int8 array, built with _all_perms_array: the fixed points alone give up
    to 10! elements."""
    import numpy as np

    subset = np.array(_centralizer_subset(parts), dtype=np.int8).T
    n = sum(length for length in parts if length > 1)  # the fixed points of h are n..d-1
    if n == len(subset):
        return subset
    out = np.repeat(subset, math.factorial(len(subset) - n), axis=1)
    out[n:] = np.tile(n + _all_perms_array(len(subset) - n), subset.shape[1])
    return out


def _inverse_columns(perms):
    """The inverses of the columns of a (d, n) int8 array, C-ordered, in _BLOCK pieces."""
    import numpy as np

    out = np.empty(perms.shape, dtype=np.int8)
    squares = np.arange(len(perms), dtype=np.int8)[:, None]
    for lo in range(0, perms.shape[1], _BLOCK):
        piece = perms[:, lo : lo + _BLOCK]
        inverse = np.empty(piece.shape, dtype=np.int8)  # C order: ravel() is a view
        inverse.ravel()[_flat_index(piece)] = squares
        out[:, lo : lo + _BLOCK] = inverse
    return out


def _scan_rank(vinv):
    """Column index in _all_perms_array(d) of each permutation, from its
    inverse (one per column of vinv): column sum_{k=2..d} (k-1)! * p_k holds
    the permutation whose largest k - 1 is preceded by p_k of 0..k-2, so p_k
    counts the e < k - 1 with vinv[e] < vinv[k - 1].  So the rank is the
    position of the permutation in a scan of all d! columns.
    """
    import numpy as np

    rank = np.zeros(vinv.shape[1], dtype=np.int32)
    weight = 1
    for k in range(2, vinv.shape[0] + 1):
        weight *= k - 1
        rank += weight * (vinv[: k - 1] < vinv[k - 1]).sum(axis=0, dtype=np.int32)
    return rank


def _least_conjugates(parts: Sequence[int], vinv):
    """Indices of the columns of vinv, F-canonical rows (_orbit_representatives),
    that no k in K, followed by the F-relabeling, takes to a lower _scan_rank.

    k fixes F, so the chain of k v k^-1 leaving square s is the chain of v
    leaving k^-1(s).  In an F-canonical v the chain of root r is the run
    start[r] .. start[r] + lens[r] - 1, so the F-relabeling of k v k^-1
    moves each run to the place of its root k(r) in the new root order: the
    result is p v p^-1, with p = k on 0..n-1 and the run shifts on F.
    """
    import numpy as np

    d, m = vinv.shape
    n = sum(length for length in parts if length > 1)
    alive = np.arange(m)
    # _scan_rank orders rows by digits[j] = #{e < j : vinv[e] < vinv[j]}, from the last.
    digits = np.stack([(vinv[:j] < vinv[j]).sum(axis=0, dtype=np.int8) for j in range(d)])
    relabel = n > 0 and d - n > 1  # a single fixed point never moves
    if relabel:
        # The root of each F square: the heads come in increasing root order.
        root = np.maximum.accumulate(np.where(vinv[n:] < n, vinv[n:], -1), axis=0)
        lens = np.stack([(root == r).sum(axis=0) for r in range(n)])
        start = np.cumsum(lens, axis=0) - lens
        fixed = np.arange(n, d)[:, None]
    for c in _centralizer_subset(parts)[1:] if m else ():  # [0], the identity, fixes every row
        if not len(alive):
            break
        cinv = invert_perm(c)
        if not relabel:  # the conjugate's last row first, the rest where it ties
            images = np.array(c, dtype=np.int8)
            top = images[vinv[cinv[d - 1]]]
        else:
            moved = lens[list(cinv[:n])]
            shift = (np.cumsum(moved, axis=0) - moved)[list(c[:n])] - start
            p = np.empty(vinv.shape, dtype=np.int8)
            p[:n] = np.array(c[:n], dtype=np.int8)[:, None]
            p[n:] = fixed + shift.ravel()[_flat_index(root)]
            pinv = np.empty(vinv.shape, dtype=np.int8)
            pinv[:n] = np.array(cinv[:n], dtype=np.int8)[:, None]
            pinv[n:].ravel()[_flat_index(p[n:] - n)] = fixed
            conj = p.ravel()[_flat_index(vinv.ravel()[_flat_index(pinv)])]
            top = conj[d - 1]
        keep = top >= vinv[d - 1]
        tied = np.flatnonzero(top == vinv[d - 1])
        conj = conj[:, tied] if relabel else images[vinv[:, tied][list(cinv)]]
        for j in range(d - 2, 0, -1):
            if not len(tied):
                break
            digit = (conj[:j] < conj[j]).sum(axis=0, dtype=np.int8)
            keep[tied[digit < digits[j, tied]]] = False
            same = digit == digits[j, tied]
            tied, conj = tied[same], conj[:, same]
        if not keep.all():
            alive, vinv, digits = (np.compress(keep, a, axis=-1) for a in (alive, vinv, digits))
            if relabel:
                root, lens, start = (np.compress(keep, a, axis=1) for a in (root, lens, start))
    return alive


def _orbit_representatives(batch: PairBatch):
    """One row per orbit of C(h) acting on the connected rows of the batch by
    conjugation, and some disconnected rows.

    Returns the indices, ascending, of the kept rows, then the number of
    F-canonical rows.  F = n..d-1 are the fixed points of h, and
    C(h) = K x Sym(F) with K = _centralizer_subset.  The F-relabeling of v
    walks, from each square of 0..n-1 in order, the v-chain through F, and
    labels the F squares n, n+1, ... as met.  A row is F-canonical when that
    is the identity: each f in F heads a chain (v^-1(f) < n), the heads in
    the order of the squares they leave, or follows f - 1 in its chain
    (v^-1(f) = f - 1 in F); when h is the identity (n = 0) the one chain
    starts at square 0.  A v-cycle inside F breaks the rule and disconnects
    the pair, so each Sym(F)-orbit of connected rows holds exactly one
    F-canonical row.  An F-canonical row is kept when no K-conjugate of it,
    F-relabeled, has a lower _scan_rank (_least_conjugates).  So each
    isomorphism class of the batch is kept once, and a kept connected row
    stands for |C(h)| / |Aut| rows.  Connectivity is NOT tested: it is the
    same on a whole orbit, and each consumer drops the disconnected kept
    rows with a test it runs anyway.
    """
    import numpy as np

    n = sum(length for length in batch.cycle_type if length > 1)
    first = max(n, 1)  # the one chain of h = id starts at square 0
    follow = np.arange(first - 1, len(batch.h) - 1)[:, None]  # f - 1 for f in F
    kept = []
    f_canonical = 0
    for lo in range(0, len(batch.v), _BLOCK):
        # Heads (v^-1(f) < n) in root order, the roots being distinct; other f follow f - 1.
        pred = batch.vinv[lo : lo + _BLOCK, first:].T  # v^-1(f) for f in F
        root = np.where(pred < n, pred, -1)
        ok = np.where(pred < n, root == np.maximum.accumulate(root, axis=0), pred == follow)
        rows = lo + np.flatnonzero(ok.all(axis=0))
        f_canonical += len(rows)
        kept.append(rows[_least_conjugates(batch.cycle_type, batch.vinv[rows].T.copy())])
    return (np.concatenate(kept) if kept else np.arange(0)), f_canonical


def _classes(d: int, orders: Sequence[int]) -> Iterator[Origami]:
    """One canonical origami per isomorphism class, in discovery order.

    With h fixed to its type representative, the class of (h, v) is its
    orbit {c v c^-1 : c in C(h)}, and the classes come in the scan order of
    the first row of each orbit: the order of itertools.permutations below
    _NUMPY_DEGREE, the column order of _all_perms_array (_scan_rank) from it
    on.  Below _NUMPY_DEGREE the loop walks each type's rows of the Python
    kernel (_python_batches), skips the rows already marked, and at the
    first unmarked row marks its whole orbit and computes one canonical
    code, None exactly when the orbit is disconnected; numpy is never
    imported there.  From _NUMPY_DEGREE on, each kept row of
    _orbit_representatives is coded once, the rows coded None (the
    disconnected ones) are dropped, and the classes come in the order of
    the least scan rank of their orbits; each cycle type of h logs its
    funnel at DEBUG on the flatkit.origami logger: raw pairs, F-canonical
    rows, kept rows and classes.  Each class is built from its code with no
    second check of the permutations.
    """
    if d < _NUMPY_DEGREE:
        orders = _stratum_orders(d, orders)
        if orders is None:
            return
        for h, hinv, centralizer, rows in _python_batches(d, orders):
            conjugators = [(c, invert_perm(c)) for c in centralizer] if rows else []
            marked: set[Perm] = set()
            for v in rows:
                if v in marked:
                    continue
                marked.update(
                    tuple(map(c.__getitem__, map(v.__getitem__, cinv))) for c, cinv in conjugators
                )
                code = _canonical_code(d, h, v, hinv, invert_perm(v))
                if code is not None:
                    yield Origami._trusted(d, code[1 : 1 + d], code[1 + d :])
        return

    import logging

    import numpy as np

    log = logging.getLogger(__name__)
    for batch in _stratum_batches(d, orders):
        kept, f_canonical = _orbit_representatives(batch)
        h, hinv = batch.h.tolist(), batch.hinv.tolist()
        codes = [
            _canonical_code(d, h, v, hinv, vinv)
            for v, vinv in zip(batch.v[kept].tolist(), batch.vinv[kept].tolist())
        ]
        classes = [i for i, code in enumerate(codes) if code is not None]
        log.debug(
            "origamis_in_stratum d=%d h type %s: %d pairs, %d F-canonical, %d kept, %d classes",
            d, batch.cycle_type, len(batch.v), f_canonical, len(kept), len(classes),
        )
        if not classes:  # skip the centralizer, which can hold 10! elements
            continue
        # The least scan rank over the C(h)-orbit of each class, in pieces
        # of about _BLOCK conjugates.
        kept = kept[classes]
        centralizer = _centralizer_array(batch.cycle_type)
        cinv, size = _inverse_columns(centralizer), centralizer.shape[1]
        first = np.empty(len(kept), dtype=np.int32)
        step = max(1, _BLOCK // size)
        for lo in range(0, len(kept), step):
            vinv = batch.vinv[kept[lo : lo + step]].T
            conj = centralizer[vinv[cinv], np.arange(size)[:, None]]  # (d, |C(h)|, rows)
            first[lo : lo + step] = _scan_rank(conj.reshape(d, -1)).reshape(size, -1).min(axis=0)
        for i in np.argsort(first):
            code = codes[classes[i]]
            yield Origami._trusted(d, code[1 : 1 + d], code[1 + d :])


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
    yield from _classes(d, orders)


def stratum_pairs_raw(d: int, orders: Sequence[int]) -> Iterator[tuple[Perm, Perm]]:
    """Raw (h, v) permutation pairs whose corner cycle type matches orders.

    Below _RAW_DEGREE one pair per isomorphism class (all connected).  From
    it on every labeled pair with the right cycle type, with NO connectivity
    check, one tuple pair per row of the numpy batches in scan order
    (_scan_rank): the superset that a universally quantified scan needs.
    """
    if d < _RAW_DEGREE:
        for o in _classes(d, orders):
            yield o.h, o.v
        return
    for batch in _stratum_batches(d, orders):
        h = tuple(batch.h.tolist())
        for row in batch.v[_scan_rank(batch.vinv.T).argsort()].tolist():
            yield h, tuple(row)
