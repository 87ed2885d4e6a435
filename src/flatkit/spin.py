"""Mod-2 homology machinery for square-tiled surfaces.

Curves are realized as cycles through square centers that cross each side
they pass perpendicularly at its midpoint.  From a spanning tree of the
center graph we get d+1 fundamental cycles; their pairwise intersection
parities, counted against a copy of one curve pushed off by a small
translation, and their winding indices define a quadratic form on mod-2
homology whose Arf invariant is the spin parity of the surface.  One walk
of the tree gives every cycle as squares and direction numbers, and one
loop over each cycle's steps gives its chords (entry and exit side per
square) and its turning total; a 256-entry table holds the crossing bit of
every pair of chords, and one pass over the squares reads it for every
pair of cycles that meet there, so the whole pairing comes from one walk.
One GF(2) reduction of the pairing, on (combination, row, q) triples of
ints, yields both the symplectic pairs and a basis of the radical.  The
cycles of a spanning tree are checked by the tree walk that builds them,
not again by SimpleCycle.  The module also detects the 180-degree flat
involution with sphere quotient and classifies the connected component of
the ambient stratum; hyperelliptic_scan runs the scan of flatkit.census.
h^-1, v^-1, the corner cycles, the stratum and the vertex of each square
come from the origami's own cache (see flatkit.origami), once per origami;
the involution search and the zero-swap test of classify_component read
them there, and spin_parity and hyperelliptic_involution store their answers
there too.
"""

from __future__ import annotations

import random
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import strata
from ._base import _Record
from .origami import Origami, singularity_orders
from .strata import ComponentLabel

_DIRS = ("E", "N", "W", "S")
_IDX = {"E": 0, "N": 1, "W": 2, "S": 3}
_Walk = tuple[tuple[int, ...], tuple[int, ...]]  # a cycle's squares and direction numbers


def _moves(o: Origami) -> dict[str, Sequence[int]]:
    """The square a step in each direction lands on, per starting square."""
    return {"E": o.h, "N": o.v, "W": o._hinv, "S": o._vinv}


def _edge(moves: Mapping[str, Sequence[int]], s: int, direction: str) -> tuple[int, str]:
    """The tiling edge a step crosses, named by the square whose E or N side it is."""
    if direction in ("E", "N"):
        return (s, direction)
    return (moves[direction][s], _DIRS[(_IDX[direction] + 2) % 4])


class SimpleCycle(_Record):
    """A closed, reduced, vertex-simple path through square centers.

    Each step (square, direction) moves to the neighboring square; the drawn
    curve enters a square through one edge midpoint and leaves through
    another.  Vertex-simple means no square is visited twice; reduced means
    no edge is crossed twice, so chords never degenerate.  Squares must be
    integers in 0..d-1 and directions one of E, N, W, S.
    """

    origami: Origami
    steps: tuple[tuple[int, str], ...]

    def __init__(self, origami: Origami, steps: Sequence[tuple[int, str]]) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("cycle must have at least one step")
        squares = strata._integers([s for s, _ in steps], "square")
        directions = [direction for _, direction in steps]
        if not all(0 <= s < origami.d for s in squares):
            raise ValueError(f"squares must lie in 0..{origami.d - 1}, got {squares}")
        if not all(direction in _DIRS for direction in directions):
            raise ValueError(f"directions must be among {_DIRS}, got {directions}")
        steps = tuple(zip(squares, map(str, directions)))
        if len(set(squares)) != len(squares):
            raise ValueError("cycle visits a square twice")
        moves = _moves(origami)
        for i, (s, direction) in enumerate(steps):
            target = moves[direction][s]
            nxt = squares[(i + 1) % len(steps)]
            if target != nxt:
                raise ValueError(f"step {i} lands on square {target}, not {nxt}")
        edges = [_edge(moves, s, direction) for s, direction in steps]
        if len(set(edges)) != len(edges):
            raise ValueError("cycle crosses an edge twice")
        self.__dict__.update(origami=origami, steps=steps)

    def edges(self) -> tuple[tuple[int, str], ...]:
        moves = _moves(self.origami)
        return tuple(_edge(moves, s, d) for s, d in self.steps)

    @classmethod
    def _trusted(cls, origami: Origami, walk: _Walk) -> SimpleCycle:
        """A cycle from a walk whose steps already meet every check of
        __init__, which does not run."""
        squares, ways = walk
        cycle = object.__new__(cls)
        cycle.__dict__.update(origami=origami, steps=tuple(zip(squares, [_DIRS[k] for k in ways])))
        return cycle

    @cached_property
    def chords(self) -> Mapping[int, int]:
        """Per visited square, its chord 4 * entry side + exit side, with the
        sides numbered as in _DIRS."""
        chords = {}
        back = self.steps[-1][1]
        for s, direction in self.steps:
            chords[s] = 4 * ((_IDX[back] + 2) % 4) + _IDX[direction]
            back = direction
        return MappingProxyType(chords)


def _tree_walks(o: Origami, rng: Optional[random.Random] = None) -> list[_Walk]:
    """The cycles of fundamental_cycles in its order, with directions numbered
    as in _DIRS: each tree path climbs by depth from both ends of the
    closing edge until they meet."""
    d = o.d
    moves = (o.h, o.v, o._hinv, o._vinv)
    # per square: its parent, the direction of the step from it, its depth
    parent, way, depth = [0] * d, [0] * d, [0] + [-1] * (d - 1)
    tree = set()  # the tree edges, the E side of square s as 2s, its N side as 2s + 1
    reached = [0]
    for s in reached:
        order = [0, 1, 2, 3]
        if rng is not None:
            rng.shuffle(order)
        for k in order:
            t = moves[k][s]
            if depth[t] < 0:
                parent[t], way[t], depth[t] = s, k, depth[s] + 1
                tree.add(2 * s + k if k < 2 else 2 * t + k - 2)
                reached.append(t)
    if len(reached) != d:
        raise ValueError("not connected: h and v do not act transitively")
    walks = []
    for s, k in (divmod(edge, 2) for edge in range(2 * d) if edge not in tree):
        # steps up from a = moves[k][s] as square, direction; down to s as
        # direction, square, so that the reversed list reads square, direction
        a, b, up, down = moves[k][s], s, [], []
        while a != b:
            if depth[a] >= depth[b]:
                up += (a, way[a] ^ 2)
                a = parent[a]
            else:
                down += (way[b], parent[b])
                b = parent[b]
        steps = up + down[::-1] + [s, k]
        walks.append((tuple(steps[::2]), tuple(steps[1::2])))
    assert len(walks) == d + 1
    return walks


def fundamental_cycles(o: Origami, rng: Optional[random.Random] = None) -> list[SimpleCycle]:
    """One cycle per non-tree edge of a spanning tree of the center graph.

    The tree is breadth-first from square 0 with neighbor order right, up,
    left, down; passing an rng shuffles the neighbor order at every square,
    giving a random spanning tree instead.  Each of the d+1 returned cycles
    is the non-tree edge closed up through the tree, which is automatically
    vertex-simple; together they span the mod-2 cycle space.  Each step of a
    tree path lands where the next one starts, no square is on a tree path
    twice and the closing edge is no tree edge, so every cycle meets the
    checks of SimpleCycle, and they are not run again.
    """
    return [SimpleCycle._trusted(o, walk) for walk in _tree_walks(o, rng)]


def turning_index(cycle: SimpleCycle) -> int:
    """Net number of full left turns made by the drawn curve.

    Consecutive steps turn left (+1), go straight (0) or turn right (-1);
    the total is a multiple of 4 for a closed curve and the index is the
    quotient.
    """
    total = 0
    steps = cycle.steps
    n = len(steps)
    for i in range(n):
        delta = (_IDX[steps[(i + 1) % n][1]] - _IDX[steps[i][1]]) % 4
        if delta == 2:
            raise RuntimeError("cycle reverses direction; not a reduced cycle")
        total += delta if delta != 3 else -1
    if total % 4 != 0:
        raise RuntimeError(f"turning total {total} not divisible by 4")
    return total // 4


# Where a curve crosses each side of a square, in sixteenths of a turn from
# the midpoint of the E side, per side in the order of _DIRS: the curve itself
# at the midpoint, and its copy pushed by (-eps, +eps) just counterclockwise of
# the midpoint on the E and N sides and just clockwise of it on the W and S
# sides.
_MIDPOINT = (0, 4, 8, 12)
_PUSHED = (1, 5, 7, 11)


def _crossing(chord1: int, chord2: int) -> int:
    """Whether, in one square, chord1 and the pushed copy of chord2 cross an
    odd number of times: exactly one pushed end lies strictly between
    chord1's two ends."""
    start = _MIDPOINT[chord1 // 4]
    span = (_MIDPOINT[chord1 % 4] - start) % 16
    return sum(0 < (_PUSHED[side] - start) % 16 < span for side in divmod(chord2, 4)) % 2


# The crossing bit of every pair of chords, at 16 * chord1 + chord2.
_CROSS = bytes(_crossing(chord1, chord2) for chord1 in range(16) for chord2 in range(16))


def pairing_mod2(c1: SimpleCycle, c2: SimpleCycle) -> int:
    """Mod-2 intersection number of two vertex-simple cycles.

    Sides are glued by translations, so shifting c2 by a small (-eps, +eps)
    gives a homologous curve, and the shifted crossings of a glued side
    agree seen from both of its squares.  The pushed curve shares no
    crossing point with c1, so inside each square both visit the two arcs
    cross an odd number of times exactly when one pushed end lies strictly
    between c1's two ends; _CROSS holds that bit for every pair of chords.
    The sum of these bits over the squares is the intersection number mod 2.
    """
    if c1.origami != c2.origami:
        raise ValueError("cycles live on different origamis")
    chords2 = c2.chords
    total = 0
    for square, chord in c1.chords.items():
        if square in chords2:
            total ^= _CROSS[16 * chord + chords2[square]]
    return total


# --- quadratic form and Arf invariant ----------------------------------------


class QuadraticFormData(_Record):
    """Intersection pairing and winding parities on the fundamental cycles.

    pairing is the symmetric bit matrix of mod-2 crossing numbers; q_values
    holds (turning index + 1) mod 2 per cycle.  The form descends to mod-2
    homology: the radical of the pairing is exactly the kernel of that
    descent, q vanishes on it (checked), and the symplectic rank is 2g.
    arf is the spin parity.  cycles and pairing are built on first read,
    from the tree walks and from the pairing rows as bitmasks.
    """

    _origami: Origami
    _walks: tuple[_Walk, ...]
    _rows: tuple[int, ...]
    q_values: tuple[int, ...]
    radical_rank: int
    symplectic_rank: int
    arf: int

    @cached_property
    def cycles(self) -> tuple[SimpleCycle, ...]:
        return tuple(SimpleCycle._trusted(self._origami, walk) for walk in self._walks)

    @cached_property
    def pairing(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple((row >> j) & 1 for j in range(len(self._rows))) for row in self._rows)


def build_quadratic_form(o: Origami, rng: Optional[random.Random] = None) -> QuadraticFormData:
    """The winding quadratic form on the cycles fundamental_cycles(o, rng)
    gives: cycles, pairing matrix (both built on first read), q values,
    radical and symplectic ranks and Arf invariant.  One loop over each
    cycle's steps reads its chords and its turning total, with the checks
    of turning_index.  Needs all even zero orders."""
    signature = singularity_orders(o)
    if any(m % 2 for m in signature.orders):
        raise ValueError("spin undefined: odd zero order")
    g = signature.genus
    walks = tuple(_tree_walks(o, rng))
    m = len(walks)
    # pairing_mod2 for every pair of cycles at once: the chords of each
    # square in cycle order, so the lower index is c1, and bit i of diagonal
    # is pairing_mod2(cycles[i], cycles[i]).  A step in direction k after one
    # in direction back enters through side back ^ 2 and turns by k - back.
    visits: list[list[tuple[int, int]]] = [[] for _ in range(o.d)]
    q_values = []
    for i, (squares, ways) in enumerate(walks):
        back, total = ways[-1], 0
        for s, k in zip(squares, ways):
            visits[s].append((i, 4 * (back ^ 2) + k))
            turn = ((k - back + 1) & 3) - 1
            if turn == 2:
                raise RuntimeError("cycle reverses direction; not a reduced cycle")
            total += turn
            back = k
        if total % 4 != 0:
            raise RuntimeError(f"turning total {total} not divisible by 4")
        q_values.append((total // 4 + 1) % 2)
    rows = [0] * m
    diagonal = 0
    for chords in visits:
        for k, (i, chord) in enumerate(chords):
            base = 16 * chord
            diagonal ^= _CROSS[base + chord] << i
            for j, other in chords[k + 1 :]:
                if _CROSS[base + other]:
                    rows[i] ^= 1 << j
                    rows[j] ^= 1 << i
    if diagonal:
        raise RuntimeError("self-pairing must vanish")

    # One reduction: split off a crossing pair (a, b) and make the rest
    # orthogonal to it, until no two vectors left cross.  The vectors left
    # without a partner cross nothing, so they are a basis of the radical.
    # A vector is (combination of cycles c, its pairing row r, its q value),
    # so <x, y> is the parity of x's r & y's c, and
    # q(x + y) = q(x) + q(y) + <x, y> keeps q up to date.
    pool = [(1 << i, rows[i], q_values[i]) for i in range(m)]
    radical_rank = symplectic_rank = arf = 0
    while pool:
        ca, ra, qa = pool.pop()
        for k, (cb, rb, qb) in enumerate(pool):
            if (ra & cb).bit_count() & 1:
                break
        else:
            if qa:
                raise ValueError("radical q nonzero: intersection pairing is inconsistent")
            radical_rank += 1
            continue
        del pool[k]
        symplectic_rank += 2
        arf ^= qa & qb
        for k, (c, r, q) in enumerate(pool):
            if (r & cb).bit_count() & 1:
                c, r, q = c ^ ca, r ^ ra, q ^ qa ^ ((r & ca).bit_count() & 1)
            if (r & ca).bit_count() & 1:
                c, r, q = c ^ cb, r ^ rb, q ^ qb ^ ((r & cb).bit_count() & 1)
            pool[k] = (c, r, q)
    if symplectic_rank != 2 * g:
        raise RuntimeError(f"symplectic rank {symplectic_rank} does not match 2g = {2 * g}")
    return QuadraticFormData(
        o, walks, tuple(rows), tuple(q_values), radical_rank, symplectic_rank, arf
    )


def spin_parity(o: Origami, rng: Optional[random.Random] = None) -> int:
    """Arf invariant of the winding quadratic form; needs all even zero orders.
    On the default tree it is computed once per origami and stored as _arf;
    with an rng each call builds a form on that random tree, storing nothing."""
    if rng is not None:
        return build_quadratic_form(o, rng).arf
    if "_arf" not in vars(o):
        vars(o)["_arf"] = build_quadratic_form(o).arf
    return vars(o)["_arf"]


# --- flat involution ---------------------------------------------------------


def _involution_core(o: Origami) -> Optional[tuple[int, ...]]:
    """The involution search of hyperelliptic_involution, shared with the
    exhaustive scans, which store nothing.  h^-1, v^-1, the corner cycles,
    the vertex of each square and the genus come from the origami's cache,
    the last three read once a candidate passes.  A witness forces
    transitivity: the defining propagation must reach every square, so a
    non-transitive pair just returns None.
    """
    d, h, v, hinv, vinv = o.d, o.h, o.v, o._hinv, o._vinv
    squares = range(d)
    for t in squares:
        sigma = [-1] * d
        sigma[0] = t
        stack = [0]
        ok = True
        while stack and ok:
            s = stack.pop()
            image_s = sigma[s]
            u = h[s]
            image = hinv[image_s]
            if sigma[u] < 0:
                sigma[u] = image
                stack.append(u)
            elif sigma[u] != image:
                ok = False
                break
            u = v[s]
            image = vinv[image_s]
            if sigma[u] < 0:
                sigma[u] = image
                stack.append(u)
            elif sigma[u] != image:
                ok = False
                break
        if not ok or min(sigma) < 0:
            continue
        if sorted(sigma) != list(squares):
            continue
        if any(sigma[sigma[s]] != s for s in squares):
            continue
        if any(sigma[h[s]] != hinv[sigma[s]] or sigma[v[s]] != vinv[sigma[s]] for s in squares):
            continue
        g = o._signature.genus
        target = 2 * g + 2
        fixed = sum(1 for s in squares if sigma[s] == s)
        fixed += sum(1 for s in squares if sigma[s] == h[s])
        fixed += sum(1 for s in squares if sigma[s] == v[s])
        # sigma turns the bottom-left corner of s into the top-right corner of sigma(s)
        vertex = o._vertex
        fixed += sum(vertex[h[v[sigma[c[0]]]]] == k for k, c in enumerate(o._corner_cycles))
        if (target - fixed) % 4 != 0:
            raise RuntimeError(
                f"fixed-point count {fixed} incompatible with genus {g} (bookkeeping bug)"
            )
        if fixed == target:
            return tuple(sigma)
    return None


def hyperelliptic_involution(o: Origami) -> Optional[tuple[int, ...]]:
    """A 180-degree self-map with sphere quotient, as a square permutation.

    A flat involution rotating every square by half a turn sends square s to
    sigma(s) with sigma(h(s)) = h^-1(sigma(s)) and sigma(v(s)) = v^-1(sigma(s)),
    so sigma is determined by sigma(0); all d candidates are tried.  A valid
    sigma is accepted when its fixed-point count F (square centers, edge
    midpoints, and tiling vertices) reaches 2g+2, which forces quotient genus
    0.  Returns the first accepting sigma, or None.

    The search reads h^-1, v^-1, the corner cycles, the vertex of each
    square and the genus off the origami's cache, so no polygon is built.
    The corner cycles are the source of truth for origami strata, which the
    tests check against the polygon model.  The search runs once per
    origami and its answer, None included, is stored as _involution; the
    scans call _involution_core directly and store nothing.
    """
    if "_involution" not in vars(o):
        vars(o)["_involution"] = _involution_core(o)
    return vars(o)["_involution"]


def hyperelliptic_scan(d: int, orders: Sequence[int]) -> tuple[int, int]:
    """Exhaustively test a stratum's degree-d pairs for flat involutions.

    Returns (pairs scanned, pairs admitting an involution).  Below degree 9
    the pairs are one per isomorphism class: below degree 8 those of
    origami.origamis_in_stratum, at degree 8 the connected kept rows of the
    numpy batches (_batch_scan with per_class), with no canonical form
    computed.  Each pair that reaches the involution search is an Origami
    (below degree 8 the class itself, from it on one built, unchecked, per
    row that survives the vectorized propagation), so the search reads the
    corner cycles off its cache.
    From degree 9 on the scan covers every labeled cycle-type match,
    including non-transitive pairs (_batch_scan): it tests one pair per
    orbit of the centralizer of h acting by conjugation and counts each
    witness once per pair of its orbit.  Non-transitive pairs can never
    produce a witness (see _involution_core), so a zero count proves no
    origami of the stratum in that degree is hyperelliptic.  The batch scan
    logs a funnel and stage times per cycle type of h at DEBUG on the
    flatkit.spin logger.
    """
    from . import census

    return census._involution_scan(d, orders)


def classify_component(o: Origami) -> ComponentLabel:
    """Connected component of the stratum containing the surface.

    Decision: strata.components lists the components of the stratum.  In a
    connected stratum the label is Connected; where a hyperelliptic component
    exists the flat involution decides it (in the two-equal-zeros strata it
    must additionally swap the zeros); otherwise the label is
    non-hyperelliptic where that component exists and the spin parity
    everywhere else.  The witness and the parity are the answers stored on
    the origami by hyperelliptic_involution and spin_parity.
    """
    signature = singularity_orders(o)
    g, orders = signature.genus, signature.orders
    if g < 2:
        raise ValueError(f"component classification needs genus >= 2, got {g}")
    comps = strata.components(orders)
    if comps == (ComponentLabel.CONNECTED,):
        return ComponentLabel.CONNECTED
    witness = hyperelliptic_involution(o) if ComponentLabel.HYPERELLIPTIC in comps else None
    # With two zeros the involution must swap them.  It keeps cone angles, so it
    # swaps them or fixes both, and it swaps them exactly when it moves the
    # first zero's vertex.  It can fix only zeros of even order, so in even
    # genus, where both orders g - 1 are odd, it always swaps them.
    if witness is not None and len(orders) == 2:
        k, zero = next((k, c) for k, c in enumerate(o._corner_cycles) if len(c) > 1)
        if o._vertex[o.h[o.v[witness[zero[0]]]]] == k:
            witness = None
    if witness is not None:
        label = ComponentLabel.HYPERELLIPTIC
    elif ComponentLabel.NON_HYPERELLIPTIC in comps:
        label = ComponentLabel.NON_HYPERELLIPTIC
    else:
        label = ComponentLabel.ODD_SPIN if spin_parity(o) else ComponentLabel.EVEN_SPIN
    if label not in comps:
        raise RuntimeError(f"label {label} not among components {comps} (decision bug)")
    return label
