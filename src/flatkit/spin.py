"""Mod-2 homology machinery for square-tiled surfaces.

Curves are realized as cycles through square centers that cross each side
they pass perpendicularly at its midpoint.  From a spanning tree of the
center graph we get d+1 fundamental cycles; their pairwise intersection
parities, counted against a copy of one curve pushed off by a small
translation, and their winding indices define a quadratic form on mod-2
homology whose Arf invariant is the spin parity of the surface.  The module
also detects the 180-degree flat involution with sphere quotient and
classifies the connected component of the ambient stratum.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import origami as origami_mod
from . import strata
from .origami import Origami, commutator, cycles_of, invert_perm, singularity_orders
from .strata import ComponentLabel

if TYPE_CHECKING:
    import numpy as np

_DIRS = ("E", "N", "W", "S")
_IDX = {"E": 0, "N": 1, "W": 2, "S": 3}


def _opp(direction: str) -> str:
    return _DIRS[(_IDX[direction] + 2) % 4]


def _step_target(o: Origami, hinv: Sequence[int], vinv: Sequence[int], s: int, direction: str) -> int:
    if direction == "E":
        return o.h[s]
    if direction == "N":
        return o.v[s]
    if direction == "W":
        return hinv[s]
    if direction == "S":
        return vinv[s]
    raise ValueError(f"bad direction {direction!r}")


def _step_edge(hinv: Sequence[int], vinv: Sequence[int], s: int, direction: str) -> tuple[int, str]:
    """The tiling edge a step crosses, named by (square, 'E' or 'N')."""
    if direction == "E":
        return (s, "E")
    if direction == "N":
        return (s, "N")
    if direction == "W":
        return (hinv[s], "E")
    if direction == "S":
        return (vinv[s], "N")
    raise ValueError(f"bad direction {direction!r}")


@dataclass(frozen=True)
class SimpleCycle:
    """A closed, reduced, vertex-simple path through square centers.

    Each step (square, direction) moves to the neighboring square; the drawn
    curve enters a square through one edge midpoint and leaves through
    another.  Vertex-simple means no square is visited twice; reduced means
    no edge is crossed twice, so chords never degenerate.
    """

    origami: Origami
    steps: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        steps = tuple((int(s), str(direction)) for s, direction in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("cycle must have at least one step")
        o = self.origami
        hinv, vinv = invert_perm(o.h), invert_perm(o.v)
        squares = [s for s, _ in steps]
        if len(set(squares)) != len(squares):
            raise ValueError("cycle visits a square twice")
        for i, (s, direction) in enumerate(steps):
            target = _step_target(o, hinv, vinv, s, direction)
            nxt = steps[(i + 1) % len(steps)][0]
            if target != nxt:
                raise ValueError(f"step {i} lands on square {target}, not {nxt}")
        edges = [_step_edge(hinv, vinv, s, direction) for s, direction in steps]
        if len(set(edges)) != len(edges):
            raise ValueError("cycle crosses an edge twice")

    def edges(self) -> tuple[tuple[int, str], ...]:
        o = self.origami
        hinv, vinv = invert_perm(o.h), invert_perm(o.v)
        return tuple(_step_edge(hinv, vinv, s, d) for s, d in self.steps)

    def chords(self) -> dict[int, tuple[str, str]]:
        """Per visited square, the (entry side, exit side) of the chord."""
        out: dict[int, tuple[str, str]] = {}
        n = len(self.steps)
        for i, (s, direction) in enumerate(self.steps):
            entry = _opp(self.steps[(i - 1) % n][1])
            out[s] = (entry, direction)
        return out


def fundamental_cycles(o: Origami, rng: Optional[random.Random] = None) -> list[SimpleCycle]:
    """One cycle per non-tree edge of a spanning tree of the center graph.

    The tree is breadth-first from square 0 with neighbor order right, up,
    left, down; passing an rng shuffles the neighbor order at every square,
    giving a random spanning tree instead.  Each of the d+1 returned cycles
    is the non-tree edge closed up through the tree, which is automatically
    vertex-simple; together they span the mod-2 cycle space.
    """
    d = len(o.h)
    hinv, vinv = invert_perm(o.h), invert_perm(o.v)
    parent = [-1] * d
    dir_from_parent: list[Optional[str]] = [None] * d
    depth = [0] * d
    seen = [False] * d
    seen[0] = True
    queue = deque([0])
    tree_edges: set[tuple[int, str]] = set()
    while queue:
        s = queue.popleft()
        order = list(_DIRS)
        if rng is not None:
            rng.shuffle(order)
        for direction in order:
            t = _step_target(o, hinv, vinv, s, direction)
            if not seen[t]:
                seen[t] = True
                parent[t] = s
                dir_from_parent[t] = direction
                depth[t] = depth[s] + 1
                tree_edges.add(_step_edge(hinv, vinv, s, direction))
                queue.append(t)
    if not all(seen):
        raise ValueError("not connected: h and v do not act transitively")

    def tree_path(a: int, b: int) -> list[tuple[int, str]]:
        """Steps along the tree from square a to square b."""
        up_from_a: list[tuple[int, str]] = []
        descend_nodes: list[int] = []
        x, y = a, b
        while depth[x] > depth[y]:
            up_from_a.append((x, _opp(dir_from_parent[x])))
            x = parent[x]
        while depth[y] > depth[x]:
            descend_nodes.append(y)
            y = parent[y]
        while x != y:
            up_from_a.append((x, _opp(dir_from_parent[x])))
            x = parent[x]
            descend_nodes.append(y)
            y = parent[y]
        for node in reversed(descend_nodes):
            up_from_a.append((parent[node], dir_from_parent[node]))
        return up_from_a

    cycles = []
    for s in range(d):
        for letter in ("E", "N"):
            if (s, letter) in tree_edges:
                continue
            t = o.h[s] if letter == "E" else o.v[s]
            steps = tree_path(t, s) + [(s, letter)]
            cycles.append(SimpleCycle(o, tuple(steps)))
    assert len(cycles) == d + 1
    return cycles


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
# the midpoint of the E side: the curve itself at the midpoint, and its copy
# pushed by (-eps, +eps) just counterclockwise of the midpoint on the E and N
# sides and just clockwise of it on the W and S sides.
_MIDPOINT = {"E": 0, "N": 4, "W": 8, "S": 12}
_PUSHED = {"E": 1, "N": 5, "W": 7, "S": 11}


def pairing_mod2(c1: SimpleCycle, c2: SimpleCycle) -> int:
    """Mod-2 intersection number of two vertex-simple cycles.

    Sides are glued by translations, so shifting c2 by a small (-eps, +eps)
    gives a homologous curve, and the shifted crossings of a glued side
    agree seen from both of its squares.  The pushed curve shares no
    crossing point with c1, so inside each square both visit the two arcs
    cross an odd number of times exactly when one pushed end lies strictly
    between c1's two ends.  The sum of these bits over the squares is the
    intersection number mod 2.
    """
    if c1.origami != c2.origami:
        raise ValueError("cycles live on different origamis")
    chords2 = c2.chords()
    total = 0
    for square, (entry, exit_) in c1.chords().items():
        other = chords2.get(square, ())
        start = _MIDPOINT[entry]
        span = (_MIDPOINT[exit_] - start) % 16
        total += sum(0 < (_PUSHED[side] - start) % 16 < span for side in other)
    return total % 2


# --- quadratic form and Arf invariant ----------------------------------------


@dataclass(frozen=True)
class QuadraticFormData:
    """Intersection pairing and winding parities on the fundamental cycles.

    pairing is the symmetric bit matrix of mod-2 crossing numbers; q_values
    holds (turning index + 1) mod 2 per cycle.  The form descends to mod-2
    homology: the radical of the pairing is exactly the kernel of that
    descent, q vanishes on it (checked), and the symplectic rank is 2g.
    arf is the spin parity.
    """

    cycles: tuple[SimpleCycle, ...]
    pairing: tuple[tuple[int, ...], ...]
    q_values: tuple[int, ...]
    radical_rank: int
    symplectic_rank: int
    arf: int


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_quadratic_form(o: Origami, rng: Optional[random.Random] = None) -> QuadraticFormData:
    signature = singularity_orders(o)
    if any(m % 2 for m in signature.orders):
        raise ValueError("spin undefined: odd zero order")
    g = signature.genus
    cycles = tuple(fundamental_cycles(o, rng))
    m = len(cycles)
    rows = [0] * m
    for i in range(m):
        if pairing_mod2(cycles[i], cycles[i]) != 0:
            raise RuntimeError("self-pairing must vanish")
        for j in range(i + 1, m):
            if pairing_mod2(cycles[i], cycles[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    q_values = tuple((turning_index(c) + 1) % 2 for c in cycles)

    def bilinear(x: int, y: int) -> int:
        acc = 0
        for i in _bits(x):
            acc ^= (rows[i] & y).bit_count() & 1
        return acc

    def q_ext(x: int) -> int:
        acc = 0
        for i in _bits(x):
            acc ^= q_values[i]
            higher = x & ~((1 << (i + 1)) - 1)
            acc ^= (rows[i] & higher).bit_count() & 1
        return acc

    # Radical = nullspace of the pairing matrix over GF(2).
    reduced: list[tuple[int, int, int]] = []  # (row, pivot bit, combination)
    radical: list[int] = []
    for i in range(m):
        row, comb = rows[i], 1 << i
        for prow, pbit, pcomb in reduced:
            if (row >> pbit) & 1:
                row ^= prow
                comb ^= pcomb
        if row == 0:
            radical.append(comb)
        else:
            reduced.append((row, row.bit_length() - 1, comb))
    for r in radical:
        if q_ext(r) != 0:
            raise ValueError("radical q nonzero: intersection pairing is inconsistent")

    # Symplectic reduction: repeatedly split off a crossing pair and make the
    # rest orthogonal to it.
    pool = [1 << i for i in range(m)]
    pairs: list[tuple[int, int]] = []
    while True:
        hit = None
        for ai in range(len(pool)):
            for bi in range(ai + 1, len(pool)):
                if bilinear(pool[ai], pool[bi]):
                    hit = (ai, bi)
                    break
            if hit:
                break
        if hit is None:
            break
        ai, bi = hit
        a, b = pool[ai], pool[bi]
        pairs.append((a, b))
        rest = []
        for k, w in enumerate(pool):
            if k in (ai, bi):
                continue
            if bilinear(w, b):
                w ^= a
            if bilinear(w, a):
                w ^= b
            rest.append(w)
        pool = rest
    symplectic_rank = 2 * len(pairs)
    if symplectic_rank != 2 * g:
        raise RuntimeError(
            f"symplectic rank {symplectic_rank} does not match 2g = {2 * g}"
        )
    arf = 0
    for a, b in pairs:
        arf ^= q_ext(a) & q_ext(b)
    matrix = tuple(
        tuple((rows[i] >> j) & 1 for j in range(m)) for i in range(m)
    )
    return QuadraticFormData(cycles, matrix, q_values, len(radical), symplectic_rank, arf)


def spin_parity(o: Origami, rng: Optional[random.Random] = None) -> int:
    """Arf invariant of the winding quadratic form; needs all even zero orders."""
    return build_quadratic_form(o, rng).arf


# --- flat involution ---------------------------------------------------------


def _involution_core(
    d: int,
    h: Sequence[int],
    v: Sequence[int],
    hinv: Sequence[int],
    vinv: Sequence[int],
) -> Optional[tuple[int, ...]]:
    """Permutation-level involution search shared by the single-surface API
    and the exhaustive scans.  A witness forces transitivity: the defining
    propagation must reach every square, so feeding a non-transitive pair
    just returns None.
    """
    comm = [h[v[hinv[vinv[s]]]] for s in range(d)]
    cycle_id = [-1] * d
    cycle_reps = []
    for s in range(d):
        if cycle_id[s] >= 0:
            continue
        idx = len(cycle_reps)
        cycle_reps.append(s)
        u = s
        while cycle_id[u] < 0:
            cycle_id[u] = idx
            u = comm[u]
    g = (d - len(cycle_reps)) // 2 + 1
    target = 2 * g + 2

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
        fixed = sum(1 for s in squares if sigma[s] == s)
        fixed += sum(1 for s in squares if sigma[s] == h[s])
        fixed += sum(1 for s in squares if sigma[s] == v[s])
        for s in cycle_reps:
            if cycle_id[h[v[sigma[s]]]] == cycle_id[s]:
                fixed += 1
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

    This works at the permutation level throughout so that exhaustive scans
    stay fast.  The genus comes from the corner permutation, the source of
    truth for origami strata, which the tests check against the polygon
    model.
    """
    return _involution_core(o.d, o.h, o.v, invert_perm(o.h), invert_perm(o.v))


def _propagation_survivors(batch: origami_mod.PairBatch) -> np.ndarray:
    """Rows of a batch on which some sigma(0) propagates to every square.

    An involution sigma conjugates h to h^-1, so sigma(0) can only be a
    square t whose h-cycle is as long as the h-cycle of 0.  For each such t,
    every round applies sigma(h(s)) = h^-1(sigma(s)) and then
    sigma(v(s)) = v^-1(sigma(s)) to the whole state matrix at once, int8 with
    -1 for an image not known yet.  A row drops out when two images of one
    square clash, when a round adds no image (0 does not reach every square)
    or when every image is known; only the last kind survives.  A witness
    meets no clash and reaches every square, so every row with a flat
    involution survives.  Returns a boolean mask over the rows of the batch.
    """
    import numpy as np

    def merge(state, image):
        """Both partial maps together, and the rows where they disagree."""
        clash = ((state != image) & ((state | image) >= 0)).any(axis=0)
        return np.maximum(state, image), clash

    n, d = batch.v.shape
    length = [0] * d
    for cycle in cycles_of(batch.h.tolist()):
        for s in cycle:
            length[s] = len(cycle)
    candidates = [t for t in range(d) if length[t] == length[0]]
    hinv_rows = batch.hinv.astype(np.intp)
    hinv_images = np.append(batch.hinv, np.int8(-1))  # index -1 stays -1
    survive = np.zeros(n, dtype=bool)
    for lo in range(0, n, origami_mod._BLOCK):
        for t in candidates:
            # One column per row of the batch: state[s] holds sigma(s), and
            # vinv has a last row of -1, which index -1 wraps to.
            alive = lo + np.flatnonzero(~survive[lo : lo + origami_mod._BLOCK])
            vinv = np.full((d + 1, len(alive)), -1, dtype=np.int8)
            vinv[:d] = np.take(batch.vinv, alive, axis=0).T
            state = np.full((d, len(alive)), -1, dtype=np.int8)
            state[0] = t
            while len(alive):
                before = state
                state, clash_h = merge(state, hinv_images[state[hinv_rows]])
                at = state.ravel()[origami_mod._flat_index(vinv[:d])]
                image = vinv.ravel()[origami_mod._flat_index(at)]
                state, clash_v = merge(state, image)
                clash = clash_h | clash_v
                complete = state.min(axis=0) >= 0
                survive[alive[complete & ~clash]] = True
                keep = ~(clash | complete | (state == before).all(axis=0))
                alive = alive[keep]
                state = np.compress(keep, state, axis=1)
                vinv = np.compress(keep, vinv, axis=1)
    return survive


def _batch_scan(d: int, orders: Sequence[int]) -> tuple[int, int]:
    """hyperelliptic_scan over every raw pair of the numpy batches.

    Only the rows that survive _propagation_survivors go to _involution_core.
    Each cycle type of h logs its funnel at DEBUG: rows scanned, rows passing
    the fixed-point and the power filters of the kernel, propagation
    survivors and witnesses.
    """
    import logging

    log = logging.getLogger(__name__)
    scanned = 0
    hits = 0
    for batch in origami_mod._stratum_batches(d, orders):
        survive = _propagation_survivors(batch)
        h, hinv = batch.h.tolist(), batch.hinv.tolist()
        witnesses = sum(
            _involution_core(d, h, v, hinv, vinv) is not None
            for v, vinv in zip(batch.v[survive].tolist(), batch.vinv[survive].tolist())
        )
        log.debug(
            "hyperelliptic_scan d=%d h type %s: %d rows, %d pass fixed points, "
            "%d pass powers, %d survive propagation, %d witnesses",
            d, batch.cycle_type, batch.rows, batch.fixed_point_rows, len(batch.v),
            int(survive.sum()), witnesses,
        )
        scanned += len(batch.v)
        hits += witnesses
    return scanned, hits


def hyperelliptic_scan(d: int, orders: Sequence[int]) -> tuple[int, int]:
    """Exhaustively test a stratum's degree-d pairs for flat involutions.

    Returns (pairs scanned, pairs admitting an involution).  Below degree 9
    the pairs are one per isomorphism class (origami.stratum_pairs_raw).
    From degree 9 on the scan covers every labeled cycle-type match,
    including non-transitive pairs, read as numpy batches (_batch_scan);
    non-transitive pairs can never produce a witness (see _involution_core),
    so a zero count proves no origami of the stratum in that degree is
    hyperelliptic.  The batch scan logs a funnel per cycle type of h at
    DEBUG on the flatkit.spin logger.
    """
    if d >= origami_mod._RAW_DEGREE:
        return _batch_scan(d, orders)
    scanned = 0
    hits = 0
    for h, v in origami_mod.stratum_pairs_raw(d, orders):
        scanned += 1
        if _involution_core(d, h, v, invert_perm(h), invert_perm(v)) is not None:
            hits += 1
    return scanned, hits


def _involution_swaps_singular_vertices(o: Origami, sigma: Sequence[int]) -> bool:
    """Whether the involution exchanges the two cone points (when there are two)."""
    comm_cycles = cycles_of(commutator(o))
    cycle_id = {}
    for idx, cyc in enumerate(comm_cycles):
        for s in cyc:
            cycle_id[s] = idx
    singular = [idx for idx, cyc in enumerate(comm_cycles) if len(cyc) > 1]
    if len(singular) != 2:
        return False
    images = []
    for idx in singular:
        s = comm_cycles[idx][0]
        images.append(cycle_id[o.h[o.v[sigma[s]]]])
    return images == [singular[1], singular[0]]


def classify_component(o: Origami) -> ComponentLabel:
    """Connected component of the stratum containing the surface.

    Decision: in a connected stratum the label is Connected; otherwise the
    flat involution decides hyperellipticity (in the two-equal-zeros strata
    of odd genus it must additionally swap the zeros), and the spin parity
    separates the remaining even-order components.
    """
    signature = singularity_orders(o)
    g, orders = signature.genus, signature.orders
    if g < 2:
        raise ValueError(f"component classification needs genus >= 2, got {g}")
    comps = strata.components(orders)
    if comps == (ComponentLabel.CONNECTED,):
        return ComponentLabel.CONNECTED

    minimal = orders == (2 * g - 2,)
    half_half = len(orders) == 2 and orders[0] == orders[1] == g - 1
    witness = hyperelliptic_involution(o)
    if minimal:
        if witness is not None:
            label = ComponentLabel.HYPERELLIPTIC
        else:
            label = ComponentLabel.ODD_SPIN if spin_parity(o) else ComponentLabel.EVEN_SPIN
    elif half_half and g % 2 == 0:
        label = (
            ComponentLabel.HYPERELLIPTIC
            if witness is not None
            else ComponentLabel.NON_HYPERELLIPTIC
        )
    elif half_half:
        if witness is not None and _involution_swaps_singular_vertices(o, witness):
            label = ComponentLabel.HYPERELLIPTIC
        else:
            label = ComponentLabel.ODD_SPIN if spin_parity(o) else ComponentLabel.EVEN_SPIN
    else:
        label = ComponentLabel.ODD_SPIN if spin_parity(o) else ComponentLabel.EVEN_SPIN
    if label not in comps:
        raise RuntimeError(f"label {label} not among components {comps} (decision bug)")
    return label
