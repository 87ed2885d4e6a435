"""Test-only references, computed without the code paths they check.

h2_class_count uses the Eskin-Masur-Schmoll count of primitive origamis in
H(2): for n >= 3 squares there are

    P(n) = (3/8) (n - 2) n^2 prod_{p | n, p prime} (1 - p^-2)

of them, and none for n < 3.  An n-square origami whose lattice of periods
has index m in Z^2 is a primitive n/m-square origami pulled back along one
of the sigma(m) sublattices of index m, so the origamis of H(2) number
sum_{m | n} sigma(m) P(n/m).  Their translation automorphisms fix the single
cone point and therefore are trivial, so the count is the number of classes.
h2_orbit_sizes splits P(n) into SL(2,Z) orbits (McMullen 2005, Hubert-Lelievre
2006): one orbit for n = 3 and for even n, and for odd n >= 5 two orbits of
(3/16) (n - 3) n^2 prod and (3/16) (n - 1) n^2 prod, which add up to P(n).

commutator_counts counts, for h of each cycle type mu, the v whose corner
permutation [h, v] = h v h^-1 v^-1 has a given cycle type lam.  The pairs
(x, y) in C_mu x C_mu with x y = g number
|C_mu|^2/d! sum_chi chi(mu)^2 chi(g)/chi(1) (Frobenius; the counting behind
Eskin-Okounkov 2001).  Conjugation shows that every x in C_mu has the same
number of y in C_mu with x y in C_lam, |C_lam| |C_mu|/d! times the sum,
and each y = v h^-1 v^-1 comes from |C(h)| = d!/|C_mu| choices of v, so
|C_lam| sum_chi chi(mu)^2 chi(lam)/chi(1) v remain.  The characters come
from the Murnaghan-Nakayama rule on beta-sets.

reference_violations and reference_cone_points decide flatcore's polygon
predicates directly on the Fraction coordinates, without the integer view
of the surface: the violation strings in order, and the turn count of each
corner orbit.

validation_reference is flatcore's validation as it was written before each
surface kept one list of edge vectors: on the integer view, with each edge
vector recomputed from its two vertices, and adjacent edges tested for a
fold-back by whether either far endpoint lies on the other edge or the two
far endpoints coincide.

period_rank_reference is flatcore.periods' rank as it was computed before
periods counted connected components: the boundary relation of each polygon
and the endpoint relation at each unmarked cone point, written as dense
integer rows over the edge pairs and ranked by fraction-free elimination.

canonical_code_reference is the canonical code of an origami by its
definition: the least breadth-first relabeling over every start square,
each one built in full before it is compared, with no start skipped and no
comparison cut short.

classes_reference is the class loop below degree 8 without the orbit
marking: every connected raw pair of the Python kernel, in scan order, gets
a canonical code, and a seen set drops the codes already met.
labeled_stratum_pairs_python lists those raw pairs.

python_batches_reference is the Python kernel without its fixed-point
count: the full corner cycle-type test runs on every coset representative.

connected_columns tests the connectivity of each row of a numpy batch by
label propagation over the cycles of h, with neither a canonical code nor
a propagation of flatkit.spin.

connected_pair_count is A_d(orders), the number of connected labeled pairs
(h, v) in S_d x S_d whose corner permutation has the cycle type of the
orders.  All labeled pairs, connected or not, number
N_d(orders) = sum_mu |C_mu| commutator_counts(d, orders)[mu].  Splitting
them by the orbit of square 0, which has k squares (C(d - 1, k - 1)
choices), carries the orders sub and is a connected pair, while the other
d - k squares carry the rest of the orders, gives
N_d(orders) = sum_{k, sub} C(d - 1, k - 1) A_k(sub) N_{d - k}(orders - sub),
which is solved for A_d.  Each class o of connected pairs holds
d!/|Aut(o)| labeled pairs, so the sum of 1/|Aut(o)| over the classes is
A_d/d! (the mass formula).  automorphism_count takes |Aut(o)| as the number
of starts whose relabeled_code is the least one: the relabelings from two
starts give the same code exactly when an automorphism maps one start to
the other.

pairing_reference is the mod-2 intersection number of two spin.SimpleCycles
counted square by square, with no crossing table: each cycle's chords are
read from its steps as (entry side, exit side), and in each square both
cycles visit, the bit is whether exactly one end of c2's chord, pushed off
to the sixteenths PUSHED, lies strictly between c1's ends at the sixteenths
MIDPOINT (counterclockwise from the midpoint of the E side).

quadratic_form_reference builds the winding form of an origami one cycle at
a time: the genus from a corner permutation of fresh inverses, the cycles
of spin.fundamental_cycles, the pairing bit by bit from spin.pairing_mod2
and the q values from spin.turning_index.  reduction_reference is the
GF(2) reduction of build_quadratic_form in the same pivot order, written
with each vector a (combination, pairing row, q value) tuple and with the
pairing and the sum taken by closures.

read_input_reference reads an input file's text as README, "File formats",
states it, and with none of flatkit's parsing: no regular expression, no
int() or Fraction() of text (digits are summed one by one), and a JSON
object read as its list of key-value pairs.  It returns ("origami", (d, h,
v)) with 0-based permutations, or ("surface", (polygons, pairing)) with
Fraction vertices, or raises Refused.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from typing import Optional, Sequence

from flatkit import census, flatcore, origami, spin, strata
from flatkit.flatcore import PlanarVec


def prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def divisor_sum(n: int) -> int:
    return sum(m for m in range(1, n + 1) if n % m == 0)


def _primitive_h2_sizes(n: int) -> list[Fraction]:
    if n < 3:
        return []
    factor = Fraction(n * n)
    for p in prime_divisors(n):
        factor *= 1 - Fraction(1, p * p)
    if n == 3 or n % 2 == 0:
        return [Fraction(3, 8) * (n - 2) * factor]
    return [Fraction(3, 16) * (n - 3) * factor, Fraction(3, 16) * (n - 1) * factor]


def primitive_h2_count(n: int) -> int:
    count = sum(_primitive_h2_sizes(n))
    assert count.denominator == 1, n
    return int(count)


def h2_orbit_sizes(n: int) -> list[int]:
    """The SL(2,Z) orbit sizes of the primitive n-square origamis in H(2), ascending."""
    sizes = sorted(_primitive_h2_sizes(n))
    assert all(size.denominator == 1 for size in sizes), n
    return [int(size) for size in sizes]


def h2_class_count(n: int) -> int:
    return sum(divisor_sum(m) * primitive_h2_count(n // m) for m in range(1, n + 1) if n % m == 0)


# --- raw pair counts from the characters of S_d ------------------------------


def partitions_of(n: int, cap: Optional[int] = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in partitions_of(n - k, k)]


@lru_cache(maxsize=None)
def _murnaghan_nakayama(beta: frozenset, mu: tuple[int, ...]) -> int:
    """chi^lambda(mu) for the partition lambda with beta-set beta: removing a
    rim hook of length k moves one bead from b to a free b - k, with the sign
    of the number of beads it jumps over."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= k and b - k not in beta:
            jumped = sum(1 for c in beta if b - k < c < b)
            total += (-1) ** jumped * _murnaghan_nakayama(beta - {b} | {b - k}, rest)
    return total


def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    return _murnaghan_nakayama(frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam)), mu)


def class_size(mu: tuple[int, ...]) -> int:
    z = 1
    for k in set(mu):
        z *= math.factorial(mu.count(k)) * k ** mu.count(k)
    return math.factorial(sum(mu)) // z


def commutator_counts(d: int, orders: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """For each cycle type mu of h, #{v in S_d : [h, v] has the cycle type of
    the orders} = |C_lam| sum_chi chi(mu)^2 chi(lam) / chi(1) (Frobenius)."""
    lengths = sorted((m + 1 for m in orders), reverse=True)
    lam = tuple(lengths + [1] * (d - sum(lengths)))
    irreducibles = partitions_of(d)
    out = {}
    for mu in irreducibles:
        total = Fraction(0)
        for chi in irreducibles:
            degree = character(chi, (1,) * d)
            total += Fraction(character(chi, mu) ** 2 * character(chi, lam), degree)
        count = class_size(lam) * total
        assert count.denominator == 1, (d, mu, lam)
        out[mu] = int(count)
    return out


@lru_cache(maxsize=None)
def labeled_pair_count(d: int, orders: tuple[int, ...]) -> int:
    """N_d(orders): the pairs in S_d x S_d, connected or not, whose corner
    permutation has the cycle type of the orders."""
    if sum(m + 1 for m in orders) > d:
        return 0
    return sum(class_size(mu) * n for mu, n in commutator_counts(d, orders).items())


@lru_cache(maxsize=None)
def connected_pair_count(d: int, orders: tuple[int, ...]) -> int:
    """A_d(orders), from the split of N_d by the orbit of square 0."""
    orders = tuple(sorted(orders, reverse=True))
    subs = {sub for r in range(len(orders) + 1) for sub in combinations(orders, r)}
    total = labeled_pair_count(d, orders)
    for k in range(1, d):
        for sub in subs:
            if sum(sub) % 2 == 0:
                rest = tuple(sorted((Counter(orders) - Counter(sub)).elements(), reverse=True))
                total -= (
                    math.comb(d - 1, k - 1)
                    * connected_pair_count(k, sub)
                    * labeled_pair_count(d - k, rest)
                )
    return total


# --- polygon predicates on Fraction coordinates ------------------------------


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def _orient(a: PlanarVec, b: PlanarVec, c: PlanarVec) -> int:
    return _sign((b - a).cross(c - a))


def _on_segment(p: PlanarVec, a: PlanarVec, b: PlanarVec) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _segments_touch(a: PlanarVec, b: PlanarVec, c: PlanarVec, d: PlanarVec) -> bool:
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        _on_segment(a, c, d)
        or _on_segment(b, c, d)
        or _on_segment(c, a, b)
        or _on_segment(d, a, b)
    )


def polygon_violations(index: int, poly: flatcore.PolygonChain) -> list[str]:
    out: list[str] = []
    n = poly.n
    if n < 3:
        return [f"polygon {index}: fewer than 3 vertices"]
    for i in range(n):
        if poly.vertex(i) == poly.vertex(i + 1):
            out.append(f"polygon {index}: zero-length edge at vertex {i}")
    if out:
        return out
    area2 = sum((poly.vertex(i).cross(poly.vertex(i + 1)) for i in range(n)), Fraction(0))
    if area2 == 0:
        out.append(f"polygon {index}: degenerate (zero signed area)")
    elif area2 < 0:
        out.append(f"polygon {index}: vertices are clockwise (negative signed area)")
    for i in range(n):
        a, b = poly.vertex(i), poly.vertex(i + 1)
        for j in range(i + 1, n):
            c, d = poly.vertex(j), poly.vertex(j + 1)
            if j == i + 1 or (i == 0 and j == n - 1):
                shared = b if j == i + 1 else a
                p_other = a if j == i + 1 else b
                q_other = d if j == i + 1 else c
                if (
                    _on_segment(p_other, c, d)
                    or _on_segment(q_other, a, b)
                    or (p_other != shared and q_other != shared and p_other == q_other)
                ):
                    out.append(
                        f"polygon {index}: edges {i} and {j} overlap beyond their shared vertex"
                    )
            elif _segments_touch(a, b, c, d):
                out.append(f"polygon {index}: edges {i} and {j} intersect")
    return out


def reference_violations(surf: flatcore.TranslationSurface) -> tuple[str, ...]:
    """flatcore.validate's violations, with every polygon predicate on Fractions."""
    if not surf.polygons:
        return ("no polygons",)
    out = [v for i, poly in enumerate(surf.polygons) for v in polygon_violations(i, poly)]
    all_edges = set(surf.edge_refs())
    keys = set(surf.pairing)
    refs = dict.fromkeys(ref for pair in surf.pairing.items() for ref in pair)
    unknown = [ref for ref in refs if ref not in all_edges]
    out += [f"pairing refers to nonexistent edge {tuple(e)}" for e in unknown]
    structural_ok = not unknown
    if structural_ok:
        missing = all_edges - keys
        out += [f"edge {tuple(e)} is unpaired" for e in sorted(missing)]
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
    if structural_ok and not any("polygon" in v for v in out):
        for e in sorted(surf.pairing):
            partner = surf.pairing[e]
            if e < partner and surf.edge_vector(partner) != -surf.edge_vector(e):
                out.append(f"paired edge vectors not opposite: {tuple(e)} and {tuple(partner)}")
        links = ((e.polygon, partner.polygon) for e, partner in surf.pairing.items())
        if len(set(flatcore._roots(len(surf.polygons), links))) > 1:
            out.append("not connected: gluing graph has multiple components")
    return tuple(out)


def _scaled_edge(pts, i):
    (x0, y0), (x1, y1) = pts[i % len(pts)], pts[(i + 1) % len(pts)]
    return (x1 - x0, y1 - y0)


def _scaled_polygon_violations(index: int, pts) -> list[str]:
    on_segment, touch = flatcore._on_segment, flatcore._segments_touch
    out: list[str] = []
    n = len(pts)
    if n < 3:
        return [f"polygon {index}: fewer than 3 vertices"]
    for i in range(n):
        if pts[i] == pts[(i + 1) % n]:
            out.append(f"polygon {index}: zero-length edge at vertex {i}")
    if out:
        return out
    area2 = sum(flatcore._cross(pts[i - 1], pts[i]) for i in range(n))
    if area2 == 0:
        out.append(f"polygon {index}: degenerate (zero signed area)")
    elif area2 < 0:
        out.append(f"polygon {index}: vertices are clockwise (negative signed area)")
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = pts[j], pts[(j + 1) % n]
            if j == i + 1 or (i == 0 and j == n - 1):
                shared = b if j == i + 1 else a
                p_other = a if j == i + 1 else b
                q_other = d if j == i + 1 else c
                if (
                    on_segment(p_other, c, d)
                    or on_segment(q_other, a, b)
                    or (p_other != shared and q_other != shared and p_other == q_other)
                ):
                    out.append(
                        f"polygon {index}: edges {i} and {j} overlap beyond their shared vertex"
                    )
            elif touch(a, b, c, d):
                out.append(f"polygon {index}: edges {i} and {j} intersect")
    return out


def validation_reference(surf: flatcore.TranslationSurface) -> tuple[str, ...]:
    """flatcore.validate's violations by the earlier integer-view body (see above)."""
    scaled = surf._scaled
    if not scaled:
        return ("no polygons",)
    out = [v for i, pts in enumerate(scaled) for v in _scaled_polygon_violations(i, pts)]
    all_edges = {(p, e) for p, pts in enumerate(scaled) for e in range(len(pts))}
    keys = set(surf.pairing)
    refs = dict.fromkeys(ref for pair in surf.pairing.items() for ref in pair)
    unknown = [ref for ref in refs if ref not in all_edges]
    out += [f"pairing refers to nonexistent edge {tuple(e)}" for e in unknown]
    structural_ok = not unknown
    if structural_ok:
        missing = all_edges - keys
        out += [f"edge {tuple(e)} is unpaired" for e in sorted(missing)]
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
    if structural_ok and not any("polygon" in v for v in out):
        for e in sorted(surf.pairing):
            partner = surf.pairing[e]
            if e < partner:
                x, y = _scaled_edge(scaled[e.polygon], e.edge)
                if _scaled_edge(scaled[partner.polygon], partner.edge) != (-x, -y):
                    out.append(
                        f"paired edge vectors not opposite: {tuple(e)} and {tuple(partner)}"
                    )
        links = ((e.polygon, partner.polygon) for e, partner in surf.pairing.items())
        if len(set(flatcore._roots(len(scaled), links))) > 1:
            out.append("not connected: gluing graph has multiple components")
    return tuple(out)


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of integer rows, by fraction-free elimination.

    Each pass takes one nonzero row as pivot and clears its first nonzero
    column from the others by integer cross-multiplication; dividing every
    row by the gcd of its entries keeps them small.
    """
    rows = [row for row in rows if any(row)]
    rank = 0
    while rows:
        pivot_row = rows.pop()
        col = next(c for c, x in enumerate(pivot_row) if x)
        p = pivot_row[col]
        rank += 1
        rest = []
        for row in rows:
            f = row[col]
            if f:
                row = [p * x - f * y for x, y in zip(row, pivot_row)]
                g = math.gcd(*row)
                if g == 0:
                    continue  # a multiple of the pivot row
                row = [x // g for x in row]
            rest.append(row)
        rows = rest
    return rank


def period_rank_reference(surf: flatcore.TranslationSurface) -> int:
    """The relative period rank of a valid surface from dense relation rows (see above)."""
    points = flatcore.singularities(surf)
    pair_list = [(e, partner) for e, partner in sorted(surf.pairing.items()) if e < partner]
    pair_index = {ref: k for k, pair in enumerate(pair_list) for ref in pair}
    n_pairs = len(pair_list)

    # Boundary relation of each polygon, written over the pair generators.
    boundary_rows = []
    for p, poly in enumerate(surf.polygons):
        row = [0] * n_pairs
        for i in range(poly.n):
            e = flatcore.EdgeRef(p, i)
            row[pair_index[e]] += 1 if e == pair_list[pair_index[e]][0] else -1
        boundary_rows.append(row)

    orbit_of = {corner: idx for idx, cp in enumerate(points) for corner in cp.corners}
    marked = {idx for idx, cp in enumerate(points) if cp.zero_order > 0} or {0}

    # Endpoint relations for the unmarked vertices: a relative cycle must
    # have boundary supported on the marked set only.
    unmarked = [idx for idx in range(len(points)) if idx not in marked]
    row_of_orbit = {orbit: r for r, orbit in enumerate(unmarked)}
    endpoint_rows = [[0] * n_pairs for _ in row_of_orbit]
    for k, ((p, i), _) in enumerate(pair_list):
        tail = orbit_of[(p, i)]
        head = orbit_of[(p, (i + 1) % surf.polygons[p].n)]
        if tail in row_of_orbit:
            endpoint_rows[row_of_orbit[tail]][k] -= 1
        if head in row_of_orbit:
            endpoint_rows[row_of_orbit[head]][k] += 1

    return n_pairs - _integer_rank(endpoint_rows) - _integer_rank(boundary_rows)


def _sector_contains(ref: PlanarVec, start: PlanarVec, end: PlanarVec) -> bool:
    s = start.cross(end)
    if s > 0:
        return start.cross(ref) > 0 and ref.cross(end) > 0
    if s < 0:
        return start.cross(ref) > 0 or ref.cross(end) > 0
    return start.cross(ref) > 0


def reference_cone_points(surf: flatcore.TranslationSurface) -> list[tuple[tuple, int]]:
    """(sorted corners, turns) of each corner orbit, counted on Fraction edge vectors."""
    edge_vecs = [surf.edge_vector(e) for e in surf.edge_refs()]
    ref = next(
        ref
        for ref in (PlanarVec(1, slope) for slope in flatcore._rational_directions())
        if all(ref.cross(v) != 0 for v in edge_vecs)
    )
    points = []
    for orbit in flatcore._corner_orbits(surf):
        turns = 0
        for p, i in orbit:
            poly = surf.polygons[p]
            incoming = poly.edge_vector((i - 1) % poly.n)
            turns += _sector_contains(ref, poly.edge_vector(i), -incoming)
        points.append((tuple(sorted(orbit)), turns))
    return sorted(points, key=lambda point: point[0][0])


def relabeled_code(
    d: int, h: Sequence[int], v: Sequence[int], hinv: Sequence[int], vinv: Sequence[int], start: int
) -> Optional[tuple[int, ...]]:
    """(d, h', v') with the squares renamed in breadth-first order from start
    (neighbor order right, left, up, down), or None when the search misses
    a square."""
    label = [-1] * d
    order = [start]
    label[start] = 0
    qi = 0
    while qi < len(order):
        s = order[qi]
        qi += 1
        for t in (h[s], hinv[s], v[s], vinv[s]):
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
    if qi != d:
        return None
    hp = [0] * d
    vp = [0] * d
    for s in range(d):
        hp[label[s]] = label[h[s]]
        vp[label[s]] = label[v[s]]
    return (d, *hp, *vp)


def canonical_code_reference(
    d: int, h: Sequence[int], v: Sequence[int], hinv: Sequence[int], vinv: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The least relabeled_code over all d starts, or None for a disconnected pair."""
    codes = [relabeled_code(d, h, v, hinv, vinv, start) for start in range(d)]
    return None if None in codes else min(codes)


def automorphism_count(
    d: int, h: Sequence[int], v: Sequence[int], hinv: Sequence[int], vinv: Sequence[int]
) -> int:
    """|Aut| of a connected pair: the starts whose relabeled_code is the least."""
    codes = [relabeled_code(d, h, v, hinv, vinv, start) for start in range(d)]
    return codes.count(min(codes))


def labeled_stratum_pairs_python(d: int, orders: tuple[int, ...]):
    """Raw (h, v, h^-1, v^-1) of the Python kernel with the given corner cycle
    type: the rows of census._python_batches, one cycle type of h after
    another, with no connectivity check and no removal of isomorphic
    duplicates."""
    for h, hinv, _, rows in census._python_batches(d, orders):
        for v in rows:
            yield h, v, hinv, origami.invert_perm(v)


def python_batches_reference(d: int, orders: tuple[int, ...]) -> list[tuple[tuple, list]]:
    """(h, rows) per cycle type of h as census._python_batches yields them,
    with the full cycle-type test on every coset representative and no
    fixed-point count before it."""
    target = list(census._target_type(d, orders))
    out = []
    for parts in strata.int_partitions(d):
        h = census._cycle_type_rep(parts)
        hinv = origami.invert_perm(h)
        centralizer = census._centralizer(parts)
        rows = []
        for v in census._coset_representatives(parts):
            vinv = origami.invert_perm(v)
            corner = [h[v[hinv[vinv[s]]]] for s in range(d)]
            if sorted(map(len, origami.cycles_of(corner)), reverse=True) == target:
                rows.extend(tuple(v[i] for i in c) for c in centralizer)
        out.append((h, sorted(rows)))
    return out


def classes_reference(d: int, orders: tuple[int, ...]) -> list[origami.Origami]:
    """One origami per class in discovery order, from a code for every raw pair.

    The pairs of each type of h are sorted here, so the scan order does not
    rest on the kernel's own sort."""
    seen = set()
    out = []
    pairs = labeled_stratum_pairs_python(d, orders)
    for _, rows in groupby(pairs, key=lambda row: row[0]):
        for h, v, hinv, vinv in sorted(rows):
            code = origami._canonical_code(d, h, v, hinv, vinv)
            if code is not None and code not in seen:
                seen.add(code)
                out.append(origami.decode_canonical(code))
    return out


def connected_columns(h, v):
    """Mask of the columns r of the (d, n) int8 array v with (h, v[:, r]) connected.

    Every cycle of h (a run of squares, h being a type representative) takes
    the least label among its own and those of the cycles its squares go to
    under v, until no label changes; v is a permutation, so v alone leads
    around each component.  A pair is connected when every label is 0.
    """
    import numpy as np

    cycles = [(c[0], c[0] + len(c)) for c in origami.cycles_of(h.tolist())]
    cycle_of = np.repeat(np.arange(len(cycles), dtype=np.int8), [b - a for a, b in cycles])
    label = np.repeat(np.arange(len(cycles), dtype=np.int8)[:, None], v.shape[1], axis=1)
    at = census._flat_index(cycle_of[v])  # where label holds the label of the cycle of v(s)
    while label.any():
        reach = label.ravel()[at]
        least = np.minimum(label, np.stack([reach[a:b].min(axis=0) for a, b in cycles]))
        if (least == label).all():
            break
        label = least
    return (label == 0).all(axis=0)


# Where a curve crosses each side of a square, in sixteenths of a turn from the
# midpoint of the E side: the curve at the midpoint, and its copy pushed by
# (-eps, +eps) just counterclockwise of it on E and N, just clockwise on W and S.
MIDPOINT = {"E": 0, "N": 4, "W": 8, "S": 12}
PUSHED = {"E": 1, "N": 5, "W": 7, "S": 11}
OPPOSITE = {"E": "W", "N": "S", "W": "E", "S": "N"}


def reference_chords(cycle) -> dict[int, tuple[str, str]]:
    """Per square a cycle visits, the (entry side, exit side) of its chord."""
    previous = cycle.steps[-1:] + cycle.steps[:-1]
    return {
        s: (OPPOSITE[back], direction)
        for (s, direction), (_, back) in zip(cycle.steps, previous)
    }


def pairing_reference(c1, c2) -> int:
    chords2 = reference_chords(c2)
    total = 0
    for square, (entry, exit_) in reference_chords(c1).items():
        other = chords2.get(square, ())
        start = MIDPOINT[entry]
        span = (MIDPOINT[exit_] - start) % 16
        total += sum(0 < (PUSHED[side] - start) % 16 < span for side in other)
    return total % 2


def reduction_reference(rows: Sequence[int], q_values: Sequence[int], genus: int):
    """(radical rank, symplectic rank, Arf invariant) of the form with
    pairing rows as bitmasks; raises as spin.build_quadratic_form does."""

    def crosses(x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
        return (x[1] & y[0]).bit_count() & 1

    def add(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
        return (x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2] ^ crosses(x, y))

    pool = [(1 << i, row, q) for i, (row, q) in enumerate(zip(rows, q_values))]
    radical_rank = symplectic_rank = arf = 0
    while pool:
        a = pool.pop()
        k = next((k for k, w in enumerate(pool) if crosses(a, w)), None)
        if k is None:
            if a[2]:
                raise ValueError("radical q nonzero: intersection pairing is inconsistent")
            radical_rank += 1
            continue
        b = pool.pop(k)
        symplectic_rank += 2
        arf ^= a[2] & b[2]
        for k, w in enumerate(pool):
            if crosses(w, b):
                w = add(w, a)
            if crosses(w, a):
                w = add(w, b)
            pool[k] = w
    if symplectic_rank != 2 * genus:
        raise RuntimeError(f"symplectic rank {symplectic_rank} does not match 2g = {2 * genus}")
    return radical_rank, symplectic_rank, arf


def quadratic_form_reference(o: origami.Origami, rng=None):
    """(pairing, q values, radical rank, symplectic rank, Arf invariant) of
    spin.build_quadratic_form(o, rng), on the same spanning tree."""
    hinv, vinv = origami.invert_perm(o.h), origami.invert_perm(o.v)
    corner = [o.h[o.v[hinv[vinv[s]]]] for s in range(o.d)]
    orders = [len(c) - 1 for c in origami.cycles_of(corner) if len(c) > 1]
    if any(m % 2 for m in orders):
        raise ValueError("spin undefined: odd zero order")
    cycles = spin.fundamental_cycles(o, rng)
    q_values = tuple((spin.turning_index(c) + 1) % 2 for c in cycles)
    pairing = tuple(tuple(spin.pairing_mod2(a, b) for b in cycles) for a in cycles)
    if any(row[i] for i, row in enumerate(pairing)):
        raise RuntimeError("self-pairing must vanish")
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in pairing]
    return (pairing, q_values, *reduction_reference(rows, q_values, sum(orders) // 2 + 1))


# --- the input grammar of README, "File formats" -----------------------------


class Refused(ValueError):
    """The reference reader refuses the input."""


DIGITS = "0123456789"
BLANKS = " \t"


def _natural(text: str) -> int:
    """A nonempty run of ASCII digits, summed digit by digit."""
    if not text or any(c not in DIGITS for c in text):
        raise Refused(f"not ASCII digits: {text!r}")
    value = 0
    for c in text:
        value = 10 * value + DIGITS.index(c)
    return value


def rational_reference(text: str) -> Fraction:
    """An integer or p/q: an optional minus sign, digits, then optionally / and digits, q > 0."""
    numerator, slash, denominator = text.partition("/")
    negative = numerator.startswith("-")
    n = _natural(numerator[1:] if negative else numerator)
    q = _natural(denominator) if slash else 1
    if q == 0:
        raise Refused(f"zero denominator: {text!r}")
    return Fraction(-n if negative else n, q)


def _cycle_labels(inner: str) -> list[int]:
    """The labels between a cycle's parentheses: apart by a comma or by blanks, with blanks
    allowed at either end; a comma needs a label on each side."""
    groups = inner.split(",")
    words = [[w for w in g.replace("\t", " ").split(" ") if w] for g in groups]
    if len(groups) > 1 and not all(words):
        raise Refused(f"empty place around a comma in ({inner})")
    return [_natural(w) for ws in words for w in ws]


def _permutation_reference(value: str, d: int) -> dict[int, int]:
    """id, nothing, or cycles (a,b,...) with blanks around them: the 0-based image of each
    written label; each label in 1..d, at most once."""
    images: dict[int, int] = {}
    if value == "id":
        return images
    i = 0
    while i < len(value):
        if value[i] in BLANKS:
            i += 1
            continue
        close = value.find(")", i)
        if value[i] != "(" or close < 0:
            raise Refused(f"not a cycle at {value[i:]!r}")
        labels = _cycle_labels(value[i + 1 : close])
        for k, label in enumerate(labels):
            if not 1 <= label <= d or label - 1 in images:
                raise Refused(f"label {label} out of range or written twice")
            images[label - 1] = labels[(k + 1) % len(labels)] - 1
        i = close + 1
    return images


def _lines(text: str) -> list[str]:
    """Lines end at \\n, \\r\\n or \\r."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def origami_reference(text: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    values: dict[str, str] = {}
    for raw in _lines(text):
        line = raw.split("#")[0].strip(BLANKS)
        if not line:
            continue
        key, after = line[0], line[1:].lstrip(BLANKS)
        if key not in ("d", "h", "v") or not after.startswith(":") or key in values:
            raise Refused(f"bad line {raw!r}")
        if key != "d" and "d" not in values:
            raise Refused("d must come first")
        values[key] = after[1:].strip(BLANKS)
    if len(values) != 3:
        raise Refused("needs d, h and v")
    d = _natural(values["d"])
    if d < 1:
        raise Refused("degree 0")
    h, v = (_permutation_reference(values[key], d) for key in ("h", "v"))
    if d > 1 and len(h.keys() | v.keys()) < d:  # a square in no cycle is isolated
        raise Refused("not connected")
    h_perm = tuple(h.get(s, s) for s in range(d))
    v_perm = tuple(v.get(s, s) for s in range(d))
    reached, stack = {0}, [0]
    while stack:
        s = stack.pop()
        for t in (h_perm[s], v_perm[s], h_perm.index(s), v_perm.index(s)):
            if t not in reached:
                reached.add(t)
                stack.append(t)
    if len(reached) != d:
        raise Refused("not connected")
    return d, h_perm, v_perm


def _json_list(raw: object, length: Optional[int] = None) -> list:
    if type(raw) is not list or (length is not None and len(raw) != length):
        raise Refused(f"not a list of {length}: {raw!r}")
    return raw


def _json_coordinate(raw: object) -> Fraction:
    if type(raw) is int:
        return Fraction(raw)
    if type(raw) is str:
        return rational_reference(raw)
    raise Refused(f"not a coordinate: {raw!r}")


def _json_edge(raw: object) -> tuple[int, int]:
    polygon, edge = _json_list(raw, 2)
    if type(polygon) is not int or type(edge) is not int:
        raise Refused(f"not an edge: {raw!r}")
    return polygon, edge


def surface_reference(text: str):
    """(polygons as tuples of Fraction pairs, pairing as a dict of (polygon, edge) pairs)."""
    try:
        top = json.loads(text, object_pairs_hook=lambda pairs: ("object", pairs))
    except (ValueError, RecursionError) as exc:
        raise Refused(f"not JSON: {exc}") from exc
    if type(top) is not tuple or sorted(key for key, _ in top[1]) != ["pairings", "polygons"]:
        raise Refused("the top level is not an object of exactly polygons and pairings")
    fields = dict(top[1])
    polygons = tuple(
        tuple(tuple(map(_json_coordinate, _json_list(pt, 2))) for pt in _json_list(poly))
        for poly in _json_list(fields["polygons"])
    )
    pairing: dict[tuple[int, int], tuple[int, int]] = {}
    for entry in _json_list(fields["pairings"]):
        a, b = map(_json_edge, _json_list(entry, 2))
        if a in pairing or b in pairing:
            raise Refused(f"edge paired twice in {entry!r}")
        pairing[a], pairing[b] = b, a
    return polygons, pairing


def read_input_reference(text: str):
    """A file is surface JSON when its first non-whitespace character is { or [."""
    if text.lstrip()[:1] in ("{", "["):
        return "surface", surface_reference(text)
    return "origami", origami_reference(text)
