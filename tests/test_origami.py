"""Square-tiled surfaces: parsing, invariants, moves, enumeration, cylinders."""

import logging
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatkit import census, flatcore, origami, spin, strata
from flatkit.origami import make

import oracles
from conftest import DATA, make_rng, signatures


def test_make_accepts_cycles_and_lists():
    a = make(5, "(1,2,3,4)", "(1,5)")
    b = make(5, [2, 3, 4, 1, 5], [5, 2, 3, 4, 1])
    assert a == b
    assert a.h == (1, 2, 3, 0, 4)
    assert a.v == (4, 1, 2, 3, 0)


def test_make_rejects_bad_input():
    with pytest.raises(ValueError, match="not connected"):
        make(2, "", "")
    with pytest.raises(ValueError):
        make(3, "(1,2,2)", "")
    with pytest.raises(ValueError):
        make(3, "(1,4)", "")
    with pytest.raises(ValueError):
        make(3, [1, 1, 2], [1, 2, 3])


def test_permutation_entries_must_be_integers():
    for h in ((0.9, 1), (True, False), (1.0, 0)):
        with pytest.raises(ValueError, match="must be integers"):
            origami.Origami(2, h, (1, 0))
    with pytest.raises(ValueError, match="must be integers"):
        make(2, [1.7, 2], [2, 1])
    with pytest.raises(ValueError, match="must be integers"):
        make(2, [True, 2], [2, 1])
    o = make(2, [2, 1], [2, 1])
    with pytest.raises(ValueError, match="must be integers"):
        origami.relabel(o, (1.0, 0))
    with pytest.raises(ValueError, match="must be integers"):
        origami.relabel(o, (True, False))
    import numpy as np

    assert origami.Origami(2, np.array([1, 0]), (1, 0)).h == (1, 0)


def test_parse_cycles_and_format():
    p = origami.parse_cycles("(1,2)(4,5)", 5)
    assert p == (1, 0, 2, 4, 3)
    assert origami.format_cycles(p) == "(1,2)(4,5)"
    assert origami.parse_cycles("", 3) == (0, 1, 2)
    assert origami.format_cycles((0, 1, 2)) == "()"
    assert origami.cycles_of((1, 0, 2)) == [[0, 1], [2]]
    with pytest.raises(ValueError):
        origami.parse_cycles("(1,2", 3)
    for identity in ("", "id", "()", "( )", "()()"):
        assert origami.parse_cycles(identity, 3) == (0, 1, 2), identity
    for stray in ("(", ")(", "((", "(()"):
        with pytest.raises(ValueError, match="unparsed text"):
            origami.parse_cycles(stray, 3)


def test_invert_perm():
    assert origami.invert_perm((1, 2, 0)) == (2, 0, 1)
    assert origami.invert_perm(()) == ()


def test_parse_origami_text_errors():
    with pytest.raises(ValueError, match="line 1"):
        origami.parse_origami_text("h: (1,2)\nd: 2\nv: ()")
    with pytest.raises(ValueError, match="d:"):
        origami.parse_origami_text("")
    with pytest.raises(ValueError):
        origami.parse_origami_text("d: 3\nh: (1,2)\nh: (1,3)\nv: ()")
    with pytest.raises(ValueError):
        origami.parse_origami_text("d: 3\nh: (1,2)")


def test_parse_origami_text_comments():
    o = origami.parse_origami_text("# a comment\nd: 3\n\nh: (1,2)\nv: (1,3)  # trailing\n")
    assert o == make(3, "(1,2)", "(1,3)")


def test_commutator_and_orders(l5, l3, torus_origami):
    assert sorted(map(len, origami.cycles_of(origami.commutator(l5)))) == [1, 1, 3]
    sig = origami.singularity_orders(l5)
    assert (sig.genus, sig.orders) == (2, (2,))
    assert origami.genus(l5) == 2
    assert origami.singularity_orders(l3).orders == (2,)
    assert origami.singularity_orders(torus_origami).orders == ()
    assert origami.genus(torus_origami) == 1


def test_to_polygons_matches_permutation_route(l5, l3, torus_origami):
    for o in (l5, l3, torus_origami):
        surf = origami.to_polygons(o)
        assert flatcore.validate(surf).ok
        assert flatcore.is_integral(surf)
        sig = flatcore.stratum(surf)
        assert sig == origami.singularity_orders(o)
        assert len(surf.polygons) == o.d


def test_oracle_agreement_random(rng):
    for _ in range(25):
        d = rng.randint(1, 10)
        o = origami.random_origami(d, rng)
        assert origami.singularity_orders(o) == flatcore.stratum(origami.to_polygons(o))


def test_random_origami_is_deterministic():
    a = origami.random_origami(7, make_rng(salt=5))
    b = origami.random_origami(7, make_rng(salt=5))
    assert a == b
    assert origami.is_connected(a)
    assert a.d == 7


def test_canonical_form_is_conjugation_invariant(l5, rng):
    base = origami.canonical_form(l5)
    d = l5.d
    for _ in range(50):
        sigma = list(range(d))
        rng.shuffle(sigma)
        relabeled = origami.relabel(l5, sigma)
        assert origami.canonical_form(relabeled) == base
        assert origami.is_isomorphic(relabeled, l5)


def test_canonical_form_roundtrip(l5, l3):
    for o in (l5, l3):
        code = origami.canonical_form(o)
        back = origami.decode_canonical(code)
        assert origami.is_isomorphic(back, o)
        assert origami.canonical_form(back) == code


def test_is_isomorphic_negative(l5):
    other = make(5, "(1,2,3,4,5)", "(1,2)")
    assert not origami.is_isomorphic(l5, other)


def test_moves(l5):
    sheared = origami.act_T(l5)
    assert sheared.h == l5.h
    assert sheared.v == origami.parse_cycles("(1,5,4,3,2)", 5)
    assert origami.act_T_inverse(origami.act_T(l5)) == l5
    assert origami.act_T(origami.act_T_inverse(l5)) == l5
    s4 = l5
    for _ in range(4):
        s4 = origami.act_S(s4)
    assert s4 == l5


def test_moves_preserve_stratum(l5, rng):
    o = origami.random_origami(6, rng)
    sig = origami.singularity_orders(o)
    for move in (origami.act_T, origami.act_T_inverse, origami.act_S):
        image = move(o)
        assert origami.singularity_orders(image) == sig
        # the moves skip the constructor's checks; their images pass them
        assert origami.Origami(image.d, image.h, image.v) == image


def fresh_derived(o):
    """h^-1, v^-1, the corner permutation and the stratum of o from
    invert_perm and a product taken here, with no cached property read."""
    hinv, vinv = origami.invert_perm(o.h), origami.invert_perm(o.v)
    corner = tuple(o.h[o.v[hinv[vinv[s]]]] for s in range(o.d))
    orders = sorted((len(c) - 1 for c in origami.cycles_of(corner) if len(c) > 1), reverse=True)
    return hinv, vinv, corner, flatcore.StratumSignature(sum(orders) // 2 + 1, tuple(orders))


def test_derived_data_is_cached_per_origami(l5, rng):
    """The cached h^-1, v^-1, stratum and vertex map equal fresh results;
    filling the cache, spin.py's stored spin parity and involution witness
    included, changes neither ==, hash nor repr; and no origami that a move,
    a relabeling or a decoding builds carries another origami's cache."""
    cases = [l5] + [origami.random_origami(d, rng) for d in range(1, 10) for _ in range(3)]
    odd = 0
    for o in cases:
        twin = origami.Origami(o.d, o.h, o.v)
        assert set(vars(twin)) == {"d", "h", "v"}
        before = (hash(o), repr(o))
        hinv, vinv, corner, signature = fresh_derived(o)
        assert origami.singularity_orders(o) == signature
        assert (o._hinv, o._vinv, origami.commutator(o)) == (hinv, vinv, corner)
        assert o._corner_cycles == tuple(map(tuple, origami.cycles_of(corner)))
        assert all(s in o._corner_cycles[k] for s, k in enumerate(o._vertex))
        for read in (origami.canonical_form, origami.cylinders, spin.hyperelliptic_involution):
            read(o)
        cached = {"_hinv", "_vinv", "_corner_cycles", "_signature", "_vertex", "_involution"}
        if any(m % 2 for m in signature.orders):
            odd += 1
            with pytest.raises(ValueError, match="spin undefined"):
                spin.spin_parity(o)
        else:
            spin.spin_parity(o)
            cached.add("_arf")
        assert set(vars(o)) == {"d", "h", "v"} | cached
        assert (hash(o), repr(o)) == before == (hash(twin), repr(twin))
        assert o == twin and twin == o and len({o, twin}) == 1
        images = (
            origami.relabel(o, rng.sample(range(o.d), o.d)),
            origami.relabel(o, range(o.d)),
            origami.act_S(o),
            origami.act_T(o),
            origami.act_T_inverse(o),
            origami.decode_canonical(origami.canonical_form(o)),
            origami.Origami._trusted(o.d, o.h, o.v),
        )
        for image in images:
            assert set(vars(image)) == {"d", "h", "v"}, image
            hinv, vinv, corner, signature = fresh_derived(image)
            assert origami.singularity_orders(image) == signature
            assert (image._hinv, image._vinv, origami.commutator(image)) == (hinv, vinv, corner)
    assert 0 < odd < len(cases)


def test_orbit_l3(l3):
    data = origami.orbit(l3)
    assert len(data.elements) == 3
    assert sorted(data.cusp_widths) == [1, 2]
    assert sum(data.cusp_widths) == len(data.elements)
    # closed under the generating moves
    elements = set(data.elements)
    for code in data.elements:
        o = origami.decode_canonical(code)
        for move in (origami.act_T, origami.act_T_inverse, origami.act_S):
            assert origami.canonical_form(move(o)) in elements


def test_orbit_start_independence(l3):
    data = origami.orbit(l3)
    for code in data.elements:
        other = origami.orbit(origami.decode_canonical(code))
        assert other.elements == data.elements
        assert sorted(other.cusp_widths) == sorted(data.cusp_widths)


def test_orbit_budget(l5):
    for budget in (2, 17):
        with pytest.raises(RuntimeError, match="budget exceeded"):
            origami.orbit(l5, max_elements=budget)
    assert len(origami.orbit(l5, max_elements=18).elements) == 18


def reference_orbit(o):
    """Breadth-first closure under all three moves S, T and T^-1.

    Every edge and every cusp is found by applying a move and taking the
    canonical form, with no use of the group structure.
    """
    moves = (("S", origami.act_S), ("T", origami.act_T), ("T^-1", origami.act_T_inverse))
    start = origami.canonical_form(o)
    seen = {start}
    frontier = [start]
    raw_edges = []
    while frontier:
        code = frontier.pop()
        rep = origami.decode_canonical(code)
        for label, move in moves:
            image = origami.canonical_form(move(rep))
            raw_edges.append((code, label, image))
            if image not in seen:
                seen.add(image)
                frontier.append(image)

    elements = tuple(sorted(seen))
    index = {code: i for i, code in enumerate(elements)}
    edges = tuple(sorted((index[a], label, index[b]) for a, label, b in raw_edges))

    widths = []
    visited = set()
    for code in elements:
        if code in visited:
            continue
        width = 0
        cur = code
        while cur not in visited:
            visited.add(cur)
            width += 1
            cur = origami.canonical_form(origami.act_T(origami.decode_canonical(cur)))
        widths.append(width)
    assert sum(widths) == len(elements)
    return origami.OrbitData(elements, tuple(sorted(widths, reverse=True)), edges)


# d = 9 in H(2,1,1): an orbit of 3144 elements and 428 cusps.
D9 = ("(1,2,3,4,5,6,7,8,9)", "(1,4)(2,7)")


def test_orbit_matches_reference(l3, l5):
    rng = make_rng(salt=9)
    cases = [l3, l5, make(9, *D9)]
    cases += [origami.random_origami(d, rng) for d in range(1, 8) for _ in range(3)]
    for o in cases:
        assert origami.orbit(o) == reference_orbit(o), origami.format_cycles(o.v)


def matmul(a, b):
    (p, q), (r, s) = a
    (w, x), (y, z) = b
    return ((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z))


# The matrices of the moves on the plane.  act_T keeps h and sends the up step v to
# h^-1 v: the unit shear (x, y) -> (x + y, y).  act_S sends (h, v) to (v, h^-1): the
# new right step is the old up step and the new up step the old left step, so it turns
# the plane a quarter clockwise.  A move after a move is the product of their matrices.
MOVE_S, MOVE_T, MOVE_T_INV = ((0, 1), (-1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1))


def orbit_genus(data):
    """Check S^4 = 1 and (S T^-1)^3 = S^2 on the elements of an orbit, as its edges give
    S, T and T^-1, and return (N, c, genus): the index N in PSL(2,Z), after x is
    identified with S^2 x when S^2 != 1, the number c of cusps, and the Riemann-Hurwitz
    genus 1 + N/12 - e2/4 - e3/3 - c/2, e2 and e3 the fixed points of S and S T^-1."""
    n = len(data.elements)
    move = {label: [-1] * n for label in ("S", "T", "T^-1")}
    for i, label, j in data.edges:
        move[label][i] = j
    s, t, t_inv = move["S"], move["T"], move["T^-1"]
    u = [s[t_inv[x]] for x in range(n)]  # S T^-1: T^-1 first
    assert all(t[t_inv[x]] == x for x in range(n))
    assert all(s[s[s[s[x]]]] == x for x in range(n))
    assert all(u[u[u[x]]] == s[s[x]] for x in range(n))
    rep = [min(x, s[s[x]]) for x in range(n)]
    classes = sorted(set(rep))
    e2 = sum(rep[s[x]] == x for x in classes)
    e3 = sum(rep[u[x]] == x for x in classes)
    cusps, seen = 0, set()
    for x in classes:
        cusps += x not in seen
        while x not in seen:
            seen.add(x)
            x = rep[t[x]]
    genus = 1 + Fraction(len(classes), 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1 and genus >= 0, (len(classes), e2, e3, cusps)
    return len(classes), cusps, int(genus)


def test_orbits_satisfy_the_modular_relations(l3, l5):
    """Every orbit is a permutation representation of SL(2,Z): S^4 = 1 and
    (S T^-1)^3 = S^2 hold on its elements, and its Teichmueller curve has a
    non-negative integer genus, on l3, l5, the d = 9 orbit and seeded random orbits."""
    identity, s2 = ((1, 0), (0, 1)), matmul(MOVE_S, MOVE_S)
    u = matmul(MOVE_S, MOVE_T_INV)
    assert matmul(s2, s2) == identity and matmul(MOVE_T, MOVE_T_INV) == identity
    assert matmul(u, matmul(u, u)) == s2 != identity
    rng = make_rng(salt=3401)
    cases = [l3, l5] + [origami.random_origami(d, rng) for d in range(2, 9) for _ in range(6)]
    for o in cases:
        orbit_genus(origami.orbit(o))
    assert orbit_genus(origami.orbit(make(9, *D9))) == (1572, 218, 23)


def test_orbit_canonical_forms_once_per_move(monkeypatch):
    calls = []
    body = origami.canonical_form

    def counted(o):
        calls.append(o)
        return body(o)

    monkeypatch.setattr(origami, "canonical_form", counted)
    data = origami.orbit(make(9, *D9))
    assert len(data.elements) == 3144
    assert len(calls) == 2 * len(data.elements) + 1


def test_orbit_log_adds_up(monkeypatch, caplog, l3, l5):
    caplog.set_level(logging.DEBUG, logger="flatkit")
    calls = []
    body = origami.canonical_form

    def counted(o):
        calls.append(o)
        return body(o)

    monkeypatch.setattr(origami, "canonical_form", counted)
    for o in (l3, l5):
        caplog.clear()
        calls.clear()
        data = origami.orbit(o)
        [record] = [r for r in caplog.records if r.name == "flatkit.origami"]
        nodes, edges, forms = record.args
        assert (nodes, edges, forms) == (len(data.elements), len(data.edges), len(calls))
        assert forms == 2 * nodes + 1
        assert edges == 3 * nodes


def code_args(o):
    return (o.d, o.h, o.v, origami.invert_perm(o.h), origami.invert_perm(o.v))


def scrambled(d, h, v, rng):
    """The pair (h, v) under a random relabeling, connected or not."""
    sigma = list(range(d))
    rng.shuffle(sigma)
    return origami.relabel(origami.Origami(d, tuple(h), tuple(v)), sigma)


def test_canonical_code_matches_reference():
    rng = make_rng(salt=13)
    cases = [origami.random_origami(d, rng) for d in range(1, 21) for _ in range(8)]
    # every cycle of h of length 4 or more, so every start is tried
    for parts in [(4,), (5,), (4, 4), (5, 4), (6, 4), (4, 4, 4), (7, 5)]:
        d = sum(parts)
        h = census._cycle_type_rep(parts)
        cases += [scrambled(d, h, rng.sample(range(d), d), rng) for _ in range(10)]
    for d in range(1, 21):
        h = census._cycle_type_rep((d,))
        cases += [scrambled(d, h, rng.sample(range(d), d), rng) for _ in range(5)]
    for d in range(5, 8):
        for o in origami.origamis_in_stratum(d, (4,)):
            cases.append(scrambled(d, o.h, o.v, rng))
    data = origami.orbit(make(9, *D9))
    for code in data.elements:
        rep = origami.decode_canonical(code)
        cases += [origami.act_S(rep), origami.act_T(rep)]
    for o in cases:
        assert origami._canonical_code(*code_args(o)) == oracles.canonical_code_reference(
            *code_args(o)
        )

    for _ in range(200):
        a = origami.random_origami(rng.randint(1, 6), rng)
        b = origami.random_origami(rng.randint(1, 6), rng)
        h = a.h + tuple(a.d + s for s in b.h)
        v = a.v + tuple(a.d + s for s in b.v)
        o = scrambled(a.d + b.d, h, v, rng)
        assert origami._canonical_code(*code_args(o)) is None
        assert oracles.canonical_code_reference(*code_args(o)) is None
        d = rng.randint(1, 8)
        o = scrambled(d, rng.sample(range(d), d), rng.sample(range(d), d), rng)
        assert origami._canonical_code(*code_args(o)) == oracles.canonical_code_reference(
            *code_args(o)
        )


@st.composite
def pairs_by_cycle_type(draw):
    """A pair (h, v), connected or not, whose h has drawn cycle lengths."""
    parts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    d = sum(parts)
    o = origami.Origami(d, census._cycle_type_rep(parts), tuple(draw(st.permutations(range(d)))))
    return origami.relabel(o, draw(st.permutations(range(d))))


@settings(max_examples=200, deadline=None)
@given(pairs_by_cycle_type())
@example(make(5, "(1,2)(3,4,5)", "(2,3)"))
@example(make(4, "(1,2)(3,4)", "(2,3)"))
@example(make(6, "(1,2,3)(4,5,6)", "(3,4)"))
def test_least_code_starts_on_a_shortest_cycle(o):
    """The start rule of canonical_form: when the shortest cycle of h has
    length m <= 3, every start square that reaches the least code lies on a
    cycle of length m."""
    codes = [oracles.relabeled_code(*code_args(o), start) for start in range(o.d)]
    assume(None not in codes)
    length = []
    for s in range(o.d):
        k, t = 1, o.h[s]
        while t != s:
            k, t = k + 1, o.h[t]
        length.append(k)
    m = min(length)
    if m <= 3:
        best = min(codes)
        assert all(length[s] == m for s in range(o.d) if codes[s] == best)
        assert origami._canonical_code(*code_args(o)) == best


def test_cylinders(l5, l3, torus_origami):
    def shape(o):
        dec = origami.cylinders(o)
        return sorted((c.width, c.height) for c in dec.cylinders)

    assert shape(l5) == [(1, 1), (4, 1)]
    assert shape(l3) == [(1, 1), (2, 1)]
    assert shape(torus_origami) == [(1, 1)]
    for o in (l5, l3, torus_origami):
        dec = origami.cylinders(o)
        assert sum(c.width * c.height for c in dec.cylinders) == o.d


def test_cylinders_total_area_random(rng):
    for _ in range(10):
        o = origami.random_origami(rng.randint(2, 9), rng)
        dec = origami.cylinders(o)
        assert sum(c.width * c.height for c in dec.cylinders) == o.d
        assert all(c.width >= 1 and c.height >= 1 for c in dec.cylinders)


FROZEN_CLASS_COUNTS = {
    ((2,), 3): 3,
    ((2,), 4): 9,
    ((2,), 5): 27,
    ((2,), 6): 45,
    ((1, 1), 4): 10,
    ((1, 1), 5): 24,
    ((1, 1), 6): 88,
    ((4,), 5): 40,
    ((4,), 6): 225,
    ((3, 1), 6): 128,
}


@pytest.mark.parametrize("orders,d", sorted(FROZEN_CLASS_COUNTS))
def test_enumeration_class_counts(orders, d):
    classes = list(origami.origamis_in_stratum(d, orders))
    assert len(classes) == FROZEN_CLASS_COUNTS[(orders, d)]
    codes = {origami.canonical_form(o) for o in classes}
    assert len(codes) == len(classes)
    for o in classes[:10]:
        assert o.d == d
        assert origami.is_connected(o)
        assert origami.singularity_orders(o).orders == tuple(orders)


def test_enumeration_refuses_bad_orders():
    for orders in ((2.5,), (True, True), (2, 1), (0, 2)):
        with pytest.raises(ValueError):
            list(origami.origamis_in_stratum(5, orders))
        with pytest.raises(ValueError):
            list(origami.stratum_pairs_raw(5, orders))


def test_enumeration_empty_when_impossible():
    assert list(origami.origamis_in_stratum(3, (1, 1))) == []
    assert list(origami.origamis_in_stratum(4, (4,))) == []


def test_stratum_pairs_raw_matches_classes():
    raw = list(origami.stratum_pairs_raw(5, (2,)))
    assert len(raw) == 27
    for h, v in raw[:5]:
        o = origami.Origami(5, h, v)
        assert origami.singularity_orders(o).orders == (2,)
    codes = {origami.canonical_form(origami.Origami(5, h, v)) for h, v in raw}
    assert codes == {origami.canonical_form(o) for o in origami.origamis_in_stratum(5, (2,))}


# Connected origamis up to relabeling, by degree d = 1..6 (OEIS A057005;
# also re-derived by brute force over all pairs in S_d).
CLASSES_BY_DEGREE = {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624}


def all_classes(d):
    """Every class of degree d, one stratum at a time."""
    return [o for orders in signatures(d) for o in origami.origamis_in_stratum(d, orders)]


def numpy_kernel_rows(d, orders):
    """The rows of the numpy batches as (h, v, h^-1, v^-1) tuples."""
    return [
        (tuple(batch.h.tolist()), tuple(v), tuple(batch.hinv.tolist()), tuple(vinv))
        for batch in census._stratum_batches(d, orders)
        for v, vinv in zip(batch.v.tolist(), batch.vinv.tolist())
    ]


def test_python_kernel_matches_numpy_kernel():
    """The two raw-pair scans behind the enumeration yield the same pairs,
    with the same inverses."""
    cases = [(d, orders) for d in range(1, 7) for orders in signatures(d)]
    for d, orders in cases + [(7, (4,)), (7, (3, 1)), (8, (3, 1))]:
        rows = sorted(oracles.labeled_stratum_pairs_python(d, orders))
        assert rows == sorted(numpy_kernel_rows(d, orders)), (d, orders)


def test_numpy_batches_are_consistent():
    """Each batch holds its type representative and inverses, and distinct
    rows that come one whole coset v C(h) per run of |C(h)| rows."""
    batches = list(census._stratum_batches(7, (2, 2)))
    assert [b.cycle_type for b in batches] == list(strata.int_partitions(7))
    for b in batches:
        assert tuple(b.h.tolist()) == census._cycle_type_rep(b.cycle_type)
        assert tuple(b.hinv.tolist()) == origami.invert_perm(b.h.tolist())
        assert b.v.shape == b.vinv.shape == (len(b.v), 7)
        rows = [tuple(v) for v in b.v.tolist()]
        for v, vinv in zip(rows, b.vinv.tolist()):
            assert tuple(vinv) == origami.invert_perm(v)
        assert len(set(rows)) == len(rows), b.cycle_type
        size = census._centralizer_order(b.cycle_type)
        assert len(rows) % size == 0, b.cycle_type
        centralizer = census._centralizer(b.cycle_type)
        for lo in range(0, len(rows), size):
            coset = {tuple(map(rows[lo].__getitem__, c)) for c in centralizer}
            assert set(rows[lo : lo + size]) == coset, (b.cycle_type, lo)
    assert sum(len(b.v) for b in batches) == 8572


def test_stratum_pairs_raw_sorts_each_batch(monkeypatch):
    """From _RAW_DEGREE on the raw pairs of each type come in strictly
    increasing scan rank, and they are the rows of the batch."""
    import numpy as np

    monkeypatch.setattr(census, "_RAW_DEGREE", 7)
    pairs = iter(origami.stratum_pairs_raw(7, (2, 2)))
    for batch in census._stratum_batches(7, (2, 2)):
        h = tuple(batch.h.tolist())
        got = [next(pairs) for _ in range(len(batch.v))]
        assert all(pair_h == h for pair_h, _ in got)
        rows = [v for _, v in got]
        inverses = np.array([origami.invert_perm(v) for v in rows], dtype=np.int8).reshape(-1, 7)
        assert (np.diff(census._scan_rank(inverses.T)) > 0).all(), batch.cycle_type
        assert sorted(rows) == sorted(map(tuple, batch.v.tolist())), batch.cycle_type
    assert next(pairs, None) is None


def test_empty_batches_build_no_centralizer(monkeypatch):
    """C(h), up to 10! columns, is built only for the types with rows."""
    sizes = {b.cycle_type: len(b.v) for b in census._stratum_batches(8, (3, 1))}
    assert sizes[(1,) * 8] == 0
    built = []
    centralizer_array = census._centralizer_array

    def counted(parts):
        built.append(tuple(parts))
        return centralizer_array(parts)

    monkeypatch.setattr(census, "_centralizer_array", counted)
    assert len(list(origami.origamis_in_stratum(8, (3, 1)))) == 4032
    assert built and all(sizes[parts] for parts in built), built


def test_enumeration_degree_budget(monkeypatch):
    """Degree 11 is refused before the d! permutations are allocated."""

    def refuse(d):
        raise AssertionError(f"_all_perms_array({d}) called")

    monkeypatch.setattr(census, "_all_perms_array", refuse)
    for enumerate_stratum in (origami.origamis_in_stratum, origami.stratum_pairs_raw):
        with pytest.raises(RuntimeError, match="budget exceeded"):
            next(enumerate_stratum(11, (3, 1)))
    with pytest.raises(RuntimeError, match="budget exceeded"):
        spin.hyperelliptic_scan(11, (3, 1))


def reference_classes(d, orders):
    """The class loop without the centralizer filter: every connected row of
    the numpy batches gets a canonical form, in scan order.  The rows of
    each batch are sorted here, so the order does not rest on the kernel."""
    seen = set()
    out = []
    for batch in census._stratum_batches(d, orders):
        for v in batch.v[census._scan_rank(batch.vinv.T).argsort()].tolist():
            o = origami.Origami(d, tuple(batch.h.tolist()), tuple(v))
            if origami.is_connected(o):
                code = origami.canonical_form(o)
                if code not in seen:
                    seen.add(code)
                    out.append(origami.decode_canonical(code))
    return out


@pytest.mark.parametrize(
    "cases",
    [
        [(d, orders) for d in range(1, 7) for orders in signatures(d)],
        [(7, orders) for orders in signatures(7)],
        [(8, (3, 1))],
        [(8, (4,))],
    ],
    ids=["d<=6", "d=7", "H(3,1)-d=8", "H(4)-d=8"],
)
def test_centralizer_filter_keeps_every_class_in_order(monkeypatch, cases):
    """The filtered numpy path gives the unfiltered loop's list, order included."""
    monkeypatch.setattr(census, "_NUMPY_DEGREE", 1)
    for d, orders in cases:
        assert list(census._classes(d, orders)) == reference_classes(d, orders), (d, orders)


def test_scan_rank_is_the_column_index():
    import numpy as np

    for d in range(1, 8):
        perms = census._all_perms_array(d)
        inverses = np.empty_like(perms)
        inverses[perms, np.arange(perms.shape[1])] = np.arange(d, dtype=np.int8)[:, None]
        assert census._scan_rank(inverses).tolist() == list(range(perms.shape[1])), d


def test_centralizer_subset():
    """Distinct elements commuting with h and fixing its fixed points,
    prod_{k>=2} m_k! * k^m_k of them, the identity first."""
    for d in range(1, 9):
        for parts in strata.int_partitions(d):
            h = census._cycle_type_rep(parts)
            subset = census._centralizer_subset(parts)
            assert subset[0] == tuple(range(d))
            assert len(set(subset)) == len(subset)
            expected = 1
            for k, m in Counter(parts).items():
                if k > 1:
                    expected *= math.factorial(m) * k**m
            assert len(subset) == expected, parts
            for c in subset:
                assert sorted(c) == list(range(d))
                assert all(c[h[s]] == h[c[s]] for s in range(d))
                assert all(c[s] == s for s in range(d) if h[s] == s)


def test_coset_representatives():
    """Each right coset v C(h) holds exactly one marked column, so d!/|C(h)|
    columns are marked; the full centralizer has prod_k m_k! * k^m_k distinct
    elements, k = 1 included, each commuting with h."""
    for d in range(1, 8):
        perms = census._all_perms_array(d)
        columns = [tuple(v) for v in perms.T.tolist()]
        for parts in strata.int_partitions(d):
            h = census._cycle_type_rep(parts)
            centralizer = census._centralizer(parts)
            order = math.prod(math.factorial(m) * k**m for k, m in Counter(parts).items())
            assert len(set(centralizer)) == len(centralizer) == order, parts
            assert census._centralizer_order(parts) == order
            for c in centralizer:
                assert all(c[h[s]] == h[c[s]] for s in range(d))
            as_array = census._centralizer_array(parts).T.tolist()
            assert sorted(map(tuple, as_array)) == sorted(centralizer), parts
            marked = census._coset_columns(perms, census._coset_pairs(parts)).tolist()
            assert len(marked) * order == len(columns), parts
            cosets = Counter(
                tuple(columns[r][s] for s in c) for r in marked for c in centralizer
            )
            assert len(cosets) == len(columns) and set(cosets.values()) == {1}, parts


def test_coset_representatives_are_generated_in_scan_order():
    """The generated representatives are the permutations that pass the
    _coset_pairs test, in the order of itertools.permutations, d!/|C(h)| of
    them."""
    for d in range(1, 9):
        perms = list(permutations(range(d)))
        for parts in strata.int_partitions(d):
            pairs = census._coset_pairs(parts)
            expected = [v for v in perms if all(v[i] < v[j] for i, j in pairs)]
            reps = census._coset_representatives(parts)
            assert reps == expected, parts
            assert len(reps) == math.factorial(d) // census._centralizer_order(parts), parts


def test_fixed_point_count_drops_only_failing_cosets(monkeypatch):
    """The Python kernel counts the fixed points of a conjugate of the corner
    permutation before its full cycle-type test, and yields, type by type
    and in order, the rows of the reference that runs the full test on
    every coset representative.  For H(4) at degree 7 the count leaves
    1080 of the 5040 representatives to the full test."""
    for d in range(1, 8):
        for orders in signatures(d):
            batches = census._python_batches(d, strata.normalize_orders(orders))
            got = [(h, rows) for h, _, _, rows in batches]
            assert got == oracles.python_batches_reference(d, orders), (d, orders)
    tested = []
    cycles_of = origami.cycles_of
    monkeypatch.setattr(census, "cycles_of", lambda p: tested.append(p) or cycles_of(p))
    assert sum(len(rows) for *_, rows in census._python_batches(7, (4,))) > 0
    assert len(tested) == 1080


def test_one_code_per_centralizer_orbit_below_degree_8(monkeypatch):
    """Below degree 8 the class loop codes one row per centralizer orbit and
    gives the list of the loop that codes every row, order included; the
    code is not None exactly once per class."""
    cases = [(d, orders) for d in range(1, 8) for orders in signatures(d)]
    expected = {case: oracles.classes_reference(*case) for case in cases}
    code = origami._canonical_code
    codes = []

    def counted(*args):
        codes.append(code(*args))
        return codes[-1]

    monkeypatch.setattr(census, "_canonical_code", counted)
    for case in cases:
        codes.clear()
        classes = list(origami.origamis_in_stratum(*case))
        assert classes == expected[case], case
        found = [c for c in codes if c is not None]
        assert len(found) == len(set(found)) == len(classes), case
    codes.clear()
    assert sum(len(list(origami.origamis_in_stratum(d, (4,)))) for d in (5, 6, 7)) == 1040
    assert sum(c is not None for c in codes) == 1040


@pytest.mark.parametrize(
    "d,orders", [(7, (3, 1)), (9, (3, 1)), (8, (4,))], ids=["H(3,1)-d=7", "H(3,1)-d=9", "H(4)-d=8"]
)
def test_batch_sizes_match_character_counts(d, orders):
    """Every h type's row count is the Frobenius count of tests/oracles.py."""
    sizes = {b.cycle_type: len(b.v) for b in census._stratum_batches(d, orders)}
    assert sizes == oracles.commutator_counts(d, orders)


def test_h31_raw_totals_from_characters():
    """The raw pair totals of criterion 08 (and d = 7) from the table alone."""
    totals = [sum(oracles.commutator_counts(d, (3, 1)).values()) for d in (7, 9, 10)]
    assert totals == [13080, 647560, 4433056]


def test_orbit_sizes_add_up_to_the_batch():
    """Each connected kept row stands for |C(h)| / |Aut| rows, its C(h)-orbit,
    so the connected kept rows account for every connected row of the batch,
    and each kept row for at most |K| F-canonical rows."""
    import numpy as np

    for d in (7, 8):
        for orders in signatures(d):
            for batch in census._stratum_batches(d, orders):
                kept, f_canonical = census._orbit_representatives(batch)
                reps = batch._replace(v=batch.v[kept], vinv=batch.vinv[kept])
                automorphisms = census._propagations(reps, commuting=True)
                connected = automorphisms > 0
                assert (connected == oracles.connected_columns(batch.h, reps.v.T)).all()
                order = census._centralizer_order(batch.cycle_type)
                weight = order // automorphisms[connected]
                assert (weight * automorphisms[connected] == order).all()
                rows = oracles.connected_columns(batch.h, batch.v.T)
                assert weight.sum() == rows.sum(), (d, orders, batch.cycle_type)
                k = len(census._centralizer_subset(batch.cycle_type))
                assert len(kept) <= f_canonical <= min(len(batch.v), k * len(kept))
                assert (np.diff(kept) > 0).all()


def test_kept_rows_satisfy_the_mass_formula():
    """The sum of 1/|Aut| over the connected kept rows is A_d/d!, with
    connectivity, |Aut| and A_d from tests/oracles.py, for every signature up
    to degree 7 and H(3,1) at degree 8."""
    from fractions import Fraction

    cases = [(d, orders) for d in range(1, 8) for orders in signatures(d)] + [(8, (3, 1))]
    for d, orders in cases:
        sizes = Counter()
        for batch in census._stratum_batches(d, orders):
            kept = census._orbit_representatives(batch)[0]
            kept = kept[oracles.connected_columns(batch.h, batch.v[kept].T)]
            h, hinv = batch.h.tolist(), batch.hinv.tolist()
            for v, vinv in zip(batch.v[kept].tolist(), batch.vinv[kept].tolist()):
                sizes[oracles.automorphism_count(d, h, v, hinv, vinv)] += 1
        mass = sum(Fraction(n, size) for size, n in sizes.items())
        assert mass == Fraction(oracles.connected_pair_count(d, orders), math.factorial(d)), (
            d, orders,
        )
    assert oracles.connected_pair_count(8, (2, 2)) == math.factorial(8) * 4131 // 2


def test_connected_columns_match_is_connected():
    """The commuting propagation is nonzero, from the default starts and
    from sigma(0) = 0 alone, and the reference connectivity of
    tests/oracles.py holds, exactly on the connected rows."""
    for d in (5, 6):
        for orders in signatures(d):
            for batch in census._stratum_batches(d, orders):
                h = tuple(batch.h.tolist())
                expected = [
                    origami.is_connected(origami.Origami(d, h, tuple(v))) for v in batch.v.tolist()
                ]
                automorphisms = census._propagations(batch, commuting=True)
                assert (automorphisms > 0).tolist() == expected, (d, orders, batch.cycle_type)
                identity = census._propagations(batch, commuting=True, starts=(0,))
                assert identity.tolist() == expected, (d, orders, batch.cycle_type)  # 1 or 0
                got = oracles.connected_columns(batch.h, batch.v.T)
                assert got.tolist() == expected, (d, orders, batch.cycle_type)


def test_least_conjugates_matches_the_orbit_reference():
    """The orbit filter keeps exactly the F-canonical rows of least scan rank
    among the F-canonical rows of their whole C(h)-orbit (tests/oracles.py),
    for every cycle type of every signature up to degree 7 and H(3,1) at 8;
    the reference's F-canonical rows are the ones _orbit_representatives counts."""
    import numpy as np

    cases = [(d, orders) for d in range(1, 8) for orders in signatures(d)] + [(8, (3, 1))]
    for d, orders in cases:
        for batch in census._stratum_batches(d, orders):
            rows = np.flatnonzero(oracles.f_canonical_columns(batch.cycle_type, batch.v.T))
            assert len(rows) == census._orbit_representatives(batch)[1], (d, orders)
            vinv = batch.vinv[rows].T.copy()
            got = census._least_conjugates(batch.cycle_type, vinv)
            expected = oracles.least_conjugates_reference(batch.cycle_type, vinv)
            assert got.tolist() == expected.tolist(), (d, orders, batch.cycle_type)


def test_one_fixed_point_builds_no_relabeling(monkeypatch):
    """The F-relabeling is the identity when h has one fixed point, so the
    orbit filter builds it only for two fixed points or more."""
    import numpy as np

    calls = []
    flat_index = census._flat_index
    monkeypatch.setattr(census, "_flat_index", lambda rows: calls.append(1) or flat_index(rows))
    for batch in census._stratum_batches(8, (3, 1)):
        rows = np.flatnonzero(oracles.f_canonical_columns(batch.cycle_type, batch.v.T))
        calls.clear()
        census._least_conjugates(batch.cycle_type, batch.vinv[rows].T.copy())
        fixed = batch.cycle_type.count(1)
        assert bool(calls) == (fixed > 1 and len(rows) > 0), (batch.cycle_type, len(calls))


def test_scan_rank_orders_vinv_from_its_last_entry():
    """Sorting all 7! permutations by _scan_rank sorts their inverses
    lexicographically read from the last entry, the order the orbit filter
    compares on."""
    import numpy as np

    perms = census._all_perms_array(7)
    inverses = census._inverse_columns(perms)
    by_rank = inverses[:, np.argsort(census._scan_rank(inverses))].T.tolist()
    assert by_rank == sorted(inverses.T.tolist(), key=lambda vinv: vinv[::-1])


def test_propagations_match_the_per_start_reference():
    """_propagations counts, row by row, the starts of tests/oracles.py's
    square-by-square propagation, in all three call forms, on every batch up
    to degree 6; rows with |Aut| > 1 succeed from several starts in one round."""
    forms = [{}, {"commuting": True}, {"commuting": True, "starts": (0,)}]
    several = Counter()
    for d in range(1, 7):
        for orders in signatures(d):
            for batch in census._stratum_batches(d, orders):
                h, rows = batch.h.tolist(), batch.v.tolist()
                for i, form in enumerate(forms):
                    expected = [oracles.propagation_reference(h, v, **form) for v in rows]
                    got = census._propagations(batch, **form).tolist()
                    assert got == expected, (d, orders, batch.cycle_type, form)
                    several[i] += sum(count > 1 for count in expected)
    assert several[0] > 0 and several[1] > 0 and several[2] == 0, several


def test_one_canonical_form_per_class_at_degree_8(monkeypatch):
    """The H(3,1) scan at d = 8 counts classes without a canonical code."""
    calls = []
    code = origami._canonical_code

    def counted(*args):
        calls.append(args)
        return code(*args)

    monkeypatch.setattr(census, "_canonical_code", counted)
    monkeypatch.setattr(origami, "decode_canonical", None)
    assert spin.hyperelliptic_scan(8, (3, 1)) == (4032, 0)
    assert calls == []


def test_class_funnel_adds_up(caplog):
    caplog.set_level(logging.DEBUG, logger="flatkit")
    assert len(list(origami.origamis_in_stratum(8, (2,)))) == 135
    records = [r for r in caplog.records if r.name == "flatkit.origami"]
    assert [r.args[1] for r in records] == list(strata.int_partitions(8))
    funnels = [r.args[2:] for r in records]
    for (pairs, f_canonical, kept, classes), record in zip(funnels, records):
        assert pairs >= f_canonical >= kept >= classes
        assert f_canonical <= len(census._centralizer_subset(record.args[1])) * kept
    assert sum(f[0] for f in funnels) == len(numpy_kernel_rows(8, (2,)))
    assert sum(f[3] for f in funnels) == 135
    assert sum(f[1] for f in funnels) < sum(f[0] for f in funnels)


def test_h2_counts_match_eskin_masur_schmoll():
    expected = [3, 9, 27, 45, 90, 135]
    assert [oracles.h2_class_count(n) for n in range(3, 9)] == expected
    for n, count in zip(range(3, 9), expected):
        assert len(list(origami.origamis_in_stratum(n, (2,)))) == count, n


_STEP = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}


def is_primitive(o):
    """Whether the holonomies of the fundamental cycles span Z^2 (gcd of their 2x2 minors 1)."""
    holonomies = [
        tuple(map(sum, zip(*(_STEP[direction] for _, direction in c.steps))))
        for c in spin.fundamental_cycles(o)
    ]
    return math.gcd(*(a * d - b * c for (a, b), (c, d) in combinations(holonomies, 2))) == 1


def test_h2_orbits_match_mcmullen_hubert_lelievre():
    """The primitive classes of H(2) split into the SL(2,Z) orbits of the oracle."""
    for n in range(3, 10):
        primitive = {
            origami.canonical_form(o): o
            for o in origami.origamis_in_stratum(n, (2,))
            if is_primitive(o)
        }
        sizes = []
        while primitive:
            elements = origami.orbit(next(iter(primitive.values()))).elements
            for code in elements:
                del primitive[code]
            sizes.append(len(elements))
        assert sorted(sizes) == oracles.h2_orbit_sizes(n), n
        assert sum(sizes) == oracles.primitive_h2_count(n), n


def assert_invariants_match_polygons(o):
    """What analyze reads off (h, v) equals what flatcore finds on to_polygons(o): genus
    and orders, the cone angles in order, and the period rank, the stratum's dimension."""
    surf = origami.to_polygons(o)
    signature = origami.singularity_orders(o)
    assert signature == flatcore.stratum(surf)
    assert origami.cone_angle_turns(o) == [cp.angle_turns for cp in flatcore.singularities(surf)]
    rank = strata.dimension(signature.orders) if signature.genus >= 2 else 2
    assert rank == flatcore.periods(surf).rank


@pytest.mark.parametrize("d", sorted(CLASSES_BY_DEGREE))
def test_commutator_stratum_matches_polygons_on_all_classes(d):
    classes = all_classes(d)
    assert len(classes) == CLASSES_BY_DEGREE[d]
    assert len({origami.canonical_form(o) for o in classes}) == len(classes)
    for o in classes:
        assert_invariants_match_polygons(o)


@st.composite
def connected_origamis(draw):
    d = draw(st.integers(7, 12))
    h, v = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    o = origami.Origami(d, tuple(h), tuple(v))
    assume(origami.is_connected(o))
    return o


@st.composite
def relabeled_origamis(draw):
    o = draw(connected_origamis())
    return origami.relabel(o, draw(st.permutations(range(o.d))))


@settings(max_examples=100, deadline=None)
@given(relabeled_origamis())
@example(origami.random_origami(100, make_rng(100)))
@example(origami.random_origami(100, make_rng(101)))
@example(origami.random_origami(300, make_rng(300)))
@example(origami.random_origami(300, make_rng(301)))
@example(origami.random_origami(1000, make_rng(1000)))
@example(origami.random_origami(1000, make_rng(1001)))
def test_commutator_stratum_matches_polygons_random(o):
    assert_invariants_match_polygons(o)


def test_vertex_map_matches_polygon_corner_orbits():
    """Two squares share a _vertex exactly when the bottom-left corners (s, 0) of
    to_polygons(o) share a corner orbit, on every class with d <= 6 and on seeded
    random origamis."""
    rng = make_rng(salt=3400)
    cases = [o for d in sorted(CLASSES_BY_DEGREE) for o in all_classes(d)]
    cases += [origami.random_origami(d, rng) for d in range(1, 41) for _ in range(3)]
    for o in cases:
        orbit_of = {
            corner: k
            for k, orbit in enumerate(flatcore._corner_orbits(origami.to_polygons(o)))
            for corner in orbit
        }
        orbits = [orbit_of[s, 0] for s in range(o.d)]
        assert len(set(zip(o._vertex, orbits))) == len(set(o._vertex)) == len(set(orbits)), o


@settings(max_examples=100, deadline=None)
@given(connected_origamis(), st.data())
def test_relabeling_keeps_class_involution_and_cylinders(o, data):
    moved = origami.relabel(o, data.draw(st.permutations(range(o.d))))
    assert origami.canonical_form(moved) == origami.canonical_form(o)
    assert (spin.hyperelliptic_involution(moved) is None) == (
        spin.hyperelliptic_involution(o) is None
    )
    assert origami.cylinders(moved) == origami.cylinders(o)


@settings(max_examples=60, deadline=None)
@given(connected_origamis())
@example(origami.load_origami(str(DATA / "l5.origami")))
@example(origami.load_origami(str(DATA / "l3.origami")))
def test_text_roundtrip(o):
    assert origami.parse_origami_text(origami.origami_to_text(o)) == o


@settings(max_examples=60, deadline=None)
@given(connected_origamis())
def test_s4_and_t_inverse_are_identities_on_canonical_forms(o):
    code = origami.canonical_form(o)
    rep = origami.decode_canonical(code)
    s4 = rep
    for _ in range(4):
        s4 = origami.act_S(s4)
    assert s4 == rep
    assert origami.act_T(origami.act_T_inverse(rep)) == rep
    assert origami.act_T_inverse(origami.act_T(rep)) == rep
    assert origami.canonical_form(s4) == code


def polygon_cylinders(o):
    """Reference decomposition: rows merged across interfaces whose top
    corners (polygon vertices 2 and 3 of each square) are regular points of
    the polygon model."""
    singular = {
        corner
        for cp in flatcore.singularities(origami.to_polygons(o))
        if cp.angle_turns > 1
        for corner in cp.corners
    }
    rows = origami.cycles_of(o.h)
    row_of = {s: r for r, row in enumerate(rows) for s in row}
    label = list(range(len(rows)))
    for r, row in enumerate(rows):
        if all((s, 2) not in singular and (s, 3) not in singular for s in row):
            old, new = label[r], label[row_of[o.v[row[0]]]]
            label = [new if x == old else x for x in label]
    heights = Counter(label)
    return sorted((len(rows[r]), heights[r]) for r in set(label))


@pytest.mark.parametrize("d", sorted(CLASSES_BY_DEGREE))
def test_cylinders_match_polygon_model_on_all_classes(d):
    for o in all_classes(d):
        got = sorted((c.width, c.height) for c in origami.cylinders(o).cylinders)
        assert got == polygon_cylinders(o), origami.origami_to_text(o)
