"""Spin parity via the Arf invariant, flat involutions, component labels."""

import functools
import itertools
import logging
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatkit
from flatkit import census, hyperell, origami, spin, strata
from flatkit.flatcore import StratumSignature
from flatkit.origami import make, singularity_orders
from flatkit.strata import ComponentLabel

import oracles
from conftest import make_rng, signatures

# frozen degree-6 examples, one per component of their stratum
H4_HYP = origami.Origami(6, (0, 1, 3, 2, 5, 4), (1, 2, 0, 4, 3, 5))
H4_ODD = origami.Origami(6, (0, 1, 3, 4, 2, 5), (1, 2, 0, 3, 5, 4))
H11_EXAMPLE = origami.Origami(4, (0, 2, 1, 3), (1, 0, 3, 2))


def test_simple_cycle_validation(torus_origami):
    loop = spin.SimpleCycle(torus_origami, ((0, "E"),))
    assert loop.edges() == ((0, "E"),)
    with pytest.raises(ValueError, match="at least one step"):
        spin.SimpleCycle(torus_origami, ())
    with pytest.raises(ValueError, match="lands on square"):
        spin.SimpleCycle(make(2, "(1,2)", ""), ((0, "E"), (1, "N")))
    with pytest.raises(ValueError, match="visits a square twice"):
        spin.SimpleCycle(make(2, "(1,2)", "(1,2)"), ((0, "E"), (1, "N"), (0, "E"), (1, "N")))
    with pytest.raises(ValueError, match="must be integers"):
        spin.SimpleCycle(torus_origami, ((0.9, "E"),))
    with pytest.raises(ValueError, match="must be integers"):
        spin.SimpleCycle(torus_origami, ((True, "E"),))
    for square in (5, -1):
        with pytest.raises(ValueError, match=r"must lie in 0\.\.0"):
            spin.SimpleCycle(torus_origami, ((square, "E"),))
    for direction in ("X", "e", None):
        with pytest.raises(ValueError, match="directions must be among"):
            spin.SimpleCycle(torus_origami, ((0, direction),))


def test_fundamental_cycles_count(l5, l3, torus_origami):
    for o in (l5, l3, torus_origami):
        cycles = spin.fundamental_cycles(o)
        assert len(cycles) == o.d + 1
        for c in cycles:
            assert c.origami is o


def test_fundamental_cycles_random_tree(l5):
    for salt in range(5):
        cycles = spin.fundamental_cycles(l5, make_rng(salt=salt))
        assert len(cycles) == l5.d + 1


def test_turning_index_torus(torus_origami):
    east = spin.SimpleCycle(torus_origami, ((0, "E"),))
    north = spin.SimpleCycle(torus_origami, ((0, "N"),))
    assert spin.turning_index(east) == 0
    assert spin.turning_index(north) == 0
    assert spin.pairing_mod2(east, north) == 1
    assert spin.pairing_mod2(east, east) == 0
    assert spin.pairing_mod2(north, north) == 0


def test_turning_index_square_loop():
    # 2x2 torus: a loop going E E is straight; E N E N would revisit squares,
    # so use the 4-square cycle that walks around the block
    o = make(4, "(1,2)(3,4)", "(1,3)(2,4)")
    walk = spin.SimpleCycle(o, ((0, "E"), (1, "N"), (3, "W"), (2, "S")))
    assert spin.turning_index(walk) in (-1, 1)


def test_quadratic_form_torus(torus_origami):
    data = spin.build_quadratic_form(torus_origami)
    assert data.symplectic_rank == 2
    assert data.radical_rank == len(data.cycles) - 2
    assert data.arf == 1
    # diagonal is zero and the matrix is symmetric
    n = len(data.cycles)
    for i in range(n):
        assert data.pairing[i][i] == 0
        for j in range(n):
            assert data.pairing[i][j] == data.pairing[j][i]


def test_quadratic_form_l5(l5):
    data = spin.build_quadratic_form(l5)
    assert data.symplectic_rank == 4
    assert data.radical_rank == len(data.cycles) - 4
    assert data.arf == 1


# build_quadratic_form(o) on the default tree: the pairing, one string per
# row, then the radical rank and the q values
FROZEN_FORMS = {
    "torus": (["01", "10"], 0, "11"),
    "l3": (["0101", "1000", "0001", "1010"], 0, "1111"),
    "l5": (["010000", "101101", "010000", "010000", "000001", "010010"], 2, "111111"),
    "H4_HYP": (
        ["0010000", "0010000", "1101000", "0010100", "0001010", "0000101", "0000010"],
        1,
        "1111111",
    ),
    "H4_ODD": (
        ["0010000", "0010000", "1101000", "0010101", "0001000", "0000001", "0001010"],
        1,
        "1111111",
    ),
}


def test_pairing_matrices_frozen(l5, l3, torus_origami):
    surfaces = {"torus": torus_origami, "l3": l3, "l5": l5, "H4_HYP": H4_HYP, "H4_ODD": H4_ODD}
    for name, o in surfaces.items():
        form = spin.build_quadratic_form(o)
        pairing = ["".join(map(str, row)) for row in form.pairing]
        q_values = "".join(map(str, form.q_values))
        assert (pairing, form.radical_rank, q_values) == FROZEN_FORMS[name], name


@functools.cache
def form_cases():
    """Every H(4) and H(2,2) class with d <= 7, each with the salts of its
    spanning trees: None for the default tree, then two random ones."""
    classes = [
        o
        for d in range(1, 8)
        for orders in ((4,), (2, 2))
        for o in origami.origamis_in_stratum(d, orders)
    ]
    return [(o, (None, 2 * k, 2 * k + 1)) for k, o in enumerate(classes)]


def tree(salt):
    return None if salt is None else make_rng(salt=1400 + salt)


def test_pairing_matches_reference():
    """The one pass over the squares gives, on every pair of cycles, diagonal
    included, the bit of the square-by-square reference count."""
    for o, salts in form_cases():
        for salt in salts:
            form = spin.build_quadratic_form(o, tree(salt))
            cycles = form.cycles
            expected = [[oracles.pairing_reference(a, b) for b in cycles] for a in cycles]
            assert [list(row) for row in form.pairing] == expected, (o, salt)
            pairing = [[spin.pairing_mod2(a, b) for b in cycles] for a in cycles]
            assert pairing == expected, (o, salt)


def test_crossing_table_follows_the_sixteenths_rule():
    """Chords are numbered 4 * entry + exit with the sides in the order of
    spin._DIRS, and the table holds the bit of (chord1, chord2) at
    16 * chord1 + chord2."""
    for e1, x1, e2, x2 in itertools.product(spin._DIRS, repeat=4):
        start = oracles.MIDPOINT[e1]
        span = (oracles.MIDPOINT[x1] - start) % 16
        inside = sum(0 < (oracles.PUSHED[side] - start) % 16 < span for side in (e2, x2))
        chord1 = 4 * spin._IDX[e1] + spin._IDX[x1]
        chord2 = 4 * spin._IDX[e2] + spin._IDX[x2]
        assert spin._CROSS[16 * chord1 + chord2] == inside % 2, (e1, x1, e2, x2)


def test_self_pairing_is_checked(monkeypatch, torus_origami):
    """A table that makes the torus's E loop (chord W to E) cross its own
    pushed copy once trips the self-pairing check."""
    loop = 4 * spin._IDX["W"] + spin._IDX["E"]
    table = bytearray(spin._CROSS)
    table[17 * loop] ^= 1
    monkeypatch.setattr(spin, "_CROSS", bytes(table))
    with pytest.raises(RuntimeError, match="self-pairing must vanish"):
        spin.build_quadratic_form(torus_origami)


def test_fundamental_cycles_pass_the_public_checks():
    """fundamental_cycles skips SimpleCycle's checks; every cycle it builds
    passes them when rebuilt through the public constructor."""
    for o, salts in form_cases():
        for salt in salts:
            for cycle in spin.fundamental_cycles(o, tree(salt)):
                assert spin.SimpleCycle(o, cycle.steps).steps == cycle.steps


def test_form_matches_the_public_reference():
    """build_quadratic_form reads chords and turning totals in one loop over
    each cycle's steps; its q values are those of turning_index, and its
    cycles are those of fundamental_cycles on the same tree."""
    for o, salts in form_cases():
        for salt in salts:
            form = spin.build_quadratic_form(o, tree(salt))
            q_values = tuple((spin.turning_index(c) + 1) % 2 for c in form.cycles)
            assert form.q_values == q_values, (o, salt)
            steps = [c.steps for c in spin.fundamental_cycles(o, tree(salt))]
            assert [c.steps for c in form.cycles] == steps, (o, salt)


@functools.cache
def reduction_cases():
    """(origami, tree salt) pairs: the H(4) classes with d <= 7, each
    relabeled at random, on the default tree; the H(2,2) classes with d <= 7
    on a random tree; and random origamis of degree 3 to 9 on random trees,
    a third of them with an odd zero order, where both raise."""
    rng = make_rng(salt=2100)
    cases = []
    for o, salts in form_cases():
        if singularity_orders(o).orders == (4,):
            cases.append((origami.relabel(o, rng.sample(range(o.d), o.d)), None))
        else:
            cases.append((o, salts[1]))
    cases += [(origami.random_origami(d, rng), 40 * d + k) for d in range(3, 10) for k in range(30)]
    return cases


def form_or_error(build, o, salt):
    try:
        form = build(o, tree(salt))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(form, spin.QuadraticFormData):
        return form.pairing, form.q_values, form.radical_rank, form.symplectic_rank, form.arf
    return form


def test_form_matches_the_closure_reduction():
    """build_quadratic_form reduces the pairing on unpacked ints; its pairing,
    q values, ranks and Arf invariant, or its error, are those of the
    cycle-by-cycle reference with the closure-based reduction."""
    refused = 0
    for o, salt in reduction_cases():
        got = form_or_error(spin.build_quadratic_form, o, salt)
        assert got == form_or_error(oracles.quadratic_form_reference, o, salt), (o, salt)
        refused += got[0] is ValueError
    assert 0 < refused < len(reduction_cases()) - len(form_cases())


def test_reduction_raise_paths(monkeypatch, torus_origami):
    """A pairing that vanishes leaves the torus's cycles, whose q values are
    1, in the radical; a genus that is too large leaves the symplectic rank
    short.  Both the form and the reference refuse."""
    assert oracles.reduction_reference([2, 1], [1, 1], 1) == (0, 2, 1)
    with pytest.raises(ValueError, match="radical q nonzero"):
        oracles.reduction_reference([0, 0], [1, 1], 1)
    with pytest.raises(RuntimeError, match="does not match 2g = 4"):
        oracles.reduction_reference([2, 1], [1, 1], 2)
    with monkeypatch.context() as patch:
        patch.setattr(spin, "_CROSS", bytes(256))
        for build in (spin.build_quadratic_form, oracles.quadratic_form_reference):
            with pytest.raises(ValueError, match="radical q nonzero"):
                build(torus_origami)
    monkeypatch.setattr(spin, "singularity_orders", lambda o: StratumSignature(2, (2,)))
    with pytest.raises(RuntimeError, match="symplectic rank 2 does not match 2g = 4"):
        spin.build_quadratic_form(torus_origami)


def test_hyperelliptic_components_have_the_kontsevich_zorich_parity():
    """On H^hyp(2g - 2), and on H^hyp(g - 1, g - 1) for odd g, the spin
    parity is floor((g + 1) / 2) mod 2 (Kontsevich-Zorich 2003): odd on H(2),
    whose every class is hyperelliptic although classify_component calls the
    stratum connected, and even on the hyperelliptic classes of H(4), H(2,2)
    and H(6)."""
    for g in range(2, 6):
        assert hyperell.hyperelliptic_component_parity(g) == (g + 1) // 2 % 2
    checked = Counter()
    classes = [o for d in range(3, 6) for o in origami.origamis_in_stratum(d, (2,))]
    assert len(classes) == sum(oracles.h2_class_count(d) for d in range(3, 6))
    for o in classes:
        assert spin.classify_component(o) == ComponentLabel.CONNECTED
    classes += [o for o, _ in form_cases()]
    h6 = origami.origamis_in_stratum(7, (6,))
    classes += [o for o in h6 if spin.hyperelliptic_involution(o) is not None]
    for o in classes:
        orders = singularity_orders(o).orders
        if orders == (2,) or spin.classify_component(o) == ComponentLabel.HYPERELLIPTIC:
            g = singularity_orders(o).genus
            assert spin.spin_parity(o) == (g + 1) // 2 % 2, o
            checked[orders] += 1
    assert checked == {(2,): 39, (4,): 343, (2, 2): 273, (6,): 143}


def test_pairing_needs_one_origami(l3, l5):
    with pytest.raises(ValueError, match="different origamis"):
        spin.pairing_mod2(spin.fundamental_cycles(l3)[0], spin.fundamental_cycles(l5)[0])


def test_spin_parity_values(l5, l3, torus_origami):
    assert spin.spin_parity(l5) == 1
    assert spin.spin_parity(l3) == 1
    assert spin.spin_parity(torus_origami) == 1
    assert spin.spin_parity(H4_HYP) == 0
    assert spin.spin_parity(H4_ODD) == 1


def test_spin_parity_tree_independent(l5, l3, torus_origami):
    for o in (l5, l3, torus_origami, H4_HYP, H4_ODD):
        base = spin.spin_parity(o)
        for salt in range(10):
            assert spin.spin_parity(o, make_rng(salt=salt)) == base


def test_spin_parity_isomorphism_invariant(rng):
    for o in (H4_HYP, H4_ODD):
        base = spin.spin_parity(o)
        for _ in range(10):
            sigma = list(range(o.d))
            rng.shuffle(sigma)
            assert spin.spin_parity(origami.relabel(o, sigma)) == base


@functools.cache
def even_classes_d7():
    """The H(4) and H(2,2) classes of degree 7."""
    return [o for orders in ((4,), (2, 2)) for o in origami.origamis_in_stratum(7, orders)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spin_and_component_survive_relabeling(data):
    o = data.draw(st.sampled_from(even_classes_d7()))
    moved = origami.relabel(o, data.draw(st.permutations(range(o.d))))
    tree = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    assert spin.spin_parity(moved, tree) == spin.spin_parity(o)
    assert spin.classify_component(moved) == spin.classify_component(o)


def test_spin_undefined_for_odd_orders():
    with pytest.raises(ValueError, match="spin undefined"):
        spin.spin_parity(H11_EXAMPLE)
    with pytest.raises(ValueError, match="spin undefined"):
        spin.build_quadratic_form(H11_EXAMPLE)


@pytest.fixture
def searches(monkeypatch) -> dict:
    """The argument tuples of build_quadratic_form ("form") and of
    _involution_core ("involution"), in call order."""
    calls = {"form": [], "involution": []}
    build, core = spin.build_quadratic_form, spin._involution_core

    def counted_build(o, rng=None):
        calls["form"].append((o, rng))
        return build(o, rng)

    def counted_core(*args):
        calls["involution"].append(args)
        return core(*args)

    monkeypatch.setattr(spin, "build_quadratic_form", counted_build)
    monkeypatch.setattr(spin, "_involution_core", counted_core)
    return calls


def h4_odd_d5():
    """A fresh degree-5 H(4) origami of odd spin, with no flat involution."""
    return make(5, "(1,2,4,5,3)", "(2,4)(3,5)")


def test_answers_are_computed_once_per_origami(searches):
    """Whatever the order of the reads, spin_parity, hyperelliptic_involution
    and classify_component on one origami build one form and run one
    involution search, and the stored answers, None included, are theirs."""
    reads = (
        lambda o: spin.spin_parity(o) == 1,
        lambda o: spin.hyperelliptic_involution(o) is None,
        lambda o: spin.classify_component(o) == ComponentLabel.ODD_SPIN,
    )
    for order in itertools.permutations(reads):
        o = h4_odd_d5()
        for _ in range(2):
            assert all(read(o) for read in order)
        assert [o] == [args[0] for args in searches["form"]]
        assert [(o.d, o.h, o.v)] == [args[:3] for args in searches["involution"]]
        assert (vars(o)["_arf"], vars(o)["_involution"]) == (1, None)
        searches["form"].clear()
        searches["involution"].clear()


def test_a_random_tree_builds_a_fresh_form(searches):
    """spin_parity with an rng builds a form on that tree on every call, and
    neither writes nor reads the stored parity."""
    o = h4_odd_d5()
    for salt in range(3):
        assert spin.spin_parity(o, tree(salt)) == 1
    assert len(searches["form"]) == 3 and "_arf" not in vars(o)
    assert spin.spin_parity(o) == spin.spin_parity(o) == 1
    assert len(searches["form"]) == 4
    vars(o)["_arf"] = 0  # planted: only the default tree may return it
    for salt in range(3):
        assert spin.spin_parity(o, tree(salt)) == 1
    assert spin.spin_parity(o) == 0
    assert len(searches["form"]) == 7
    assert [rng is None for _, rng in searches["form"]] == [False] * 3 + [True] + [False] * 3


def test_a_raise_stores_nothing(searches, monkeypatch):
    """An odd zero order raises on every spin_parity call, each building its
    form again; a search that raises leaves no witness behind."""
    o = origami.Origami(H11_EXAMPLE.d, H11_EXAMPLE.h, H11_EXAMPLE.v)
    for calls in range(1, 4):
        with pytest.raises(ValueError, match="spin undefined"):
            spin.spin_parity(o)
        assert len(searches["form"]) == calls and "_arf" not in vars(o)

    def bookkeeping_bug(*args):
        raise RuntimeError("fixed-point count 1 incompatible with genus 2 (bookkeeping bug)")

    with monkeypatch.context() as patch:
        patch.setattr(spin, "_involution_core", bookkeeping_bug)
        with pytest.raises(RuntimeError, match="bookkeeping bug"):
            spin.hyperelliptic_involution(o)
    assert "_involution" not in vars(o)
    assert spin.hyperelliptic_involution(o) == spin.hyperelliptic_involution(H11_EXAMPLE)


def test_stored_answers_equal_a_fresh_twins():
    """On every H(4) class with d <= 7, relabeled at random, the parity, the
    involution witness and the component read in the h4_classify order equal
    those of an unread twin read in the opposite order, and the twin's equal
    a form and a search run with no stored answer."""
    rng = make_rng(salt=2300)
    classes = [o for d in range(5, 8) for o in origami.origamis_in_stratum(d, (4,))]
    assert len(classes) == 1040
    for o in classes:
        moved = origami.relabel(o, rng.sample(range(o.d), o.d))
        twin = origami.Origami(moved.d, moved.h, moved.v)
        read = (
            spin.spin_parity(moved),
            spin.hyperelliptic_involution(moved),
            spin.classify_component(moved),
        )
        component = spin.classify_component(twin)
        witness = spin.hyperelliptic_involution(twin)
        assert read == (spin.spin_parity(twin), witness, component), moved
        hinv, vinv = origami.invert_perm(twin.h), origami.invert_perm(twin.v)
        search = spin._involution_core(twin.d, twin.h, twin.v, hinv, vinv)
        assert (spin.build_quadratic_form(twin).arf, search) == read[:2], moved


def test_involution_values(l5, l3, torus_origami):
    assert spin.hyperelliptic_involution(l5) == (0, 3, 2, 1, 4)
    assert spin.hyperelliptic_involution(l3) == (0, 1, 2)
    assert spin.hyperelliptic_involution(torus_origami) == (0,)
    assert spin.hyperelliptic_involution(H4_HYP) is not None
    assert spin.hyperelliptic_involution(H4_ODD) is None


def test_involution_properties(l5):
    sigma = spin.hyperelliptic_involution(l5)
    h, v = l5.h, l5.v
    hinv, vinv = origami.invert_perm(h), origami.invert_perm(v)
    for s in range(l5.d):
        assert sigma[sigma[s]] == s
        assert sigma[h[s]] == hinv[sigma[s]]
        assert sigma[v[s]] == vinv[sigma[s]]


def test_involution_isomorphism_invariant(rng):
    for o, expected in ((H4_HYP, True), (H4_ODD, False)):
        for _ in range(10):
            sigma = list(range(o.d))
            rng.shuffle(sigma)
            relabeled = origami.relabel(o, sigma)
            assert (spin.hyperelliptic_involution(relabeled) is not None) == expected


def test_hyperelliptic_scan_small():
    assert spin.hyperelliptic_scan(6, (3, 1)) == (128, 0)
    assert spin.hyperelliptic_scan(3, (2,)) == (3, 3)


def test_batch_scan_matches_per_pair_loop():
    """On every stratum with d <= 7, raw pair by raw pair: each pair with a
    flat involution survives the vectorized pre-filter, and the batch scan
    counts the witnesses that the per-pair loop finds."""
    scans = {}
    for d in range(1, 8):
        for orders in signatures(d):
            pairs = witnesses = 0
            for batch in census._stratum_batches(d, orders):
                survive = census._propagations(batch) > 0
                h = batch.h.tolist()
                hinv = origami.invert_perm(h)
                for v, kept in zip(batch.v.tolist(), survive.tolist()):
                    pairs += 1
                    if spin._involution_core(d, h, v, hinv, origami.invert_perm(v)) is not None:
                        witnesses += 1
                        assert kept, (d, orders, h, v)
            scans[d, orders] = census._batch_scan(d, orders)
            assert scans[d, orders] == (pairs, witnesses), (d, orders)
    assert scans[7, (4,)] == (15480, 3909)
    assert scans[7, (2, 2)] == (8572, 3651)


def test_batch_scan_weights_witnesses_by_orbit():
    """Each witness counts once per row of its centralizer orbit, as a per-row
    scan would.  The witness orbits of H(4) and H(2) are regular; those of
    H(2,2) and H(1,1) include rows with non-trivial stabilizers, where
    counting |K| rows per orbit would give 34473 and 17998."""
    assert census._batch_scan(8, (4,)) == (90000, 16474)
    assert census._batch_scan(8, (2,)) == (35952, 6716)
    assert census._batch_scan(8, (2, 2)) == (85416, 31945)
    assert census._batch_scan(8, (1, 1)) == (50472, 17214)


def test_batch_scan_funnel_adds_up(caplog):
    caplog.set_level(logging.DEBUG, logger="flatkit")
    assert census._batch_scan(7, (4,)) == (15480, 3909)
    records = [r for r in caplog.records if r.name == "flatkit.spin"]
    assert [r.args[1] for r in records] == list(strata.int_partitions(7))
    funnels = []
    for r in records:
        tested, passing, rows, f_canonical, kept = r.args[2:7]
        survivors, found, witnesses = r.args[7:10]
        order = census._centralizer_order(r.args[1])
        assert tested * order == 5040
        assert tested >= passing
        assert rows == order * passing
        assert rows >= f_canonical >= kept >= survivors >= found
        assert f_canonical <= len(census._centralizer_subset(r.args[1])) * kept
        assert found <= witnesses <= order * found
        assert len(r.args[10:]) == 4 and min(r.args[10:]) >= 0  # stage seconds
        funnels.append((rows, kept, survivors, witnesses))
    assert sum(f[0] for f in funnels) == 15480
    assert sum(f[3] for f in funnels) == 3909
    connected_kept = sum(
        oracles.connected_columns(b.h, b.v[census._orbit_representatives(b)[0]].T).sum()
        for b in census._stratum_batches(7, (4,))
    )
    assert connected_kept == len(list(origami.origamis_in_stratum(7, (4,)))) == 775
    assert sum(f[2] for f in funnels) < sum(f[1] for f in funnels)


def test_class_scan_matches_the_python_path(monkeypatch):
    """The engine's class-count scan gives (classes, classes with a flat
    involution) as the Python path does, on every stratum up to degree 7."""
    cases = [(d, orders) for d in range(1, 8) for orders in signatures(d)]
    expected = {case: spin.hyperelliptic_scan(*case) for case in cases}
    monkeypatch.setattr(census, "_NUMPY_DEGREE", 1)
    for case in cases:
        assert spin.hyperelliptic_scan(*case) == expected[case], case
    assert expected[7, (4,)] == (775, 255)


def test_small_degrees_import_neither_numpy_nor_logging():
    """Below degree 8 enumeration and scans stay in pure Python, and no flatkit
    module pulls in dataclasses or inspect (see README, "Start-up")."""
    code = (
        "import sys\n"
        "import flatkit.cli\n"
        "from flatkit import flatcore, gl2, hyperell, origami, spin, strata\n"
        "assert len(list(origami.origamis_in_stratum(6, (4,)))) == 225\n"
        "assert spin.hyperelliptic_scan(6, (3, 1)) == (128, 0)\n"
        "print(sorted({'numpy', 'logging', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flatkit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_classify_component(l5, l3):
    assert spin.classify_component(l5) == ComponentLabel.CONNECTED
    assert spin.classify_component(l3) == ComponentLabel.CONNECTED
    assert spin.classify_component(H4_HYP) == ComponentLabel.HYPERELLIPTIC
    assert spin.classify_component(H4_ODD) == ComponentLabel.ODD_SPIN
    assert spin.classify_component(H11_EXAMPLE) == ComponentLabel.CONNECTED


# classify_component over every class of one stratum per decision branch:
# minimal, (g-1, g-1) in odd genus (the involution must swap the zeros),
# minimal with both spin components, spin only, and (g-1, g-1) in even genus
COMPONENT_TALLIES = {
    (6, (4,)): {"hyperelliptic": 70, "odd_spin": 155},
    (6, (2, 2)): {"hyperelliptic": 57, "odd_spin": 69},
    (7, (6,)): {"hyperelliptic": 143, "odd_spin": 701, "even_spin": 416},
    (8, (4, 2)): {"odd_spin": 2475, "even_spin": 2025},
    (8, (3, 3)): {"hyperelliptic": 450, "non_hyperelliptic": 2202},
}


def test_classify_component_tallies():
    for (d, orders), expected in COMPONENT_TALLIES.items():
        labels = Counter(
            str(spin.classify_component(o)) for o in origami.origamis_in_stratum(d, orders)
        )
        assert labels == expected, (d, orders)


def test_classify_component_rejects_torus(torus_origami):
    with pytest.raises(ValueError, match="genus >= 2"):
        spin.classify_component(torus_origami)
