"""Divisor calculus on hyperelliptic curves given by rational branch values."""

import random
from fractions import Fraction

import pytest

from flatkit import hyperell
from flatkit.hyperell import (
    ConjugatePairPlace,
    InfinityPlace,
    WeierstrassPlace,
    branch_set,
    divisor_of_form,
    factored_form,
    parse_form,
)

from conftest import make_rng


G2_BRANCHES = branch_set([0, 1, 2, -1, 3, -2])
G3_BRANCHES = branch_set([0, 1, 2, 3, -1, -2, -3, 4])


def test_branch_set_validation():
    assert G2_BRANCHES.genus == 2
    assert G3_BRANCHES.genus == 3
    assert branch_set([0, 1, 2, 3]).genus == 1
    with pytest.raises(ValueError, match="even number"):
        branch_set([0, 1, 2])
    with pytest.raises(ValueError, match="even number"):
        branch_set([0, 1])
    with pytest.raises(ValueError, match="distinct"):
        branch_set([0, 1, 2, 1])


def test_values_must_be_exact_rationals():
    assert branch_set([0, "1/2", Fraction(2), 3]).points == (0, Fraction(1, 2), 2, 3)
    f = factored_form("2", [("1/2", 1), (Fraction(3), 2)])
    assert f.constant == 2
    assert f.factors == ((Fraction(1, 2), 1), (3, 2))
    with pytest.raises(TypeError, match="not a rational value"):
        branch_set([0.5, 1, 2, 3])
    with pytest.raises(TypeError, match="not a rational value"):
        branch_set([True, 2, 3, 4])  # a bool is not read as 1
    with pytest.raises(TypeError, match="not a rational value"):
        factored_form(True)
    with pytest.raises(TypeError, match="not a rational value"):
        factored_form(1, [(False, 1)])
    with pytest.raises(TypeError, match="not a rational value"):
        factored_form(1.5)
    with pytest.raises(TypeError, match="not a rational value"):
        factored_form(1, [(0.5, 1)])


def test_factored_form_basic():
    f = factored_form(3, [(1, 2), (Fraction(-1, 2), 1)])
    assert f.degree == 3
    assert f.multiplicity(Fraction(1)) == 2
    assert f.multiplicity(Fraction(7)) == 0
    with pytest.raises(ValueError, match="nonzero"):
        factored_form(0, [(1, 1)])
    with pytest.raises(ValueError, match="distinct"):
        factored_form(1, [(1, 1), (1, 2)])
    with pytest.raises(ValueError, match="multiplicities"):
        factored_form(1, [(1, 0)])


def test_multiplicities_must_be_integers():
    """A float multiplicity is refused, not truncated, and a bool is not read as 0 or 1."""
    import numpy as np

    for k in (1.9, 2.0, True, "2", None):
        with pytest.raises(TypeError, match="multiplicities must be integers"):
            factored_form(1, [(0, k)])
    f = factored_form(1, [(0, np.int64(2)), ("1/2", 1)])
    assert f.factors == ((0, 2), (Fraction(1, 2), 1))
    assert type(f.factors[0][1]) is int
    assert str(f) == "z^2*(z-1/2)"


def test_parse_form():
    f = parse_form("3*(z-1)^2*(z+1/2)")
    assert f.constant == 3
    assert f.multiplicity(Fraction(1)) == 2
    assert f.multiplicity(Fraction(-1, 2)) == 1
    assert parse_form("z^2").multiplicity(Fraction(0)) == 2
    assert parse_form("5").degree == 0
    assert parse_form("5").constant == 5
    assert parse_form("(z-2)*(z-2)").multiplicity(Fraction(2)) == 2
    assert parse_form("1/2 * z").constant == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_form("")
    with pytest.raises(ValueError):
        parse_form("z + 1")
    with pytest.raises(ValueError):
        parse_form("(w-1)")


def test_form_numbers_use_the_rational_spelling():
    """Blanks may stand between the parts of a form, never inside a number, and every
    number is an ASCII integer or p/q, as a --matrix entry or a JSON coordinate is."""
    assert parse_form(" ( z - 1 ) ^ 2 *\t3 ") == parse_form("3*(z-1)^2")
    assert parse_form("-1/2*z") == factored_form("-1/2", [(0, 1)])
    for text in (
        "1 2", "1 / 2", "+3", "1.5", "3e0", "1_0", "\u0663", "(z-1.5)", "(z--1)", "(z-+1)",
        "(z-1 0)", "z^+2", "z^1.5", "z^\u0662", "3**z", "3*",
    ):
        with pytest.raises(ValueError):
            parse_form(text)
    with pytest.raises(ValueError, match="^zero denominator in form root '1/0'$"):
        parse_form("(z-1/0)")


def test_parse_format_roundtrip():
    for text in ("z", "(z-1)^2", "3*(z+1/2)*(z-2)^3", "7"):
        f = parse_form(text)
        assert parse_form(str(f)) == f


def test_divisor_branch_root_g2():
    # root at a branch value: double zero at that Weierstrass place
    div = divisor_of_form(G2_BRANCHES, parse_form("z"))
    assert div.order_at(WeierstrassPlace(Fraction(0))) == 2
    assert div.order_at(InfinityPlace(+1)) == 0
    assert div.order_at(InfinityPlace(-1)) == 0
    assert div.total_order == 2
    assert div.is_effective


def test_divisor_constant_form_g2():
    # no roots: all vanishing sits over infinity, order g-1 at each point
    div = divisor_of_form(G2_BRANCHES, parse_form("1"))
    assert div.order_at(InfinityPlace(+1)) == 1
    assert div.order_at(InfinityPlace(-1)) == 1
    assert div.total_order == 2
    assert div.is_effective


def test_divisor_nonbranch_root_g3():
    # root away from the branch values: the two preimages each see the
    # multiplicity, infinity absorbs the rest
    div = divisor_of_form(G3_BRANCHES, parse_form("(z-10)^2"))
    assert div.order_at(ConjugatePairPlace(Fraction(10))) == 2
    assert div.order_at(InfinityPlace(+1)) == 0
    assert div.total_order == 4
    assert div.is_effective


def test_divisor_with_pole_at_infinity():
    div = divisor_of_form(G2_BRANCHES, parse_form("(z-10)^3"))
    assert div.order_at(ConjugatePairPlace(Fraction(10))) == 3
    assert div.order_at(InfinityPlace(+1)) == -2
    assert div.total_order == 2
    assert not div.is_effective
    assert not hyperell.is_holomorphic(G2_BRANCHES, parse_form("(z-10)^3"))


def test_holomorphic_iff_low_degree():
    for branches in (G2_BRANCHES, G3_BRANCHES):
        g = branches.genus
        for k in range(0, g + 2):
            form = factored_form(1, [(0, k)] if k else [])
            assert hyperell.is_holomorphic(branches, form) == (k <= g - 1)


def test_basis_check():
    report = hyperell.basis_check(G3_BRANCHES)
    assert report.genus == 3
    assert report.holomorphic == (True, True, True, False)
    assert report.ok
    g4 = branch_set([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert g4.genus == 4
    assert hyperell.basis_check(g4).holomorphic == (True, True, True, True, False)


def test_h0_weierstrass_multiple():
    assert [hyperell.h0_weierstrass_multiple(k, 3) for k in range(6)] == [1, 1, 2, 2, 3, 3]
    assert hyperell.h0_weierstrass_multiple(0, 1) == 1
    with pytest.raises(ValueError):
        hyperell.h0_weierstrass_multiple(6, 3)
    with pytest.raises(ValueError):
        hyperell.h0_weierstrass_multiple(-1, 3)


def test_component_parity_values():
    assert hyperell.hyperelliptic_component_parity(2) == 1
    assert hyperell.hyperelliptic_component_parity(3) == 0
    assert hyperell.hyperelliptic_component_parity(4) == 0
    assert hyperell.hyperelliptic_component_parity(5) == 1
    for g in range(2, 12):
        assert hyperell.hyperelliptic_component_parity(g) == (1 + (g - 1) // 2) % 2
    with pytest.raises(ValueError):
        hyperell.hyperelliptic_component_parity(1)


def _random_case(rng: random.Random):
    g = rng.randint(1, 6)
    pool = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(40)]
    pts = sorted(set(pool))
    rng.shuffle(pts)
    branches = branch_set(pts[: 2 * g + 2])
    roots = pts[2 * g + 2 : 2 * g + 2 + rng.randint(0, 3)]
    factors = [(r, rng.randint(1, 3)) for r in roots]
    constant = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2]))
    return branches, factored_form(constant, factors)


def test_divisor_degree_fuzz():
    rng = make_rng(salt=17)
    for _ in range(200):
        branches, form = _random_case(rng)
        div = divisor_of_form(branches, form)
        assert div.total_order == 2 * branches.genus - 2
        assert div.is_effective == (form.degree <= branches.genus - 1)


def test_divisor_shift_invariance():
    # translating every input by the same rational permutes the places but
    # keeps the multiset of orders
    rng = make_rng(salt=23)
    for _ in range(40):
        branches, form = _random_case(rng)
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shifted_branches = branch_set([p + shift for p in branches.points])
        shifted_form = factored_form(
            form.constant, [(b + shift, k) for b, k in form.factors]
        )
        before = sorted(order for _, order in divisor_of_form(branches, form).entries)
        after = sorted(
            order for _, order in divisor_of_form(shifted_branches, shifted_form).entries
        )
        assert before == after
