"""Stratum signatures, dimension formulas, component classification."""

from itertools import islice

import pytest

from flatkit import strata
from flatkit.strata import ComponentLabel


def test_normalize_orders():
    assert strata.normalize_orders([1, 3, 2]) == (3, 2, 1)
    assert strata.normalize_orders(()) == ()
    with pytest.raises(ValueError, match="positive"):
        strata.normalize_orders([2, 0])
    with pytest.raises(ValueError, match="positive"):
        strata.normalize_orders([-2, 4])
    with pytest.raises(ValueError, match="even"):
        strata.normalize_orders([2, 1])


def test_orders_must_be_integers():
    import numpy as np

    assert strata.normalize_orders(np.array([1, 3])) == (3, 1)
    for orders in ((2.5,), (4.7,), (2.0,), (True, True), ("2",)):
        with pytest.raises(ValueError, match="must be integers"):
            strata.normalize_orders(orders)
    with pytest.raises(ValueError, match="must be integers"):
        strata.components((4.7,))


def test_genus_of_orders():
    assert strata.genus_of_orders(()) == 1
    assert strata.genus_of_orders((2,)) == 2
    assert strata.genus_of_orders((1, 1)) == 2
    assert strata.genus_of_orders((4,)) == 3
    assert strata.genus_of_orders((3, 1)) == 3
    assert strata.genus_of_orders((2, 2, 2)) == 4


def test_partitions_small_genus():
    assert strata.partitions(1) == [()]
    assert strata.partitions(2) == [(2,), (1, 1)]
    assert strata.partitions(3) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        strata.partitions(0)


def test_partitions_counts_and_order():
    # number of partitions of 2g-2: p(6) = 11, p(8) = 22
    assert len(strata.partitions(4)) == 11
    assert len(strata.partitions(5)) == 22
    for g in range(2, 9):
        parts = strata.partitions(g)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        for mu in parts:
            assert sum(mu) == 2 * g - 2
            assert all(m > 0 for m in mu)


def test_partition_numbers():
    p = list(islice(strata.partition_numbers(), 47))
    assert p[:12] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert (p[44], p[46]) == (75175, 105558)
    for g in range(1, 10):
        assert p[2 * g - 2] == len(strata.partitions(g))


def test_orders_are_parsed_once(monkeypatch):
    calls = []
    parse = strata.normalize_orders

    def counted(orders):
        calls.append(orders)
        return parse(orders)

    monkeypatch.setattr(strata, "normalize_orders", counted)
    assert strata.dimension((2, 2)) == 7
    assert len(calls) == 1
    assert strata.components((2, 2)) == (ComponentLabel.HYPERELLIPTIC, ComponentLabel.ODD_SPIN)
    assert len(calls) == 2


def test_dimension():
    assert strata.dimension((2,)) == 4
    assert strata.dimension((1, 1)) == 5
    assert strata.dimension((4,)) == 6
    assert strata.dimension((3, 1)) == 7
    with pytest.raises(ValueError):
        strata.dimension(())


def test_ambient_and_locus_dimensions():
    for g in range(2, 9):
        assert strata.hodge_dimension(g) == 4 * g - 3
        assert strata.hyperelliptic_locus_dimension(g) == 2 * g - 1
        # the fully generic signature (all ones) fills the ambient space
        ones = (1,) * (2 * g - 2)
        assert strata.dimension(ones) == strata.hodge_dimension(g)
    with pytest.raises(ValueError):
        strata.hodge_dimension(1)
    with pytest.raises(ValueError):
        strata.hyperelliptic_locus_dimension(1)


def test_components_low_genus_connected():
    assert strata.components(()) == (ComponentLabel.CONNECTED,)
    assert strata.components((2,)) == (ComponentLabel.CONNECTED,)
    assert strata.components((1, 1)) == (ComponentLabel.CONNECTED,)


def test_components_genus3():
    assert strata.components((4,)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.ODD_SPIN,
    )
    assert strata.components((2, 2)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.ODD_SPIN,
    )
    assert strata.components((3, 1)) == (ComponentLabel.CONNECTED,)
    assert strata.components((2, 1, 1)) == (ComponentLabel.CONNECTED,)


def test_components_higher_genus():
    assert strata.components((6,)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.ODD_SPIN,
        ComponentLabel.EVEN_SPIN,
    )
    assert strata.components((3, 3)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.NON_HYPERELLIPTIC,
    )
    assert strata.components((4, 2)) == (
        ComponentLabel.ODD_SPIN,
        ComponentLabel.EVEN_SPIN,
    )
    assert strata.components((4, 4)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.ODD_SPIN,
        ComponentLabel.EVEN_SPIN,
    )
    assert strata.components((5, 5)) == (
        ComponentLabel.HYPERELLIPTIC,
        ComponentLabel.NON_HYPERELLIPTIC,
    )
    assert strata.components((2, 2, 2)) == (
        ComponentLabel.ODD_SPIN,
        ComponentLabel.EVEN_SPIN,
    )
    assert strata.components((3, 2, 1)) == (ComponentLabel.CONNECTED,)


def test_components_bounded_for_all_small_genus():
    for g in range(2, 9):
        for mu in strata.partitions(g):
            comps = strata.components(mu)
            assert 1 <= len(comps) <= 3
            assert len(set(comps)) == len(comps)


def test_component_label_strings():
    assert str(ComponentLabel.HYPERELLIPTIC) == "hyperelliptic"
    assert str(ComponentLabel.ODD_SPIN) == "odd_spin"
    assert ComponentLabel("even_spin") is ComponentLabel.EVEN_SPIN


def test_merge_adjacent():
    assert strata.merge_adjacent((1, 1)) == [(2,)]
    assert strata.merge_adjacent((2, 2)) == [(4,)]
    assert strata.merge_adjacent((3, 1)) == [(4,)]
    assert strata.merge_adjacent((2, 1, 1)) == [(3, 1), (2, 2)]
    with pytest.raises(ValueError, match="at least two"):
        strata.merge_adjacent((2,))


def test_merge_adjacent_drops_dimension_by_one():
    for g in range(2, 7):
        for mu in strata.partitions(g):
            if len(mu) < 2:
                continue
            for merged in strata.merge_adjacent(mu):
                assert strata.dimension(merged) == strata.dimension(mu) - 1
