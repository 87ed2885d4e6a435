"""Strata of translation surfaces: signatures, dimensions, connected components.

A stratum is determined by the genus g and the multiset of cone-point zero
orders, a partition of 2g - 2 into positive parts (empty for the torus).
This module enumerates the partitions for a given genus, gives the dimension
formulas, and classifies the connected components of each stratum.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import count
from typing import Iterator, Sequence


class ComponentLabel(str, Enum):
    HYPERELLIPTIC = "hyperelliptic"
    ODD_SPIN = "odd_spin"
    EVEN_SPIN = "even_spin"
    NON_HYPERELLIPTIC = "non_hyperelliptic"
    CONNECTED = "connected"

    def __str__(self) -> str:
        return self.value


def _integers(values: Sequence[int], name: str) -> tuple[int, ...]:
    """The entries as ints, refusing floats (int() truncates 0.9 to 0) and bools."""
    values = tuple(values)
    try:
        if bool not in map(type, values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    raise ValueError(f"{name} entries must be integers, got {values}")


def normalize_orders(orders: Sequence[int]) -> tuple[int, ...]:
    """Sorted descending tuple of positive zero orders with an even sum.

    Orders must be integers (Python or numpy); floats and bools are refused.
    """
    out = tuple(sorted(_integers(orders, "zero order"), reverse=True))
    if any(m <= 0 for m in out):
        raise ValueError(f"zero orders must be positive: {orders}")
    if sum(out) % 2 != 0:
        raise ValueError(f"zero orders must sum to an even number 2g-2: {orders}")
    return out


def genus_of_orders(orders: Sequence[int]) -> int:
    return _genus(normalize_orders(orders))


def _genus(orders: tuple[int, ...]) -> int:
    """The genus of already normalized orders, which sum to 2g - 2."""
    return sum(orders) // 2 + 1


def int_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into positive parts, descending-lexicographically.

    Parts are listed largest first; n = 0 has the single empty partition.
    """

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def partitions(g: int) -> list[tuple[int, ...]]:
    """All strata signatures in genus g, descending-lexicographically.

    For g = 1 the single empty signature is returned.
    """
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    return list(int_partitions(2 * g - 2))


def partition_numbers() -> Iterator[int]:
    """p(0), p(1), p(2), ...: how many strata genus g has is p(2g - 2).

    Euler's pentagonal number recurrence: p(n) is the sum over k >= 1 of
    (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)), terms with a negative
    argument dropped.  The sequence is nondecreasing, so a caller can stop
    at the first term over a budget.
    """
    p = [1]
    yield 1
    for n in count(1):
        total = 0
        for k in count(1):
            first = k * (3 * k - 1) // 2
            if first > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - first]
            if first + k <= n:
                total += sign * p[n - first - k]
        p.append(total)
        yield total


def dimension(orders: Sequence[int]) -> int:
    """Dimension 2g + n - 1 of the stratum with the given zero orders."""
    orders = normalize_orders(orders)
    g = _genus(orders)
    if g < 2:
        raise ValueError("stratum dimension formula needs at least one zero (genus >= 2)")
    return 2 * g + len(orders) - 1


def hodge_dimension(g: int) -> int:
    """Dimension 4g - 3 of the ambient space of genus-g pairs (curve, form)."""
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    return 4 * g - 3


def hyperelliptic_locus_dimension(g: int) -> int:
    """Dimension 2g - 1 of the locus of hyperelliptic pairs in genus g."""
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    return 2 * g - 1


def components(orders: Sequence[int]) -> tuple[ComponentLabel, ...]:
    """Connected components of the stratum with the given zero orders.

    The classification depends only on three features: whether the signature
    is (2g-2) or (g-1, g-1) (the two shapes carrying a hyperelliptic
    component), and whether all orders are even (so that a spin parity is
    defined).
    """
    orders = normalize_orders(orders)
    g = _genus(orders)
    if g <= 2:
        return (ComponentLabel.CONNECTED,)
    all_even = all(m % 2 == 0 for m in orders)
    minimal = orders == (2 * g - 2,)
    half_half = len(orders) == 2 and orders[0] == orders[1] == g - 1

    if g == 3:
        if minimal or (half_half and all_even):
            return (ComponentLabel.HYPERELLIPTIC, ComponentLabel.ODD_SPIN)
        return (ComponentLabel.CONNECTED,)
    if minimal:
        return (ComponentLabel.HYPERELLIPTIC, ComponentLabel.ODD_SPIN, ComponentLabel.EVEN_SPIN)
    if half_half:
        if all_even:
            # g odd here: both zero orders equal g-1, even.
            return (
                ComponentLabel.HYPERELLIPTIC,
                ComponentLabel.ODD_SPIN,
                ComponentLabel.EVEN_SPIN,
            )
        return (ComponentLabel.HYPERELLIPTIC, ComponentLabel.NON_HYPERELLIPTIC)
    if all_even:
        return (ComponentLabel.ODD_SPIN, ComponentLabel.EVEN_SPIN)
    return (ComponentLabel.CONNECTED,)


def merge_adjacent(orders: Sequence[int]) -> list[tuple[int, ...]]:
    """Signatures reachable by colliding two zeros into one (orders add).

    Returns the distinct merged signatures, descending-lexicographically.
    Raises if fewer than two zeros are present.
    """
    orders = normalize_orders(orders)
    if len(orders) < 2:
        raise ValueError("nothing to merge: need at least two zeros")
    seen: set[tuple[int, ...]] = set()
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            rest = list(orders[:i]) + list(orders[i + 1 : j]) + list(orders[j + 1 :])
            rest.append(orders[i] + orders[j])
            seen.add(tuple(sorted(rest, reverse=True)))
    return sorted(seen, reverse=True)
