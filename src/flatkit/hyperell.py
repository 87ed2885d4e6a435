"""Divisors of one-forms f(z) dz / x on hyperelliptic curves x^2 = prod(z - a_i).

The curve is described by its 2g+2 rational branch values.  Forms are given
in factored shape c * prod (z - b_j)^{k_j}, so the divisor support stays
exactly representable: zeros sit over branch values (Weierstrass points),
over other rational roots (two conjugate points each), and at the two points
over z = infinity.

The module also provides the dimension count for spaces of functions with a
single pole at a Weierstrass point, which pins down the spin parity of the
hyperelliptic locus in each genus.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._base import Rational, _as_fraction, _read_rational, _Record


class BranchSet(_Record):
    """The 2g+2 distinct rational branch values of a hyperelliptic curve."""

    points: tuple[Fraction, ...]

    def __init__(self, points: Iterable[Rational]) -> None:
        pts = tuple(_as_fraction(p) for p in points)
        if len(pts) < 4 or len(pts) % 2 != 0:
            raise ValueError(f"need an even number >= 4 of branch points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise ValueError("branch points must be pairwise distinct")
        self.__dict__["points"] = pts

    @property
    def genus(self) -> int:
        return len(self.points) // 2 - 1


def branch_set(points: Iterable[Rational]) -> BranchSet:
    return BranchSet(tuple(points))


class FactoredForm(_Record):
    """The one-form c * prod (z - b_j)^{k_j} dz / x, roots given exactly."""

    constant: Fraction
    factors: tuple[tuple[Fraction, int], ...]

    def __init__(self, constant: Rational, factors: Iterable[tuple[Rational, int]]) -> None:
        c, factors = _as_fraction(constant), tuple(factors)
        # operator.index refuses a float, where int() truncates it; a bool is no multiplicity.
        if any(isinstance(k, bool) or not hasattr(type(k), "__index__") for _, k in factors):
            raise TypeError(f"multiplicities must be integers, got {factors}")
        facs = tuple((_as_fraction(b), operator.index(k)) for b, k in factors)
        if c == 0:
            raise ValueError("constant factor must be nonzero")
        roots = [b for b, _ in facs]
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct; combine repeated factors")
        if any(k < 1 for _, k in facs):
            raise ValueError("multiplicities must be >= 1")
        self.__dict__.update(constant=c, factors=facs)

    @property
    def degree(self) -> int:
        return sum(k for _, k in self.factors)

    def multiplicity(self, value: Fraction) -> int:
        for b, k in self.factors:
            if b == value:
                return k
        return 0

    def __str__(self) -> str:
        parts = []
        if self.constant != 1 or not self.factors:
            parts.append(str(self.constant))
        for b, k in self.factors:
            if b == 0:
                base = "z"
            elif b > 0:
                base = f"(z-{b})"
            else:
                base = f"(z+{-b})"
            parts.append(base if k == 1 else f"{base}^{k}")
        return "*".join(parts)


def factored_form(
    constant: Rational, factors: Iterable[tuple[Rational, int]] = ()
) -> FactoredForm:
    return FactoredForm(constant, tuple(factors))


# z, (z-r) or (z+r), then an optional ^k; blanks may stand between the parts, not in a number.
_FACTOR_RE = re.compile(
    r"(?:z|\([ \t]*z[ \t]*(?P<op>[+-])[ \t]*(?P<root>[0-9/]+)[ \t]*\))(?:[ \t]*\^[ \t]*(?P<mult>[0-9]+))?"
)


def parse_form(text: str) -> FactoredForm:
    """Parse a factored-form string like "3*(z-1)^2*(z+1/2)" or "z^2" or "5"; each number
    is read by the one rational reader, _base._read_rational."""
    constant = Fraction(1)
    mults: dict[Fraction, int] = {}
    for token in text.split("*"):
        token = token.strip(" \t")
        if not token:
            raise ValueError(f"empty factor in form string {text!r}")
        m = _FACTOR_RE.fullmatch(token)
        if m is None:
            constant *= _as_fraction(token, "form factor")
            continue
        root = _as_fraction(m["root"], "form root") if m["root"] else Fraction(0)
        root = -root if m["op"] == "+" else root
        k = _read_rational(m["mult"], "form exponent")[0] if m["mult"] else 1
        mults[root] = mults.get(root, 0) + k
    return FactoredForm(constant, tuple(sorted(mults.items())))


# --- places and divisors ----------------------------------------------------


class WeierstrassPlace(_Record):
    """The single point over a branch value a (fixed by the involution)."""

    branch: Fraction

    def __str__(self) -> str:
        return f"W({self.branch})"


class ConjugatePairPlace(_Record):
    """The two involution-swapped points over a non-branch value b.

    The recorded order holds at each of the two points, so this place
    contributes twice its order to degree counts.
    """

    root: Fraction

    def __str__(self) -> str:
        return f"pair({self.root})"


class InfinityPlace(_Record):
    """One of the two points over z = infinity, labeled +1 / -1."""

    sign: int

    def __str__(self) -> str:
        return "inf+" if self.sign > 0 else "inf-"


Place = Union[WeierstrassPlace, ConjugatePairPlace, InfinityPlace]


class DivisorOnCurve(_Record):
    """Order table of a form; zero-order places are omitted."""

    entries: tuple[tuple[Place, int], ...]

    def order_at(self, place: Place) -> int:
        for p, order in self.entries:
            if p == place:
                return order
        return 0

    @property
    def total_order(self) -> int:
        total = 0
        for place, order in self.entries:
            total += 2 * order if isinstance(place, ConjugatePairPlace) else order
        return total

    @property
    def is_effective(self) -> bool:
        return all(order >= 0 for _, order in self.entries)


def divisor_of_form(branches: BranchSet, form: FactoredForm) -> DivisorOnCurve:
    """Exact divisor of the form on the curve with the given branch values.

    Local orders: over a branch value a the coordinate z - a vanishes to
    second order and dz/x is a unit, giving order 2*mult(a); over any other
    root b the two preimage points each see order mult(b); at each point over
    infinity the form dz/x has a zero of order g - 1, shifted down by the
    degree of f.
    """
    g = branches.genus
    entries: list[tuple[Place, int]] = []
    branch_values = set(branches.points)
    for a in branches.points:
        order = 2 * form.multiplicity(a)
        if order != 0:
            entries.append((WeierstrassPlace(a), order))
    for b, k in form.factors:
        if b not in branch_values:
            entries.append((ConjugatePairPlace(b), k))
    inf_order = g - 1 - form.degree
    if inf_order != 0:
        entries.append((InfinityPlace(+1), inf_order))
        entries.append((InfinityPlace(-1), inf_order))
    div = DivisorOnCurve(tuple(entries))
    if div.total_order != 2 * g - 2:
        raise RuntimeError(
            f"divisor degree {div.total_order} != 2g-2 = {2 * g - 2}; order rules broken"
        )
    return div


def is_holomorphic(branches: BranchSet, form: FactoredForm) -> bool:
    return divisor_of_form(branches, form).is_effective


class BasisReport(_Record):
    """Holomorphy of z^k dz/x for k = 0..g: the first g must hold, k = g not."""

    genus: int
    holomorphic: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.holomorphic[: self.genus]) and not self.holomorphic[self.genus]


def basis_check(branches: BranchSet) -> BasisReport:
    g = branches.genus
    flags = []
    for k in range(g + 1):
        factors = ((Fraction(0), k),) if k > 0 else ()
        flags.append(is_holomorphic(branches, FactoredForm(Fraction(1), factors)))
    return BasisReport(g, tuple(flags))


# --- function-space dimensions at a Weierstrass point -----------------------


def h0_weierstrass_multiple(k: int, g: int) -> int:
    """dim of the space of functions with a pole of order <= k at one
    Weierstrass point, for 0 <= k <= 2g-1.

    On these curves the achievable pole orders below 2g are exactly the even
    ones (powers of the degree-two function z), so the dimension grows by one
    at each even k.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if not 0 <= k <= 2 * g - 1:
        raise ValueError(f"pole order {k} out of range 0..{2 * g - 1}")
    return 1 + k // 2


def hyperelliptic_component_parity(g: int) -> int:
    """Spin parity carried by the hyperelliptic family in genus g >= 2.

    The one-form with a single zero of order 2g-2 at a Weierstrass point has
    parity h0((g-1) * W) mod 2.
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    return h0_weierstrass_multiple(g - 1, g) % 2
