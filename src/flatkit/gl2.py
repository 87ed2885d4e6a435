"""Action of orientation-preserving rational 2x2 matrices on polygon surfaces.

A matrix acts on a surface by mapping every vertex (hence every edge vector)
linearly; the combinatorics of the gluing is untouched.  Genus, stratum and
the rank of the periods are invariant, and rational linear relations among
the period vectors are carried along exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import flatcore
from .flatcore import PlanarVec, Rational, TranslationSurface, _as_fraction, _Record


class Mat2(_Record):
    """Rational 2x2 matrix [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational) -> None:
        a, b, c, d = map(_as_fraction, (a, b, c, d))
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def map_vec(self, v: PlanarVec) -> PlanarVec:
        return PlanarVec(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mat2(a: Rational, b: Rational, c: Rational, d: Rational) -> Mat2:
    return Mat2(a, b, c, d)


def rotation(cos_value: Rational, sin_value: Rational) -> Mat2:
    """Rational rotation matrix; (cos, sin) must lie on the unit circle."""
    c, s = _as_fraction(cos_value), _as_fraction(sin_value)
    if c * c + s * s != 1:
        raise ValueError(f"({c}, {s}) is not on the unit circle")
    return Mat2(c, -s, s, c)


def apply(surf: TranslationSurface, m: Mat2) -> TranslationSurface:
    """Image surface with every vertex mapped by m; the pairing and its pair list are reused.

    The map runs on integers: m over one denominator den maps the source's
    integer view, whose image over den times the source's scale seeds the
    image's view, one division per coordinate.  The image equals the map_vec
    image exactly and is validated here.

    Raises for det <= 0: an orientation-reversing map would flip the polygons
    to clockwise order and does not act on these surfaces.
    """
    if m.det <= 0:
        raise ValueError(f"orientation-reversing or singular matrix (det = {m.det})")
    flatcore._require_valid(surf)
    entries = (m.a, m.b, m.c, m.d)
    den = lcm(*(e.denominator for e in entries))
    a, b, c, d = (e.numerator * (den // e.denominator) for e in entries)
    points = tuple(tuple((a * x + b * y, c * x + d * y) for x, y in pts) for pts in surf._scaled)
    image = TranslationSurface._from_scaled(points, den * surf._scale, surf.pairing)
    image.__dict__["_pairs"] = surf._pairs  # the source's validation built it
    image_report = flatcore.validate(image)
    if not image_report.ok:
        raise RuntimeError(
            "matrix image failed validation: " + "; ".join(image_report.violations)
        )
    return image


def _relation_holds(vectors: Sequence[PlanarVec], coeffs: Sequence[Fraction]) -> bool:
    x = sum((c * v.x for c, v in zip(coeffs, vectors)), Fraction(0))
    y = sum((c * v.y for c, v in zip(coeffs, vectors)), Fraction(0))
    return x == 0 and y == 0


def check_linear_relations(
    surf: TranslationSurface,
    relations: Sequence[Sequence[Rational]],
    m: Mat2,
) -> bool:
    """Whether rational relations among the period vectors survive the action.

    Each relation is a coefficient vector over the edge pairs in the order
    reported by flatcore.periods.  The relations must hold on the input
    surface (checked, ValueError otherwise); the return value says whether
    they all hold on the image.  By linearity this is always true; the
    function makes that claim executable.
    """
    before = flatcore.periods(surf).vectors
    parsed = [[_as_fraction(c) for c in rel] for rel in relations]
    for rel in parsed:
        if len(rel) != len(before):
            raise ValueError(
                f"relation length {len(rel)} does not match {len(before)} edge pairs"
            )
        if not _relation_holds(before, rel):
            raise ValueError(f"relation {rel} does not hold on the input surface")
    after = flatcore.periods(apply(surf, m)).vectors
    return all(_relation_holds(after, rel) for rel in parsed)
