"""Private base of every flatkit module: the record base class _Record (plain
classes, not dataclasses; see README, "Start-up"), the StratumSignature record,
the one rational reader, rational coercion and union-find.  No flatkit imports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union

Rational = Union[int, str, Fraction]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/(?:(0+)|[0-9]+))?")  # group 1: a zero denominator


def _read_rational(text: str, what: str) -> tuple[int, int]:
    """The one reader of a rational from text: ASCII -?[0-9]+(/[0-9]+)? and nothing else (no
    blank, +, _, exponent, decimal point or non-ASCII digit), in lowest terms (n, q > 0)."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad {what} {text!r}: not an integer or p/q in ASCII digits")
    if m[1]:
        raise ValueError(f"zero denominator in {what} {text!r}")
    return Fraction(text).as_integer_ratio()


def _as_fraction(value: Rational, what: str = "rational value") -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(*_read_rational(value, what))
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


class _Record:
    """Base of flatkit's immutable records: the frozen dataclass semantics
    without importing dataclasses.  A subclass declares its fields as class
    annotations, in positional order, and only there.  The one constructor
    here stores them, given by position or by keyword, in field order in the
    instance __dict__, where cached properties also live; a record that checks
    or coerces its input defines its own __init__.  Equality holds within one
    class on the field tuple, the hash is the field tuple's, the repr is
    Class(field=value, ...), and assignment or deletion raises AttributeError."""

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*cls._fields)  # of one name it returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bound as a Python signature binds them
            given = dict(zip(fields, args))
            if len(args) > len(fields) or given.keys() & kwargs or {*given, *kwargs} != {*fields}:
                raise TypeError(
                    f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; got "
                    f"{len(args)} positional and the keywords {', '.join(kwargs) or '(none)'}"
                )
            given.update(kwargs)
            args = [given[name] for name in fields]
        self.__dict__.update(zip(fields, args))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class StratumSignature(_Record):
    """Genus plus the descending list of positive zero orders."""

    genus: int
    orders: tuple[int, ...]

    def __str__(self) -> str:
        return "H(" + ",".join(str(m) for m in self.orders) + ")"


def _roots(n: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find: the representative of each of 0..n-1 once the links are merged."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        parent[find(a)] = find(b)
    return [find(a) for a in range(n)]
