"""Counts from the literature, computed without flatkit, to check its enumeration.

h2_class_count uses the Eskin-Masur-Schmoll count of primitive origamis in
H(2): for n >= 3 squares there are

    P(n) = (3/8) (n - 2) n^2 prod_{p | n, p prime} (1 - p^-2)

of them, and none for n < 3.  An n-square origami whose lattice of periods
has index m in Z^2 is a primitive n/m-square origami pulled back along one
of the sigma(m) sublattices of index m, so the origamis of H(2) number
sum_{m | n} sigma(m) P(n/m).  Their translation automorphisms fix the single
cone point and therefore are trivial, so the count is the number of classes.
"""

from fractions import Fraction


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


def primitive_h2_count(n: int) -> int:
    if n < 3:
        return 0
    count = Fraction(3, 8) * (n - 2) * n * n
    for p in prime_divisors(n):
        count *= 1 - Fraction(1, p * p)
    assert count.denominator == 1, n
    return int(count)


def h2_class_count(n: int) -> int:
    return sum(divisor_sum(m) * primitive_h2_count(n // m) for m in range(1, n + 1) if n % m == 0)
