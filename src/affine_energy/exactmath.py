"""Exact integer/rational root floors for bound-ratio arithmetic.

Bound right-hand sides contain irrational terms like m^{1/2}|A|^{5/2}; stored
ratios stay exact rationals by flooring each such term with an integer root.
Since floor(sqrt(x)) <= sqrt(x), every stored ratio is an exact upper bound on
the real-valued ratio, which is the conservative direction for ceiling
regressions.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, exactly."""
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    # Integer Newton from 2^ceil(bits/n), which is above the root: the
    # iterates fall strictly until the floor root is reached.
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def sqrt_floor_fraction(q: Fraction) -> Fraction:
    """Exact rational floor-style value for sqrt(q): isqrt(num*den)/den.

    isqrt(num*den)/den <= sqrt(num/den) with equality for perfect squares.
    """
    if q < 0:
        raise ValueError("sqrt of negative rational")
    return Fraction(isqrt(q.numerator * q.denominator), q.denominator)


def ratio(numer, denom) -> Fraction:
    """Exact Fraction numer/denom; 0 when both are 0, raises on /0 otherwise."""
    numer = Fraction(numer)
    denom = Fraction(denom)
    if denom == 0:
        if numer == 0:
            return Fraction(0)
        raise ZeroDivisionError("ratio with zero denominator")
    return numer / denom


def render_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
