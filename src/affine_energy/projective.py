"""Canonical forms of projective coordinate vectors, shared by the plane and
3-space layers.

A vector is scaled so that its pivot, its first nonzero coordinate or (with
last=True) its last one, becomes 1.  Hot loops work on integer vectors:
residues over F_p, denominator-cleared coordinates over Q; their hashable
keys take the pivot to 1 mod p, or divide out the gcd and make the pivot
positive over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .fields import Field


def _pivot(vals: Sequence, last: bool):
    return next((v for v in (reversed(vals) if last else vals) if v), None)


def canonical(field: Field, coords: Sequence, last: bool = False) -> tuple:
    """Field coordinates scaled so the pivot is 1; rejects the zero vector."""
    vals = [field.reduce(c) for c in coords]
    pivot = _pivot(vals, last)
    if pivot is None:
        raise ValueError("projective coordinates cannot all vanish")
    inv = field.inv(pivot)
    return tuple(field.mul(inv, v) for v in vals)


def int_coords(field: Field, coords: Sequence) -> tuple:
    """Integer representative: residues over F_p; over Q, the denominators
    cleared and the gcd divided out."""
    if field.characteristic:
        return tuple(coords)
    fracs = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def canon_int(char: int, t: Sequence, last: bool = False) -> tuple:
    """Hashable key of a nonzero integer vector: equal keys, same projective
    point."""
    if char:
        t = [v % char for v in t]
        pivot = _pivot(t, last)
        if pivot is None:
            raise ValueError("zero vector has no canonical form")
        inv = pow(pivot, -1, char)
        return tuple(v * inv % char for v in t)
    g = gcd(*t)
    if not g:
        raise ValueError("zero vector has no canonical form")
    if _pivot(t, last) < 0:
        g = -g
    return tuple(v // g for v in t)
