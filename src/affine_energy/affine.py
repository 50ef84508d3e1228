"""The affine group over a field: maps x -> a*x + b with a != 0.

A map g = (a, b) doubles as the point (a, b) of the coordinate plane with the
y-axis deleted, and as the line y = a*x + b.  Composition convention is
(g o h)(x) = g(h(x)), so g o h = (g.a*h.a, g.a*h.b + g.b) and
g^{-1} = (1/g.a, -g.b/g.a).

One group law on flat keys (group_law) serves compose, inverse, quotient,
product_set and, through pair_keys and meet_law, the brute-force oracles; no
fast path calls it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Sequence

from .errors import SlopeZero
from .fields import Field, Frozen, Scalar, cleared
from .projective import lines, max_collinear


class AffineMap(Frozen):
    """x -> a*x + b; slope a must be nonzero."""

    __slots__ = ("a", "b")

    def __init__(self, a: Scalar, b: Scalar):
        if not a:
            raise SlopeZero(f"slope must be nonzero, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if type(other) is not AffineMap:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a.value, self.b.value))

    @property
    def field(self) -> Field:
        return self.a.field

    def key(self):
        """Raw hashable (a, b) pair for hot counting loops."""
        return (self.a.value, self.b.value)

    def __call__(self, x: Scalar) -> Scalar:
        return self.a * x + self.b

    def __str__(self):
        return f"({self.a}, {self.b})"


def affine_map(field: Field, a, b) -> AffineMap:
    """Build a map from raw values, reducing them into the field."""
    return AffineMap(field.scalar(a), field.scalar(b))


def identity(field: Field) -> AffineMap:
    return affine_map(field, 1, 0)


def reduced(n: int, d: int) -> tuple:
    """n/d (d != 0) as a reduced int pair with a positive denominator."""
    e = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // e, d // e


def _compose_q(g: tuple, h: tuple) -> tuple:
    """g o h on flat Q keys, each coordinate over its common denominator and
    reduced by one gcd."""
    gan, gad, gbn, gbd = g
    han, had, hbn, hbd = h
    an, ad, bn, bd = gan * han, gad * had, gan * hbn * gbd + gbn * gad * hbd, gad * hbd * gbd
    c, e = gcd(an, ad), gcd(bn, bd)
    return an // c, ad // c, bn // e, bd // e


def _inverse_q(g: tuple) -> tuple:
    """g^{-1} on a flat Q key: (a_d/a_n, -b_n*a_d/(b_d*a_n))."""
    an, ad, bn, bd = g
    return (*reduced(ad, an), *reduced(-bn * ad, bd * an))


def group_law(field: Field) -> tuple:
    """(compose, inverse) on the flat keys of field, the field-kind branch
    taken once per pass.  A flat key is a map's coordinates as ints: the
    (a, b) residues over F_p, the reduced (a_n, a_d, b_n, b_d) with positive
    denominators over Q, so the law builds no Fraction."""
    p = field.characteristic
    if not p:
        return _compose_q, _inverse_q

    def compose_p(g: tuple, h: tuple) -> tuple:
        (ga, gb), (ha, hb) = g, h
        return ga * ha % p, (ga * hb + gb) % p

    def inverse_p(g: tuple) -> tuple:
        a_inv = field.inv(g[0])
        return a_inv, -g[1] * a_inv % p

    return compose_p, inverse_p


def compose_raw(field: Field, g: tuple, h: tuple) -> tuple:
    """g o h on flat keys: (g.a*h.a, g.a*h.b + g.b)."""
    return group_law(field)[0](g, h)


def inverse_raw(field: Field, g: tuple) -> tuple:
    """g^{-1} on a flat key: (1/a, -b/a)."""
    return group_law(field)[1](g)


def flatten(g: AffineMap) -> tuple:
    """The flat key of g."""
    a, b = g.a.value, g.b.value
    return (a, b) if g.field.characteristic else (a.numerator, a.denominator, b.numerator, b.denominator)


def lift(field: Field, key: tuple) -> AffineMap:
    """The map of a flat key of field."""
    a, b = key if field.characteristic else (Fraction(*key[:2]), Fraction(*key[2:]))
    return AffineMap(Scalar(field, a), Scalar(field, b))


def meet_law(field: Field):
    """The abscissa x0 = (b2 - b1)/(a1 - a2) where the lines of two flat keys
    meet, None if they are parallel: a residue over F_p; over Q the reduced
    int pair (num, den), by cross-multiplication and one gcd."""
    if field.characteristic:
        return lambda l1, l2: None if l1[0] == l2[0] else field.div(field.sub(l2[1], l1[1]), field.sub(l1[0], l2[0]))

    def meet_q(l1: tuple, l2: tuple):
        (a1n, a1d, b1n, b1d), (a2n, a2d, b2n, b2d) = l1, l2
        den = (a1n * a2d - a2n * a1d) * b1d * b2d
        return reduced((b2n * b1d - b1n * b2d) * a1d * a2d, den) if den else None

    return meet_q


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """g o h, the map x -> g(h(x))."""
    return lift(g.field, compose_raw(g.field, flatten(g), flatten(h)))


def inverse(g: AffineMap) -> AffineMap:
    """The map with compose(inverse(g), g) = identity."""
    return lift(g.field, inverse_raw(g.field, flatten(g)))


def quotient(g: AffineMap, h: AffineMap) -> AffineMap:
    """g^{-1} o h, the pair difference the energy counts."""
    compose_flat, inverse_flat = group_law(g.field)
    return lift(g.field, compose_flat(inverse_flat(flatten(g)), flatten(h)))


def pair_keys(A: AffineSet, B: AffineSet, inverted: bool) -> list:
    """The flat keys of g^{-1} o h (inverted) or g o h over A x B, g major,
    by one group law with each row inverted once."""
    compose_flat, inverse_flat = group_law(A.field)
    rows = [flatten(g) for g in A]
    if inverted:
        rows = list(map(inverse_flat, rows))
    cols = [flatten(h) for h in B]
    return [compose_flat(g, h) for g in rows for h in cols]


class AffineSet:
    """Deduplicated finite set of affine maps over one field."""

    __slots__ = ("field", "maps")

    def __init__(self, field: Field, maps: Iterable[AffineMap]):
        self.field = field
        self.maps = frozenset(maps)
        for g in self.maps:
            if g.field != field:
                raise ValueError("all maps must live over the given field")

    @classmethod
    def from_pairs(cls, field: Field, pairs) -> "AffineSet":
        return cls(field, (affine_map(field, a, b) for a, b in pairs))

    def __iter__(self) -> Iterator[AffineMap]:
        return iter(self.maps)

    def __len__(self) -> int:
        return len(self.maps)

    def __contains__(self, g: AffineMap) -> bool:
        return g in self.maps

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineSet) and self.field == other.field and self.maps == other.maps

    def __hash__(self):
        return hash((self.field, self.maps))

    def sorted_maps(self) -> list:
        """Deterministic ordering for reports and serialization."""
        key = self.field.sort_key
        return sorted(self.maps, key=lambda g: (key(g.a.value), key(g.b.value)))

    def __repr__(self):
        return f"AffineSet({self.field!r}, {len(self)} maps)"


def product_set(A: AffineSet, B: AffineSet, mode: str = "AB") -> AffineSet:
    """{a o b} for mode "AB", {a^{-1} o b} for mode "AinvB"."""
    if A.field != B.field:
        raise ValueError("product of sets over different fields")
    if mode not in ("AB", "AinvB"):
        raise ValueError(f"unknown mode {mode!r}")
    return AffineSet(A.field, [lift(A.field, k) for k in set(pair_keys(A, B, mode == "AinvB"))])


def max_on_vertical(A: AffineSet) -> int:
    """m: the largest fibre of the slope coordinate (largest U-coset meet)."""
    return max(Counter(g.a.value for g in A).values(), default=0)


def _chart_points(field: Field, keys: Sequence[tuple]) -> List[tuple]:
    """The raw (a, b) keys as the integer points (a, b, 0, 1) of P^3, the
    (a, b)-plane embedded as x2 = 0; over Q each point scaled by its own
    denominator, so its entries keep the height of its key."""
    char = field.characteristic
    return [(a, b, 0, d) for (a, b), d in (cleared(char, key) for key in keys)]


def max_on_line(A: AffineSet) -> int:
    """M: the most maps collinear as points (a, b), vertical lines included.

    Anchor bucketing by line key on raw integer points, O(|A|^2).
    """
    return max_collinear(A.field.characteristic, _chart_points(A.field, [g.key() for g in A]))


def _nonvertical_lines(field: Field, keys: Sequence[tuple]) -> List[list]:
    """The non-vertical lines through two or more raw (a, b) keys, as index lists."""
    groups = lines(field.characteristic, _chart_points(field, keys))
    return [m for m in groups if keys[m[0]][0] != keys[m[1]][0]]


def max_on_nonvertical_line(A: AffineSet) -> int:
    """Max maps on a single finite-slope line (torus-coset meets only)."""
    return max(map(len, _nonvertical_lines(A.field, [g.key() for g in A])), default=min(len(A), 1))
