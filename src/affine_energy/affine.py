"""The affine group over a field: maps x -> a*x + b with a != 0.

A map g = (a, b) doubles as the point (a, b) of the coordinate plane with the
y-axis deleted, and as the line y = a*x + b.  Composition convention is
(g o h)(x) = g(h(x)), so g o h = (g.a*h.a, g.a*h.b + g.b) and
g^{-1} = (1/g.a, -g.b/g.a).
"""

from __future__ import annotations

from collections import Counter
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


def compose_raw(field: Field, g: tuple, h: tuple) -> tuple:
    """g o h on raw (a, b) pairs: (g.a*h.a, g.a*h.b + g.b)."""
    (ga, gb), (ha, hb) = g, h
    return field.mul(ga, ha), field.add(field.mul(ga, hb), gb)


def inverse_raw(field: Field, g: tuple) -> tuple:
    """g^{-1} on a raw (a, b) pair: (1/a, -b/a)."""
    a_inv = field.inv(g[0])
    return a_inv, field.neg(field.mul(g[1], a_inv))


def _lift(field: Field, pair: tuple) -> AffineMap:
    return AffineMap(Scalar(field, pair[0]), Scalar(field, pair[1]))


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """g o h, the map x -> g(h(x))."""
    return _lift(g.field, compose_raw(g.field, g.key(), h.key()))


def inverse(g: AffineMap) -> AffineMap:
    """The map with compose(inverse(g), g) = identity."""
    return _lift(g.field, inverse_raw(g.field, g.key()))


def quotient(g: AffineMap, h: AffineMap) -> AffineMap:
    """g^{-1} o h, the pair difference the energy counts."""
    return _lift(g.field, compose_raw(g.field, inverse_raw(g.field, g.key()), h.key()))


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
    if mode == "AB":
        out = {compose(a, b) for a in A for b in B}
    elif mode == "AinvB":
        out = {quotient(a, b) for a in A for b in B}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return AffineSet(A.field, out)


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
