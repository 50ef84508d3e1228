"""The affine group over a field: maps x -> a*x + b with a != 0.

A map g = (a, b) doubles as the point (a, b) of the coordinate plane with the
y-axis deleted, and as the line y = a*x + b.  Composition convention is
(g o h)(x) = g(h(x)), so g o h = (g.a*h.a, g.a*h.b + g.b) and
g^{-1} = (1/g.a, -g.b/g.a).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import SlopeZero
from .fields import Field, Scalar


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b; slope a must be nonzero."""

    a: Scalar
    b: Scalar

    def __post_init__(self):
        if not self.a:
            raise SlopeZero(f"slope must be nonzero, got ({self.a}, {self.b})")

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


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """g o h, the map x -> g(h(x))."""
    return AffineMap(g.a * h.a, g.a * h.b + g.b)


def inverse(g: AffineMap) -> AffineMap:
    """The map with compose(inverse(g), g) = identity."""
    a_inv = g.a.inv()
    return AffineMap(a_inv, -(g.b * a_inv))


def quotient(g: AffineMap, h: AffineMap) -> AffineMap:
    """g^{-1} o h, the pair difference the energy counts."""
    a_inv = g.a.inv()
    return AffineMap(a_inv * h.a, a_inv * (h.b - g.b))


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


_VERTICAL = (0, 1)


def _anchor_directions(A: AffineSet) -> Iterator[Counter]:
    """Per anchor point (a, b) of A, the later points tallied by the direction
    of the line to the anchor; vertical lines have the key _VERTICAL.

    Over Q the points are cleared of denominators once and a direction is the
    primitive integer vector (dx, dy) with dx > 0, or _VERTICAL.  Over F_p it
    is the slope dy/dx on raw residues, one inverse per pair.
    """
    char = A.field.characteristic
    pts = [g.key() for g in A]
    if not char:
        den = lcm(*(v.denominator for pt in pts for v in pt))
        pts = [(int(x * den), int(y * den)) for x, y in pts]
    for i, (ax, ay) in enumerate(pts):
        keys = []
        for bx, by in pts[i + 1 :]:
            dx, dy = bx - ax, by - ay
            if char:
                keys.append(dy * pow(dx, -1, char) % char if dx else _VERTICAL)
            else:
                g = gcd(dx, dy)
                if dx < 0 or (not dx and dy < 0):
                    g = -g
                keys.append((dx // g, dy // g))
        yield Counter(keys)


def max_on_line(A: AffineSet) -> int:
    """M: the most maps collinear as points (a, b), vertical lines included.

    Direction-bucketing per anchor, O(|A|^2) with no field division.
    """
    n = len(A)
    if n <= 2:
        return n
    return max(1 + max(c.values(), default=1) for c in _anchor_directions(A))


def max_on_nonvertical_line(A: AffineSet) -> int:
    """Max maps on a single finite-slope line (torus-coset meets only)."""
    best = min(len(A), 1)
    for counts in _anchor_directions(A):
        counts.pop(_VERTICAL, None)
        if counts:
            best = max(best, 1 + max(counts.values()))
    return best
