"""The one canonical form of projective coordinate vectors, the base class
of the plane and 3-space points, lines and planes, and the one line pass,
shared by the plane and 3-space layers.

`canon_int` keys a nonzero integer vector: over F_p its residues scaled so
the pivot, its first nonzero coordinate or (with last=True) its last one, is
1; over Q, with the gcd divided out and the pivot positive.  `Homogeneous`
objects store the key of their vector.  Hot loops work on integer vectors,
residues over F_p and over Q each vector cleared on its own by
`fields.cleared`; the line keys below are canonical at any scale.

Every line statistic groups raw points of P^3 by `_line_keys` and reads the
groups in one of two ways: `max_collinear` gives only the size of the largest
line, `lines` gives every line once with its members.  Given the layers of a
slice, `max_collinear` pairs only points of different layers, since a line
inside a layer is bounded by the layer's own term.  Plane points enter as
(x, y, 0, z): that embeds P^2 as the plane x2 = 0 of P^3 and keeps lines and
collinearity, so the plane layer, the maps (a, b) of the affine layer and the
dual points of the rich-line pencil all share the pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from .fields import Field, Frozen, cleared


def _pivot(vals: Sequence, last: bool):
    return next((v for v in (reversed(vals) if last else vals) if v), None)


def is_zero(char: int, s: int) -> bool:
    """s vanishes in the field of characteristic char (0 for Q)."""
    return s % char == 0 if char else s == 0


def canon_int(char: int, t: Sequence, last: bool = False) -> tuple:
    """Hashable key of a nonzero integer vector: equal keys, same projective
    point."""
    if char:
        t = [v % char for v in t]
    pivot = _pivot(t, last)
    if pivot is None:
        raise ValueError("projective coordinates cannot all vanish")
    if char:
        inv = pow(pivot, -1, char)
        return tuple(v * inv % char for v in t)
    g = gcd(*t) if pivot > 0 else -gcd(*t)
    return tuple(v // g for v in t)


class Homogeneous(Frozen):
    """A nonzero vector over a field up to scale: a point, line or plane of
    projective space.  The constructor reduces the coordinates into the
    field, clears them (fields.cleared) and stores the canon_int key,
    pivot on the first nonzero coordinate or, where the class sets `last`,
    on the last one; equality and hash read that key.  `raw()` is the key,
    and `coords` the key scaled so the pivot is 1: the key itself over F_p,
    Fractions over Q.  `of` is the constructor's other spelling."""

    __slots__ = ("field", "coords", "_key")
    last = False
    _name = "coords"  # the name of coords in the repr

    def __init__(self, field: Field, coords: Sequence):
        char = field.characteristic
        key = canon_int(char, cleared(char, [field.reduce(c) for c in coords])[0], self.last)
        pivot = _pivot(key, self.last)
        self._set(field, key if char else tuple(Fraction(v, pivot) for v in key), key)

    @classmethod
    def of(cls, field: Field, coords: Sequence):
        return cls(field, coords)

    def raw(self) -> tuple:
        """Integer representative: F_p residues, or a primitive vector over Q."""
        return self._key

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        return type(self), (self.field, self._key)

    def __str__(self):
        return ":".join(self.field.render(c) for c in self.coords)

    def __repr__(self):
        return f"{type(self).__name__}(field={self.field!r}, {self._name}={self.coords!r})"


def _direction_key(char: int, p: tuple, q: tuple) -> tuple:
    """Canonical Pluecker line key for the join of two distinct points."""
    return canon_int(char, [p[i] * q[j] - p[j] * q[i] for i in range(4) for j in range(i + 1, 4)])


def _line_keys(char: int, a: tuple, qs: Iterable[tuple]) -> List[tuple]:
    """One key per raw point q of qs (each distinct from a) for the line
    joining a and q: equal keys, same line.

    For a3 != 0 the key is the line's one point on x3 = 0,
    a3*q - q3*a, scaled so its first nonzero entry is 1 (F_p) or made
    primitive with a positive first nonzero entry (Q).  Anchors with a3 = 0
    fall back to the Pluecker key.
    """
    a0, a1, a2, a3 = a
    if not a3:
        return [_direction_key(char, a, q) for q in qs]
    keys = []
    if char:
        inv = pow(a3, -1, char)
        a0, a1, a2 = a0 * inv % char, a1 * inv % char, a2 * inv % char
        for q0, q1, q2, q3 in qs:
            v0 = (q0 - q3 * a0) % char
            v1 = (q1 - q3 * a1) % char
            v2 = (q2 - q3 * a2) % char
            if v0:
                inv = pow(v0, -1, char)
                keys.append((1, v1 * inv % char, v2 * inv % char))
            elif v1:
                keys.append((0, 1, v2 * pow(v1, -1, char) % char))
            else:
                keys.append((0, 0, 1))
        return keys
    for q0, q1, q2, q3 in qs:
        v0 = a3 * q0 - q3 * a0
        v1 = a3 * q1 - q3 * a1
        v2 = a3 * q2 - q3 * a2
        g = gcd(v0, v1, v2)
        if v0 < 0 or (not v0 and (v1 < 0 or (not v1 and v2 < 0))):
            g = -g
        keys.append((v0 // g, v1 // g, v2 // g))
    return keys


def max_collinear(char: int, raws: Sequence[tuple], layers: Optional[Sequence[Tuple[int, int]]] = None) -> int:
    """The most of the distinct raw points on one line: anchor bucketing.

    `layers` cuts raws into consecutive runs, each given as (stop index,
    term): no line inside a run holds more than its term of its points, one
    line reaches the term, and every other line meets the run at most once.
    An anchor then pairs only with the points of later runs, and the loop
    stops once the runs left cannot beat the best line.  Without layers
    every point is its own run of term 1.
    """
    if layers is None:
        layers = [(i + 1, 1) for i in range(len(raws))]
    best = max((term for _, term in layers), default=0)
    start = 0
    for li, (stop, _) in enumerate(layers):
        if len(layers) - li <= best:  # a line through a later anchor meets no earlier run
            break
        later = raws[stop:]
        for i in range(start, stop):
            counts = Counter(_line_keys(char, raws[i], later))
            best = max(best, 1 + max(counts.values()))
        start = stop
    return best


def lines(char: int, raws: Sequence[tuple]) -> List[List[int]]:
    """Every line through two or more of the distinct raw points, each once,
    as the indices of its members in increasing order.

    A line is recorded from its first member i: the later points not yet on
    a recorded line with i, grouped by line key.  Only a line of three or
    more points has a later member that a later anchor must skip.
    """
    out: List[List[int]] = []
    covered: dict = defaultdict(set)  # index -> members of lines recorded through it
    for i in range(len(raws) - 1):
        skip = covered.pop(i, ())
        rest = [j for j in range(i + 1, len(raws)) if j not in skip]
        groups: dict = defaultdict(lambda: [i])
        for j, key in zip(rest, _line_keys(char, raws[i], [raws[j] for j in rest])):
            groups[key].append(j)
        for members in groups.values():
            out.append(members)
            if len(members) > 2:
                for m in members[1:]:
                    covered[m].update(members)
    return out
