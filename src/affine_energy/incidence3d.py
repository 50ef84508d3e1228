"""Projective 3-space points/planes and the slice-to-incidence reduction.

A slice pair (g,v) becomes the point (g1 : g2 : g1*v2 : 1); a pair (u,h)
becomes the plane u2*x0 - u1*x1 - x2 + u1*h2*x3 = 0.  An incidence between
them is exactly the second energy equation, so Q_C = I(P_C, Pi_C) once the
slice fixes g1*v1 = h1*u1 = C.

Counting works on denominator-cleared integer coordinate 4-tuples; the public
Point3/Plane3 values store the canonical projective form (first nonzero
coordinate scaled to 1).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .affine import AffineMap, AffineSet
from .energy import CSlice, c_slice
from .errors import InvariantViolation
from .exactmath import ratio
from .fields import Field, Scalar


def _canonical_coords(field: Field, coords: Sequence) -> tuple:
    """Scale so the first nonzero coordinate is 1; reject the zero vector."""
    vals = [field.reduce(c) for c in coords]
    pivot = next((v for v in vals if v != 0), None)
    if pivot is None:
        raise ValueError("projective coordinates cannot all vanish")
    inv = field.inv(pivot)
    return tuple(field.mul(inv, v) for v in vals)


def _int_coords(field: Field, coords: Sequence) -> tuple:
    """Denominator-cleared integer coordinates for hot loops (char 0)."""
    fracs = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


@dataclass(frozen=True)
class Point3:
    """Projective point of P^3, canonically scaled."""

    field: Field
    coords: tuple  # 4 raw values, first nonzero = 1

    @classmethod
    def of(cls, field: Field, coords: Sequence) -> "Point3":
        return cls(field, _canonical_coords(field, coords))

    def raw(self) -> tuple:
        """Integer representative (F_p residues or cleared denominators)."""
        if self.field.characteristic:
            return self.coords
        return _int_coords(self.field, self.coords)

    def __str__(self):
        return ":".join(self.field.render(c) for c in self.coords)


@dataclass(frozen=True)
class Plane3:
    """Plane of the dual space: coefficients (a0 : a1 : a2 : a3)."""

    field: Field
    coeffs: tuple

    @classmethod
    def of(cls, field: Field, coeffs: Sequence) -> "Plane3":
        return cls(field, _canonical_coords(field, coeffs))

    def raw(self) -> tuple:
        if self.field.characteristic:
            return self.coeffs
        return _int_coords(self.field, self.coeffs)

    def __str__(self):
        return ":".join(self.field.render(c) for c in self.coeffs)


def build_point(g: AffineMap, v: AffineMap) -> Point3:
    """Slice pair (g,v) -> (g1 : g2 : g1*v2 : 1)."""
    field = g.field
    return Point3.of(field, (g.a.value, g.b.value, field.mul(g.a.value, v.b.value), field.reduce(1)))


def build_plane(u: AffineMap, h: AffineMap) -> Plane3:
    """Slice pair read as (u,h) -> (u2 : -u1 : -1 : u1*h2)."""
    field = u.field
    return Plane3.of(
        field,
        (u.b.value, field.neg(u.a.value), field.reduce(-1), field.mul(u.a.value, h.b.value)),
    )


def _incident_raw(char: int, p: tuple, c: tuple) -> bool:
    s = p[0] * c[0] + p[1] * c[1] + p[2] * c[2] + p[3] * c[3]
    return s % char == 0 if char else s == 0


def _x2_buckets(points: Iterable[tuple]) -> Dict[tuple, set]:
    """Raw points grouped by (x0, x1, x3), each group as its set of x2."""
    buckets: Dict[tuple, set] = defaultdict(set)
    for x0, x1, x2, x3 in points:
        buckets[x0, x1, x3].add(x2)
    return buckets


def _on_plane(char: int, buckets: Dict[tuple, set], c: tuple) -> List[tuple]:
    """The raw points of `buckets` that lie on the raw plane c.

    With c2 != 0 the plane fixes x2 in each bucket, so one lookup decides the
    bucket; with c2 = 0 a bucket lies on the plane whole or not at all.  Raw
    forms are unique per projective point, so the x2 that solves the plane
    equation exactly is the only candidate: over Q a non-integer solution
    means no point.
    """
    c0, c1, c2, c3 = c
    out = []
    if not c2:
        for (x0, x1, x3), zs in buckets.items():
            s = c0 * x0 + c1 * x1 + c3 * x3
            if (s % char if char else s) == 0:
                out.extend((x0, x1, z, x3) for z in zs)
    elif char:
        m = -pow(c2, -1, char)
        for (x0, x1, x3), zs in buckets.items():
            z = (c0 * x0 + c1 * x1 + c3 * x3) * m % char
            if z in zs:
                out.append((x0, x1, z, x3))
    else:
        for (x0, x1, x3), zs in buckets.items():
            z, r = divmod(-(c0 * x0 + c1 * x1 + c3 * x3), c2)
            if not r and z in zs:
                out.append((x0, x1, z, x3))
    return out


def incidences(P: Iterable[Point3], Pi: Iterable[Plane3]) -> int:
    """Exact incidence count: points bucketed by (x0, x1, x3), one test per
    bucket and plane."""
    pts = set(P)
    if not pts:
        return 0
    char = next(iter(pts)).field.characteristic
    buckets = _x2_buckets(p.raw() for p in pts)
    return sum(len(_on_plane(char, buckets, c.raw())) for c in set(Pi))


def incidences_bruteforce(P: Iterable[Point3], Pi: Iterable[Plane3]) -> int:
    """Every point against every plane; oracle for incidences."""
    pts = set(P)
    points = [p.raw() for p in pts]
    planes = [c.raw() for c in set(Pi)]
    char = next(iter(pts)).field.characteristic if pts else 0
    total = 0
    for pt in points:
        for pl in planes:
            if _incident_raw(char, pt, pl):
                total += 1
    return total


def _direction_key(char: int, p: tuple, q: tuple) -> tuple:
    """Canonical Pluecker line key for the join of two distinct points."""
    m = []
    for i in range(4):
        for j in range(i + 1, 4):
            m.append(p[i] * q[j] - p[j] * q[i])
    if char:
        m = [v % char for v in m]
        pivot = next(v for v in m if v)
        inv = pow(pivot, -1, char)
        return tuple((v * inv) % char for v in m)
    g = gcd(*m)
    m = [v // g for v in m]
    pivot = next(v for v in m if v)
    if pivot < 0:
        m = [-v for v in m]
    return tuple(m)


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


def max_collinear_3d(P: Iterable[Point3]) -> int:
    """k: the most points of P on one projective line; anchor bucketing."""
    pts = list(set(P))
    n = len(pts)
    if n <= 2:
        return n
    char = pts[0].field.characteristic
    raws = [p.raw() for p in pts]
    best = 2
    for i in range(n - 1):
        if n - i <= best:  # no line through a later anchor can beat best
            break
        counts = Counter(_line_keys(char, raws[i], raws[i + 1 :]))
        best = max(best, 1 + max(counts.values()))
    return best


def _collinear3(char: int, p: tuple, q: tuple, r: tuple) -> bool:
    """Rank test: every 3x3 minor of the 3x4 matrix (p; q; r) vanishes."""
    for c0, c1, c2 in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        det = (
            p[c0] * (q[c1] * r[c2] - q[c2] * r[c1])
            - p[c1] * (q[c0] * r[c2] - q[c2] * r[c0])
            + p[c2] * (q[c0] * r[c1] - q[c1] * r[c0])
        )
        if (det % char if char else det) != 0:
            return False
    return True


def collinear_bruteforce(P: Iterable[Point3]) -> int:
    """Per-line membership scan over all point pairs; oracle for max_collinear_3d."""
    objs = list(set(P))
    pts = [p.raw() for p in objs]
    n = len(pts)
    if n <= 2:
        return n
    char = objs[0].field.characteristic
    best = 2
    for i in range(n):
        for j in range(i + 1, n):
            cnt = 2 + sum(1 for l in range(n) if l not in (i, j) and _collinear3(char, pts[i], pts[j], pts[l]))
            best = max(best, cnt)
    return best


def slice_points(sl: CSlice) -> List[Point3]:
    return [build_point(g, v) for g, v in sl.pairs]


def slice_planes(sl: CSlice) -> List[Plane3]:
    return [build_plane(u, h) for u, h in sl.pairs]


def _slice_incidences(sl: CSlice) -> int:
    pts, planes = slice_points(sl), slice_planes(sl)
    if len(set(pts)) != len(sl) or len(set(planes)) != len(sl):
        raise InvariantViolation("slice-to-projective maps must be injective")
    return incidences(pts, planes)


def q_c_via_incidence(A: AffineSet, C: Scalar) -> int:
    """Q_C through the point-plane reduction; must match decompose_by_C[C].
    Raises ZeroC on C = 0."""
    return _slice_incidences(c_slice(A, C))


def q_c_incidence_table(A: AffineSet) -> Dict[Scalar, int]:
    """Q_C via incidences for every realized C, sharing one slope grouping."""
    field = A.field
    by_slope: dict = defaultdict(list)
    for g in A:
        by_slope[g.a.value].append(g)
    pair_lists: dict = defaultdict(list)
    for x, gs in by_slope.items():
        for y, vs in by_slope.items():
            pair_lists[field.mul(x, y)].extend((g, v) for g in gs for v in vs)
    out: Dict[Scalar, int] = {}
    for cval in sorted(pair_lists, key=field.sort_key):
        C = Scalar(field, cval)
        out[C] = _slice_incidences(CSlice(C, frozenset(pair_lists[cval])))
    return out


@dataclass
class IncidenceInstance:
    """A point set, a plane set, and the collinearity statistic k."""

    points: frozenset
    planes: frozenset
    k: int

    @classmethod
    def of(cls, points: Iterable[Point3], planes: Iterable[Plane3]) -> "IncidenceInstance":
        pts = frozenset(points)
        return cls(pts, frozenset(planes), max_collinear_3d(pts))


@dataclass
class PointPlaneReport:
    incidence_count: int
    n_points: int
    n_planes: int
    k: int
    swapped: bool  # roles swapped to enforce |P| <= |Pi|
    rhs: int  # |Pi| * isqrt(|P|) + k * |Pi|
    ratio: Fraction
    characteristic: int
    p_constraint_ok: Optional[bool] = None  # |P| <= p^2
    ratio_corrected: Optional[Fraction] = None  # (I - |Pi||P|/p) / rhs


def pointplane_bound_report(inst: IncidenceInstance, char_p: Optional[int] = None) -> PointPlaneReport:
    """I against |Pi||P|^{1/2} + k|Pi|, with the char-p corrected variant."""
    n_pts, n_pls = len(inst.points), len(inst.planes)
    swapped = n_pts > n_pls
    if swapped:
        # Dual instance: points become planes; k then measures the planes-as-
        # points side, recomputed on their coefficient vectors.
        dual_pts = [Point3(pl.field, pl.coeffs) for pl in inst.planes]
        k = max_collinear_3d(dual_pts)
        small, large = n_pls, n_pts
    else:
        k = inst.k
        small, large = n_pts, n_pls
    count = incidences(inst.points, inst.planes)
    rhs = large * isqrt(small) + k * large
    r = ratio(count, rhs)
    char = char_p
    if char is None:
        for p in inst.points:
            char = p.field.characteristic
            break
        char = char or 0
    p_ok = None
    corrected = None
    if char:
        p_ok = small <= char * char
        corrected = ratio(Fraction(count) - Fraction(n_pls * n_pts, char), rhs)
    return PointPlaneReport(
        incidence_count=count,
        n_points=n_pts,
        n_planes=n_pls,
        k=k,
        swapped=swapped,
        rhs=rhs,
        ratio=r,
        characteristic=char,
        p_constraint_ok=p_ok,
        ratio_corrected=corrected,
    )


def top_slice_reports(A: AffineSet, per_c: Dict[Scalar, Tuple[int, int]], top: int) -> List[Tuple[Scalar, PointPlaneReport]]:
    """Point-plane reports on the `top` largest slices of A.

    `per_c` maps C -> (|C_C|, Q_C) as in EnergyReport.per_c; equal sizes go
    to the smaller C in the field's canonical order.
    """
    field = A.field
    ranked = sorted(per_c, key=lambda C: (-per_c[C][0], field.sort_key(C.value)))
    out = []
    for C in ranked[:top]:
        sl = c_slice(A, C)
        inst = IncidenceInstance.of(slice_points(sl), slice_planes(sl))
        out.append((C, pointplane_bound_report(inst, field.characteristic or None)))
    return out


@dataclass
class PlaneStats:
    """Per-plane pair statistics for the Beck-type (i)/(ii) split."""

    plane: Plane3
    points_on_plane: int
    ordered_pairs: int
    max_pairs_one_line: int
    pairs_on_sparse_lines: int  # lines supporting < Cthresh points
    label: str  # "type-i" | "type-ii" (reported statistics, not claims)


def beck_plane_classification(
    P: Iterable[Point3],
    Pi: Iterable[Plane3],
    cthresh: int = 4,
    dominance: Fraction = Fraction(1, 2),
) -> List[PlaneStats]:
    """Per-plane line-pair statistics; planes with <= 1 point are excluded.

    A plane is labeled type-i when a single line holds at least `dominance`
    of its ordered point pairs, else type-ii.
    """
    if cthresh < 2:
        raise ValueError("cthresh must be at least 2")
    pts = set(P)
    char = next(iter(pts)).field.characteristic if pts else 0
    buckets = _x2_buckets(p.raw() for p in pts)
    out: List[PlaneStats] = []
    for plane in sorted(set(Pi), key=lambda c: str(c)):
        raws = _on_plane(char, buckets, plane.raw())
        t = len(raws)
        if t <= 1:
            continue
        # Each line is recorded once, from its first member i: the later
        # points not yet on a recorded line with i, grouped by line key.
        line_sizes = []
        covered: List[set] = [set() for _ in range(t)]
        for i in range(t - 1):
            rest = [j for j in range(i + 1, t) if j not in covered[i]]
            if not rest:
                continue
            lines: Dict[tuple, List[int]] = defaultdict(lambda: [i])
            for j, key in zip(rest, _line_keys(char, raws[i], [raws[j] for j in rest])):
                lines[key].append(j)
            for members in lines.values():
                line_sizes.append(len(members))
                for m in members:
                    covered[m].update(members)
        total_pairs = t * (t - 1)
        max_line = 0
        sparse_pairs = 0
        for s in line_sizes:
            pairs = s * (s - 1)
            max_line = max(max_line, pairs)
            if s < cthresh:
                sparse_pairs += pairs
        label = "type-i" if Fraction(max_line) >= dominance * total_pairs else "type-ii"
        out.append(
            PlaneStats(
                plane=plane,
                points_on_plane=t,
                ordered_pairs=total_pairs,
                max_pairs_one_line=max_line,
                pairs_on_sparse_lines=sparse_pairs,
                label=label,
            )
        )
    return out
