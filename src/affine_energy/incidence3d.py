"""Projective 3-space points/planes and the slice-to-incidence reduction.

A slice pair (g,v) becomes the point (g1 : g2 : g1*v2 : 1); a pair (u,h)
becomes the plane u2*x0 - u1*x1 - x2 + u1*h2*x3 = 0.  An incidence between
them is exactly the second energy equation, so Q_C = I(P_C, Pi_C) once the
slice fixes g1*v1 = h1*u1 = C.

Every count runs in a private core on raw integer 4-tuples, one per
projective point or plane (residues over F_p, integers over Q).  The
slice pipelines (`q_c_incidence_table`, `top_slice_reports`, the CLI) build
those tuples straight from the slope classes of A, each cleared on its own,
in `_raw_slices`, which reads the classes and the C grid and order from the
set's table (energy._SetTable), as Q_C does, and reads the one that the
per-C table (energy.PerC) holds when Q_C ran first.  Point3/Plane3,
`projective.Homogeneous` with the first nonzero coordinate as pivot, exist
only at the API edge, and each public function calls raw() once and
delegates to its core.  The collinearity k and the lines of the Beck split
come from the shared line pass of `projective`.  In a slice, k comes from
its layers: the points of one slope class pair form a product grid in one
plane, so k is the larger of the largest grid row or column and the
longest line through points of different layers.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import isqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .affine import AffineMap, AffineSet
from .energy import CSlice, PerC, _SetTable
from .errors import InvariantViolation, ZeroC
from .exactmath import ratio
from .fields import Scalar, cleared
from .projective import Homogeneous, is_zero, lines, max_collinear


class Point3(Homogeneous):
    """Projective point of P^3, first nonzero coordinate scaled to 1."""

    __slots__ = ()


class Plane3(Homogeneous):
    """Plane of the dual space: coefficients (a0 : a1 : a2 : a3)."""

    __slots__ = ()
    _name = "coeffs"
    coeffs = Homogeneous.coords


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


def _x2_buckets(points: Iterable[tuple]) -> Dict[tuple, set]:
    """Raw points grouped by (x0, x1, x3), each group as its set of x2."""
    buckets: Dict[tuple, set] = defaultdict(set)
    for x0, x1, x2, x3 in points:
        buckets[x0, x1, x3].add(x2)
    return buckets


def _on_plane(char: int, buckets: Dict[tuple, set], c: tuple) -> List[tuple]:
    """The raw points of `buckets` that lie on the raw plane c.

    With c2 != 0 the plane fixes x2 in each bucket, so one lookup decides the
    bucket; with c2 = 0 a bucket lies on the plane whole or not at all.  The
    raw points hold one tuple per projective point, and in a bucket the x2
    that solves the plane equation exactly is the only candidate: over Q a
    non-integer solution means no point.
    """
    c0, c1, c2, c3 = c
    out = []
    if not c2:
        for (x0, x1, x3), zs in buckets.items():
            if is_zero(char, c0 * x0 + c1 * x1 + c3 * x3):
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


def _incidences(char: int, points: Iterable[tuple], planes: Iterable[tuple]) -> int:
    """Incidences between distinct raw points and distinct raw planes."""
    buckets = _x2_buckets(points)
    return sum(len(_on_plane(char, buckets, c)) for c in planes)


def _characteristic(objs: Iterable) -> int:
    """The characteristic of the field of the Point3/Plane3 values; 0 if none."""
    return next((o.field.characteristic for o in objs), 0)


def incidences(P: Iterable[Point3], Pi: Iterable[Plane3]) -> int:
    """Exact incidence count: points bucketed by (x0, x1, x3), one test per
    bucket and plane."""
    pts = set(P)
    return _incidences(_characteristic(pts), [p.raw() for p in pts], [c.raw() for c in set(Pi)])


def incidences_bruteforce(P: Iterable[Point3], Pi: Iterable[Plane3]) -> int:
    """Every point against every plane; oracle for incidences."""
    pts = set(P)
    points = [p.raw() for p in pts]
    planes = [c.raw() for c in set(Pi)]
    char = _characteristic(pts)
    total = 0
    for pt in points:
        for pl in planes:
            if is_zero(char, pt[0] * pl[0] + pt[1] * pl[1] + pt[2] * pl[2] + pt[3] * pl[3]):
                total += 1
    return total


def max_collinear_3d(P: Iterable[Point3]) -> int:
    """k: the most points of P on one projective line."""
    pts = set(P)
    return max_collinear(_characteristic(pts), [p.raw() for p in pts])


def _collinear3(char: int, p: tuple, q: tuple, r: tuple) -> bool:
    """Rank test: every 3x3 minor of the 3x4 matrix (p; q; r) vanishes."""
    for c0, c1, c2 in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        det = (
            p[c0] * (q[c1] * r[c2] - q[c2] * r[c1])
            - p[c1] * (q[c0] * r[c2] - q[c2] * r[c0])
            + p[c2] * (q[c0] * r[c1] - q[c1] * r[c0])
        )
        if not is_zero(char, det):
            return False
    return True


def collinear_bruteforce(P: Iterable[Point3]) -> int:
    """Per-line membership scan over all point pairs; oracle for max_collinear_3d."""
    objs = list(set(P))
    pts = [p.raw() for p in objs]
    n = len(pts)
    if n <= 2:
        return n
    char = _characteristic(objs)
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


def _raw_slices(table: _SetTable, only: Optional[set] = None) -> Dict[object, Tuple[List[tuple], List[tuple], list]]:
    """{C value: (raw points, raw planes, layers)} for every realized C, or
    for those among the C values `only`, of the set of `table`, named by its
    C grid c_of and in its canonical order.

    A pair (g, v) of slope classes x and y lands in C = x*y, and each class
    pair is one layer of its slice: the points with first coordinate x, the
    grid B_x x x*B_y in the plane x0 = x*x3.  A layer is recorded as (stop
    index, max(|B_x|, |B_y|)), the layers argument of `max_collinear`.

    Each class (x, b, b, ...) is cleared on its own (fields.cleared) to
    (X, B, B, ...) at scale d (1 over F_p).  The layer of classes x, y gets
    the point (X*dy : B_g*dy : X*B_v : dx*dy) and the plane
    (B_g*dy : -X*dy : -dx*dy : X*B_v), build_point/build_plane times dx*dy,
    X*B_v reduced mod p over F_p.  These need not be the objects' raw(), but
    a slice holds one tuple per projective point or plane: a layer has one
    scale, and layers differ in x0/x3 = x (points), x1/x2 = x (planes).  So
    the check that both maps are injective on each slice (else
    InvariantViolation) tests what it tested on the canonical forms.
    """
    p, c_of, order = table.char, table.c_of, table.order
    wanted = {c for c, v in order if only is None or v in only}
    scaled = [cleared(p, (x, *bs)) for x, bs in table.classes]  # each class as ([X, B, B, ...], d)
    slices: dict = defaultdict(lambda: ([], [], []))
    for ((X, *gs), dx), c_row in zip(scaled, c_of):
        for ((_, *vs), dy), c in zip(scaled, c_row):
            if c not in wanted:
                continue
            pts, planes, layers = slices[c]
            x0, x3 = X * dy, dx * dy
            x2s = [X * bv % p for bv in vs] if p else [X * bv for bv in vs]
            for bg in gs:
                bg *= dy
                pts.extend((x0, bg, x2, x3) for x2 in x2s)
                planes.extend((bg, -x0, -x3, x2) for x2 in x2s)
            layers.append((len(pts), max(len(gs), len(vs))))
    if any(len(set(pts)) != len(pts) or len(set(planes)) != len(planes) for pts, planes, _ in slices.values()):
        raise InvariantViolation("slice-to-projective maps must be injective")
    return {v: slices[c] for c, v in order if c in slices}


def q_c_via_incidence(A: AffineSet, C: Scalar) -> int:
    """Q_C through the point-plane reduction; must match decompose_by_C[C].
    Raises ZeroC on C = 0."""
    if not C:
        raise ZeroC("slice parameter C must be nonzero")
    pts, pls, _ = _raw_slices(_SetTable(A), {C.value}).get(C.value, ((), (), ()))
    return _incidences(A.field.characteristic, pts, pls)


def q_c_incidence_table(A: AffineSet) -> Dict[Scalar, int]:
    """Q_C via incidences for every realized C, from the raw slices."""
    field = A.field
    return {Scalar(field, c): _incidences(field.characteristic, pts, pls) for c, (pts, pls, _) in _raw_slices(_SetTable(A)).items()}


class IncidenceInstance(NamedTuple):
    """A point set, a plane set, and the collinearity statistic k."""

    points: frozenset
    planes: frozenset
    k: int

    @classmethod
    def of(cls, points: Iterable[Point3], planes: Iterable[Plane3]) -> "IncidenceInstance":
        pts = frozenset(points)
        return cls(pts, frozenset(planes), max_collinear_3d(pts))


class PointPlaneReport(NamedTuple):
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


def _pointplane_report(
    char: int, points: Sequence[tuple], planes: Sequence[tuple], layers: Optional[list] = None, k: Optional[int] = None
) -> PointPlaneReport:
    """The report on distinct raw points and planes; k, the points'
    collinearity, is computed here unless given, from their layers (as
    `_raw_slices` records them) when given."""
    n_pts, n_pls = len(points), len(planes)
    swapped = n_pts > n_pls
    if swapped:
        # Dual instance: points become planes; k then measures the planes-as-
        # points side, recomputed on their coefficient vectors.
        k = max_collinear(char, planes)
    elif k is None:
        k = max_collinear(char, points, layers)
    small, large = min(n_pts, n_pls), max(n_pts, n_pls)
    count = _incidences(char, points, planes)
    rhs = large * isqrt(small) + k * large
    p_ok = small <= char * char if char else None
    corrected = ratio(Fraction(count) - Fraction(n_pls * n_pts, char), rhs) if char else None
    return PointPlaneReport(
        incidence_count=count,
        n_points=n_pts,
        n_planes=n_pls,
        k=k,
        swapped=swapped,
        rhs=rhs,
        ratio=ratio(count, rhs),
        characteristic=char,
        p_constraint_ok=p_ok,
        ratio_corrected=corrected,
    )


def pointplane_bound_report(inst: IncidenceInstance) -> PointPlaneReport:
    """I against |Pi||P|^{1/2} + k|Pi|, with the char-p corrected variant in
    the characteristic of the instance's field."""
    char = _characteristic(inst.points or inst.planes)
    return _pointplane_report(char, [p.raw() for p in inst.points], [c.raw() for c in inst.planes], k=inst.k)


def top_slice_reports(per_c: PerC, top: int) -> List[Tuple[Scalar, PointPlaneReport]]:
    """Point-plane reports on the `top` largest slices of the set whose
    per-C table is `per_c`, built from its table.  Equal sizes go to the
    smaller C in the field's canonical order."""
    field = per_c.table.field
    ranked = sorted(per_c.rows(), key=lambda r: (-r[1], field.sort_key(r[0])))[:top]
    slices = _raw_slices(per_c.table, {v for v, _, _ in ranked})
    return [(Scalar(field, v), _pointplane_report(field.characteristic, *slices[v])) for v, _, _ in ranked]


_TYPE_I_SHARE = Fraction(1, 2)  # of a plane's ordered point pairs, on its largest line


class PlaneStats(NamedTuple):
    """Per-plane pair statistics for the Beck-type (i)/(ii) split."""

    plane: Plane3  # the raw tuple in the core's rows
    points_on_plane: int
    ordered_pairs: int
    max_pairs_one_line: int
    pairs_on_sparse_lines: int  # lines supporting < Cthresh points
    label: str  # "type-i" | "type-ii" (reported statistics, not claims)


def _beck_stats(char: int, points: Iterable[tuple], planes: Iterable[tuple], cthresh: int = 4) -> List[PlaneStats]:
    """The rows of beck_plane_classification on distinct raw points and
    planes, in the planes' order, each row's `plane` being the raw tuple."""
    if cthresh < 2:
        raise ValueError("cthresh must be at least 2")
    buckets = _x2_buckets(points)
    out: List[PlaneStats] = []
    for plane in planes:
        raws = _on_plane(char, buckets, plane)
        t = len(raws)
        if t <= 1:
            continue
        line_sizes = [len(members) for members in lines(char, raws)]
        total_pairs = t * (t - 1)
        max_line = max(s * (s - 1) for s in line_sizes)
        sparse_pairs = sum(s * (s - 1) for s in line_sizes if s < cthresh)
        label = "type-i" if max_line >= _TYPE_I_SHARE * total_pairs else "type-ii"
        out.append(PlaneStats(plane, t, total_pairs, max_line, sparse_pairs, label))
    return out


def beck_plane_classification(P: Iterable[Point3], Pi: Iterable[Plane3], cthresh: int = 4) -> List[PlaneStats]:
    """Per-plane line-pair statistics; planes with <= 1 point are excluded.

    A plane is labeled type-i when a single line holds at least half of its
    ordered point pairs, else type-ii.
    """
    pts = set(P)
    planes = {c.raw(): c for c in sorted(set(Pi), key=lambda c: str(c))}
    rows = _beck_stats(_characteristic(pts), [p.raw() for p in pts], planes, cthresh)
    return [row._replace(plane=planes[row.plane]) for row in rows]
