"""Projective plane machinery: spanned lines, shadows, two-line normalization,
Beck-point statistics and quadrangle counting.

Points and lines are homogeneous triples in canonical form (last nonzero
coordinate scaled to 1, so affine points are exactly those with z = 1 and the
line at infinity is (0:0:1)).  Hot loops run on denominator-cleared integer
triples; cross products implement meet and join.

Quadrangles: ordered (g,h,u,v), pairwise constraints g!=h, u!=v, g!=u, h!=v,
with line(g,h) and line(u,v) meeting the line at infinity at the same point
and line(g,u), line(h,v) meeting the y-axis at the same point.  Both side
conditions are projective: two vertical sides share the infinite point
(0:1:0) of the y-axis and count as "same y-intercept".  Quadruples whose four
points are collinear are excluded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Sequence, Set

from .affine import AffineMap, AffineSet, quotient
from .errors import (
    EqualLines,
    InvariantViolation,
    LineMeetsP,
    OracleCapExceeded,
    PointOnYAxis,
    TooFewPoints,
)
from .fields import Field, Scalar


# ---------------------------------------------------------------------------
# canonical homogeneous triples


def _canonical_triple(field: Field, coords: Sequence) -> tuple:
    vals = [field.reduce(c) for c in coords]
    pivot = None
    for v in reversed(vals):
        if v != 0:
            pivot = v
            break
    if pivot is None:
        raise ValueError("projective coordinates cannot all vanish")
    inv = field.inv(pivot)
    return tuple(field.mul(inv, v) for v in vals)


def _int_triple(field: Field, coords: Sequence) -> tuple:
    """Integer representative: residues over F_p, cleared denominators over Q."""
    if field.characteristic:
        return tuple(coords)
    fracs = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs)


def _canon_int(char: int, t: tuple) -> tuple:
    """Canonical hashable key of an integer triple; None-safe zero test is the caller's job."""
    if char:
        t = tuple(v % char for v in t)
        pivot = None
        for v in reversed(t):
            if v:
                pivot = v
                break
        inv = pow(pivot, -1, char)
        return tuple((v * inv) % char for v in t)
    g = gcd(*t)
    t = tuple(v // g for v in t)
    for v in reversed(t):
        if v:
            return t if v > 0 else tuple(-w for w in t)
    raise ValueError("zero triple has no canonical form")


def _cross(a: tuple, b: tuple) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: tuple, b: tuple) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass(frozen=True)
class PlanePoint:
    field: Field
    coords: tuple  # canonical: z in {0,1}; z = 1 iff affine

    @classmethod
    def of(cls, field: Field, coords: Sequence) -> "PlanePoint":
        return cls(field, _canonical_triple(field, coords))

    @classmethod
    def affine(cls, field: Field, x, y) -> "PlanePoint":
        return cls.of(field, (x, y, 1))

    @property
    def is_affine(self) -> bool:
        return self.coords[2] != 0

    def raw(self) -> tuple:
        return _int_triple(self.field, self.coords)

    def __str__(self):
        return ":".join(self.field.render(c) for c in self.coords)


@dataclass(frozen=True)
class PlaneLine:
    """a*x + b*y + c*z = 0 with canonical (a : b : c)."""

    field: Field
    coeffs: tuple

    @classmethod
    def of(cls, field: Field, coeffs: Sequence) -> "PlaneLine":
        return cls(field, _canonical_triple(field, coeffs))

    @classmethod
    def infinity(cls, field: Field) -> "PlaneLine":
        return cls.of(field, (0, 0, 1))

    @classmethod
    def y_axis(cls, field: Field) -> "PlaneLine":
        return cls.of(field, (1, 0, 0))

    def raw(self) -> tuple:
        return _int_triple(self.field, self.coeffs)

    def __str__(self):
        return ":".join(self.field.render(c) for c in self.coeffs)


def incident(p: PlanePoint, l: PlaneLine) -> bool:
    s = _dot(p.raw(), l.raw())
    char = p.field.characteristic
    return s % char == 0 if char else s == 0


def join_points(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    c = _cross(p.raw(), q.raw())
    if not any(c):
        raise ValueError("join of equal points")
    return PlaneLine.of(p.field, c)


def meet_lines(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    c = _cross(l1.raw(), l2.raw())
    if not any(c):
        raise EqualLines("meet of equal lines")
    return PlanePoint.of(l1.field, c)


def reflect_point(p: PlanePoint) -> PlanePoint:
    """Reflection in y = x: (x : y : z) -> (y : x : z)."""
    x, y, z = p.coords
    return PlanePoint.of(p.field, (y, x, z))


def reflect_line(l: PlaneLine) -> PlaneLine:
    a, b, c = l.coeffs
    return PlaneLine.of(l.field, (b, a, c))


# ---------------------------------------------------------------------------
# spanned lines, shadows, Beck statistics


def span_lines(P: Iterable[PlanePoint]) -> Set[PlaneLine]:
    """L(P): deduplicated lines through at least two points of P."""
    pts = list(set(P))
    if len(pts) < 2:
        raise TooFewPoints("need at least two points to span lines")
    field = pts[0].field
    char = field.characteristic
    raws = [p.raw() for p in pts]
    keys = set()
    for i in range(len(raws)):
        for j in range(i + 1, len(raws)):
            keys.add(_canon_int(char, _cross(raws[i], raws[j])))
    return {PlaneLine.of(field, k) for k in keys}


def shadow(P: Iterable[PlanePoint], l: PlaneLine) -> Set[PlanePoint]:
    """Distinct meets of the spanned lines of P with l; l must avoid P."""
    pts = list(set(P))
    for p in pts:
        if incident(p, l):
            raise LineMeetsP(f"shadow line passes through {p}")
    field = pts[0].field
    char = field.characteristic
    lraw = l.raw()
    out = set()
    for line in span_lines(pts):
        c = _cross(line.raw(), lraw)
        if any(c):
            out.add(_canon_int(char, c))
    return {PlanePoint.of(field, k) for k in out}


def incidence_count(P: Iterable[PlanePoint], lines: Iterable[PlaneLine]) -> int:
    """I(P, lines): exact incidence count."""
    pts = [p.raw() for p in set(P)]
    total = 0
    for line in set(lines):
        lraw = line.raw()
        char = line.field.characteristic
        for praw in pts:
            s = _dot(praw, lraw)
            if (s % char == 0) if char else (s == 0):
                total += 1
    return total


@dataclass
class BeckPointStats:
    lines_total: int
    per_point: Dict[PlanePoint, int]
    theta: Fraction
    rich_fraction: Fraction  # fraction of points on >= theta * |P| spanned lines


def beck_point_stats(P: Iterable[PlanePoint], theta: Fraction = Fraction(1, 2)) -> BeckPointStats:
    """Per-point counts of spanned lines through each point of P."""
    pts = list(set(P))
    if len(pts) < 2:
        raise TooFewPoints("need at least two points")
    lines = span_lines(pts)
    per_point = {p: sum(1 for l in lines if incident(p, l)) for p in pts}
    thresh = theta * len(pts)
    rich = sum(1 for c in per_point.values() if c >= thresh)
    return BeckPointStats(
        lines_total=len(lines),
        per_point=per_point,
        theta=theta,
        rich_fraction=Fraction(rich, len(pts)),
    )


# ---------------------------------------------------------------------------
# projective maps and two-line normalization


@dataclass(frozen=True)
class ProjectiveMap2:
    """Invertible 3x3 matrix acting on the projective plane."""

    field: Field
    rows: tuple  # 3 tuples of 3 raw values

    def __post_init__(self):
        if self.det() == 0:
            raise ValueError("projective map must be invertible")

    def det(self):
        f = self.field
        (a, b, c), (d, e, g), (h, i, j) = self.rows
        return f.sub(
            f.add(
                f.mul(a, f.sub(f.mul(e, j), f.mul(g, i))),
                f.mul(c, f.sub(f.mul(d, i), f.mul(e, h))),
            ),
            f.mul(b, f.sub(f.mul(d, j), f.mul(g, h))),
        )

    def apply_point(self, p: PlanePoint) -> PlanePoint:
        f = self.field
        out = []
        for row in self.rows:
            s = f.reduce(0)
            for rc, pc in zip(row, p.coords):
                s = f.add(s, f.mul(rc, pc))
            out.append(s)
        return PlanePoint.of(f, out)

    def adjugate_rows(self) -> tuple:
        f = self.field
        (a, b, c), (d, e, g), (h, i, j) = self.rows
        m = lambda x, y: f.mul(x, y)
        s = lambda x, y: f.sub(x, y)
        return (
            (s(m(e, j), m(g, i)), s(m(c, i), m(b, j)), s(m(b, g), m(c, e))),
            (s(m(g, h), m(d, j)), s(m(a, j), m(c, h)), s(m(c, d), m(a, g))),
            (s(m(d, i), m(e, h)), s(m(b, h), m(a, i)), s(m(a, e), m(b, d))),
        )

    def apply_line(self, l: PlaneLine) -> PlaneLine:
        """Image line: coefficients transform by the adjugate transpose."""
        f = self.field
        adj = self.adjugate_rows()
        out = []
        for col in range(3):
            s = f.reduce(0)
            for row in range(3):
                s = f.add(s, f.mul(adj[row][col], l.coeffs[row]))
            out.append(s)
        return PlaneLine.of(f, out)

    def inverse(self) -> "ProjectiveMap2":
        return ProjectiveMap2(self.field, self.adjugate_rows())


def apply_projective(T: ProjectiveMap2, P: Iterable[PlanePoint]) -> Set[PlanePoint]:
    return {T.apply_point(p) for p in set(P)}


def _field_sequence(field: Field):
    """Deterministic enumeration of field elements: 0,1,-1,2,-2,... (all of F_p)."""
    if field.characteristic:
        for v in range(field.characteristic):
            yield field.reduce(v)
    else:
        yield Fraction(0)
        k = 1
        while True:
            yield Fraction(k)
            yield Fraction(-k)
            k += 1


def _points_on_line(l: PlaneLine):
    """Deterministic enumeration of the points of l."""
    field = l.field
    lraw = l.raw()
    basis = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        c = _cross(lraw, e)
        if any(c):
            cand = PlanePoint.of(field, c)
            if cand not in basis:
                basis.append(cand)
        if len(basis) == 2:
            break
    p, q = basis
    yield p
    yield q
    for t in _field_sequence(field):
        if t == 0:
            continue
        coords = tuple(field.add(pc, field.mul(field.reduce(t), qc)) for pc, qc in zip(p.coords, q.coords))
        if any(c != 0 for c in coords):
            yield PlanePoint.of(field, coords)


def normalize_two_lines(l1: PlaneLine, l2: PlaneLine) -> ProjectiveMap2:
    """Canonical invertible map sending l1 to the y-axis and l2 to infinity.

    Anchors: l1^l2 -> (0:1:0), a point of l1 -> (0:0:1), a point of l2 ->
    (1:0:0), a general point -> (1:1:1); lines through l1^l2 map to vertical
    lines.
    """
    if l1 == l2:
        raise EqualLines("normalization needs two distinct lines")
    field = l1.field
    s = meet_lines(l1, l2)
    a1 = next(p for p in _points_on_line(l1) if p != s)
    a2 = next(p for p in _points_on_line(l2) if p != s)
    avoid = [l1, l2, join_points(a1, a2)]

    def candidates():
        # affine spiral first; over F_p also the p+1 infinite points, so a
        # general-position anchor exists even for p = 3
        xs = []
        for x in _field_sequence(field):
            xs.append(x)
            for y in xs:
                yield PlanePoint.affine(field, x, y)
                if x != y:
                    yield PlanePoint.affine(field, y, x)
        for t in _field_sequence(field):
            yield PlanePoint.of(field, (1, t, 0))
        yield PlanePoint.of(field, (0, 1, 0))

    a4 = next(c for c in candidates() if not any(incident(c, l) for l in avoid))
    # Columns (lam1*a2, lam2*s, lam3*a1) must map (1,1,1) to a4:
    # solve [a2 s a1] * lam = a4 by Cramer's rule, then invert.
    cols = (a2.coords, s.coords, a1.coords)

    def det3(c0, c1, c2):
        f = field
        return f.sub(
            f.add(
                f.mul(c0[0], f.sub(f.mul(c1[1], c2[2]), f.mul(c1[2], c2[1]))),
                f.mul(c2[0], f.sub(f.mul(c0[1], c1[2]), f.mul(c0[2], c1[1]))),
            ),
            f.mul(c1[0], f.sub(f.mul(c0[1], c2[2]), f.mul(c0[2], c2[1]))),
        )

    d = det3(*cols)
    lams = [
        field.div(det3(a4.coords, cols[1], cols[2]), d),
        field.div(det3(cols[0], a4.coords, cols[2]), d),
        field.div(det3(cols[0], cols[1], a4.coords), d),
    ]
    rows = tuple(
        tuple(field.mul(lams[j], cols[j][i]) for j in range(3)) for i in range(3)
    )
    forward = ProjectiveMap2(field, rows).inverse()
    return forward


# ---------------------------------------------------------------------------
# shadow incidence check (two-line grid reduction)


@dataclass
class ShadowCheckReport:
    removed_points: int
    n_points: int
    lhs_total: int  # I(P', L(P'))
    lhs_nonvertical: int  # incidences on non-vertical spanned lines
    rhs: int  # I(S x T, P' as lines)
    s_size: int
    t_size: int
    s_dropped_infinite: int
    t_dropped_infinite: int

    @property
    def inequality_holds(self) -> bool:
        return self.lhs_total <= self.rhs


def shadow_incidence_check(P: Iterable[PlanePoint], l1: PlaneLine, l2: PlaneLine) -> ShadowCheckReport:
    """Checks I(P', L(P')) <= I(S x T, P') after normalizing (l1,l2).

    Points of P on l1 or l2 are removed first (count reported).  The paper's
    injection covers incidences on non-vertical spanned lines; that exact
    inequality is asserted here, and both totals are reported.
    """
    pts = [p for p in set(P) if not incident(p, l1) and not incident(p, l2)]
    removed = len(set(P)) - len(pts)
    if len(pts) < 2:
        raise TooFewPoints("need two points off the two lines")
    field = pts[0].field
    T = normalize_two_lines(l1, l2)
    img = sorted(apply_projective(T, pts), key=lambda p: str(p))
    linf = PlaneLine.infinity(field)
    ly = PlaneLine.y_axis(field)
    for p in img:
        if incident(p, linf) or incident(p, ly):
            raise InvariantViolation("normalized points must avoid both special lines")

    lines = span_lines(img)
    lhs_total = 0
    lhs_nonvert = 0
    for line in lines:
        cnt = sum(1 for p in img if incident(p, line))
        lhs_total += cnt
        if line.coeffs[1] != 0:  # b != 0 <=> not through (0:1:0) <=> non-vertical
            lhs_nonvert += cnt

    s_pts = shadow(img, linf)
    t_pts = shadow(img, ly)
    # direction point of y = s*x + t is (1 : s : 0); vertical (0:1:0) dropped
    S_vals = {field.div(p.coords[1], p.coords[0]) for p in s_pts if p.coords[0] != 0}
    s_dropped = len(s_pts) - len(S_vals)
    T_vals = {p.coords[1] for p in t_pts if p.coords[2] != 0}  # (0:t:1) -> t
    t_dropped = len(t_pts) - len(T_vals)

    rhs = 0
    for p in img:
        p1, p2 = p.coords[0], p.coords[1]
        for sv in S_vals:
            tv = field.sub(p2, field.mul(p1, sv))
            if tv in T_vals:
                rhs += 1

    if lhs_nonvert > rhs:
        raise InvariantViolation("grid injection violated: lhs_nonvertical > rhs")
    return ShadowCheckReport(
        removed_points=removed,
        n_points=len(img),
        lhs_total=lhs_total,
        lhs_nonvertical=lhs_nonvert,
        rhs=rhs,
        s_size=len(S_vals),
        t_size=len(T_vals),
        s_dropped_infinite=s_dropped,
        t_dropped_infinite=t_dropped,
    )


# ---------------------------------------------------------------------------
# quadrangles


def _quadrangle_setup(P: Iterable[PlanePoint]):
    pts = sorted(set(P), key=lambda p: str(p))
    if not pts:
        raise TooFewPoints("empty point set")
    field = pts[0].field
    for p in pts:
        if p.coords[0] == 0:
            raise PointOnYAxis(f"point {p} lies on the y-axis")
        if not p.is_affine:
            raise ValueError(f"quadrangle counting needs affine points, got {p}")
    char = field.characteristic
    raws = [p.raw() for p in pts]
    return pts, field, char, raws


def quadrangles(P: Iterable[PlanePoint]) -> int:
    """|Q(P)|: ordered quadrangles rooted on the y-axis and the line at infinity.

    For each (g,h,u) the fourth vertex is forced: v is the meet of the line
    through u parallel to gh with the line through h and the y-axis point of
    gu; count it when it lands in P and the quadruple is nondegenerate.
    """
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(raws)
    if char:
        inv = [0] * char
        for r in range(1, char):
            inv[r] = pow(r, -1, char)
        index = {(x % char, y % char): i for i, (x, y, _) in enumerate(raws)}
    else:
        index = {_canon_int(0, r): i for i, r in enumerate(raws)}
    # direction of line(i,j) and y-axis meet of line(i,j), as raw triples
    dirs = [[None] * n for _ in range(n)]
    mus = [[None] * n for _ in range(n)]
    for i in range(n):
        xi, yi, zi = raws[i]
        for j in range(n):
            if i == j:
                continue
            xj, yj, zj = raws[j]
            # both affine: direction = (xj*zi - xi*zj : yj*zi - yi*zj : 0)
            d = (xj * zi - xi * zj, yj * zi - yi * zj, 0)
            if char:
                d = (d[0] % char, d[1] % char, 0)
            dirs[i][j] = d
            line = _cross(raws[i], raws[j])
            mu = (0, line[2], -line[1])
            if char:
                mu = (0, mu[1] % char, mu[2] % char)
            mus[i][j] = mu
    count = 0
    for g in range(n):
        for h in range(n):
            if h == g:
                continue
            d = dirs[g][h]
            raw_h = raws[h]
            mus_g = mus[g]
            for u in range(n):
                if u == g:
                    continue
                l1 = _cross(raws[u], d)
                # noncollinearity: if h (hence g) lies on l1, any candidate is
                # collinear with g,h,u
                if (_dot(l1, raw_h) % char == 0) if char else (_dot(l1, raw_h) == 0):
                    continue
                l2 = _cross(raw_h, mus_g[u])
                v = _cross(l1, l2)
                if char:
                    v2 = v[2] % char
                    if v2 == 0:
                        continue
                    w = inv[v2]
                    vi = index.get((v[0] * w % char, v[1] * w % char))
                else:
                    if not any(v):
                        continue
                    vi = index.get(_canon_int(0, v))
                if vi is None or vi == u or vi == h:
                    continue
                count += 1
    return count


def quadrangles_bruteforce(P: Iterable[PlanePoint], cap: int = 64) -> int:
    """Quadruple-enumeration oracle: scans every ordered pair of pairs.

    Direction and y-axis-meet keys are interned to small ints so the n^4 scan
    compares ints only.
    """
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(raws)
    if n > cap:
        raise OracleCapExceeded(f"|P| = {n} above oracle cap {cap}")
    dir_ids: dict = {}
    mu_ids: dict = {}
    dir_k = [[-1] * n for _ in range(n)]
    mu_k = [[-1] * n for _ in range(n)]
    for i in range(n):
        xi, yi, zi = raws[i]
        for j in range(n):
            if i == j:
                continue
            xj, yj, zj = raws[j]
            dk = _canon_int(char, (xj * zi - xi * zj, yj * zi - yi * zj, 0))
            dir_k[i][j] = dir_ids.setdefault(dk, len(dir_ids))
            line = _cross(raws[i], raws[j])
            mk = _canon_int(char, (0, line[2], -line[1]))
            mu_k[i][j] = mu_ids.setdefault(mk, len(mu_ids))
    count = 0
    for g in range(n):
        dir_g = dir_k[g]
        mu_g = mu_k[g]
        for h in range(n):
            if h == g:
                continue
            dk = dir_g[h]
            mu_h = mu_k[h]
            line_gh = _cross(raws[g], raws[h])
            for u in range(n):
                if u == g:
                    continue
                dir_u = dir_k[u]
                mgu = mu_g[u]
                for v in range(n):
                    if v == h or v == u:
                        continue
                    if dir_u[v] != dk or mu_h[v] != mgu:
                        continue
                    du = _dot(line_gh, raws[u])
                    dv = _dot(line_gh, raws[v])
                    if char:
                        du %= char
                        dv %= char
                    if du == 0 and dv == 0:
                        continue  # all four collinear
                    count += 1
    return count


@dataclass
class QuadrangleCorrespondence:
    energy_total: int
    geometric: int
    trivial: int  # g = h (so u = v) or g = u (so h = v)
    collinear: int  # nontrivial quadruples with all four points on one line
    quadrangle_count: int  # independent geometric counter

    @property
    def exhaustive(self) -> bool:
        return (
            self.energy_total == self.geometric + self.trivial + self.collinear
            and self.geometric == self.quadrangle_count
        )


def plane_points_as_affine_set(P: Iterable[PlanePoint]) -> AffineSet:
    """Identify affine points (a, b) off the y-axis with maps x -> a*x + b."""
    pts = list(set(P))
    field = pts[0].field
    return AffineSet.from_pairs(field, ((p.coords[0], p.coords[1]) for p in pts))


def quadrangle_energy_correspondence(P: Iterable[PlanePoint]) -> QuadrangleCorrespondence:
    """Partitions the energy quadruples of P into geometric quadrangles,
    trivial members and collinear members, checking exhaustiveness against
    the geometric counter."""
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(pts)
    maps = [AffineMap(Scalar(field, p.coords[0]), Scalar(field, p.coords[1])) for p in pts]
    buckets: dict = defaultdict(list)
    for i in range(n):
        for j in range(n):
            buckets[quotient(maps[i], maps[j]).key()].append((i, j))
    dir_key = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                xi, yi, zi = raws[i]
                xj, yj, zj = raws[j]
                dir_key[i, j] = _canon_int(char, (xj * zi - xi * zj, yj * zi - yi * zj, 0))
    mu_key = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                line = _cross(raws[i], raws[j])
                mu_key[i, j] = _canon_int(char, (0, line[2], -line[1]))

    total = geometric = trivial = collinear = 0
    for entries in buckets.values():
        for g, h in entries:
            line_gh = _cross(raws[g], raws[h]) if g != h else None
            for u, v in entries:
                total += 1
                if g == h or g == u:
                    # energy relation forces u = v / h = v respectively
                    if (g == h and u != v) or (g == u and h != v):
                        raise InvariantViolation("energy relation must force u = v when g = h, and h = v when g = u")
                    trivial += 1
                    continue
                du = _dot(line_gh, raws[u])
                dv = _dot(line_gh, raws[v])
                if char:
                    du %= char
                    dv %= char
                if du == 0 and dv == 0:
                    collinear += 1
                    continue
                # must be a geometric quadrangle; verify both side conditions
                if u == v or h == v:
                    raise InvariantViolation("a geometric quadrangle needs u != v and h != v")
                if dir_key[g, h] != dir_key[u, v]:
                    raise InvariantViolation("parallel sides expected")
                if mu_key[g, u] != mu_key[h, v]:
                    raise InvariantViolation("shared y-axis point expected")
                geometric += 1
    return QuadrangleCorrespondence(
        energy_total=total,
        geometric=geometric,
        trivial=trivial,
        collinear=collinear,
        quadrangle_count=quadrangles(pts),
    )
