"""Projective plane machinery: spanned lines, shadows, two-line normalization,
Beck-point statistics and quadrangle counting.

Points and lines are homogeneous triples, `projective.Homogeneous` with the
last nonzero coordinate as pivot, so affine points are exactly those with
z = 1 and the line at infinity is (0:0:1).  Hot loops run on their raw
integer triples; cross products implement meet and join.  One span pass groups the
points by the shared line pass of `projective`, the plane embedded in P^3 as
x2 = 0, and keys each spanned line once by the raw join of its first two
points, with no canonical form: every reader is scale-free.  Spanned lines,
shadows, Beck statistics, the shadow check and the quadrangle count all read
it, and PlaneLine/PlanePoint objects are built only for the caller.

Two lines l1, l2 are normalized to (y-axis, line at infinity) by the map with
covector rows (l1, e, l2), e a unit row; the shadow check then reads slopes
and intercepts straight off the span keys of the image points.

Quadrangles: ordered (g,h,u,v), pairwise constraints g!=h, u!=v, g!=u, h!=v,
with line(g,h) and line(u,v) meeting the line at infinity at the same point
and line(g,u), line(h,v) meeting the y-axis at the same point.  Both side
conditions are projective: two vertical sides share the infinite point
(0:1:0) of the y-axis and count as "same y-intercept".  Quadruples whose four
points are collinear are excluded.  They are exactly the energy quadruples of
P read as affine maps (a, b) -> (x -> a*x + b) that are neither trivial nor
collinear, which is how quadrangles() counts them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, List, NamedTuple, Set

from .affine import AffineSet
from .energy import ORACLE_CAP_DEFAULT, _pair_energy
from .errors import (
    EqualLines,
    InvariantViolation,
    LineMeetsP,
    OracleCapExceeded,
    PointOnYAxis,
    TooFewPoints,
)
from .fields import Field, Frozen, in_unit_interval
from . import projective
from .projective import Homogeneous, canon_int, is_zero
from .richlines import _grid_counts


# ---------------------------------------------------------------------------
# homogeneous triples


def _cross(a: tuple, b: tuple) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: tuple, b: tuple) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mod(char: int, t: tuple) -> tuple:
    return tuple(v % char for v in t) if char else t


class PlanePoint(Homogeneous):
    """(x : y : z) with the last nonzero coordinate 1: z = 1 iff affine."""

    __slots__ = ()
    last = True

    @classmethod
    def affine(cls, field: Field, x, y) -> "PlanePoint":
        return cls(field, (x, y, 1))

    @property
    def is_affine(self) -> bool:
        return self.coords[2] != 0


class PlaneLine(Homogeneous):
    """a*x + b*y + c*z = 0 with canonical (a : b : c)."""

    __slots__ = ()
    last = True
    _name = "coeffs"
    coeffs = Homogeneous.coords

    @classmethod
    def infinity(cls, field: Field) -> "PlaneLine":
        return cls(field, (0, 0, 1))

    @classmethod
    def y_axis(cls, field: Field) -> "PlaneLine":
        return cls(field, (1, 0, 0))


def incident(p: PlanePoint, l: PlaneLine) -> bool:
    return is_zero(p.field.characteristic, _dot(p.raw(), l.raw()))


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


def reflect(x: Homogeneous) -> Homogeneous:
    """Reflection in y = x of a point, (x : y : z) -> (y : x : z), or of a
    line, whose coefficients swap the same way."""
    a, b, c = x.coords
    return type(x)(x.field, (b, a, c))


# ---------------------------------------------------------------------------
# spanned lines, shadows, Beck statistics


def _span_pass(char: int, raws: list) -> Dict[tuple, List[int]]:
    """{line key: indices of its points} over the lines spanned by the raw
    triples, each line keyed by the raw join of its first two points (reduced
    mod p), so only scale-free readings of a key are meaningful."""
    groups = projective.lines(char, [(x, y, 0, z) for x, y, z in raws])
    return {_mod(char, _cross(raws[m[0]], raws[m[1]])): m for m in groups}


def _distinct_points(P: Iterable[PlanePoint], message: str) -> list:
    pts = list(set(P))
    if len(pts) < 2:
        raise TooFewPoints(message)
    return pts


def span_lines(P: Iterable[PlanePoint]) -> Set[PlaneLine]:
    """L(P): deduplicated lines through at least two points of P."""
    pts = _distinct_points(P, "need at least two points to span lines")
    field = pts[0].field
    return {PlaneLine.of(field, k) for k in _span_pass(field.characteristic, [p.raw() for p in pts])}


def shadow(P: Iterable[PlanePoint], l: PlaneLine) -> Set[PlanePoint]:
    """Distinct meets of the spanned lines of P with l; l must avoid P."""
    pts = list(set(P))
    char = l.field.characteristic
    raws = [p.raw() for p in pts]
    lraw = l.raw()
    for p, r in zip(pts, raws):
        if is_zero(char, _dot(r, lraw)):
            raise LineMeetsP(f"shadow line passes through {p}")
    _distinct_points(pts, "need at least two points to span lines")
    meets = {canon_int(char, _cross(k, lraw), last=True) for k in _span_pass(char, raws)}
    return {PlanePoint.of(l.field, k) for k in meets}


def incidence_count(P: Iterable[PlanePoint], lines: Iterable[PlaneLine]) -> int:
    """I(P, lines): exact incidence count."""
    pts = [p.raw() for p in set(P)]
    total = 0
    for line in set(lines):
        lraw = line.raw()
        char = line.field.characteristic
        for praw in pts:
            if is_zero(char, _dot(praw, lraw)):
                total += 1
    return total


class BeckPointStats(NamedTuple):
    lines_total: int
    per_point: Dict[PlanePoint, int]
    theta: Fraction
    rich_fraction: Fraction  # fraction of points on >= theta * |P| spanned lines


def beck_point_stats(P: Iterable[PlanePoint], theta: Fraction = Fraction(1, 2)) -> BeckPointStats:
    """Per-point counts of spanned lines through each point of P; theta is exact, in (0, 1]."""
    theta = in_unit_interval(theta, "theta")
    pts = _distinct_points(P, "need at least two points")
    lines = _span_pass(pts[0].field.characteristic, [p.raw() for p in pts])
    counts = [0] * len(pts)
    for members in lines.values():
        for i in members:
            counts[i] += 1
    per_point = dict(zip(pts, counts))
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


class ProjectiveMap2(Frozen):
    """Invertible 3x3 matrix acting on the projective plane."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: tuple):
        self._set(field, rows)  # 3 tuples of 3 raw values
        if self.det() == 0:
            raise ValueError("projective map must be invertible")

    def det(self):
        r0, r1, r2 = self.rows
        return self.field.reduce(_dot(r0, _cross(r1, r2)))

    def apply_point(self, p: PlanePoint) -> PlanePoint:
        return PlanePoint.of(self.field, [_dot(row, p.coords) for row in self.rows])

    def apply_line(self, l: PlaneLine) -> PlaneLine:
        """Image line: coefficients transform by the adjugate transpose,
        whose rows are the adjugate columns r1 x r2, r2 x r0, r0 x r1."""
        r0, r1, r2 = self.rows
        return PlaneLine.of(self.field, [_dot(_cross(u, v), l.coeffs) for u, v in ((r1, r2), (r2, r0), (r0, r1))])


def apply_projective(T: ProjectiveMap2, P: Iterable[PlanePoint]) -> Set[PlanePoint]:
    return {T.apply_point(p) for p in set(P)}


def normalize_two_lines(l1: PlaneLine, l2: PlaneLine) -> ProjectiveMap2:
    """The map with rows (l1, e, l2), p -> (l1.p : e.p : l2.p), sending l1 to
    the y-axis and l2 to infinity.

    e is the unit row at a nonzero coordinate of l1 x l2, (0,1,0) first, so
    the rows are independent and l1^l2 goes to (0:1:0): lines through it map
    to vertical lines, and (y-axis, infinity) gives the identity.  Any two
    maps sending l1, l2 to these lines differ by one that moves slopes and
    intercepts by separate affine maps, so every count of the shadow check
    is the same under each.
    """
    field = l1.field
    s = _cross(l1.raw(), l2.raw())
    i = next((i for i in (1, 0, 2) if not is_zero(field.characteristic, s[i])), None)
    if i is None:
        raise EqualLines("normalization needs two distinct lines")
    e = tuple(field.reduce(int(j == i)) for j in range(3))
    return ProjectiveMap2(field, (l1.coeffs, e, l2.coeffs))


# ---------------------------------------------------------------------------
# shadow incidence check (two-line grid reduction)


class ShadowCheckReport(NamedTuple):
    removed_points: int
    n_points: int
    lhs_total: int  # I(P', L(P'))
    lhs_nonvertical: int  # incidences on non-vertical spanned lines
    rhs: int  # I(S x T, P' as lines)
    s_size: int
    t_size: int
    s_dropped_infinite: int
    t_dropped_infinite: int


def shadow_incidence_check(P: Iterable[PlanePoint], l1: PlaneLine, l2: PlaneLine) -> ShadowCheckReport:
    """Checks I(P', L(P')) <= I(S x T, P') after normalizing (l1,l2).

    Points of P on l1 or l2 are removed first (count reported).  The paper's
    injection covers incidences on non-vertical spanned lines; that exact
    inequality is asserted here, and both totals are reported.
    """
    P = set(P)
    pts = [p for p in P if not incident(p, l1) and not incident(p, l2)]
    removed = len(P) - len(pts)
    if len(pts) < 2:
        raise TooFewPoints("need two points off the two lines")
    field = pts[0].field
    char = field.characteristic
    e = normalize_two_lines(l1, l2).rows[1]  # a unit row: its entries are 0 and 1
    rows = [l1.raw(), tuple(v.numerator for v in e), l2.raw()]
    img = [_mod(char, tuple(_dot(row, p.raw()) for row in rows)) for p in pts]
    if any(is_zero(char, x) or is_zero(char, z) for x, _, z in img):
        raise InvariantViolation("normalized points must avoid both special lines")

    lines = _span_pass(char, img)
    lhs_total = sum(map(len, lines.values()))
    # b != 0 <=> not through (0:1:0) <=> non-vertical: y = (-a/b)*x + (-c/b)
    nonvert = [k for k in lines if k[1]]
    lhs_nonvert = sum(len(lines[k]) for k in nonvert)
    S_vals = {field.div(-a, b) for a, b, _ in nonvert}
    T_vals = {field.div(-c, b) for _, b, c in nonvert}
    # every vertical line meets infinity and the y-axis at (0:1:0)
    s_dropped = t_dropped = int(len(nonvert) < len(lines))

    # rhs = #{(p, s) : p2 - p1*s in T}, each point p read as the line
    # t = -p1*s + p2
    rhs = sum(_grid_counts(field, S_vals, T_vals, [(field.div(-x, z), field.div(y, z)) for x, y, z in img]))

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


def _infinite_meet(char: int, p: tuple, q: tuple) -> tuple:
    """The point at infinity of the line through the raw affine triples p, q."""
    (xp, yp, zp), (xq, yq, zq) = p, q
    return canon_int(char, (xq * zp - xp * zq, yq * zp - yp * zq, 0), last=True)


def _y_axis_meet(char: int, p: tuple, q: tuple) -> tuple:
    """The meet of the line through the raw triples p, q with the y-axis."""
    line = _cross(p, q)
    return canon_int(char, (0, line[2], -line[1]), last=True)


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


def _table_energy(vals: list, op) -> int:
    """sum_t r(t)^2 for r(t) = #{(x, y) in vals^2 : op(x, y) = t}.

    The E(L) of one spanned line, in field arithmetic rather than the pair
    kernel: a line holds few points, and per line the kernel's prologue
    costs more than the tally.  With the kernel per line, quadrangles took
    41.4 ms instead of 23.9 ms on grid:8 over Q, and 15.9 ms instead of
    5.6 ms on randaff:40 over F_1009 (in-process, best of 7, 2-vCPU VM,
    Python 3.11.7).  quadrangles() calls it only on lines of three or more
    points; two-point lines take a closed form that keeps E^x({a, -a}) = 8,
    not the 6 of a generic pair.
    """
    return sum(r * r for r in Counter(op(x, y) for x in vals for y in vals).values())


def quadrangles(P: Iterable[PlanePoint]) -> int:
    """|Q(P)|: ordered quadrangles rooted on the y-axis and the line at infinity.

    Counted through the energy identity: of the E(A_P) energy quadruples,
    2n^2 - n are trivial (g = h or g = u), and on each spanned line l, with
    L the points of P on l, E(L) - (2|L|^2 - |L|) are nontrivial and
    collinear; the rest are the quadrangles.  On a vertical line the maps
    share their slope and E(L) is the additive energy of the intercepts; on
    the line b = m*a + c they are x -> a*(x + m) + c and E(L) is the
    multiplicative energy of the slopes.  A two-point line has E(L) = 6,
    except a non-vertical one with slopes a and -a, where E^x({a, -a}) = 8.
    """
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(pts)
    pairs = [p.coords[:2] for p in pts]
    count = _pair_energy(field, pairs, pairs) - (2 * n * n - n)
    for key, members in _span_pass(char, raws).items():
        if len(members) == 2:
            count -= 2 if key[1] and field.add(*(pairs[i][0] for i in members)) == 0 else 0
            continue
        if key[1]:  # non-vertical
            e = _table_energy([pairs[i][0] for i in members], field.mul)
        else:
            e = _table_energy([pairs[i][1] for i in members], field.add)
        k = len(members)
        count -= e - (2 * k * k - k)
    return count


def quadrangles_bruteforce(P: Iterable[PlanePoint], cap: int = ORACLE_CAP_DEFAULT) -> int:
    """Quadruple-enumeration oracle over the pairs of pairs of one direction.

    The direction and y-axis-meet keys are projective, hence symmetric, and
    are computed once per unordered pair; the meets are interned to small
    ints.  The ordered pairs are grouped by direction, and every pair of
    pairs ((g,h),(u,v)) of one group is tested for u != g, v != h,
    mu(g, u) = mu(h, v) and not all four collinear.  The cost is O(n^2) plus
    the sum of the squared group sizes: O(n^2) in general position, where a
    group holds one pair and its reverse.
    """
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(raws)
    if n > cap:
        raise OracleCapExceeded(f"|P| = {n} above oracle cap {cap}")
    mu_ids: dict = {}
    mu_k = [[-1] * n for _ in range(n)]
    by_dir: dict = defaultdict(list)  # direction -> ordered pairs (i, j), i != j
    for i in range(n):
        for j in range(i + 1, n):
            by_dir[_infinite_meet(char, raws[i], raws[j])] += [(i, j), (j, i)]
            mu_k[i][j] = mu_k[j][i] = mu_ids.setdefault(_y_axis_meet(char, raws[i], raws[j]), len(mu_ids))
    count = 0
    for pairs in by_dir.values():
        for g, h in pairs:
            mu_g, mu_h = mu_k[g], mu_k[h]
            line_gh = _cross(raws[g], raws[h])
            for u, v in pairs:
                if u == g or v == h or mu_g[u] != mu_h[v]:
                    continue
                if is_zero(char, _dot(line_gh, raws[u])) and is_zero(char, _dot(line_gh, raws[v])):
                    continue  # all four collinear
                count += 1
    return count


class QuadrangleCorrespondence(NamedTuple):
    energy_total: int
    geometric: int
    trivial: int  # g = h (so u = v) or g = u (so h = v)
    collinear: int  # nontrivial quadruples with all four points on one line
    quadrangle_count: int  # quadrangles_bruteforce up to ORACLE_CAP_DEFAULT points, quadrangles() above

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
    quadrangles_bruteforce while |P| <= ORACLE_CAP_DEFAULT; above the cap the
    energy-identity count quadrangles() stands in."""
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(pts)
    keys = [(field.inv(p.coords[0]), p.coords[1]) for p in pts]  # (1/a, b)
    buckets: dict = defaultdict(list)  # by the raw key (a_h/a_g, (b_h - b_g)/a_g) of g^{-1} o h
    for i, (ai, bg) in enumerate(keys):
        for j, p in enumerate(pts):
            buckets[field.mul(ai, p.coords[0]), field.mul(ai, field.sub(p.coords[1], bg))].append((i, j))

    # side keys of a pair, computed only for the geometric quadruples that read them
    @cache
    def dir_key(i, j):
        return _infinite_meet(char, raws[i], raws[j])

    @cache
    def mu_key(i, j):
        return _y_axis_meet(char, raws[i], raws[j])

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
                if is_zero(char, _dot(line_gh, raws[u])) and is_zero(char, _dot(line_gh, raws[v])):
                    collinear += 1
                    continue
                # must be a geometric quadrangle; verify both side conditions
                if u == v or h == v:
                    raise InvariantViolation("a geometric quadrangle needs u != v and h != v")
                if dir_key(g, h) != dir_key(u, v):
                    raise InvariantViolation("parallel sides expected")
                if mu_key(g, u) != mu_key(h, v):
                    raise InvariantViolation("shared y-axis point expected")
                geometric += 1
    return QuadrangleCorrespondence(
        energy_total=total,
        geometric=geometric,
        trivial=trivial,
        collinear=collinear,
        quadrangle_count=quadrangles_bruteforce(pts, ORACLE_CAP_DEFAULT) if n <= ORACLE_CAP_DEFAULT else quadrangles(pts),
    )
