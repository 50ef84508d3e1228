"""Rich lines in grids S x T: incidences, parallel families, concurrent
pencils, and the exact Cauchy-Schwarz certificate chains.

A line is the map (a, b) read as y = a*x + b (a != 0, so never horizontal,
never vertical).  Richness threshold is ceil(alpha * min(|S|, |T|)).

The chains run on the two raw kernels only: every energy is E(G,H) of raw
affine maps from the pair kernel of `energy` (translations x -> x + a for
E+, dilations x -> w*x for E^x), and every representation count on B is
one grid count (see structure_report).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .affine import AffineMap, AffineSet, _nonvertical_lines, flatten, meet_law
from .energy import _dilations, _pair_energy, _slope_classes, _translations, energy
from .errors import InvariantViolation, TooFewLines
from .exactmath import iroot, ratio, sqrt_floor_fraction
from .fields import Field, Frozen, Scalar, cleared, in_unit_interval


class GridInstance(Frozen):
    __slots__ = ("field", "S", "T", "lines", "alpha")

    def __init__(self, field: Field, S: frozenset, T: frozenset, lines: AffineSet, alpha: Fraction):
        if not S or not T:
            raise ValueError("S and T must be nonempty")
        self._set(field, S, T, lines, in_unit_interval(alpha, "alpha"))  # S and T hold raw scalar values

    @classmethod
    def of(cls, field: Field, S: Iterable, T: Iterable, lines: AffineSet, alpha: Fraction) -> "GridInstance":
        sv = frozenset(field.reduce(s.value if isinstance(s, Scalar) else s) for s in S)
        tv = frozenset(field.reduce(t.value if isinstance(t, Scalar) else t) for t in T)
        return cls(field, sv, tv, lines, alpha)

    @classmethod
    def square(cls, field: Field, A: Iterable, lines: AffineSet, alpha: Fraction) -> "GridInstance":
        return cls.of(field, A, A, lines, alpha)


def _grid_counts(field: Field, S: Iterable, T: Iterable, lines: Sequence[tuple]) -> List[int]:
    """#{s in S : a*s + b in T} for each raw line (a, b) of `lines`, in
    integers.

    Over Q, S is cleared at one scale ds and the lines at one scale dl; then
    a*s + b is an integer over dl*ds, and T is kept at that scale, its
    values that no line can reach (non-integral there) dropped.
    """
    p = field.characteristic
    if p:
        targets = set(T)
        return [sum(1 for s in S if (a * s + b) % p in targets) for a, b in lines]
    sigmas, ds = cleared(p, list(S))
    coeffs, dl = cleared(p, [v for line in lines for v in line])
    targets = {t.numerator for t in (t * (dl * ds) for t in T) if t.denominator == 1}
    counts = []
    for a, b in zip(coeffs[::2], coeffs[1::2]):
        b *= ds
        counts.append(sum(1 for s in sigmas if a * s + b in targets))
    return counts


def grid_incidences(inst: GridInstance) -> Tuple[Dict[AffineMap, int], int]:
    """Per-line counts #{(s,t) in S x T : t = a*s + b} and their total."""
    lines = list(inst.lines)
    counts = _grid_counts(inst.field, inst.S, inst.T, [line.key() for line in lines])
    return dict(zip(lines, counts)), sum(counts)


def rich_threshold(inst: GridInstance) -> int:
    base = min(len(inst.S), len(inst.T))
    q = inst.alpha * base
    return -((-q.numerator) // q.denominator)  # ceil


def rich_lines(inst: GridInstance) -> AffineSet:
    """Lines meeting the grid in at least ceil(alpha * min(|S|,|T|)) points."""
    per_line, _ = grid_incidences(inst)
    thresh = rich_threshold(inst)
    return AffineSet(inst.field, (l for l, c in per_line.items() if c >= thresh))


class ParallelFamily(NamedTuple):
    slope: Optional[Scalar]
    intercepts: frozenset  # of Scalar

    @property
    def size(self) -> int:
        return len(self.intercepts)


def max_parallel_family(lines: AffineSet) -> ParallelFamily:
    """Most frequent slope with its intercepts; ties to the smallest slope."""
    if not len(lines):
        return ParallelFamily(None, frozenset())
    field = lines.field
    classes = _slope_classes(l.key() for l in lines)
    top = max(len(bs) for _, bs in classes)
    slope, bs = min(((a, bs) for a, bs in classes if len(bs) == top), key=lambda c: field.sort_key(c[0]))
    return ParallelFamily(Scalar(field, slope), frozenset(Scalar(field, b) for b in bs))


class Pencil(NamedTuple):
    point: Optional[Tuple[Scalar, Scalar]]  # None when all lines are parallel
    slopes: frozenset  # of Scalar

    @property
    def size(self) -> int:
        return max(len(self.slopes), 1)


def max_concurrent_pencil(lines: AffineSet) -> Pencil:
    """Affine point on the most lines, read off the line pass by duality.

    The lines y = a*x + b through (x0, y0) are the points (a, b) on the line
    b = -x0*a + y0, and a vertical line of those points is a parallel
    family.  So the largest non-vertical line of the points (a, b) is the
    largest pencil; ties go to the smallest (x0, y0).  Parallel-only inputs
    yield the degenerate single-line pencil.
    """
    if len(lines) < 2:
        raise TooFewLines("pencil detection needs at least two lines")
    field = lines.field
    keys = [l.key() for l in lines]
    groups = _nonvertical_lines(field, keys)
    if not groups:
        slope = min((a for a, _ in keys), key=field.sort_key)
        return Pencil(None, frozenset({Scalar(field, slope)}))

    def point(members):
        (a1, b1), (a2, b2) = keys[members[0]], keys[members[1]]
        x0 = field.div(field.sub(b2, b1), field.sub(a1, a2))
        return x0, field.add(field.mul(a1, x0), b1)

    top = max(map(len, groups))
    x0, y0, members = min(
        ((*point(m), m) for m in groups if len(m) == top),
        key=lambda e: (field.sort_key(e[0]), field.sort_key(e[1])),
    )
    return Pencil((Scalar(field, x0), Scalar(field, y0)), frozenset(Scalar(field, keys[i][0]) for i in members))


def pencil_bruteforce(lines: AffineSet) -> Pencil:
    """O(k^2) oracle: one meet per pair of lines of different slopes, the
    intersections tallied per anchor line.

    Each anchor line i counts, by intersection abscissa x0, the later lines
    j > i of another slope; those meeting it at x0 all pass through
    (x0, a_i*x0 + b_i).  The r lines through a point tally r - 1 on their
    smallest-index member and fewer on every other anchor, so the largest
    tally plus one is the largest pencil, and every point reaching it is
    gathered; ties go to the smallest (x0, y0).  The x0 are tallied as the
    keys of affine.meet_law; field values are built for the gathered points
    only.  A final scan of all lines reads the pencil's slopes and must
    count exactly that many.
    """
    k = len(lines)
    if k < 2:
        raise TooFewLines("pencil detection needs at least two lines")
    field, char = lines.field, lines.field.characteristic
    maps = lines.sorted_maps()
    keys, flat = [l.key() for l in maps], [flatten(l) for l in maps]
    meet = meet_law(field)
    top = 0
    points: List[tuple] = []
    for i in range(k):
        l1 = flat[i]
        tally = Counter([x for x in (meet(l1, l2) for l2 in flat[i + 1 :]) if x is not None])
        if not tally:
            continue
        cnt = max(tally.values())
        if cnt > top:
            top, points = cnt, []
        if cnt == top:
            a1, b1 = keys[i]
            for x0 in (x if char else Fraction(*x) for x, c in tally.items() if c == top):
                points.append((x0, field.add(field.mul(a1, x0), b1)))
    if not points:
        slope = min((a for a, _ in keys), key=field.sort_key)
        return Pencil(None, frozenset({Scalar(field, slope)}))
    x0, y0 = min(points, key=lambda p: (field.sort_key(p[0]), field.sort_key(p[1])))
    slopes = {a for a, b in keys if field.add(field.mul(a, x0), b) == y0}
    if len(slopes) != top + 1:
        raise InvariantViolation("pencil tally disagrees with the lines through its point")
    return Pencil((Scalar(field, x0), Scalar(field, y0)), frozenset(Scalar(field, s) for s in slopes))


class ChainCheck(NamedTuple):
    """One exact Cauchy-Schwarz chain: every link is an integer inequality."""

    sum_over_B: int
    size_B: int
    sum_sq_over_B: int
    mixed_energy: int
    energy_bound: int  # |B| * E+ for the parallel chain; E^x * E^x for the pencil chain
    links_hold: bool


class RichLineReport(NamedTuple):
    n: int
    k_lines: int
    k_rich: int
    alpha: Fraction
    threshold: int
    total_incidences: int
    per_line: Dict[AffineMap, int]
    family: ParallelFamily
    pencil: Optional[Pencil]
    e_plus: int
    e_mul_x0: Optional[int]
    e_mul_y0: Optional[int]
    mul_dropped_x0: int
    mul_dropped_y0: int
    parallel_chain: Optional[ChainCheck]
    pencil_chain: Optional[ChainCheck]
    pencil_link1_holds: Optional[bool]
    alpha_guard_ok: bool  # alpha >= n^{-1/2}
    p_guard_ok: Optional[bool]  # p >= max(k, alpha^{-2} n)
    measured_ratios: Dict[str, Fraction]


def _chain(
    field: Field, r_on_B: List[int], G: list, H: list, energies: Tuple[int, int], energy_bound: int, floor: int, name: str
) -> ChainCheck:
    """The links floor*|B| <= sum_B r, (sum_B r)^2 <= |B| sum_B r^2,
    sum_B r^2 <= E(G,H) and E(G,H)^2 <= E(G) E(H) (Cauchy-Schwarz), where r
    counts the pairs of G x H by g^{-1} o h, so sum r^2 = E(G,H)."""
    sum_b, sum_sq = sum(r_on_B), sum(r * r for r in r_on_B)
    mixed = _pair_energy(field, G, H)
    links = (
        floor * len(r_on_B) <= sum_b
        and sum_b * sum_b <= len(r_on_B) * sum_sq
        and sum_sq <= mixed
        and mixed * mixed <= energies[0] * energies[1]
    )
    if not links:
        raise InvariantViolation(f"{name} Cauchy-Schwarz chain violated")
    return ChainCheck(sum_b, len(r_on_B), sum_sq, mixed, energy_bound, links)


def structure_report(inst: GridInstance) -> RichLineReport:
    """RichLineReport for the square grid A x A with exact chain assertions.

    The parallel-family chain (sum_B r)^2 <= |B| * E+(A) is asserted link by
    link; the pencil chain (sum_B r)^4 <= |B|^2 E^x(A-x0) E^x(A-y0) likewise.
    Link 1 of the pencil chain (threshold*|B| <= sum_B r) is recorded but not
    asserted: the pencil point may itself lie in A x A and absorb one
    incidence per line: r(beta) = I(l_beta) - [x0 in A and y0 in A] for the
    rich line l_beta of slope beta through (x0, y0), as W leaves out w = 0.

    With T(X) the translations x -> x + s and D(X) the dilations x -> w*x
    by the elements of X, W = {a - x0 != 0} and U = {a - y0 != 0}:
    E+(A) = E(T(A)), E^x(A - x0) = E(D(W)), E^x(A - y0) = E(D(U)); the
    family of slope gamma has r(b) = #{x in A : gamma*x + b in A}, the count
    of the line (gamma, b) in per_line, and mixed energy E(T(gamma*A), T(A));
    the pencil has r(beta) = #{w in W : beta*w + y0 in A} and mixed energy
    E(D(W), D(U)).  So per_line, the one grid count, holds every r.
    """
    if inst.S != inst.T:
        raise ValueError("structure_report expects the square grid S = T = A")
    field = inst.field
    S = inst.S
    n = len(S)
    per_line, total = grid_incidences(inst)
    thresh = rich_threshold(inst)
    rich = AffineSet(field, (l for l, c in per_line.items() if c >= thresh))
    k_rich = len(rich)
    count = {l.key(): c for l, c in per_line.items()}

    translations = _translations(field, S)
    e_plus = _pair_energy(field, translations, translations)

    family = max_parallel_family(rich)
    parallel_chain = None
    if family.slope is not None and family.size:
        gamma, B = family.slope.value, [b.value for b in family.intercepts]
        r_on_B = [count[gamma, b] for b in B]
        G = _translations(field, [field.mul(gamma, x) for x in S])
        parallel_chain = _chain(field, r_on_B, G, translations, (e_plus, e_plus), len(B) * e_plus, thresh, "parallel-family")

    pencil = None
    pencil_chain = None
    link1 = None
    e_mul_x0 = e_mul_y0 = None
    dropped_x0 = dropped_y0 = 0
    if k_rich >= 2:
        pencil = max_concurrent_pencil(rich)
        if pencil.point is not None:
            x0, y0 = (v.value for v in pencil.point)
            W = [field.sub(s, x0) for s in S if s != x0]
            U = [field.sub(s, y0) for s in S if s != y0]
            dropped_x0, dropped_y0 = n - len(W), n - len(U)
            G, H = _dilations(field, W), _dilations(field, U)
            e_mul_x0, e_mul_y0 = _pair_energy(field, G, G), _pair_energy(field, H, H)
            B = [s.value for s in pencil.slopes]
            at_w0 = x0 in S and y0 in S
            r_on_B = [count[beta, field.sub(y0, field.mul(beta, x0))] - at_w0 for beta in B]
            pencil_chain = _chain(field, r_on_B, G, H, (e_mul_x0, e_mul_y0), e_mul_x0 * e_mul_y0, 0, "pencil")
            link1 = thresh * len(B) <= pencil_chain.sum_over_B

    alpha = inst.alpha
    alpha_ok = alpha * alpha * n >= 1
    p_ok = None
    char = field.characteristic
    if char:
        p_ok = char >= k_rich and Fraction(char) * alpha * alpha >= n

    C = 12 if char == 0 else 16
    ratios: Dict[str, Fraction] = {}
    if k_rich:
        aC = alpha**C
        ratios["parallel_count"] = ratio(family.size * n * n, aC * k_rich**3)
        ratios["e_plus"] = ratio(e_plus, alpha ** (2 + C) * k_rich**3)
        if pencil is not None and pencil.point is not None:
            aC2 = alpha ** (C // 2)
            ratios["pencil_count"] = ratio(pencil.size * n, aC2 * k_rich**2)
            ratios["e_mul_x0"] = ratio(e_mul_x0, alpha ** (2 + C // 2) * n * k_rich**2)
            ratios["e_mul_y0"] = ratio(e_mul_y0, alpha ** (2 + C // 2) * n * k_rich**2)

    return RichLineReport(
        n=n,
        k_lines=len(inst.lines),
        k_rich=k_rich,
        alpha=alpha,
        threshold=thresh,
        total_incidences=total,
        per_line=per_line,
        family=family,
        pencil=pencil,
        e_plus=e_plus,
        e_mul_x0=e_mul_x0,
        e_mul_y0=e_mul_y0,
        mul_dropped_x0=dropped_x0,
        mul_dropped_y0=dropped_y0,
        parallel_chain=parallel_chain,
        pencil_chain=pencil_chain,
        pencil_link1_holds=link1,
        alpha_guard_ok=alpha_ok,
        p_guard_ok=p_ok,
        measured_ratios=ratios,
    )


class ElekesReport(NamedTuple):
    incidence_count: int
    energy: int
    n_lines: int
    s_size: int
    t_size: int
    characteristic: int
    rhs: Fraction
    ratio: Fraction


def elekes_incidence_bound_check(S: Iterable, T: Iterable, A: AffineSet, field: Field, E: Optional[int] = None) -> ElekesReport:
    """I(S x T, A) against the two-term incidence bound, exactly floored,
    with E = E(A), computed here unless given.

    Characteristic 0: rhs = floor((|T|^3 |S|^4 E |A|^2)^{1/6}) + floor(sqrt(|T| |A|^2)).
    Characteristic p: rhs = floor((|T|^4 |S|^5 E |A|^4)^{1/8})
                          + sqrt_floor(|T| |A|^2 max(1, |S|^2/p)).
    """
    if E is None:
        E = energy(A)
    sv = {field.reduce(s.value if isinstance(s, Scalar) else s) for s in S}
    tv = {field.reduce(t.value if isinstance(t, Scalar) else t) for t in T}
    count = sum(_grid_counts(field, sv, tv, [line.key() for line in A]))
    k = len(A)
    ns, nt = len(sv), len(tv)
    char = field.characteristic
    if char == 0:
        term1 = iroot(nt**3 * ns**4 * E * k**2, 6)
        term2 = isqrt(nt * k * k)
        rhs = Fraction(term1 + term2)
    else:
        term1 = Fraction(iroot(nt**4 * ns**5 * E * k**4, 8))
        inflate = max(Fraction(1), Fraction(ns * ns, char))
        term2 = sqrt_floor_fraction(Fraction(nt * k * k) * inflate)
        rhs = term1 + term2
    return ElekesReport(
        incidence_count=count,
        energy=E,
        n_lines=k,
        s_size=ns,
        t_size=nt,
        characteristic=char,
        rhs=rhs,
        ratio=ratio(count, rhs),
    )
