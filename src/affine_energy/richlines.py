"""Rich lines in grids S x T: incidences, parallel families, concurrent
pencils, and the exact Cauchy-Schwarz certificate chains.

A line is the map (a, b) read as y = a*x + b (a != 0, so never horizontal,
never vertical).  Richness threshold is ceil(alpha * min(|S|, |T|)).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .affine import AffineMap, AffineSet
from .energy import energy, scalar_energy_add, scalar_energy_mul, shifted_nonzero
from .errors import InvariantViolation, TooFewLines
from .exactmath import iroot, ratio, sqrt_floor_fraction
from .fields import Field, Scalar
from math import isqrt


@dataclass(frozen=True)
class GridInstance:
    field: Field
    S: frozenset  # raw scalar values
    T: frozenset
    lines: AffineSet
    alpha: Fraction

    def __post_init__(self):
        if not self.S or not self.T:
            raise ValueError("S and T must be nonempty")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    @classmethod
    def of(cls, field: Field, S: Iterable, T: Iterable, lines: AffineSet, alpha: Fraction) -> "GridInstance":
        sv = frozenset(field.reduce(s.value if isinstance(s, Scalar) else s) for s in S)
        tv = frozenset(field.reduce(t.value if isinstance(t, Scalar) else t) for t in T)
        return cls(field, sv, tv, lines, Fraction(alpha))

    @classmethod
    def square(cls, field: Field, A: Iterable, lines: AffineSet, alpha: Fraction) -> "GridInstance":
        return cls.of(field, A, A, lines, alpha)


def grid_incidences(inst: GridInstance) -> Tuple[Dict[AffineMap, int], int]:
    """Per-line counts #{(s,t) in S x T : t = a*s + b} and their total."""
    f = inst.field
    t_set = inst.T
    per_line: Dict[AffineMap, int] = {}
    for line in inst.lines:
        a, b = line.key()
        per_line[line] = sum(1 for s in inst.S if f.add(f.mul(a, s), b) in t_set)
    return per_line, sum(per_line.values())


def rich_threshold(inst: GridInstance) -> int:
    base = min(len(inst.S), len(inst.T))
    q = inst.alpha * base
    return -((-q.numerator) // q.denominator)  # ceil


def rich_lines(inst: GridInstance) -> AffineSet:
    """Lines meeting the grid in at least ceil(alpha * min(|S|,|T|)) points."""
    per_line, _ = grid_incidences(inst)
    thresh = rich_threshold(inst)
    return AffineSet(inst.field, (l for l, c in per_line.items() if c >= thresh))


@dataclass
class ParallelFamily:
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
    by_slope: dict = defaultdict(list)
    for l in lines:
        by_slope[l.a.value].append(l.b)
    top = max(len(v) for v in by_slope.values())
    slope = min((s for s, v in by_slope.items() if len(v) == top), key=field.sort_key)
    return ParallelFamily(Scalar(field, slope), frozenset(by_slope[slope]))


@dataclass
class Pencil:
    point: Optional[Tuple[Scalar, Scalar]]  # None when all lines are parallel
    slopes: frozenset  # of Scalar

    @property
    def size(self) -> int:
        return max(len(self.slopes), 1)


def max_concurrent_pencil(lines: AffineSet) -> Pencil:
    """Affine point on the most lines, by exact pairwise-intersection voting.

    A point on c lines collects c*(c-1)/2 votes, so the vote maximum locates
    the line-count maximum; the winner's lines are recollected by one scan.
    Parallel-only inputs yield the degenerate single-line pencil.
    """
    k = len(lines)
    if k < 2:
        raise TooFewLines("pencil detection needs at least two lines")
    field = lines.field
    ls = lines.sorted_maps()
    votes: Counter = Counter()
    for i in range(k):
        a1, b1 = ls[i].key()
        for j in range(i + 1, k):
            a2, b2 = ls[j].key()
            if a1 == a2:
                continue
            x0 = field.div(field.sub(b2, b1), field.sub(a1, a2))
            y0 = field.add(field.mul(a1, x0), b1)
            votes[(x0, y0)] += 1
    if not votes:
        slope = min((l.a.value for l in ls), key=field.sort_key)
        return Pencil(None, frozenset({Scalar(field, slope)}))
    top = max(votes.values())
    x0, y0 = min(
        (pt for pt, v in votes.items() if v == top),
        key=lambda pt: (field.sort_key(pt[0]), field.sort_key(pt[1])),
    )
    slopes = {
        l.a.value for l in ls if field.add(field.mul(l.a.value, x0), l.b.value) == y0
    }
    return Pencil((Scalar(field, x0), Scalar(field, y0)), frozenset(Scalar(field, s) for s in slopes))


def pencil_bruteforce(lines: AffineSet) -> Pencil:
    """O(k^3) oracle: rescan all lines through every pairwise intersection."""
    k = len(lines)
    if k < 2:
        raise TooFewLines("pencil detection needs at least two lines")
    field = lines.field
    ls = lines.sorted_maps()
    keys = [l.key() for l in ls]
    best: Optional[Tuple[int, tuple]] = None
    for i in range(k):
        a1, b1 = keys[i]
        for j in range(i + 1, k):
            a2, b2 = keys[j]
            if a1 == a2:
                continue
            x0 = field.div(field.sub(b2, b1), field.sub(a1, a2))
            y0 = field.add(field.mul(a1, x0), b1)
            cnt = sum(1 for a, b in keys if field.add(field.mul(a, x0), b) == y0)
            entry = (cnt, (field.sort_key(x0), field.sort_key(y0)))
            if best is None or cnt > best[0] or (cnt == best[0] and entry[1] < best[1]):
                best = (cnt, entry[1], (x0, y0))
    if best is None:
        slope = min((a for a, _ in keys), key=field.sort_key)
        return Pencil(None, frozenset({Scalar(field, slope)}))
    x0, y0 = best[2]
    slopes = {a for a, b in keys if field.add(field.mul(a, x0), b) == y0}
    return Pencil((Scalar(field, x0), Scalar(field, y0)), frozenset(Scalar(field, s) for s in slopes))


def difference_representation(A: Iterable, gamma, field: Field) -> Counter:
    """r_{A - gamma*A}(beta) = #{(y, x) in A^2 : y - gamma*x = beta}."""
    vals = [a.value if isinstance(a, Scalar) else field.reduce(a) for a in A]
    g = gamma.value if isinstance(gamma, Scalar) else field.reduce(gamma)
    out: Counter = Counter()
    for y in vals:
        for x in vals:
            out[field.sub(y, field.mul(g, x))] += 1
    return out


def quotient_representation(A: Iterable, x0, y0, field: Field) -> Tuple[Counter, int]:
    """r_{(A-y0)/(A-x0)}(beta) over pairs with both shifted entries nonzero.

    Returns the counter and the number of pairs dropped for a zero entry.
    """
    vals = [a.value if isinstance(a, Scalar) else field.reduce(a) for a in A]
    xv = x0.value if isinstance(x0, Scalar) else field.reduce(x0)
    yv = y0.value if isinstance(y0, Scalar) else field.reduce(y0)
    num = [field.sub(v, yv) for v in vals]
    den = [field.sub(v, xv) for v in vals]
    num = [v for v in num if v != 0]
    den = [v for v in den if v != 0]
    dropped = 2 * len(vals) - len(num) - len(den)
    out: Counter = Counter()
    for u in num:
        for w in den:
            out[field.div(u, w)] += 1
    return out, dropped


@dataclass
class ChainCheck:
    """One exact Cauchy-Schwarz chain: every link is an integer inequality."""

    sum_over_B: int
    size_B: int
    sum_sq_over_B: int
    mixed_energy: int
    energy_bound: int  # |B| * E+ for the parallel chain; E^x * E^x for the pencil chain
    links_hold: bool


@dataclass
class RichLineReport:
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
    measured_ratios: Dict[str, Fraction] = dc_field(default_factory=dict)


def structure_report(inst: GridInstance) -> RichLineReport:
    """RichLineReport for the square grid A x A with exact chain assertions.

    The parallel-family chain (sum_B r)^2 <= |B| * E+(A) is asserted link by
    link; the pencil chain (sum_B r)^4 <= |B|^2 E^x(A-x0) E^x(A-y0) likewise.
    Link 1 of the pencil chain (threshold*|B| <= sum_B r) is recorded but not
    asserted: the pencil point may itself lie in A x A and absorb one
    incidence per line.
    """
    if inst.S != inst.T:
        raise ValueError("structure_report expects the square grid S = T = A")
    field = inst.field
    n = len(inst.S)
    per_line, total = grid_incidences(inst)
    thresh = rich_threshold(inst)
    rich = AffineSet(field, (l for l, c in per_line.items() if c >= thresh))
    k_rich = len(rich)

    e_plus = scalar_energy_add([Scalar(field, v) for v in inst.S])

    family = max_parallel_family(rich)
    parallel_chain = None
    if family.slope is not None and family.size:
        reps = difference_representation([Scalar(field, v) for v in inst.S], family.slope, field)
        B = [b.value for b in family.intercepts]
        sum_b = sum(reps.get(b, 0) for b in B)
        sum_sq = sum(reps.get(b, 0) ** 2 for b in B)
        mixed = sum(r * r for r in reps.values())
        links = (
            thresh * len(B) <= sum_b
            and sum_b * sum_b <= len(B) * sum_sq
            and sum_sq <= mixed
            and mixed <= e_plus
        )
        if not links:
            raise InvariantViolation("parallel-family Cauchy-Schwarz chain violated")
        parallel_chain = ChainCheck(
            sum_over_B=sum_b,
            size_B=len(B),
            sum_sq_over_B=sum_sq,
            mixed_energy=mixed,
            energy_bound=len(B) * e_plus,
            links_hold=links,
        )

    pencil = None
    pencil_chain = None
    link1 = None
    e_mul_x0 = e_mul_y0 = None
    dropped_x0 = dropped_y0 = 0
    if k_rich >= 2:
        pencil = max_concurrent_pencil(rich)
        if pencil.point is not None:
            x0, y0 = pencil.point
            A_scalars = [Scalar(field, v) for v in inst.S]
            e_mul_x0 = scalar_energy_mul(A_scalars, x0)
            e_mul_y0 = scalar_energy_mul(A_scalars, y0)
            _, dropped_x0 = shifted_nonzero(A_scalars, x0)
            _, dropped_y0 = shifted_nonzero(A_scalars, y0)
            reps, _ = quotient_representation(A_scalars, x0, y0, field)
            B = [s.value for s in pencil.slopes]
            sum_b = sum(reps.get(b, 0) for b in B)
            sum_sq = sum(reps.get(b, 0) ** 2 for b in B)
            mixed = sum(r * r for r in reps.values())
            link1 = thresh * len(B) <= sum_b
            links = (
                sum_b * sum_b <= len(B) * sum_sq
                and sum_sq <= mixed
                and mixed * mixed <= e_mul_x0 * e_mul_y0
            )
            if not links:
                raise InvariantViolation("pencil Cauchy-Schwarz chain violated")
            pencil_chain = ChainCheck(
                sum_over_B=sum_b,
                size_B=len(B),
                sum_sq_over_B=sum_sq,
                mixed_energy=mixed,
                energy_bound=e_mul_x0 * e_mul_y0,
                links_hold=links,
            )

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


@dataclass
class ElekesReport:
    incidence_count: int
    energy: int
    n_lines: int
    s_size: int
    t_size: int
    characteristic: int
    rhs: Fraction
    ratio: Fraction


def elekes_incidence_bound_check(S: Iterable, T: Iterable, A: AffineSet, field: Field) -> ElekesReport:
    """I(S x T, A) against the two-term incidence bound, exactly floored.

    Characteristic 0: rhs = floor((|T|^3 |S|^4 E |A|^2)^{1/6}) + floor(sqrt(|T| |A|^2)).
    Characteristic p: rhs = floor((|T|^4 |S|^5 E |A|^4)^{1/8})
                          + sqrt_floor(|T| |A|^2 max(1, |S|^2/p)).
    """
    sv = {field.reduce(s.value if isinstance(s, Scalar) else s) for s in S}
    tv = {field.reduce(t.value if isinstance(t, Scalar) else t) for t in T}
    count = 0
    for line in A:
        a, b = line.key()
        count += sum(1 for s in sv if field.add(field.mul(a, s), b) in tv)
    E = energy(A)
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
