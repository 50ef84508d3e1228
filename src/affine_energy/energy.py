"""Energy quantities of affine sets and their slice decomposition.

E(A) counts quadruples (g,h,u,v) in A^4 with g^{-1} o h = u^{-1} o v; E*(A)
counts g o h = u o v.  The fast paths bucket raw (a, b) keys of all |A|^2
pairs in one quotient pass and one product pass; Scalar and AffineMap appear
only at the API edge.

The brute-force oracles compute every pair value g^{-1} o h (or g o h)
through quotient/compose, which the fast paths never call, and count the
quadruples whose two pair values are equal.  They find the partner pairs by
hash lookup on those values rather than by a linear scan: E and E* tally the
|A|^2 values in one Counter (O(|A|^2)), and the Q_C oracle checks the
relation per triple (g, v, u) against one Counter of g's row (O(|A|^3)).

The C-decomposition splits E(A) by the invariant C = g1*v1 (= h1*u1 for every
energy quadruple); slices C_C = {(g,v) : g1*v1 = C} carry the identities
sum_C |C_C| = |A|^2 and |C_C| <= m|A|.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, Optional, Tuple

from .affine import AffineSet, compose, inverse, max_on_line, max_on_vertical, quotient
from .errors import OracleCapExceeded, ZeroC
from .exactmath import ratio, sqrt_floor_fraction
from .fields import Field, Scalar

ORACLE_CAP_DEFAULT = 64


def _slope_classes(pairs) -> list:
    """Raw (a, b) pairs grouped by slope: [(a, [b, ...]), ...]."""
    classes: dict = defaultdict(list)
    for a, b in pairs:
        classes[a].append(b)
    return list(classes.items())


def _quotient_pass(field: Field, G: list, H: list):
    """Buckets of t = g^{-1} o h over the raw (a, b) pairs G x H.

    The pairs are walked in blocks, one per slope class x of G and y of H.
    The slope y/x of t is fixed on a block and gets one id.  The intercept
    (b_h - b_g)/x becomes an exact integer key through a per-class factor:
    1/x mod p over F_p; over Q, with intercepts cleared by their common
    denominator, L/x for L the lcm of the slope numerators.  Each bucket
    tallies its pairs by block (i, j).

    Returns the slope classes of G and {t key: {(i, j): count}}.
    """
    p = field.characteristic
    if not p:
        D = lcm(*(b.denominator for _, b in G + H))
        G, H = ([(a, b.numerator * (D // b.denominator)) for a, b in pairs] for pairs in (G, H))
    rows, cols = _slope_classes(G), _slope_classes(H)
    inverses = [field.inv(x) for x, _ in rows]
    if p:
        scales = inverses
    else:
        L = lcm(*(x.numerator for x, _ in rows))
        scales = [L * x.denominator // x.numerator for x, _ in rows]
    buckets: dict = {}
    alpha_ids: dict = {}
    for i, ((_, gs), ix, s) in enumerate(zip(rows, inverses, scales)):
        for j, (y, hs) in enumerate(cols):
            block = (i, j)
            alpha = alpha_ids.setdefault(field.mul(ix, y), len(alpha_ids))
            for bg in gs:
                for bh in hs:
                    beta = (bh - bg) * s
                    key = (alpha, beta % p if p else beta)
                    tally = buckets.get(key)
                    if tally is None:
                        buckets[key] = {block: 1}
                    else:
                        tally[block] = tally.get(block, 0) + 1
    return rows, buckets


def _product_pass(A: AffineSet) -> dict:
    """Buckets of g o h over A x A: the quotient pass over A^{-1} x A."""
    inverted = [(h.a.value, h.b.value) for h in map(inverse, A)]
    return _quotient_pass(A.field, inverted, [g.key() for g in A])[1]


def _energy(buckets: dict) -> int:
    """sum_t r(t)^2, r(t) being a bucket's pair count."""
    return sum(sum(tally.values()) ** 2 for tally in buckets.values())


def _slice_table(field: Field, classes: list, buckets: dict) -> Dict[Scalar, Tuple[int, int]]:
    """C -> (|C_C|, Q_C) for every realized C = x*y, in canonical order.

    |C_C| = sum_{xy=C} cnt(x)*cnt(y) over the slope histogram.  A quadruple
    ((g,h),(u,v)) of one bucket has C = g1*v1, so Q_C pairs the g-slope
    class of each block of the bucket with the h-slope class of each.
    """
    c_ids: dict = {}
    c_of = [[c_ids.setdefault(field.mul(x, y), len(c_ids)) for y, _ in classes] for x, _ in classes]
    sizes = [0] * len(c_ids)
    qs = [0] * len(c_ids)
    for (_, gs), row in zip(classes, c_of):
        for (_, vs), c in zip(classes, row):
            sizes[c] += len(gs) * len(vs)
    for tally in buckets.values():
        for (i, _), n1 in tally.items():
            row = c_of[i]
            for (_, j), n2 in tally.items():
                qs[row[j]] += n1 * n2
    return {Scalar(field, v): (sizes[c_ids[v]], qs[c_ids[v]]) for v in sorted(c_ids, key=field.sort_key)}


def quotient_stats(A: AffineSet, include_decomposition: bool = True) -> Tuple[int, int, Dict[Scalar, Tuple[int, int]]]:
    """E(A), |A^{-1}A| and, unless skipped, C -> (|C_C|, Q_C), from one
    quotient pass."""
    raw = [g.key() for g in A]
    classes, buckets = _quotient_pass(A.field, raw, raw)
    per_c = _slice_table(A.field, classes, buckets) if include_decomposition else {}
    return _energy(buckets), len(buckets), per_c


def energy(A: AffineSet) -> int:
    """E(A) = sum_t r(t)^2 over the quotient buckets."""
    return quotient_stats(A, include_decomposition=False)[0]


def energy_star(A: AffineSet) -> int:
    """E*(A), the product-bucket analogue."""
    return _energy(_product_pass(A))


def energy_asym(A: AffineSet, B: AffineSet) -> int:
    """E(A,B) with g,u in A and h,v in B."""
    if A.field != B.field:
        raise ValueError("energy of sets over different fields")
    return _energy(_quotient_pass(A.field, [g.key() for g in A], [h.key() for h in B])[1])


def _flat_key(pair_key, char: int):
    """Int-tuple form of a raw (a, b) key; Fraction hashing and equality run
    in Python, int tuples at C speed in the oracles' lookups."""
    if char:
        return pair_key
    a, b = pair_key
    return (a.numerator, a.denominator, b.numerator, b.denominator)


def _pair_keys(A: AffineSet, B: AffineSet, mode: str) -> list:
    op = quotient if mode == "E" else compose
    char = A.field.characteristic
    return [_flat_key(op(g, h).key(), char) for g in A for h in B]


def energy_bruteforce(A: AffineSet, mode: str = "E", cap: int = ORACLE_CAP_DEFAULT) -> int:
    """Independent oracle for energy/energy_star, in O(|A|^2).

    The pair value of every (g,h) comes from quotient (E) or compose (E*);
    the quadruples (g,h,u,v) with equal pair values number sum_t r(t)^2 over
    the tally r of those values, which one Counter gives by hash lookup.
    """
    if mode not in ("E", "Estar"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(A) > cap:
        raise OracleCapExceeded(f"|A| = {len(A)} above oracle cap {cap}")
    return sum(r * r for r in Counter(_pair_keys(A, A, mode)).values())


def energy_asym_bruteforce(A: AffineSet, B: AffineSet, cap: int = ORACLE_CAP_DEFAULT) -> int:
    if len(A) > cap or len(B) > cap:
        raise OracleCapExceeded(f"|A| = {len(A)}, |B| = {len(B)} above oracle cap {cap}")
    return sum(r * r for r in Counter(_pair_keys(A, B, "E")).values())


@dataclass(frozen=True)
class CSlice:
    """C_C = {(g,v) in A x A : g1*v1 = C} for a nonzero C."""

    C: Scalar
    pairs: frozenset  # of (AffineMap, AffineMap)

    def __len__(self):
        return len(self.pairs)


def c_slice(A: AffineSet, C: Scalar) -> CSlice:
    """The slice set; raises ZeroC on C = 0."""
    if not C:
        raise ZeroC("slice parameter C must be nonzero")
    by_slope = dict(_slope_classes((g.a.value, g) for g in A))
    pairs = [(g, v) for x, gs in by_slope.items() for v in by_slope.get(A.field.div(C.value, x), ()) for g in gs]
    return CSlice(C, frozenset(pairs))


def decompose_by_C(A: AffineSet) -> Dict[Scalar, int]:
    """Q_C per realized C: energy quadruples with g1*v1 = C (= h1*u1).

    sum_C Q_C = E(A) exactly.
    """
    return {C: q for C, (_, q) in quotient_stats(A)[2].items()}


def decompose_bruteforce(A: AffineSet, cap: int = ORACLE_CAP_DEFAULT) -> Dict[Scalar, int]:
    """Oracle for decompose_by_C, in O(|A|^3).

    For every triple (g, v, u), with C = g1*v1, it counts the h whose pair
    value quotient(g, h) equals quotient(u, v): each row g is tallied once in
    a Counter, and the h are found by hash lookup instead of a scan of the row.
    """
    if len(A) > cap:
        raise OracleCapExceeded(f"|A| = {len(A)} above oracle cap {cap}")
    field = A.field
    char = field.characteristic
    elems = list(A)
    n = len(elems)
    qkey = [[_flat_key(quotient(g, h).key(), char) for h in elems] for g in elems]
    cval = [[field.mul(g.a.value, v.a.value) for v in elems] for g in elems]
    cols = list(zip(*qkey))  # cols[v][u] = qkey[u][v]
    zeros = [0] * n
    tally: Counter = Counter()
    for gi in range(n):
        count_h = Counter(qkey[gi]).get
        crow = cval[gi]
        for vi in range(n):
            hits = sum(map(count_h, cols[vi], zeros))  # sum over u of #{h : qkey[g][h] = qkey[u][v]}
            if hits:
                tally[crow[vi]] += hits
    return {Scalar(field, v): q for v, q in sorted(tally.items(), key=lambda kv: field.sort_key(kv[0]))}


def _scalar_op(S, name: str):
    """Field operation `name` of the Scalars in S; plain arithmetic for raw values."""
    fields = {s.field for s in S if isinstance(s, Scalar)}
    return getattr(fields.pop(), name) if fields else getattr(operator, name)


def _table_energy(vals: list, op) -> int:
    """sum_t r(t)^2 for r(t) = #{(x, y) in vals^2 : op(x, y) = t}."""
    return sum(r * r for r in Counter(op(x, y) for x in vals for y in vals).values())


def scalar_energy_add(S) -> int:
    """E+(S) = #{(a,b,c,d) in S^4 : a+b = c+d} via a sum-representation table."""
    return _table_energy([s.value if isinstance(s, Scalar) else s for s in S], _scalar_op(S, "add"))


def scalar_energy_mul(S, shift: Optional[Scalar] = None) -> int:
    """E^x of {x - shift : x in S, x != shift}; zero factors are dropped.

    Use shifted_nonzero to recover how many elements the shift removed.
    """
    return _table_energy(shifted_nonzero(S, shift)[0], _scalar_op(S, "mul"))


def shifted_nonzero(S, shift: Optional[Scalar] = None) -> Tuple[list, int]:
    """Raw values of {x - shift} with zeros removed, plus the dropped count."""
    raw = [s.value if isinstance(s, Scalar) else s for s in S]
    if shift is not None:
        sub = _scalar_op(S, "sub")
        raw = [sub(x, shift.value) for x in raw]
    kept = [x for x in raw if x != 0]
    return kept, len(raw) - len(kept)


@dataclass
class EnergyReport:
    """Everything main_bound_report computes for one affine set."""

    size: int
    m: int
    M: int
    E: int
    E_star: int
    size_AA: int
    size_AinvA: int
    characteristic: int
    per_c: Dict[Scalar, Tuple[int, int]]  # C -> (|C_C|, Q_C)
    ratio_main: Fraction  # max{E,E*} / (isqrt(m|A|^5) + M|A|^2)
    ratio_growth: Fraction  # min{|AA|,|AinvA|} / (sqrt_floor(|A|^3/m) + |A|^2/M)
    cs_quotient_ok: bool  # E * |AinvA| >= |A|^4
    cs_product_ok: bool  # E* * |AA| >= |A|^4
    shkredov_ok: bool  # E* <= E
    p_constraint_ok: Optional[bool] = None  # m|A| <= p^2, None over Q
    pp_correction: Optional[Fraction] = None  # m|A|^3 / p, None over Q

    def identities_hold(self) -> bool:
        n = self.size
        slice_l1 = sum(s for s, _ in self.per_c.values()) == n * n
        q_sum = sum(q for _, q in self.per_c.values()) == self.E
        linf = all(s <= self.m * n for s, _ in self.per_c.values())
        return slice_l1 and q_sum and linf and self.shkredov_ok and self.cs_quotient_ok and self.cs_product_ok


def main_bound_report(A: AffineSet, include_decomposition: bool = True) -> EnergyReport:
    """Exact statistics plus bound ratios for the main energy inequalities.

    ratio_main tracks max{E,E*} against m^{1/2}|A|^{5/2} + M|A|^2 (the sqrt
    term floored by isqrt, see exactmath); ratio_growth tracks
    min{|AA|,|A^{-1}A|} against m^{-1/2}|A|^{3/2} + M^{-1}|A|^2.
    """
    n = len(A)
    m = max_on_vertical(A)
    M = max_on_line(A)
    E, AinvA, per_c = quotient_stats(A, include_decomposition)
    products = _product_pass(A)
    E_star, AA = _energy(products), len(products)

    rhs_main = isqrt(m * n**5) + M * n * n
    ratio_main = ratio(max(E, E_star), rhs_main)
    rhs_growth = sqrt_floor_fraction(Fraction(n**3, m)) + Fraction(n * n, M) if n else Fraction(1)
    ratio_growth = ratio(min(AA, AinvA), rhs_growth)

    char = A.field.characteristic
    p_ok = None
    correction = None
    if char:
        p_ok = m * n <= char * char
        correction = Fraction(m * n**3, char)

    return EnergyReport(
        size=n,
        m=m,
        M=M,
        E=E,
        E_star=E_star,
        size_AA=AA,
        size_AinvA=AinvA,
        characteristic=char,
        per_c=per_c,
        ratio_main=ratio_main,
        ratio_growth=ratio_growth,
        cs_quotient_ok=E * AinvA >= n**4,
        cs_product_ok=E_star * AA >= n**4,
        shkredov_ok=E_star <= E,
        p_constraint_ok=p_ok,
        pp_correction=correction,
    )
