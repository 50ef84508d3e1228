"""Energy quantities of affine sets and their slice decomposition.

E(A) counts quadruples (g,h,u,v) in A^4 with g^{-1} o h = u^{-1} o v; E*(A)
counts g o h = u o v.  The fast paths key the raw (a, b) values of all pairs
g^{-1} o h by one int each (see _blocks); Scalar and AffineMap appear only at
the API edge.  One reader, _tally, counts those keys in one Counter.  It
serves E and |A^{-1}A| (quotient_stats), E* and |AA| (the product pass, the
reader over the raw inverses (1/x, -b/x) x A), E(A,B) (energy,
energy_asym), the E(A_P) term of plane.quadrangles, the scalar energies E+
and E^x (E of the translations x -> x + s and of the dilations x -> w*x) and
every energy of the rich-line chains in richlines.structure_report.  For
Q_C, quotient_stats keeps the key list of each row from that one tally and
reads again only the rows that meet a bucket other than the identity's with
two pairs or more (see _slice_table); its per-C table, PerC, holds the set's
_SetTable, which the job's later passes read from it.

The brute-force oracles compute every pair value g^{-1} o h (or g o h) as
a flat key, the map's coordinates as ints (reduced int tuples over Q), by
the group law of affine (affine.pair_keys), which no fast path calls, and
count the quadruples whose pair values are equal, finding partners by hash
lookup rather than by a scan: E and E* tally the |A|^2 keys in one Counter
(O(|A|^2)); the Q_C oracle buckets them and counts each bucket's pairs of
pairs under their slopes (O(|A|^2 + E(A)), E(A) <= |A|^3), then sums those
counts per C through a table of slope products held as ints, building a
Fraction only per distinct C.

The C-decomposition splits E(A) by the invariant C = g1*v1 (= h1*u1 for every
energy quadruple); slices C_C = {(g,v) : g1*v1 = C} carry the identities
sum_C |C_C| = |A|^2 and |C_C| <= m|A|.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from math import gcd, isqrt
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

from .affine import AffineSet, max_on_line, pair_keys, reduced
from .errors import OracleCapExceeded, ZeroC
from .exactmath import ratio, sqrt_floor_fraction
from .fields import Field, Frozen, Scalar, cleared

ORACLE_CAP_DEFAULT = 64


def _slope_classes(pairs) -> list:
    """Raw (a, b) pairs grouped by slope: [(a, [b, ...]), ...]."""
    classes: dict = defaultdict(list)
    for a, b in pairs:
        classes[a].append(b)
    return list(classes.items())


def _pair_ids(char: int, xs: list, ys: list) -> Tuple[list, list]:
    """Ids of x*y for every x in xs and y in ys.

    Returns the id grid, grid[i][j] for (xs[i], ys[j]), an int64 array per
    row (no int object per cell), and the distinct values in id order.  Over
    F_p the values are residues (field.mul).  Over Q they are reduced int
    pairs (numerator, denominator > 0): a product is reduced by one gcd, and
    no Fraction is built.
    """
    ids: dict = {}
    if char:
        return [array("q", [ids.setdefault(x * y % char, len(ids)) for y in ys]) for x in xs], list(ids)
    xs = [(x.numerator, x.denominator) for x in xs]
    ys = [(y.numerator, y.denominator) for y in ys]
    grid = []
    for xn, xd in xs:
        row = []
        for yn, yd in ys:
            n, d = xn * yn, xd * yd
            g = gcd(n, d)
            row.append(ids.setdefault((n // g, d // g), len(ids)))
        grid.append(array("q", row))
    return grid, list(ids)


def _sorted_values(char: int, values: list) -> list:
    """(id, raw value) for the values of _pair_ids, in field.sort_key order.

    Over Q each reduced pair (n, d) becomes one Fraction, and the order is
    that of the values cleared at one scale, exact ints.
    """
    if char:
        return sorted(enumerate(values), key=itemgetter(1))
    fracs = [Fraction(*v) for v in values]
    ints, _ = cleared(char, fracs)
    return [(c, fracs[c]) for c in sorted(range(len(values)), key=ints.__getitem__)]


class _SetTable:
    """A's slope classes, their slopes x, the 1/x of each and m (the largest
    class size), read by every pass of a job on A; built when first read, the
    C grid c_of of _pair_ids over x_i*x_j and its (id, raw C) list, `order`."""

    def __init__(self, A: AffineSet):
        self.field, self.char = A.field, A.field.characteristic
        self.classes = _slope_classes(g.key() for g in A)
        self.slopes = [x for x, _ in self.classes]
        self.inverses = list(map(A.field.inv, self.slopes))
        self.m = max((len(bs) for _, bs in self.classes), default=0)

    @cached_property
    def _c_ids(self) -> Tuple[list, list]:
        return _pair_ids(self.char, self.slopes, self.slopes)

    @property
    def c_of(self) -> list:
        return self._c_ids[0]

    @cached_property
    def order(self) -> list:
        return _sorted_values(self.char, self._c_ids[1])


def _blocks(p: int, rows: list, inverses: list, cols: list, alphas: Optional[list] = None):
    """The prologue of the pair reader of t = g^{-1} o h over G x H, from
    the slope classes rows of G and cols of H and the 1/x of each row.

    The raw (a, b) pairs fall in blocks, one per slope class x of G and y of
    H.  On a block the slope y/x of t is fixed and gets one id alpha below
    K = |rows|*|cols|: the id grid of _pair_ids over 1/x and y, built here
    unless given.  The intercept (b_h - b_g)/x becomes the exact int
    beta = (b_h - b_g)*s through the scale s of its row: 1/x over F_p; over
    Q the 1/x of all rows cleared at one scale, as are the intercepts of G
    and H, since keys are compared across blocks.  The key of t is
    beta*K + alpha mod P*K, which is (beta mod P)*K + alpha: P = p over F_p,
    and over Q any P above twice the largest |beta|, so the key names t one
    to one over both fields and the reader never branches on the field.

    Returns the rows with their intercepts cleared, the intercepts of H in
    class order with the class index of each, the scales s*K, the alpha grid
    and the modulus P*K.
    """
    hs = [b for _, bs in cols for b in bs]
    js = [j for j, (_, bs) in enumerate(cols) for _ in bs]
    if p:
        scales, P = inverses, p
    else:
        scales, _ = cleared(p, inverses)
        ints, _ = cleared(p, [b for _, bs in rows for b in bs] + hs)
        it = iter(ints)
        rows = [(x, list(islice(it, len(bs)))) for x, bs in rows]
        hs = list(it)
        P = 4 * max(map(abs, scales), default=0) * max(map(abs, ints), default=0) + 1
    if alphas is None:
        alphas = _pair_ids(p, inverses, [y for y, _ in cols])[0]
    K = len(rows) * len(cols)
    return rows, hs, js, [s * K for s in scales], alphas, P * K


def _tally(rows, hs, js, scales, ids, m, keys: Optional[list] = None) -> Counter:
    """The reader: the keys of a _blocks prologue, with `ids` in place of its
    alpha grid, counted in one Counter at C speed, one row of blocks per
    update.  With the alpha grid the counts are the bucket sizes r(t); with
    the block index i*|cols| + j, also below K, a key names (t, block).  Each
    row's key list is appended to `keys` when one is given."""
    sizes: Counter = Counter()
    for (_, gs), s, row in zip(rows, scales, ids):
        ih = list(map(row.__getitem__, js))
        row_keys = [((bh - bg) * s + a) % m for bg in gs for bh, a in zip(hs, ih)]
        sizes.update(row_keys)
        if keys is not None:
            keys.append(row_keys)
    return sizes


def _pair_sizes(field: Field, G: list, H: list) -> Counter:
    """r(t) for every t = g^{-1} o h over G x H, raw (a, b) lists (H is G: classed once)."""
    rows = _slope_classes(G)
    cols = rows if H is G else _slope_classes(H)
    return _tally(*_blocks(field.characteristic, rows, [field.inv(x) for x, _ in rows], cols))


def _product_pass(table: _SetTable) -> Counter:
    """Bucket sizes of g o h over A x A: the reader over A^{-1} x A.  Its rows
    (1/x, [-b/x, ...]) have the row inverses x, so its alpha grid is the C grid."""
    field = table.field
    rows = [(s, [field.neg(field.mul(b, s)) for b in bs]) for s, (_, bs) in zip(table.inverses, table.classes)]
    return _tally(*_blocks(table.char, rows, table.slopes, table.classes, table.c_of))


def _energy(sizes) -> int:
    """sum_t r(t)^2 over the bucket sizes r(t)."""
    sizes = list(sizes)
    return sum(map(operator.mul, sizes, sizes))


def _slice_table(table: _SetTable, alphas: list, sizes: Counter, keys: list) -> Tuple[list, list, list]:
    """|C_C| and Q_C for every realized C = x*y, from the set's table, the
    alpha grid of the _blocks prologue of A x A, its bucket sizes r(t) and
    the key list of each row from _tally: the table's (id, raw C) list
    `order`, in canonical order, and the two counts indexed by id.

    |C_C| = sum_{xy=C} cnt(x)*cnt(y) over the slope histogram.  A quadruple
    ((g,h),(u,v)) of bucket t has C = g1*v1, the row class of the block of
    (g,h) times the column class of that of (u,v).  Two groups of quadruples
    number |C_C| each: the diagonal ones ((g,h),(g,h)), and those
    ((g,g),(u,u)) of the identity bucket, all n pairs (g,g), whose key is
    beta = 0 plus the id of slope 1, alphas[0][0].  The groups share the
    sq(C) = #{g : g1^2 = C} quadruples ((g,g),(g,g)).  So
    Q_C = 2|C_C| - sq(C) + R_C, where R_C counts the off-diagonal quadruples
    of the other buckets with r(t) >= 2, the shared ones.

    Rows that meet no shared bucket are skipped.  In the others, one Counter
    of the row gives r(t, b) for each shared t, and the column class j of
    its block b is the one with slope id t mod K in that row.  A block with
    r(t, b) = r(t) fills its bucket and adds r^2 - r to its own C; only the
    buckets spread over several blocks are grouped.
    """
    rows, c_of = table.classes, table.c_of  # A x A: the column classes are the row classes
    order, K = table.order, len(rows) ** 2
    counts = [0] * len(order)
    for (_, gs), row in zip(rows, c_of):
        for (_, vs), c in zip(rows, row):
            counts[c] += len(gs) * len(vs)
    qs = [2 * count for count in counts]
    for i, ((_, gs), row) in enumerate(zip(rows, c_of)):
        qs[row[i]] -= len(gs)
    shared = set(compress(sizes, map((1).__lt__, sizes.values())))
    shared.discard(alphas[0][0] if alphas else None)
    grouped: dict = defaultdict(list)
    for row_keys, row, c_row in zip(keys, alphas, c_of):
        hits = shared.intersection(row_keys)
        if hits:
            r_row = Counter(row_keys)
            for t in hits:
                r, j = r_row[t], row.index(t % K)
                if sizes[t] == r:
                    qs[c_row[j]] += r * r - r
                else:
                    qs[c_row[j]] -= r
                    grouped[t].append((c_row, j, r))
    for blocks in grouped.values():
        for c_row, _, r1 in blocks:
            for _, j, r2 in blocks:
                qs[c_row[j]] += r1 * r2
    return order, counts, qs


class PerC(Mapping):
    """C -> (|C_C|, Q_C) for every realized C of a set, in canonical order:
    the (order, counts, qs) of _slice_table beside the set's _SetTable,
    `table`, which later passes read; empty when the decomposition is skipped.
    rows() gives the raw (C, |C_C|, Q_C).  As a mapping its keys are Scalars
    of the table's field, built when read; any other key is absent."""

    def __init__(self, table: _SetTable, order=(), counts=(), qs=()):
        self.table, self.order, self.counts, self.qs = table, order, counts, qs

    def rows(self):
        return ((v, self.counts[c], self.qs[c]) for c, v in self.order)

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return (Scalar(self.table.field, v) for _, v in self.order)

    def __getitem__(self, C):
        c = self._ids.get(C.value) if type(C) is Scalar and C.field == self.table.field else None
        if c is None:
            raise KeyError(C)
        return self.counts[c], self.qs[c]

    @cached_property
    def _ids(self) -> dict:
        return {v: c for c, v in self.order}

    def __repr__(self):
        return f"PerC({dict(self)!r})"


def quotient_stats(A: AffineSet, include_decomposition: bool = True) -> Tuple[int, int, PerC]:
    """E(A), |A^{-1}A| and, unless skipped, C -> (|C_C|, Q_C), whose table
    is A's _SetTable."""
    table = _SetTable(A)
    prologue = _blocks(table.char, table.classes, table.inverses, table.classes)
    keys: Optional[list] = [] if include_decomposition else None
    sizes = _tally(*prologue, keys)
    per_c = PerC(table, *_slice_table(table, prologue[4], sizes, keys) if include_decomposition else ())
    return _energy(sizes.values()), len(sizes), per_c


def energy(A: AffineSet) -> int:
    """E(A) = E(A, A) = sum_t r(t)^2 over the quotient buckets, A classed once."""
    keys = [g.key() for g in A]
    return _pair_energy(A.field, keys, keys)


def energy_star(A: AffineSet) -> int:
    """E*(A), the product-bucket analogue."""
    return _energy(_product_pass(_SetTable(A)).values())


def energy_asym(A: AffineSet, B: AffineSet) -> int:
    """E(A,B) with g,u in A and h,v in B."""
    if A.field != B.field:
        raise ValueError("energy of sets over different fields")
    return _pair_energy(A.field, [g.key() for g in A], [h.key() for h in B])


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
    return sum(r * r for r in Counter(pair_keys(A, A, mode == "E")).values())


def energy_asym_bruteforce(A: AffineSet, B: AffineSet, cap: int = ORACLE_CAP_DEFAULT) -> int:
    if len(A) > cap or len(B) > cap:
        raise OracleCapExceeded(f"|A| = {len(A)}, |B| = {len(B)} above oracle cap {cap}")
    return sum(r * r for r in Counter(pair_keys(A, B, True)).values())


class CSlice(Frozen):
    """C_C = {(g,v) in A x A : g1*v1 = C} for a nonzero C."""

    __slots__ = ("C", "pairs")  # a Scalar, a frozenset of (AffineMap, AffineMap)

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
    return {Scalar(A.field, v): q for v, _, q in quotient_stats(A)[2].rows()}


def decompose_bruteforce(A: AffineSet, cap: int = ORACLE_CAP_DEFAULT) -> Dict[Scalar, int]:
    """Oracle for decompose_by_C, in O(|A|^2 + E(A)).

    The |A|^2 pair values g^{-1} o h are bucketed, and every pair of pairs
    ((g,h),(u,v)) of one bucket is counted under the slope indices of g and
    v, one Counter update per bucket (all one-pair buckets in one update);
    each slope pair then maps to the id of its C = g1*v1 through a table of
    the products of the distinct slopes, residues over F_p and over Q int
    pairs reduced by one gcd, and the tally is summed per C id; one Fraction
    is built per distinct C.
    """
    if len(A) > cap:
        raise OracleCapExceeded(f"|A| = {len(A)} above oracle cap {cap}")
    field = A.field
    sid: dict = {}
    ids = [sid.setdefault(g.a.value, len(sid)) for g in A]
    xs, k = list(sid), len(sid)
    buckets: dict = defaultdict(list)
    for t, b in zip(pair_keys(A, A, True), [i * k + j for i in ids for j in ids]):
        buckets[t].append(b)  # b = i*k + j: the slope indices of g and h
    tally: Counter = Counter([bs[0] for bs in buckets.values() if len(bs) == 1])
    for bs in buckets.values():
        if len(bs) > 1:
            cols = [b % k for b in bs]
            rows = [b - j for b, j in zip(bs, cols)]
            tally.update([i + j for i in rows for j in cols])  # slope of g, slope of v
    p = field.characteristic
    if p:
        cs = [x * y % p for x in xs for y in xs]
    else:
        flat = [(x.numerator, x.denominator) for x in xs]
        cs = [reduced(xn * yn, xd * yd) for xn, xd in flat for yn, yd in flat]
    cid: dict = {}  # C -> its id; over Q C is a reduced int pair
    c_of = [cid.setdefault(c, len(cid)) for c in cs]
    per_c = [0] * len(cid)
    for b, q in tally.items():
        per_c[c_of[b]] += q
    values = list(cid) if p else [Fraction(*c) for c in cid]
    return {Scalar(field, v): q for v, q in sorted(zip(values, per_c), key=lambda vq: field.sort_key(vq[0]))}


def _pair_energy(field: Field, G: list, H: list) -> int:
    """E(G,H) = sum_t r(t)^2 over t = g^{-1} o h, G and H raw (a, b) lists."""
    return _energy(_pair_sizes(field, G, H).values())


def _translations(field: Field, xs) -> list:
    """The raw maps x -> x + s; g^{-1} o h = (1, s_h - s_g), so E is E+."""
    return [(field.reduce(1), s) for s in xs]


def _dilations(field: Field, xs) -> list:
    """The raw maps x -> w*x, w != 0; g^{-1} o h = (w_h/w_g, 0), so E is E^x."""
    return [(w, field.reduce(0)) for w in xs]


def scalar_energy_add(S) -> int:
    """E+(S) = #{(a,b,c,d) in S^4 : a+b = c+d} for Scalars S of one field."""
    S = list(S)
    if not S:
        return 0
    G = _translations(S[0].field, [s.value for s in S])
    return _pair_energy(S[0].field, G, G)


def scalar_energy_mul(S, shift: Optional[Scalar] = None) -> int:
    """E^x of {x - shift : x in S, x != shift} for Scalars S of one field;
    zero factors are dropped.

    Use shifted_nonzero to recover how many elements the shift removed.
    """
    S = list(S)
    if not S:
        return 0
    G = _dilations(S[0].field, shifted_nonzero(S, shift)[0])
    return _pair_energy(S[0].field, G, G)


def shifted_nonzero(S, shift: Optional[Scalar] = None) -> Tuple[list, int]:
    """Raw values of {x - shift} for the Scalars x of S with zeros removed,
    plus the dropped count."""
    raw = [s.value for s in S]
    if shift is not None:
        raw = [shift.field.sub(x, shift.value) for x in raw]
    kept = [x for x in raw if x != 0]
    return kept, len(raw) - len(kept)


class SliceIdentities(NamedTuple):
    """The slice identities of a C -> (|C_C|, Q_C) table, in decompose-report order."""

    sum_q: int
    sum_slices: int
    decomposition_identity_ok: bool  # sum_C Q_C = E
    slice_l1_ok: bool  # sum_C |C_C| = |A|^2
    slice_linf_ok: bool  # |C_C| <= m|A|

    @property
    def hold(self) -> bool:
        return self.decomposition_identity_ok and self.slice_l1_ok and self.slice_linf_ok


def slice_identities(per_c: PerC, E: int, n: int) -> SliceIdentities:
    """The identities of the per-C table of a set of n maps with energy E,
    m read from its table."""
    m = per_c.table.m
    sizes = [s for _, s, _ in per_c.rows()]
    sum_q, sum_slices = sum(q for _, _, q in per_c.rows()), sum(sizes)
    return SliceIdentities(sum_q, sum_slices, sum_q == E, sum_slices == n * n, all(s <= m * n for s in sizes))


class EnergyReport(NamedTuple):
    """Everything main_bound_report computes for one affine set, in the
    energy report's order."""

    size: int
    m: int
    M: int
    E: int
    E_star: int
    size_AA: int
    size_AinvA: int
    ratio_main: Fraction  # max{E,E*} / (isqrt(m|A|^5) + M|A|^2)
    ratio_growth: Fraction  # min{|AA|,|AinvA|} / (sqrt_floor(|A|^3/m) + |A|^2/M)
    cs_quotient_ok: bool  # E * |AinvA| >= |A|^4
    cs_product_ok: bool  # E* * |AA| >= |A|^4
    shkredov_ok: bool  # E* <= E
    p_constraint_ok: Optional[bool]  # m|A| <= p^2, None over Q
    pp_correction: Optional[Fraction]  # m|A|^3 / p, None over Q
    per_c: PerC  # C -> (|C_C|, Q_C)

    def identities_hold(self) -> bool:
        """The three inequalities, and the slice identities if per_c was computed."""
        slices_ok = not self.per_c or slice_identities(self.per_c, self.E, self.size).hold
        return slices_ok and self.shkredov_ok and self.cs_quotient_ok and self.cs_product_ok


def main_bound_report(A: AffineSet, include_decomposition: bool = True) -> EnergyReport:
    """Exact statistics plus bound ratios for the main energy inequalities.

    ratio_main tracks max{E,E*} against m^{1/2}|A|^{5/2} + M|A|^2 (the sqrt
    term floored by isqrt, see exactmath); ratio_growth tracks
    min{|AA|,|A^{-1}A|} against m^{-1/2}|A|^{3/2} + M^{-1}|A|^2.  The
    product pass and m read the table of per_c.
    """
    n = len(A)
    M = max_on_line(A)
    E, AinvA, per_c = quotient_stats(A, include_decomposition)
    m, char, products = per_c.table.m, per_c.table.char, _product_pass(per_c.table)
    E_star, AA = _energy(products.values()), len(products)

    rhs_main = isqrt(m * n**5) + M * n * n
    ratio_main = ratio(max(E, E_star), rhs_main)
    rhs_growth = sqrt_floor_fraction(Fraction(n**3, m)) + Fraction(n * n, M) if n else Fraction(1)
    ratio_growth = ratio(min(AA, AinvA), rhs_growth)

    return EnergyReport(
        size=n,
        m=m,
        M=M,
        E=E,
        E_star=E_star,
        size_AA=AA,
        size_AinvA=AinvA,
        ratio_main=ratio_main,
        ratio_growth=ratio_growth,
        cs_quotient_ok=E * AinvA >= n**4,
        cs_product_ok=E_star * AA >= n**4,
        shkredov_ok=E_star <= E,
        p_constraint_ok=m * n <= char * char if char else None,
        pp_correction=Fraction(m * n**3, char) if char else None,
        per_c=per_c,
    )
