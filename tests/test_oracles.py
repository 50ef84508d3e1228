"""The brute-force oracles against literal partner scans.

The oracles find the partner pairs of a quadruple by hash lookup, and the
pencil oracle tallies intersections per anchor line.  The helpers below scan
instead, one comparison per quadruple or one rescan of all lines per
intersection, with the same per-quadruple tests; their pair values come from
quotient and compose on AffineMaps, each result flattened to its flat key
(affine.flatten), not from the oracles' pair pass (affine.pair_keys), and
test_affine checks the flat-key law under both against Scalar and Fraction
arithmetic.  On small sets both must give the same results.  The sets
include rich lines, parallel families and collinear quadruples (grids,
GP x AP products, small fields) and Q sets with unlike denominators.

The rich-line chains read their energies off the pair kernel and their
representation counts off the grid count.  The representation tallies and
the energy tally below compute the same numbers in field arithmetic, one
pair of grid values at a time.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from affine_energy import (
    AffineSet,
    GridInstance,
    PlanePoint,
    PrimeField,
    RATIONALS,
    decompose_bruteforce,
    decompose_by_C,
    energy,
    energy_asym_bruteforce,
    energy_bruteforce,
    max_concurrent_pencil,
    pencil_bruteforce,
    quadrangles,
    quadrangles_bruteforce,
    seeded_random,
    structure_report,
)
from affine_energy.affine import compose, flatten, quotient
from affine_energy.energy import _blocks, _pair_energy, _pair_ids, _tally
from affine_energy.fields import Scalar, cleared
from affine_energy.generators import APSpec, AffProductSpec, GPSpec, GridSpec, generate
from affine_energy.plane import _cross, _dot, _quadrangle_setup, _span_pass
from affine_energy.projective import canon_int
from affine_energy.richlines import ChainCheck, Pencil

Q = RATIONALS
FIELDS = [PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(101), Q]


def _map_keys(A, B, op):
    """Flat keys of op(g, h) over A x B, through the AffineMap law."""
    return [flatten(op(g, h)) for g in A for h in B]


def _energy_scan(A, mode="E"):
    keys = _map_keys(A, A, quotient if mode == "E" else compose)
    return sum(keys.count(k) for k in keys)


def _energy_asym_scan(A, B):
    keys = _map_keys(A, B, quotient)
    return sum(keys.count(k) for k in keys)


def _decompose_scan(A):
    field = A.field
    elems = list(A)
    n = len(elems)
    qkey = [[flatten(quotient(g, h)) for h in elems] for g in elems]
    cval = [[field.mul(g.a.value, v.a.value) for v in elems] for g in elems]
    tally: Counter = Counter()
    for gi in range(n):
        row_g = qkey[gi]
        crow = cval[gi]
        for vi in range(n):
            c = crow[vi]
            hits = 0
            for ui in range(n):
                hits += row_g.count(qkey[ui][vi])
            if hits:
                tally[c] += hits
    return {Scalar(field, v): q for v, q in sorted(tally.items(), key=lambda kv: field.sort_key(kv[0]))}


def _quadrangles_scan(P):
    pts, field, char, raws = _quadrangle_setup(P)
    n = len(raws)
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
            dk = canon_int(char, (xj * zi - xi * zj, yj * zi - yi * zj, 0), last=True)
            dir_k[i][j] = dir_ids.setdefault(dk, len(dir_ids))
            line = _cross(raws[i], raws[j])
            mk = canon_int(char, (0, line[2], -line[1]), last=True)
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


def _pencil_scan(lines):
    k = len(lines)
    field = lines.field
    ls = lines.sorted_maps()
    keys = [l.key() for l in ls]
    best = None
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


def _structured_sets():
    """Grids and GP x AP products of at most 14 maps over Q, F_7 and F_11,
    and a Q set with unlike denominators."""
    specs = [
        GridSpec(2),
        GridSpec(3),
        AffProductSpec(GPSpec(1, 2, 3), APSpec(0, 1, 4)),
        AffProductSpec(GPSpec(1, 3, 4), APSpec(0, 2, 3)),
        AffProductSpec(APSpec(1, 1, 2), APSpec(0, 1, 7)),
        AffProductSpec(GPSpec(1, 2, 7), APSpec(0, 1, 2)),
    ]
    sets = [generate(spec, field) for spec in specs for field in (Q, PrimeField(7), PrimeField(11))]
    unlike = [(Fraction(a), Fraction(b)) for a in ("1/2", "-3/5", "7/3", "4") for b in ("0", "2/7", "-5/9")]
    sets.append(AffineSet.from_pairs(Q, unlike))
    return sets


def _random_sets():
    return [seeded_random(n, seed, field, "affine") for field in FIELDS for n, seed in ((2, 1), (6, 2), (11, 3), (14, 4))]


def _as_points(A):
    return {PlanePoint.affine(A.field, g.a.value, g.b.value) for g in A}


def test_energy_oracles_match_scan():
    for A in _random_sets() + _structured_sets():
        assert energy_bruteforce(A, "E") == _energy_scan(A, "E")
        assert energy_bruteforce(A, "Estar") == _energy_scan(A, "Estar")


def test_energy_asym_oracle_matches_scan():
    for field in FIELDS:
        A = seeded_random(9, 5, field, "affine")
        B = seeded_random(13, 6, field, "affine")
        assert energy_asym_bruteforce(A, B) == _energy_asym_scan(A, B)
        assert energy_asym_bruteforce(B, A) == _energy_asym_scan(B, A)
    grid, product = generate(GridSpec(3), Q), generate(AffProductSpec(GPSpec(1, 2, 3), APSpec(0, 1, 4)), Q)
    assert energy_asym_bruteforce(grid, product) == _energy_asym_scan(grid, product)


def test_decompose_oracle_matches_scan():
    for A in _random_sets() + _structured_sets():
        assert decompose_bruteforce(A) == _decompose_scan(A)


def test_decompose_oracle_merges_scaled_slope_pairs():
    """Over Q one C = 1 comes from slope pairs of unlike scale, 2/3 * 3/2 and
    1 * 1, and C = -1 from -1 * 1 and -2/3 * 3/2: the oracle's reduced int
    pairs give each C one row, as the fast path and the scan do."""
    F = Fraction
    pairs = [(F(2, 3), F(-1, 5)), (F(3, 2), F(4)), (F(1), F(-7, 3)), (F(1), F(1, 2)), (F(-1), F(0)), (F(-2, 3), F(5, 6))]
    A = AffineSet.from_pairs(Q, pairs)
    dec = decompose_bruteforce(A)
    assert dec == decompose_by_C(A) == _decompose_scan(A)
    assert list(dec) == sorted(dec, key=lambda C: C.value)
    assert sum(dec.values()) == energy(A)
    for C in (1, -1):
        assert Q.scalar(C) in dec and sum(1 for g in A for v in A if g.a.value * v.a.value == C) >= 4


def test_quadrangles_oracle_matches_scan():
    planar = [seeded_random(n, seed, field, "planar") for field in FIELDS for n, seed in ((4, 7), (9, 8), (14, 9))]
    lines = {PlanePoint.affine(Q, x, 2 * x + 1) for x in range(1, 6)} | {PlanePoint.affine(Q, 3, y) for y in range(4)}
    cases = planar + [_as_points(A) for A in _structured_sets()] + [lines]
    for P in cases:
        assert quadrangles_bruteforce(P) == _quadrangles_scan(P)


def test_oracles_stay_off_the_fast_paths(refuse):
    """No oracle reads the pair kernel or the energy identity: with the
    kernel's prologue, reader and id grid and the planar pair energy and span
    pass all raising, every oracle still runs, while energy and quadrangles,
    which read them, raise."""
    for fn in (_blocks, _tally, _pair_ids, _pair_energy, _span_pass):
        refuse(fn, f"an oracle called {fn.__module__}.{fn.__name__}")
    for field in (PrimeField(7), PrimeField(101), Q):
        A = seeded_random(12, 21, field, "affine")
        B = seeded_random(9, 22, field, "affine")
        energy_bruteforce(A, "E")
        energy_bruteforce(A, "Estar")
        energy_asym_bruteforce(A, B)
        decompose_bruteforce(A)
        quadrangles_bruteforce(_as_points(A))
        pencil_bruteforce(A)
        for fast in (lambda: energy(A), lambda: quadrangles(_as_points(A))):
            with pytest.raises(AssertionError):
                fast()


def test_flat_law_oracles_clear_no_denominators(refuse):
    """The oracles on the flat-key law (E, E*, E(A,B), Q_C and the pencil)
    use neither the kernel's clearing of denominators nor its id grid nor the
    projective canonical form."""
    sets = [(seeded_random(12, 21, field, "affine"), seeded_random(9, 22, field, "affine")) for field in (PrimeField(7), Q)]
    for fn in (cleared, canon_int, _pair_ids):
        refuse(fn, f"a flat-law oracle called {fn.__module__}.{fn.__name__}")
    for A, B in sets:
        assert energy_bruteforce(A, "E") == sum(decompose_bruteforce(A).values())
        energy_bruteforce(A, "Estar")
        energy_asym_bruteforce(A, B)
        pencil_bruteforce(A)


def _pencil_cases():
    """Random line sets, all of AG(2, 5)'s lines, a pencil whose first member
    is not the first line, a tie of negative fractions, parallel-only and
    two-line sets; with the expected point and size where they are known."""
    F = Fraction
    F5 = PrimeField(5)
    cases = [(seeded_random(n, seed, field, "affine"), None) for field in FIELDS for n, seed in ((2, 11), (7, 12), (13, 13), (20, 14))]
    # every line y = a*x + b with a != 0 over F_5: each of the 25 points is on 4 of them
    cases.append((AffineSet.from_pairs(F5, [(a, b) for a in range(1, 5) for b in range(5)]), ((0, 0), 4)))
    # y = x + 10 sorts first and misses (1, 1); the pencil there starts at line 1
    cases.append((AffineSet.from_pairs(Q, [(1, 10), (2, -1), (3, -2), (5, -4)]), ((1, 1), 3)))
    # two pencils of three lines each, tied; the smaller point (-1/2, 2/3) wins
    through = lambda x0, y0, slopes: [(a, y0 - a * x0) for a in slopes]
    tied = (
        through(F(3, 4), F(-5, 2), (F(-1, 3), F(-7, 2), 2))
        + through(F(-1, 2), F(2, 3), (F(-2, 5), F(-3), F(1, 7)))
        + [(F(-1, 3), F(4, 9)), (F(5, 6), F(-11, 4))]
    )
    cases.append((AffineSet.from_pairs(Q, tied), ((F(-1, 2), F(2, 3)), 3)))
    # every meet at a negative, non-integer x0; four lines through (-5/3, 7/4)
    meets = through(F(-5, 3), F(7, 4), (F(-2), F(1, 3), F(5, 2), F(-7, 6))) + [(F(-3, 2), F(-5, 7)), (F(-1), F(1, 8))]
    cases.append((AffineSet.from_pairs(Q, meets), ((F(-5, 3), F(7, 4)), 4)))
    cases.append((AffineSet.from_pairs(Q, [(3, 0), (3, 1), (3, -2)]), (None, 1)))
    cases.append((AffineSet.from_pairs(F5, [(2, 1), (4, 3)]), ((4, 4), 2)))
    return cases


def test_pencil_oracle_matches_scan():
    for lines, expected in _pencil_cases():
        pen = pencil_bruteforce(lines)
        assert pen == _pencil_scan(lines) == max_concurrent_pencil(lines)
        if expected is not None:
            point, size = expected
            if point is not None:
                point = tuple(lines.field.scalar(v) for v in point)
            assert (pen.point, pen.size) == (point, size)


def test_pencil_oracle_divides_once_per_pair(monkeypatch):
    """One intersection per unordered pair of lines of different slopes."""
    calls = []
    real = PrimeField.div
    monkeypatch.setattr(PrimeField, "div", lambda self, x, y: calls.append(1) or real(self, x, y))
    for lines, _ in _pencil_cases():
        if lines.field.characteristic:
            calls.clear()
            pencil_bruteforce(lines)
            slopes = Counter(g.a for g in lines)
            k = len(lines)
            assert len(calls) == k * (k - 1) // 2 - sum(c * (c - 1) // 2 for c in slopes.values())


def difference_representation(A, gamma, field):
    """r_{A - gamma*A}(beta) = #{(y, x) in A^2 : y - gamma*x = beta}."""
    vals = [a.value if isinstance(a, Scalar) else field.reduce(a) for a in A]
    g = gamma.value if isinstance(gamma, Scalar) else field.reduce(gamma)
    out: Counter = Counter()
    for y in vals:
        for x in vals:
            out[field.sub(y, field.mul(g, x))] += 1
    return out


def quotient_representation(A, x0, y0, field):
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


def _table_energy(vals, op):
    """sum_t r(t)^2 for r(t) = #{(x, y) in vals^2 : op(x, y) = t}."""
    return sum(r * r for r in Counter(op(x, y) for x in vals for y in vals).values())


def _chain_scan(reps, B, energy_bound):
    sum_b = sum(reps.get(b, 0) for b in B)
    sum_sq = sum(reps.get(b, 0) ** 2 for b in B)
    mixed = sum(r * r for r in reps.values())
    return ChainCheck(sum_b, len(B), sum_sq, mixed, energy_bound, True)


def _structure_scan(rep, inst):
    """The energies, dropped counts and chains of structure_report, from the
    tallies above, for the family and pencil that rep found."""
    field = inst.field
    A = [Scalar(field, v) for v in inst.S]
    e_plus = _table_energy(list(inst.S), field.add)
    out = dict(e_plus=e_plus, e_mul_x0=None, e_mul_y0=None, mul_dropped_x0=0, mul_dropped_y0=0)
    out.update(parallel_chain=None, pencil_chain=None, pencil_link1_holds=None)
    if rep.family.slope is not None:
        B = [b.value for b in rep.family.intercepts]
        reps = difference_representation(A, rep.family.slope, field)
        out["parallel_chain"] = _chain_scan(reps, B, len(B) * e_plus)
    if rep.pencil is not None and rep.pencil.point is not None:
        x0, y0 = rep.pencil.point
        for name, shift in (("x0", x0), ("y0", y0)):
            shifted = [field.sub(v, shift.value) for v in inst.S]
            kept = [v for v in shifted if v != 0]
            out["e_mul_" + name] = _table_energy(kept, field.mul)
            out["mul_dropped_" + name] = len(shifted) - len(kept)
        reps, _ = quotient_representation(A, x0, y0, field)
        B = [s.value for s in rep.pencil.slopes]
        chain = _chain_scan(reps, B, out["e_mul_x0"] * out["e_mul_y0"])
        out["pencil_chain"] = chain
        out["pencil_link1_holds"] = rep.threshold * len(B) <= chain.sum_over_B
    return out


def _random_grid(rng, field):
    """A grid A x A with lines through one point (x0, y0), x0 and y0 each in
    A or not, and one parallel family, plus random lines; every line that
    meets the grid is rich."""
    if field.characteristic:
        value = lambda: rng.randrange(field.characteristic)
    else:
        value = lambda: Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4)))
    A = {field.reduce(value()) for _ in range(rng.randint(3, 9))}
    vals = sorted(A, key=field.sort_key)
    x0, y0 = rng.choice(vals), rng.choice(vals)
    where = rng.randrange(4)
    if where & 1:
        x0 = field.reduce(value())
    if where & 2:
        y0 = field.reduce(value())
    lines = set()
    for _ in range(rng.randint(2, 6)):
        s, t = rng.choice(vals), rng.choice(vals)
        if s != x0 and t != y0:
            a = field.div(field.sub(t, y0), field.sub(s, x0))
            lines.add((a, field.sub(y0, field.mul(a, x0))))
    gamma = field.reduce(value())
    if gamma:
        for _ in range(rng.randint(1, 4)):
            s, t = rng.choice(vals), rng.choice(vals)
            lines.add((gamma, field.sub(t, field.mul(gamma, s))))
    for _ in range(rng.randint(0, 3)):
        a = field.reduce(value())
        if a:
            lines.add((a, field.reduce(value())))
    return GridInstance.square(field, vals, AffineSet.from_pairs(field, lines), Fraction(1, len(vals)))


def _chain_cases():
    """Random grids over Q (fractional A and pencil points), F_5, F_7,
    F_101 and F_1009; a pencil through a point of A x A whose rich lines
    all sit at the threshold, so link 1 fails; and a family of slope -2/3."""
    rng = random.Random(12)
    cases = [_random_grid(rng, field) for field in (Q, PrimeField(5), PrimeField(7), PrimeField(101), PrimeField(1009)) for _ in range(12)]
    for field in (Q, PrimeField(101), PrimeField(1009)):
        # y = 2x - 2 and y = x/2 + 1 meet A = {0..4} in 3 points each, one of them (2, 2)
        half = field.div(field.reduce(1), field.reduce(2))
        cases.append(GridInstance.square(field, range(5), AffineSet.from_pairs(field, [(2, -2), (half, 1)]), Fraction(3, 5)))
    family = [(Fraction(-2, 3), b) for b in (6, 7, 8, 9)] + [(Fraction(1, 2), 1), (3, -1)]
    cases.append(GridInstance.square(Q, range(10), AffineSet.from_pairs(Q, family), Fraction(2, 5)))
    return cases


def test_structure_report_matches_scans():
    seen = set()
    for inst in _chain_cases():
        rep = structure_report(inst)
        scan = _structure_scan(rep, inst)
        assert {name: getattr(rep, name) for name in scan} == scan
        seen.add((rep.mul_dropped_x0, rep.mul_dropped_y0, rep.pencil_link1_holds))
        if rep.family.slope is not None and rep.family.slope.value == Fraction(-2, 3):
            seen.add("negative fractional slope")
    assert {(1, 0, True), (0, 1, True), (1, 1, False), (0, 0, True), "negative fractional slope"} <= seen
