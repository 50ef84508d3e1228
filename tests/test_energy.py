"""Energies, the C-decomposition, scalar energies, bound reports."""

from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from affine_energy import (
    AffineSet,
    PrimeField,
    RATIONALS,
    c_slice,
    decompose_by_C,
    decompose_bruteforce,
    energy,
    energy_asym,
    energy_asym_bruteforce,
    energy_bruteforce,
    energy_star,
    main_bound_report,
    max_on_vertical,
    product_set,
    q_c_incidence_table,
    quadrangle_energy_correspondence,
    quadrangles,
    quadrangles_bruteforce,
    quotient_stats,
    scalar_energy_add,
    scalar_energy_mul,
    seeded_random,
    top_slice_reports,
)
from affine_energy.affine import AffineMap, compose_raw, inverse_raw
from affine_energy.energy import (
    PerC,
    _blocks,
    _energy,
    _pair_ids,
    _pair_keys,
    _pair_sizes,
    _product_pass,
    _SetTable,
    _slope_classes,
    _sorted_values,
    _tally,
    shifted_nonzero,
)
from affine_energy.errors import OracleCapExceeded, ZeroC
from affine_energy.generators import APSpec, AffProductSpec, GPSpec, GridSpec, generate

Q = RATIONALS


def aset(pairs, field=Q):
    return AffineSet.from_pairs(field, pairs)


def test_energy_examples():
    assert energy(aset([(1, 0)])) == 1
    assert energy(aset([(1, 0), (2, 0)])) == 6
    # U-coset reduces to additive energy of the intercepts
    assert energy(aset([(1, 0), (1, 1)])) == scalar_energy_add({Q.scalar(0), Q.scalar(1)}) == 6


def test_energy_star_examples():
    assert energy_star(aset([(1, 0)])) == 1
    assert energy_star(aset([(1, 0), (2, 0)])) == 6


def test_energy_asym_examples():
    A = aset([(1, 0), (2, 0)])
    assert energy_asym(A, A) == energy(A)
    assert energy_asym(aset([(1, 0)]), A) == 2
    A8 = seeded_random(8, 21, Q, "affine")
    B10 = seeded_random(10, 22, Q, "affine")
    assert energy_asym(A8, B10) == energy_asym_bruteforce(A8, B10)


def test_kernel_matches_oracles():
    """The two raw-key passes against the oracles, c_slice and product_set.

    F_5 has few slopes, so buckets hold many blocks; the hand-made Q set has
    fractional and negative slopes and intercepts.
    """
    frac_set = aset(
        [(Fraction(a), Fraction(b)) for a in ("1/2", "-3/4", "2", "5/3") for b in ("0", "1/3", "-2/5", "7/2")]
    )
    cases = [frac_set]
    for field in (PrimeField(5), PrimeField(101), Q):
        cases += [seeded_random(n, seed, field, "affine") for n, seed in ((1, 0), (9, 1), (16, 2))]
    for A in cases:
        rep = main_bound_report(A)
        assert rep.E == energy_bruteforce(A, "E")
        assert rep.E_star == energy_bruteforce(A, "Estar")
        assert rep.size_AA == len(product_set(A, A, "AB"))
        assert rep.size_AinvA == len(product_set(A, A, "AinvB"))
        dec = decompose_bruteforce(A)
        assert list(rep.per_c) == list(dec)
        assert rep.per_c == {C: (len(c_slice(A, C)), q) for C, q in dec.items()}
    for field in (PrimeField(5), PrimeField(101), Q):
        A = seeded_random(7, 3, field, "affine")
        B = seeded_random(11, 4, field, "affine")
        assert energy_asym(A, B) == energy_asym_bruteforce(A, B)
        assert energy_asym(B, A) == energy_asym_bruteforce(B, A)
    B = aset([(Fraction(-1, 3), Fraction(5, 7)), (3, Fraction(1, 2)), (Fraction(2, 9), -4)])
    assert energy_asym(frac_set, B) == energy_asym_bruteforce(frac_set, B)
    assert energy_asym(B, frac_set) == energy_asym_bruteforce(B, frac_set)


def test_oracle_cap():
    A = seeded_random(10, 1, Q, "affine")
    with pytest.raises(OracleCapExceeded):
        energy_bruteforce(A, "E", cap=5)


def test_c_slice_examples():
    A = aset([(1, 0), (2, 0)])
    sl = c_slice(A, Q.scalar(2))
    assert len(sl) == 2
    assert len(c_slice(A, Q.scalar(3))) == 0
    with pytest.raises(ZeroC):
        c_slice(A, Q.scalar(0))


def test_grid_slice_prime_value():
    grid5 = generate(GridSpec(5), Q)
    assert len(c_slice(grid5, Q.scalar(3))) == 2 * 25


def test_decompose_examples():
    A = aset([(1, 0), (2, 0)])
    dec = {k.value: v for k, v in decompose_by_C(A).items()}
    assert dec == {1: 1, 2: 4, 4: 1}
    assert decompose_by_C(aset([(1, 0)])) == {Q.scalar(1): 1}
    grid3 = generate(GridSpec(3), Q)
    assert sum(decompose_by_C(grid3).values()) == energy(grid3)


def test_decompose_matches_bruteforce(any_field):
    for seed in (0, 1, 2):
        A = seeded_random(12, seed, any_field, "affine")
        assert decompose_by_C(A) == decompose_bruteforce(A)


def test_scalar_energy_add_examples(Q_=None):
    assert scalar_energy_add({Q.scalar(0)}) == 1
    assert scalar_energy_add({Q.scalar(v) for v in (1, 2, 3)}) == 19
    assert scalar_energy_add({Q.scalar(0), Q.scalar(1)}) == 6
    F5 = PrimeField(5)
    assert scalar_energy_add({F5.scalar(v) for v in range(5)}) == 125  # p^3: all of F_p
    assert scalar_energy_add(set()) == 0
    with pytest.raises(AttributeError):
        scalar_energy_add([0, 1, 2, 3, 4])  # raw values carry no field


def test_scalar_energy_mul_examples():
    assert scalar_energy_mul({Q.scalar(1)}) == 1
    assert scalar_energy_mul({Q.scalar(v) for v in (1, 2, 4)}) == 19
    assert scalar_energy_mul({Q.scalar(v) for v in (2, 3, 5)}, Q.scalar(1)) == 19
    F5 = PrimeField(5)
    assert scalar_energy_mul({F5.scalar(v) for v in range(1, 5)}) == 64  # (p-1)^3: all of F_p^*
    assert scalar_energy_mul({F5.scalar(v) for v in range(5)}, F5.scalar(3)) == 64
    assert scalar_energy_mul(set()) == 0
    vals, dropped = shifted_nonzero({Q.scalar(v) for v in (1, 2, 4)}, Q.scalar(2))
    assert dropped == 1 and len(vals) == 2


def test_identities_on_random_sets(any_field):
    for seed in range(4):
        A = seeded_random(15, seed + 50, any_field, "affine")
        n = len(A)
        E, Es = energy(A), energy_star(A)
        dec = decompose_by_C(A)
        assert sum(dec.values()) == E
        m = max_on_vertical(A)
        slice_sizes = [len(c_slice(A, C)) for C in dec]
        # realized slices carry the whole mass |A|^2
        assert sum(slice_sizes) == n * n
        assert all(s <= m * n for s in slice_sizes)
        assert Es <= E
        assert E * len(product_set(A, A, "AinvB")) >= n**4
        assert Es * len(product_set(A, A, "AB")) >= n**4


def test_grid_sharpness():
    """Q_C >= E+([n]) for prime C <= n on the [n]x[n] grid."""
    primes = [2, 3, 5, 7, 11]
    for n in range(3, 13):
        grid = generate(GridSpec(n), Q)
        dec = decompose_by_C(grid)
        eplus = scalar_energy_add({Q.scalar(v) for v in range(1, n + 1)})
        for p in primes:
            if p > n:
                break
            assert dec[Q.scalar(p)] >= eplus


def test_main_bound_report_trivial():
    rep = main_bound_report(aset([(1, 0)]))
    assert rep.E == rep.E_star == 1
    assert rep.cs_quotient_ok and rep.cs_product_ok and rep.shkredov_ok
    assert rep.identities_hold()


def test_main_bound_report_gp_ap_floor():
    A = generate(AffProductSpec(GPSpec(1, 2, 8), APSpec(0, 1, 8)), Q)
    rep = main_bound_report(A, include_decomposition=False)
    assert Fraction(rep.E, rep.M * rep.size**2) >= Fraction(1, 8)


def test_main_bound_report_random_f1009():
    A = seeded_random(30, 9, PrimeField(1009), "affine")
    rep = main_bound_report(A)
    assert rep.cs_quotient_ok and rep.cs_product_ok
    assert rep.p_constraint_ok is True
    assert rep.pp_correction == Fraction(rep.m * rep.size**3, 1009)
    assert rep.identities_hold()


def _oracle_sizes(A, B, mode="E"):
    """Sorted bucket sizes of the pair values that the oracles compute."""
    return sorted(Counter(_pair_keys(A, B, mode)).values())


def _reader_cases():
    """Random sets, grids and sets with repeated slopes over F_5, F_101,
    F_1009 and Q, plus Q sets whose intercept differences are negative."""
    cases = []
    for field in (PrimeField(5), PrimeField(101), PrimeField(1009), Q):
        cases += [seeded_random(n, seed, field, "affine") for n, seed in ((1, 0), (12, 1), (20, 2))]
        cases.append(generate(GridSpec(4), field))
        cases.append(aset([(a, b) for a in (1, 2, 4) for b in (0, 1, 3, 4)], field))
    cases.append(aset([(Fraction(-3, 5), Fraction(-7, 3)), (Fraction(-3, 5), Fraction(5, 2)), (2, -1), (Fraction(1, 7), 0), (2, Fraction(-9, 4))]))
    cases.append(aset([(Fraction(-1, 3), -4), (Fraction(-1, 3), 4), (1, -4), (1, 4)]))
    return cases


def _product_cases():
    """Sets for the product pass, whose rows are the inverted classes
    (1/x, [-b/x, ...]) read with the C grid as slope grid: over Q slopes 1
    and -1, slopes x beside 1/x and negative fractional slopes; sets over F_7
    and F_(2^61 - 1); and one-slope sets (k = 1), where the identity bucket
    is alphas[0][0]."""
    F = Fraction
    F7, F61 = PrimeField(7), PrimeField(2**61 - 1)
    cases = [aset([(1, 0), (1, F(1, 2)), (-1, 3), (-1, F(-2, 3)), (F(2, 3), 1), (F(3, 2), -1), (F(3, 2), F(5, 7))])]
    cases.append(aset([(F(-3, 4), 2), (F(-4, 3), F(-1, 2)), (F(-3, 4), 0), (F(-5, 2), F(7, 3)), (F(-2, 5), -1), (F(1, 3), 0)]))
    cases += [seeded_random(20, 3, F7, "affine"), aset([(a, b) for a in range(1, 7) for b in (0, 3)], F7)]
    cases += [seeded_random(15, 4, F61, "affine"), aset([(a, b) for a in (1, 2, F61.inv(2), F61.neg(1)) for b in (0, 5)], F61)]
    cases += [aset([(F(-2, 5), b) for b in (0, 1, F(-3, 7))]), aset([(3, b) for b in (0, 1, 5)], F7)]
    return cases


def _tagged_buckets(A):
    """The tally of A x A with the block index b = i*|cols| + j in place of
    the slope id, regrouped by bucket: {t: {(x_i, x_j): r(t, b)}}, naming
    the slope classes x_i of g and x_j of h."""
    table = _SetTable(A)
    rows, hs, js, scales, alphas, m = _blocks(table.char, table.classes, table.inverses, table.classes)
    n = len(rows)
    flat = [a for row in alphas for a in row]
    block_ids = [list(range(i * n, i * n + n)) for i in range(n)]
    buckets = defaultdict(dict)
    for key, r in _tally(rows, hs, js, scales, block_ids, m).items():
        b = key % len(flat)
        buckets[key - b + flat[b]][rows[b // n][0], rows[b % n][0]] = r
    return buckets


def _oracle_blocks(A):
    """The multiset of buckets of the oracle's pair values, each bucket as its
    counts per (slope of g, slope of h)."""
    slopes = [(g.a.value, h.a.value) for g in A for h in A]
    buckets = defaultdict(Counter)
    for key, block in zip(_pair_keys(A, A, "E"), slopes):
        buckets[key][block] += 1
    return Counter(frozenset(t.items()) for t in buckets.values())


def test_sizes_reader_matches_block_reader_and_oracles():
    for A in _reader_cases() + _product_cases():
        raw = [g.key() for g in A]
        sizes = _pair_sizes(A.field, raw, raw)
        buckets = _tagged_buckets(A)
        assert sorted(sizes.values()) == sorted(sum(t.values()) for t in buckets.values()) == _oracle_sizes(A, A)
        assert {t: sum(blocks.values()) for t, blocks in buckets.items()} == sizes
        assert Counter(frozenset(blocks.items()) for blocks in buckets.values()) == _oracle_blocks(A)
        assert energy(A) == _energy(sizes.values()) == quotient_stats(A)[0] == energy_bruteforce(A, "E")
        products = _product_pass(_SetTable(A))
        assert sorted(products.values()) == _oracle_sizes(A, A, "Estar")
        assert _energy(products.values()) == energy_star(A) == energy_bruteforce(A, "Estar")
        assert len(products) == len(set(_pair_keys(A, A, "Estar")))
        rep = main_bound_report(A)
        assert (rep.E, rep.size_AinvA, rep.E_star, rep.size_AA) == (energy(A), len(sizes), energy_star(A), len(products))
        assert rep.per_c == {C: (len(c_slice(A, C)), q) for C, q in decompose_bruteforce(A).items()}


def test_q_c_identity():
    """Q_C = 2|C_C| - sq(C) + R_C as quotient_stats counts it, against the
    oracle and the slice sizes: every bucket shared (the whole affine group
    over F_7), only the identity bucket shared, grids and GP x AP products,
    a row that meets one shared bucket twice, n = 1 and Q sets with negative
    fractions."""
    F7, F101, F_big = PrimeField(7), PrimeField(101), PrimeField(1000003)
    group = aset([(a, b) for a in range(1, 7) for b in range(7)], F7)
    assert set(_pair_sizes(F7, *[[g.key() for g in group]] * 2).values()) == {42}
    random = seeded_random(40, 5, F_big, "affine")
    assert sorted(_pair_sizes(F_big, *[[g.key() for g in random]] * 2).values())[-2:] == [1, 40]
    cases = [group, random]
    for field in (F101, Q):
        cases += [generate(GridSpec(6), field), generate(AffProductSpec(GPSpec(1, 2, 5), APSpec(0, 1, 5)), field)]
    for field in (F7, F101, F_big, Q):
        # (1,0)^{-1}(2,0) = (1,1)^{-1}(2,1) = (3,0)^{-1}(6,0): two pairs in one block
        twice = aset([(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (6, 0)], field)
        assert any(len(blocks) > 1 and max(blocks.values()) == 2 for blocks in _tagged_buckets(twice).values())
        cases += [twice, seeded_random(1, 2, field, "affine")]
    cases += _reader_cases()[-2:]
    for A in cases:
        assert quotient_stats(A)[2] == {C: (len(c_slice(A, C)), q) for C, q in decompose_bruteforce(A).items()}


def test_quotient_stats_tallies_once(count_calls):
    """quotient_stats reads the pair keys in one _tally, with or without the
    decomposition."""
    calls = count_calls(_tally)
    for A in (seeded_random(40, 2, PrimeField(1000003), "affine"), generate(GridSpec(6), Q)):
        for include_decomposition in (True, False):
            calls.clear()
            quotient_stats(A, include_decomposition)
            assert len(calls) == 1


@pytest.mark.parametrize("field", [Q, PrimeField(101)])
def test_fast_paths_build_no_affine_map(field, monkeypatch, refuse):
    """Past the API edge no fast path builds an AffineMap or calls the raw
    group law of the oracles: the sets are built first, then every AffineMap
    construction and every compose_raw or inverse_raw call raises."""
    A = generate(GridSpec(5), field)
    R = seeded_random(20, 3, field, "affine")
    P = seeded_random(12, 4, field, "planar")

    def refuse_map(self, *args):
        raise AssertionError("AffineMap built inside a fast path")

    monkeypatch.setattr(AffineMap, "__init__", refuse_map)
    for fn in (compose_raw, inverse_raw):
        refuse(fn, "raw group law called inside a fast path")
    for S in (A, R):
        per_c = main_bound_report(S).per_c
        main_bound_report(S, include_decomposition=False)
        quotient_stats(S)
        energy_star(S)
        q_c_incidence_table(S)
        top_slice_reports(per_c, 3)
    quadrangles(P)
    quadrangle_energy_correspondence(P)
    with pytest.raises(AssertionError):
        AffineMap(field.one(), field.zero())


def test_sizes_reader_asym_matches_oracle():
    cases = _reader_cases()
    for A, B in zip(cases, cases[1:]):
        if A.field == B.field:
            assert energy_asym(A, B) == energy_asym_bruteforce(A, B)
            assert sorted(_pair_sizes(A.field, [g.key() for g in A], [h.key() for h in B]).values()) == _oracle_sizes(A, B)


def _prologue(field, G, H):
    """The _blocks prologue of G x H, raw (a, b) lists, as _pair_sizes
    builds it."""
    rows = _slope_classes(G)
    return _blocks(field.characteristic, rows, [field.inv(x) for x, _ in rows], _slope_classes(H))


def test_pair_key_extremes():
    """The largest slope id alpha = K - 1, and over Q the intercept ints beta
    at both ends of their range, where beta mod P must not wrap onto
    another."""
    for field in (PrimeField(101), Q):
        A = aset([(1, 0), (2, 5)], field)
        B = aset([(3, 1), (5, -2), (5, 7)], field)
        G, H = [g.key() for g in A], [h.key() for h in B]
        alphas = _prologue(field, G, H)[4]
        K = len(alphas) * len(alphas[0])
        assert max(map(max, alphas)) == K - 1  # the ratios 3, 5, 3/2, 5/2 differ
        assert sorted(_pair_sizes(field, G, H).values()) == _oracle_sizes(A, B)
    # slopes -1/3 and 1, intercepts -4 and 4: beta = (b_h - b_g)*L/x reaches
    # +-8*3, twice the largest |b| times the largest |s|
    A = aset([(Fraction(-1, 3), -4), (Fraction(-1, 3), 4), (1, -4), (1, 4)])
    raw = [g.key() for g in A]
    _, _, _, scales, alphas, m = _prologue(Q, raw, raw)
    K = len(alphas) * len(alphas[0])
    assert m == (4 * 3 * 4 + 1) * K and max(map(abs, scales)) == 3 * K
    sizes = _pair_sizes(Q, raw, raw)
    assert len(sizes) == len(set(_pair_keys(A, A, "E")))
    assert energy(A) == energy_bruteforce(A, "E")


def test_pair_ids_over_q():
    """Reduced int pairs: signs sit on the numerator, equal products share
    one id, and over F_p the values are field.mul."""
    assert _pair_ids(0, [1 / Fraction(-3, 5)], [Fraction(1)])[1] == [(-5, 3)] == _pair_ids(0, [Fraction(5, -3)], [Fraction(1)])[1]
    grid, values = _pair_ids(0, [Fraction(2, 3), Fraction(1)], [Fraction(3, 2), Fraction(1)])
    assert grid[0][0] == grid[1][1] and values.count((1, 1)) == 1
    assert [Fraction(*v) for v in values] == [1, Fraction(2, 3), Fraction(3, 2)]
    F = PrimeField(101)
    xs, ys = [3, 50, 100], [7, 3, 100]
    grid, values = _pair_ids(101, xs, ys)
    assert [[values[c] for c in row] for row in grid] == [[F.mul(x, y) for y in ys] for x in xs]


@pytest.mark.parametrize("field", [Q, PrimeField(101)])
def test_blocks_slope_ids(field):
    """The prologue's slope id alpha[i][j] names y_j/x_i: equal ids exactly
    for equal slopes, negative slopes and inverses included."""
    slopes = [field.reduce(Fraction(t)) for t in ("-3/5", "3/5", "-1/2", "5/3", "2", "-1")]
    raw = [(a, field.reduce(Fraction(k - 2))) for k, a in enumerate(slopes)]
    _, _, _, _, alphas, _ = _prologue(field, raw, raw)
    cells = [(alphas[i][j], field.div(y, x)) for i, x in enumerate(slopes) for j, y in enumerate(slopes)]
    assert all((c1 == c2) == (t1 == t2) for c1, t1 in cells for c2, t2 in cells)


def test_slice_table_order_over_q():
    """The C order equals sorted(..., key=field.sort_key) of the Fractions,
    negatives included, at small height and at denominators near 10^60."""
    low = aset([(Fraction(a), b) for a in ("-7/3", "1/2", "-1", "3", "5/6", "-2/9") for b in (0, 1)])
    big = 10**60
    high = aset([(Fraction(s * (k + 1), big + 7 * k), k) for k in range(6) for s in (1, -1)])
    for A in (low, high):
        per_c = quotient_stats(A)[2]
        values = [C.value for C in per_c]
        assert all(type(v) is Fraction for v in values)
        assert values == sorted(values, key=Q.sort_key) and any(v < 0 for v in values)
        assert per_c == {C: (len(c_slice(A, C)), q) for C, q in decompose_bruteforce(A).items()}
    assert _sorted_values(0, [(3, 2), (-7, 3), (1, 1)]) == [(1, Fraction(-7, 3)), (2, Fraction(1)), (0, Fraction(3, 2))]


@pytest.mark.parametrize("field", [Q, PrimeField(7), PrimeField(2**61 - 1)])
def test_per_c_reads_as_a_mapping(field):
    """quotient_stats(A)[2], a PerC, reads as the oracles' dict C -> (|C_C|,
    Q_C): equal in both directions, iterated in canonical order, its rows the
    raw items; a C it does not hold, a non-Scalar key and a Scalar of another
    field are absent to [], in and get; it prints as its dict; empty, it is
    falsy."""
    other = PrimeField(7) if field is Q else Q  # Q's 1 and F_7's 1 share their raw value's hash
    two_slopes = aset([(a, b) for a in (1, 2) for b in range(4)] + [(2, 5)], field)  # C in {1, 2, 4}
    for A in (two_slopes, seeded_random(10, 4, field, "affine")):
        per_c = quotient_stats(A)[2]
        ref = {C: (len(c_slice(A, C)), q) for C, q in decompose_bruteforce(A).items()}
        assert isinstance(per_c, PerC) and per_c and per_c == ref and ref == per_c
        assert list(per_c) == sorted(ref, key=lambda C: field.sort_key(C.value)) and len(per_c) == len(ref)
        assert repr(per_c) == f"PerC({ref!r})"
        assert list(per_c.rows()) == [(C.value, *ref[C]) for C in per_c] and list(per_c.values()) == list(ref.values())
        for C in ref:
            assert per_c[C] == ref[C] and C in per_c and per_c.get(C) == ref[C]
        absent = [5, 1, Fraction(1), "1", None, other.scalar(1)]
        if A is two_slopes:
            absent.append(field.scalar(3))
        for key in absent:
            with pytest.raises(KeyError):
                per_c[key]
            assert key not in per_c and per_c.get(key) is None
    for empty in (quotient_stats(two_slopes, include_decomposition=False)[2], quotient_stats(aset([], field))[2]):
        assert not empty and len(empty) == 0 and empty == {} and list(empty.rows()) == []
        assert empty.table.field == field and empty.get(field.scalar(1)) is None


def test_one_key_list_is_classed_once(count_calls):
    """energy(A), the E(A_P) term of quadrangles and the scalar energies pass
    one key list as both sides, which _pair_sizes classes by slope once."""
    F = PrimeField(1009)
    A = seeded_random(20, 6, F, "affine")
    P = seeded_random(14, 7, F, "planar")
    expected = energy_bruteforce(A), quadrangles_bruteforce(P), energy_bruteforce(aset([(1, k) for k in range(6)], F))
    calls = count_calls(_slope_classes)
    for run, want in zip((lambda: energy(A), lambda: quadrangles(P), lambda: scalar_energy_add(F.scalar(k) for k in range(6))), expected):
        calls.clear()
        assert run() == want and len(calls) == 1
