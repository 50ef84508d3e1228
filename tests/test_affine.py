"""Affine group: composition convention, inverses, product sets, m and M."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_energy import (
    AffineMap,
    AffineSet,
    PrimeField,
    RATIONALS,
    affine_map,
    compose,
    identity,
    inverse,
    max_on_line,
    max_on_vertical,
    product_set,
    quotient,
    seeded_random,
)
from affine_energy.affine import compose_raw, flatten, inverse_raw, lift, max_on_nonvertical_line
from affine_energy.errors import SlopeZero

Q = RATIONALS


def amap(a, b, field=Q):
    return affine_map(field, a, b)


def test_compose_examples():
    assert compose(identity(Q), amap(3, 4)) == amap(3, 4)
    assert compose(amap(2, 3), amap(5, 7)) == amap(10, 17)


def test_slope_zero_rejected():
    F5 = PrimeField(5)
    with pytest.raises(SlopeZero):
        affine_map(F5, 5, 7)  # 5 = 0 mod 5
    with pytest.raises(SlopeZero):
        amap(0, 1)


def test_inverse_examples():
    assert inverse(identity(Q)) == identity(Q)
    assert inverse(amap(2, 2)) == amap(Fraction(1, 2), -1)
    F5 = PrimeField(5)
    assert inverse(affine_map(F5, 2, 3)) == affine_map(F5, 3, 1)


def test_quotient_examples():
    g = amap(2, 2)
    assert quotient(g, g) == identity(Q)
    assert quotient(identity(Q), amap(2, 1)) == amap(2, 1)
    assert quotient(amap(2, 2), amap(4, 4)) == amap(2, 1)


def test_product_set_examples():
    A = AffineSet.from_pairs(Q, [(1, 0)])
    assert len(product_set(A, A, "AB")) == 1
    A2 = AffineSet.from_pairs(Q, [(1, 0), (2, 0)])
    AA = product_set(A2, A2, "AB")
    assert AA == AffineSet.from_pairs(Q, [(1, 0), (2, 0), (4, 0)])
    AinvA = product_set(A2, A2, "AinvB")
    assert AinvA == AffineSet.from_pairs(Q, [(1, 0), (2, 0), (Fraction(1, 2), 0)])


def test_max_on_vertical_examples():
    assert max_on_vertical(AffineSet.from_pairs(Q, [(1, 0), (2, 0)])) == 1
    assert max_on_vertical(AffineSet.from_pairs(Q, [(1, 0), (1, 1), (2, 0)])) == 2
    grid3 = AffineSet.from_pairs(Q, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
    assert max_on_vertical(grid3) == 3


def test_max_on_line_examples():
    assert max_on_line(AffineSet.from_pairs(Q, [(1, 0)])) == 1
    assert max_on_line(AffineSet.from_pairs(Q, [(1, 1), (2, 2), (3, 3)])) == 3
    grid3 = AffineSet.from_pairs(Q, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
    assert max_on_line(grid3) == 3


def _collinear_bruteforce_M(A):
    """Cross-product collinearity over all pairs: independent oracle for max_on_line."""
    char = A.field.characteristic
    pts = [g.key() for g in A]
    n = len(pts)
    if n <= 2:
        return n
    best = 2
    for i in range(n):
        for j in range(i + 1, n):
            (x1, y1), (x2, y2) = pts[i], pts[j]
            cnt = 2
            for l in range(n):
                if l in (i, j):
                    continue
                (x3, y3) = pts[l]
                d = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
                if (d % char == 0) if char else (d == 0):
                    cnt += 1
            best = max(best, cnt)
    return best


def test_max_on_line_matches_bruteforce(any_field):
    for seed in range(6):
        A = seeded_random(14, seed, any_field, "affine")
        assert max_on_line(A) == _collinear_bruteforce_M(A)
        assert max_on_vertical(A) <= max_on_line(A) <= len(A)
        assert max_on_nonvertical_line(A) <= max_on_line(A)


def test_max_on_line_fractional_directions():
    """Over Q, directions with negative and fractional components: a line of
    slope -9/7 through five points, a vertical line of three."""
    line = [(Fraction(1, 2) - Fraction(t, 3), Fraction(1, 5) + Fraction(3 * t, 7)) for t in range(5)]
    vertical = [(Fraction(1, 2), 1), (Fraction(1, 2), -2)]
    A = AffineSet.from_pairs(Q, line + vertical + [(-3, Fraction(-4, 9))])
    assert max_on_line(A) == 5 == _collinear_bruteforce_M(A)
    assert max_on_nonvertical_line(A) == 5
    assert max_on_vertical(A) == 3
    assert max_on_nonvertical_line(AffineSet.from_pairs(Q, vertical)) == 1


def _random_maps(field, seed, n):
    return list(seeded_random(n, seed, field, "affine"))


def test_group_axioms(any_field):
    maps = _random_maps(any_field, 5, 12)
    e = identity(any_field)
    for g in maps:
        assert compose(e, g) == g == compose(g, e)
        assert inverse(inverse(g)) == g
        assert compose(inverse(g), g) == e
        assert compose(g, inverse(g)) == e
    for g in maps[:6]:
        for h in maps[:6]:
            for k in maps[:6]:
                assert compose(compose(g, h), k) == compose(g, compose(h, k))


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(101), PrimeField(2**61 - 1), Q], ids=repr)
def test_raw_group_law(field):
    """compose_raw and inverse_raw on flat keys against the formulas in
    Scalar arithmetic and the AffineMap law, the flat <-> AffineMap round
    trip, and the group axioms on flat keys: identity, inverse,
    associativity, quotient = inverse then compose."""
    maps = _random_maps(field, 7, 10)
    flats = [flatten(g) for g in maps]
    e = flatten(identity(field))
    for g, r in zip(maps, flats):
        assert lift(field, r) == g and len(r) == (2 if field.characteristic else 4)
        ri = inverse_raw(field, r)
        assert lift(field, ri) == AffineMap(g.a.inv(), -(g.b / g.a)) == inverse(g)
        assert ri == flatten(inverse(g))
        assert compose_raw(field, e, r) == r == compose_raw(field, r, e)
        assert compose_raw(field, ri, r) == e == compose_raw(field, r, ri)
        assert inverse_raw(field, ri) == r
    for g, r in zip(maps, flats):
        for h, s in zip(maps, flats):
            assert lift(field, compose_raw(field, r, s)) == AffineMap(g.a * h.a, g.a * h.b + g.b) == compose(g, h)
            assert compose_raw(field, inverse_raw(field, r), s) == flatten(quotient(g, h))
            for t in flats[:5]:
                assert compose_raw(field, compose_raw(field, r, s), t) == compose_raw(field, r, compose_raw(field, s, t))


def _tall_fraction(rng, height):
    """A Fraction of either sign with numerator and denominator up to height."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))


@pytest.mark.parametrize("height", [7, 10**12, 10**60])
def test_flat_law_against_fractions(height):
    """Over Q the flat-key law equals Fraction arithmetic on random maps with
    negative slopes and intercepts, unlike denominators and heights up to
    10^60, and its keys are reduced with positive denominators."""
    rng = random.Random(height)
    pairs = [(_tall_fraction(rng, height), _tall_fraction(rng, height)) for _ in range(12)]
    pairs += [(Fraction(-3, 4), Fraction(0)), (Fraction(5, 6), Fraction(-7, 10))]
    assert any(b < 0 < a for a, b in pairs) and any(a < 0 for a, _ in pairs)

    def flat(a, b):
        return a.numerator, a.denominator, b.numerator, b.denominator

    for a, b in pairs:
        assert inverse_raw(Q, flat(a, b)) == flat(1 / a, -b / a)
        for c, d in pairs:
            composed = compose_raw(Q, flat(a, b), flat(c, d))
            assert composed == flat(a * c, a * d + b)
            assert compose_raw(Q, inverse_raw(Q, flat(a, b)), flat(c, d)) == flat(c / a, (d - b) / a)
            assert flatten(quotient(amap(a, b), amap(c, d))) == flat(c / a, (d - b) / a)
            assert composed[1] > 0 and composed[3] > 0


@given(st.integers(1, 1000), st.integers(0, 1008), st.integers(1, 1000), st.integers(0, 1008))
@settings(max_examples=150)
def test_quotient_is_energy_predicate(a1, b1, a2, b2):
    """quotient(g,h) = quotient(u,v) iff g^{-1} o h = u^{-1} o v by definition;
    check it agrees with explicit inverse-compose."""
    F = PrimeField(1009)
    g, h = affine_map(F, a1, b1), affine_map(F, a2, b2)
    assert quotient(g, h) == compose(inverse(g), h)


def test_first_coordinate_law(any_field):
    """Energy quadruples satisfy g1*v1 = h1*u1."""
    A = list(seeded_random(10, 3, any_field, "affine"))
    f = any_field
    for g in A:
        for h in A:
            for u in A:
                for v in A:
                    if quotient(g, h) == quotient(u, v):
                        assert f.mul(g.a.value, v.a.value) == f.mul(h.a.value, u.a.value)


def test_affine_set_dedup(Q_=None):
    A = AffineSet.from_pairs(Q, [(1, 0), (1, 0), (2, 0)])
    assert len(A) == 2
