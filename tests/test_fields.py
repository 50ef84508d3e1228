"""Field backends: canonical forms, inverses, parsing, axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_energy import PrimeField, RATIONALS, field_inv, parse_field, parse_scalar
from affine_energy.errors import NotInField, ParseError, ZeroDenominator, ZeroInverse
from affine_energy.fields import _is_prime
from affine_energy.generators import Xorshift64Star


def test_inverse_examples(F5, Q):
    assert field_inv(F5.scalar(1)) == F5.scalar(1)
    assert field_inv(F5.scalar(2)) == F5.scalar(3)
    assert field_inv(Q.scalar(Fraction(-3, 4))) == Q.scalar(Fraction(-4, 3))


def test_inverse_of_zero_raises(F5, Q):
    for f in (F5, Q):
        with pytest.raises(ZeroInverse):
            field_inv(f.scalar(0))


def test_parse_examples(F5, Q):
    assert parse_scalar("7", F5) == F5.scalar(2)
    assert parse_scalar("0", Q) == Q.scalar(0)
    with pytest.raises(ZeroDenominator):
        parse_scalar("3/0", Q)
    with pytest.raises(ParseError):
        parse_scalar("x", Q)
    # num/den over F_p is fine unless the denominator vanishes mod p
    assert parse_scalar("1/2", F5) == F5.scalar(3)
    with pytest.raises(NotInField):
        parse_scalar("1/5", F5)


def test_parse_field():
    assert parse_field("Q") == RATIONALS
    assert parse_field("Fp:101") == PrimeField(101)
    with pytest.raises(ParseError):
        parse_field("Fp:100")
    with pytest.raises(ParseError):
        parse_field("R")


def test_prime_field_must_be_odd_prime():
    with pytest.raises(ParseError):
        PrimeField(2)
    with pytest.raises(ParseError):
        PrimeField(91)


def test_prime_field_large_primes():
    """Miller-Rabin decides orders near 2^63 at once; trial division could not."""
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1
    assert PrimeField(2**63 - 25).characteristic == 2**63 - 25
    assert PrimeField(2**61 - 1).inv(2) * 2 % (2**61 - 1) == 1


@pytest.mark.parametrize("n", [561, 3825123056546413051])
def test_prime_field_rejects_pseudoprimes(n):
    """561 is a Carmichael number; 3825123056546413051 is a strong
    pseudoprime to every base from 2 to 23."""
    assert not _is_prime(n)
    with pytest.raises(ParseError):
        PrimeField(n)


def test_is_prime_matches_trial_division():
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 71):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if sieve[n]]


def test_canonical_roundtrip(any_field):
    rng = Xorshift64Star(7)
    for _ in range(300):
        v = any_field.scalar(rng.below(10**6) - 500000)
        assert parse_scalar(str(v), any_field) == v


def test_field_axioms_random_triples(any_field):
    """Associativity, distributivity, inverses: 10^4 exact random cases."""
    f = any_field
    rng = Xorshift64Star(42)

    def draw():
        if f.characteristic:
            return rng.below(f.characteristic)
        return Fraction(rng.below(201) - 100, 1 + rng.below(20))

    for _ in range(10_000):
        x, y, z = draw(), draw(), draw()
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        if x != 0:
            assert f.mul(x, f.inv(x)) == f.reduce(1)
        assert f.add(x, f.neg(x)) == f.reduce(0)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
@settings(max_examples=200)
def test_scalar_operators_match_field_ops(a, b):
    f = PrimeField(1009)
    x, y = f.scalar(a), f.scalar(b)
    assert (x + y).value == f.add(x.value, y.value)
    assert (x - y).value == f.sub(x.value, y.value)
    assert (x * y).value == f.mul(x.value, y.value)
    assert (-x).value == f.neg(x.value)


def test_scalars_hashable_on_canonical_form(Q):
    assert hash(Q.scalar(Fraction(2, 4))) == hash(Q.scalar(Fraction(1, 2)))
    assert Q.scalar(Fraction(2, 4)) == Q.scalar(Fraction(1, 2))
    s = {Q.scalar(Fraction(k, 2)) for k in range(4)}
    assert len(s) == 4
