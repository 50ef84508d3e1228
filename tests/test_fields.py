"""Field backends: canonical forms, inverses, parsing, axioms."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_energy import (
    APSpec,
    AffProductSpec,
    AffineSet,
    CSlice,
    GPSpec,
    GridInstance,
    GridSpec,
    ParabolaSpec,
    Plane3,
    PlaneLine,
    PlanePoint,
    Point3,
    PrimeField,
    ProjectiveMap2,
    RATIONALS,
    RandomAffSpec,
    RandomPlanarSpec,
    affine_map,
    field_inv,
    parse_field,
    parse_scalar,
)
from affine_energy.errors import InexactValue, NotInField, ParseError, ZeroDenominator, ZeroInverse
from affine_energy.fields import Scalar, _is_prime, cleared
from affine_energy.generators import Xorshift64Star


def test_inverse_examples(F5, Q):
    assert field_inv(F5.scalar(1)) == F5.scalar(1)
    assert field_inv(F5.scalar(2)) == F5.scalar(3)
    assert field_inv(Q.scalar(Fraction(-3, 4))) == Q.scalar(Fraction(-4, 3))


def test_inverse_of_zero_raises(F5, Q):
    for f in (F5, Q):
        with pytest.raises(ZeroInverse):
            field_inv(f.scalar(0))


def test_rational_inverse_is_the_reduced_fraction(Q):
    """Q's raw inv gives the reduced Fraction 1/x for int, negative and
    Fraction input, and raises ZeroInverse on a zero of either type."""
    cases = [(3, (1, 3)), (-4, (-1, 4)), (1, (1, 1)), (Fraction(-6, 4), (-2, 3)), (Fraction(5, 7), (7, 5)), (Fraction(-1, 9), (-9, 1))]
    for x, (num, den) in cases:
        got = Q.inv(x)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (num, den)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInverse):
            Q.inv(zero)


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


def test_floats_never_enter_a_field():
    """A float is truncated by int() mod p and kept as its binary fraction
    over Q, so no field and no raw Scalar takes one; the error is a
    ValueError, which the CLI reports with exit 2.  Ints and Fractions still
    reduce."""
    F7 = PrimeField(7)
    lines = AffineSet(RATIONALS, [affine_map(RATIONALS, 1, 0)])
    makers = [
        lambda: affine_map(F7, 1.5, 2.9),
        lambda: F7.reduce(2.0),
        lambda: RATIONALS.reduce(0.1),
        lambda: RATIONALS.scalar(1.0),
        lambda: Scalar(RATIONALS, 0.5),
        lambda: Scalar(F7, 2.0),
        lambda: PlanePoint.affine(RATIONALS, 0.5, 1),
        lambda: Point3.of(F7, (1, 2, 3, 4.0)),
        lambda: GridInstance.of(RATIONALS, [1], [1], lines, 0.5),
        lambda: GridInstance(RATIONALS, frozenset({Fraction(1)}), frozenset({Fraction(1)}), lines, 0.5),
        lambda: GridInstance.of(RATIONALS, [1.0], [1], lines, Fraction(1, 2)),
    ]
    for make in makers:
        with pytest.raises(InexactValue, match="float"):
            make()
    assert issubclass(InexactValue, ValueError)
    assert affine_map(F7, Fraction(3, 2), 9) == affine_map(F7, 5, 2)
    assert RATIONALS.reduce(Fraction(1, 10)) == Fraction(1, 10) and F7.reduce(True) == 1
    assert GridInstance.of(RATIONALS, [1], [1], lines, 1).alpha == 1


def test_cleared():
    """Residues pass as they are with d = 1; rationals become d times
    themselves, d the lcm of their denominators; no values give d = 1."""
    assert cleared(7, (3, 0, 6)) == ([3, 0, 6], 1)
    F = Fraction
    assert cleared(0, (F(1, 2), F(-2, 3), F(5), F(0))) == ([3, -4, 30, 0], 6)
    assert cleared(0, (F(10**30, 7), F(1, 10**24))) == ([10**54, 7], 7 * 10**24)
    assert cleared(0, ()) == ([], 1)


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


def _value_objects():
    """One instance of every immutable value type, over F_7 and Q."""
    F7, Q = PrimeField(7), RATIONALS
    ap = APSpec(1, 2, 3)
    out = [F7, Q, ap, GPSpec(1, 2, 3), GridSpec(4), AffProductSpec(ap, ap), ParabolaSpec(ap)]
    out += [RandomAffSpec(5, 1), RandomPlanarSpec(5, 1)]
    for f in (F7, Q):
        g = affine_map(f, 2, 3)
        lines = AffineSet(f, [g])
        out += [f.scalar(3), g, PlanePoint.affine(f, 1, 2), PlaneLine.y_axis(f), Point3.of(f, (1, 2, 3, 4))]
        out += [Plane3.of(f, (0, 1, 2, 3)), CSlice(f.scalar(4), frozenset({(g, g)}))]
        out += [GridInstance.of(f, [1, 2], [3], lines, Fraction(1, 2)), ProjectiveMap2(f, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))]
    return out


def test_value_objects_are_immutable_and_compare_within_one_field():
    """Equality includes the field, while the hash of a Scalar reads its raw
    value only; no value object takes an assignment, to its own attributes
    or to new ones."""
    F7 = PrimeField(7)
    assert F7.scalar(1) != RATIONALS.scalar(1) and hash(F7.scalar(1)) == hash(RATIONALS.scalar(1))
    assert affine_map(F7, 1, 2) != affine_map(RATIONALS, 1, 2)
    assert affine_map(F7, 1, 2) == affine_map(PrimeField(7), 8, 9)
    assert APSpec(1, 2, 3) != GPSpec(1, 2, 3)
    for v in _value_objects():
        slots = [name for c in type(v).__mro__ for name in getattr(c, "__slots__", ())]
        for name in slots + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(v, name, None)


def test_value_objects_take_one_value_per_slot():
    """A spec or a slice built with too few or too many values raises
    TypeError instead of leaving a slot unset or dropping a value."""
    g = affine_map(RATIONALS, 2, 3)
    for cls, values in (
        (APSpec, (1, 2, 3)),
        (GridSpec, (4,)),
        (AffProductSpec, (APSpec(1, 2, 3), GPSpec(1, 2, 3))),
        (RandomPlanarSpec, (5, 1)),
        (CSlice, (RATIONALS.scalar(4), frozenset({(g, g)}))),
    ):
        assert cls(*values)._values() == values
        for wrong in (values[:-1], values + (0,)):
            with pytest.raises(TypeError):
                cls(*wrong)


def test_value_objects_pickle_and_copy():
    """Each value object survives pickle, copy and deepcopy as an equal
    object of its own class with an equal hash."""
    for v in _value_objects():
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(twin) is type(v) and twin == v and hash(twin) == hash(v)
