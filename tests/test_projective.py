"""The one canonical form of projective vectors: Point3, Plane3, PlanePoint
and PlaneLine share `projective.Homogeneous`, keyed by `canon_int`."""

from fractions import Fraction
from math import lcm

import pytest

from affine_energy import RATIONALS, Plane3, PlaneLine, PlanePoint, Point3, PrimeField
from affine_energy.projective import Homogeneous, canon_int

TYPES = (Point3, Plane3, PlanePoint, PlaneLine)
F7, MERSENNE = PrimeField(7), PrimeField(2**61 - 1)
H = 10**40 + 1  # a height beyond any machine word, a unit mod 7 and mod 2^61 - 1

VECTORS = [
    (1, 2, 3, 4),
    (0, 0, 5, 0),  # one nonzero coordinate, zeros on both sides
    (0, 3, 0, 0),
    (6, 0, 0, 0),  # trailing zeros
    (0, 0, 0, 2),  # leading zeros
    (0, 1, 1, 0),
    (-1, 9, 15, -8),  # wraps around mod 7
    (2**61, -(2**62), 3, 2**61 - 2),  # wraps around mod 2^61 - 1
    (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)),
    (Fraction(H, 3), Fraction(-1, H), H * H, 0),
    (0, Fraction(-(H**2), 13), Fraction(11, H**3), -H),
]

SCALES = {
    F7: [1, 3, 6, 8, -2, Fraction(1, 3)],
    MERSENNE: [2, 2**60, -1, 2**61 - 2, Fraction(-5, 9)],
    RATIONALS: [1, -1, 7, Fraction(-3, 7), Fraction(H, 11), -H, Fraction(-1, H**2)],
}


def _vectors(cls, field):
    """The vectors nonzero in the field, cut to the type's dimension."""
    dim = 4 if cls in (Point3, Plane3) else 3
    return [v[:dim] for v in VECTORS if any(field.reduce(c) for c in v[:dim])]


KINDS = pytest.mark.parametrize("cls,field", [(cls, field) for cls in TYPES for field in SCALES])


def _cleared(field, v):
    """Field residues over F_p; over Q the coordinates times the lcm of their
    denominators."""
    vals = [field.reduce(c) for c in v]
    if field.characteristic:
        return vals
    den = lcm(*(c.denominator for c in vals))
    return [int(c * den) for c in vals]


def _pivot(vals, last):
    return next(c for c in (reversed(vals) if last else vals) if c)


@KINDS
def test_scaling_gives_one_object(cls, field):
    """A nonzero multiple of a vector is the same object: equal, with an
    equal hash, raw key and text form; negative multiples over Q included."""
    for v in _vectors(cls, field):
        x = cls(field, v)
        for lam in SCALES[field]:
            y = cls.of(field, [field.mul(field.reduce(lam), field.reduce(c)) for c in v])
            assert y == x and hash(y) == hash(x)
            assert y.raw() == x.raw() and str(y) == str(x) and y.coords == x.coords


@KINDS
def test_raw_is_the_canon_int_key_and_coords_have_pivot_one(cls, field):
    for v in _vectors(cls, field):
        x = cls(field, v)
        assert x.raw() == canon_int(field.characteristic, _cleared(field, v), last=cls.last)
        assert _pivot(x.coords, cls.last) == 1
        vals = [field.reduce(c) for c in v]
        assert x.coords == tuple(field.div(c, _pivot(vals, cls.last)) for c in vals)
        assert all(type(c) is (int if field.characteristic else Fraction) for c in x.coords)


def test_pivot_sides():
    """P^3 points and planes scale their first nonzero coordinate to 1, plane
    points and lines their last one; lines and planes also read as coeffs."""
    assert Point3(RATIONALS, (2, 4, 0, 6)).coords == (1, 2, 0, 3)
    assert Plane3(RATIONALS, (2, 4, 0, 6)).coeffs == (1, 2, 0, 3)
    assert PlanePoint(RATIONALS, (2, 4, 6)).coords == (Fraction(1, 3), Fraction(2, 3), 1)
    assert PlaneLine(RATIONALS, (2, 4, 6)).coeffs == (Fraction(1, 3), Fraction(2, 3), 1)
    assert PlanePoint(F7, (1, 2, 0)).coords == (4, 1, 0) and not PlanePoint(F7, (1, 2, 0)).is_affine
    assert Point3(RATIONALS, (0, -2, 4, 6)).raw() == (0, 1, -2, -3)
    assert PlanePoint(RATIONALS, (Fraction(1, 2), Fraction(-3, 4), Fraction(-5, 6))).raw() == (-6, 9, 10)
    assert all(issubclass(cls, Homogeneous) for cls in TYPES)


def test_distinct_objects_stay_distinct():
    """Different points, types or fields never compare equal."""
    objs = [cls(field, v) for cls in TYPES for field in SCALES for v in _vectors(cls, field)]
    classes = {}
    for o in objs:
        classes.setdefault((type(o), repr(o.field), o.raw()), o)
    for a in classes.values():
        for b in classes.values():
            assert (a == b) == (a is b)
    assert Point3(F7, (1, 2, 3, 4)) != Plane3(F7, (1, 2, 3, 4))
    assert PlanePoint(F7, (1, 2, 1)) != PlanePoint(RATIONALS, (1, 2, 1))
    assert PlanePoint(F7, (1, 2, 1)) == PlanePoint(PrimeField(7), (8, 9, 15))


def test_reprs():
    assert repr(PlanePoint(F7, (1, 2, 1))) == "PlanePoint(field=F_7, coords=(1, 2, 1))"
    assert repr(PlaneLine(F7, (1, 0, 0))) == "PlaneLine(field=F_7, coeffs=(1, 0, 0))"
    assert repr(Point3(RATIONALS, (0, 2, 0, 0))) == (
        "Point3(field=Q, coords=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))"
    )
    assert repr(Plane3(F7, (0, 0, 0, 3))) == "Plane3(field=F_7, coeffs=(0, 0, 0, 1))"


@KINDS
def test_zero_vector_raises(cls, field):
    dim = 4 if cls in (Point3, Plane3) else 3
    zeros = [(0,) * dim, (Fraction(0, 5),) * dim]
    if field.characteristic:
        zeros.append((field.characteristic, -2 * field.characteristic) + (0,) * (dim - 2))
    for v in zeros:
        with pytest.raises(ValueError, match="projective coordinates cannot all vanish"):
            cls(field, v)
