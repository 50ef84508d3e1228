"""Exact field backends: prime fields F_p (odd p) and arbitrary-precision rationals.

Both backends sit behind the same small interface so the rest of the package
never branches on the field kind.  Raw representatives are plain hashable
Python values: an int residue in [0, p) for F_p, a reduced Fraction for Q.
The Scalar wrapper carries the field reference and supports operators; hot
counting loops work on the raw values directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple, Union

from .errors import InexactValue, NotInField, ParseError, ZeroDenominator, ZeroInverse
from .exactmath import render_fraction

Raw = Union[int, Fraction]
_ONE = Fraction(1)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve prime bases, exact
    for every n below 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frozen:
    """Base of the immutable value types.  A subclass names its attributes in
    __slots__; the constructor takes one value per attribute, in order, and
    a subclass that checks or converts them sets them in its own __init__,
    through _set unless it is hot.  An instance equals only one of its own
    class with equal attributes, hashes on them, refuses assignment, and
    pickles and copies through __init__.  The attributes are the slots of
    the class and of its bases, base first."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ()))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        self._set(*values)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"


class Field(Frozen):
    """Common interface; concrete backends are PrimeField and RationalField."""

    __slots__ = ()
    characteristic: int

    def reduce(self, value) -> Raw:
        raise NotImplementedError

    def add(self, x: Raw, y: Raw) -> Raw:
        raise NotImplementedError

    def sub(self, x: Raw, y: Raw) -> Raw:
        raise NotImplementedError

    def mul(self, x: Raw, y: Raw) -> Raw:
        raise NotImplementedError

    def neg(self, x: Raw) -> Raw:
        raise NotImplementedError

    def inv(self, x: Raw) -> Raw:
        raise NotImplementedError

    def div(self, x: Raw, y: Raw) -> Raw:
        return self.mul(x, self.inv(y))

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.reduce(value))

    def zero(self) -> "Scalar":
        return Scalar(self, self.reduce(0))

    def one(self) -> "Scalar":
        return Scalar(self, self.reduce(1))

    def render(self, x: Raw) -> str:
        """Text form accepted back by parse_scalar."""
        raise NotImplementedError

    def sort_key(self, x: Raw):
        """Total order on raw values, used for canonical report ordering."""
        return x


class PrimeField(Field):
    """F_p for an odd prime p < 2^63; residues are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 3 or p >= 2**63 or not _is_prime(p):
            raise ParseError(f"field order must be an odd prime < 2^63, got {p}")
        self._set(p)

    @property
    def characteristic(self) -> int:
        return self.p

    def reduce(self, value) -> int:
        if not isinstance(value, int):
            value = RATIONALS.reduce(value)  # a Fraction; a float raises InexactValue
            if value.denominator % self.p == 0:
                raise NotInField(f"denominator {value.denominator} vanishes mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        return value % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(x, -1, self.p)

    def render(self, x) -> str:
        return str(x)

    def __repr__(self):
        return f"F_{self.p}"


class RationalField(Field):
    """Q with arbitrary-precision reduced fractions."""

    __slots__ = ()

    @property
    def characteristic(self) -> int:
        return 0

    def reduce(self, value) -> Fraction:
        if isinstance(value, float):  # truncated mod p, or its binary fraction over Q: not the number meant
            raise InexactValue(f"{value!r} is a float; use an int or a Fraction")
        return Fraction(value)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroInverse("0 has no inverse")
        return _ONE / x  # Fraction / int or Fraction, with no Fraction(x) copy

    render = staticmethod(render_fraction)

    def __repr__(self):
        return "Q"


RATIONALS = RationalField()


class Scalar(Frozen):
    """Field element in canonical form; hashable, immutable, exact.  Equal
    Scalars share their field; the hash reads the raw value only."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: Raw):
        if type(value) is float:
            raise InexactValue(f"{value!r} is a float; use an int or a Fraction")
        _set_field(self, field)
        _set_value(self, value)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return self.value == other.value and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.field, self.field.div(self.value, other.value))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.neg(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __str__(self):
        return self.field.render(self.value)

    def __repr__(self):
        return f"{self.field.render(self.value)}@{self.field!r}"


_set_field, _set_value = Scalar.field.__set__, Scalar.value.__set__  # 40% faster than object.__setattr__


def cleared(char: int, values: Sequence[Raw]) -> Tuple[List[int], int]:
    """(ints, d): the raw values as integers at one scale d, each int d times
    its value; d = 1 over F_p, the lcm of the denominators over Q.  A vector
    cleared alone keeps its height; values compared across vectors share d."""
    if char:
        return list(values), 1
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def in_unit_interval(value, name: str) -> Fraction:
    """value as a Fraction in (0, 1]; a float raises InexactValue."""
    value = RATIONALS.reduce(value)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1]")
    return value


def field_inv(x: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroInverse on x = 0."""
    return x.inv()


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse a decimal integer or "num/den" literal into a canonical Scalar.

    Integers reduce mod p over F_p.  "num/den" is rejected with
    ZeroDenominator when den = 0 and with NotInField when den vanishes in the
    target prime field.
    """
    text = text.strip()
    if "/" in text:
        parts = text.split("/")
        if len(parts) != 2:
            raise ParseError(f"malformed fraction literal {text!r}")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"malformed fraction literal {text!r}") from exc
        if den == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return field.scalar(Fraction(num, den))
    try:
        n = int(text)
    except ValueError as exc:
        raise ParseError(f"malformed integer literal {text!r}") from exc
    return field.scalar(n)


def parse_field(text: str) -> Field:
    """Field declaration syntax: "Q" or "Fp:<prime>"."""
    text = text.strip()
    if text in ("Q", "q"):
        return RATIONALS
    if text.lower().startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise ParseError(f"malformed field spec {text!r}") from exc
        return PrimeField(p)
    raise ParseError(f"unknown field spec {text!r} (expected Q or Fp:<prime>)")
