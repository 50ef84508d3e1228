"""Deterministic constructions and seeded pseudo-random sets.

The PRNG is xorshift64* (shifts 12, 25, 27; multiplier 0x2545F4914F6CDD1D),
seeded directly with the user seed (seed 0 is remapped to the nonzero
constant 0x9E3779B97F4A7C15).  Draws below a bound n use next() % n.  No
platform entropy enters anywhere, so outputs are bit-identical across runs
and implementations.

Rational random draws use integer coordinates from the window [-50, 50]
(slopes skip 0); prime-field draws use residues, slopes skipping 0.
"""

from __future__ import annotations

from typing import List, Union

from .affine import AffineSet, affine_map
from .errors import CannotFill, InvalidSpec, ParseError, SlopeZero
from .fields import Field, Frozen, Scalar
from .plane import PlanePoint

MASK64 = (1 << 64) - 1
_SEED_FILL = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D

RATIONAL_WINDOW = 50  # rational draws take integers in [-50, 50]


class Xorshift64Star:
    """xorshift64* with the standard (12, 25, 27) triple."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or _SEED_FILL

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & MASK64

    def below(self, n: int) -> int:
        return self.next_u64() % n


class _Spec(Frozen):
    """A generator spec; str() gives its CLI text, which parse_gen_spec
    reads back: the class's _text formatted with the spec."""

    __slots__ = ()

    def __str__(self):
        return self._text.format(self)


class APSpec(_Spec):
    __slots__ = ("start", "step", "n")
    _text = "ap({0.start},{0.step},{0.n})"


class GPSpec(_Spec):
    __slots__ = ("start", "ratio", "n")
    _text = "gp({0.start},{0.ratio},{0.n})"


class GridSpec(_Spec):
    __slots__ = ("n",)
    _text = "grid:{0.n}"


class AffProductSpec(_Spec):
    __slots__ = ("slopes", "intercepts")  # APSpec or GPSpec each
    _text = "affprod:{0.slopes}x{0.intercepts}"


class ParabolaSpec(_Spec):
    __slots__ = ("values",)  # APSpec or GPSpec
    _text = "parabola:{0.values}"


class RandomAffSpec(_Spec):
    __slots__ = ("n", "seed")
    _text = "randaff:{0.n}:seed={0.seed}"


class RandomPlanarSpec(_Spec):
    __slots__ = ("n", "seed")
    _text = "randplanar:{0.n}:seed={0.seed}"


GenSpec = Union[APSpec, GPSpec, GridSpec, AffProductSpec, ParabolaSpec, RandomAffSpec, RandomPlanarSpec]


def _progression_values(spec: Union[APSpec, GPSpec], field: Field) -> List:
    if spec.n < 1:
        raise InvalidSpec("progression length must be >= 1")
    out = []
    if isinstance(spec, APSpec):
        if spec.step == 0:
            raise InvalidSpec("arithmetic progression needs step != 0")
        v = field.reduce(spec.start)
        step = field.reduce(spec.step)
        for _ in range(spec.n):
            out.append(v)
            v = field.add(v, step)
    else:
        if spec.ratio == 0:
            raise InvalidSpec("geometric progression needs ratio != 0")
        if spec.start == 0:
            raise InvalidSpec("geometric progression elements must be nonzero")
        v = field.reduce(spec.start)
        ratio = field.reduce(spec.ratio)
        if ratio == 0:
            raise InvalidSpec("ratio vanishes in the field")
        for _ in range(spec.n):
            if v == 0:
                raise InvalidSpec("geometric progression hit zero in the field")
            out.append(v)
            v = field.mul(v, ratio)
    return out


def generate_with_stats(spec: GenSpec, field: Field):
    """(generated object, number of duplicates collapsed by field reduction)."""
    if isinstance(spec, (APSpec, GPSpec)):
        vals = _progression_values(spec, field)
        out = {Scalar(field, v) for v in vals}
        return out, len(vals) - len(out)
    if isinstance(spec, GridSpec):
        if spec.n < 1:
            raise InvalidSpec("grid side must be >= 1")
        pairs = [(a, b) for a in range(1, spec.n + 1) for b in range(1, spec.n + 1)]
        maps = []
        for a, b in pairs:
            ra = field.reduce(a)
            if ra == 0:
                raise SlopeZero(f"grid slope {a} vanishes mod {field.characteristic}")
            maps.append(affine_map(field, a, b))
        out = AffineSet(field, maps)
        return out, len(pairs) - len(out)
    if isinstance(spec, AffProductSpec):
        slopes = _progression_values(spec.slopes, field)
        if any(v == 0 for v in slopes):
            raise SlopeZero("slope set of an affine product must avoid 0")
        inters = _progression_values(spec.intercepts, field)
        maps = [affine_map(field, a, b) for a in slopes for b in inters]
        out = AffineSet(field, maps)
        return out, len(maps) - len(out)
    if isinstance(spec, ParabolaSpec):
        vals = _progression_values(spec.values, field)
        pts = [PlanePoint.affine(field, v, field.mul(v, v)) for v in vals]
        out = set(pts)
        return out, len(pts) - len(out)
    if isinstance(spec, RandomAffSpec):
        return seeded_random(spec.n, spec.seed, field, "affine"), 0
    if isinstance(spec, RandomPlanarSpec):
        return seeded_random(spec.n, spec.seed, field, "planar"), 0
    raise InvalidSpec(f"unknown generator spec {spec!r}")


def generate(spec: GenSpec, field: Field):
    """The configuration named by the spec (dedup statistics dropped)."""
    return generate_with_stats(spec, field)[0]


def _draw_scalar(rng: Xorshift64Star, field: Field, nonzero: bool):
    if field.characteristic:
        p = field.characteristic
        if nonzero:
            return 1 + rng.below(p - 1)
        return rng.below(p)
    span = 2 * RATIONAL_WINDOW + 1
    while True:
        v = rng.below(span) - RATIONAL_WINDOW
        if not nonzero or v != 0:
            return field.reduce(v)


def _capacity(field: Field, kind: str) -> int:
    if field.characteristic:
        p = field.characteristic
        return p * (p - 1) if kind in ("affine", "planar") else p
    span = 2 * RATIONAL_WINDOW + 1
    return (span - 1) * span if kind in ("affine", "planar") else span


def seeded_random(n: int, seed: int, field: Field, kind: str = "affine"):
    """Exactly n distinct elements, reproducible from (n, seed, field, kind).

    kind "affine": AffineSet (slope nonzero); "planar": PlanePoint set
    avoiding the y-axis; "scalar": set of Scalar.
    """
    if n < 1:
        raise InvalidSpec("need n >= 1")
    if kind not in ("affine", "planar", "scalar"):
        raise InvalidSpec(f"unknown random kind {kind!r}")
    if n > _capacity(field, kind):
        raise CannotFill(f"cannot draw {n} distinct elements of kind {kind!r} from {field!r}")
    rng = Xorshift64Star(seed)
    out: set = set()
    while len(out) < n:
        if kind == "scalar":
            out.add(Scalar(field, _draw_scalar(rng, field, nonzero=False)))
            continue
        x = _draw_scalar(rng, field, nonzero=True)
        y = _draw_scalar(rng, field, nonzero=False)
        out.add(PlanePoint.affine(field, x, y) if kind == "planar" else affine_map(field, x, y))
    return AffineSet(field, out) if kind == "affine" else out


# ---------------------------------------------------------------------------
# CLI spec strings, e.g. "grid:5", "affprod:gp(1,2,6)xap(0,1,6)",
# "parabola:ap(1,1,20)", "randaff:100:seed=7", "randplanar:16:seed=3"


def _parse_progression(text: str) -> Union[APSpec, GPSpec]:
    text = text.strip().lower()
    for prefix, cls in (("ap(", APSpec), ("gp(", GPSpec)):
        if text.startswith(prefix) and text.endswith(")"):
            body = text[len(prefix) : -1]
            parts = [s.strip() for s in body.split(",")]
            if len(parts) != 3:
                raise ParseError(f"progression needs 3 arguments: {text!r}")
            try:
                a, b, c = (int(s) for s in parts)
            except ValueError as exc:
                raise ParseError(f"malformed progression {text!r}") from exc
            return cls(a, b, c)
    raise ParseError(f"expected ap(start,step,n) or gp(start,ratio,n), got {text!r}")


def parse_gen_spec(text: str) -> GenSpec:
    text = text.strip()
    if text.lower().startswith(("ap(", "gp(")):
        return _parse_progression(text)
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "grid":
        try:
            return GridSpec(int(rest))
        except ValueError as exc:
            raise ParseError(f"malformed grid spec {text!r}") from exc
    if head == "affprod":
        lo = rest.lower()
        split = lo.find(")x")
        if split == -1:
            raise ParseError(f"affprod needs '<prog>x<prog>', got {text!r}")
        return AffProductSpec(_parse_progression(rest[: split + 1]), _parse_progression(rest[split + 2 :]))
    if head == "parabola":
        return ParabolaSpec(_parse_progression(rest))
    if head in ("randaff", "randplanar"):
        parts = rest.split(":")
        try:
            n = int(parts[0])
            seed = 0
            for extra in parts[1:]:
                key, _, val = extra.partition("=")
                if key.strip() != "seed":
                    raise ParseError(f"unknown option {extra!r}")
                seed = int(val)
        except ValueError as exc:
            raise ParseError(f"malformed random spec {text!r}") from exc
        return RandomAffSpec(n, seed) if head == "randaff" else RandomPlanarSpec(n, seed)
    raise ParseError(f"unknown generator kind {text!r}")
