"""Generator constructions, PRNG reproducibility, spec-string parsing."""

import pytest

from affine_energy import (
    APSpec,
    AffProductSpec,
    GPSpec,
    GridSpec,
    ParabolaSpec,
    PlanePoint,
    PrimeField,
    RATIONALS,
    Xorshift64Star,
    generate,
    generate_with_stats,
    max_on_line,
    max_on_vertical,
    parse_gen_spec,
    seeded_random,
)
from affine_energy.errors import CannotFill, InvalidSpec, ParseError, SlopeZero

Q = RATIONALS


def test_xorshift_reference_values():
    """First outputs for seed 1; frozen so any PRNG change is loud."""
    rng = Xorshift64Star(1)
    assert [rng.next_u64() for _ in range(3)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]


def test_grid_examples():
    g2 = generate(GridSpec(2), Q)
    assert {m.key() for m in g2} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for n in range(2, 8):
        grid = generate(GridSpec(n), Q)
        assert max_on_line(grid) == n
        assert max_on_vertical(grid) == n


def test_grid_mod_p_dedup_reported():
    F5 = PrimeField(5)
    with pytest.raises(SlopeZero):
        generate(GridSpec(5), F5)  # slope 5 = 0 mod 5
    grid4, dupes = generate_with_stats(GridSpec(4), F5)
    assert dupes == 0 and len(grid4) == 16


def test_affproduct():
    spec = AffProductSpec(GPSpec(1, 2, 3), APSpec(0, 1, 3))
    A = generate(spec, Q)
    assert len(A) == 9
    assert {m.a.value for m in A} == {1, 2, 4}
    with pytest.raises(SlopeZero):
        generate(AffProductSpec(APSpec(0, 1, 3), APSpec(0, 1, 3)), Q)


def test_parabola():
    pts = generate(ParabolaSpec(APSpec(1, 1, 3)), Q)
    assert pts == {PlanePoint.affine(Q, 1, 1), PlanePoint.affine(Q, 2, 4), PlanePoint.affine(Q, 3, 9)}


def test_progression_invariants():
    with pytest.raises(InvalidSpec):
        generate(APSpec(0, 0, 3), Q)
    with pytest.raises(InvalidSpec):
        generate(GPSpec(0, 2, 3), Q)
    with pytest.raises(InvalidSpec):
        generate(GPSpec(1, 0, 3), Q)


def test_seeded_random_determinism(any_field):
    a = seeded_random(10, 42, any_field, "affine")
    b = seeded_random(10, 42, any_field, "affine")
    assert a == b
    assert seeded_random(1, 0, any_field, "affine")
    c = seeded_random(10, 43, any_field, "affine")
    assert a != c


def test_seeded_random_exhaustion():
    F5 = PrimeField(5)
    full = seeded_random(5 * 4, 1, F5, "affine")
    assert len(full) == 20  # the whole group Aff(F_5)
    with pytest.raises(CannotFill):
        seeded_random(21, 1, F5, "affine")


def test_seeded_random_checks_kind_before_capacity():
    """An unknown kind is named as such, even when n is above what any kind
    could draw from the field."""
    with pytest.raises(InvalidSpec, match="unknown random kind"):
        seeded_random(5, 1, PrimeField(3), "bogus")
    with pytest.raises(CannotFill):
        seeded_random(5, 1, PrimeField(3), "scalar")


def test_seeded_random_planar_avoids_y_axis(any_field):
    pts = seeded_random(12, 3, any_field, "planar")
    assert all(p.coords[0] != 0 and p.is_affine for p in pts)


def test_parse_gen_spec_roundtrip():
    for text in (
        "grid:5",
        "affprod:gp(1,2,6)xap(0,1,6)",
        "parabola:ap(1,1,20)",
        "randaff:100:seed=7",
        "randplanar:16:seed=3",
        "ap(0,2,9)",
        "gp(3,2,4)",
    ):
        spec = parse_gen_spec(text)
        assert str(spec) == text and parse_gen_spec(str(spec)) == spec


def test_parse_gen_spec_errors():
    for bad in ("grid:x", "affprod:ap(1,1,2)", "mystery:3", "randaff:5:sneed=1", "ap(1,2)"):
        with pytest.raises(ParseError):
            parse_gen_spec(bad)
