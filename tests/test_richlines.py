"""Grid incidences, rich subsets, families, pencils, chains, Elekes bound."""

from fractions import Fraction

import pytest

from affine_energy import (
    AffineSet,
    GridInstance,
    PrimeField,
    RATIONALS,
    elekes_incidence_bound_check,
    grid_incidences,
    max_concurrent_pencil,
    max_parallel_family,
    pencil_bruteforce,
    rich_lines,
    seeded_random,
    structure_report,
)
from affine_energy.errors import TooFewLines
from affine_energy.generators import generate
from affine_energy.richlines import _grid_counts

Q = RATIONALS


def lines_of(pairs, field=Q):
    return AffineSet.from_pairs(field, pairs)


def inst_012(alpha):
    return GridInstance.square(Q, [0, 1, 2], lines_of([(1, -1), (1, 0), (1, 1)]), Fraction(alpha))


def test_grid_incidence_examples():
    single = GridInstance.square(Q, [0], lines_of([(1, 0)]), Fraction(1))
    per, total = grid_incidences(single)
    assert total == 1
    diag = GridInstance.square(Q, [0, 1, 2], lines_of([(1, 0)]), Fraction(1))
    _, t2 = grid_incidences(diag)
    assert t2 == 3
    per3, t3 = grid_incidences(inst_012(1))
    assert sorted(per3.values()) == [2, 2, 3]
    assert t3 == 7


def test_rich_lines_examples():
    assert len(rich_lines(inst_012(Fraction(2, 3)))) == 3
    rich1 = rich_lines(inst_012(1))
    assert len(rich1) == 1
    (line,) = rich1
    assert line.key() == (Fraction(1), Fraction(0))
    empty = GridInstance.square(Q, [0, 1], AffineSet(Q, []), Fraction(1, 2))
    assert len(rich_lines(empty)) == 0


def test_max_parallel_family():
    fam = max_parallel_family(lines_of([(1, 0), (1, 1), (1, 2)]))
    assert fam.slope == Q.scalar(1) and fam.size == 3
    fam2 = max_parallel_family(lines_of([(1, 0), (1, 1), (2, 0)]))
    assert fam2.slope == Q.scalar(1) and fam2.size == 2
    fam3 = max_parallel_family(lines_of([(1, 0), (2, 0), (3, 0)]))
    assert fam3.size == 1
    assert fam3.slope == Q.scalar(1)  # tie broken by smallest slope


def test_pencil_examples():
    pencil4 = lines_of([(1, 0), (2, -1), (3, -2), (5, -4)])  # through (1,1)
    pen = max_concurrent_pencil(pencil4)
    assert pen.point == (Q.scalar(1), Q.scalar(1))
    assert pen.size == 4
    assert pen == pencil_bruteforce(pencil4)

    parallel = lines_of([(1, 0), (1, 1), (1, 2)])
    degenerate = max_concurrent_pencil(parallel)
    assert degenerate.point is None and degenerate.size == 1
    assert degenerate == pencil_bruteforce(parallel)

    with pytest.raises(TooFewLines):
        max_concurrent_pencil(lines_of([(1, 0)]))

    # two pencils of three lines each, negative fractional slopes and
    # intercepts, tied; the smaller point (-1/2, 2/3) wins
    F = Fraction
    through = lambda x0, y0, slopes: [(a, y0 - a * x0) for a in slopes]
    tied = lines_of(
        through(F(3, 4), F(-5, 2), (F(-1, 3), F(-7, 2), 2))
        + through(F(-1, 2), F(2, 3), (F(-2, 5), F(-3), F(1, 7)))
        + [(F(-1, 3), F(4, 9)), (F(5, 6), F(-11, 4))]
    )
    pen = max_concurrent_pencil(tied)
    assert pen.point == (Q.scalar(F(-1, 2)), Q.scalar(F(2, 3))) and pen.size == 3
    assert pen == pencil_bruteforce(tied)


def test_rich_lines_match_full_grid_scan(any_field):
    """Independent route: enumerate every grid point against every line."""
    from affine_energy import seeded_random as sr

    lines = sr(10, 44, any_field, "affine")
    avals = {s.value for s in sr(6, 45, any_field, "scalar")}
    inst = GridInstance.square(any_field, avals, lines, Fraction(1, 3))
    per_line, total = grid_incidences(inst)
    f = any_field
    full = {
        l: sum(1 for s in inst.S for t in inst.T if f.add(f.mul(l.a.value, s), l.b.value) == t)
        for l in lines
    }
    assert per_line == full
    assert total == sum(full.values())
    thresh = -((-inst.alpha.numerator * len(avals)) // inst.alpha.denominator)
    assert set(rich_lines(inst).maps) == {l for l, c in full.items() if c >= thresh}


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=str)
def test_grid_counts_match_field_scan(field):
    """The integer grid count against field arithmetic, with fractional S, T
    and lines over Q and T values that no line reaches."""
    F = Fraction
    S = {field.reduce(v) for v in (F(1, 2), F(-2, 3), 3, F(5, 4), 0)}
    lines = [tuple(field.reduce(v) for v in l) for l in ((F(2, 5), F(-1, 3)), (-3, F(1, 2)), (F(-5, 2), 1), (1, 0))]
    reached = [field.add(field.mul(a, s), b) for a, b in lines for s in S]
    # over Q, r/1000003 is out of reach, but at the common scale of the
    # count its numerator is the key of r
    T = set(reached[::2]) | {field.div(r, field.reduce(1000003)) for r in reached[1::2]} | {field.reduce(F(-7, 9))}
    counts = _grid_counts(field, S, T, lines)
    assert counts == [sum(field.add(field.mul(a, s), b) in T for s in S) for a, b in lines]
    assert sum(counts) > 0


def test_pencil_matches_bruteforce(any_field):
    for seed in (2, 3, 4):
        lines = seeded_random(18, seed, any_field, "affine")
        assert max_concurrent_pencil(lines) == pencil_bruteforce(lines)


def test_structure_report_example_numbers():
    rep = structure_report(inst_012(Fraction(2, 3)))
    assert rep.k_rich == 3
    assert rep.family.size == 3
    chain = rep.parallel_chain
    assert chain.sum_over_B == 7
    assert chain.size_B == 3
    assert rep.e_plus == 19
    assert chain.sum_over_B**2 <= chain.size_B * rep.e_plus  # 49 <= 57


def test_structure_report_ap_family():
    avals = list(range(10))
    lines = lines_of([(1, b) for b in range(-3, 4)])
    inst = GridInstance.square(Q, avals, lines, Fraction(1, 2))
    rep = structure_report(inst)
    assert rep.parallel_chain is not None
    assert rep.parallel_chain.links_hold
    assert rep.alpha_guard_ok


def test_structure_report_single_rich_line():
    lines = lines_of([(1, 0), (7, -100)])
    inst = GridInstance.square(Q, [0, 1, 2], lines, Fraction(1))
    rep = structure_report(inst)
    assert rep.k_rich == 1
    assert rep.parallel_chain is not None
    assert rep.pencil is None  # a single rich line has no pencil


def test_structure_report_pencil_chain(any_field):
    # rich pencil through (1, 1) on A = {0,1,2,3}
    field = any_field
    avals = [0, 1, 2, 3]
    lines = AffineSet.from_pairs(field, [(1, 0), (2, -1), (3, -2)])
    inst = GridInstance.square(field, avals, lines, Fraction(1, 2))
    rep = structure_report(inst)
    assert rep.pencil is not None and rep.pencil.point is not None
    assert rep.pencil_chain is not None
    c = rep.pencil_chain
    assert c.sum_over_B**4 <= c.size_B**2 * rep.e_mul_x0 * rep.e_mul_y0


def test_structure_report_guards_char_p():
    F = PrimeField(101)
    avals = list(range(12))
    lines = AffineSet.from_pairs(F, [(1, b) for b in range(6)])
    inst = GridInstance.square(F, avals, lines, Fraction(1, 2))
    rep = structure_report(inst)
    assert rep.p_guard_ok is True
    tiny_alpha = GridInstance.square(F, avals, lines, Fraction(1, 100))
    rep2 = structure_report(tiny_alpha)
    assert rep2.alpha_guard_ok is False


def test_chains_hold_on_random_instances(any_field):
    for seed in (5, 6, 7, 8):
        lines = seeded_random(15, seed, any_field, "affine")
        avals = sorted(s.value for s in seeded_random(8, seed + 100, any_field, "scalar"))
        inst = GridInstance.square(any_field, avals, lines, Fraction(1, 4))
        rep = structure_report(inst)  # raises on any chain violation
        if rep.parallel_chain:
            assert rep.parallel_chain.links_hold
        if rep.pencil_chain:
            assert rep.pencil_chain.links_hold


def _direct_r(field, A, rep):
    """The chains' r on B by definition: #{x in A : gamma*x + b in A} for the
    family, #{w in W : beta*w + y0 in A} for the pencil, W = {a - x0 != 0}."""
    gamma = rep.family.slope.value
    fam = [sum(1 for x in A if field.add(field.mul(gamma, x), b.value) in A) for b in rep.family.intercepts]
    x0, y0 = (v.value for v in rep.pencil.point)
    W = [field.sub(a, x0) for a in A if a != x0]
    pen = [sum(1 for w in W if field.add(field.mul(beta.value, w), y0) in A) for beta in rep.pencil.slopes]
    return fam, pen


@pytest.mark.parametrize("field", [PrimeField(11), PrimeField(101), Q], ids=["F11", "F101", "Q"])
def test_chain_r_read_off_the_grid_count(field):
    """The r of both chains, read off per_line, equal their definitions: for
    the pencil, r(beta) = I(l_beta) - [x0 in A and y0 in A].  The pencil
    points of the built instances lie inside A x A, on one axis only, and
    outside; the seeded ones fall where they fall."""
    avals = [field.reduce(v) for v in range(7)]
    A = set(avals)
    instances = []
    for x0, y0 in ((1, 2), (0, -1), (-1, 0), (-2, -3)):
        pencil = [(beta, y0 - beta * x0) for beta in (1, 2, 3, 5)]
        family = [(1, b) for b in (-2, -1, 0)]
        instances.append(AffineSet.from_pairs(field, set(pencil + family)))
    instances += [seeded_random(14, seed, field, "affine") for seed in range(12)]
    seen = set()
    for lines in instances:
        rep = structure_report(GridInstance.square(field, avals, lines, Fraction(1, 4)))
        if rep.pencil_chain is None:
            continue
        fam, pen = _direct_r(field, A, rep)
        assert (rep.parallel_chain.sum_over_B, rep.parallel_chain.sum_sq_over_B) == (sum(fam), sum(r * r for r in fam))
        assert (rep.pencil_chain.sum_over_B, rep.pencil_chain.sum_sq_over_B) == (sum(pen), sum(r * r for r in pen))
        x0, y0 = (v.value for v in rep.pencil.point)
        seen.add(x0 in A and y0 in A)
    assert seen == {True, False}


def test_structure_report_counts_the_grid_once(count_calls):
    """Both chains take their r from the instance's one grid count."""
    calls = count_calls(_grid_counts)
    for field in (Q, PrimeField(101)):
        calls.clear()
        lines = AffineSet.from_pairs(field, [(a, b) for a in range(1, 5) for b in range(4)])
        rep = structure_report(GridInstance.square(field, range(8), lines, Fraction(1, 4)))
        assert rep.parallel_chain is not None and rep.pencil_chain is not None
        assert len(calls) == 1


def test_elekes_bound_check():
    A1 = lines_of([(1, 0)])
    rep = elekes_incidence_bound_check([0, 1, 2], [0, 1, 2], A1, Q)
    assert rep.incidence_count <= 3
    assert rep.ratio <= 1

    field = Q
    lineset = AffineSet.from_pairs(field, [(v, 0) for v in range(1, 13)])
    svals = list(range(12))
    rep2 = elekes_incidence_bound_check(svals, svals, lineset, field)
    assert rep2.s_size == rep2.t_size == 12
    assert rep2.ratio > 0

    F = PrimeField(101)
    linesp = AffineSet.from_pairs(F, [(v, 0) for v in range(1, 13)])
    rep3 = elekes_incidence_bound_check(svals, svals, linesp, F)
    assert rep3.characteristic == 101
    assert rep3.rhs > 0


def test_grid_instance_validation():
    with pytest.raises(ValueError):
        GridInstance.square(Q, [], lines_of([(1, 0)]), Fraction(1, 2))
    with pytest.raises(ValueError):
        GridInstance.square(Q, [0], lines_of([(1, 0)]), Fraction(3, 2))
