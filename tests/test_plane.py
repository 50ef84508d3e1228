"""Planar machinery: spans, shadows, normalization, quadrangles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_energy import (
    PlaneLine,
    PlanePoint,
    PrimeField,
    RATIONALS,
    apply_projective,
    beck_point_stats,
    energy,
    incidence_count,
    incident,
    join_points,
    meet_lines,
    normalize_two_lines,
    quadrangle_energy_correspondence,
    quadrangles,
    quadrangles_bruteforce,
    seeded_random,
    shadow,
    shadow_incidence_check,
    span_lines,
)
from affine_energy.errors import EqualLines, LineMeetsP, PointOnYAxis, TooFewPoints
from affine_energy.plane import plane_points_as_affine_set, reflect

Q = RATIONALS


def pt(x, y, field=Q):
    return PlanePoint.affine(field, x, y)


SQUARE = frozenset({pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)})


@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=4, max_size=4, unique=True)
)
@settings(max_examples=150)
def test_meet_join_duality_property(coords):
    p, q, r, s = (PlanePoint.affine(Q, x, y) for x, y in coords)
    if p == q or r == s:
        return
    l1, l2 = join_points(p, q), join_points(r, s)
    if l1 == l2:
        return
    x = meet_lines(l1, l2)
    assert incident(x, l1) and incident(x, l2)
    assert incident(p, l1) and incident(q, l1)


def test_meet_join_duality(any_field):
    pts = list(seeded_random(8, 11, any_field, "planar"))
    for i in range(0, 6, 2):
        p, q, r, s = pts[i], pts[i + 1], pts[(i + 2) % 8], pts[(i + 3) % 8]
        l1 = join_points(p, q)
        l2 = join_points(r, s)
        if l1 == l2:
            continue
        x = meet_lines(l1, l2)
        assert incident(x, l1) and incident(x, l2)


def test_span_lines_examples():
    assert len(span_lines({pt(0, 0), pt(1, 1)})) == 1
    assert len(span_lines(SQUARE)) == 6
    assert len(span_lines({pt(0, 0), pt(1, 1), pt(2, 2)})) == 1
    with pytest.raises(TooFewPoints):
        span_lines({pt(0, 0)})


def test_shadow_examples():
    line_x2 = PlaneLine.of(Q, (1, 0, -2))
    sh = shadow(SQUARE, line_x2)
    assert len(sh) == 5
    assert PlanePoint.of(Q, (0, 1, 0)) in sh  # the two vertical spanned lines
    assert len(shadow({pt(0, 0), pt(1, 1)}, line_x2)) == 1
    inf = shadow(SQUARE, PlaneLine.infinity(Q))
    assert len(inf) == 4
    with pytest.raises(LineMeetsP):
        shadow(SQUARE, PlaneLine.of(Q, (1, 0, 0)))


def test_shadow_size_at_most_spanned():
    pts = seeded_random(7, 2, Q, "planar")
    l = PlaneLine.of(Q, (1, 1, 1000))
    assert len(shadow(pts, l)) <= len(span_lines(pts))


def test_normalize_two_lines_trivial_is_identity():
    T = normalize_two_lines(PlaneLine.y_axis(Q), PlaneLine.infinity(Q))
    one = Q.reduce(1)
    zero = Q.reduce(0)
    assert T.rows == ((one, zero, zero), (zero, one, zero), (zero, zero, one))


@pytest.mark.parametrize(
    "l1,l2",
    [
        ((0, 1, 0), (1, 0, 0)),
        ((1, 0, -1), (0, 0, 1)),
        ((1, 2, 3), (4, 5, 6)),
        ((1, -1, 0), (1, 1, -7)),
    ],
)
def test_normalize_two_lines_images(l1, l2):
    la, lb = PlaneLine.of(Q, l1), PlaneLine.of(Q, l2)
    T = normalize_two_lines(la, lb)
    assert T.apply_line(la) == PlaneLine.y_axis(Q)
    assert T.apply_line(lb) == PlaneLine.infinity(Q)
    # lines through the intersection map to vertical lines (through (0:1:0))
    s = meet_lines(la, lb)
    other = join_points(s, pt(17, 23)) if not incident(pt(17, 23), la) else join_points(s, pt(18, 29))
    img = T.apply_line(other)
    assert incident(PlanePoint.of(Q, (0, 1, 0)), img)


def test_normalize_two_lines_origin_pencil():
    """Both lines through the origin: basis points of each line coincide
    projectively unless deduplicated (regression)."""
    l1, l2 = PlaneLine.of(Q, (1, -1, 0)), PlaneLine.of(Q, (1, 1, 0))
    T = normalize_two_lines(l1, l2)
    assert T.apply_line(l1) == PlaneLine.y_axis(Q)
    assert T.apply_line(l2) == PlaneLine.infinity(Q)


def test_normalize_two_lines_exhaustive_f3():
    """All ordered pairs of distinct lines of P^2(F_3), the tightest field."""
    import itertools

    F3 = PrimeField(3)
    lines = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a, b, c) != (0, 0, 0):
                    lines.add(PlaneLine.of(F3, (a, b, c)))
    assert len(lines) == 13
    for la, lb in itertools.permutations(sorted(lines, key=str), 2):
        T = normalize_two_lines(la, lb)
        assert T.apply_line(la) == PlaneLine.y_axis(F3)
        assert T.apply_line(lb) == PlaneLine.infinity(F3)


def test_normalize_two_lines_over_prime_field():
    F = PrimeField(5)
    la, lb = PlaneLine.of(F, (1, 2, 3)), PlaneLine.of(F, (2, 0, 1))
    T = normalize_two_lines(la, lb)
    assert T.apply_line(la) == PlaneLine.y_axis(F)
    assert T.apply_line(lb) == PlaneLine.infinity(F)
    with pytest.raises(EqualLines):
        normalize_two_lines(la, la)


def _shadow_outcome(P, l1, l2):
    try:
        return shadow_incidence_check(P, l1, l2)
    except (EqualLines, TooFewPoints) as exc:
        return type(exc)


@pytest.mark.parametrize("field", [Q, PrimeField(3), PrimeField(7), PrimeField(101)], ids=str)
def test_shadow_incidence_check_projective_invariance(field):
    """Every count of the shadow check is a projective invariant of (P, l1, l2):
    moving all three by an invertible map U changes no count and no error."""
    import random

    from affine_energy.plane import ProjectiveMap2

    rng = random.Random(field.characteristic + 5)

    def draw():
        while True:
            v = tuple(field.reduce(rng.randint(-4, 4)) for _ in range(3))
            if any(v):
                return v

    for _ in range(15):
        P = {PlanePoint.of(field, draw()) for _ in range(rng.randint(3, 9))}
        l1 = PlaneLine.of(field, draw())
        l2 = l1 if rng.random() < 0.15 else PlaneLine.of(field, draw())
        while True:
            try:
                U = ProjectiveMap2(field, (draw(), draw(), draw()))
                break
            except ValueError:  # singular
                pass
        moved = _shadow_outcome(apply_projective(U, P), U.apply_line(l1), U.apply_line(l2))
        assert moved == _shadow_outcome(P, l1, l2)


def test_normalize_two_lines_rows_exhaustive_f3():
    """Rows (l1, e, l2) with e a unit row, and l1^l2 sent to (0:1:0), on every
    ordered pair of distinct lines of P^2(F_3)."""
    import itertools

    F3 = PrimeField(3)
    units = {tuple(F3.reduce(int(i == j)) for j in range(3)) for i in range(3)}
    lines = {PlaneLine.of(F3, v) for v in itertools.product(range(3), repeat=3) if any(v)}
    for la, lb in itertools.permutations(sorted(lines, key=str), 2):
        T = normalize_two_lines(la, lb)
        assert T.rows[0] == la.coeffs and T.rows[2] == lb.coeffs and T.rows[1] in units
        assert T.apply_point(meet_lines(la, lb)) == PlanePoint.of(F3, (0, 1, 0))


def test_apply_projective_preserves_structure(any_field):
    pts = seeded_random(9, 13, any_field, "planar")
    la = PlaneLine.of(any_field, (1, 1, 1))
    lb = PlaneLine.infinity(any_field)
    kept = {p for p in pts if not incident(p, la) and not incident(p, lb)}
    if len(kept) < 3:
        return
    T = normalize_two_lines(la, lb)
    img = apply_projective(T, kept)
    assert len(img) == len(kept)
    assert len(span_lines(img)) == len(span_lines(kept))
    # no image point on the special lines
    for p in img:
        assert not incident(p, PlaneLine.y_axis(any_field))
        assert not incident(p, PlaneLine.infinity(any_field))


def test_identity_map_fixes_points():
    from affine_energy.plane import ProjectiveMap2

    one, zero = Q.reduce(1), Q.reduce(0)
    identity = ProjectiveMap2(Q, ((one, zero, zero), (zero, one, zero), (zero, zero, one)))
    assert apply_projective(identity, SQUARE) == set(SQUARE)


def test_collinearity_preserved_under_projective():
    T = normalize_two_lines(PlaneLine.of(Q, (1, 2, 3)), PlaneLine.of(Q, (3, 1, 1)))
    col = [pt(1, 1), pt(2, 2), pt(4, 4)]
    img = [T.apply_point(p) for p in col]
    assert incident(img[2], join_points(img[0], img[1]))


def test_shadow_incidence_check_examples():
    # generic five points
    rep = shadow_incidence_check(seeded_random(5, 7, Q, "planar"), PlaneLine.y_axis(Q), PlaneLine.infinity(Q))
    assert rep.lhs_nonvertical <= rep.rhs
    # grid-structured points
    grid = {pt(x, y) for x in range(1, 5) for y in range(1, 5)}
    rep2 = shadow_incidence_check(grid, PlaneLine.of(Q, (1, 1, 1)), PlaneLine.of(Q, (1, 2, 5)))
    assert rep2.lhs_nonvertical <= rep2.rhs
    # two points: equality of claim and grid count
    rep3 = shadow_incidence_check({pt(1, 1), pt(2, 3)}, PlaneLine.y_axis(Q), PlaneLine.infinity(Q))
    assert rep3.lhs_total == 2 and rep3.rhs == 2


def test_shadow_incidence_check_removes_points():
    pts = {pt(0, 3), pt(1, 1), pt(2, 3), pt(3, 7), pt(5, 2)}
    rep = shadow_incidence_check(pts, PlaneLine.y_axis(Q), PlaneLine.infinity(Q))
    assert rep.removed_points == 1
    assert rep.n_points == 4


def test_beck_point_stats_examples():
    stats = beck_point_stats({pt(0, 0), pt(1, 0), pt(0, 1)})
    assert stats.lines_total == 3
    assert set(stats.per_point.values()) == {2}
    col = beck_point_stats({pt(i, i) for i in range(5)})
    assert col.lines_total == 1
    assert set(col.per_point.values()) == {1}
    general = beck_point_stats(seeded_random(20, 17, Q, "planar"))
    if general.lines_total == 190:  # general position
        assert set(general.per_point.values()) == {19}
        assert general.rich_fraction == 1


def test_quadrangle_example_and_orbit():
    P = {pt(1, 0), pt(2, 1), pt(2, 2), pt(4, 4)}
    assert quadrangles(P) == 4
    assert quadrangles_bruteforce(P) == 4
    corr = quadrangle_energy_correspondence(P)
    assert corr.exhaustive
    assert corr.geometric == 4
    assert corr.energy_total == 32


def test_quadrangles_collinear_zero():
    assert quadrangles({pt(i, i + 1) for i in range(1, 5)}) == 0


def test_quadrangles_vertical_pair_counts():
    """Vertical opposite sides share the infinite y-axis point."""
    sq = {pt(1, 0), pt(2, 0), pt(1, 1), pt(2, 1)}
    assert quadrangles(sq) == quadrangles_bruteforce(sq) == 4
    corr = quadrangle_energy_correspondence(sq)
    assert corr.exhaustive and corr.geometric == 4


def test_quadrangles_over_prime_above_2_61():
    """The energy-identity count needs no table of size p."""
    F = PrimeField(2**61 - 1)
    for coords in (((1, 0), (2, 1), (2, 2), (4, 4)), ((1, 0), (2, 0), (1, 1), (2, 1))):
        P = {pt(x, y, F) for x, y in coords}
        assert quadrangles(P) == quadrangles_bruteforce(P) == 4
        corr = quadrangle_energy_correspondence(P)
        assert corr.exhaustive and corr.geometric == corr.quadrangle_count == 4


def test_quadrangles_match_oracle_on_grids_and_lines():
    F7 = PrimeField(7)
    sets = [
        {pt(x, y, F7) for x in range(1, 7) for y in range(7)},  # every affine point off the y-axis
        {pt(x, y, F7) for x in (1, 2, 4) for y in (0, 3, 5)},
        {pt(x, y) for x in (1, 2, 3, 4) for y in (1, 2, 4, 8)},
        {pt(x, 2 * x + 1) for x in range(1, 7)} | {pt(3, y) for y in range(5)} | {pt(5, 5)},
    ]
    for P in sets:
        assert quadrangles(P) == quadrangles_bruteforce(P)


def test_quadrangles_two_point_lines():
    """A two-point line has E(L) = 6, or 8 when it is non-vertical with
    slopes a and -a: (3, 0) and (4, 5) over F_7, where 3 + 4 wraps to 0, and
    (2, 1) and (-2, 3) over Q.  Alone, each pair spans no quadrangle; among
    three more points off its line, the count must match the oracle."""
    F7 = PrimeField(7)
    pinned = [
        ({pt(3, 0, F7), pt(4, 5, F7)}, {pt(1, 1, F7), pt(2, 6, F7), pt(5, 2, F7)}),
        ({pt(2, 1), pt(-2, 3)}, {pt(1, 1), pt(3, 7), pt(5, -2)}),
    ]
    cases = []
    for pair, rest in pinned:
        assert energy(plane_points_as_affine_set(pair)) == 8
        assert quadrangles(pair) == quadrangles_bruteforce(pair) == 0
        cases.append(pair | rest)
    cases += [seeded_random(n, seed, field, "planar") for field in (F7, PrimeField(101), Q) for n, seed in ((5, 1), (12, 2), (20, 3))]
    for P in cases:
        assert quadrangles(P) == quadrangles_bruteforce(P)


def test_quadrangles_rejects_y_axis():
    with pytest.raises(PointOnYAxis):
        quadrangles({pt(0, 1), pt(1, 1)})


def test_quadrangle_count_below_energy(any_field):
    from affine_energy import energy
    from affine_energy.plane import plane_points_as_affine_set

    for seed in (19, 23):
        P = seeded_random(12, seed, any_field, "planar")
        count = quadrangles(P)
        assert count <= energy(plane_points_as_affine_set(P))
        assert count == quadrangles_bruteforce(P)


def test_correspondence_vertical_coset():
    P = {pt(3, y) for y in range(5)}  # one vertical line
    corr = quadrangle_energy_correspondence(P)
    assert corr.quadrangle_count == 0
    assert corr.exhaustive
    assert corr.geometric == 0
    assert corr.energy_total == corr.trivial + corr.collinear


def test_correspondence_checks_against_oracle(monkeypatch):
    """Up to the oracle cap the partition is checked against the quadruple
    enumeration, not against the energy-identity count it shares terms with."""
    import affine_energy.plane as plane

    P = {pt(1, 0), pt(2, 1), pt(2, 2), pt(4, 4)}
    monkeypatch.setattr(plane, "quadrangles", lambda P: 4)
    monkeypatch.setattr(plane, "quadrangles_bruteforce", lambda P, cap: 5)
    corr = plane.quadrangle_energy_correspondence(P)
    assert corr.quadrangle_count == 5 and not corr.exhaustive


def test_correspondence_random(any_field):
    for seed in (29, 31):
        P = seeded_random(10, seed, any_field, "planar")
        corr = quadrangle_energy_correspondence(P)
        assert corr.exhaustive


def test_reflection_symmetry_of_grid_shadows():
    avals = (1, 2, 4, 7)
    P = {pt(x, y) for x in avals for y in avals}
    for coeffs in ((2, 5, 1), (1, 3, -17), (4, 9, 2)):
        l = PlaneLine.of(Q, coeffs)
        gl = reflect(l)
        assert len(shadow(P, l)) == len(shadow(P, gl))


def test_reflect_involution():
    p = pt(3, 5)
    assert reflect(reflect(p)) == p
    l = PlaneLine.of(Q, (1, 2, 3))
    assert reflect(reflect(l)) == l
    # gamma maps incidences to incidences
    assert incident(p, l) == incident(reflect(p), reflect(l))


def _collinear_rich_sets():
    """Grids and unions of lines over F_7 and Q, some with points at
    infinity, each with a line avoiding it."""
    F7 = PrimeField(7)
    at_infinity = [PlanePoint.of(F7, (1, s, 0)) for s in (0, 1, 3)] + [PlanePoint.of(F7, (0, 1, 0))]
    yield {pt(x, y, F7) for x in (1, 2) for y in (1, 2, 3)} | set(at_infinity), PlaneLine.of(F7, (1, 1, -6))
    yield {pt(x, y, F7) for x in (1, 2, 3) for y in (1, 2, 3)}, PlaneLine.of(F7, (1, 0, -5))
    yield {pt(x, 3 * x + 2, F7) for x in range(1, 7)} | {pt(2, y, F7) for y in range(7)}, PlaneLine.infinity(F7)
    yield {pt(x, y) for x in range(1, 5) for y in range(1, 5)}, PlaneLine.of(Q, (1, 0, -7))
    yield {pt(x, x) for x in range(1, 7)} | {pt(x, 7 - x) for x in range(1, 7)} | {pt(3, y) for y in range(-3, 4)}, PlaneLine.of(Q, (0, 1, -9))
    # unlike denominators in x and y, and a line y = x/2 - 1/3 through three points
    F = Fraction
    scattered = {pt(F(1, 2), F(1, 3)), pt(F(3, 4), F(-2, 5)), pt(F(5, 3), F(1, 7)), pt(1, F(3, 11)), pt(F(7, 2), 2)}
    yield scattered | {pt(x, x / 2 - F(1, 3)) for x in (F(1, 5), F(3, 7), F(-2, 9))}, PlaneLine.of(Q, (0, 1, -11))
    # the line y = 2x + 1 through its point at infinity, and the line at infinity
    at_infinity = {PlanePoint.of(Q, v) for v in ((1, 2, 0), (0, 1, 0), (1, F(-1, 2), 0))}
    on_line = {pt(x, 2 * x + 1) for x in (-1, 0, 1)}
    yield on_line | {pt(F(1, 2), F(1, 3)), pt(3, -2)} | at_infinity, PlaneLine.of(Q, (0, 1, -100))


def test_span_pass_against_incidence_scans():
    """Span-pass outputs against direct point-by-line scans over the joins."""
    for P, l in _collinear_rich_sets():
        P = list(P)
        joins = {join_points(p, q) for i, p in enumerate(P) for q in P[i + 1 :]}
        assert span_lines(P) == joins
        stats = beck_point_stats(P)
        assert stats.lines_total == len(joins)
        assert stats.per_point == {p: incidence_count({p}, joins) for p in P}
        assert len(shadow(P, l)) == len({meet_lines(line, l) for line in joins})

        field = P[0].field
        linf, ly = PlaneLine.infinity(field), PlaneLine.y_axis(field)
        for l1, l2 in ((ly, linf), (PlaneLine.of(field, (1, 1, 1)), PlaneLine.of(field, (1, 2, 5)))):
            kept = [p for p in P if not incident(p, l1) and not incident(p, l2)]
            rep = shadow_incidence_check(P, l1, l2)
            assert rep.removed_points == len(P) - len(kept)
            img = apply_projective(normalize_two_lines(l1, l2), kept)
            lines = {join_points(p, q) for p in img for q in img if p != q}
            assert rep.lhs_total == incidence_count(img, lines)
            assert rep.lhs_nonvertical == incidence_count(img, {line for line in lines if line.coeffs[1] != 0})
            assert rep.s_size + rep.s_dropped_infinite == len({meet_lines(line, linf) for line in lines})
            assert rep.t_size + rep.t_dropped_infinite == len({meet_lines(line, ly) for line in lines})
            # rhs = I(S x T, img) in field arithmetic: slopes s from the
            # direction points (1 : s : 0), intercepts t from (0 : t : 1)
            dirs = [meet_lines(line, linf).coords for line in lines]
            S = {field.div(d[1], d[0]) for d in dirs if d[0] != 0}
            T = {m.coords[1] for m in (meet_lines(line, ly) for line in lines) if m.coords[2] != 0}
            assert rep.rhs == sum(field.sub(q.coords[1], field.mul(q.coords[0], s)) in T for q in img for s in S)
