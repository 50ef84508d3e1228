"""3D reduction: point/plane building, incidences, collinearity, Beck split."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affine_energy import (
    AffineSet,
    IncidenceInstance,
    Plane3,
    Point3,
    PrimeField,
    RATIONALS,
    Scalar,
    affine_map,
    beck_plane_classification,
    build_plane,
    build_point,
    c_slice,
    decompose_bruteforce,
    decompose_by_C,
    incidences,
    main_bound_report,
    max_collinear_3d,
    max_concurrent_pencil,
    max_on_line,
    parse_gen_spec,
    pencil_bruteforce,
    pointplane_bound_report,
    q_c_incidence_table,
    q_c_via_incidence,
    quotient_stats,
    seeded_random,
    top_slice_reports,
)
from affine_energy.affine import _chart_points, max_on_nonvertical_line
from affine_energy.cli import main
from affine_energy.energy import _SetTable
from affine_energy.errors import ZeroC
from affine_energy.files import write_affine_set
from affine_energy.generators import GridSpec, generate
from affine_energy.incidence3d import (
    _collinear3,
    _raw_slices,
    collinear_bruteforce,
    incidences_bruteforce,
    slice_planes,
    slice_points,
)
from affine_energy import projective
from affine_energy.projective import canon_int, lines, max_collinear
from affine_energy.reports import pointplane_report_jsonable, render_field

Q = RATIONALS
GENERAL_FIELDS = [Q, PrimeField(7), PrimeField(101)]


def _random_coords(rng, field, n, zero_at):
    """n random nonzero 4-vectors; about a third have coordinate `zero_at`
    set to 0.  Over Q the entries include fractions and negatives."""
    out = []
    while len(out) < n:
        if field.characteristic:
            v = [rng.randrange(field.characteristic) for _ in range(4)]
        else:
            v = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        if rng.random() < 0.35:
            v[zero_at] = 0
        if any(v):
            out.append(v)
    return out


def _general_points(rng, field, n):
    return [Point3.of(field, v) for v in _random_coords(rng, field, n, zero_at=3)]


def _general_planes(rng, field, n):
    return [Plane3.of(field, v) for v in _random_coords(rng, field, n, zero_at=2)]


def test_build_point_examples():
    assert build_point(affine_map(Q, 1, 0), affine_map(Q, 1, 0)) == Point3.of(Q, (1, 0, 0, 1))
    assert build_point(affine_map(Q, 2, 3), affine_map(Q, 5, 7)) == Point3.of(Q, (2, 3, 14, 1))


def test_build_plane_examples():
    assert build_plane(affine_map(Q, 1, 0), affine_map(Q, 1, 0)) == Plane3.of(Q, (0, -1, -1, 0))
    assert build_plane(affine_map(Q, 2, 2), affine_map(Q, 2, 1)) == Plane3.of(Q, (2, -2, -1, 2))


def test_projective_scaling_identifies():
    assert Plane3.of(Q, (2, -2, -1, 2)) == Plane3.of(Q, (-4, 4, 2, -4))
    assert Point3.of(Q, (2, 3, 14, 1)) == Point3.of(Q, (4, 6, 28, 2))


def test_incidence_examples():
    assert incidences([Point3.of(Q, (0, 0, 0, 1))], [Plane3.of(Q, (0, 0, 1, 0))]) == 1
    assert incidences([Point3.of(Q, (1, 0, 0, 1))], [Plane3.of(Q, (1, 0, 0, 0))]) == 0


def test_incidence_paths_agree(any_field):
    pts = [Point3.of(any_field, (x, y, (x * y) % 7, 1)) for x in range(1, 8) for y in range(1, 8)]
    planes = [Plane3.of(any_field, (a, b, -1, 1)) for a in range(1, 8) for b in range(1, 8)]
    # canonical field coordinates against the raw integer path of incidences
    field = any_field
    direct = 0
    for p in set(pts):
        for c in set(planes):
            dot = field.reduce(0)
            for x, y in zip(p.coords, c.coeffs):
                dot = field.add(dot, field.mul(x, y))
            direct += dot == 0
    assert incidences(pts, planes) == direct


@pytest.mark.parametrize("field", GENERAL_FIELDS, ids=str)
def test_incidences_match_bruteforce_general(field):
    """Bucketed count against the all-pairs oracle on general sets, with
    points on x3 = 0 and planes with c2 = 0."""
    rng = random.Random(f"incidences:{field}")
    for _ in range(40):
        pts = _general_points(rng, field, rng.randint(0, 30))
        planes = _general_planes(rng, field, rng.randint(0, 30))
        assert incidences(pts, planes) == incidences_bruteforce(pts, planes)
    # a full plane-and-line configuration, where many incidences hit
    pts = [Point3.of(field, (x, y, 0, w)) for x in range(3) for y in range(3) for w in (0, 1) if (x, y, w) != (0, 0, 0)]
    planes = [Plane3.of(field, (0, 0, 1, 0)), Plane3.of(field, (1, 0, 0, 0)), Plane3.of(field, (0, 0, 0, 1))]
    assert incidences(pts, planes) == incidences_bruteforce(pts, planes)


def test_build_point_injective_on_slices(any_field):
    for seed in (3, 4):
        A = seeded_random(16, seed, any_field, "affine")
        for C in decompose_by_C(A):
            sl = c_slice(A, C)
            assert len(set(slice_points(sl))) == len(sl)
            assert len(set(slice_planes(sl))) == len(sl)


def test_max_collinear_examples():
    assert max_collinear_3d([Point3.of(Q, (0, 0, 0, 1))]) == 1
    line_pts = [Point3.of(Q, (t, 0, 0, 1)) for t in range(1, 6)]
    assert max_collinear_3d(line_pts) == 5
    assert collinear_bruteforce(line_pts) == 5


def test_max_collinear_matches_bruteforce(any_field):
    for seed in (0, 5):
        A = seeded_random(12, seed, any_field, "affine")
        C = next(iter(decompose_by_C(A)))
        pts = slice_points(c_slice(A, C))
        assert max_collinear_3d(pts) == collinear_bruteforce(pts)


@pytest.mark.parametrize("field", GENERAL_FIELDS, ids=str)
def test_max_collinear_general_points(field):
    """Anchors with x3 = 0 take the Pluecker key; the rest the chart key."""
    rng = random.Random(f"collinear:{field}")
    for _ in range(25):
        pts = _general_points(rng, field, rng.randint(0, 14))
        assert max_collinear_3d(pts) == collinear_bruteforce(pts)
    # a rich line inside x3 = 0 and one meeting it
    on_plane = [Point3.of(field, (1, t, 2 * t, 0)) for t in range(5)]
    crossing = [Point3.of(field, (t, t, 0, 1)) for t in range(1, 4)] + [Point3.of(field, (1, 1, 0, 0))]
    for pts in (on_plane, on_plane + crossing):
        assert max_collinear_3d(pts) == collinear_bruteforce(pts)
    # three collinear points and one off the line, in every set order: the
    # anchor loop may stop early only once no later line can beat the best
    for _ in range(30):
        a, b, off = _random_coords(rng, field, 3, zero_at=3)
        mid = [x + y for x, y in zip(a, b)]
        if any(mid):
            pts = [Point3.of(field, v) for v in (a, b, mid, off)]
            assert max_collinear_3d(pts) == collinear_bruteforce(pts)


@pytest.mark.parametrize("field", GENERAL_FIELDS, ids=str)
def test_lines_match_rank_test(field):
    """Each line through two or more points appears once, with every point
    that the rank test puts on it; about a third of the anchors have x3 = 0."""
    rng = random.Random(f"lines:{field}")
    char = field.characteristic
    for _ in range(30):
        a, b = _random_coords(rng, field, 2, zero_at=3)
        rich = [[field.reduce(x + t * y) for x, y in zip(a, b)] for t in (0, 1, 2, 3)] + [b]
        coords = _random_coords(rng, field, rng.randint(0, 12), zero_at=3) + [v for v in rich if any(v)]
        raws = list({Point3.of(field, v).raw(): None for v in coords})
        rng.shuffle(raws)
        covered = set()
        for members in lines(char, raws):
            p, q = raws[members[0]], raws[members[1]]
            assert members == [i for i, r in enumerate(raws) if _collinear3(char, p, q, r)]
            pairs = {(i, j) for i in members for j in members if i < j}
            assert not pairs & covered
            covered |= pairs
        assert len(covered) == len(raws) * (len(raws) - 1) // 2


def test_max_collinear_dual_instance(any_field):
    """The dual points pointplane_bound_report builds from plane coefficients
    (u2 : -u1 : -1 : u1*h2), whose x3 vanishes where h2 = 0."""
    for seed in (2, 9):
        A = seeded_random(12, seed, any_field, "affine")
        for C in list(decompose_by_C(A))[:4]:
            dual = [Point3(pl.field, pl.coeffs) for pl in slice_planes(c_slice(A, C))]
            assert max_collinear_3d(dual) == collinear_bruteforce(dual)
    prod = generate(parse_gen_spec("affprod:gp(1,2,4)xap(0,1,4)"), any_field)
    C = max(decompose_by_C(prod), key=lambda C: len(c_slice(prod, C)))
    dual = [Point3(pl.field, pl.coeffs) for pl in slice_planes(c_slice(prod, C))]
    assert any(p.coords[3] == 0 for p in dual)
    assert max_collinear_3d(dual) == collinear_bruteforce(dual)


def test_q_c_via_incidence_examples():
    A = AffineSet.from_pairs(Q, [(1, 0), (2, 0)])
    assert q_c_via_incidence(A, Q.scalar(2)) == 4
    assert q_c_via_incidence(AffineSet.from_pairs(Q, [(1, 0)]), Q.scalar(1)) == 1
    assert q_c_via_incidence(A, Q.scalar(3)) == 0  # C not realized
    with pytest.raises(ZeroC):
        q_c_via_incidence(A, Q.scalar(0))


def test_q_c_via_incidence_counts_one_slice(count_calls):
    """q_c_via_incidence builds and counts only the slice of its C."""
    import affine_energy.incidence3d as inc

    A = AffineSet.from_pairs(Q, [(a, b) for a in (1, 2, 3) for b in (0, 1, 5)])
    calls = count_calls(inc._incidences)
    for C, q in decompose_by_C(A).items():
        before = len(calls)
        assert q_c_via_incidence(A, C) == q
        assert len(calls) == before + 1


def test_q_c_incidence_matches_decomposition_grid4():
    grid4 = generate(GridSpec(4), Q)
    dec = decompose_by_C(grid4)
    inc = q_c_incidence_table(grid4)
    assert dec == inc


def test_q_c_incidence_matches_decomposition_random(any_field):
    for seed in (7, 8):
        A = seeded_random(12, seed, any_field, "affine")
        assert q_c_incidence_table(A) == decompose_by_C(A)


def _slice_sets():
    """F_11 grid:7 (slope products wrap mod 11), an F_11 GPxAP set with the
    intercept 0, random F_101 sets, and a Q set with negative fractional
    slopes and intercepts."""
    yield generate(GridSpec(7), PrimeField(11))
    yield generate(parse_gen_spec("affprod:gp(1,2,6)xap(0,1,3)"), PrimeField(11))
    for seed in (1, 2, 3):
        yield seeded_random(20, seed, PrimeField(101), "affine")
    F = Fraction
    pairs = [(F(-1, 2), F(3, 4)), (F(-1, 2), F(-5, 3)), (F(2, 3), F(-1, 7)), (F(-3), F(1, 2)), (F(-3), F(-2)), (F(1, 5), 0)]
    pairs += [(F(2, 3), F(5, 2)), (F(-2, 3), F(-5, 2)), (F(3, 2), F(1, 3)), (F(-1, 2), 7), (4, F(-1, 4)), (F(-1, 3), F(1, 9))]
    yield AffineSet.from_pairs(Q, pairs)


def _reference_instance(A, C):
    sl = c_slice(A, C)
    return IncidenceInstance.of(slice_points(sl), slice_planes(sl))


def test_raw_slices_match_slice_objects():
    """The builder's tuples name the points and planes of
    slice_points/slice_planes on every realized C (their canon_int keys are
    the objects' raw()), and its keys are the C's of decompose_by_C."""
    for A in _slice_sets():
        field = A.field
        char = field.characteristic
        slices = _raw_slices(_SetTable(A))
        assert list(slices) == [C.value for C in decompose_by_C(A)]
        for c, (pts, planes, _) in slices.items():
            sl = c_slice(A, Scalar(field, c))
            assert sorted(canon_int(char, t) for t in pts) == sorted(p.raw() for p in slice_points(sl))
            assert sorted(canon_int(char, t) for t in planes) == sorted(pl.raw() for pl in slice_planes(sl))
        some = set(list(slices)[::3])
        assert _raw_slices(_SetTable(A), some) == {c: v for c, v in slices.items() if c in some}


def _scaled_sets():
    """Sets whose slices join layers of several scales: over F_7 the slope
    products wrap around; over Q the classes hold intercepts of distinct
    denominators, and slopes x, 1/x, -x, 2x, x/2 share the slices C = 1, -1
    and x*y across many layers."""
    yield seeded_random(30, 1, PrimeField(7), "affine")
    yield generate(parse_gen_spec("affprod:gp(1,3,5)xap(0,2,4)"), PrimeField(7))
    yield seeded_random(40, 2, PrimeField(101), "affine")
    yield generate(GridSpec(6), PrimeField(101))
    F = Fraction
    slopes = [F(1, 2), F(2), F(3, 4), F(4, 3), F(-2, 3), F(-3, 2), F(1), F(-1), F(5, 7), F(7, 5), F(3, 8)]
    intercepts = [F(1, 3), F(-5, 7), 2, F(1, 5), F(-2, 9), F(7, 11), 0, F(1, 6), F(-1, 10), F(9, 4)]
    pairs = [(x, intercepts[(i * j) % len(intercepts)]) for i, x in enumerate(slopes) for j in range(1 + i % 4)]
    yield AffineSet.from_pairs(Q, pairs)
    yield generate(parse_gen_spec("affprod:gp(1,2,5)xap(0,1,3)"), Q)
    yield seeded_random(30, 3, Q, "affine")


def test_raw_slices_one_tuple_per_projective_point(refuse):
    """Within a slice, distinct tuples are distinct projective points and
    planes, over F_7, F_101 and Q; and the slice route runs over Q with no
    canon_int call."""
    sets = list(_scaled_sets())
    for A in sets:
        char = A.field.characteristic
        slices = _raw_slices(_SetTable(A))
        assert any(len(layers) > 1 for _, _, layers in slices.values())
        for pts, planes, _ in slices.values():
            assert len(set(pts)) == len({canon_int(char, t) for t in pts})
            assert len(set(planes)) == len({canon_int(char, t) for t in planes})
    expected = [{C.value: q for C, q in decompose_bruteforce(A).items()} for A in sets]
    refuse(canon_int, "the slice route clears each class; it keys nothing")
    for A, exp in zip(sets, expected):
        _raw_slices(_SetTable(A))
        assert {C.value: q for C, q in q_c_incidence_table(A).items()} == exp


def _tall_set():
    """39 maps over Q with numerators and denominators near 10^24: seven
    slopes and their inverses (slice C = 1 joins their layers), classes of
    one to four intercepts with distinct denominators, and six maps on one
    line, b = m*a + c, so six lines through one point."""
    rng = random.Random(24)
    H = 10**24

    def tall():
        return Fraction(rng.randint(-H, H), rng.randint(H // 10, H)) or Fraction(1, H)

    slopes = [tall() for _ in range(7)]
    slopes += [1 / x for x in slopes]
    pairs = [(x, tall()) for i, x in enumerate(slopes) for _ in range(1 + i % 4)]
    m, c = Fraction(rng.randint(1, 10**6)), Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
    line = [Fraction(rng.randint(1, 10**18), rng.randint(1, 10**18)) for _ in range(6)]
    return AffineSet.from_pairs(Q, pairs + [(a, m * a + c) for a in line])


def test_rationals_of_large_height():
    """On maps of height near 10^24 the slice route, M and the pencil agree
    with their oracles, and each chart point of M keeps the height of its
    own map: no entry grows with the number of maps."""
    A = _tall_set()
    assert len(A) == 39
    assert {C.value: q for C, q in q_c_incidence_table(A).items()} == {
        C.value: q for C, q in decompose_bruteforce(A).items()
    }
    assert max_on_line(A) == 6 == collinear_bruteforce([Point3.of(Q, (a, b, 0, 1)) for a, b in (g.key() for g in A)])
    pencil = max_concurrent_pencil(A)
    assert pencil == pencil_bruteforce(A) and pencil.size == 6
    keys = [g.key() for g in A]
    h = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for key in keys for v in key)
    assert max(abs(e).bit_length() for pt in _chart_points(Q, keys) for e in pt) <= 2 * h


def _layered_sets():
    """Slices where a transversal wins, where a layer wins, and ties."""
    gen = lambda spec, field: generate(parse_gen_spec(spec), field)  # noqa: E731
    yield gen("affprod:gp(1,2,6)xap(0,1,2)", Q)  # (x, 0, 0) collinear across the layers
    yield gen("grid:7", Q)
    yield gen("grid:7", PrimeField(11))  # slope products wrap around
    yield gen("affprod:gp(1,3,4)xap(0,2,3)", PrimeField(101))
    # classes of 4, 1, 2 and 1 intercepts: a layer's term is the larger side
    yield AffineSet.from_pairs(Q, [(1, b) for b in range(4)] + [(2, 0), (3, 0), (3, 5), (6, 1)])
    yield AffineSet.from_pairs(Q, [(1, 0), (2, 0)])  # 1- and 2-point slices
    for seed in (1, 2):
        yield seeded_random(30, seed, Q, "affine")
        yield seeded_random(30, seed, PrimeField(101), "affine")


def test_layered_k_matches_anchor_loop_and_oracle():
    """k from a slice's layers equals the layer-free anchor loop and, on
    slices of up to 30 points, collinear_bruteforce; it is the larger of the
    largest layer term and the longest line through two layers."""
    kinds = set()
    for A in _layered_sets():
        field = A.field
        char = field.characteristic
        for pts, _, layers in _raw_slices(_SetTable(A)).values():
            k = max_collinear(char, pts, layers)
            assert k == max_collinear(char, pts)
            if len(pts) <= 30:
                assert k == collinear_bruteforce([Point3.of(field, t) for t in pts])
            # each layer lies in one plane x0 = x*x3, with x distinct per layer
            starts = [0] + [stop for stop, _ in layers[:-1]]
            layer_of = [li for li, (start, (stop, _)) in enumerate(zip(starts, layers)) for _ in range(start, stop)]
            assert len(layer_of) == len(pts)
            ratio = lambda t: field.div(field.reduce(t[0]), field.reduce(t[3]))  # noqa: E731
            xs = [{ratio(t) for t in pts[start:stop]} for start, (stop, _) in zip(starts, layers)]
            assert all(len(x) == 1 for x in xs) and len(set().union(*xs)) == len(layers)
            term = max(t for _, t in layers)
            transversal = max((len(m) for m in lines(char, pts) if len({layer_of[i] for i in m}) > 1), default=1)
            assert k == max(term, transversal)
            kinds.add((len(pts) if len(pts) <= 2 else 3, (transversal > term) - (transversal < term)))
    assert {(3, 1), (3, 0), (3, -1), (1, 0), (2, 1)} <= kinds


def test_layered_k_edge_cases():
    assert max_collinear(0, [], []) == 0
    assert max_collinear(0, [(1, 0, 0, 1)], [(1, 1)]) == 1
    assert max_collinear(0, [(1, 0, 0, 1), (1, 1, 0, 1)], [(2, 2)]) == 2
    assert max_collinear(0, [(1, 0, 0, 1), (2, 0, 0, 1)], [(1, 1), (2, 1)]) == 2
    # three layers of term 2 with a 3-point transversal: a stop one layer
    # early would report 2
    A = generate(parse_gen_spec("affprod:gp(1,2,6)xap(0,1,2)"), Q)
    pts, _, layers = _raw_slices(_SetTable(A))[4]
    assert (len(layers), max(t for _, t in layers)) == (3, 2)
    assert max_collinear(0, pts, layers) == 3


def test_layered_k_work(monkeypatch):
    """An anchor pairs only with the points of later layers, and the search
    stops once the layers left cannot beat the best line: no pairs at all
    where a layer term reaches the number of layers."""
    calls = []
    line_keys = projective._line_keys
    monkeypatch.setattr(projective, "_line_keys", lambda char, a, qs: calls.append(len(qs)) or line_keys(char, a, qs))
    A = generate(parse_gen_spec("affprod:gp(1,2,6)xap(0,1,2)"), Q)
    pts, _, layers = _raw_slices(_SetTable(A))[32]
    assert [stop for stop, _ in layers] == [4, 8, 12, 16, 20, 24]
    assert max_collinear(0, pts, layers) == 6  # found from the first layer, then 5 layers cannot beat it
    assert calls == [20] * 4
    calls.clear()
    grid = generate(GridSpec(7), Q)
    for pts, _, layers in _raw_slices(_SetTable(grid)).values():
        assert len(layers) <= 7 == max(t for _, t in layers)
        assert max_collinear(0, pts, layers) == 7
    assert calls == []


def test_slice_reports_match_object_route(tmp_path):
    """top_slice_reports and the per-C k and q_via_incidence of `cli
    incidence` against pointplane_bound_report on the Point3/Plane3 slice;
    the pointplane block of `cli boundcheck`, read from the job's one set
    table, against top_slice_reports on main_bound_report, each building
    its own."""
    for A in _slice_sets():
        field = A.field
        dec = decompose_by_C(A)
        for C, rep in top_slice_reports(quotient_stats(A)[2], 4):
            assert rep == pointplane_bound_report(_reference_instance(A, C))

        path, out = tmp_path / "set.txt", tmp_path / "incidence.json"
        path.write_text(write_affine_set(field, A))
        assert main(["incidence", "--input", str(path), "--field", render_field(field), "--cthresh", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert main(["boundcheck", "--input", str(path), "--field", render_field(field), "--out", str(out)]) == 0
        top = top_slice_reports(main_bound_report(A).per_c, 3)
        expected = [(field.render(C.value), json.loads(json.dumps(pointplane_report_jsonable(r)))) for C, r in top]
        assert list(json.loads(out.read_text())["pointplane"].items()) == expected and len(expected) == min(3, len(dec))
        for C in dec:
            ref = pointplane_bound_report(_reference_instance(A, C))
            row = report["per_c"][field.render(C.value)]
            assert (row["k"], row["q_via_incidence"], row["slice"]) == (ref.k, ref.incidence_count, ref.n_points)
        size = max(len(c_slice(A, C)) for C in dec)
        largest = next(C for C in dec if len(c_slice(A, C)) == size)  # first largest in canonical order
        inst = _reference_instance(A, largest)
        rows = beck_plane_classification(inst.points, inst.planes, cthresh=3)
        beck = report["beck_planes_largest_slice"]
        assert beck["slice_c"] == field.render(largest.value)
        assert (beck["type_i"], beck["type_ii"], beck["planes_with_pairs"]) == (
            sum(r.label == "type-i" for r in rows),
            sum(r.label == "type-ii" for r in rows),
            len(rows),
        )


def test_k_at_most_M_on_slices(any_field):
    """Projection argument: collinear 3D points project to collinear maps."""
    for seed in (1, 2):
        A = seeded_random(14, seed, any_field, "affine")
        M = max_on_line(A)
        for C in list(decompose_by_C(A))[:6]:
            pts = slice_points(c_slice(A, C))
            assert max_collinear_3d(pts) <= M


def test_vertical_line_caveat():
    """A z-axis-parallel line of P_C holds exactly #{v in A : v1 = C/x0}
    points for each anchor g = (x0, y0); with a rich vertical family this
    exceeds the non-vertical line maximum."""
    pairs = [(1, i) for i in range(8)] + [(2, 0), (3, 1), (5, 9)]
    A = AffineSet.from_pairs(Q, pairs)
    m_vertical_fibre = 8
    M_nonvert = max_on_nonvertical_line(A)
    assert M_nonvert < m_vertical_fibre
    C = Q.scalar(1)  # anchors g with g1 = 1 pair with all v1 = 1 maps
    pts = slice_points(c_slice(A, C))
    k = max_collinear_3d(pts)
    assert k == m_vertical_fibre  # z-line through (1, y0) collects the fibre
    assert k > M_nonvert
    # and the count law: points (1, y0, z) with varying z, one per v2
    zline = [p for p in pts if p.coords[0] == 1 and p.coords[1] == 0]
    assert len(zline) == m_vertical_fibre


def test_pointplane_report_single():
    inst = IncidenceInstance.of([Point3.of(Q, (0, 0, 0, 1))], [Plane3.of(Q, (0, 0, 1, 0))])
    rep = pointplane_bound_report(inst)
    assert rep.incidence_count == 1
    assert rep.rhs == 2
    assert rep.ratio == Fraction(1, 2)


def test_pointplane_report_pencil_tightness():
    k = 4
    pts = [Point3.of(Q, (t, 0, 0, 1)) for t in range(1, k + 1)]
    planes = [Plane3.of(Q, (0, 1, t, 0)) for t in range(6)]
    inst = IncidenceInstance.of(pts, planes)
    rep = pointplane_bound_report(inst)
    assert rep.incidence_count == k * len(planes)
    assert rep.k == k
    assert rep.ratio == Fraction(k * 6, 6 * 2 + k * 6)


def test_pointplane_report_swaps_roles():
    pts = [Point3.of(Q, (x, y, 0, 1)) for x in range(3) for y in range(3)]
    planes = [Plane3.of(Q, (0, 0, 1, 0))]
    rep = pointplane_bound_report(IncidenceInstance.of(pts, planes))
    assert rep.swapped
    assert rep.incidence_count == 9


def test_pointplane_char_p_correction():
    F = PrimeField(101)
    pts = [Point3.of(F, (x, y, x * y, 1)) for x in range(1, 6) for y in range(1, 6)]
    planes = [Plane3.of(F, (a, b, -1, 1)) for a in range(1, 6) for b in range(1, 6)]
    rep = pointplane_bound_report(IncidenceInstance.of(pts, planes))
    assert rep.p_constraint_ok is True
    assert rep.ratio_corrected == (Fraction(rep.incidence_count) - Fraction(25 * 25, 101)) / rep.rhs


def test_beck_classification_examples():
    plane_z0 = Plane3.of(Q, (0, 0, 1, 0))
    three = [Point3.of(Q, (t, t, 0, 1)) for t in range(3)]
    (row,) = beck_plane_classification(three, [plane_z0], cthresh=3)
    assert row.ordered_pairs == 6 and row.max_pairs_one_line == 6 and row.label == "type-i"

    tri = [Point3.of(Q, (0, 0, 0, 1)), Point3.of(Q, (1, 0, 0, 1)), Point3.of(Q, (0, 1, 0, 1))]
    (row,) = beck_plane_classification(tri, [plane_z0], cthresh=3)
    assert row.max_pairs_one_line == 2
    assert row.pairs_on_sparse_lines == 6
    assert row.label == "type-ii"

    assert beck_plane_classification([Point3.of(Q, (0, 0, 0, 1))], [plane_z0], cthresh=3) == []
    with pytest.raises(ValueError):
        beck_plane_classification(three, [plane_z0], cthresh=1)


def _in_span(field, rows):
    """Predicate: is a vector in the span of the (independent) rows?  Row
    reduction in field arithmetic."""
    basis = []  # (pivot column, row scaled so the pivot is 1)

    def reduce(v):
        for col, row in basis:
            if v[col] != 0:
                f = v[col]
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        return v

    for r in rows:
        v = reduce(list(r))
        col = next(i for i, x in enumerate(v) if x != 0)
        inv = field.inv(v[col])
        basis.append((col, [field.mul(inv, x) for x in v]))
    return lambda v: not any(x != 0 for x in reduce(list(v)))


def _dot_is_zero(field, p, plane):
    dot = field.reduce(0)
    for x, c in zip(p.coords, plane.coeffs):
        dot = field.add(dot, field.mul(x, c))
    return dot == 0


@pytest.mark.parametrize("field", [Q, PrimeField(1009)], ids=str)
def test_beck_classification_matches_line_membership(field):
    """Every PlaneStats row on a grid:6 slice against lines found by scanning
    all point pairs of each plane in field arithmetic."""
    A = generate(GridSpec(6), field)
    C = max(decompose_by_C(A), key=lambda C: (len(c_slice(A, C)), field.sort_key(C.value)))
    sl = c_slice(A, C)
    P, Pi = set(slice_points(sl)), set(slice_planes(sl))
    rows = {row.plane: row for row in beck_plane_classification(P, Pi, cthresh=3)}
    expected = {}
    for plane in Pi:
        on = [p for p in P if _dot_is_zero(field, p, plane)]
        t = len(on)
        if t <= 1:
            continue
        lines = set()
        for i, p in enumerate(on):
            for q in on[i + 1 :]:
                if not any(p in m and q in m for m in lines):
                    on_line = _in_span(field, [p.coords, q.coords])
                    lines.add(frozenset(r for r in on if on_line(r.coords)))
        sizes = [len(m) for m in lines]
        max_line = max(s * (s - 1) for s in sizes)
        expected[plane] = (
            t,
            t * (t - 1),
            max_line,
            sum(s * (s - 1) for s in sizes if s < 3),
            "type-i" if 2 * max_line >= t * (t - 1) else "type-ii",
        )
    assert expected and any(e[2] > 2 for e in expected.values())
    got = {
        plane: (r.points_on_plane, r.ordered_pairs, r.max_pairs_one_line, r.pairs_on_sparse_lines, r.label)
        for plane, r in rows.items()
    }
    assert got == expected


_BREACH = """
import sys
import affine_energy.cli as cli
import affine_energy.incidence3d as inc
from affine_energy import AffineSet, RATIONALS
from affine_energy.errors import InvariantViolation

energy = sys.modules["affine_energy.energy"]
real = energy._slope_classes


def repeated(pairs):
    # each class repeats its intercepts, so two pairs of a slice give one tuple
    return [(x, bs + bs) for x, bs in real(pairs)]


energy._slope_classes = repeated
print("optimize", sys.flags.optimize)
try:
    inc.q_c_via_incidence(AffineSet.from_pairs(RATIONALS, [(1, 0), (2, 0)]), RATIONALS.scalar(2))
except InvariantViolation:
    print("raised")
sys.exit(cli.main(["incidence", "--gen", "grid:3", "--field", "Q"]))
"""


def test_invariant_violation_survives_optimize():
    """A slice map made non-injective raises InvariantViolation under
    python -O, and the CLI exits 4 with an error line, no traceback."""
    import affine_energy

    src = str(Path(affine_energy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _BREACH], capture_output=True, text=True, env=env)
    assert proc.stdout.split("\n")[:2] == ["optimize 1", "raised"]
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
