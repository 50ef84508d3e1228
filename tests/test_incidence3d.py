"""3D reduction: point/plane building, incidences, collinearity, Beck split."""

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
    affine_map,
    beck_plane_classification,
    build_plane,
    build_point,
    c_slice,
    decompose_by_C,
    incidences,
    max_collinear_3d,
    max_on_line,
    parse_gen_spec,
    pointplane_bound_report,
    q_c_incidence_table,
    q_c_via_incidence,
    seeded_random,
)
from affine_energy.affine import max_on_nonvertical_line
from affine_energy.errors import ZeroC
from affine_energy.generators import GridSpec, generate
from affine_energy.incidence3d import collinear_bruteforce, incidences_bruteforce, slice_planes, slice_points

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
    with pytest.raises(ZeroC):
        q_c_via_incidence(A, Q.scalar(0))


def test_q_c_incidence_matches_decomposition_grid4():
    grid4 = generate(GridSpec(4), Q)
    dec = decompose_by_C(grid4)
    inc = q_c_incidence_table(grid4)
    assert dec == inc


def test_q_c_incidence_matches_decomposition_random(any_field):
    for seed in (7, 8):
        A = seeded_random(12, seed, any_field, "affine")
        assert q_c_incidence_table(A) == decompose_by_C(A)


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
    rep = pointplane_bound_report(IncidenceInstance.of(pts, planes), 101)
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

real = inc.slice_points


def duplicated(sl):
    pts = real(sl)
    return pts[:1] + pts[:-1]


inc.slice_points = cli.slice_points = duplicated
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
