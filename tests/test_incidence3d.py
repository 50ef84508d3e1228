"""3D reduction: point/plane building, incidences, collinearity, Beck split."""

from fractions import Fraction

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
    pointplane_bound_report,
    q_c_incidence_table,
    q_c_via_incidence,
    seeded_random,
)
from affine_energy.affine import max_on_nonvertical_line
from affine_energy.errors import ZeroC
from affine_energy.generators import GridSpec, generate
from affine_energy.incidence3d import collinear_bruteforce, slice_planes, slice_points

Q = RATIONALS


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
