"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria (zero tolerance unless stated):
 1. oracle equivalence on 200 seeded sets per field, < 5 min;
 2. exact identities on every tested set;
 3. incidence-reduction exactness + per-slice injectivity on the oracle suite;
 4. grid slice values |C_C| = 2n^2, M = n, Q_C >= E+([n]);
 5. GPxAP energy ratio nondecreasing and >= 1/8;
 6. golden-file ceilings for the two bound ratios;
 7. Cauchy-Schwarz chains exact on every rich-line instance;
 8. quadrangle/energy partition on 100 seeded planar sets;
 9. shadow machinery (grid injection, square example, reflection symmetry);
10. byte-identical reports, including maximum parallelism.
"""

import json
import time
from fractions import Fraction

import golden_suite
import pytest
from affine_energy import (
    APSpec,
    AffProductSpec,
    GPSpec,
    GridSpec,
    PlaneLine,
    PlanePoint,
    PrimeField,
    RATIONALS,
    Xorshift64Star,
    c_slice,
    decompose_by_C,
    decompose_bruteforce,
    energy,
    energy_asym,
    energy_asym_bruteforce,
    energy_bruteforce,
    energy_star,
    generate,
    max_concurrent_pencil,
    max_on_line,
    max_on_vertical,
    pencil_bruteforce,
    product_set,
    q_c_incidence_table,
    quadrangle_energy_correspondence,
    quadrangles,
    quadrangles_bruteforce,
    scalar_energy_add,
    seeded_random,
    shadow,
    shadow_incidence_check,
    structure_report,
)
from affine_energy.plane import plane_points_as_affine_set, reflect
from affine_energy.richlines import GridInstance
from affine_energy.cli import main as cli_main

F101 = PrimeField(101)
F1009 = PrimeField(1009)
Q = RATIONALS
FIELDS = [("F101", F101), ("F1009", F1009), ("Q", Q)]

RESULTS = []
_STARTED = {}


@pytest.fixture(autouse=True)
def _criterion_clock():
    _STARTED["t"] = time.time()
    yield


def record(num, text):
    """One summary line per criterion, with the criterion's elapsed time."""
    RESULTS.append((num, f"{text} [{time.time() - _STARTED['t']:.1f} s]"))


def oracle_suite_sets(field, count=200, base_seed=0):
    """The criterion-1/3 instance stream: sizes drawn from {5..40}."""
    rng = Xorshift64Star(base_seed + 991)
    for i in range(count):
        n = 5 + rng.below(36)
        nb = 5 + rng.below(36)
        A = seeded_random(n, base_seed + i, field, "affine")
        B = seeded_random(nb, base_seed + 10_000 + i, field, "affine")
        yield A, B


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for _, field in FIELDS:
        for A, B in oracle_suite_sets(field):
            assert energy(A) == energy_bruteforce(A, "E")
            assert energy_star(A) == energy_bruteforce(A, "Estar")
            assert energy_asym(A, B) == energy_asym_bruteforce(A, B)
            assert decompose_by_C(A) == decompose_bruteforce(A)
            P = {PlanePoint.affine(field, g.a.value, g.b.value) for g in A}
            assert quadrangles(P) == quadrangles_bruteforce(P)
            assert max_concurrent_pencil(A) == pencil_bruteforce(A)
            checked += 1
    elapsed = time.time() - t0
    assert checked == 600
    assert elapsed < 300, f"oracle suite took {elapsed:.1f}s, budget is 300s"
    record(1, f"PASS oracle equivalence on {checked} sets")


def identity_suite():
    for name, field in FIELDS:
        for seed in range(40):
            yield f"rand-{name}:{seed}", seeded_random(12 + (seed % 14), seed, field, "affine")
    for n in range(3, 13):
        yield f"grid:{n}", generate(GridSpec(n), Q)
    for n in range(4, 13):
        yield f"affprod:{n}", generate(AffProductSpec(GPSpec(1, 2, n), APSpec(0, 1, n)), Q)


def test_criterion_2_exact_identities():
    checked = 0
    for label, A in identity_suite():
        n = len(A)
        E = energy(A)
        Es = energy_star(A)
        dec = decompose_by_C(A)
        assert sum(dec.values()) == E, label
        m = max_on_vertical(A)
        slice_sizes = [len(c_slice(A, C)) for C in dec]
        assert sum(slice_sizes) == n * n, label
        assert all(s <= m * n for s in slice_sizes), label
        assert Es <= E, label
        assert E * len(product_set(A, A, "AinvB")) >= n**4, label
        assert Es * len(product_set(A, A, "AB")) >= n**4, label
        checked += 1
    record(2, f"PASS exact identities on {checked} sets")


def test_criterion_3_incidence_reduction():
    checked = 0
    for _, field in FIELDS:
        for A, _ in oracle_suite_sets(field):
            # q_c_incidence_table asserts per-slice injectivity internally
            assert q_c_incidence_table(A) == decompose_by_C(A)
            checked += 1
    record(3, f"PASS incidence reduction exact on {checked} sets")


def test_criterion_4_grid_slice_values():
    primes = [2, 3, 5, 7, 11]
    for n in range(3, 13):
        grid = generate(GridSpec(n), Q)
        assert max_on_line(grid) == n
        dec = decompose_by_C(grid)
        eplus = scalar_energy_add({Q.scalar(v) for v in range(1, n + 1)})
        for p in primes:
            if p > n:
                break
            assert len(c_slice(grid, Q.scalar(p))) == 2 * n * n
            assert dec[Q.scalar(p)] >= eplus
    record(4, "PASS grid slice values for n in 3..12")


def test_criterion_5_affproduct_energy_floor():
    prev = None
    floor = Fraction(1, 8)
    for n in range(4, 13):
        A = generate(AffProductSpec(GPSpec(1, 2, n), APSpec(0, 1, n)), Q)
        ratio = Fraction(energy(A), max_on_line(A) * len(A) ** 2)
        assert ratio >= floor, f"n={n}: {ratio} < 1/8"
        if prev is not None:
            assert ratio >= prev, f"n={n}: ratio decreased {prev} -> {ratio}"
        prev = ratio
    record(5, "PASS GPxAP ratio nondecreasing and >= 1/8 for n in 4..12")


def test_criterion_6_golden_ceilings():
    golden = golden_suite.load_golden()
    main_ratios, pp_ratios = golden_suite.compute_ratios()
    ceiling_main = Fraction(golden["ratio_main_max"])
    ceiling_pp = Fraction(golden["pp_ratio_max"])
    for label, r in main_ratios.items():
        assert r <= ceiling_main, f"{label}: main ratio {r} above ceiling {ceiling_main}"
    for label, r in pp_ratios.items():
        assert r <= ceiling_pp, f"{label}: point-plane ratio {r} above ceiling {ceiling_pp}"
    record(6, f"PASS ratio ceilings ({ceiling_main} / {ceiling_pp}) over {len(main_ratios)} instances")


def richline_instances():
    for name, field in FIELDS:
        for seed in range(12):
            lines = seeded_random(14, seed + 300, field, "affine")
            avals = {s.value for s in seeded_random(8, seed + 400, field, "scalar")}
            yield GridInstance.square(field, avals, lines, Fraction(1, 4))
    # structured: parallel families and pencils on an AP grid
    avals = list(range(10))
    from affine_energy import AffineSet

    yield GridInstance.square(Q, avals, AffineSet.from_pairs(Q, [(1, b) for b in range(-4, 5)]), Fraction(1, 2))
    yield GridInstance.square(
        Q, avals, AffineSet.from_pairs(Q, [(m, 1 - m) for m in range(1, 8)]), Fraction(1, 5)
    )  # pencil through (1, 1)


def test_criterion_7_cs_chains():
    checked = 0
    for inst in richline_instances():
        rep = structure_report(inst)  # chain violations raise inside
        if rep.parallel_chain is not None:
            c = rep.parallel_chain
            assert c.sum_over_B**2 <= c.size_B * rep.e_plus
        if rep.pencil_chain is not None:
            c = rep.pencil_chain
            assert c.sum_over_B**4 <= c.size_B**2 * rep.e_mul_x0 * rep.e_mul_y0
        checked += 1
    record(7, f"PASS Cauchy-Schwarz chains exact on {checked} rich-line instances")


def test_criterion_8_quadrangle_partition():
    sizes = [6, 9, 12, 16]
    checked = 0
    for i in range(100):
        field = FIELDS[i % 3][1]
        P = seeded_random(sizes[i % 4], i + 600, field, "planar")
        corr = quadrangle_energy_correspondence(P)
        assert corr.exhaustive, f"instance {i}"
        assert corr.energy_total == energy(plane_points_as_affine_set(P))
        checked += 1
    assert checked == 100
    record(8, "PASS quadrangle/energy partition on 100 planar sets")


def test_criterion_9_shadow_machinery():
    # (a) grid-injection inequality on 100 seeded instances
    line_pairs = {
        0: lambda f: (PlaneLine.y_axis(f), PlaneLine.infinity(f)),
        1: lambda f: (PlaneLine.of(f, (1, 1, 1)), PlaneLine.of(f, (1, 2, 5))),
    }
    total_form_held = 0
    for i in range(100):
        field = FIELDS[i % 3][1]
        pts = seeded_random(5 + (i % 8), i + 800, field, "planar")
        l1, l2 = line_pairs[i % 2](field)
        rep = shadow_incidence_check(pts, l1, l2)  # asserts lhs_nonvertical <= rhs
        assert rep.lhs_nonvertical <= rep.rhs
        if rep.lhs_total == rep.lhs_nonvertical:
            assert rep.lhs_total <= rep.rhs
            total_form_held += 1
    # (b) the square/{x=2} shadow has exactly 5 points
    square = {PlanePoint.affine(Q, x, y) for x in (0, 1) for y in (0, 1)}
    assert len(shadow(square, PlaneLine.of(Q, (1, 0, -2)))) == 5
    # (c) reflection symmetry of A x A shadows on 50 seeded instances
    from affine_energy import incident

    rng = Xorshift64Star(12345)
    done = 0
    while done < 50:
        avals = seeded_random(4 + rng.below(4), 900 + done, Q, "scalar")
        P = {PlanePoint.affine(Q, x.value, y.value) for x in avals for y in avals}
        coeffs = (1 + rng.below(9), 2 + rng.below(9), 1 + rng.below(50))
        l = PlaneLine.of(Q, coeffs)
        gl = reflect(l)
        if l == gl or any(incident(p, l) or incident(p, gl) for p in P):
            continue
        assert len(shadow(P, l)) == len(shadow(P, gl))
        done += 1
    record(9, f"PASS shadow machinery (grid injection 100/100, total form {total_form_held}/100, symmetry 50/50)")


def test_criterion_10_determinism(tmp_path):
    import io
    from contextlib import redirect_stdout

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    for argv in (
        ["energy", "--gen", "grid:4", "--field", "Fp:101", "--format", "json"],
        ["boundcheck", "--gen", "randaff:16:seed=3", "--field", "Q"],
        ["richlines", "--gen", "affprod:ap(1,1,4)xap(-2,1,5)", "--set-a", "ap(0,1,6)", "--alpha", "1/3", "--field", "Q"],
    ):
        assert run(argv) == run(argv)

    seq = tmp_path / "seq.csv"
    par = tmp_path / "par.csv"
    base = ["sweep", "--gen", "affprod:gp(1,2,N)xap(0,1,N)", "--range", "N=3..8", "--field", "Q"]
    assert cli_main(base + ["--out", str(seq)]) == 0
    assert cli_main(base + ["--jobs", "8", "--out", str(par)]) == 0
    assert seq.read_bytes() == par.read_bytes()
    record(10, "PASS byte-identical reports, sequential and 8-way parallel")
