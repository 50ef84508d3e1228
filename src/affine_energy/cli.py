"""Batch CLI: energy reports, decompositions, incidence reductions, shadows,
quadrangles, rich lines, bound checks, sweeps and oracle diffs.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch, 4 invariant
violation.  Reports are byte-stable for a fixed configuration; see
docs/formats.md for schemas.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .affine import AffineSet, max_on_vertical
from .energy import (
    c_slice,
    decompose_by_C,
    decompose_bruteforce,
    energy,
    energy_bruteforce,
    energy_star,
    main_bound_report,
    quotient_stats,
)
from .errors import InvariantViolation
from .exactmath import render_fraction
from .fields import Field, parse_field, parse_scalar
from .files import read_affine_set, read_grid_instance, read_planar_set
from .generators import (
    APSpec,
    GPSpec,
    RandomAffSpec,
    RandomPlanarSpec,
    generate_with_stats,
    parse_gen_spec,
    render_gen_spec,
)
from .incidence3d import (
    IncidenceInstance,
    beck_plane_classification,
    pointplane_bound_report,
    q_c_incidence_table,
    slice_planes,
    slice_points,
    top_slice_reports,
)
from .plane import (
    PlaneLine,
    PlanePoint,
    beck_point_stats,
    quadrangle_energy_correspondence,
    quadrangles,
    quadrangles_bruteforce,
    shadow_incidence_check,
)
from .richlines import (
    GridInstance,
    elekes_incidence_bound_check,
    max_concurrent_pencil,
    pencil_bruteforce,
    structure_report,
)
from . import reports
from .reports import dump_csv, dump_json, render_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_INVARIANT = 4

FIELD_ENV = "AFFINE_ENERGY_FIELD"


class ConfigError(Exception):
    pass


def _resolve_field(args) -> Field:
    text = args.field or os.environ.get(FIELD_ENV)
    if not text:
        raise ConfigError("no field given (use --field or set AFFINE_ENERGY_FIELD)")
    return parse_field(text)


def _load(args, field: Field, read, random_spec):
    """The object named by --input (parsed by `read`) or by --gen."""
    if bool(args.gen) == bool(args.input):
        raise ConfigError("exactly one of --gen and --input is required")
    if args.input:
        with open(args.input) as fh:
            file_field, obj = read(fh.read())
        if args.field and file_field != field:
            raise ConfigError("--field disagrees with the input file header")
        return obj
    spec = parse_gen_spec(args.gen)
    if isinstance(spec, random_spec) and args.seed:
        spec = random_spec(spec.n, spec.seed + args.seed)
    return generate_with_stats(spec, field)[0]


def _load_affine(args, field: Field) -> AffineSet:
    obj = _load(args, field, read_affine_set, RandomAffSpec)
    if not isinstance(obj, AffineSet):
        raise ConfigError(f"generator {args.gen!r} does not produce an affine set")
    return obj


def _load_planar(args, field: Field) -> set:
    obj = _load(args, field, read_planar_set, RandomPlanarSpec)
    if isinstance(obj, AffineSet):
        return {PlanePoint.affine(field, g.a.value, g.b.value) for g in obj}
    if isinstance(obj, set) and all(isinstance(p, PlanePoint) for p in obj):
        return obj
    raise ConfigError(f"generator {args.gen!r} does not produce a planar set")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_line_flag(text: str, field: Field) -> PlaneLine:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"lines are 'a:b:c', got {text!r}")
    return PlaneLine.of(field, [parse_scalar(p, field).value for p in parts])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_energy(args) -> int:
    field = _resolve_field(args)
    A = _load_affine(args, field)
    rep = main_bound_report(A, include_decomposition=not args.no_decomposition)
    if args.format == "json":
        _emit(args, dump_json(reports.energy_report_jsonable(rep, field)))
    else:
        _emit(args, dump_csv(reports.ENERGY_CSV_COLUMNS, [reports.energy_report_csv_row(rep, field)], "energy-report-csv"))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    field = _resolve_field(args)
    A = _load_affine(args, field)
    E, _, table = quotient_stats(A)
    n, m = len(A), max_on_vertical(A)
    sizes = [s for s, _ in table.values()]
    sum_q = sum(q for _, q in table.values())
    payload = {
        "schema": "decompose-report/1",
        "field": render_field(field),
        "size": n,
        "E": E,
        "sum_q": sum_q,
        "sum_slices": sum(sizes),
        "decomposition_identity_ok": sum_q == E,
        "slice_l1_ok": sum(sizes) == n * n,
        "slice_linf_ok": all(s <= m * n for s in sizes),
        "per_c": {field.render(C.value): {"slice": s, "q": q} for C, (s, q) in table.items()},
    }
    _emit(args, dump_json(payload))
    if not (payload["decomposition_identity_ok"] and payload["slice_l1_ok"] and payload["slice_linf_ok"]):
        print("invariant violation in decomposition identities", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_incidence(args) -> int:
    field = _resolve_field(args)
    A = _load_affine(args, field)
    table = decompose_by_C(A)
    per_c = {}
    mismatches = 0
    ratios = []
    biggest = None
    for C, q in table.items():
        sl = c_slice(A, C)
        inst = IncidenceInstance.of(slice_points(sl), slice_planes(sl))
        if not len(inst.points) == len(inst.planes) == len(sl):
            raise InvariantViolation("slice-to-projective maps must be injective")
        if biggest is None or len(sl) > len(biggest[1]):
            biggest = (C, sl, inst)
        pp = pointplane_bound_report(inst, field.characteristic or None)
        ratios.append(pp.ratio)
        if pp.incidence_count != q:
            mismatches += 1
        per_c[field.render(C.value)] = {
            "slice": len(sl),
            "q": q,
            "q_via_incidence": pp.incidence_count,
            "k": pp.k,
            "theorem_ratio": reports.frac_pair(pp.ratio),
        }
    payload = {
        "schema": "incidence-report/1",
        "field": render_field(field),
        "size": len(A),
        "mismatches": mismatches,
        "max_theorem_ratio": reports.frac_pair(max(ratios)) if ratios else None,
        "per_c": per_c,
    }
    if biggest is not None:
        inst = biggest[2]
        stats = beck_plane_classification(inst.points, inst.planes, cthresh=args.cthresh)
        payload["beck_planes_largest_slice"] = {
            "slice_c": field.render(biggest[0].value),
            "cthresh": args.cthresh,
            "type_i": sum(1 for s in stats if s.label == "type-i"),
            "type_ii": sum(1 for s in stats if s.label == "type-ii"),
            "planes_with_pairs": len(stats),
        }
    _emit(args, dump_json(payload))
    if mismatches:
        print(f"{mismatches} slice(s) disagree between decomposition and incidence route", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_shadow(args) -> int:
    field = _resolve_field(args)
    pts = _load_planar(args, field)
    l1 = _parse_line_flag(args.l1, field) if args.l1 else PlaneLine.y_axis(field)
    l2 = _parse_line_flag(args.l2, field) if args.l2 else PlaneLine.infinity(field)
    rep = shadow_incidence_check(pts, l1, l2)
    payload = reports.shadow_report_jsonable(rep)
    theta = Fraction(args.theta)
    stats = beck_point_stats(pts, theta)
    payload["beck_points"] = {
        "theta": str(theta),
        "lines_total": stats.lines_total,
        "rich_fraction": reports.frac_pair(stats.rich_fraction),
    }
    _emit(args, dump_json(payload))
    return EXIT_OK


def _cmd_quadrangles(args) -> int:
    field = _resolve_field(args)
    pts = _load_planar(args, field)
    rep = quadrangle_energy_correspondence(pts)
    _emit(args, dump_json(reports.quadrangle_report_jsonable(rep)))
    if not rep.exhaustive:
        print("energy quadruples do not partition into quadrangles + degenerate", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_richlines(args) -> int:
    field = _resolve_field(args)
    if args.input:
        with open(args.input) as fh:
            inst, rejected = read_grid_instance(fh.read())
    else:
        if not (args.gen and args.set_a and args.alpha):
            raise ConfigError("generated rich-line runs need --gen, --set-a and --alpha")
        lines_obj, _ = generate_with_stats(parse_gen_spec(args.gen), field)
        if not isinstance(lines_obj, AffineSet):
            raise ConfigError("--gen must produce an affine (line) set")
        a_spec = parse_gen_spec(args.set_a)
        if not isinstance(a_spec, (APSpec, GPSpec)):
            raise ConfigError("--set-a must be a progression spec ap(...)/gp(...)")
        scalars, _ = generate_with_stats(a_spec, field)
        inst = GridInstance.square(field, scalars, lines_obj, Fraction(args.alpha))
        rejected = 0
    rep = structure_report(inst)
    payload = reports.richline_report_jsonable(rep, field)
    payload["rejected_horizontal_rows"] = rejected
    _emit(args, dump_json(payload))
    return EXIT_OK


def _cmd_boundcheck(args) -> int:
    field = _resolve_field(args)
    A = _load_affine(args, field)
    rep = main_bound_report(A)
    payload = reports.energy_report_jsonable(rep, field)
    # Theorem 3.4 ratios on the largest slices
    payload["pointplane"] = {
        field.render(C.value): reports.pointplane_report_jsonable(r) for C, r in top_slice_reports(A, rep.per_c, args.top_slices)
    }
    if args.set_s and args.set_t:
        sv, _ = generate_with_stats(parse_gen_spec(args.set_s), field)
        tv, _ = generate_with_stats(parse_gen_spec(args.set_t), field)
        payload["elekes"] = reports.elekes_report_jsonable(elekes_incidence_bound_check(sv, tv, A, field))
    _emit(args, dump_json(payload))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    field = _resolve_field(args)
    if args.oracle_cap < 1:
        raise ConfigError("oracle cap must be at least 1")
    A = _load_affine(args, field)
    cap = args.oracle_cap
    diffs = []

    def same(name, fast, brute):
        if fast != brute:
            diffs.append(name)
        return {"equal": fast == brute}

    def check(name, fast, brute):
        return {"fast": fast, "oracle": brute, **same(name, fast, brute)}

    results = {
        "schema": "oracle-report/1",
        "field": render_field(field),
        "size": len(A),
        "energy": check("energy", energy(A), energy_bruteforce(A, "E", cap)),
        "energy_star": check("energy_star", energy_star(A), energy_bruteforce(A, "Estar", cap)),
    }
    dec_fast = {field.render(k.value): v for k, v in decompose_by_C(A).items()}
    dec_brute = {field.render(k.value): v for k, v in decompose_bruteforce(A, cap).items()}
    results["decompose"] = same("decompose", dec_fast, dec_brute)
    inc = {field.render(k.value): v for k, v in q_c_incidence_table(A).items()}
    results["incidence_route"] = same("incidence_route", inc, dec_fast)
    pts = {PlanePoint.affine(field, g.a.value, g.b.value) for g in A}
    results["quadrangles"] = check("quadrangles", quadrangles(pts), quadrangles_bruteforce(pts, cap))
    if len(A) >= 2:
        results["pencil"] = same("pencil", max_concurrent_pencil(A), pencil_bruteforce(A))
    results["all_equal"] = not diffs
    _emit(args, dump_json(results))
    if diffs:
        print("oracle mismatch in: " + ", ".join(diffs), file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def _sweep_row(template: str, n: int, field_text: str) -> List[str]:
    field = parse_field(field_text)
    spec = parse_gen_spec(template.replace("N", str(n)))
    obj, _ = generate_with_stats(spec, field)
    if not isinstance(obj, AffineSet):
        raise ConfigError("sweep templates must generate affine sets")
    rep = main_bound_report(obj)
    pp_ratio = max((r.ratio for _, r in top_slice_reports(obj, rep.per_c, 3)), default=Fraction(0))
    scalars = [field.reduce(v) for v in range(1, n + 1)]
    el = elekes_incidence_bound_check(scalars, scalars, obj, field)
    return [
        render_gen_spec(spec),
        render_field(field),
        str(n),
        str(rep.size),
        str(rep.m),
        str(rep.M),
        str(rep.E),
        str(rep.E_star),
        render_fraction(rep.ratio_main),
        reports.decimal(rep.ratio_main),
        render_fraction(rep.ratio_growth),
        reports.decimal(rep.ratio_growth),
        render_fraction(pp_ratio),
        reports.decimal(pp_ratio),
        render_fraction(el.ratio),
        reports.decimal(el.ratio),
    ]


SWEEP_COLUMNS = [
    "gen",
    "field",
    "N",
    "size",
    "m",
    "M",
    "E",
    "E_star",
    "ratio_main",
    "ratio_main_decimal",
    "ratio_growth",
    "ratio_growth_decimal",
    "pp_ratio_max",
    "pp_ratio_max_decimal",
    "elekes_ratio",
    "elekes_ratio_decimal",
]


def _cmd_sweep(args) -> int:
    field = _resolve_field(args)
    if not args.gen or "N" not in args.gen:
        raise ConfigError("sweep needs --gen with an N placeholder")
    try:
        name, _, span = args.range.partition("=")
        lo, _, hi = span.partition("..")
        lo_i, hi_i = int(lo), int(hi)
        if name.strip() != "N" or lo_i > hi_i:
            raise ValueError
    except ValueError:
        raise ConfigError(f"malformed --range {args.range!r}, expected N=a..b")
    ns = list(range(lo_i, hi_i + 1))
    field_text = render_field(field)
    if args.jobs > 1:
        import multiprocessing as mp

        with mp.Pool(processes=args.jobs) as pool:
            rows = pool.starmap(_sweep_row, [(args.gen, n, field_text) for n in ns])
    else:
        rows = [_sweep_row(args.gen, n, field_text) for n in ns]
    rows.sort(key=lambda r: int(r[2]))
    _emit(args, dump_csv(SWEEP_COLUMNS, rows, "sweep-csv"))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-energy",
        description="Exact affine-group energy, incidence and rich-line experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, planar=False):
        p.add_argument("--gen", help="generator spec, e.g. grid:5, affprod:gp(1,2,6)xap(0,1,6), randaff:20:seed=1")
        p.add_argument("--input", help="input file path")
        p.add_argument("--field", help="Q or Fp:<prime> (default from AFFINE_ENERGY_FIELD)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed offset for random generator specs")

    p = sub.add_parser("energy", help="energy/bound report for an affine set")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--no-decomposition", action="store_true", help="skip the per-C table")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("decompose", help="per-C slice/quadruple decomposition")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("incidence", help="incidence-route Q_C with point-plane ratios")
    common(p)
    p.add_argument("--cthresh", type=int, default=4, help="sparse-line threshold for the Beck plane split")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("shadow", help="two-line shadow incidence check for a planar set")
    common(p)
    p.add_argument("--l1", help="first line a:b:c (default the y-axis)")
    p.add_argument("--l2", help="second line a:b:c (default the line at infinity)")
    p.add_argument("--theta", default="1/2", help="rich-point threshold fraction for Beck point stats")
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("quadrangles", help="quadrangle counts and energy correspondence")
    common(p)
    p.set_defaults(func=_cmd_quadrangles)

    p = sub.add_parser("richlines", help="rich-line structure report for a grid instance")
    common(p)
    p.add_argument("--set-a", help="progression spec for A when generating, e.g. ap(0,1,10)")
    p.add_argument("--alpha", help="richness threshold as a fraction, e.g. 1/2")
    p.set_defaults(func=_cmd_richlines)

    p = sub.add_parser("boundcheck", help="energy report plus point-plane and Elekes ratios")
    common(p)
    p.add_argument("--top-slices", type=int, default=3, help="slices to run the point-plane bound on")
    p.add_argument("--set-s", help="progression spec for S in the Elekes check")
    p.add_argument("--set-t", help="progression spec for T in the Elekes check")
    p.set_defaults(func=_cmd_boundcheck)

    p = sub.add_parser("sweep", help="iterate a generator template over a size range")
    common(p)
    p.add_argument("--range", required=True, help="N=a..b")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="diff fast paths against brute-force oracles")
    common(p)
    p.add_argument("--oracle-cap", type=int, default=64)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:  # every package input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
