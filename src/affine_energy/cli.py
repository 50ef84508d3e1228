"""Batch CLI: energy reports, decompositions, incidence reductions, shadows,
quadrangles, rich lines, bound checks, sweeps and oracle diffs.

Exit codes: 0 success, 2 configuration error or out of memory, 3 oracle
mismatch, 4 invariant violation.  Reports are byte-stable for a fixed
configuration; see docs/formats.md for schemas.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .affine import AffineSet
from .energy import (
    ORACLE_CAP_DEFAULT,
    _energy,
    _product_pass,
    decompose_bruteforce,
    energy_bruteforce,
    main_bound_report,
    quotient_stats,
    slice_identities,
)
from .errors import InvariantViolation
from .fields import RATIONALS, Field, in_unit_interval, parse_field, parse_scalar
from .files import read_affine_set, read_grid_instance, read_planar_set
from .generators import APSpec, GPSpec, generate_with_stats, parse_gen_spec
from .incidence3d import _beck_stats, _pointplane_report, _raw_slices, q_c_incidence_table, top_slice_reports
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
from .reports import dump_csv, dump_json, render_field, schema_tag

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


def _load(args, field: Field, read):
    """The object named by --input (parsed by `read`) or by --gen."""
    if bool(args.gen) == bool(args.input):
        raise ConfigError("exactly one of --gen and --input is required")
    if args.input:
        with open(args.input) as fh:
            file_field, obj = read(fh.read())
        if file_field != field:
            source = "--field" if args.field else FIELD_ENV
            raise ConfigError(f"{source} disagrees with the input file header")
        return obj
    return generate_with_stats(parse_gen_spec(args.gen), field)[0]


def _load_affine(args, field: Field) -> AffineSet:
    obj = _load(args, field, read_affine_set)
    if not isinstance(obj, AffineSet):
        raise ConfigError(f"generator {args.gen!r} does not produce an affine set")
    return obj


def _load_planar(args, field: Field) -> set:
    obj = _load(args, field, read_planar_set)
    if isinstance(obj, AffineSet):
        return {PlanePoint.affine(field, g.a.value, g.b.value) for g in obj}
    if isinstance(obj, set) and all(isinstance(p, PlanePoint) for p in obj):
        return obj
    raise ConfigError(f"generator {args.gen!r} does not produce a planar set")


def _invariant_exit(ok: bool, what: str) -> int:
    """EXIT_OK, or an InvariantViolation naming `what` (exit 4 in main) when
    a check of the report just written failed."""
    if not ok:
        raise InvariantViolation(what)
    return EXIT_OK


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _progression(text: str, flag: str, field: Field) -> list:
    """The scalars of the progression spec given to `flag`."""
    spec = parse_gen_spec(text)
    if not isinstance(spec, (APSpec, GPSpec)):
        raise ConfigError(f"{flag} must be a progression spec ap(...)/gp(...)")
    return generate_with_stats(spec, field)[0]


def _fraction_flag(text: str, flag: str) -> Fraction:
    """An integer or num/den literal, the scalar grammar over Q."""
    try:
        return parse_scalar(text, RATIONALS).value
    except ValueError:
        raise ConfigError(f"{flag} must be a fraction such as 1/2, got {text!r}")


def _read_grid(text: str):
    """A grid-instance file as (field, (instance, rejected rows)) for `_load`."""
    inst, rejected = read_grid_instance(text)
    return inst.field, (inst, rejected)


def _parse_line_flag(text: str, field: Field) -> PlaneLine:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"lines are 'a:b:c', got {text!r}")
    return PlaneLine.of(field, [parse_scalar(p, field).value for p in parts])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_energy(args, field: Field) -> int:
    A = _load_affine(args, field)
    rep = main_bound_report(A, include_decomposition=not args.no_decomposition)
    if args.format == "json":
        _emit(args, dump_json(reports.energy_report_jsonable(rep, field)))
    else:
        _emit(args, reports.energy_report_csv(rep, field))
    return _invariant_exit(rep.identities_hold(), "energy identities or inequalities")


def _cmd_decompose(args, field: Field) -> int:
    A = _load_affine(args, field)
    E, _, per_c = quotient_stats(A)
    checks = slice_identities(per_c, E, len(A))
    payload = {
        "schema": schema_tag("decompose-report"),
        "field": render_field(field),
        "size": len(A),
        "E": E,
        **checks._asdict(),
        "per_c": per_c,
    }
    _emit(args, dump_json(payload))
    return _invariant_exit(checks.hold, "decomposition identities")


def _cmd_incidence(args, field: Field) -> int:
    if args.cthresh < 2:
        raise ConfigError("--cthresh must be at least 2")
    A = _load_affine(args, field)
    char = field.characteristic
    per_c = quotient_stats(A)[2]
    slices = _raw_slices(per_c.table)
    rows, mismatches, ratios = {}, 0, []
    for C, _, q in per_c.rows():
        pts, planes, layers = slices[C]
        pp = _pointplane_report(char, pts, planes, layers)
        ratios.append(pp.ratio)
        if pp.incidence_count != q:
            mismatches += 1
        rows[field.render(C)] = {
            "slice": len(pts),
            "q": q,
            "q_via_incidence": pp.incidence_count,
            "k": pp.k,
            "theorem_ratio": reports.frac_pair(pp.ratio),
        }
    payload = {
        "schema": schema_tag("incidence-report"),
        "field": render_field(field),
        "size": len(A),
        "mismatches": mismatches,
        "max_theorem_ratio": reports.frac_pair(max(ratios)) if ratios else None,
        "per_c": rows,
    }
    if slices:
        biggest = max(slices, key=lambda c: len(slices[c][0]))  # the first largest in canonical order
        stats = _beck_stats(char, *slices[biggest][:2], cthresh=args.cthresh)
        payload["beck_planes_largest_slice"] = {
            "slice_c": field.render(biggest),
            "cthresh": args.cthresh,
            "type_i": sum(1 for s in stats if s.label == "type-i"),
            "type_ii": sum(1 for s in stats if s.label == "type-ii"),
            "planes_with_pairs": len(stats),
        }
    _emit(args, dump_json(payload))
    return _invariant_exit(not mismatches, f"{mismatches} slice(s) disagree between decomposition and incidence route")


def _cmd_shadow(args, field: Field) -> int:
    pts = _load_planar(args, field)
    l1 = _parse_line_flag(args.l1, field) if args.l1 else PlaneLine.y_axis(field)
    l2 = _parse_line_flag(args.l2, field) if args.l2 else PlaneLine.infinity(field)
    theta = in_unit_interval(_fraction_flag(args.theta, "--theta"), "--theta")
    rep = shadow_incidence_check(pts, l1, l2)
    payload = reports.shadow_report_jsonable(rep)
    stats = beck_point_stats(pts, theta)
    payload["beck_points"] = {
        "theta": str(theta),
        "lines_total": stats.lines_total,
        "rich_fraction": reports.frac_pair(stats.rich_fraction),
    }
    _emit(args, dump_json(payload))
    return EXIT_OK


def _cmd_quadrangles(args, field: Field) -> int:
    pts = _load_planar(args, field)
    rep = quadrangle_energy_correspondence(pts)
    _emit(args, dump_json(reports.quadrangle_report_jsonable(rep)))
    return _invariant_exit(rep.exhaustive, "energy quadruples do not partition into quadrangles + degenerate")


def _cmd_richlines(args, field: Field) -> int:
    if args.gen and not args.input:
        if not (args.set_a and args.alpha):
            raise ConfigError("generated rich-line runs need --gen, --set-a and --alpha")
        lines_obj, _ = generate_with_stats(parse_gen_spec(args.gen), field)
        if not isinstance(lines_obj, AffineSet):
            raise ConfigError("--gen must produce an affine (line) set")
        A = _progression(args.set_a, "--set-a", field)
        inst = GridInstance.square(field, A, lines_obj, _fraction_flag(args.alpha, "--alpha"))
        rejected = 0
    else:  # --input alone; _load rejects no source or both
        inst, rejected = _load(args, field, _read_grid)
    rep = structure_report(inst)
    payload = reports.richline_report_jsonable(rep, field)
    payload["rejected_horizontal_rows"] = rejected
    _emit(args, dump_json(payload))
    return EXIT_OK


def _cmd_boundcheck(args, field: Field) -> int:
    if args.top_slices < 0:
        raise ConfigError("--top-slices must be at least 0")
    if bool(args.set_s) != bool(args.set_t):
        raise ConfigError("--set-s and --set-t go together")
    grid = None
    if args.set_s:
        grid = (_progression(args.set_s, "--set-s", field), _progression(args.set_t, "--set-t", field))
    A = _load_affine(args, field)
    rep = main_bound_report(A)
    top = top_slice_reports(rep.per_c, args.top_slices)
    payload = reports.energy_report_jsonable(rep, field)
    # Theorem 3.4 ratios on the largest slices
    payload["pointplane"] = {field.render(C.value): reports.pointplane_report_jsonable(r) for C, r in top}
    if grid:
        payload["elekes"] = reports.elekes_report_jsonable(elekes_incidence_bound_check(*grid, A, field, rep.E))
    _emit(args, dump_json(payload))
    return _invariant_exit(rep.identities_hold(), "energy identities or inequalities")


def _cmd_oracle(args, field: Field) -> int:
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

    # the Q_C oracle counts all pairs of pairs of each bucket, so it totals E(A)
    brute = decompose_bruteforce(A, cap)
    E, _, per_c = quotient_stats(A)
    results = {
        "schema": schema_tag("oracle-report"),
        "field": render_field(field),
        "size": len(A),
        "energy": check("energy", E, sum(brute.values())),
        "energy_star": check("energy_star", _energy(_product_pass(per_c.table).values()), energy_bruteforce(A, "Estar", cap)),
    }
    dec_fast = {C: q for C, _, q in per_c.rows()}  # the per-C tables are compared on raw C values
    results["decompose"] = same("decompose", dec_fast, {C.value: q for C, q in brute.items()})
    inc = {C.value: q for C, q in q_c_incidence_table(A).items()}
    results["incidence_route"] = same("incidence_route", inc, dec_fast)
    if len(A):  # quadrangle counting needs a point
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


class SweepRow(NamedTuple):
    """One sweep-csv row, its fields the columns."""

    gen: str
    field: str
    N: int
    size: int
    m: int
    M: int
    E: int
    E_star: int
    ratio_main: Fraction
    ratio_growth: Fraction
    pp_ratio_max: Fraction
    elekes_ratio: Fraction


def _sweep_row(template: str, n: int, field_text: str) -> SweepRow:
    field = parse_field(field_text)
    spec = parse_gen_spec(template.replace("N", str(n)))
    obj, _ = generate_with_stats(spec, field)
    if not isinstance(obj, AffineSet):
        raise ConfigError("sweep templates must generate affine sets")
    rep = main_bound_report(obj)
    pp_ratio = max((r.ratio for _, r in top_slice_reports(rep.per_c, 3)), default=Fraction(0))
    scalars = [field.reduce(v) for v in range(1, n + 1)]
    el = elekes_incidence_bound_check(scalars, scalars, obj, field, rep.E)
    return SweepRow(
        str(spec), field_text, n, rep.size, rep.m, rep.M, rep.E, rep.E_star, rep.ratio_main, rep.ratio_growth, pp_ratio, el.ratio
    )


def _cmd_sweep(args, field: Field) -> int:
    if not args.gen or "N" not in args.gen:
        raise ConfigError("sweep needs --gen with an N placeholder")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
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

        with mp.Pool(processes=min(args.jobs, len(ns))) as pool:
            rows = pool.starmap(_sweep_row, [(args.gen, n, field_text) for n in ns])
    else:
        rows = [_sweep_row(args.gen, n, field_text) for n in ns]
    _emit(args, dump_csv(SweepRow._fields, rows, "sweep-csv"))
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  `parse_args` leaves it
    unchanged and returns a fresh namespace, and the field default from
    AFFINE_ENERGY_FIELD is read when a command runs, so one parser serves
    every call of `main`."""
    parser = argparse.ArgumentParser(
        prog="affine-energy",
        description="Exact affine-group energy, incidence and rich-line experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--gen", help="generator spec, e.g. grid:5, affprod:gp(1,2,6)xap(0,1,6), randaff:20:seed=1")
        p.add_argument("--input", help="input file path")
        p.add_argument("--field", help="Q or Fp:<prime> (default from AFFINE_ENERGY_FIELD)")
        p.add_argument("--out", help="output path (default stdout)")

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
    p.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_DEFAULT)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve_field(args))
    except (ConfigError, ValueError, OSError) as exc:  # every package input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError:  # a backstop: no input size is checked before a job runs
        print("error: out of memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
