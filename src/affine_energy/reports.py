"""Report serialization: canonical JSON and flat CSV, byte-stable.

Every ratio is stored twice: exact as "num/den" and as a 12-significant-digit
decimal convenience column.  JSON objects use a fixed key order (documented
in docs/formats.md); map-valued fields are sorted by the canonical scalar
order, so identical configurations always serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Sequence

from .energy import EnergyReport
from .exactmath import render_fraction
from .fields import Field, PrimeField
from .incidence3d import PointPlaneReport
from .plane import ShadowCheckReport, QuadrangleCorrespondence
from .richlines import ElekesReport, RichLineReport

SCHEMA_VERSION = 1


def render_field(field: Field) -> str:
    return f"Fp:{field.p}" if isinstance(field, PrimeField) else "Q"


def decimal(fr) -> str:
    return format(float(Fraction(fr)), ".12g")


def frac_pair(fr) -> Dict[str, str]:
    fr = Fraction(fr)
    return {"exact": render_fraction(fr), "decimal": decimal(fr)}


class PerC(dict):
    """The per_c block of the energy, decompose and boundcheck reports:
    rendered C -> {"slice": |C_C|, "q": Q_C}, built only by per_c_jsonable
    and written by dump_json from _PER_C_ENTRY."""


_PER_C_ENTRY = '    %s: {\n      "slice": %d,\n      "q": %d\n    }'


def per_c_jsonable(table: Dict, field: Field) -> PerC:
    """The per_c block of a C -> (|C_C|, Q_C) table, in the table's order."""
    return PerC((field.render(C.value), {"slice": s, "q": q}) for C, (s, q) in table.items())


def energy_report_jsonable(rep: EnergyReport, field: Field) -> dict:
    return {
        "schema": f"energy-report/{SCHEMA_VERSION}",
        "field": render_field(field),
        "size": rep.size,
        "m": rep.m,
        "M": rep.M,
        "E": rep.E,
        "E_star": rep.E_star,
        "AA": rep.size_AA,
        "AinvA": rep.size_AinvA,
        "ratio_main": frac_pair(rep.ratio_main),
        "ratio_growth": frac_pair(rep.ratio_growth),
        "cs_quotient_ok": rep.cs_quotient_ok,
        "cs_product_ok": rep.cs_product_ok,
        "shkredov_ok": rep.shkredov_ok,
        "p_constraint_ok": rep.p_constraint_ok,
        "pp_correction": frac_pair(rep.pp_correction) if rep.pp_correction is not None else None,
        "per_c": per_c_jsonable(rep.per_c, field),
    }


ENERGY_CSV_COLUMNS = [
    "field",
    "size",
    "m",
    "M",
    "E",
    "E_star",
    "AA",
    "AinvA",
    "ratio_main",
    "ratio_main_decimal",
    "ratio_growth",
    "ratio_growth_decimal",
    "cs_quotient_ok",
    "cs_product_ok",
    "shkredov_ok",
    "p_constraint_ok",
]


def energy_report_csv_row(rep: EnergyReport, field: Field) -> List[str]:
    return [
        render_field(field),
        str(rep.size),
        str(rep.m),
        str(rep.M),
        str(rep.E),
        str(rep.E_star),
        str(rep.size_AA),
        str(rep.size_AinvA),
        render_fraction(rep.ratio_main),
        decimal(rep.ratio_main),
        render_fraction(rep.ratio_growth),
        decimal(rep.ratio_growth),
        str(rep.cs_quotient_ok),
        str(rep.cs_product_ok),
        str(rep.shkredov_ok),
        str(rep.p_constraint_ok),
    ]


def pointplane_report_jsonable(rep: PointPlaneReport) -> dict:
    return {
        "schema": f"pointplane-report/{SCHEMA_VERSION}",
        "incidences": rep.incidence_count,
        "points": rep.n_points,
        "planes": rep.n_planes,
        "k": rep.k,
        "swapped": rep.swapped,
        "rhs": rep.rhs,
        "ratio": frac_pair(rep.ratio),
        "characteristic": rep.characteristic,
        "p_constraint_ok": rep.p_constraint_ok,
        "ratio_corrected": frac_pair(rep.ratio_corrected) if rep.ratio_corrected is not None else None,
    }


def shadow_report_jsonable(rep: ShadowCheckReport) -> dict:
    return {
        "schema": f"shadow-check/{SCHEMA_VERSION}",
        "removed_points": rep.removed_points,
        "points": rep.n_points,
        "lhs_total": rep.lhs_total,
        "lhs_nonvertical": rep.lhs_nonvertical,
        "rhs": rep.rhs,
        "s_size": rep.s_size,
        "t_size": rep.t_size,
        "s_dropped_infinite": rep.s_dropped_infinite,
        "t_dropped_infinite": rep.t_dropped_infinite,
        "nonvertical_inequality_holds": rep.lhs_nonvertical <= rep.rhs,
        "total_inequality_holds": rep.inequality_holds,
    }


def quadrangle_report_jsonable(rep: QuadrangleCorrespondence) -> dict:
    return {
        "schema": f"quadrangle-report/{SCHEMA_VERSION}",
        "energy_total": rep.energy_total,
        "geometric": rep.geometric,
        "trivial": rep.trivial,
        "collinear": rep.collinear,
        "quadrangle_count": rep.quadrangle_count,
        "exhaustive": rep.exhaustive,
    }


def richline_report_jsonable(rep: RichLineReport, field: Field) -> dict:
    per_line = {}
    for line in sorted(rep.per_line, key=lambda l: (field.sort_key(l.a.value), field.sort_key(l.b.value))):
        per_line[f"{field.render(line.a.value)} {field.render(line.b.value)}"] = rep.per_line[line]

    def chain(c):
        if c is None:
            return None
        return {
            "sum_over_B": c.sum_over_B,
            "size_B": c.size_B,
            "sum_sq_over_B": c.sum_sq_over_B,
            "mixed_energy": c.mixed_energy,
            "energy_bound": c.energy_bound,
            "links_hold": c.links_hold,
        }

    pencil = None
    if rep.pencil is not None:
        pencil = {
            "point": None
            if rep.pencil.point is None
            else [field.render(rep.pencil.point[0].value), field.render(rep.pencil.point[1].value)],
            "size": rep.pencil.size,
            "slopes": sorted((field.render(s.value) for s in rep.pencil.slopes)),
        }
    return {
        "schema": f"richline-report/{SCHEMA_VERSION}",
        "field": render_field(field),
        "n": rep.n,
        "k_lines": rep.k_lines,
        "k_rich": rep.k_rich,
        "alpha": render_fraction(rep.alpha),
        "threshold": rep.threshold,
        "total_incidences": rep.total_incidences,
        "per_line": per_line,
        "family": {
            "slope": None if rep.family.slope is None else field.render(rep.family.slope.value),
            "size": rep.family.size,
            "intercepts": sorted((field.render(b.value) for b in rep.family.intercepts)),
        },
        "pencil": pencil,
        "e_plus": rep.e_plus,
        "e_mul_x0": rep.e_mul_x0,
        "e_mul_y0": rep.e_mul_y0,
        "mul_dropped_x0": rep.mul_dropped_x0,
        "mul_dropped_y0": rep.mul_dropped_y0,
        "parallel_chain": chain(rep.parallel_chain),
        "pencil_chain": chain(rep.pencil_chain),
        "pencil_link1_holds": rep.pencil_link1_holds,
        "alpha_guard_ok": rep.alpha_guard_ok,
        "p_guard_ok": rep.p_guard_ok,
        "measured_ratios": {k: frac_pair(v) for k, v in sorted(rep.measured_ratios.items())},
    }


def elekes_report_jsonable(rep: ElekesReport) -> dict:
    return {
        "schema": f"elekes-check/{SCHEMA_VERSION}",
        "incidences": rep.incidence_count,
        "energy": rep.energy,
        "lines": rep.n_lines,
        "s_size": rep.s_size,
        "t_size": rep.t_size,
        "characteristic": rep.characteristic,
        "rhs": frac_pair(rep.rhs),
        "ratio": frac_pair(rep.ratio),
    }


def dump_json(obj) -> str:
    """The report text: byte for byte json.dumps(obj, indent=2) plus a newline.

    A non-empty top-level PerC block (the energy, decompose and boundcheck
    reports) is written from _PER_C_ENTRY and spliced in where json.dumps
    puts its value, instead of going through the pure-Python indent
    encoder; the rest of the payload, and every other per_c, goes through
    json.dumps.
    """
    per_c = obj.get("per_c") if type(obj) is dict else None
    if type(per_c) is not PerC or not per_c:
        return json.dumps(obj, indent=2) + "\n"
    block = ",\n".join(_PER_C_ENTRY % (encode_basestring_ascii(k), e["slice"], e["q"]) for k, e in per_c.items())
    head, tail = json.dumps({**obj, "per_c": 0}, indent=2).split('\n  "per_c": 0', 1)
    return f'{head}\n  "per_c": {{\n{block}\n  }}{tail}\n'


def _csv_cell(cell: str) -> str:
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def dump_csv(columns: Sequence[str], rows: Sequence[Sequence[str]], schema: str) -> str:
    out = [f"# schema: {schema}/{SCHEMA_VERSION}"]
    out.append(",".join(_csv_cell(c) for c in columns))
    for row in rows:
        out.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(out) + "\n"
