"""Report serialization: canonical JSON and flat CSV, byte-stable.

Every ratio is stored twice, by frac_pair in JSON and csv_cells in CSV: exact
as "num/den" and as a 12-significant-digit decimal convenience column.  JSON
objects use a fixed key order (documented in docs/formats.md): a flat report
lists its record's fields in order (record_jsonable), and map-valued fields
are sorted by the canonical scalar order, so identical configurations always
serialize to identical bytes.  Every schema tag is schema_tag(name).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, NamedTuple, Sequence

from .energy import EnergyReport
from .exactmath import render_fraction
from .fields import Field, PrimeField
from .incidence3d import PointPlaneReport
from .plane import ShadowCheckReport, QuadrangleCorrespondence
from .richlines import ElekesReport, RichLineReport

SCHEMA_VERSION = 1


def schema_tag(name: str) -> str:
    """The `<name>/<version>` tag of every JSON and CSV report."""
    return f"{name}/{SCHEMA_VERSION}"


def render_field(field: Field) -> str:
    return f"Fp:{field.p}" if isinstance(field, PrimeField) else "Q"


def frac_pair(fr) -> Dict[str, str]:
    """A ratio's exact form and its 12-significant-digit decimal."""
    fr = Fraction(fr)
    return {"exact": render_fraction(fr), "decimal": format(float(fr), ".12g")}


def csv_cells(*values) -> List[str]:
    """CSV cells of `values`: a Fraction gives the two cells of its
    frac_pair, anything else its str()."""
    cells = []
    for v in values:
        cells.extend(frac_pair(v).values() if isinstance(v, Fraction) else (str(v),))
    return cells


def record_jsonable(schema: str, rep: NamedTuple, **names) -> dict:
    """A flat report: the schema tag, then the fields of the record `rep` in
    order, each under its name in `names` or else its own, with every
    Fraction as a frac_pair."""
    out = {"schema": schema_tag(schema)}
    for name, v in zip(rep._fields, rep):
        out[names.get(name, name)] = frac_pair(v) if isinstance(v, Fraction) else v
    return out


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
        "schema": schema_tag("energy-report"),
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
    return csv_cells(
        render_field(field), rep.size, rep.m, rep.M, rep.E, rep.E_star, rep.size_AA, rep.size_AinvA,
        rep.ratio_main, rep.ratio_growth, rep.cs_quotient_ok, rep.cs_product_ok, rep.shkredov_ok, rep.p_constraint_ok,
    )


def pointplane_report_jsonable(rep: PointPlaneReport) -> dict:
    return record_jsonable("pointplane-report", rep, incidence_count="incidences", n_points="points", n_planes="planes")


def shadow_report_jsonable(rep: ShadowCheckReport) -> dict:
    out = record_jsonable("shadow-check", rep, n_points="points")
    out["nonvertical_inequality_holds"] = rep.lhs_nonvertical <= rep.rhs
    out["total_inequality_holds"] = rep.lhs_total <= rep.rhs
    return out


def quadrangle_report_jsonable(rep: QuadrangleCorrespondence) -> dict:
    return {**record_jsonable("quadrangle-report", rep), "exhaustive": rep.exhaustive}


def richline_report_jsonable(rep: RichLineReport, field: Field) -> dict:
    per_line = {}
    for line in sorted(rep.per_line, key=lambda l: (field.sort_key(l.a.value), field.sort_key(l.b.value))):
        per_line[f"{field.render(line.a.value)} {field.render(line.b.value)}"] = rep.per_line[line]

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
        "schema": schema_tag("richline-report"),
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
        "parallel_chain": rep.parallel_chain and rep.parallel_chain._asdict(),
        "pencil_chain": rep.pencil_chain and rep.pencil_chain._asdict(),
        "pencil_link1_holds": rep.pencil_link1_holds,
        "alpha_guard_ok": rep.alpha_guard_ok,
        "p_guard_ok": rep.p_guard_ok,
        "measured_ratios": {k: frac_pair(v) for k, v in sorted(rep.measured_ratios.items())},
    }


def elekes_report_jsonable(rep: ElekesReport) -> dict:
    return record_jsonable("elekes-check", rep, incidence_count="incidences", n_lines="lines")


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
    out = [f"# schema: {schema_tag(schema)}"]
    out.append(",".join(_csv_cell(c) for c in columns))
    for row in rows:
        out.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(out) + "\n"
