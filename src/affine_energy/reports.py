"""Report serialization: canonical JSON and flat CSV, byte-stable.

Every ratio is stored twice, by frac_pair in JSON and dump_csv in CSV: exact
as "num/den" and as a 12-significant-digit decimal convenience column.  JSON
objects use a fixed key order (documented in docs/formats.md): a flat report
lists its record's fields in order (record_jsonable), and map-valued fields
are sorted by the canonical scalar order, so identical configurations always
serialize to identical bytes.  A CSV row is a record's values, one column
each.  Every schema tag is schema_tag(name).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, NamedTuple, Optional, Sequence

from .energy import EnergyReport, PerC
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


def record_jsonable(schema: str, rep: NamedTuple, field: Optional[Field] = None, **names) -> dict:
    """A flat report: the schema tag, the field if one is given, then the
    fields of the record `rep` in order, each under its name in `names` or
    else its own, with every Fraction as a frac_pair."""
    out = {"schema": schema_tag(schema)}
    if field is not None:
        out["field"] = render_field(field)
    for name, v in zip(rep._fields, rep):
        out[names.get(name, name)] = frac_pair(v) if isinstance(v, Fraction) else v
    return out


# One C of a written PerC: "<rendered C>": {"slice": |C_C|, "q": Q_C}.
_PER_C_ENTRY = '    %s: {\n      "slice": %d,\n      "q": %d\n    }'

_ENERGY_NAMES = {"size_AA": "AA", "size_AinvA": "AinvA"}


def energy_report_jsonable(rep: EnergyReport, field: Field) -> dict:
    return record_jsonable("energy-report", rep, field, **_ENERGY_NAMES)


def energy_report_csv(rep: EnergyReport, field: Field) -> str:
    """The energy-report-csv text: one row of the energy report's keys from
    field to p_constraint_ok, the last before pp_correction."""
    k = rep._fields.index("pp_correction")
    names = ["field", *(_ENERGY_NAMES.get(name, name) for name in rep._fields[:k])]
    return dump_csv(names, [(render_field(field), *rep[:k])], "energy-report-csv")


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
    """The record after the schema tag and the field, with alpha, the maps
    and the nested records rendered."""
    render = field.render
    out = {"schema": schema_tag("richline-report"), "field": render_field(field), **rep._asdict()}
    lines = sorted(rep.per_line, key=lambda l: (field.sort_key(l.a.value), field.sort_key(l.b.value)))
    out["alpha"] = render_fraction(rep.alpha)
    out["per_line"] = {f"{render(l.a.value)} {render(l.b.value)}": rep.per_line[l] for l in lines}
    slope = rep.family.slope
    out["family"] = {
        "slope": None if slope is None else render(slope.value),
        "size": rep.family.size,
        "intercepts": sorted(render(b.value) for b in rep.family.intercepts),
    }
    if rep.pencil is not None:
        point = rep.pencil.point
        out["pencil"] = {
            "point": None if point is None else [render(point[0].value), render(point[1].value)],
            "size": rep.pencil.size,
            "slopes": sorted(render(s.value) for s in rep.pencil.slopes),
        }
    for name in ("parallel_chain", "pencil_chain"):
        out[name] = out[name] and out[name]._asdict()
    out["measured_ratios"] = {k: frac_pair(v) for k, v in sorted(rep.measured_ratios.items())}
    return out


def elekes_report_jsonable(rep: ElekesReport) -> dict:
    return record_jsonable("elekes-check", rep, incidence_count="incidences", n_lines="lines")


def dump_json(obj) -> str:
    """The report text: byte for byte json.dumps(obj, indent=2) plus a newline,
    a top-level energy.PerC (the energy, decompose and boundcheck reports)
    written as the object of its rendered C -> {"slice": |C_C|, "q": Q_C}.

    That block is written from the PerC's raw rows through _PER_C_ENTRY and
    field.render, and spliced in where json.dumps puts its value, instead of
    going through the pure-Python indent encoder; an empty one is {}.  The
    rest of the payload, and every other per_c, goes through json.dumps.
    """
    per_c = obj.get("per_c") if type(obj) is dict else None
    if not isinstance(per_c, PerC):
        return json.dumps(obj, indent=2) + "\n"
    render = per_c.table.field.render
    block = ",\n".join(_PER_C_ENTRY % (encode_basestring_ascii(render(v)), s, q) for v, s, q in per_c.rows())
    head, tail = json.dumps({**obj, "per_c": 0}, indent=2).split('\n  "per_c": 0', 1)
    return f'{head}\n  "per_c": {{\n{block}\n  }}{tail}\n' if block else f'{head}\n  "per_c": {{}}{tail}\n'


def _csv_cell(cell: str) -> str:
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(values) -> List[str]:
    """A Fraction gives the two cells of its frac_pair, anything else its str()."""
    cells = []
    for v in values:
        cells.extend(frac_pair(v).values() if isinstance(v, Fraction) else (str(v),))
    return cells


def dump_csv(names: Sequence[str], rows: Sequence[tuple], schema: str) -> str:
    """The CSV text of `rows`, tuples of values under `names`: one column
    per value, two for a Fraction (in the first row), name and name_decimal."""
    header = []
    for name, v in zip(names, rows[0]):
        header += [name, name + "_decimal"] if isinstance(v, Fraction) else [name]
    out = [f"# schema: {schema_tag(schema)}"]
    for cells in [header, *map(_cells, rows)]:
        out.append(",".join(map(_csv_cell, cells)))
    return "\n".join(out) + "\n"
