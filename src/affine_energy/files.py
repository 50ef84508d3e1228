"""Text file formats: affine sets, planar point sets, grid instances.

Every file opens with a header line `field Q` or `field Fp:<prime>`; `#`
starts a comment.  Affine sets list one `a b` pair per line; planar sets list
`x y` (affine) or `x:y:z` (homogeneous) rows; grid instance files add an
`alpha` header plus `S:` and `T:` rows before the line rows.  Exact syntax in
docs/formats.md.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .affine import AffineSet, affine_map
from .errors import ParseError
from .fields import RATIONALS, Field, parse_field, parse_scalar
from .plane import PlanePoint
from .reports import render_field
from .richlines import GridInstance


def _content_lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read_header(lines: List[str]) -> Tuple[Field, List[str]]:
    if not lines or not lines[0].lower().startswith("field"):
        raise ParseError("input must start with a 'field <spec>' header line")
    field = parse_field(lines[0][len("field") :])
    return field, lines[1:]


def read_affine_set(text: str) -> Tuple[Field, AffineSet]:
    field, rows = _read_header(_content_lines(text))
    maps = []
    for row in rows:
        parts = row.split()
        if len(parts) != 2:
            raise ParseError(f"affine set rows are 'a b', got {row!r}")
        maps.append(affine_map(field, parse_scalar(parts[0], field).value, parse_scalar(parts[1], field).value))
    return field, AffineSet(field, maps)


def write_affine_set(field: Field, A: AffineSet) -> str:
    rows = [f"field {render_field(field)}"]
    for g in A.sorted_maps():
        rows.append(f"{field.render(g.a.value)} {field.render(g.b.value)}")
    return "\n".join(rows) + "\n"


def read_planar_set(text: str) -> Tuple[Field, Set[PlanePoint]]:
    field, rows = _read_header(_content_lines(text))
    pts = set()
    for row in rows:
        if ":" in row:
            parts = row.split(":")
            if len(parts) != 3:
                raise ParseError(f"homogeneous rows are 'x:y:z', got {row!r}")
            coords = [parse_scalar(p, field).value for p in parts]
            pts.add(PlanePoint.of(field, coords))
        else:
            parts = row.split()
            if len(parts) != 2:
                raise ParseError(f"planar rows are 'x y' or 'x:y:z', got {row!r}")
            pts.add(PlanePoint.affine(field, *(parse_scalar(p, field).value for p in parts)))
    return field, pts


def write_planar_set(field: Field, pts) -> str:
    rows = [f"field {render_field(field)}", *sorted(map(str, pts))]
    return "\n".join(rows) + "\n"


def read_grid_instance(text: str) -> Tuple[GridInstance, int]:
    """Parses a grid instance; returns it plus the count of rejected
    slope-0 line rows (non-horizontal is a theorem hypothesis)."""
    field, rows = _read_header(_content_lines(text))
    if not rows or not rows[0].lower().startswith("alpha"):
        raise ParseError("grid instance needs an 'alpha <num/den>' line")
    alpha_text = rows[0][len("alpha") :].strip()
    try:
        alpha = parse_scalar(alpha_text, RATIONALS).value
    except ValueError as exc:
        raise ParseError(f"malformed alpha {alpha_text!r}") from exc
    rows = rows[1:]
    S = T = None
    line_rows = []
    for row in rows:
        low = row.lower()
        if low.startswith("s:"):
            S = [parse_scalar(t, field).value for t in row[2:].split()]
        elif low.startswith("t:"):
            T = [parse_scalar(t, field).value for t in row[2:].split()]
        else:
            line_rows.append(row)
    if S is None or T is None:
        raise ParseError("grid instance needs 'S:' and 'T:' rows")
    maps = []
    rejected = 0
    for row in line_rows:
        parts = row.split()
        if len(parts) != 2:
            raise ParseError(f"line rows are 'a b', got {row!r}")
        a = parse_scalar(parts[0], field).value
        b = parse_scalar(parts[1], field).value
        if a == 0:
            rejected += 1
            continue
        maps.append(affine_map(field, a, b))
    inst = GridInstance.of(field, S, T, AffineSet(field, maps), alpha)
    return inst, rejected
