"""Correctness of the job reports.

Three gates, applied to every job of every run:

* digests: the sha256 of each report must equal the one recorded in
  `digests.json` for this workload, seed and job, when one is recorded (the
  default seed 1 and the held-out seed 2), and must be the same on every
  pass of the run, traced or not;
* report checks: each report must parse and its own identity flags must
  hold (decomposition sums, oracle agreement, quadrangle partition, ...);
* an independent reference: E, E*, |AA|, |A^-1 A| and the per-C table
  (|C_C|, Q_C) of every affine input are recomputed here from the input
  file, with plain ints and Fractions, and compared with the reports.

The reference shares no code with the program, so a new kernel that breaks
an energy count on a seed with no recorded digest still fails the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def recorded(digests: dict, workload: str, seed: int, scale: str) -> Optional[Dict[str, str]]:
    if scale != "full":
        return None
    return digests.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# independent reference for affine-set energies


class _Arith:
    """Field arithmetic on raw values: ints mod p, or Fractions (p = 0)."""

    def __init__(self, p: int):
        self.p = p

    def parse(self, text: str):
        if self.p:
            num, _, den = text.partition("/")
            v = int(num) % self.p
            return v * pow(int(den), -1, self.p) % self.p if den else v
        return Fraction(text)

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x

    def norm(self, x):
        return x % self.p if self.p else x

    def render(self, x) -> str:
        if self.p:
            return str(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_affine_text(text: str):
    """(arith, [(a, b), ...]) from an affine-set or planar-set file: planar
    rows `x:y:1` are the maps x -> x*t + y of the energy correspondence."""
    rows = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    spec = rows[0].split(None, 1)[1].strip()
    ar = _Arith(0 if spec == "Q" else int(spec[3:]))
    pairs = []
    for row in rows[1:]:
        parts = row.split(":") if ":" in row else row.split()
        pairs.append((ar.parse(parts[0]), ar.parse(parts[1])))
    return ar, pairs


def reference_energy(text: str) -> dict:
    """E, E*, |AA|, |A^-1 A| and per-C (|C_C|, Q_C) of an affine set.

    The energy quadruples g^-1 h = u^-1 v are grouped by the quotient
    (a_h/a_g, (b_h - b_g)/a_g); inside a group every ordered pair of pairs
    is a quadruple, with C = a_g * a_v.
    """
    ar, maps = parse_affine_text(text)
    quot: Dict[tuple, List[Counter]] = defaultdict(lambda: [Counter(), Counter()])
    prod: Counter = Counter()
    for ag, bg in maps:
        ig = ar.inv(ag)
        for ah, bh in maps:
            first, second = quot[(ar.norm(ah * ig), ar.norm((bh - bg) * ig))]
            first[ag] += 1
            second[ah] += 1
            prod[(ar.norm(ag * ah), ar.norm(ag * bh + bg))] += 1
    E = 0
    q_c: Counter = Counter()
    for first, second in quot.values():
        E += sum(first.values()) ** 2
        for x, cx in first.items():
            for y, cy in second.items():
                q_c[ar.norm(x * y)] += cx * cy
    slopes = Counter(a for a, _ in maps)
    slice_c: Counter = Counter()
    for x, cx in slopes.items():
        for y, cy in slopes.items():
            slice_c[ar.norm(x * y)] += cx * cy
    return {
        "size": len(maps),
        "E": E,
        "E_star": sum(r * r for r in prod.values()),
        "AA": len(prod),
        "AinvA": len(quot),
        "per_c": {ar.render(c): {"slice": s, "q": q_c.get(c, 0)} for c, s in slice_c.items() if q_c.get(c, 0)},
    }


# ---------------------------------------------------------------------------
# report checks


def _same_per_c(per_c: dict, ref: dict) -> bool:
    if set(per_c) != set(ref["per_c"]):
        return False
    return all(per_c[c]["slice"] == ref["per_c"][c]["slice"] and per_c[c]["q"] == ref["per_c"][c]["q"] for c in per_c)


NEEDS_REFERENCE = ("energy", "boundcheck", "decompose", "incidence", "oracle", "quadrangles")


def check_report(command: str, data: bytes, ref: Optional[dict]) -> List[str]:
    """Problems found in one report (empty when it passes)."""
    if command == "sweep":
        lines = data.decode().splitlines()
        ok = lines[:1] == ["# schema: sweep-csv/1"] and len(lines) >= 3 and all(r.count(",") >= 15 for r in lines[1:])
        return [] if ok else ["malformed sweep CSV"]
    try:
        rep = json.loads(data)
    except ValueError:
        return ["report is not JSON"]
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if command in ("energy", "boundcheck"):
        need(rep["schema"] == "energy-report/1", "energy schema")
        for key in ("size", "E", "E_star", "AA", "AinvA"):
            need(rep[key] == ref[key], f"{key} differs from the reference")
        need(_same_per_c(rep["per_c"], ref), "per-C table differs from the reference")
        need(rep["cs_quotient_ok"] and rep["cs_product_ok"] and rep["shkredov_ok"], "energy inequalities")
        if command == "boundcheck":
            need(len(rep["pointplane"]) >= 1, "no point-plane slices")
    elif command == "decompose":
        need(rep["E"] == ref["E"] and rep["sum_q"] == ref["E"], "E or sum_q differs from the reference")
        need(_same_per_c(rep["per_c"], ref), "per-C table differs from the reference")
        need(rep["decomposition_identity_ok"] and rep["slice_l1_ok"] and rep["slice_linf_ok"], "identity flags")
    elif command == "incidence":
        need(rep["mismatches"] == 0, "incidence route disagrees")
        need(_same_per_c(rep["per_c"], ref), "per-C table differs from the reference")
        need(all(v["q_via_incidence"] == v["q"] for v in rep["per_c"].values()), "q_via_incidence")
    elif command == "oracle":
        need(rep["all_equal"] is True, "fast path and oracle disagree")
        need(rep["energy"]["fast"] == ref["E"] and rep["energy_star"]["fast"] == ref["E_star"], "energy differs from the reference")
    elif command == "quadrangles":
        need(rep["energy_total"] == ref["E"], "energy_total differs from the reference")
        need(rep["exhaustive"] is True, "quadrangle partition not exhaustive")
        need(rep["energy_total"] == rep["geometric"] + rep["trivial"] + rep["collinear"], "partition sum")
    elif command == "shadow":
        need(rep["schema"] == "shadow-check/1" and rep["nonvertical_inequality_holds"] is True, "shadow inequality")
    elif command == "richlines":
        need(rep["schema"] == "richline-report/1" and rep["rejected_horizontal_rows"] == 0, "rich-line report")
    else:
        problems.append(f"no check for command {command!r}")
    return problems
