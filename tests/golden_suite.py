"""The fixed generator suite behind the bound-ratio ceiling regression.

Running this file as a script refreshes tests/golden/ceilings.json:

    python3 tests/golden_suite.py --write

The recorded ceilings are exact rationals; the regression test recomputes
every ratio over the identical suite and fails on any exceedance.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from affine_energy import (
    APSpec,
    AffProductSpec,
    GPSpec,
    GridSpec,
    ParabolaSpec,
    PrimeField,
    RATIONALS,
    main_bound_report,
    seeded_random,
    generate,
    top_slice_reports,
)
from affine_energy.exactmath import render_fraction
from affine_energy.plane import plane_points_as_affine_set

GOLDEN_PATH = Path(__file__).parent / "golden" / "ceilings.json"

F101 = PrimeField(101)
F1009 = PrimeField(1009)
Q = RATIONALS


def suite_sets():
    """(label, AffineSet) pairs; the order and content are frozen."""
    out = []
    for n in range(3, 13):
        out.append((f"grid:{n}", generate(GridSpec(n), Q)))
    for n in range(4, 13):
        out.append((f"affprod:{n}", generate(AffProductSpec(GPSpec(1, 2, n), APSpec(0, 1, n)), Q)))
    for n in (5, 10, 15):
        pts = generate(ParabolaSpec(APSpec(1, 1, n)), Q)
        out.append((f"parabola:{n}", plane_points_as_affine_set(pts)))
    for name, field in (("F101", F101), ("F1009", F1009), ("Q", Q)):
        for seed in range(10):
            out.append((f"rand-{name}:{seed}", seeded_random(25, seed, field, "affine")))
    return out


def compute_ratios():
    """Per-instance Theorem-2.1 and Theorem-3.4 style ratios over the suite."""
    main_ratios = {}
    pp_ratios = {}
    for label, A in suite_sets():
        rep = main_bound_report(A)
        main_ratios[label] = rep.ratio_main
        pp_ratios[label] = max((r.ratio for _, r in top_slice_reports(rep.per_c, 3)), default=Fraction(0))
    return main_ratios, pp_ratios


def write_golden():
    main_ratios, pp_ratios = compute_ratios()
    payload = {
        "schema": "golden-ceilings/1",
        "ratio_main_max": render_fraction(max(main_ratios.values())),
        "pp_ratio_max": render_fraction(max(pp_ratios.values())),
        "per_instance": {
            label: {
                "ratio_main": render_fraction(main_ratios[label]),
                "pp_ratio": render_fraction(pp_ratios[label]),
            }
            for label in main_ratios
        },
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return payload


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    if "--write" in sys.argv:
        payload = write_golden()
        print(f"wrote {GOLDEN_PATH}")
        print("ratio_main_max =", payload["ratio_main_max"])
        print("pp_ratio_max =", payload["pp_ratio_max"])
    else:
        print(__doc__)
