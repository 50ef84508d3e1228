"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD_DIR NEW_DIR

Each directory holds the result records that `run.py --results DIR` writes,
one per run (untraced runs only are compared).  For every workload and
end-to-end metric this prints both sides' median and quartiles and a verdict:

* worse: the new side has a run with incorrect reports, or a larger share
  of failed jobs than the old side, on this workload;
* unresolved: the relative spread (q3 - q1) / median of either side exceeds
  the metric's bound, and the new runs do not all beat the old ones (when
  the old runs all beat the new ones, the verdict is worse);
* worse: the new median is worse than the old one by more than the bound;
* improved: the new side wins at least 9 in 10 of the runs paired by seed,
  and the medians differ by more than the old side's q3 - q1;
* unchanged: otherwise.

Bounds come from BENCHMARK.json.  Runs should alternate between the two
commits, and one side's seeds should equal the other's.  A side whose records
come from more than one git revision is refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """workload -> seed -> record, for untraced full-scale runs."""
    out: dict = {}
    revisions = set()
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and rec.get("scale") == "full":
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
            revisions.add(rec["git_revision"])
    if len(revisions) > 1:
        sys.exit(f"error: {directory} holds runs of several revisions: {', '.join(sorted(revisions))}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def failed_frac(records) -> float:
    records = list(records)
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(old: dict, new: dict, bound: float, lower_is_better: bool) -> str:
    """old/new map seed -> value."""
    sign = 1 if lower_is_better else -1
    o, n = list(old.values()), list(new.values())
    oq1, om, oq3 = quartiles(o)
    nq1, nm, nq3 = quartiles(n)
    spread = max((oq3 - oq1) / om if om else 0.0, (nq3 - nq1) / nm if nm else 0.0)
    all_better = max(sign * v for v in n) < min(sign * v for v in o)
    all_worse = min(sign * v for v in n) > max(sign * v for v in o)
    if spread > bound and not all_better:
        return "worse" if all_worse else "unresolved"
    change = sign * (nm - om) / om if om else 0.0
    if change > bound:
        return "worse"
    pairs = [s for s in old if s in new]
    wins = sum(1 for s in pairs if sign * new[s] < sign * old[s])
    if pairs and wins >= 0.9 * len(pairs) and sign * (om - nm) > oq3 - oq1:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two result directories of bench/run.py.")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    old, new = load(args.old), load(args.new)
    for side, runs in (("old", old), ("new", new)):
        recs = [r for per in runs.values() for r in per.values()]
        revs = sorted({r["git_revision"][:12] for r in recs})
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print(f"{side}: {len(recs)} runs, revision {', '.join(revs)}, failed {failed} of {attempted} jobs")
    print(f"{'workload':16s} {'metric':12s} {'old q1/med/q3':>30s} {'new q1/med/q3':>30s} {'change':>8s}  verdict")
    worse = False
    for workload in sorted(set(old) & set(new)):
        old_failed = failed_frac(old[workload].values())
        new_failed = failed_frac(new[workload].values())
        new_correct = all(r["correct"] for r in new[workload].values())
        for name, m in spec.items():
            o = {s: r["metrics"][name] for s, r in old[workload].items()}
            n = {s: r["metrics"][name] for s, r in new[workload].items()}
            if not new_correct or new_failed > old_failed:
                v = "worse"
            else:
                v = verdict(o, n, m["bound"], m["better"] == "lower")
            worse = worse or v == "worse"
            oq = quartiles(list(o.values()))
            nq = quartiles(list(n.values()))
            change = nq[1] / oq[1] - 1 if oq[1] else 0.0
            print(f"{workload:16s} {name:12s} {_fmt(oq):>30s} {_fmt(nq):>30s} {change:+8.3f}  {v} ({m['unit']}, bound {m['bound']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
