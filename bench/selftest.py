"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
the last output line has exactly the keys `correct`, `attempted`, `failed`
and `metrics`, that every metric BENCHMARK.json lists prints with its unit,
and that no job failed.
Then checks that a directory holding only BENCHMARK.json and bench/ (no
program) makes run.py exit non-zero without printing a result.  Everything
it writes stays under .bench_work/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "selftest"
TIMEOUT = 120


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args, "--results", str(WORK / "results")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    if not (last.get("correct") is True and last.get("failed") == 0 and last.get("attempted", 0) >= 1):
        problems.append(f"failed_frac is not 0: {last.get('failed')} of {last.get('attempted')}, correct={last.get('correct')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in last.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metric names or units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in last.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def check_bare() -> list:
    """run.py in a directory without the program must fail without a result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "planar", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run without the program exited 0 or printed a result"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {w['name']} trace={trace} {'; '.join(problems)}")
    problems = check_bare()
    failures += bool(problems)
    print(f"{'ok  ' if not problems else 'FAIL'} no-program directory {'; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
