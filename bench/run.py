"""Benchmark of the affine-energy batch CLI.

    python3 bench/run.py --workload energy-large --seed 1 --seconds 30 --trace 0

Runs `affine_energy.cli.main([...])` in this process as a closed loop: one
client, no threads, no `--jobs`, each job started when the previous one has
finished.  The set-up imports the package from `src/`, writes the seeded
input files, and runs one warm-up job.  The run repeats a set-up and the
workload's fixed job list (one pass) while the next pair fits in
`--seconds`; `setup_s` is the median set-up.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run (see
tracing.py), measured after untraced passes that give the tracing overhead.
Every report is checked (see check.py); the checks that parse reports and
recompute the reference run after the metrics are taken, so that they add
nothing to `peak_rss_mb`.  A result record with the run's
metadata goes to `--results` for `compare.py`.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"wall_s": "s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def _package_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "affine_energy" or m.startswith("affine_energy.")}


def drop_package() -> None:
    """Unloads any copy of affine_energy and collects it, so that the next
    set-up pays the import and not the collection of the previous copy."""
    for name in _package_modules():
        del sys.modules[name]
    gc.collect()


def fresh_import() -> dict:
    """Imports affine_energy from this checkout's src/."""
    pkg_dir = SRC / "affine_energy"
    if not (pkg_dir / "cli.py").is_file():
        raise ProgramMissing(f"no affine_energy package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("affine_energy")
    if Path(pkg.__file__).resolve().parent != pkg_dir.resolve():
        raise ProgramMissing(f"affine_energy was imported from {pkg.__file__}, not from {pkg_dir}")
    importlib.import_module("affine_energy.cli")
    return _package_modules()


class Runner:
    """Set-up, passes and checks for one workload in one work directory."""

    def __init__(self, wl: workloads.Workload, work: Path, expected):
        self.wl = wl
        self.inputs = work / "inputs"
        self.reports = work / "reports"
        self.expected = expected  # recorded digests for this seed, or None
        self.mods = {}
        self.texts = {}
        self.first = {}  # job id -> digest of its first report
        self.unchecked = {}  # job id -> (job, bytes) of first reports not yet checked
        self.bad = {}  # job id -> problems
        self._refs = {}

    def write_inputs(self) -> None:
        m = self.mods
        texts = workloads.render_inputs(self.wl, m["affine_energy.generators"], m["affine_energy.files"], m["affine_energy.fields"])
        if self.texts and texts != self.texts:
            raise RuntimeError("input generation is not deterministic")
        for name, text in texts.items():
            with open(self.inputs / f"{name}.txt", "w") as fh:
                fh.write(text)
        self.texts = texts

    def set_up(self) -> float:
        """Import, inputs generated and written, one warm-up job; returns seconds."""
        self.mods = {}
        drop_package()
        start = time.perf_counter()
        self.mods = fresh_import()
        self.write_inputs()
        self.run_pass([j for j in self.wl.jobs if j.id == self.wl.warmup])
        return time.perf_counter() - start

    def argv(self, job: workloads.Job) -> list:
        src = str(self.inputs / f"{job.input}.txt")
        return [a.replace("{in}", src) for a in job.argv] + ["--out", str(self.reports / job.out)]

    def run_pass(self, jobs, tracer=None, index=0):
        """Runs jobs back to back; returns (wall seconds, [(job id, seconds)]).
        With a tracer, each job runs in a root span tagged `t<index>:<job id>`."""
        main = self.mods["affine_energy.cli"].main
        calls = []
        for job in jobs:
            out = self.reports / job.out
            if out.exists():
                out.unlink()
            calls.append((job, self.argv(job), out))
        times = []
        results = []
        pass_start = time.perf_counter()
        for job, argv, out in calls:
            start = time.perf_counter()
            try:
                rc = tracer.root("job", f"t{index}:{job.id}", main, argv) if tracer else main(argv)
                err = None
            except (Exception, SystemExit) as exc:  # a raising job is a failed job, not a failed run
                rc, err = None, f"{type(exc).__name__}: {exc}"
            times.append((job.id, time.perf_counter() - start))
            results.append((job, rc, err, out))
        wall = time.perf_counter() - pass_start
        for job, rc, err, out in results:
            self.verify(job, rc, err, out)
        return wall, times

    def passes(self, budget: float, tracer=None):
        """Repeats the job list while the next pass fits in `budget` seconds;
        returns the pass walls and the (job id, seconds) of every job run."""
        walls, times = [], []
        start = time.perf_counter()
        while True:
            wall, t = self.run_pass(self.wl.jobs, tracer, len(walls))
            walls.append(wall)
            times.extend(t)
            if time.perf_counter() - start + wall > budget:
                return walls, times

    def reference(self, name: str) -> dict:
        if name not in self._refs:
            self._refs[name] = check.reference_energy(self.texts[name])
        return self._refs[name]

    def verify(self, job, rc, err, out) -> None:
        if err is not None or rc != 0 or not out.exists():
            self.bad.setdefault(job.id, []).append(err or (f"exit code {rc}" if rc != 0 else "no report written"))
            return
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if job.id not in self.first:
            self.first[job.id] = digest
            self.unchecked[job.id] = (job, data)
            if self.expected is not None and self.expected.get(job.id) != digest:
                self.bad.setdefault(job.id, []).append("digest differs from the recorded one")
        elif digest != self.first[job.id]:
            self.bad.setdefault(job.id, []).append("report bytes changed between passes")

    def check_reports(self) -> None:
        """Parses each job's first report and checks it against its own flags
        and the independent reference (check.py)."""
        for job_id, (job, data) in sorted(self.unchecked.items()):
            command = job.argv[0]
            ref = self.reference(job.input) if command in check.NEEDS_REFERENCE else None
            try:
                problems = check.check_report(command, data, ref)
            except (KeyError, TypeError) as exc:
                problems = [f"report lacks an expected field: {exc!r}"]
            if problems:
                self.bad.setdefault(job_id, []).extend(problems)
        self.unchecked.clear()


def git_revision() -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_medians(times) -> dict:
    """Median seconds of each job over the passes that ran it."""
    per_job = {}
    for job_id, t in times:
        per_job.setdefault(job_id, []).append(t)
    return {job_id: statistics.median(ts) for job_id, ts in sorted(per_job.items())}


def list_seconds(times) -> float:
    """Time to finish the job list once: the sum over its jobs of each job's
    median time.  The host's noise hits single jobs; a sum of per-job
    medians damps it more than a median over a few whole passes."""
    return sum(job_medians(times).values())


def measure(runner: Runner, seconds: float):
    """Untraced run: (metric values, notes, job times).  A set-up precedes
    every pass, so that set-ups and passes sample the host over the same
    span: its speed drifts over tens of seconds.  The peak memory is read
    after the first set-up and pass, like one session of a user, because
    each later import leaves class objects behind in the standard library's
    typing caches.  All passes run the same jobs."""
    setups, walls, times = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.set_up())
        wall, t = runner.run_pass(runner.wl.jobs, None, len(walls))
        if not walls:
            peak = peak_rss_mb()
        walls.append(wall)
        times.extend(t)
        if time.perf_counter() - start + setups[-1] + wall > seconds:
            break
    job_times = [t for _, t in times]
    values = {
        "wall_s": list_seconds(times),
        "job_s.p50": statistics.median(job_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    notes = {
        "wall_s": f"sum of per-job medians over {len(walls)} passes; pass walls " + " ".join(f"{w:.3f}" for w in walls),
        "job_s.p50": f"median over {len(job_times)} job runs ({len(runner.wl.jobs)} jobs per pass)",
        "setup_s": f"median of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of the benchmark process after the first set-up and pass",
    }
    p90 = statistics.quantiles(job_times, n=10)[-1]
    beyond = sum(1 for t in job_times if t > p90)
    if beyond >= 10:  # a percentile is reported only with ten samples beyond it
        notes["job_s.p90"] = f"{p90:.6f} s, {beyond} of {len(job_times)} job runs beyond it"
        print(f"job_s.p90 {notes['job_s.p90']}")
    return values, notes, times


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    """Traced run: untraced passes for the overhead baseline, then a traced
    set-up and traced passes.  Returns (metric values and units, notes, job times)."""
    runner.set_up()
    _, plain_times = runner.passes(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(runner.mods)
    tracer.root("setup", "setup", runner.write_inputs)
    walls, times = runner.passes(seconds / 2, tracer)
    pass_jobs = {f"t{i}:{j.id}" for i in range(len(walls)) for j in runner.wl.jobs}
    traced, plain = list_seconds(times), list_seconds(plain_times)
    values = tracing.layer_metrics(tracer, pass_jobs, len(walls), {"setup"}, traced, plain)
    tracer.write(spans_path)
    notes = {k: f"base {b} = {values[b][0]:.0f} per pass" for k, b in tracing.RATIO_BASES.items()}
    notes["trace.overhead_frac"] = f"traced {traced:.4f} s over untraced {plain:.4f} s per pass"
    return values, notes, plain_times + times


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full", help="tiny is for the self-test")
    ap.add_argument("--results", default=str(ROOT / ".bench_work" / "results"), help="directory for result records")
    ap.add_argument("--record", action="store_true", help="store this run's report digests in digests.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.build(args.workload, args.seed, args.scale)
    work = ROOT / ".bench_work" / f"{wl.name}-seed{args.seed}-{wl.scale}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "reports").mkdir()
    digests = check.load_digests()
    runner = Runner(wl, work, None if args.record else check.recorded(digests, wl.name, args.seed, wl.scale))
    meta = {
        "workload": wl.name,
        "scale": wl.scale,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "digests_recorded": runner.expected is not None,
    }
    print(f"# {json.dumps(meta)}")

    try:
        if args.trace == 0:
            metrics, notes, times = measure(runner, args.seconds)
            units = END_TO_END_UNITS
        else:
            values, notes, times = measure_traced(runner, args.seconds, work / "spans.jsonl")
            metrics = {k: v for k, (v, _) in values.items()}
            units = {k: u for k, (_, u) in values.items()}
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner.check_reports()

    attempted = len(times)
    failed = sum(1 for job_id, _ in times if job_id in runner.bad)
    for job_id, problems in sorted(runner.bad.items()):
        print(f"FAILED {job_id}: {'; '.join(sorted(set(problems)))}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:48s} {value:14.6f} {units[name]:6s} {note}")
    print(f"failed_frac {failed / attempted:.4f}  ({failed} of {attempted} jobs)")

    record = dict(meta, correct=not runner.bad, attempted=attempted, failed=failed, metrics=metrics, units=units, notes=notes)
    record["job_s_median"] = job_medians(times)
    record["digests"] = runner.first
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{wl.scale}-{meta['git_revision'][:12]}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.record and not runner.bad and wl.scale == "full":
        digests.setdefault(wl.name, {})[str(args.seed)] = dict(sorted(runner.first.items()))
        with open(check.DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")

    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not runner.bad, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
