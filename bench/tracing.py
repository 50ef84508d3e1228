"""Per-layer tracing from outside the program.

`Tracer.install` replaces every binding of each traced function object in
every `affine_energy.*` module namespace with a wrapper that records a span.
Module-level imports (`from .energy import energy` in cli.py) and
function-local imports (`from .energy import main_bound_report`, resolved at
call time) both find the wrapper, and so do calls between functions of one
module, which look the name up in the module globals.  Per-element code
(`quotient`, `compose`, `Scalar` operators) is never wrapped: its calls are
too many and too short for a span each.

Spans live in memory as (name, start_ns, end_ns, parent, job) tuples and are
written out once at the end.  A span's self time is its duration minus the
time covered by its direct children; spans nest on one thread, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("fields", "affine", "energy", "incidence3d", "plane", "richlines", "files", "reports")


def _distinct(xs) -> int:
    return len(set(xs))


def _square_pairs(args, result):
    n = len(args[0])
    return {"energy.kernel.pairs": n * n}


def _product_pairs(args, result):
    return {"affine.product_set.pairs": len(args[0]) * len(args[1])}


def _collinear_pairs(args, result):
    t = _distinct(args[0])
    return {"incidence3d.max_collinear_3d.point_pairs": t * (t - 1) // 2}


def _incidence_tests(args, result):
    return {
        "incidence3d.incidences.tests": _distinct(args[0]) * _distinct(args[1]),
        "incidence3d.incidences.hits": result,
    }


def _quadrangle_triples(args, result):
    n = _distinct(args[0])
    return {"plane.quadrangles.triples": n**3, "plane.quadrangles.found": result}


def _span_lines(args, result):
    return {"plane.span_lines.lines": len(result)}


def _bytes_in(args, result):
    return {"files.bytes_in": len(args[0].encode())}


def _json_bytes(args, result):
    return {"reports.dump_json.bytes": len(result.encode())}


# Traced functions, by module, each with the work counter computed from its
# arguments and result.  Counters that take a point or plane collection need
# it to be re-iterable; every caller in the package passes a list or a set.
TRACED: Dict[str, Dict[str, Optional[Callable]]] = {
    "fields": {"parse_field": None},
    "affine": {"product_set": _product_pairs, "max_on_line": None},
    "energy": {
        "energy": _square_pairs,
        "energy_star": _square_pairs,
        "decompose_by_C": _square_pairs,
        "main_bound_report": None,
        "c_slice": None,
        "energy_bruteforce": None,
        "decompose_bruteforce": None,
    },
    "incidence3d": {
        "max_collinear_3d": _collinear_pairs,
        "incidences": _incidence_tests,
        "q_c_incidence_table": None,
        "pointplane_bound_report": None,
        "beck_plane_classification": None,
    },
    "plane": {
        "quadrangles": _quadrangle_triples,
        "quadrangle_energy_correspondence": None,
        "quadrangles_bruteforce": None,
        "span_lines": _span_lines,
        "shadow": None,
        "shadow_incidence_check": None,
        "beck_point_stats": None,
    },
    "richlines": {
        "max_concurrent_pencil": None,
        "pencil_bruteforce": None,
        "structure_report": None,
        "elekes_incidence_bound_check": None,
    },
    "generators": {"seeded_random": None},
    "files": {"read_affine_set": _bytes_in, "read_planar_set": _bytes_in, "read_grid_instance": _bytes_in},
    "reports": {"dump_json": _json_bytes, "dump_csv": None},
}

KERNEL = ("energy.energy", "energy.energy_star", "energy.decompose_by_C")

# Bases printed beside each ratio.
RATIO_BASES = {
    "energy.kernel.ns_per_pair": "energy.kernel.pairs",
    "incidence3d.incidences.hit_ratio": "incidence3d.incidences.tests",
}

Span = Tuple[str, int, int, int, str]  # name, start_ns, end_ns, parent index (-1 for a root), job id


class Tracer:
    """Span recorder for one process.  `root` opens a job-level span;
    wrapped functions open child spans under the innermost open span."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))  # job -> counter -> n
        self._stack: List[int] = []
        self._job = ""

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._job)
            job_counts = self.counts[self._job]
            job_counts[name + ".calls"] += 1
            if counter is not None:
                for key, n in counter(args, result).items():
                    job_counts[key] += n
            return result

        return traced

    def install(self, modules: Dict[str, object]) -> int:
        """Rebinds every traced function in every module of `modules`
        (qualified name -> module); returns the number of bindings replaced."""
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            mod = modules[f"affine_energy.{mod_name}"]
            for fn_name, counter in funcs.items():
                original = getattr(mod, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original, counter))
        replaced = 0
        for qual, mod in modules.items():
            if not (qual == "affine_energy" or qual.startswith("affine_energy.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced += 1
        return replaced

    def root(self, name: str, job: str, fn: Callable, *args):
        """Runs fn(*args) inside a root span named `name` for job `job`."""
        self._job = job
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1, job)
            self._job = ""

    def self_times(self, jobs) -> Dict[str, float]:
        """Self time in seconds per span name, over spans of the given jobs."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if job in jobs:
                out[name] += (end - start - covered[i]) / 1e9
        return out

    def totals(self, jobs) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for job in jobs:
            for key, n in self.counts.get(job, {}).items():
                out[key] += n
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (ns), parent index, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer, pass_jobs, n_passes: int, setup_jobs, traced_wall: float, plain_wall: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Times and counts are per pass of the job list, except
    `generators.seeded_random.self_s`, which is per set-up (the only place
    the benchmark calls the generator).
    """
    selfs = tracer.self_times(pass_jobs)
    counts = tracer.totals(pass_jobs)
    out: Dict[str, Tuple[float, str]] = {}

    def per_pass(x):
        return x / n_passes

    def put_time(name):
        out[f"{name}.self_s"] = (per_pass(selfs.get(name, 0.0)), "s")

    for mod_name, funcs in TRACED.items():
        if mod_name == "generators":
            continue
        for fn_name in funcs:
            put_time(f"{mod_name}.{fn_name}")
    for name in ("fields.parse_field", "energy.c_slice"):
        out[f"{name}.calls"] = (per_pass(counts.get(f"{name}.calls", 0)), "count")
    for key in (
        "affine.product_set.pairs",
        "energy.kernel.pairs",
        "incidence3d.max_collinear_3d.point_pairs",
        "incidence3d.incidences.tests",
        "incidence3d.incidences.hits",
        "plane.quadrangles.triples",
        "plane.quadrangles.found",
        "plane.span_lines.lines",
        "files.bytes_in",
        "reports.dump_json.bytes",
    ):
        out[key] = (per_pass(counts.get(key, 0)), "bytes" if "bytes" in key else "count")

    kernel_s = sum(selfs.get(name, 0.0) for name in KERNEL)
    pairs = counts.get("energy.kernel.pairs", 0)
    out["energy.kernel.ns_per_pair"] = (kernel_s * 1e9 / pairs if pairs else 0.0, "ns")
    tests = counts.get("incidence3d.incidences.tests", 0)
    out["incidence3d.incidences.hit_ratio"] = (counts.get("incidence3d.incidences.hits", 0) / tests if tests else 0.0, "ratio")

    out["cli.glue.self_s"] = (per_pass(selfs.get("job", 0.0)), "s")
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (per_pass(total), "s")

    setup_selfs = tracer.self_times(setup_jobs)
    out["generators.seeded_random.self_s"] = (setup_selfs.get("generators.seeded_random", 0.0) / max(len(setup_jobs), 1), "s")
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return out
