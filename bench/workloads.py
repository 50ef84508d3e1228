"""The four workloads: seeded inputs and the fixed job list of each.

A workload is a list of CLI jobs over input files that the set-up writes.
Every choice that varies between runs (random sets, progression ratios and
steps, oracle sizes, job order) is drawn from the run's seed, so one seed
always gives the same input files and the same job list.  Sizes are fixed per
workload and scale, so different seeds cost about the same; that keeps the
run-to-run spread of the timings small.

`full` is the measured scale; `tiny` runs every job kind in well under a
second and serves the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

NAMES = ("energy-large", "slice-incidence", "planar", "oracle-stream")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Input:
    """One input file.  `kind` is "affine" or "planar" (seeded random sets,
    `spec` = (n, generator seed)), "gen" (an affine set from a generator
    spec string) or "text" (file text composed here)."""

    name: str
    kind: str
    field: str
    spec: object


@dataclass(frozen=True)
class Job:
    id: str
    argv: Tuple[str, ...]  # CLI arguments; "{in}" names the job's input file
    input: str  # Input.name, or "" for jobs that generate their own set
    out: str  # report file name


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    inputs: Tuple[Input, ...]
    jobs: Tuple[Job, ...]
    warmup: str  # id of the job that every set-up runs once


def _sub_seed(seed: int, index: int) -> int:
    """Generator seed of the index-th random input of a run."""
    return (seed * 1_000_003 + index * 7919 + 1) % (1 << 63)


def _field_tag(field: str) -> str:
    return field.replace("Fp:", "f").lower()


def _job(cmd: str, inp: Input, *extra: str, tag: str = "") -> Job:
    jid = f"{cmd}-{inp.name}{tag}"
    return Job(jid, (cmd, "--input", "{in}", "--field", inp.field) + extra, inp.name, f"{jid}.json")


def _energy_large(rng: random.Random, seed: int, scale: str) -> Workload:
    tiny = scale == "tiny"
    # Sizes per field put each field's jobs at a similar share of the pass.
    sizes = {"Fp:1009": 100, "Fp:1000003": 64, "Q": 56}
    grid = 8
    if tiny:
        sizes = {f: 8 for f in sizes}
        grid = 3
    inputs = [Input(f"aff-{_field_tag(f)}", "affine", f, (n, _sub_seed(seed, i))) for i, (f, n) in enumerate(sizes.items())]
    grid_in = Input("grid-f1009", "gen", "Fp:1009", f"grid:{grid}")
    jobs = []
    for inp in inputs:
        jobs.append(_job("energy", inp))
        jobs.append(_job("decompose", inp))
    jobs.append(_job("energy", grid_in))
    rng.shuffle(jobs)
    return Workload("energy-large", scale, tuple(inputs) + (grid_in,), tuple(jobs), f"energy-{grid_in.name}")


def _slice_incidence(rng: random.Random, seed: int, scale: str) -> Workload:
    tiny = scale == "tiny"
    # r and s vary the numbers, not the structure: gp(1,r,N)xap(0,s,N) is
    # conjugate to gp(1,r,N)xap(0,1,N), and r has multiplicative order at
    # least 168 mod 1009, so no progression wraps around.
    r = rng.choice((2, 3, 5, 6, 7))
    s = rng.randint(1, 9)
    big, mid, small, sweep_hi = (7, 6, 5, 5) if not tiny else (3, 3, 2, 3)
    q_grid = Input(f"grid{big}-q", "gen", "Q", f"grid:{big}")
    p_grid = Input(f"grid{big}-f1009", "gen", "Fp:1009", f"grid:{big}")
    elekes = ("--set-s", f"ap(1,1,{big})", "--set-t", f"ap(1,{s},{big})")
    inputs = [q_grid, p_grid]
    jobs = [_job("boundcheck", q_grid), _job("boundcheck", p_grid, *elekes, tag="-elekes")]
    for f in ("Q", "Fp:1009"):
        tag = _field_tag(f)
        prod = Input(f"prod{mid}-{tag}", "gen", f, f"affprod:gp(1,{r},{mid})xap(0,{s},{mid})")
        inc = Input(f"prod{small}-{tag}", "gen", f, f"affprod:gp(1,{r},{small})xap(0,{s},{small})")
        inputs += [prod, inc]
        jobs += [_job("boundcheck", prod), _job("incidence", inc)]
    template = f"affprod:gp(1,{r},N)xap(0,{s},N)"
    jobs.append(
        Job("sweep", ("sweep", "--gen", template, "--range", f"N=3..{sweep_hi}", "--field", "Q"), "", "sweep.csv")
    )
    rng.shuffle(jobs)
    warm = f"incidence-prod{small}-f1009"
    return Workload("slice-incidence", scale, tuple(inputs), tuple(jobs), warm)


def _grid_instance_text(rng: random.Random, n: int, lines: int) -> str:
    """A square grid {1..n}^2 with a parallel family, a pencil and random
    lines, so both Cauchy-Schwarz chains of the structure report run."""
    rows = set()
    step = rng.randint(1, 3)
    for b in range(-n // 2, n // 2):
        rows.add((step, b))
    x0, y0 = rng.randint(1, n), rng.randint(1, n)
    for a in range(1, lines // 3 + 1):
        rows.add((a, y0 - a * x0))
    while len(rows) < lines:
        rows.add((rng.choice((1, 2, 3, -1, -2)), rng.randint(-2 * n, 2 * n)))
    text = ["field Q", "alpha 1/3", "S: " + " ".join(map(str, range(1, n + 1))), "T: " + " ".join(map(str, range(1, n + 1)))]
    text += [f"{a} {b}" for a, b in sorted(rows)]
    return "\n".join(text) + "\n"


def _planar(rng: random.Random, seed: int, scale: str) -> Workload:
    tiny = scale == "tiny"
    sizes = {"Q": 30, "Fp:1009": 40, "Fp:1000003": 30}
    grid_n, grid_lines = 40, 150
    if tiny:
        sizes = {f: 6 for f in sizes}
        grid_n, grid_lines = 5, 9
    inputs = [Input(f"pts-{_field_tag(f)}", "planar", f, (n, _sub_seed(seed, i))) for i, (f, n) in enumerate(sizes.items())]
    jobs = []
    for inp in inputs:
        jobs.append(_job("quadrangles", inp))
        jobs.append(_job("shadow", inp))
    inst = Input("gridinst-q", "text", "Q", _grid_instance_text(rng, grid_n, grid_lines))
    inputs.append(inst)
    jobs.append(_job("richlines", inst))
    rng.shuffle(jobs)
    return Workload("planar", scale, tuple(inputs), tuple(jobs), "shadow-pts-f1009")


def _oracle_stream(rng: random.Random, seed: int, scale: str) -> Workload:
    tiny = scale == "tiny"
    # Criterion-1 traffic draws n uniformly from 5..40.  A fixed schedule
    # spaced evenly over that range (job i of `count` has
    # n = 5 + int(36 * (i + 1/2) / count)) keeps that spread of sizes in
    # every run, so a run's total work hardly depends on the seed.  Fields
    # rotate over the schedule; the seed draws the sets and the order.
    count = 6 if tiny else 20
    top = 8 if tiny else 40
    fields = ("Fp:101", "Fp:1009", "Q")
    inputs = []
    for i in range(count):
        n = 5 + int((top - 4) * (i + 0.5) / count)
        f = fields[i % len(fields)]
        inputs.append(Input(f"aff{i:02d}-n{n}-{_field_tag(f)}", "affine", f, (n, _sub_seed(seed, i))))
    jobs = [_job("oracle", inp) for inp in inputs]
    warm = jobs[count // 2].id
    rng.shuffle(jobs)
    return Workload("oracle-stream", scale, tuple(inputs), tuple(jobs), warm)


_BUILDERS = {
    "energy-large": _energy_large,
    "slice-incidence": _slice_incidence,
    "planar": _planar,
    "oracle-stream": _oracle_stream,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name` for one seed; the same arguments give the same
    inputs and the same job order."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seed, scale)


def render_inputs(wl: Workload, generators, files, fields) -> dict:
    """Input file texts keyed by Input.name, made with the program's own
    seeded generators and file writers (the set-up work that `setup_s`
    times)."""
    texts = {}
    for inp in wl.inputs:
        if inp.kind == "text":
            texts[inp.name] = inp.spec
            continue
        field = fields.parse_field(inp.field)
        if inp.kind == "gen":
            obj, _ = generators.generate_with_stats(generators.parse_gen_spec(inp.spec), field)
            texts[inp.name] = files.write_affine_set(field, obj)
        elif inp.kind == "affine":
            n, sub = inp.spec
            texts[inp.name] = files.write_affine_set(field, generators.seeded_random(n, sub, field, "affine"))
        else:
            n, sub = inp.spec
            texts[inp.name] = files.write_planar_set(field, generators.seeded_random(n, sub, field, "planar"))
    return texts
