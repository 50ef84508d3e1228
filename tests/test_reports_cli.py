"""File formats, report serialization, CLI subcommands, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import affine_energy
from affine_energy import PrimeField, RATIONALS
from affine_energy.cli import main
from affine_energy.energy import PerC
from affine_energy.files import (
    read_affine_set,
    read_grid_instance,
    read_planar_set,
    write_affine_set,
    write_planar_set,
)
from affine_energy.errors import ParseError

Q = RATIONALS

AFFINE_FILE = """# a comment
field Q
1 0
2 0
1/2 -3
"""

PLANAR_FILE = """field Fp:101
3 4
0:1:0
5:6:1
"""

GRID_FILE = """field Q
alpha 2/3
S: 0 1 2
T: 0 1 2
1 -1
1 0
1 1
0 5   # horizontal, rejected
"""


def test_read_affine_set_roundtrip():
    field, A = read_affine_set(AFFINE_FILE)
    assert field == Q and len(A) == 3
    text = write_affine_set(field, A)
    field2, B = read_affine_set(text)
    assert A == B and field2 == field


def test_read_planar_set_roundtrip():
    field, pts = read_planar_set(PLANAR_FILE)
    assert field == PrimeField(101) and len(pts) == 3
    text = write_planar_set(field, pts)
    _, pts2 = read_planar_set(text)
    assert pts == pts2


def test_read_grid_instance():
    inst, rejected = read_grid_instance(GRID_FILE)
    assert rejected == 1
    assert len(inst.lines) == 3
    assert inst.alpha == Fraction(2, 3)
    assert inst.S == frozenset({Fraction(0), Fraction(1), Fraction(2)})


def test_read_errors():
    with pytest.raises(ParseError):
        read_affine_set("1 0\n")
    with pytest.raises(ParseError):
        read_grid_instance("field Q\nS: 1\nT: 1\n1 0\n")
    with pytest.raises(ParseError):
        read_grid_instance("field Q\nalpha\nS: 1\nT: 1\n1 0\n")
    with pytest.raises(ParseError):
        read_affine_set("field\n1 0\n")


def run_cli(*argv):
    """Run in-process; returns (exit_code, stdout_text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_energy_grid3_json():
    code, out = run_cli("energy", "--gen", "grid:3", "--field", "Q", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["M"] == 3
    assert payload["E"] >= payload["E_star"]
    assert payload["shkredov_ok"] is True
    assert sum(v["q"] for v in payload["per_c"].values()) == payload["E"]


def test_cli_energy_csv():
    code, out = run_cli("energy", "--gen", "grid:3", "--field", "Q", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# schema: energy-report-csv/")
    assert lines[1].split(",")[0] == "field"
    assert len(lines) == 3


def test_cli_oracle_exit_codes():
    code, out = run_cli("oracle", "--gen", "randaff:20:seed=1", "--field", "Fp:101")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert run_cli("oracle", "--gen", "randaff:5:seed=1", "--field", "Q", "--oracle-cap", "0")[0] == 2


def test_cli_oracle_mismatch_exits_3(monkeypatch):
    import affine_energy.cli as cli_mod

    real = cli_mod.energy_bruteforce
    monkeypatch.setattr(cli_mod, "energy_bruteforce", lambda A, mode, cap: real(A, mode, cap) + 1)
    code, out = run_cli("oracle", "--gen", "randaff:8:seed=1", "--field", "Q")
    assert code == 3
    assert json.loads(out)["all_equal"] is False


def test_cli_decompose_identities():
    code, out = run_cli("decompose", "--gen", "randaff:12:seed=5", "--field", "Fp:1009")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition_identity_ok"] and payload["slice_l1_ok"] and payload["slice_linf_ok"]


def test_cli_incidence_route():
    code, out = run_cli("incidence", "--gen", "grid:4", "--field", "Q")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    for row in payload["per_c"].values():
        assert row["q"] == row["q_via_incidence"]


def test_cli_shadow_and_quadrangles():
    code, out = run_cli("shadow", "--gen", "randplanar:8:seed=4", "--field", "Q")
    assert code == 0
    payload = json.loads(out)
    assert payload["nonvertical_inequality_holds"] is True
    code2, out2 = run_cli("quadrangles", "--gen", "randplanar:10:seed=2", "--field", "Fp:101")
    assert code2 == 0
    assert json.loads(out2)["exhaustive"] is True


def test_cli_richlines_from_file(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_FILE)
    code, out = run_cli("richlines", "--input", str(path), "--field", "Q")
    assert code == 0
    payload = json.loads(out)
    assert payload["rejected_horizontal_rows"] == 1
    assert payload["family"]["size"] == 3
    assert payload["parallel_chain"]["links_hold"] is True


def test_cli_richlines_input_with_gen_exits_2(tmp_path):
    """--input together with --gen is refused, as for every other subcommand,
    instead of silently dropping --gen, --set-a and --alpha."""
    path = tmp_path / "grid.txt"
    path.write_text(GRID_FILE)
    gen = ["--gen", "grid:3", "--set-a", "ap(0,1,3)", "--alpha", "1/9"]
    code, err = run_cli_err("richlines", "--input", str(path), *gen, "--field", "Q")
    assert code == 2 and err == "error: exactly one of --gen and --input is required\n"
    code, err = run_cli_err("richlines", "--field", "Q")
    assert code == 2 and err == "error: exactly one of --gen and --input is required\n"


def test_cli_richlines_field_disagrees_with_file(tmp_path):
    """--field must match the grid file's header, as for every other input file."""
    path = tmp_path / "grid.txt"
    path.write_text(GRID_FILE)
    code, err = run_cli_err("richlines", "--input", str(path), "--field", "Fp:101")
    assert code == 2 and err == "error: --field disagrees with the input file header\n"


def test_cli_env_field_disagrees_with_file(tmp_path, monkeypatch):
    """A field from AFFINE_ENERGY_FIELD must match the input file's header too."""
    monkeypatch.setenv("AFFINE_ENERGY_FIELD", "Fp:101")
    for cmd, text in (("energy", AFFINE_FILE), ("richlines", GRID_FILE)):
        path = tmp_path / f"{cmd}.txt"
        path.write_text(text)
        code, err = run_cli_err(cmd, "--input", str(path))
        assert code == 2 and err == "error: AFFINE_ENERGY_FIELD disagrees with the input file header\n"
    monkeypatch.setenv("AFFINE_ENERGY_FIELD", "Q")
    assert run_cli("energy", "--input", str(tmp_path / "energy.txt"))[0] == 0


def test_cli_config_errors():
    assert run_cli("energy", "--field", "Q")[0] == 2  # no input source
    assert run_cli("energy", "--gen", "grid:3")[0] == 2  # no field
    assert run_cli("energy", "--gen", "parabola:ap(1,1,5)", "--field", "Q")[0] == 2  # planar into affine op
    assert run_cli("sweep", "--gen", "grid:3", "--range", "N=1..2", "--field", "Q")[0] == 2  # no N in template
    for jobs in ("0", "-3"):
        code, err = run_cli_err("sweep", "--gen", "grid:N", "--range", "N=2..3", "--field", "Q", "--jobs", jobs)
        assert code == 2 and err.startswith("error:") and "--jobs" in err
    assert run_cli("energy", "--gen", "affprod:ap(0,1,3)xap(0,1,3)", "--field", "Q")[0] == 2  # SlopeZero
    assert run_cli("shadow", "--gen", "randplanar:1:seed=1", "--field", "Q")[0] == 2  # TooFewPoints
    for argv in (
        ["shadow", "--gen", "grid:3", "--field", "Q", "--theta", "1/0"],
        ["richlines", "--gen", "grid:2", "--set-a", "ap(1,1,3)", "--field", "Q", "--alpha", "1/0"],
    ):
        code, err = run_cli_err(*argv)
        assert code == 2 and err.startswith("error:") and argv[-2] in err and "Traceback" not in err
    bound = ["boundcheck", "--gen", "grid:3", "--field", "Q"]
    assert run_cli(*bound, "--set-s", "grid:2", "--set-t", "ap(1,1,3)")[0] == 2  # S not a progression
    assert run_cli(*bound, "--set-s", "ap(1,1,3)", "--set-t", "randaff:3")[0] == 2  # T not a progression
    assert run_cli(*bound, "--set-s", "ap(1,1,3)")[0] == 2  # --set-t missing
    assert run_cli(*bound, "--set-t", "ap(1,1,3)")[0] == 2  # --set-s missing
    assert run_cli(*bound, "--top-slices", "-1")[0] == 2
    code, out = run_cli(*bound, "--top-slices", "0")
    assert code == 0 and json.loads(out)["pointplane"] == {}


def run_cli_err(*argv):
    """Run in-process; returns (exit_code, stderr_text)."""
    import io
    from contextlib import redirect_stderr

    buf = io.StringIO()
    with redirect_stderr(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_incidence_checks_cthresh_first(tmp_path, monkeypatch):
    """--cthresh below 2 exits 2 with one error line before any slice is
    built, on a set with no slice and on one with slices."""
    import affine_energy.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("quotient_stats ran before --cthresh was checked")

    monkeypatch.setattr(cli_mod, "quotient_stats", refuse)
    empty = tmp_path / "empty.txt"
    empty.write_text("field Fp:101\n")
    for source in (["--input", str(empty)], ["--gen", "grid:3"]):
        code, err = run_cli_err("incidence", *source, "--field", "Fp:101", "--cthresh", "1")
        assert code == 2 and err == "error: --cthresh must be at least 2\n"


@pytest.mark.parametrize(
    "step, argv",
    [("main_bound_report", ["energy", "--gen", "grid:3"]), ("_sweep_row", ["sweep", "--gen", "grid:N", "--range", "N=2..3"])],
)
def test_cli_memory_error_exits_2(monkeypatch, step, argv):
    """A MemoryError inside a command exits 2 with one error line and no
    traceback."""
    import affine_energy.cli as cli_mod

    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, step, exhaust)
    code, err = run_cli_err(*argv, "--field", "Q")
    assert code == 2 and err == "error: out of memory\n"


def test_cli_zero_line_exits_2():
    code, err = run_cli_err("shadow", "--gen", "grid:3", "--field", "Q", "--l1", "0:0:0")
    assert code == 2 and err == "error: projective coordinates cannot all vanish\n"


def test_cli_has_no_seed_offset():
    """Random specs carry their own seed (randaff:N:seed=S); there is no
    separate --seed option."""
    with pytest.raises(SystemExit) as exc:
        run_cli_err("energy", "--gen", "randaff:5:seed=1", "--field", "Q", "--seed", "2")
    assert exc.value.code == 2


def test_cli_invalid_spec_exits_2():
    code, err = run_cli_err("energy", "--gen", "grid:0", "--field", "Q")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_cli_cannot_fill_exits_2():
    code, err = run_cli_err("energy", "--gen", "randaff:5000", "--field", "Fp:3")
    assert code == 2 and err.startswith("error:")


def test_cli_unreadable_input_exits_2(tmp_path):
    code, err = run_cli_err("energy", "--input", str(tmp_path), "--field", "Q")
    assert code == 2 and err.startswith("error:")


def test_theta_is_exact_in_the_unit_interval(count_calls):
    """beck_point_stats refuses a float theta; shadow --theta outside (0, 1]
    exits 2 before the shadow check runs, and --theta 1 runs."""
    from affine_energy.errors import InexactValue
    from affine_energy.plane import PlanePoint, beck_point_stats, shadow_incidence_check

    with pytest.raises(InexactValue):
        beck_point_stats({PlanePoint.affine(RATIONALS, x, y) for x, y in ((1, 0), (2, 1), (3, 5))}, 0.5)
    checks = count_calls(shadow_incidence_check)
    for theta in ("0", "-1", "3/2"):
        code, err = run_cli_err("shadow", "--gen", "grid:3", "--field", "Q", "--theta", theta)
        assert code == 2 and err.startswith("error:") and "--theta" in err and "Traceback" not in err
    assert not checks
    assert run_cli("shadow", "--gen", "grid:3", "--field", "Q", "--theta", "1")[0] == 0


def test_cli_bad_alpha_exits_2():
    code, err = run_cli_err("richlines", "--gen", "grid:3", "--set-a", "ap(0,1,3)", "--alpha", "2", "--field", "Q")
    assert code == 2 and "alpha" in err


def test_fraction_flags_take_literals_only(tmp_path):
    """--theta, --alpha and the grid file's alpha line take an integer or
    num/den, so an exponent literal exits 2 at once instead of being
    expanded."""
    import time

    grid = tmp_path / "grid.txt"
    grid.write_text(GRID_FILE.replace("alpha 2/3", "alpha 1e-30000000"))
    for argv, named in (
        (["shadow", "--gen", "randplanar:8:seed=1", "--field", "Q", "--theta", "1e-30000000"], "--theta"),
        (["richlines", "--gen", "grid:3", "--set-a", "ap(0,1,3)", "--field", "Q", "--alpha", "1e-30000000"], "--alpha"),
        (["richlines", "--input", str(grid), "--field", "Q"], "malformed alpha"),
    ):
        start = time.perf_counter()
        code, err = run_cli_err(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and err.startswith("error:") and named in err and "Traceback" not in err


def _one_q_off(slice_table):
    """_slice_table with the first Q_C off by one, so sum_C Q_C != E."""

    def corrupted(*args):
        order, counts, qs = slice_table(*args)
        qs[order[0][0]] += 1
        return order, counts, qs

    return corrupted


_SLICE_BREACH = """
import sys
import affine_energy.cli as cli

energy = sys.modules["affine_energy.energy"]
real = energy._slice_table


def corrupted(*args):
    order, counts, qs = real(*args)
    qs[order[0][0]] += 1
    return order, counts, qs


energy._slice_table = corrupted
print("optimize", sys.flags.optimize)
sys.exit(cli.main(sys.argv[1:]))
"""

_BREACH_RUNS = (["decompose"], ["energy"], ["boundcheck"], ["energy", "--format", "csv"])


def test_cli_slice_identity_breach_exits_4(monkeypatch):
    """One Q_C off by one breaks sum_C Q_C = E: decompose, energy and
    boundcheck still write their report, then exit 4 with an error line, in
    process and under python -O.  --no-decomposition skips the check."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    energy_mod = sys.modules["affine_energy.energy"]
    source = ["--gen", "randaff:9:seed=2", "--field", "Fp:1009"]
    monkeypatch.setattr(energy_mod, "_slice_table", _one_q_off(energy_mod._slice_table))
    for argv in _BREACH_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + source)
        assert code == 4 and out.getvalue() and err.getvalue().startswith("error: invariant violation")
    assert json.loads(run_cli("decompose", *source)[1])["decomposition_identity_ok"] is False
    assert run_cli("energy", *source, "--no-decomposition")[0] == 0

    src = str(Path(affine_energy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in _BREACH_RUNS:
        proc = subprocess.run([sys.executable, "-O", "-c", _SLICE_BREACH, *argv, *source], capture_output=True, text=True, env=env)
        assert proc.stdout.startswith("optimize 1\n") and proc.returncode == 4
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_cli_oracle_tallies_pair_keys_once(count_calls):
    """One oracle job takes E and the per-C table from one quotient_stats,
    and the E and Q_C oracles from one brute-force pass over g^{-1} o h: the
    E* oracle makes the only other one."""
    from affine_energy.affine import pair_keys
    from affine_energy.energy import quotient_stats

    calls, brute = count_calls(quotient_stats), count_calls(pair_keys)
    code, out = run_cli("oracle", "--gen", "randaff:12:seed=1", "--field", "Q")
    assert code == 0 and json.loads(out)["all_equal"] is True
    assert len(calls) == 1 and len(brute) == 2


@pytest.mark.parametrize("field", ["Fp:1009", "Q"])
def test_cli_jobs_class_the_set_once(count_calls, field):
    """Each energy, decompose, incidence and boundcheck job and each sweep
    row classes A by slope once, builds at most two slope-id grids (the y/x
    grid of the quotient pass and the C grid, which the product pass, Q_C
    and the slices share) and sorts the C values at most once;
    --no-decomposition sorts none."""
    from affine_energy.energy import _pair_ids, _slope_classes, _sorted_values

    classes, grids, orders = count_calls(_slope_classes), count_calls(_pair_ids), count_calls(_sorted_values)
    jobs = [["energy"], ["decompose"], ["incidence"], ["boundcheck"], ["energy", "--no-decomposition"]]
    for job in jobs + [["sweep", "--range", "N=7..7"]]:
        for calls in (classes, grids, orders):
            calls.clear()
        gen = "grid:N" if job[0] == "sweep" else "grid:7"
        assert run_cli(*job, "--gen", gen, "--field", field)[0] == 0
        assert len(classes) == 1 and len(grids) <= 2, job
        assert len(orders) == (0 if "--no-decomposition" in job else 1), job


@pytest.mark.parametrize("field", ["Fp:1009", "Q"])
def test_cli_jobs_read_per_c_by_raw_rows(monkeypatch, field):
    """The energy, decompose, incidence and oracle jobs read the per-C table
    through its raw rows and build no Scalar per C: with PerC's __iter__ and
    __getitem__ patched to raise, each writes the same report and exit code."""
    jobs = [["energy"], ["decompose"], ["incidence"], ["oracle"], ["energy", "--format", "csv"]]
    source = ["--gen", "randaff:14:seed=3", "--field", field]
    before = [run_cli(*job, *source) for job in jobs]

    def refuse(*args):
        raise AssertionError("per-C table read as a mapping")

    monkeypatch.setattr(PerC, "__iter__", refuse)
    monkeypatch.setattr(PerC, "__getitem__", refuse)
    assert [run_cli(*job, *source) for job in jobs] == before and all(code == 0 for code, _ in before)


def test_cli_elekes_check_reuses_the_bound_report_energy(count_calls):
    """boundcheck with --set-s/--set-t and every sweep row take E for the
    Elekes check from the bound report: no third pass over the pair keys."""
    from affine_energy.energy import _tally

    calls = count_calls(_tally)
    code, _ = run_cli("boundcheck", "--gen", "grid:7", "--field", "Fp:1009", "--set-s", "ap(1,1,7)", "--set-t", "ap(1,3,7)")
    assert code == 0 and len(calls) == 2
    calls.clear()
    code, _ = run_cli("sweep", "--gen", "affprod:gp(1,2,N)xap(0,1,N)", "--range", "N=3..5", "--field", "Q")
    assert code == 0 and len(calls) == 6


def _documented_keys(schema: str) -> list:
    """The key list docs/formats.md gives for `schema`: the first code span
    after the schema's bullet."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    span = text.split(f"- `{schema}` — ", 1)[1].split("`")[1]
    return [k.strip() for k in span.split(",")]


def test_flat_report_keys_match_docs():
    """The flat reports and the CSV headers list exactly the keys of
    docs/formats.md, in order, so a new record field cannot reach a report
    unnoticed."""
    bound = ["boundcheck", "--gen", "grid:3", "--field", "Q", "--set-s", "ap(1,1,3)", "--set-t", "ap(1,1,3)"]
    bound = json.loads(run_cli(*bound)[1])
    flat = {
        "pointplane-report/1": next(iter(bound["pointplane"].values())),
        "elekes-check/1": bound["elekes"],
        "shadow-check/1": json.loads(run_cli("shadow", "--gen", "grid:3", "--field", "Q")[1]),
        "quadrangle-report/1": json.loads(run_cli("quadrangles", "--gen", "randplanar:8:seed=1", "--field", "Q")[1]),
    }
    for schema, rep in flat.items():
        assert rep["schema"] == schema
        assert [k for k in rep if k not in ("schema", "beck_points")] == _documented_keys(schema)  # the CLI adds beck_points
    for schema, argv in (
        ("energy-report-csv/1", ["energy", "--gen", "grid:3", "--format", "csv"]),
        ("sweep-csv/1", ["sweep", "--gen", "grid:N", "--range", "N=2..2"]),
    ):
        lines = run_cli(*argv, "--field", "Q")[1].splitlines()
        assert lines[0] == f"# schema: {schema}" and lines[1].split(",") == _documented_keys(schema)


def test_energy_and_richline_report_keys_follow_their_records():
    """The energy and rich-line reports list their records' fields in order
    after the field tag, under the names of docs/formats.md."""
    from affine_energy.energy import EnergyReport
    from affine_energy.richlines import RichLineReport

    energy = json.loads(run_cli("energy", "--gen", "grid:3", "--field", "Fp:101")[1])
    names = {"size_AA": "AA", "size_AinvA": "AinvA"}
    assert list(energy) == ["schema", "field", *(names.get(f, f) for f in EnergyReport._fields)]
    assert list(energy)[1:] == _documented_keys("energy-report/1")
    rich = json.loads(run_cli("richlines", "--gen", "grid:4", "--set-a", "ap(0,1,8)", "--alpha", "1/4", "--field", "Q")[1])
    assert list(rich) == ["schema", "field", *RichLineReport._fields, "rejected_horizontal_rows"]  # the CLI adds the last
    assert list(rich)[1:-1] == _documented_keys("richline-report/1")


def test_cli_sweep_row_contract(tmp_path):
    import csv

    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        "sweep", "--gen", "affprod:gp(1,2,N)xap(0,1,N)", "--range", "N=3..10", "--field", "Q", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2 + 8  # schema comment + header + 8 rows
    rows = list(csv.DictReader(lines[1:]))
    assert [r["N"] for r in rows] == [str(n) for n in range(3, 11)]
    assert rows[0]["gen"] == "affprod:gp(1,2,3)xap(0,1,3)"


def test_cli_reports_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli("boundcheck", "--gen", "randaff:14:seed=9", "--field", "Fp:101", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_parallel_determinism(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    code1, _ = run_cli("sweep", "--gen", "grid:N", "--range", "N=2..6", "--field", "Q", "--out", str(seq))
    code2, _ = run_cli(
        "sweep", "--gen", "grid:N", "--range", "N=2..6", "--field", "Q", "--jobs", "4", "--out", str(par)
    )
    assert code1 == code2 == 0
    assert seq.read_bytes() == par.read_bytes()


def test_cli_sweep_pool_at_most_one_worker_per_row(tmp_path, monkeypatch):
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    for jobs in ("8", "1000000", "2"):
        out = tmp_path / f"sweep{jobs}.csv"
        sweep = ["sweep", "--gen", "grid:N", "--range", "N=2..4", "--field", "Q", "--jobs", jobs, "--out", str(out)]
        assert run_cli(*sweep)[0] == 0
        assert len(out.read_text().splitlines()) == 2 + 3
    assert sizes == [3, 3, 2]


def test_cli_cached_parser_leaks_nothing(monkeypatch):
    """One parser serves every call of `main` in a process: each command of a
    sequence prints what it prints run alone, on a freshly built parser."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from affine_energy.cli import build_parser

    def run(argv, env_field):
        if env_field:
            monkeypatch.setenv("AFFINE_ENERGY_FIELD", env_field)
        else:
            monkeypatch.delenv("AFFINE_ENERGY_FIELD", raising=False)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    oracle = ("oracle", "--gen", "randaff:6:seed=2", "--field", "Q")
    energy = ("energy", "--gen", "grid:3", "--field", "Fp:101")
    no_field = ("energy", "--gen", "grid:3")
    sequence = [
        (oracle + ("--oracle-cap", "0"), None),
        (oracle, None),
        (energy + ("--format", "csv"), None),
        (energy, None),
        (no_field, "Q"),
        (no_field, None),
    ]
    alone = []
    for argv, env_field in sequence:
        build_parser.cache_clear()
        alone.append(run(argv, env_field))
    build_parser.cache_clear()
    together = [run(argv, env_field) for argv, env_field in sequence]
    assert together == alone
    codes = [code for code, _, _ in together]
    assert codes == [2, 0, 0, 0, 0, 2]
    assert together[3][1].startswith("{") and json.loads(together[3][1])["field"] == "Fp:101"
    assert json.loads(together[4][1])["field"] == "Q"
    assert "no field given" in together[5][2]


def test_console_entrypoint_runs():
    src = str(Path(affine_energy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "affine_energy.cli", "energy", "--gen", "grid:2", "--field", "Q"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 4


def test_import_builds_no_dataclass():
    """A fresh interpreter imports the CLI without loading dataclasses: the
    value types are slotted classes and the records NamedTuples."""
    src = str(Path(affine_energy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, affine_energy.cli; print(sorted({'dataclasses', 'affine_energy.cli'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.split() == ["['affine_energy.cli']"]


def _rendered(obj):
    """The payload with a top-level PerC given as its rendered dict."""
    per_c = obj.get("per_c")
    if not isinstance(per_c, PerC):
        return obj
    render = per_c.table.field.render
    return {**obj, "per_c": {render(C): {"slice": s, "q": q} for C, s, q in per_c.rows()}}


def test_dump_json_matches_json_dumps(tmp_path, monkeypatch):
    """The per_c writer is byte-equal to json.dumps(indent=2) of the payload
    with the PerC rendered, on every report that carries the block; the
    incidence report's other per_c shape and an empty block give the same
    bytes."""
    import affine_energy.cli as cli_mod
    from affine_energy.reports import dump_json

    seen = []
    monkeypatch.setattr(cli_mod, "dump_json", lambda obj: seen.append(obj) or dump_json(obj))
    path = tmp_path / "q.txt"
    path.write_text("field Q\n1 0\n-7/3 2\n1/2 -1\n-7/3 -5/4\n3 1/3\n")
    sources = [("--input", str(path), "--field", "Q")]
    sources += [("--gen", "randaff:14:seed=3", "--field", f) for f in ("Fp:1009", "Fp:2305843009213693951")]
    for source in sources:
        for cmd in ("energy", "decompose", "boundcheck", "incidence"):
            seen.clear()
            code, out = run_cli(cmd, *source)
            assert code == 0 and len(seen) == 1
            assert out == dump_json(seen[0]) == json.dumps(_rendered(seen[0]), indent=2) + "\n"
            assert isinstance(seen[0]["per_c"], PerC) == (cmd != "incidence")
    assert "-7/3" in json.loads(run_cli("energy", *sources[0])[1])["per_c"]
    code, out = run_cli("energy", *sources[1], "--no-decomposition")
    assert code == 0 and not seen[-1]["per_c"] and out == json.dumps(_rendered(seen[-1]), indent=2) + "\n"
    assert '"per_c": {}' in out
    obj = {"per_c": {"1": {"slice": 1, "q": 2}}, "x": "\n  \"per_c\": 0"}
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_cli_oracle_empty_set(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("field Q\n")
    for cmd in ("energy", "decompose", "boundcheck", "incidence", "oracle"):
        code, out = run_cli(cmd, "--input", str(path), "--field", "Q")
        assert code == 0, cmd
    payload = json.loads(out)
    assert payload["all_equal"] is True and payload["size"] == 0
    assert "quadrangles" not in payload and "pencil" not in payload
