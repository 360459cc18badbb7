import ast
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lubintate2d import cli, lubintate
from lubintate2d.copolygon import Copolygon
from lubintate2d.fixtures import FIXTURE_NAMES
from lubintate2d.series import Series, dump_sections, parse_sections
from lubintate2d.torsion import ValuationProfile
from paper_checks import forbidden_imports, run_lt2d


EX1_SUPPORT = "2 9\n1 1 1\n4 0 0\n0 5 0\n"
SRC = str(Path(cli.__file__).resolve().parents[1])  # the package's parent, for child processes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_torsion_sweep(capsys):
    code, out, _ = run(capsys, "torsion", "-p", "2", "--h1", "2", "--h2", "3",
                       "--sweep", "4")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["agree"] for r in rows)
    assert rows[1]["v_xi"] == "9/248"
    assert rows[1]["v_eta"] == "5/124"


def test_ramification_json(capsys):
    code, out, _ = run(capsys, "torsion", "-p", "3", "--h1", "2", "--h2", "3",
                       "--ramification")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 3, "h1": 2, "h2": 3, "degree": 121,
                       "v_xi": "5/121", "v_eta": "14/121",
                       "witness_h1": 1, "witness_h2": 1}


def test_copolygon_component_selection(capsys):
    code, out, _ = run(capsys, "copolygon", "--fixture", "dyn23", "--component", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["functionals"] == [[0, 1, "1/1"], [8, 0, "0/1"]]
    code, _, err = run(capsys, "copolygon", "--fixture", "ex1", "--component", "2")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_copolygon_reads_the_stored_sample_at_its_degree(capsys):
    code, out, _ = run(capsys, "copolygon", "--fixture", "mult45", "--component", "2",
                       "--json")
    assert code == 0 and json.loads(out)["degree"] == 32


def test_copolygon_support_file(tmp_path, capsys):
    path = tmp_path / "ex1.support"
    path.write_text("2 9\n1 1 1/1\n4 0 0/1\n0 5 0/1\n")
    code, out, _ = run(capsys, "copolygon", "--support", str(path), "--json")
    assert code == 0
    assert json.loads(out)["vertices"] == [["5/11", "4/11", "20/11"]]
    code, _, err = run(capsys, "copolygon", "--support", str(tmp_path / "missing"))
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    code, _, err = run(capsys, "copolygon", "--fixture", "ex1", "--support", str(path))
    assert code == 2


@pytest.mark.parametrize("fixture, text", [
    (("--fixture", "ex1"), EX1_SUPPORT),
    (("--fixture", "dyn312", "--component", "2"), "3 9\n0 1 1\n9 0 0\n"),
], ids=["ex1", "dyn312-2"])
def test_a_support_file_reproduces_its_fixture(tmp_path, capsys, fixture, text):
    """The text report, the JSON and the picture, which for ex1 is the golden one."""
    support = tmp_path / "fixture.support"
    support.write_text(text)
    svg = tmp_path / "out.svg"
    outputs = [[*(run(capsys, "copolygon", *source, *flags) for flags in ((), ("--json",))),
                run(capsys, "copolygon", *source, "--svg", str(svg)), svg.read_bytes()]
               for source in (("--support", str(support)), fixture)]
    assert outputs[0] == outputs[1]
    if fixture == ("--fixture", "ex1"):
        assert outputs[0][-1] == (Path(__file__).parent / "data" / "ex1_golden.svg").read_bytes()


def test_log_roundtrip(tmp_path, capsys):
    target = tmp_path / "log.txt"
    code, out, _ = run(capsys, "log", "-p", "2", "--h1", "2", "--h2", "3",
                       "-D", "12", "--out", str(target))
    assert code == 0 and out == ""
    header, pairs = parse_sections(target.read_text())
    assert header == {"p": 2, "h1": 2, "h2": 3, "D": 12, "N": 64}
    log = pairs["logarithm"]
    assert log.first.support() == [(1, 0), (0, 4)]
    assert log.second.support() == [(0, 1), (8, 0)]
    assert log.second.coefficient((8, 0)).valuation == -1


def test_log_prints_the_builders_fixed_point_unchecked(capsys, monkeypatch):
    """The builder stops only at a fixed point of the functional equation,
    so neither `log` nor `verify` takes its step again: each raises the
    variables as often as one `build_logarithm` does, and README examples
    00 and 11 keep their bytes."""
    calls = []
    real = Series.raise_vars
    monkeypatch.setattr(Series, "raise_vars", lambda s, q: calls.append(q) or real(s, q))
    golden = Path(__file__).parent / "data" / "readme"
    for command, degree, example in (("log", 12, "00"), ("verify", 9, "11")):
        calls.clear()
        lubintate.build_logarithm(2, (2, 3), degree)
        steps = len(calls)
        assert run(capsys, command, *PARAMS, "-D", str(degree)) == (
            0, (golden / f"{example}.stdout").read_text(), "")
        assert len(calls) == 2 * steps, command


def test_group_stdout_parses(capsys):
    code, out, _ = run(capsys, "group", "-p", "3", "--h1", "1", "--h2", "2", "-D", "6")
    assert code == 0
    header, pairs = parse_sections(out)
    assert header["p"] == 3
    assert list(pairs) == ["logarithm", "exponential", "group_law"]
    assert pairs["group_law"].second.support() == [(0, 0, 0, 1), (0, 1, 0, 0)]


@pytest.mark.parametrize("argv", [
    ("log", "-p", "2", "--h1", "2", "--h2", "3", "-D", "12"),
    ("mult", "-p", "3", "--h1", "1", "--h2", "2", "-D", "9", "-a", "3"),
    ("group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9"),
], ids=["log", "mult", "group"])
def test_container_parses_and_dumps_back_byte_for_byte(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, pairs = parse_sections(out)
    if argv[0] == "mult":
        assert header["a"] == 3
    assert header["N"] == 64  # N is what was built at
    assert dump_sections(header, pairs) == out


def test_a_precision_past_the_printed_integer_limit_is_no_usage_error(capsys):
    """At p = 2 a unit known modulo 2^14400 has about 4335 decimal digits,
    past Python's default limit on converting an int to a string."""
    code, out, _ = run(capsys, "-N", "14400", "group", "-p", "2", "--h1", "2", "--h2", "3",
                       "-D", "9")
    assert code == 0
    assert max(len(line) for line in out.splitlines()) > 4300
    assert dump_sections(*parse_sections(out)) == out


def test_verify_with_unramified_check(capsys):
    # at p = 5, h = 3 the Teichmuller lift of x in F_125 = F_5[x]/(x^3 + x + 1)
    # has order 62 of 124, so no one-unit check stands in for mu_124
    for argv in (("-N", "16", "verify", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9",
                  "--unramified-degree", "5"),
                 ("verify", "-p", "5", "--h1", "1", "--h2", "2", "-D", "25",
                  "--unramified-degree", "3")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["gamma_endomorphism"] is True


@pytest.mark.parametrize("degree", ["1", "3"])
def test_unramified_degree_must_be_the_total_height(capsys, monkeypatch, degree):
    monkeypatch.setattr(lubintate, "build_group", None)  # refused before any group is built
    code, out, err = run(capsys, "verify", "-p", "2", "--h1", "2", "--h2", "3",
                         "-D", "4", "--unramified-degree", degree)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "usage",
        "detail": f"--unramified-degree must equal h1 + h2 = 5, got {degree}"}


def test_double_run_byte_identical(capsys):
    _, first, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    _, second, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    assert first == second
    _, first, _ = run(capsys, "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "6")
    _, second, _ = run(capsys, "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "6")
    assert first == second


def test_console_script_installed(tmp_path):
    # run outside the source tree; the stored sample fails verify by design
    exe = shutil.which("lt2d")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "torsion", "-p", "2", "--h1", "2", "--h2", "3"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["v_xi"] == "5/31"
    proc = subprocess.run([exe, "verify", "--fixture", "mult45"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1
    assert '"fixture": "mult45"' in proc.stdout


LIBRARY = ("padics", "series", "series_ops", "lubintate", "copolygon", "torsion", "fixtures")

# Imports the CLI in a `python -B -I -S` child, runs `main` on the
# arguments given, if any, and prints to stderr its exit code, the
# modules whose code ran, and every module in sys.modules.  A lazily
# registered module is told apart by `type` alone: reading any of its
# attributes would run it.
_LOAD_PROBE = """
import sys, types
sys.path.insert(0, sys.argv[1])
import lubintate2d.cli
code = lubintate2d.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
ran = [name for name, m in sys.modules.items() if type(m) is types.ModuleType]
print(code, " ".join(ran), " ".join(sys.modules), sep="\\n", file=sys.stderr)
"""


def _load_probe(*argv, code=0):
    """The library modules whose code ran and every module loaded, when a
    child imports the CLI and runs `main(argv)`, which must return `code`,
    if argv is given."""
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", _LOAD_PROBE, SRC, *argv],
                          capture_output=True, text=True, check=True)
    *_, returned, ran, loaded = proc.stderr.splitlines()
    assert returned == str(code)
    ours = {name.removeprefix("lubintate2d.") for name in ran.split()
            if name.startswith("lubintate2d.")}
    return ours, set(loaded.split())


def test_cli_import_stays_on_the_light_standard_library():
    """Under `python -I -S`, importing the CLI loads no standard module it
    never needs, `fractions`, `decimal`, `json` and `argparse` included, and
    runs only the library modules every command reads.  All seven library modules
    are still in `sys.modules`, all but `padics` lazily: the traced
    benchmark (`bench/trace_boot.py`) looks each one up there right after
    it imports the CLI, and its first attribute read runs it.  `-B` keeps
    the child from writing bytecode into the tree, which `-I` would do
    despite PYTHONDONTWRITEBYTECODE, and which later benchmark runs would
    load."""
    ran, loaded = _load_probe()
    assert not loaded & {"dataclasses", "inspect", "typing", "importlib.resources",
                         "fractions", "decimal", "json", "argparse"}
    assert {f"lubintate2d.{name}" for name in LIBRARY} <= loaded
    assert ran == {"cli", "padics"}


PARAMS = ("-p", "2", "--h1", "2", "--h2", "3")
SERIES = {"series", "series_ops"}
RATIONAL = {"fractions", "decimal"}


@pytest.mark.parametrize("argv, code, runs, stdlib", [
    (("mult", *PARAMS, "-D", "8", "-a", "2"), 0, {"lubintate", *SERIES}, set()),
    (("log", *PARAMS, "-D", "8"), 0, {"lubintate", *SERIES}, set()),
    (("verify", "--fixture", "mult45"), 1, {"fixtures", "lubintate", *SERIES}, {"json"}),
    (("torsion", *PARAMS), 0, {"copolygon", "torsion"}, {*RATIONAL, "json"}),
    (("torsion", *PARAMS, "-n", "4"), 0, {"copolygon", "torsion"}, {*RATIONAL, "json"}),
    (("torsion", *PARAMS, "-n", "4", "--method", "minplus"), 0, {"copolygon", "torsion"},
     {*RATIONAL, "json"}),
    (("torsion", *PARAMS, "--sweep", "3"), 0, {"copolygon", "torsion"}, {*RATIONAL, "json"}),
    (("torsion", "-p", "3", "--h1", "2", "--h2", "3", "--ramification", "--csv"), 0,
     {"copolygon", "torsion"}, RATIONAL),
    (("copolygon", "--support", "SUPPORT", "--json"), 0, {"copolygon"}, {*RATIONAL, "json"}),
    (("copolygon", "--support", "SUPPORT", "--svg", "SVG"), 0, {"copolygon"}, RATIONAL),
    (("copolygon", "--fixture", "dyn23"), 0, {"copolygon", "fixtures", "torsion"}, RATIONAL),
    (("copolygon", "--fixture", "ex1"), 0, {"copolygon", "fixtures"}, RATIONAL),
    (("copolygon", "--fixture", "mult45", "--component", "2", "--json"), 0,
     {"copolygon", "fixtures", *SERIES}, {*RATIONAL, "json"}),
    (("copolygon", "--fixture", "dyn312", "--json"), 0, {"copolygon", "fixtures", "torsion"},
     {*RATIONAL, "json"}),
    (("group", *PARAMS, "-D", "9"), 0, {"lubintate", *SERIES}, set()),
    (("verify", "-p", "3", "--h1", "1", "--h2", "2", "-D", "9"), 0, {"lubintate", *SERIES},
     {"json"}),
    (("verify", "-p", "3", "--h1", "1", "--h2", "2", "-D", "9", "--unramified-degree", "3"),
     0, {"lubintate", *SERIES}, {"json"}),
    (("-N", "2", "group", *PARAMS, "-D", "16"), 1, {"lubintate", *SERIES}, {"json"}),
    (("-N", "4", "mult", *PARAMS, "-D", "16", "-a", "2"), 3, {"lubintate", *SERIES},
     {"json"}),
    (("verify", *PARAMS, "-D", "6"), 2, set(), {"json"}),
    (("group", "-p", "x", "--h1", "2", "--h2", "3", "-D", "4"), 2, set(), {"json", "argparse"}),
], ids=["mult", "log", "verify-mult45", "torsion", "torsion-n", "torsion-minplus",
        "torsion-sweep", "torsion-ramification-csv", "copolygon-support",
        "copolygon-support-svg", "copolygon-fixture-dyn23", "copolygon-fixture-ex1",
        "copolygon-fixture-mult45", "copolygon-fixture-dyn312", "group", "verify",
        "verify-unramified-degree", "group-failed-axiom", "mult-lost-precision",
        "verify-short-degree", "group-malformed"])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, argv, code, runs, stdlib):
    """`series` compiles only where a series is built, and `json` only where
    JSON is written or a series container is read: a container's header
    line is written without it, but a failure's error line is JSON.
    `argparse` loads only for an argv the CLI's own reader refuses, here a
    prime that is no integer.  Each command runs on the standard library
    alone, `-S` keeping site-packages off the path, and returns its exit
    code: 1 a failed axiom, 2 bad usage, 3 lost precision."""
    support = tmp_path / "support.txt"
    support.write_text(EX1_SUPPORT)
    files = {"SUPPORT": str(support), "SVG": str(tmp_path / "out.svg")}
    ran, loaded = _load_probe(*(files.get(a, a) for a in argv), code=code)
    assert ran == {"cli", "padics", *runs}
    assert loaded & {*RATIONAL, "json", "argparse"} == stdlib


def test_the_library_imports_no_test_helper():
    """No module of the package imports `paper_checks` or `unramified`:
    pytest puts tests/ on sys.path, so such an import would pass here and
    break the installed `lt2d`."""
    assert forbidden_imports({"paper_checks", "unramified"}) == []


def test_every_file_the_library_opens_is_closed_by_a_with():
    """The process entry point freezes the collector and leaves the rest
    to shutdown, so no file may rely on being collected to be flushed or
    closed: each `open(...)` in the package is the context of a `with`."""
    opened, held = [], set()
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.withitem):
                held.add(node.context_expr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                opened.append((f"{path.stem}:{node.lineno}", node))
    assert opened
    assert [where for where, node in opened if node not in held] == []


def test_only_the_process_entry_point_freezes_the_collector(capsys, monkeypatch):
    """With no argv, `main` runs sys.argv's command and then freezes the
    collector once, after the answer is on stdout; with an argv, as the
    tests and the traced benchmark call it, it never freezes."""
    argv = ["torsion", *PARAMS]
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["lt2d", *argv])
    assert cli.main() == 0
    assert len(frozen) == 1 and json.loads(frozen[0])["v_xi"] == "5/31"
    assert cli.main(argv) == 0 and len(frozen) == 1


def test_copolygon_offers_every_fixture(capsys):
    # the parser spells the names out, so that other commands never run `fixtures`
    with pytest.raises(SystemExit):
        cli.main(["copolygon", "--help"])
    assert "--fixture {" + ",".join(FIXTURE_NAMES) + "}" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lubintate2d.cli",
                           "verify", "--fixture", "mult45"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["cross"] is False


# Commands whose output would follow the order of a set or dict of
# strings, if any did (the `mult` at N = 3 has sums that cancel), with
# their exit codes: `python -I` ignores PYTHONHASHSEED, so they run under
# plain `python -B`.
_SEEDED = [
    (0, "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9"),
    (0, "copolygon", "--fixture", "dyn312", "--json", "--svg", "dyn312.svg"),
    (0, "torsion", "-p", "3", "--h1", "2", "--h2", "3", "--sweep", "6"),
    (0, "torsion", "-p", "7", "--h1", "5", "--h2", "6", "-n", "6", "--method", "minplus"),
    (0, "copolygon", "--support", "ex1.support", "--json"),
    (0, "-N", "2", "mult", "-p", "2", "--h1", "2", "--h2", "3", "-D", "16", "-a", "2"),
    (1, "verify", "--fixture", "mult45"),  # the stored sample is a negative control
]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """Under either seed, each child prints what the same argv prints in
    process, and writes the same picture, so two children cut short
    alike do not pass."""
    argvs = [argv for _, *argv in _SEEDED]
    outputs = {}
    for seed in ("0", "1", "in-process"):
        cwd = tmp_path / seed
        cwd.mkdir()
        (cwd / "ex1.support").write_text(EX1_SUPPORT)
        if seed == "in-process":
            monkeypatch.chdir(cwd)
            runs = [(code, out.encode()) for code, out, _ in map(run_lt2d, argvs)]
        else:
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
            runs = [(proc.returncode, proc.stdout) for proc in (
                subprocess.run([sys.executable, "-B", "-m", "lubintate2d.cli", *argv],
                               cwd=cwd, env=env, capture_output=True) for argv in argvs)]
        assert [code for code, _ in runs] == [code for code, *_ in _SEEDED], seed
        outputs[seed] = [out for _, out in runs], (cwd / "dyn312.svg").read_bytes()
    assert outputs["0"] == outputs["1"] == outputs["in-process"]


def test_verify_builds_p_multiplication_once(capsys, monkeypatch):
    """`group` composes no [p]_F and inverts the logarithm once, for the
    law; `verify` builds [p]_F once, after the law, from that inverse."""
    calls = []
    real_mult, real_invert = lubintate.multiplication, lubintate.invert_pair
    monkeypatch.setattr(lubintate, "multiplication",
                        lambda a, g: calls.append(a) or real_mult(a, g))
    monkeypatch.setattr(lubintate, "invert_pair",
                        lambda f: calls.append("invert_pair") or real_invert(f))
    for command, expected in (("verify", ["invert_pair", 2]), ("group", ["invert_pair"])):
        calls.clear()
        code, _, _ = run(capsys, command, "-p", "2", "--h1", "2", "--h2", "3", "-D", "9")
        assert code == 0 and calls == expected, command


def test_group_and_verify_build_one_log_sum(capsys, monkeypatch):
    """The law and the additivity check read the one L(X) + L(Y)."""
    prop = lubintate.LubinTateGroup.__dict__["log_sum"]
    calls = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda group: calls.append(group) or real(group))
    for command in ("group", "verify"):
        calls.clear()
        code, _, _ = run(capsys, command, "-p", "3", "--h1", "1", "--h2", "2", "-D", "9")
        assert code == 0 and len(calls) == 1, command


def test_copolygon_svg_computes_tie_loci_once(capsys, monkeypatch, tmp_path):
    # the report and the picture both read vertices and tie segments
    prop = Copolygon.__dict__["_tie_loci"]
    calls = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda poly: calls.append(poly) or real(poly))
    code, out, _ = run(capsys, "copolygon", "--fixture", "dyn23", "--svg",
                       str(tmp_path / "dyn23.svg"))
    assert code == 0 and "tie segments: 1" in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv, detail", [
    (("-N", "3", "mult", "-p", "2", "--h1", "2", "--h2", "3", "-D", "40", "-a", "3"),
     "inversion did not converge"),
    # the multiplier is refused before the logarithm is inverted
    (("-N", "1", "mult", "-p", "2", "--h1", "2", "--h2", "3", "-D", "40", "-a", "2"),
     "[2]_F needs N at least 2: 2 is 0 modulo 2^1"),
    # p, [p]_F's scalar, is refused before the law inverts the logarithm
    (("-N", "1", "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "40"),
     "[2]_F needs N at least 2: 2 is 0 modulo 2^1"),
    (("-N", "1", "verify", "-p", "3", "--h1", "1", "--h2", "2", "-D", "40"),
     "[3]_F needs N at least 2: 3 is 0 modulo 3^1"),
], ids=["no-convergence", "multiplier-first", "group-[p]-first", "verify-[p]-first"])
def test_lost_precision_exits_3_as_a_precision_error(capsys, argv, detail):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "precision", "detail": detail}


def test_a_zero_multiplier_is_the_zero_pair_at_any_precision(capsys, monkeypatch):
    scalars = []
    check = lubintate.linearity_defects
    monkeypatch.setattr(lubintate, "linearity_defects",
                        lambda group, m, a: scalars.append(a) or check(group, m, a))
    code, out, err = run(capsys, "-N", "1", "mult", "-p", "2", "--h1", "2", "--h2", "3",
                         "-D", "6", "-a", "0")
    assert code == 0 and err == ""
    header, pairs = parse_sections(out)
    assert header["a"] == 0 and all(s.is_zero for s in pairs["mult"])
    # [0] passes the identity check that every [a] runs
    code, out, err = run(capsys, "mult", "-p", "2", "--h1", "2", "--h2", "3",
                         "-D", "9", "-a", "0")
    assert (code, err, scalars) == (0, "", [0, 0])
    assert out == ('{"D": 9, "N": 64, "a": 0, "h1": 2, "h2": 3, "p": 2}\n'
                   "[mult.1 v=2 D=9]\n[mult.2 v=2 D=9]\n")


UNOPENABLE = "no-such-dir/out"  # relative to tmp_path, whose subdir is never made
RAMIFIED = ("-p", "3", "--h1", "2", "--h2", "3")


@pytest.mark.parametrize("argv, named", [
    (("group", "-p", "x", "--h1", "2", "--h2", "3", "-D", "4"), "-p"),
    (("group", "--h1", "2", "--h2", "3", "-D", "4"), "-p"),
    (("frob",), "frob"),
    (("-N", "x", "log", *PARAMS, "-D", "4"), "-N must be an integer, got 'x'"),
    # a flag no mode reads is argparse's "unrecognized arguments", naming it
    (("group", *PARAMS, "-D", "6", "--assoc-degree", "8"), "--assoc-degree"),
    (("verify", *PARAMS, "-D", "9", "--assoc-degree", "8"), "--assoc-degree"),
    (("torsion", *PARAMS, "--sweep", "0"), "--sweep must be at least 1"),
    (("torsion", *PARAMS, "--sweep", "-2"), "--sweep must be at least 1"),
    (("torsion", *PARAMS, "-n", "0"), "-n must be at least 1"),
    (("copolygon", "--fixture", "dyn23", "-D", "9"), "-D"),
    (("verify", *PARAMS, "-D", "9", "--unramified-degree", "0"),
     "--unramified-degree must be at least 1"),
    (("log", *PARAMS, "-D", "4", "--out", UNOPENABLE), UNOPENABLE),
    (("copolygon", "--fixture", "ex1", "--svg", UNOPENABLE), UNOPENABLE),
    (("copolygon", "--support", UNOPENABLE), UNOPENABLE),
    # a flag the chosen mode never reads is refused before any work or file read
    (("copolygon", "--support", "series.support", "-D", "3"), "-D"),
    (("copolygon", "--support", "series.support", "--component", "2"),
     "--support does not read --component"),
    (("verify", "--fixture", "mult45", "-p", "5"), "--fixture does not read -p"),
    (("verify", "--fixture", "mult45", "--h1", "9"), "--fixture does not read --h1"),
    (("verify", "--fixture", "mult45", "--h2", "9"), "--fixture does not read --h2"),
    (("verify", "--fixture", "mult45", "-D", "9"), "--fixture does not read -D"),
    (("verify", "--fixture", "mult45", "--assoc-degree", "3"), "--assoc-degree"),
    (("verify", "--fixture", "mult45", "--unramified-degree", "2"),
     "--fixture does not read --unramified-degree"),
    (("torsion", *RAMIFIED, "--ramification", "-n", "2"), "--ramification does not read -n"),
    (("torsion", *RAMIFIED, "--ramification", "--method", "minplus"),
     "--ramification does not read --method"),
    (("torsion", *RAMIFIED, "--ramification", "--sweep", "3"),
     "--ramification does not read --sweep"),
    (("torsion", *PARAMS, "--sweep", "3", "-n", "2"), "--sweep does not read -n"),
    (("torsion", *PARAMS, "--sweep", "3", "--method", "minplus"),
     "--sweep does not read --method"),
    (("verify", "-p", "2"), "verify needs --fixture or --h1, --h2, -D"),
    (("-N", "3", "torsion", *PARAMS), "torsion does not read -N"),
    (("-N", "5", "copolygon", "--fixture", "ex1"), "copolygon does not read -N"),
    (("-N", "1", "verify", "--fixture", "mult45"), "--fixture does not read -N"),
    # the closed form alone is no method: `both` checks it against the min-plus walk
    (("torsion", *PARAMS, "--method", "closed"), "--method"),
    # an empty path is one that cannot be opened, not an absent flag
    (("log", *PARAMS, "-D", "4", "--out", ""), "No such file or directory: ''"),
    (("copolygon", "--fixture", "ex1", "--svg", ""), "No such file or directory: ''"),
    (("torsion", *PARAMS, "--csv"), "--csv applies to --ramification output"),
    (("verify", "-p", "2", "--h1", "2"), "verify needs --fixture or --h2, -D"),
    (("log", "-p", "4", "--h1", "2", "--h2", "3", "-D", "9"), "4 is not prime"),
    (("-N", "0", "log", *PARAMS, "-D", "4"), "-N must be at least 1"),
    (("-N", "-3", "log", *PARAMS, "-D", "4"), "-N must be at least 1"),
    (("verify", *PARAMS, "-D", "6"), "-D 6 drops a Frobenius monomial: need at least 8"),
    (("torsion", "-p", "318665857834031151167461", "--h1", "1", "--h2", "2"),  # psi_12
     "primality of 318665857834031151167461 is undecided: Miller-Rabin is exact only below "
     "psi_12 = 318665857834031151167461"),
])
def test_bad_input_is_one_usage_line(capsys, monkeypatch, tmp_path, argv, named):
    """A lone flag or path, where argparse or the OS words the message, is
    named in the detail; any other `named` is all of it past an OSError's
    errno; and no group is built."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lubintate, "build_group", None)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "usage"
    detail = payload["detail"].removeprefix("[Errno 2] ")
    assert detail == named if " " in named else named in detail


def test_a_prime_of_twenty_one_digits_is_read_at_once(capsys):
    """Trial division up to its root would take about 20 minutes."""
    start = time.process_time()
    code, out, _ = run(capsys, "torsion", "-p", str(10**20 + 39), "--h1", "1", "--h2", "2")
    assert code == 0 and json.loads(out)["p"] == 10**20 + 39 and time.process_time() - start < 0.5


@pytest.mark.parametrize("text, detail", [
    ("4 9\n1 1 1/1\n", "4 is not prime"),
    ("2 3\n1 1 1/1\n9 9 0\n", "monomial (9, 9) exceeds truncation degree 3"),
    ("2 9\n1 x 0\n", "malformed support line: '1 x 0'"),
    ("2 9\n1 0 1/0\n", "malformed support line: '1 0 1/0'"),
    ("2 9\n1 0\n", "malformed support line: '1 0'"),
    ("x 9\n1 1 1/1\n", "header must be two integers: p and truncation degree"),
    ("2\n1 1 1/1\n", "header must be two integers: p and truncation degree"),
    ("2 9\n1 1 1/1\n0 0 2\n1 1 0\n", "support line '1 1 0' repeats the monomial (1, 1)"),
    ("2 9\n# ex1\n1 1 1\n", "malformed support line: '# ex1'"),
], ids=["composite-p", "past-degree", "bad-exponent", "zero-denominator", "two-fields",
        "bad-header", "short-header", "repeated-monomial", "comment-line"])
def test_bad_support_file_is_one_usage_line(capsys, tmp_path, text, detail):
    path = tmp_path / "bad.support"
    path.write_text(text)
    code, out, err = run(capsys, "copolygon", "--support", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "usage", "detail": detail}


@pytest.mark.parametrize("argv", [(), ("log",), ("group",), ("mult",), ("copolygon",),
                                  ("torsion",), ("verify",)])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lt2d")


def test_module_entry_point_reports_argparse_errors_as_json():
    proc = subprocess.run([sys.executable, "-m", "lubintate2d.cli",
                           "group", "-p", "x", "--h1", "2", "--h2", "3", "-D", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "usage",
                                       "detail": "argument -p: invalid int value: 'x'"}


def _corpus() -> set:
    """Every argv that the README examples, the low-precision ledger, the
    benchmark grids and this module's argv tables run."""
    from test_bench_refs import WORKLOADS

    data = Path(__file__).parent / "data"
    argvs = {tuple(example["argv"])
             for example in json.loads((data / "readme" / "examples.json").read_text())}
    argvs |= {tuple(cell["argv"].split())
              for cell in json.loads((data / "low_precision.json").read_text())}
    argvs |= {cmd.argv for workload in WORKLOADS.values() for cmd in workload.grid()}
    argvs |= {tuple(argv) for _, *argv in _SEEDED}
    for test in list(globals().values()):
        for mark in getattr(test, "pytestmark", ()):
            if mark.name == "parametrize" and mark.args[0].split(",")[0] == "argv":
                rows = mark.args[1]
                argvs |= {tuple(row) for row in rows} if mark.args[0] == "argv" else {
                    tuple(row[0]) for row in rows}
    return argvs


def _variants(argv: tuple) -> set:
    """`argv` and argvs near it: each flag dropped, repeated, abbreviated,
    joined to its value, after the command (-N), without its value or with
    odd ones, and `--`, `-h` and a junk word added."""
    words = list(argv)
    near = [words, words + ["--"], words[:1] + ["--"] + words[1:], words + ["-h"],
            ["-h"] + words, words + ["junk"]]
    for i, word in enumerate(words):
        if not word.startswith("-") or word.lstrip("-").isdigit():
            continue  # a value, or no flag at all
        value = [v for v in words[i + 1:i + 2] if not v.startswith("-")]
        head, rest = words[:i], words[i + 1 + len(value):]
        near += [head + rest, words + [word, *value], head + [word + "".join(value)] + rest]
        near += [head + [word[:k], *value] + rest for k in range(3, len(word))
                 if word.startswith("--")]
        if value:
            near += [head + [f"{word}={value[0]}"] + rest, head + [word] + rest,
                     head + [word, "-3"] + rest]
            near += [head + [word, odd] + rest for odd in ("", " 3", "+3", "3_0", "٣")]
        if word in ("-N", "--precision"):
            near += [head + rest[:1] + [word, *value] + rest[1:], head + rest + [word, *value]]
    return {tuple(variant) for variant in near}


def test_argv_table_matches_argparse():
    """The CLI's own reader and argparse, both built from one table, agree.
    On every corpus argv and every argv near one, the reader either
    refuses, leaving the argv to argparse, or returns argparse's namespace,
    the same handler included.  It takes every corpus argv that argparse
    takes, so the corpus's well-formed commands never import argparse.  A
    repeated flag's last value wins, as in argparse."""
    parser = cli.build_parser()
    repeated = ["torsion", *PARAMS, "-n", "2", "-n", "3"]
    assert vars(cli._read_argv(repeated)) == vars(parser.parse_args(repeated)) | {"n": 3}
    corpus = _corpus()
    taken = 0
    for argv in sorted(corpus | {v for argv in corpus for v in _variants(argv)}):
        read = cli._read_argv(list(argv))
        if argv in corpus:
            try:
                parser.parse_args(list(argv))
            except cli.UsageError:
                assert read is None, argv
                continue
            assert read is not None, argv
        if read is not None:
            got, expected = vars(read), vars(parser.parse_args(list(argv)))
            assert got.pop("func") is expected.pop("func") and got == expected, argv
            taken += 1
    assert taken > len(corpus)


def test_verify_reports_p_congruences_once(capsys, monkeypatch):
    calls = []
    real = lubintate.congruence_report
    monkeypatch.setattr(lubintate, "congruence_report",
                        lambda f, heights: calls.append(f.p) or real(f, heights))
    code, out, _ = run(capsys, "verify", *PARAMS, "-D", "9")
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == [2]


def test_oserror_without_a_path_is_not_a_usage_error(monkeypatch):
    # a broken stdout is not bad input: it propagates as it always did
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        cli.main(["torsion", *PARAMS])


def test_copolygon_json_goes_to_out(capsys, tmp_path):
    _, printed, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    target = tmp_path / "ex1.json"
    code, out, err = run(capsys, "copolygon", "--fixture", "ex1", "--json",
                         "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert target.read_bytes() == printed.encode()


def test_ramification_csv_builds_the_report_once(capsys, monkeypatch):
    from lubintate2d import torsion

    calls = []
    real = torsion.ramification_report

    def spy(p, heights):
        calls.append(p)
        return real(p, heights)

    monkeypatch.setattr(torsion, "ramification_report", spy)
    code, out, _ = run(capsys, "torsion", *RAMIFIED, "--ramification", "--csv")
    assert code == 0 and out.splitlines()[1] == "3,2,3,121,5/121,14/121,1,1"
    assert calls == [3]


def test_copolygon_text_reads_vertices_once(capsys, monkeypatch):
    calls = []
    real = Copolygon.vertices
    monkeypatch.setattr(Copolygon, "vertices",
                        lambda poly: calls.append(poly) or real(poly))
    code, out, _ = run(capsys, "copolygon", "--fixture", "ex1")
    assert code == 0 and "vertex: 5/11 4/11 value 20/11" in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv, target, fake, detail", [
    (("torsion", "-p", "2", "--h1", "2", "--h2", "3", "-n", "2", "--method", "minplus"),
     "torsion.Copolygon.argmin", lambda poly, xi: list(poly.functionals),
     "linear and Frobenius branches tie at (Fraction(9, 248), Fraction(5, 124))"),
    (("torsion", "-p", "2", "--h1", "2", "--h2", "3", "--method", "minplus"),
     "torsion.intersect_tie_loci", lambda first, second: [],
     "expected one positive tie crossing, found 0"),
    (("torsion", *RAMIFIED, "--ramification"), "torsion.gcd_lemma", lambda p, s, t: 2,
     "halved gcd witnesses failed to be 1"),
    (("torsion", *RAMIFIED, "--ramification"), "torsion.torsion_valuations",
     lambda p, heights, n: ValuationProfile(Fraction(1, 2), Fraction(1, 2)),
     "reduced denominators disagree with the degree"),
    (("torsion", "-p", "2", "--h1", "2", "--h2", "3", "-n", "2"), "torsion.torsion_valuations",
     lambda p, heights, n: ValuationProfile(Fraction(1, 2), Fraction(1, 2)),
     "methods disagree at n=2: (1/2, 1/2) vs (9/248, 5/124)"),
    (("torsion", "-p", "2", "--h1", "2", "--h2", "3", "--sweep", "2"),
     "torsion.torsion_valuations",
     lambda p, heights, n: ValuationProfile(Fraction(1, 2), Fraction(1, 2)),
     "closed form and min-plus disagree"),
    (("mult", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9", "-a", "3"),
     "lubintate.multiplication",
     lambda a, group: group.logarithm,  # x1 + x2^4 / 2: a coefficient of valuation -1
     "[3] has a negative-valuation coefficient"),
], ids=["ambiguous-branch", "tie-crossings", "gcd-witnesses", "denominators",
        "methods-disagree", "sweep-disagrees", "mult-valuation"])
def test_a_failed_self_check_exits_1_as_a_verification_failure(
        capsys, monkeypatch, argv, target, fake, detail):
    monkeypatch.setattr(f"lubintate2d.{target}", fake)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "verification", "detail": detail}
