import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lubintate2d import cli
from lubintate2d.copolygon import Copolygon, emit_svg
from lubintate2d.fixtures import worked_copolygon_series
from lubintate2d.series import parse_sections
from lubintate2d.torsion import ramification_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_torsion_json_frozen(capsys):
    code, out, err = run(capsys, "torsion", "-p", "2", "--h1", "2", "--h2", "3", "-n", "1")
    assert code == 0 and err == ""
    assert out == ('{"h1": 2, "h2": 3, "hypothesis_status": "outside", '
                   '"method": "both", "n": 1, "p": 2, '
                   '"v_eta": "9/31", "v_xi": "5/31"}\n')


def test_torsion_single_methods_agree(capsys):
    results = {}
    for method in ("closed", "minplus"):
        code, out, _ = run(capsys, "torsion", "-p", "3", "--h1", "2", "--h2", "3",
                           "-n", "2", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method
        assert payload["hypothesis_status"] == "in"
        results[method] = (payload["v_xi"], payload["v_eta"])
    # n = 2m with m = 1: (p^h2 + 1)/(p^(h(m)-h1) (p^h - 1)) = 28/6534 and
    # (p^h1 + 1)/(p^(h(m)-h2) (p^h - 1)) = 10/2178, reduced
    assert results["closed"] == results["minplus"] == ("14/3267", "5/1089")


def test_torsion_sweep(capsys):
    code, out, _ = run(capsys, "torsion", "-p", "2", "--h1", "2", "--h2", "3",
                       "--sweep", "4")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["agree"] for r in rows)
    assert rows[1]["v_xi"] == "9/248"
    assert rows[1]["v_eta"] == "5/124"


def test_ramification_json_and_csv(capsys):
    code, out, _ = run(capsys, "torsion", "-p", "3", "--h1", "2", "--h2", "3",
                       "--ramification")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 3, "h1": 2, "h2": 3, "degree": 121,
                       "v_xi": "5/121", "v_eta": "14/121",
                       "witness_h1": 1, "witness_h2": 1}
    code, out, _ = run(capsys, "torsion", "-p", "3", "--h1", "2", "--h2", "3",
                       "--ramification", "--csv")
    assert code == 0
    assert out == ramification_csv([(3, (2, 3))])
    assert out.splitlines()[1] == "3,2,3,121,5/121,14/121,1,1"


def test_torsion_csv_needs_ramification(capsys):
    code, out, err = run(capsys, "torsion", "-p", "2", "--h1", "2", "--h2", "3", "--csv")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "usage",
                               "detail": "--csv applies to --ramification output"}


def test_copolygon_text_frozen(capsys):
    code, out, _ = run(capsys, "copolygon", "--fixture", "ex1")
    assert code == 0
    assert out == ("copolygon over Z_2, degree 9\n"
                   "functional: 1 1 1/1\n"
                   "functional: 4 0 0/1\n"
                   "functional: 0 5 0/1\n"
                   "vertex: 5/11 4/11 value 20/11\n"
                   "tie segments: 3\n")


def test_copolygon_json(capsys):
    code, out, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["degree"] == 9
    assert payload["functionals"] == [[1, 1, "1/1"], [4, 0, "0/1"], [0, 5, "0/1"]]
    assert payload["vertices"] == [["5/11", "4/11", "20/11"]]
    assert len(payload["tie_segments"]) == 3
    pairs = {tuple(map(tuple, seg["pair"])) for seg in payload["tie_segments"]}
    assert pairs == {((1, 1), (4, 0)), ((1, 1), (0, 5)), ((4, 0), (0, 5))}


def test_copolygon_component_selection(capsys):
    code, out, _ = run(capsys, "copolygon", "--fixture", "dyn23", "--component", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["functionals"] == [[0, 1, "1/1"], [8, 0, "0/1"]]
    code, _, err = run(capsys, "copolygon", "--fixture", "ex1", "--component", "2")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


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


def test_copolygon_svg_matches_library(tmp_path, capsys):
    target = tmp_path / "pic.svg"
    code, _, _ = run(capsys, "copolygon", "--fixture", "ex1", "--svg", str(target))
    assert code == 0
    expected = emit_svg(Copolygon.from_series(worked_copolygon_series())).encode("utf-8")
    assert target.read_bytes() == expected


def test_log_roundtrip(tmp_path, capsys):
    target = tmp_path / "log.txt"
    code, out, _ = run(capsys, "log", "-p", "2", "--h1", "2", "--h2", "3",
                       "-D", "12", "--out", str(target))
    assert code == 0 and out == ""
    header, sections = parse_sections(target.read_text())
    assert header == {"p": 2, "h1": 2, "h2": 3, "D": 12, "N": 64}
    assert sections["logarithm.1"].support() == [(1, 0), (0, 4)]
    assert sections["logarithm.2"].support() == [(0, 1), (8, 0)]
    assert sections["logarithm.2"].coefficient((8, 0)).valuation == -1


def test_group_stdout_parses(capsys):
    code, out, _ = run(capsys, "group", "-p", "3", "--h1", "1", "--h2", "2", "-D", "6")
    assert code == 0
    header, sections = parse_sections(out)
    assert header["p"] == 3
    assert set(sections) == {"logarithm.1", "logarithm.2",
                             "exponential.1", "exponential.2",
                             "group_law.1", "group_law.2"}
    assert sections["group_law.2"].support() == [(0, 0, 0, 1), (0, 1, 0, 0)]


def test_mult_with_env_precision(monkeypatch, capsys):
    monkeypatch.setenv("LT2D_PRECISION", "8")
    code, out, _ = run(capsys, "mult", "-p", "3", "--h1", "1", "--h2", "2",
                       "-D", "9", "-a", "3")
    assert code == 0
    header, sections = parse_sections(out)
    assert header["N"] == 8
    # -8 stored at relative precision 7 after one division by p
    assert "0 3 : 0 2179" in out
    assert sections["mult.1"].support() == [(1, 0), (0, 3)]


def test_env_precision_invalid(monkeypatch, capsys):
    monkeypatch.setenv("LT2D_PRECISION", "abc")
    code, _, err = run(capsys, "torsion", "-p", "2", "--h1", "2", "--h2", "3")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_precision_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("LT2D_PRECISION", "8")
    code, out, _ = run(capsys, "-N", "12", "mult", "-p", "3", "--h1", "1",
                       "--h2", "2", "-D", "9", "-a", "3")
    assert code == 0
    assert json.loads(out.splitlines()[0])["N"] == 12


def test_verify_parameters_ok(capsys):
    code, out, _ = run(capsys, "verify", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"logarithm_recursion": True, "group_axioms": True,
                       "p_congruences": True, "height": 5, "height_ok": True,
                       "ok": True}


def test_verify_with_unramified_check(capsys):
    code, out, _ = run(capsys, "-N", "16", "verify", "-p", "2", "--h1", "2",
                       "--h2", "3", "-D", "9", "--unramified-degree", "5")
    assert code == 0
    assert json.loads(out)["gamma_endomorphism"] is True


def test_verify_stored_sample_fails(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "mult45")
    assert code == 1
    payload = json.loads(out)
    assert payload["linear_ok"] is True
    assert payload["cross"] is False
    assert payload["congruences_ok"] is False
    assert len(payload["violations"]) == 4


def test_verify_needs_parameters(capsys):
    code, _, err = run(capsys, "verify", "-p", "2", "--h1", "2")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_bad_prime_exit_code(capsys):
    code, _, err = run(capsys, "log", "-p", "4", "--h1", "2", "--h2", "3", "-D", "9")
    assert code == 2
    assert json.loads(err) == {"error": "usage", "detail": "4 is not prime"}


def test_double_run_byte_identical(capsys):
    _, first, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    _, second, _ = run(capsys, "copolygon", "--fixture", "ex1", "--json")
    assert first == second
    _, first, _ = run(capsys, "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "6")
    _, second, _ = run(capsys, "group", "-p", "2", "--h1", "2", "--h2", "3", "-D", "6")
    assert first == second


def test_console_script_installed():
    exe = shutil.which("lt2d")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "torsion", "-p", "2", "--h1", "2", "--h2", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["v_xi"] == "5/31"


def test_cli_import_stays_on_the_light_standard_library():
    """Under `python -I -S`, importing the CLI loads no standard module it
    never needs, and loads every library module eagerly: the traced
    benchmark (`bench/trace_boot.py`) looks each one up in `sys.modules`
    right after it imports the CLI."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lubintate2d.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing", "importlib.resources"}
    assert {f"lubintate2d.{name}" for name in ("padics", "series", "lubintate", "copolygon",
                                               "torsion", "fixtures")} <= loaded


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lubintate2d.cli",
                           "verify", "--fixture", "mult45"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["cross"] is False


def test_verify_builds_p_multiplication_once(capsys, monkeypatch):
    from lubintate2d import lubintate

    calls = []
    real = lubintate.multiplication
    monkeypatch.setattr(lubintate, "multiplication",
                        lambda a, g: calls.append(a) or real(a, g))
    code, out, _ = run(capsys, "verify", "-p", "2", "--h1", "2", "--h2", "3", "-D", "9")
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == [2]


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


def test_low_precision_verify_still_fails_on_the_law(capsys):
    code, out, err = run(capsys, "-N", "2", "verify", "-p", "2", "--h1", "2",
                         "--h2", "3", "-D", "16")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "usage",
                               "detail": "group law has a denominator (min valuation -1)"}


def test_low_precision_mult_skips_the_law(capsys):
    # mult never reads the group law, so a law that would carry a
    # denominator at N = 2 no longer stops it; [a] itself is integral.
    for p, h1, h2 in (("2", "2", "3"), ("3", "1", "2")):
        code, out, err = run(capsys, "-N", "2", "mult", "-p", p, "--h1", h1,
                             "--h2", h2, "-D", "16", "-a", p)
        assert code == 0 and err == ""
        _, sections = parse_sections(out)
        assert all(v >= 0 for s in sections.values() for v, _, _ in s.terms.values())


@pytest.mark.parametrize("prec", ["0", "-3"])
def test_precision_flag_below_one_is_a_usage_error(capsys, prec):
    code, out, err = run(capsys, "-N", prec, "log", "-p", "2", "--h1", "2",
                         "--h2", "3", "-D", "4")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "usage", "detail": "-N must be at least 1"}


PARAMS = ("-p", "2", "--h1", "2", "--h2", "3")
UNOPENABLE = "no-such-dir/out"  # relative to tmp_path, whose subdir is never made
RAMIFIED = ("-p", "3", "--h1", "2", "--h2", "3")


@pytest.mark.parametrize("argv, named", [
    (("group", "-p", "x", "--h1", "2", "--h2", "3", "-D", "4"), "-p"),
    (("group", "--h1", "2", "--h2", "3", "-D", "4"), "-p"),
    (("frob",), "frob"),
    (("-N", "x", "log", *PARAMS, "-D", "4"), "-N"),
    (("group", *PARAMS, "-D", "6", "--assoc-degree", "0"),
     "--assoc-degree must be at least 1"),
    (("group", *PARAMS, "-D", "6", "--assoc-degree", "-1"),
     "--assoc-degree must be at least 1"),
    (("torsion", *PARAMS, "--sweep", "0"), "--sweep must be at least 1"),
    (("torsion", *PARAMS, "--sweep", "-2"), "--sweep must be at least 1"),
    (("torsion", *PARAMS, "-n", "0"), "-n must be at least 1"),
    (("copolygon", "--fixture", "ex1", "-D", "0"), "-D must be at least 1"),
    (("verify", *PARAMS, "-D", "9", "--unramified-degree", "0"),
     "--unramified-degree must be at least 1"),
    (("log", *PARAMS, "-D", "4", "--out", UNOPENABLE), UNOPENABLE),
    (("copolygon", "--fixture", "ex1", "--svg", UNOPENABLE), UNOPENABLE),
    (("copolygon", "--support", UNOPENABLE), UNOPENABLE),
    # a flag the chosen mode never reads is refused before any work or file read
    (("copolygon", "--support", "series.support", "-D", "3"), "-D"),
    (("copolygon", "--support", "series.support", "--component", "2"), "--component"),
    (("verify", "--fixture", "mult45", "-p", "5"), "-p"),
    (("verify", "--fixture", "mult45", "--h1", "9"), "--h1"),
    (("verify", "--fixture", "mult45", "--h2", "9"), "--h2"),
    (("verify", "--fixture", "mult45", "-D", "9"), "-D"),
    (("verify", "--fixture", "mult45", "--assoc-degree", "3"), "--assoc-degree"),
    (("verify", "--fixture", "mult45", "--unramified-degree", "2"),
     "--unramified-degree"),
    (("torsion", *RAMIFIED, "--ramification", "-n", "2"), "-n"),
    (("torsion", *RAMIFIED, "--ramification", "--method", "closed"), "--method"),
    (("torsion", *RAMIFIED, "--ramification", "--sweep", "3"), "--sweep"),
    (("torsion", *PARAMS, "--sweep", "3", "-n", "2"), "-n"),
    (("torsion", *PARAMS, "--sweep", "3", "--method", "minplus"), "--method"),
    (("verify", "-p", "2"), "-D"),
    (("-N", "3", "torsion", *PARAMS), "-N"),
    (("-N", "5", "copolygon", "--fixture", "ex1"), "-N"),
    (("-N", "1", "verify", "--fixture", "mult45"), "-N"),
])
def test_bad_input_is_one_usage_line(capsys, monkeypatch, tmp_path, argv, named):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "usage" and named in payload["detail"]
    if named.endswith("must be at least 1"):
        assert payload["detail"] == named


@pytest.mark.parametrize("text, detail", [
    ("4 9\n1 1 1/1\n", "4 is not prime"),
    ("2 3\n1 1 1/1\n9 9 0\n", "monomial (9, 9) exceeds truncation degree 3"),
    ("2 9\n1 x 0\n", "malformed support line: '1 x 0'"),
    ("2 9\n1 0 1/0\n", "malformed support line: '1 0 1/0'"),
    ("2 9\n1 0\n", "malformed support line: '1 0'"),
    ("x 9\n1 1 1/1\n", "header must be two integers: p and truncation degree"),
    ("2\n1 1 1/1\n", "header must be two integers: p and truncation degree"),
], ids=["composite-p", "past-degree", "bad-exponent", "zero-denominator", "two-fields",
        "bad-header", "short-header"])
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


def test_verify_reports_p_congruences_once(capsys, monkeypatch):
    from lubintate2d import lubintate

    calls = []
    real = lubintate.congruence_report
    monkeypatch.setattr(lubintate, "congruence_report",
                        lambda f, p, heights: calls.append(p) or real(f, p, heights))
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
    monkeypatch.setattr(cli, "ramification_report", spy)
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
