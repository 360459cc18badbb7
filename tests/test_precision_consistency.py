"""What a low-precision command promises: the ratchet of its lies.

Each cell runs `lt2d -N <N> <command> -p <p> --h1 <h1> --h2 <h2> -D <D>`
in-process through `cli.main` over the two acceptance fixtures (p = 2,
heights (2, 3); p = 3, heights (1, 2)), D in {6, 9, 12, 16} and
N = 1..11, and compares it with the same command at `-N 64`.

Containers: `log` and `mult -a a` with a in {2, 3, p}.  A cell that exits
0 is compared term by term on (section, exponents) -> valuation:

- every term the `-N 64` answer has with valuation below N is printed,
  with the same valuation;
- every printed term is in the `-N 64` answer, with the same valuation.

Verdicts: `group` and `verify`.  A cell offends when its exit code is not
the `-N 64` one, or, for `verify`, when its JSON report differs.  A low-N
pass where `-N 64` fails is a lie; a low-N failure where `-N 64` passes
is lost precision reported as a verdict.  A cell that exits 3 with a
`precision` error claims no verdict, so it does not offend.  One check
needs no `-N 64` run, because running out of precision is never a
verdict: at D = 16 and N = 1..8 both commands exit 0 or 3, never 1 (a
strict xfail until ROADMAP item 1 lands).

A cell that offends prints a digit or a verdict it does not know
(Caruso, Roe & Vaccon, "Tracking p-adic precision", LMS J. Comput. Math.
17, 2014: a result claiming k digits agrees with any more precise result
in those k digits).  Today's offenders are listed in
tests/data/precision_lies.json.  The tests fail when a new cell offends
and when a listed cell stops offending, so a change that mends a cell
takes it off the list, and one that breaks a cell cannot hide it.
Rewrite the list, only when that is the intent, with

    PYTHONPATH=src python3 tests/test_precision_consistency.py --record
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lubintate2d import cli
from lubintate2d.series import parse_sections

LIES = Path(__file__).resolve().parent / "data" / "precision_lies.json"
FIXTURES = ((2, 2, 3), (3, 1, 2))
DEGREES = (6, 9, 12, 16)
PRECISIONS = range(1, 12)
HIGH = 64
CONTAINERS = ("log", "mult")
VERDICTS = ("group", "verify")


def fixture_words(p: int, h1: int, h2: int, degree: int) -> tuple:
    return ("-p", str(p), "--h1", str(h1), "--h2", str(h2), "-D", str(degree))


def commands() -> list:
    """(command words, parameter words) for every container command of the grid."""
    out = []
    for p, h1, h2 in FIXTURES:
        for degree in DEGREES:
            words = fixture_words(p, h1, h2, degree)
            out.append((("log",), words))
            out.extend((("mult",), words + ("-a", str(a))) for a in sorted({2, 3, p}))
    return out


def verdict_commands() -> list:
    """(command words, parameter words) for every verdict command of the grid."""
    return [((command,), fixture_words(*fixture, degree))
            for fixture in FIXTURES for degree in DEGREES for command in VERDICTS]


@functools.lru_cache(maxsize=None)
def run(prec: int, command: tuple, params: tuple) -> tuple:
    """(exit code, stdout) of the command at `-N prec`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["-N", str(prec), *command, *params])
    return code, stdout.getvalue()


@functools.lru_cache(maxsize=None)
def valuations(prec: int, command: tuple, params: tuple):
    """{(section, exponents): valuation} of the command's container at
    `-N prec`, or None when it does not exit 0."""
    code, stdout = run(prec, command, params)
    if code != 0:
        return None
    _, pairs = parse_sections(stdout)
    return {(f"{name}.{idx}", e): v
            for name, pair in pairs.items()
            for idx, s in enumerate(pair, 1)
            for e, (v, _, _) in s.terms.items()}


def first_lie(prec: int, low: dict, high: dict):
    """The first term where `low` (at -N prec) disagrees with `high`, or None."""
    for key, v in sorted(high.items()):
        if v < prec and low.get(key) != v:
            return f"{key[0]} {key[1]}: valuation {v} at -N {HIGH}, {low.get(key)} here"
    for key, v in sorted(low.items()):
        if high.get(key) != v:
            return f"{key[0]} {key[1]}: valuation {v} here, {high.get(key)} at -N {HIGH}"
    return None


def verdict_lie(command: tuple, low: tuple, high: tuple):
    """How a low-N (exit code, stdout) disagrees with the `-N 64` one, or None."""
    (code, out), (high_code, high_out) = low, high
    if code == 3:
        return None  # a precision error claims no verdict
    if code != high_code:
        return f"exit {code} here, {high_code} at -N {HIGH}"
    if command == ("verify",) and out != high_out:
        return f"report {out.strip()} here, {high_out.strip()} at -N {HIGH}"
    return None


def sweep() -> tuple:
    """(number of exit-0 cells, {argv: first lie} of the offending ones)."""
    passed, lies = 0, {}
    for command, params in commands():
        high = valuations(HIGH, command, params)
        assert high is not None, f"-N {HIGH} {' '.join(command + params)} does not exit 0"
        for prec in PRECISIONS:
            low = valuations(prec, command, params)
            if low is None:
                continue
            passed += 1
            lie = first_lie(prec, low, high)
            if lie is not None:
                lies[" ".join(("-N", str(prec)) + command + params)] = lie
    return passed, lies


def verdict_sweep() -> tuple:
    """(number of cells, {argv: lie} of the offending ones)."""
    cells, lies = 0, {}
    for command, params in verdict_commands():
        high = run(HIGH, command, params)
        for prec in PRECISIONS:
            cells += 1
            lie = verdict_lie(command, run(prec, command, params), high)
            if lie is not None:
                lies[" ".join(("-N", str(prec)) + command + params)] = lie
    return cells, lies


def assert_listed(lies: dict, commands: tuple, what: str) -> None:
    """The offenders among `commands` are exactly the listed ones."""
    listed = [argv for argv in json.loads(LIES.read_text()) if argv.split()[2] in commands]
    new = {argv: lie for argv, lie in lies.items() if argv not in listed}
    mended = [argv for argv in listed if argv not in lies]
    assert not new, f"{len(new)} cells newly {what}, e.g. {next(iter(new.items()))}"
    assert not mended, f"{len(mended)} listed cells no longer offend; take them off " \
                       f"{LIES.name}, e.g. {mended[:3]}"


def test_low_precision_containers_lie_only_where_listed(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    passed, lies = sweep()
    assert_listed(lies, CONTAINERS, "print digits they do not know")
    assert passed >= 200  # the grid still reaches the exit-0 cells it compares


def test_low_precision_verdicts_differ_only_where_listed(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    cells, lies = verdict_sweep()
    assert cells == 176
    assert_listed(lies, VERDICTS, "give a verdict -N 64 does not")


@pytest.mark.xfail(strict=True, reason="lost digits still read as failed checks "
                   "(ROADMAP item 1): 18 of the 32 cells exit 1")
def test_running_out_of_precision_is_never_a_verdict(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    verdicts = {}
    for fixture in FIXTURES:
        params = fixture_words(*fixture, 16)
        for command in VERDICTS:
            for prec in range(1, 9):
                code = run(prec, (command,), params)[0]
                if code not in (0, 3):
                    verdicts[" ".join(("-N", str(prec), command) + params)] = code
    assert not verdicts, f"lost precision read as a verdict: {verdicts}"


def test_the_known_lie_is_listed(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    # a unit coefficient of [3] at N = 64 that -N 1 does not print
    argv = "-N 1 mult -p 2 --h1 2 --h2 3 -D 6 -a 3"
    assert argv in json.loads(LIES.read_text())
    params = tuple(argv.split()[3:])
    assert first_lie(1, valuations(1, ("mult",), params),
                     valuations(HIGH, ("mult",), params)).startswith("mult.1 (0, 4)")


def record() -> None:
    os.environ.pop("LT2D_PRECISION", None)
    passed, lies = sweep()
    cells, verdict_lies = verdict_sweep()
    LIES.write_text(json.dumps([*lies, *verdict_lies], indent=1) + "\n")
    print(f"{len(lies)} of {passed} exit-0 container cells and {len(verdict_lies)} of "
          f"{cells} verdict cells offend; wrote {LIES}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_precision_consistency.py --record")
    record()
