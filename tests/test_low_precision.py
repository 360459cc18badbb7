"""The low-precision ledger of `group`, `verify`, `log` and `mult`.

Each cell runs `lt2d -N <N> <command> -p <p> --h1 <h1> --h2 <h2> -D <D>`
once, in-process through `cli.main`, over the two acceptance fixtures
(p = 2, heights (2, 3); p = 3, heights (1, 2)), D in {6, 9, 12, 16}, the
commands `group`, `verify`, `log`, `mult -a 2` and `mult -a 3`, and
N = 1..11 and 64.  tests/data/low_precision.json pins each cell's exit
code, its stderr, the sha256 of its stdout, and its lie: how it disagrees
with its `-N 64` twin, or null.  tests/test_verdict_golden.py checks the
first three fields of every cell against this module's runs, and
tests/test_precision_consistency.py the lie; both import the runs from
here, so each cell still runs once a session.

A result claiming k digits agrees with any more precise result in those k
digits (Caruso, Roe & Vaccon, "Tracking p-adic precision", LMS J. Comput.
Math. 17, 2014).  So a cell lies:

- `log` and `mult`, when it exits 0 and its container, compared term by
  term on (section, exponents) -> valuation, misses a term the `-N 64`
  answer has with valuation below N, or prints a term the `-N 64` answer
  does not have with that valuation;
- `group` and `verify`, when its exit code is not the `-N 64` one, or, for
  `verify`, when its JSON report differs.  A low-N pass where `-N 64`
  fails is a lie; a low-N failure where `-N 64` passes is lost precision
  reported as a verdict.  A `precision` error (exit 3) claims no verdict.

The grid reaches every exit class of these commands, so a checker that
changes a verdict or a message, a kernel that reorders a chain of partial
sums in a container, and a change that mends a lie or adds one all move
a cell.  One check needs no `-N 64` run, because running out of precision
is never a verdict: at D = 16 and N = 1..8 `group` and `verify` exit 0 or
3, never 1 (a strict xfail until ROADMAP item 1 lands).

Re-record the ledger, only when a moved cell is intended, with

    PYTHONPATH=src python3 tests/test_low_precision.py --record

which prints each cell whose entry changes, field by field, and the lies
per command before it writes.
"""

import collections
import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from lubintate2d import cli
from lubintate2d.series import parse_sections

LEDGER = Path(__file__).resolve().parent / "data" / "low_precision.json"
FIXTURES = ((2, 2, 3), (3, 1, 2))
DEGREES = (6, 9, 12, 16)
COMMANDS = (("group",), ("verify",), ("log",), ("mult", "-a", "2"), ("mult", "-a", "3"))
VERDICTS = ("group", "verify")
HIGH = 64
PRECISIONS = (*range(1, 12), HIGH)


def words(command: tuple, p: int, h1: int, h2: int, degree: int) -> tuple:
    """The words of `lt2d` after `-N <N>`."""
    return (command[0], "-p", str(p), "--h1", str(h1), "--h2", str(h2), "-D", str(degree),
            *command[1:])


def commands() -> list:
    """The 40 commands of the grid."""
    return [words(command, *fixture, degree)
            for fixture in FIXTURES for degree in DEGREES for command in COMMANDS]


@functools.lru_cache(maxsize=None)
def run(prec: int, command: tuple) -> tuple:
    """(exit code, stdout, stderr) of the command at `-N prec`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["-N", str(prec), *command])
    return code, stdout.getvalue(), stderr.getvalue()


@functools.lru_cache(maxsize=None)
def valuations(prec: int, command: tuple):
    """{(section, exponents): valuation} of the command's container at
    `-N prec`, or None when it does not exit 0."""
    code, stdout, _ = run(prec, command)
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
    """How a low-N run of a verdict command disagrees with the `-N 64` one, or None."""
    (code, out, _), (high_code, high_out, _) = low, high
    if code == 3:
        return None  # a precision error claims no verdict
    if code != high_code:
        return f"exit {code} here, {high_code} at -N {HIGH}"
    if command[0] == "verify" and out != high_out:
        return f"report {out.strip()} here, {high_out.strip()} at -N {HIGH}"
    return None


def lie(prec: int, command: tuple):
    """How the command at `-N prec` disagrees with its `-N 64` twin, or None."""
    if command[0] in VERDICTS:
        return verdict_lie(command, run(prec, command), run(HIGH, command))
    low = valuations(prec, command)
    return None if low is None else first_lie(prec, low, valuations(HIGH, command))


@functools.lru_cache(maxsize=None)
def ledger() -> tuple:
    """One entry per cell, commands in grid order, N ascending."""
    rows = []
    for command in commands():
        for prec in PRECISIONS:
            code, stdout, stderr = run(prec, command)
            rows.append({"argv": " ".join(("-N", str(prec), *command)), "exit": code,
                         "stderr": stderr, "lie": lie(prec, command),
                         "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()})
    return tuple(rows)


def test_the_grid_and_its_reference_runs():
    high = {" ".join(c): run(HIGH, c)[0] for c in commands() if run(HIGH, c)[0] != 0}
    assert high == {" ".join(words(("verify",), *fixture, 6)): 2 for fixture in FIXTURES}
    low = [(c[0], run(prec, c)[0]) for c in commands() for prec in PRECISIONS[:-1]]
    assert sum(code == 0 for name, code in low if name not in VERDICTS) >= 200
    assert sum(name in VERDICTS for name, _ in low) == 176
    assert {(c[0], run(prec, c)[0]) for c in commands() for prec in PRECISIONS} == {
        ("group", 0), ("group", 1), ("group", 3),
        ("verify", 0), ("verify", 1), ("verify", 2), ("verify", 3),
        ("mult", 0), ("mult", 3), ("log", 0)}


@pytest.mark.xfail(reason="lost digits still read as failed checks "
                          "(ROADMAP item 1): 18 of the 32 cells exit 1")
def test_running_out_of_precision_is_never_a_verdict():
    verdicts = {}
    for fixture in FIXTURES:
        for name in VERDICTS:
            command = words((name,), *fixture, 16)
            for prec in range(1, 9):
                code = run(prec, command)[0]
                if code not in (0, 3):
                    verdicts[" ".join(("-N", str(prec), *command))] = code
    assert not verdicts, f"lost precision read as a verdict: {verdicts}"


def test_the_known_lie_is_listed():
    # a unit coefficient of [3] at N = 64 that -N 1 does not print
    entries = {entry["argv"]: entry for entry in json.loads(LEDGER.read_text())}
    assert entries["-N 1 mult -p 2 --h1 2 --h2 3 -D 6 -a 3"]["lie"].startswith("mult.1 (0, 4)")


def test_record_lists_each_changed_cell_and_field():
    old = [{"argv": "a", "exit": 0, "stderr": ""}, {"argv": "b", "exit": 3, "stderr": "x"}]
    new = [{"argv": "a", "exit": 0, "stderr": ""}, {"argv": "b", "exit": 3, "stderr": "y"},
           {"argv": "c", "exit": 1, "stderr": ""}]
    assert changes(old, new) == ["b", "  stderr: 'x' -> 'y'",
                                 "c", "  exit: None -> 1",
                                 "  stderr: None -> ''", "2 of 3 cells changed"]


def test_record_counts_the_lies_of_each_command():
    rows = [{"argv": "-N 1 verify -p 2", "lie": "exit 1 here, 0 at -N 64"},
            {"argv": "-N 1 log -p 2", "lie": None},
            {"argv": "-N 2 verify -p 2", "lie": "exit 1 here, 0 at -N 64"},
            {"argv": "-N 1 mult -p 2 -a 3", "lie": "mult.1 (0, 4): valuation 0 at -N 64, None here"}]
    assert lie_counts(rows) == "lies: log 0, mult 1, verify 2 (3 of 4 cells)"


def changes(old: list, new: list) -> list:
    """One line per cell of `new` whose entry differs from `old`'s for the
    same argv, then an indented "field: old -> new" line per changed field,
    then the count."""
    before = {entry["argv"]: entry for entry in old}
    lines, changed = [], 0
    for entry in new:
        was = before.get(entry["argv"], {})
        fields = [k for k in sorted(entry) if k != "argv" and was.get(k) != entry[k]]
        if fields:
            changed += 1
            lines.append(entry["argv"])
            lines += [f"  {k}: {was.get(k)!r} -> {entry[k]!r}" for k in fields]
    return lines + [f"{changed} of {len(new)} cells changed"]


def lie_counts(rows: list) -> str:
    """The number of cells that lie, per command, then in all."""
    names = [row["argv"].split()[2] for row in rows]
    lies = collections.Counter(name for name, row in zip(names, rows) if row["lie"] is not None)
    counts = ", ".join(f"{name} {lies[name]}" for name in sorted(set(names)))
    return f"lies: {counts} ({sum(lies.values())} of {len(rows)} cells)"


def record() -> None:
    rows = ledger()
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    print("\n".join(changes(old, rows) + [lie_counts(rows)]))
    LEDGER.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
