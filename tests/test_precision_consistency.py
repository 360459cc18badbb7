"""What a low-precision container promises: the ratchet of its lies.

Each cell runs `lt2d -N <N> <command> -p <p> --h1 <h1> --h2 <h2> -D <D>`
in-process through `cli.main`, for `log` and `mult -a a` with a in
{2, 3, p}, over the two acceptance fixtures (p = 2, heights (2, 3);
p = 3, heights (1, 2)), D in {6, 9, 12, 16} and N = 1..11.  A cell that
exits 0 is compared with the same command at `-N 64`, term by term on
(section, exponents) -> valuation:

- every term the `-N 64` answer has with valuation below N is printed,
  with the same valuation;
- every printed term is in the `-N 64` answer, with the same valuation.

A cell that breaks either rule prints a digit it does not know
(Caruso, Roe & Vaccon, "Tracking p-adic precision", LMS J. Comput. Math.
17, 2014: a result claiming k digits agrees with any more precise result
in those k digits).  Today's offenders are listed in
tests/data/precision_lies.json.  The test fails when a new cell offends
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

from lubintate2d import cli
from lubintate2d.series import parse_sections

LIES = Path(__file__).resolve().parent / "data" / "precision_lies.json"
FIXTURES = ((2, 2, 3), (3, 1, 2))
DEGREES = (6, 9, 12, 16)
PRECISIONS = range(1, 12)
HIGH = 64


def commands() -> list:
    """(command words, parameter words) for every command of the grid."""
    out = []
    for p, h1, h2 in FIXTURES:
        for degree in DEGREES:
            params = ("-p", str(p), "--h1", str(h1), "--h2", str(h2), "-D", str(degree))
            out.append((("log",), params))
            out.extend((("mult",), params + ("-a", str(a))) for a in sorted({2, 3, p}))
    return out


@functools.lru_cache(maxsize=None)
def valuations(prec: int, command: tuple, params: tuple):
    """{(section, exponents): valuation} of the command's container at
    `-N prec`, or None when it does not exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["-N", str(prec), *command, *params])
    if code != 0:
        return None
    _, pairs = parse_sections(stdout.getvalue())
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


def test_low_precision_containers_lie_only_where_listed(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    passed, lies = sweep()
    listed = json.loads(LIES.read_text())
    new = {argv: lie for argv, lie in lies.items() if argv not in listed}
    mended = [argv for argv in listed if argv not in lies]
    assert not new, f"{len(new)} cells newly print digits they do not know, e.g. " \
                    f"{next(iter(new.items()))}"
    assert not mended, f"{len(mended)} listed cells no longer offend; take them off " \
                       f"{LIES.name}, e.g. {mended[:3]}"
    assert passed >= 200  # the grid still reaches the exit-0 cells it compares


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
    LIES.write_text(json.dumps(list(lies), indent=1) + "\n")
    print(f"{len(lies)} of {passed} exit-0 cells offend; wrote {LIES}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_precision_consistency.py --record")
    record()
