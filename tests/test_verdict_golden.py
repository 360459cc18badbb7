"""Verdicts and containers of `group`, `verify`, `mult` and `log` at low
precision.

Each cell runs `lt2d -N <N> <command> -p <p> --h1 <h1> --h2 <h2> -D <D>`
in-process through `cli.main`, over N = 1..8, D in {6, 9, 12, 16} and the
two acceptance fixtures (p = 2, heights (2, 3); p = 3, heights (1, 2)).
`mult` runs with `-a` the fixture's own prime and, in a second block,
the other fixture's prime.  Its exit code, stderr and the sha256 of its
stdout must equal the golden tests/data/verdicts.json.  The grid reaches
every exit class of these commands (group 0/1/3, verify 0/1/2/3, mult 0/3),
the known low-precision failures included, so a checker that changes a
verdict or a message fails here; and it pins every low-precision
container that is built by composition, so a kernel that reorders a
chain of partial sums fails here too.

Re-record the golden, only when a verdict change is intended, with

    PYTHONPATH=src python3 tests/test_verdict_golden.py --record

which prints each cell whose entry changes, field by field, before it
writes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from lubintate2d import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "verdicts.json"
FIXTURES = (("2", "2", "3"), ("3", "1", "2"))


def cells() -> list:
    out = []
    for p, h1, h2 in FIXTURES:
        for degree in ("6", "9", "12", "16"):
            for prec in range(1, 9):
                params = ["-p", p, "--h1", h1, "--h2", h2, "-D", degree]
                head = ["-N", str(prec)]
                out.append(head + ["group"] + params)
                out.append(head + ["verify"] + params)
                out.append(head + ["mult"] + params + ["-a", p])
    for (p, h1, h2), (other, _, _) in zip(FIXTURES, FIXTURES[::-1]):
        for degree in ("6", "9", "12", "16"):
            for prec in range(1, 9):
                params = ["-p", p, "--h1", h1, "--h2", h2, "-D", degree]
                head = ["-N", str(prec)]
                out.append(head + ["log"] + params)
                out.append(head + ["mult"] + params + ["-a", other])
    return out


def verdict(argv) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return {"argv": " ".join(argv), "exit": code, "stderr": stderr.getvalue(),
            "stdout_sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}


def test_low_precision_verdicts(monkeypatch):
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == [" ".join(a) for a in cells()]
    for entry, argv in zip(golden, cells()):
        assert verdict(argv) == entry


def test_record_lists_each_changed_cell_and_field():
    old = [{"argv": "a", "exit": 0, "stderr": ""}, {"argv": "b", "exit": 3, "stderr": "x"}]
    new = [{"argv": "a", "exit": 0, "stderr": ""}, {"argv": "b", "exit": 3, "stderr": "y"},
           {"argv": "c", "exit": 1, "stderr": ""}]
    assert changes(old, new) == ["b", "  stderr: 'x' -> 'y'",
                                 "c", "  exit: None -> 1",
                                 "  stderr: None -> ''", "2 of 3 cells changed"]


def test_grid_reaches_every_exit_class():
    seen = {(e["argv"].split()[2], e["exit"]) for e in json.loads(GOLDEN.read_text())}
    assert seen == {("group", 0), ("group", 1), ("group", 3),
                    ("verify", 0), ("verify", 1), ("verify", 2), ("verify", 3),
                    ("mult", 0), ("mult", 3), ("log", 0)}


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


def record() -> None:
    os.environ.pop("LT2D_PRECISION", None)
    rows = [verdict(argv) for argv in cells()]
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    print("\n".join(changes(old, rows)))
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
