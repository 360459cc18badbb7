"""Byte-stability of every command the benchmark can draw.

Each grid command of bench/workloads.py runs in-process through `cli.main`
in a fresh directory that holds the support files recorded in the
workload's references.  Its exit code, stdout and every file it writes
must equal bench/refs/<workload>.json byte for byte.  A traced smoke run
of the workloads that bench/test_bench.py does not trace must check every
command correct.  Nothing under bench/ is written.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lubintate2d import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_bench("bench_workloads", "workloads.py").WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_grid_matches_bench_refs(name, tmp_path, monkeypatch):
    refs = json.loads((BENCH / "refs" / f"{name}.json").read_text())
    for support, text in refs.get("supports", {}).items():
        (tmp_path / support).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LT2D_PRECISION", raising=False)
    grid = WORKLOADS[name].grid()
    bad = []
    for cmd in grid:
        ref = refs[cmd.key]
        for out in cmd.outputs:
            (tmp_path / out).unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cmd.argv))
        files = {out: (tmp_path / out).read_bytes().decode() for out in cmd.outputs}
        if (code, stdout.getvalue(), files) != (ref["exit"], ref["stdout"],
                                                ref.get("files", {})):
            bad.append(cmd.key)
    assert not bad, f"{len(bad)} of {len(grid)} differ from bench/refs, e.g. {bad[:3]}"


@pytest.mark.parametrize("workload", ["mult", "group", "small"])
def test_traced_smoke_is_correct(workload):
    """`--trace 1` runs each command again under bench/trace_boot.py, in a
    fresh process that looks up every name it wraps, in `torsion` and
    `fixtures` too, which `mult` and `group` never load.  So a library name
    the tracer lacks fails its command.  run.py exits 0 either way: its
    last stdout line carries the verdict."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=300)
    *summary, last = proc.stdout.splitlines()
    result = json.loads(last)
    fails = [line for line in summary if line.lstrip().startswith("FAIL")]
    assert result["correct"] is True and result["failed"] == 0, fails or proc.stderr
