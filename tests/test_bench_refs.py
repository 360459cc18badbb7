"""Byte-stability of every command the benchmark can draw.

Each grid command of bench/workloads.py runs in-process through `cli.main`
in a fresh directory that holds the support files recorded in the
workload's references.  Its exit code, stdout and every file it writes
must equal bench/refs/<workload>.json byte for byte.  Every library name
that bench/trace_boot.py wraps for `--trace 1` must exist.  Nothing under
bench/ is written.
"""

import contextlib
import importlib.util
import io
import json
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


def test_trace_boot_names_resolve():
    """The names the tracer wraps, looked up as its `_replace` does (a
    `Class.attr` name through the class's own `__dict__`), without
    installing the wrappers."""
    trace = _load_bench("bench_trace_boot", "trace_boot.py")
    names = [(module, attribute) for _, module, attribute, _ in trace.SPANNED]
    names += [(module, attribute) for _, module, attribute in trace.COUNTED]
    missing = []
    for module_name, attribute in names:
        owner = importlib.import_module(f"lubintate2d.{module_name}")
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{attribute}")
    assert not missing, f"bench/trace_boot.py wraps names the library lacks: {missing}"
