"""Byte-stability of every `lt2d` example in README.md.

Each example runs in-process through `cli.main` in an empty directory.
Its exit code, stdout, stderr and every file it writes (`--out`, `--svg`)
must equal the goldens under tests/data/readme/ byte for byte: the manifest
examples.json holds argv, exit code, stderr and the written file names of
each example, NN.stdout and NN.<file> hold the bytes.

Re-record the goldens, only when an output change is intended, with

    PYTHONPATH=src python3 tests/test_readme_examples.py --record

Every library name the README cites in a code span, `module.attr` or
`Class.attr`, must also still exist.
"""

import importlib
import inspect
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from paper_checks import run_lt2d

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme"
MANIFEST = GOLDEN / "examples.json"


def readme_examples() -> list:
    """argv lists of the `lt2d ...` lines inside README code blocks."""
    out, in_block = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("lt2d "):
            out.append(shlex.split(line)[1:])
    return out


def run_example(argv, workdir) -> dict:
    """Exit code, stdout, stderr and written files of one example."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, stdout, stderr = run_lt2d(argv)
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
    return {"exit": code, "stdout": stdout.encode("utf-8"),
            "stderr": stderr.encode("utf-8"), "files": files}


def _manifest() -> list:
    return json.loads(MANIFEST.read_text())


def test_goldens_cover_the_readme():
    assert [entry["argv"] for entry in _manifest()] == readme_examples()


@pytest.mark.parametrize("index", range(len(readme_examples())))
def test_readme_example_bytes(index, tmp_path):
    entry = _manifest()[index]
    got = run_example(entry["argv"], tmp_path)
    assert got["exit"] == entry["exit"]
    assert got["stdout"] == (GOLDEN / f"{index:02d}.stdout").read_bytes()
    assert got["stderr"] == entry["stderr"].encode("utf-8")
    assert sorted(got["files"]) == entry["files"]
    for name, data in got["files"].items():
        assert data == (GOLDEN / f"{index:02d}.{name}").read_bytes(), name


def test_every_library_name_the_readme_cites_resolves():
    """`module.attr` for the library's modules and `Class.attr` for its
    classes, a `_Record` field counting as an attribute: a removed or
    renamed name cannot stay cited."""
    owners = {name: importlib.import_module(f"lubintate2d.{name}") for name in (
        "padics", "series", "series_ops", "lubintate", "copolygon", "torsion", "fixtures", "cli")}
    owners.update({name: obj for module in owners.values()
                   for name, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__.startswith("lubintate2d.")})
    cited = {m.groups() for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
             for m in re.finditer(r"(?<![\w./])([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
             if m.group(1) in owners}
    assert {("Series", "terms"), ("lubintate", "build_logarithm")} <= cited
    assert [f"{owner}.{attr}" for owner, attr in sorted(cited)
            if not hasattr(owners[owner], attr)
            and attr not in getattr(owners[owner], "_fields", ())] == []


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    manifest = []
    for index, argv in enumerate(readme_examples()):
        with tempfile.TemporaryDirectory() as workdir:
            got = run_example(argv, workdir)
        (GOLDEN / f"{index:02d}.stdout").write_bytes(got["stdout"])
        for name, data in got["files"].items():
            (GOLDEN / f"{index:02d}.{name}").write_bytes(data)
        manifest.append({"argv": argv, "exit": got["exit"],
                         "stderr": got["stderr"].decode("utf-8"),
                         "files": sorted(got["files"])})
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in manifest) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
