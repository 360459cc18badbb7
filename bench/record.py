"""Record the reference outputs of every command in the workload grids.

Usage: python3 bench/record.py [WORKLOAD ...]

Writes bench/refs/<workload>.json: for each command key its exit code,
stdout and output files, and for the copolygon workload the text of each
support file.  References are recorded once, at the commit the benchmark
is defined on; a later commit must reproduce them, so re-recording is
only right when a workload's grid grows.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REF_DIR, TMP_DIR, Spawner, write_supports
from workloads import WORKLOADS


def record(workload, spawner) -> dict:
    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"record-{workload.name}-", dir=TMP_DIR))
    try:
        refs = {}
        if workload.supports:
            refs["supports"] = write_supports(spawner, work, workload.supports)
        for cmd in workload.grid():
            for name in cmd.outputs:
                (work / name).unlink(missing_ok=True)
            _, code, _, stdout = spawner.run(
                [sys.executable, "-m", "lubintate2d.cli", *cmd.argv], work)
            entry = {"exit": code, "stdout": stdout}
            if cmd.outputs:
                entry["files"] = {name: (work / name).read_text()
                                  for name in cmd.outputs}
            refs[cmd.key] = entry
            print(f"{code} {cmd.key}", flush=True)
        return refs
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names):
    REF_DIR.mkdir(exist_ok=True)
    with Spawner() as spawner:
        for name in names or list(WORKLOADS):
            refs = record(WORKLOADS[name], spawner)
            (REF_DIR / f"{name}.json").write_text(
                json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
