"""The lt2d benchmark: four CLI workloads, one client, a closed loop.

Usage:
    python3 bench/run.py --workload mult|group|copolygon|small|all
                         --seed N --seconds S --trace 0|1 [--smoke]

Every command is a fresh `python -m lubintate2d.cli` child, as it is for
a user, started only after the previous one exits.  A run draws whole
cycles of its workload (see workloads.py); --seconds fixes how many, from
the cycle time measured at the seed commit, so every run times the same
mix of work and takes about --seconds there.  Each command's
exit code, stdout and output files are checked against references
recorded at the seed commit (refs/).

The benchmark and all its children run on one CPU, and reference.py, a
fixed stdlib-only program, runs as a child after every command.  Command
times are reported in units of the reference's wall time around them
(`ref`): on a shared host, whose speed drifts by tens of per cent within
minutes, seconds do not repeat from run to run but these ratios do.  The
raw seconds are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs every command a
second time through trace_boot.py and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Results and spans go to .bench_out/ in the checkout;
children run in a temporary directory under .bench_tmp/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from compare import mismatches
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
REF_DIR = BENCH / "refs"

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150
WARM_UP = ("torsion", "-p", "2", "--h1", "2", "--h2", "3", "-n", "1")
REFERENCE = BENCH / "reference.py"


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU; return which.

    On a shared host the CPUs slow down independently; a child landing on
    either one at random doubles the spread of its time, and the reference
    only tracks the speed of the CPU it ran on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    """The children's environment: default precision, the checkout's src."""
    env = dict(os.environ)
    env.pop("LT2D_PRECISION", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Record:
    key: str
    wall_s: float
    exit_code: int
    maxrss_kib: int
    stdout_bytes: int
    problems: list
    traced: bool = False
    trace: dict = None
    ref_s: float = None  # mean wall time of the reference runs around it

    @property
    def rel(self) -> float:
        return self.wall_s / self.ref_s


@dataclass
class RunDir:
    """A workload's set-up: the children's directory and the references."""

    path: Path
    refs: dict
    problems: list = field(default_factory=list)

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


class Spawner:
    """Runs commands one at a time through spawn.py; see there for why."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.running = None  # pid of the command in flight

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.running is not None:
            try:
                os.kill(self.running, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv, cwd: Path):
        """Run argv to completion; return (wall_s, exit_code, maxrss_kib, stdout)."""
        out_path = cwd / ".stdout"
        self.proc.stdin.write(json.dumps({
            "argv": [str(a) for a in argv], "cwd": str(cwd),
            "stdout": str(out_path), "stderr": str(cwd / ".stderr")}) + "\n")
        self.proc.stdin.flush()
        self.running = json.loads(self.proc.stdout.readline())["pid"]
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill,
                                (self.running, signal.SIGKILL))
        timer.start()
        try:
            done = json.loads(self.proc.stdout.readline())
        finally:
            timer.cancel()
        self.running = None
        return (done["wall_s"], done["exit"], done["maxrss_kib"],
                out_path.read_text(errors="replace"))


def run_command(cmd, run_dir: RunDir, spawner, trace_file: Path = None) -> Record:
    for name in cmd.outputs:
        (run_dir.path / name).unlink(missing_ok=True)
    if trace_file is None:
        argv = [sys.executable, "-m", "lubintate2d.cli", *cmd.argv]
    else:
        argv = [sys.executable, str(BENCH / "trace_boot.py"), str(trace_file),
                *cmd.argv]
    wall, code, rss, stdout = spawner.run(argv, run_dir.path)
    files = {}
    for name in cmd.outputs:
        path = run_dir.path / name
        files[name] = path.read_text(errors="replace") if path.exists() else None
    problems = mismatches(run_dir.refs.get(cmd.key), code, stdout, files)
    if problems:
        err = (run_dir.path / ".stderr").read_text(errors="replace").strip()
        if err:
            problems.append("stderr: " + err.splitlines()[-1][:200])
    record = Record(cmd.key, wall, code, rss, len(stdout.encode()), problems,
                    traced=trace_file is not None)
    if trace_file is not None:
        try:
            record.trace = json.loads(trace_file.read_text())
        except (OSError, ValueError):
            record.problems.append("traced run wrote no spans")
        trace_file.unlink(missing_ok=True)
    return record


def write_supports(spawner, directory: Path, supports) -> dict:
    """Write the support files with make_supports.py; return {name: text}."""
    if not supports:
        return {}
    specs = sorted({f"{s.p}:{s.h1}:{s.h2}:{s.degree}" for s in supports})
    _, code, _, _ = spawner.run(
        [sys.executable, BENCH / "make_supports.py", directory, *specs], directory)
    if code != 0:
        raise RuntimeError("writing the support files failed")
    return {s.name: (directory / s.name).read_text() for s in supports}


def set_up(workload, seed: int, smoke: bool, spawner) -> RunDir:
    """Directory, support files and references; one warm-up child."""
    TMP_DIR.mkdir(exist_ok=True)
    run_dir = RunDir(Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)),
                     json.loads((REF_DIR / f"{workload.name}.json").read_text()))
    try:
        texts = write_supports(spawner, run_dir.path, workload.needed_supports(smoke))
        want = run_dir.refs.get("supports", {})
        rng = random.Random(seed)
        for name, text in texts.items():
            if text != want.get(name):
                run_dir.problems.append(f"support {name} differs from its reference")
            # the parser sorts the functionals, so line order changes no output
            head, *rows = text.splitlines(keepends=True)
            rng.shuffle(rows)
            (run_dir.path / name).write_text(head + "".join(rows))
        spawner.run([sys.executable, "-m", "lubintate2d.cli", *WARM_UP], run_dir.path)
        run_reference(spawner, run_dir.path)
    except BaseException:
        run_dir.close()
        raise
    return run_dir


def run_reference(spawner, cwd: Path) -> float:
    """Wall time of one run of reference.py."""
    wall, code, _, _ = spawner.run([sys.executable, REFERENCE], cwd)
    if code != 0:
        raise RuntimeError(f"reference.py exited with {code}")
    return wall


def measure(workload, seed, seconds, trace, smoke, run_dir, spawner) -> tuple:
    """Run seconds / workload.cycle_s cycles, rounded; a smoke run does one.

    The count depends on --seconds only, not on how fast the commands run,
    so every run of a workload, on any commit, times the same mix.  The
    reference runs before the first command and after each one; a
    command's ref_s is the mean of the two runs around it.  With trace,
    each command runs untraced and then traced, back to back, and the
    traced run gets no reference.
    """
    n_cycles = 1 if smoke else max(1, round(seconds / workload.cycle_s))
    cycles = workload.cycles(seed, smoke)
    records = []
    ref_before = run_reference(spawner, run_dir.path)
    start = time.perf_counter()
    for _ in range(n_cycles):
        for cmd in next(cycles):
            record = run_command(cmd, run_dir, spawner)
            ref_after = run_reference(spawner, run_dir.path)
            record.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            records.append(record)
            if trace:
                records.append(run_command(cmd, run_dir, spawner,
                                           run_dir.path / ".spans.json"))
    return records, time.perf_counter() - start, n_cycles


def tail(values) -> dict:
    """Highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported with the number of samples beyond it, zero.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return {"value": ordered[index], "percentile": round(100 * (index + 1) / n, 1),
            "samples_beyond": n - 1 - index, "samples": n}


def end_to_end(records, setup_times) -> dict:
    """The bounded metrics; command times in units of the reference."""
    rels = [r.rel for r in records]
    correct = sum(1 for r in records if not r.problems)
    return {
        "setup_s": statistics.median(setup_times),
        "cmds_per_ref": correct / sum(rels),
        "cmd_p50_ref": statistics.median(rels),
        "cmd_tail_ref": tail(rels)["value"],
        "peak_rss_mib": max(r.maxrss_kib for r in records) / 1024,
    }


def seconds_view(records, wall) -> dict:
    """The same figures in seconds, which drift with the host's speed."""
    walls = [r.wall_s for r in records]
    correct = sum(1 for r in records if not r.problems)
    return {
        "cmds_per_s": correct / wall,
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail(walls)["value"],
        "ref_p50_s": statistics.median(r.ref_s for r in records),
    }


def _span_totals(records):
    """Per span name: calls, inclusive and self seconds, summed over commands.

    A span nested in a span of the same name adds calls but no inclusive
    time, so recursion is not counted twice.
    """
    calls, inclusive, self_time = {}, {}, {}
    for r in records:
        spans = r.trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                inclusive[name] = inclusive.get(name, 0.0) + end - start
    return calls, inclusive, self_time


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(records, names) -> tuple:
    """Per-layer metrics as means per traced command, and the trace report."""
    traced = [r for r in records if r.traced and r.trace]
    untraced = [r for r in records if not r.traced]
    n = max(len(traced), 1)
    calls, inclusive, self_time = _span_totals(traced)
    counts = {}
    for r in traced:
        for key, value in r.trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    self_sum = sum(self_time.values())
    totals = {
        "cli.stdout_bytes": sum(r.stdout_bytes for r in traced),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": self_sum,
        "trace.spans": sum(len(r.trace["spans"]) for r in traced),
    }
    ratios = {
        "series.mul_keep_ratio": _ratio(counts.get("series.mul_pairs_kept", 0),
                                        counts.get("series.mul_pairs_tried", 0)),
        "copolygon.vertex_yield": _ratio(counts.get("copolygon.vertices_found", 0),
                                         counts.get("copolygon.triples", 0)),
        "copolygon.segment_yield": _ratio(counts.get("copolygon.segments_found", 0),
                                          counts.get("copolygon.pairs", 0)),
    }
    metrics = {}
    for name in names:
        if name in ratios:
            metrics[name] = ratios[name]
            continue
        if name in totals:
            total = totals[name]
        elif name.endswith("_s"):
            total = inclusive.get(name[:-2], 0.0)
        elif name.endswith("_calls") and name[:-6] in calls:
            total = calls[name[:-6]]
        else:
            total = counts.get(name, 0)
        metrics[name] = total / n
    report = {
        "traced_commands": len(traced),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "self_time_sum_s": self_sum,
        "self_time_within_wall": self_sum <= traced_wall,
        "self_time_s": dict(sorted(self_time.items(), key=lambda kv: -kv[1])),
    }
    return metrics, report


def provenance() -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=60).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                text=True, capture_output=True, timeout=60).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lubintate2d").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {"git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def _write_spans(records, workload, out):
    """One JSON line per span; spans of one command share a command id."""
    for number, r in enumerate(x for x in records if x.traced and x.trace):
        cmd_id = f"{workload}:{number}"
        for name, start, end, parent in r.trace["spans"]:
            out.write(json.dumps({"cmd": cmd_id, "key": r.key, "name": name,
                                  "start": start, "end": end,
                                  "parent": parent}) + "\n")


def run_workload(workload, args, spec, spans_out) -> dict:
    load_before = os.getloadavg()
    setup_times = []
    run_dir = None
    with Spawner() as spawner:
        try:
            for _ in range(1 if args.smoke else SETUP_REPEATS):
                if run_dir is not None:
                    run_dir.close()
                start = time.perf_counter()
                run_dir = set_up(workload, args.seed, args.smoke, spawner)
                setup_times.append(time.perf_counter() - start)
            records, wall, n_cycles = measure(workload, args.seed, args.seconds,
                                              args.trace, args.smoke, run_dir,
                                              spawner)
        finally:
            if run_dir is not None:
                run_dir.close()
    failures = [(r.key + (" [traced]" if r.traced else ""), p)
                for r in records for p in r.problems]
    failures += [("set-up", p) for p in run_dir.problems]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": args.cpu,
        "commands": len(records),
        "cycles": n_cycles,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems) + len(run_dir.problems),
        "setup_times_s": setup_times,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "failures": failures,
    }
    result["fail_ratio"] = result["failed"] / result["attempted"]
    if not args.trace:
        result["end_to_end"] = end_to_end(records, setup_times)
        result["cmd_tail"] = tail([r.rel for r in records])
        result["seconds"] = seconds_view(records, wall)
    else:
        names = [m["name"] for m in spec["per_layer"]]
        result["per_layer"], result["trace_report"] = per_layer(records, names)
        _write_spans(records, workload.name, spans_out)
        if not result["trace_report"]["self_time_within_wall"]:
            result["failures"].append(("trace", "self times exceed the traced wall time"))
            result["failed"] += 1
    result["records"] = [
        {"key": r.key, "traced": r.traced, "wall_s": r.wall_s, "ref_s": r.ref_s,
         "exit": r.exit_code, "maxrss_kib": r.maxrss_kib, "problems": r.problems}
        for r in records]
    return result


def _print_summary(result, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"commands {result['commands']} in {result['cycles']} cycles  "
          f"cpu {result['cpu']}  loadavg {result['loadavg_before'][0]:.2f} -> "
          f"{result['loadavg_after'][0]:.2f}")
    for name, value in result.get("end_to_end", {}).items():
        note = ""
        if name == "cmd_tail_ref":
            t = result["cmd_tail"]
            note = (f"  (p{t['percentile']}, {t['samples_beyond']} of "
                    f"{t['samples']} samples beyond)")
        print(f"  {name:<14} {value:.6g} {units[name]}{note}")
    for name, value in result.get("seconds", {}).items():
        unit = "1/s" if name == "cmds_per_s" else "s"
        print(f"  {name:<14} {value:.6g} {unit}  (seconds, unbounded)")
    print(f"  {'fail_ratio':<14} {result['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for key, problem in result["failures"]:
        print(f"  FAIL {key}: {problem}")
    if "per_layer" in result:
        rep = result["trace_report"]
        print(f"  trace: {rep['traced_commands']} commands, overhead "
              f"{rep['overhead_s']:.3f} s = traced {rep['traced_wall_s']:.3f} s "
              f"- untraced {rep['untraced_wall_s']:.3f} s; self times sum to "
              f"{rep['self_time_sum_s']:.3f} s")
        for name, value in result["per_layer"].items():
            print(f"  {name:<36} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle of a two-command grid, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "lubintate2d" / "cli.py").is_file():
        print(f"error: no lt2d sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = provenance()
    args.cpu = pin_to_one_cpu()
    print(f"lt2d benchmark  git {info['git_sha']} dirty={info['git_dirty']}  "
          f"src {info['src_sha256'][:12]}  python {info['python']}  "
          f"nproc {info['nproc']}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = []
    with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as spans_out:
        for name in names:
            result = run_workload(WORKLOADS[name], args, spec, spans_out)
            _print_summary(result, spec)
            results.append(result)
    if not args.trace:
        (OUT_DIR / f"{stem}-spans.jsonl").unlink()
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"provenance": info, "results": results}, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for m in spec[section]:
            metrics[prefix + m["name"]] = {"value": result[section][m["name"]],
                                           "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
