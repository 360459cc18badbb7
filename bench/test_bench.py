"""Tests of the benchmark itself; they take a few seconds.

Run with: python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import mismatches
from run import Record, end_to_end, tail
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _refs(name):
    return json.loads((BENCH / "refs" / f"{name}.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_and_no_failure(workload):
    lines = _run(workload, trace=0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    summary = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert f"{name}" in summary and f" {unit}" in summary
    assert "fail_ratio     0 (0 of 2)" in summary


def test_traced_smoke_prints_every_layer_metric():
    lines = _run("copolygon", trace=1)
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 4
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["series.mul_calls"]["value"] == 0
    assert metrics["copolygon.vertices_calls"]["value"] > 0
    assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]


def test_changed_coefficient_line_is_rejected():
    refs = _refs("group")
    key = next(k for k, v in refs.items() if k.startswith("group") and v["stdout"])
    ref = refs[key]
    lines = ref["stdout"].splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if " : " in ln)
    left, right = lines[i].split(" : ")
    val, unit = right.split()
    lines[i] = f"{left} : {val} {int(unit) + 2}\n"
    assert mismatches(ref, 0, ref["stdout"], {}) == []
    problems = mismatches(ref, 0, "".join(lines), {})
    assert problems and problems[0].startswith(f"stdout line {i + 1}:")


def test_added_json_key_is_accepted_and_changed_value_rejected():
    ref = _refs("small")["verify --fixture mult45"]
    payload = json.loads(ref["stdout"])
    payload["checked_mod_p"] = 64
    assert mismatches(ref, 1, json.dumps(payload) + "\n", {}) == []
    payload["congruences_ok"] = not payload["congruences_ok"]
    assert mismatches(ref, 1, json.dumps(payload) + "\n", {}) != []
    assert mismatches(ref, 0, ref["stdout"], {}) != []


def test_references_cover_every_grid_command():
    for name, workload in WORKLOADS.items():
        refs = _refs(name)
        assert all(cmd.key in refs for cmd in workload.grid()), name
        assert all(refs[cmd.key]["exit"] == (1 if "mult45" in cmd.key else 0)
                   for cmd in workload.grid()), name


def test_cycles_depend_on_the_seed_only():
    cycles = [WORKLOADS["mult"].cycles(seed) for seed in (1, 1, 2)]
    first = [[c.key for c in next(g)] for g in cycles]
    assert first[0] == first[1] != first[2]
    assert sorted(len(c) for c in first) == [len(WORKLOADS["mult"].cells)] * 3


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(100))) == {"value": 89, "percentile": 90.0,
                                      "samples_beyond": 10, "samples": 100}
    assert tail([3, 1, 2])["value"] == 3


def test_command_times_are_reported_in_reference_units():
    records = [Record(f"c{i}", wall_s=0.3 * (i + 1), exit_code=0, maxrss_kib=2048,
                      stdout_bytes=0, problems=[], ref_s=0.1 * (i + 1))
               for i in range(3)]
    metrics = end_to_end(records, [0.5, 0.2, 0.4])
    assert metrics["cmd_p50_ref"] == pytest.approx(3.0)
    assert metrics["cmd_tail_ref"] == pytest.approx(3.0)
    assert metrics["cmds_per_ref"] == pytest.approx(1 / 3)
    assert metrics["setup_s"] == 0.4 and metrics["peak_rss_mib"] == 2.0
