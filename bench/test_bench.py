"""Smoke test of the benchmark itself, at tiny sizes:

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke", *extra)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert set(wanted) <= printed


def _corrupt_packets(task):
    task.expected_count += 1


def _corrupt_descent(task):
    task.expected_fraction += 1


def _corrupt_cli(task):
    if task.sub == "branch":
        task.data = task.data[:-1] + (task.data[-1] - 1,)


@pytest.mark.parametrize("workload, corrupt", [
    ("packets", _corrupt_packets), ("descent", _corrupt_descent), ("cli", _corrupt_cli)])
def test_corrupted_oracle_input_fails_the_run(workload, corrupt, monkeypatch, capsys):
    generate, pool, traced = workloads.WORKLOADS[workload]

    def corrupted(rng, rounds, smoke):
        out = generate(rng, rounds, smoke)
        for task in out[0]:
            corrupt(task)
        return out

    monkeypatch.setitem(workloads.WORKLOADS, workload, (corrupted, pool, traced))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    captured = capsys.readouterr()
    assert code == 1
    assert "wrong result" in captured.err
    assert '"correct"' not in captured.out


def test_fails_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "packets", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_prints_a_row_per_metric(tmp_path):
    paths = [tmp_path / "before.jsonl", tmp_path / "after.jsonl"]
    for path in paths:
        assert _smoke("packets", 0, "--out", str(path)).returncode == 0
    record = json.loads(paths[1].read_text())
    record["env"]["python"] = "0.0"
    paths[1].write_text(json.dumps(record) + "\n")
    proc = _bench("--compare", *map(str, paths))
    assert proc.returncode == 0, proc.stderr
    assert "warning: the result sets come from different machines" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith("packets")]
    assert [row[1] for row in rows] == [m["name"] for m in SPEC["end_to_end"]]
