"""Tiny-size smoke run of the benchmark, and a check of its reference.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS, left_wins

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_and_nothing_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_share"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_matches_enumeration():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 6)
        pairs = tuple((rng.randint(0, 5), rng.randint(0, 5)) for _ in range(n))
        target = rng.randint(0, 5 * n)

        def value(i: int, acc: int) -> bool:
            if i == n:
                return acc == target
            results = [value(i + 1, acc + v) for v in pairs[i]]
            return any(results) if i % 2 == 0 else all(results)

        assert left_wins(pairs, target) == value(0, 0)
    # Right-indifferent instances are Left wins by construction.
    deep = WORKLOADS["deep"].pool(5)
    assert all(left_wins(i.pairs, i.target) for i in deep if i.shape == "indifferent")
