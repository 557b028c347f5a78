"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The traced-run tests start full workload runs and take several minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from shufflecalc import CumulantTable, Word, partitions  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("n", [1, 3, 5])
def test_reference_sums_match_the_package_oracles(n):
    """The benchmark's partition sums and the package's oracles are two
    independent implementations of the same formulas."""
    letters = ("a", "b")
    rng = random.Random(n)
    k1, k2 = (workloads.random_table(rng, letters, n) for _ in range(2))

    def table(t):
        return CumulantTable(letters, n, {Word(w): v for w, v in t.items()})

    for ours, theirs in [
        (workloads.free_moments(k1), partitions.free_moment_sum),
        (workloads.boolean_moments(k1), partitions.boolean_moment_sum),
        (workloads.monotone_moments(k1), partitions.monotone_moment_sum),
    ]:
        assert ours == {w: theirs(table(k1), Word(w)) for w in k1}
    assert workloads.cfree_moments(k1, k2) == {
        w: partitions.cfree_moment_sum(table(k1), table(k2), Word(w)) for w in k1
    }


def test_seeds_change_the_inputs():
    first, second = workloads.transform_ops(1), workloads.transform_ops(2)
    assert [op.argv for op in first] == [op.argv for op in second]
    assert all(a.inputs != b.inputs for a, b in zip(first, second))


@pytest.mark.parametrize("workload", ["transform-deep", "enumerate-details", "verify-suites"])
def test_traced_counts_repeat_and_another_seed_passes(workload):
    units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    first, second = (result(run(workload, 3, trace=1)) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == set(units)
    for name, unit in units.items():
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name
    other = result(run(workload, 4, trace=0))
    assert other["correct"] and other["failed"] == 0
    assert {m["name"] for m in CONFIG["end_to_end"]} == set(other["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("transform-deep", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
