"""Smoke runs of the benchmark: every workload at tiny sizes, through the
same code paths as a full run, on the default seed and a second seed.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["guarantees", "blockclaims", "tables", "search"]
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--seconds", "0.5", "--smoke", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_passes_every_check(workload, seed):
    code, result = bench(ROOT, "--workload", workload, "--seed", str(seed), "--trace", "0")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_between_runs():
    runs = [bench(ROOT, "--workload", "blockclaims", "--seed", "3", "--trace", "1") for _ in range(2)]
    counts = []
    for code, result in runs:
        assert code == 0 and result["correct"] is True
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert list(runs[0][1]["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert counts[0]["oracle.enumerate_twins.twins"] == 3 + 43 + 1569
    assert counts[0]["constructions.twin_block_graph.calls"] == 3 + 43 + 1569 + 3


def copy_checkout(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"), ignore=shutil.ignore_patterns("__pycache__", "out"))


def test_wrong_table_value_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    # Make every F_string row one too large, as a broken scan would.
    with open(tmp_path / "src" / "twins" / "__init__.py", "a") as fh:
        fh.write(
            "\nfrom dataclasses import replace as _replace\n"
            "from . import harness as _harness\n"
            "_exact = _harness.exact_F_string\n"
            "def _off_by_one(*args, **kwargs):\n"
            "    result = _exact(*args, **kwargs)\n"
            "    return _replace(result, value=result.value + 1)\n"
            "_harness.exact_F_string = _off_by_one\n"
        )
    code, result = bench(str(tmp_path), "--workload", "tables", "--seed", "1", "--trace", "0")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    code, result = bench(str(tmp_path), "--workload", "search", "--seed", "1", "--trace", "0")
    assert code != 0 and result is None
