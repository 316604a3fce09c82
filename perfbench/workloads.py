"""The four workloads: inputs from a seed, one timed pass, and its checks.

Every workload is closed loop: one caller, one pass at a time, each pass
in a fresh process, `jobs=1`. A pass returns a digest of everything it
produced, so repeated passes of one seed must agree byte for byte.

* `guarantees` — the default guarantees suite (3,500 cases). Most of its
  time is seeded input generation; no exact search runs.
* `blockclaims` — the default blockclaims suite (406,561 enumerated
  twins, each checked against the block-graph claims). No RNG.
* `tables` — the default tables grid plus `F_weak(9)` and
  `F_string(13,2)`: the exhaustive scans, and the report, witness and
  CSV writing around them. Seed-independent.
* `search` — 100 seeded random 2-colorings of K_16, each maximized with the
  compressed engine and its witness validated: full maximization only.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil

import twins
from twins import harness

# README "Exact values" table, and rows the README table leaves out.
_README_F = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2}
_README_F_WEAK = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3}
_README_F_STRING = {2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 4, 12: 4}
EXPECTED_TABLES = {
    **{("coloring", n, 2): v for n, v in _README_F.items()},
    ("coloring", 2, 3): 1,  # one edge: every coloring has a twin of size 1
    ("coloring", 4, 1): 2,  # one color: the max twin is floor(n/2)
    ("coloring", 5, 1): 2,
    **{("weak", n, ""): v for n, v in _README_F_WEAK.items()},
    ("weak", 9, ""): 3,
    **{("string", n, 2): v for n, v in _README_F_STRING.items()},
    ("string", 13, 2): 5,
}
TABLES_EXTRA_ROWS = [
    {"kind": "weak", "n": 9},
    {"kind": "string", "n": 13, "r": 2},
]

SEARCH_N = 16
SEARCH_COLORINGS = 100

SMOKE_GUARANTEES_GRID = [{"n": 12, "r": 2}, {"n": 10, "r": 3}]
SMOKE_BLOCKCLAIMS_GRID = [{"r": 2, "x": [1]}, {"r": 2, "x": [1, 1]}, {"r": 2, "x": [2]}]
SMOKE_TABLES_GRID = (
    [{"kind": "coloring", "n": n, "r": 2} for n in range(2, 5)]
    + [{"kind": "weak", "n": n} for n in range(2, 6)]
    + [{"kind": "string", "n": n, "r": 2} for n in range(2, 9)]
)
SMOKE_SEARCH_N = 10
SMOKE_SEARCH_COLORINGS = 5

class Checks:
    """Correctness checks of one run: how many were made and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def digest_tree(root: str) -> str:
    """sha256 over every file under `root`, by relative path and content."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def table_instances(kind: str, n: int, r) -> int:
    """Size of the space an `exact_F*` row minimizes over."""
    if kind == "coloring":
        return int(r) ** (n * (n - 1) // 2) if n >= 2 else 1
    if kind == "weak":
        return math.factorial(n)
    return int(r) ** n


class SuiteWorkload:
    """One default suite through `run_suite`, writing its report each pass."""

    def __init__(self, config: harness.SuiteConfig, report_dir: str, item_marks: list[str], tick_marks=None):
        config.out_dir = report_dir
        config.jobs = 1
        self.config = config
        self.report_dir = report_dir
        # One item call returns per case, so item marks delimit case latencies;
        # tick marks split long cases into short intervals (see spans.Marks).
        self.item_marks = item_marks
        self.tick_marks = tick_marks or {}

    def prepare(self) -> None:
        shutil.rmtree(self.report_dir, ignore_errors=True)

    def run_pass(self, marks):
        return harness.run_suite(self.config)

    def check(self, report: harness.RunReport, checks: Checks) -> tuple[str, int]:
        """Check one pass; return its digest and the items it completed."""
        agg = report.aggregate()
        checks.check(report.ok, f"{report.suite}: report not ok")
        checks.check(agg["resource_errors"] == 0, f"{report.suite}: {agg['resource_errors']} resource records")
        for case in report.cases:
            checks.check(
                case.kind == "assert" and case.passed is True,
                f"{case.case_id} {case.kind} passed={case.passed} {case.detail}",
            )
        return digest_tree(self.report_dir), self.check_values(report, checks)


class Guarantees(SuiteWorkload):
    def __init__(self, seed: int, smoke: bool, work_dir: str):
        config = harness.default_config("guarantees", seed)
        if smoke:
            config.grid, config.samples = SMOKE_GUARANTEES_GRID, 3
        self.expected_cases = 9 if smoke else 3500
        super().__init__(config, os.path.join(work_dir, "guarantees"), ["twins.harness.validate_twin"])

    def check_values(self, report, checks: Checks) -> int:
        passed = report.aggregate()["passed"]
        checks.check(passed == self.expected_cases, f"guarantees: {passed} passed, expected {self.expected_cases}")
        return len(report.cases)


class BlockClaims(SuiteWorkload):
    def __init__(self, seed: int, smoke: bool, work_dir: str):
        config = harness.default_config("blockclaims", seed)
        if smoke:
            config.grid = SMOKE_BLOCKCLAIMS_GRID
        self.expected_twins = 3 + 43 + 1569 if smoke else 406_561
        super().__init__(
            config,
            os.path.join(work_dir, "blockclaims"),
            ["twins.harness.check_block_claims"],
            {"twins.harness.twin_block_graph": 1000},
        )

    def check_values(self, report, checks: Checks) -> int:
        twin_count = sum(c.value for c in report.cases if c.kind == "assert")
        checks.check(
            twin_count == self.expected_twins,
            f"blockclaims: {twin_count} twins, expected {self.expected_twins}",
        )
        return twin_count


class Tables(SuiteWorkload):
    def __init__(self, seed: int, smoke: bool, work_dir: str):
        config = harness.default_config("tables", seed)
        config.grid = SMOKE_TABLES_GRID if smoke else config.grid + TABLES_EXTRA_ROWS
        marks = ["twins.harness.exact_F", "twins.harness.exact_F_weak", "twins.harness.exact_F_string"]
        super().__init__(config, os.path.join(work_dir, "tables"), marks, {"twins.oracle.max_string_twin": 256})

    def check_values(self, report, checks: Checks) -> int:
        rows = [c for c in report.cases if c.params["table"] != "compare"]
        checks.check(len(rows) == len(self.config.grid), f"tables: {len(rows)} rows for {len(self.config.grid)}")
        instances = 0
        for case in rows:
            key = (case.params["table"], case.params["n"], case.params["r"])
            expected = EXPECTED_TABLES.get(key)
            checks.check(case.value == expected, f"tables {key}: value {case.value}, expected {expected}")
            instances += table_instances(*key)
        return instances


class Search:
    """Seeded random 2-colorings, each maximized and its witness validated."""

    item_marks: list[str] = []
    tick_marks: dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.n = SMOKE_SEARCH_N if smoke else SEARCH_N
        count = SMOKE_SEARCH_COLORINGS if smoke else SEARCH_COLORINGS
        self.colorings = [
            twins.random_coloring(self.n, 2, twins.derive_seed(seed, i)) for i in range(count)
        ]

    def prepare(self) -> None:
        pass

    def run_pass(self, marks):
        results = []
        for coloring in self.colorings:
            size, twin = twins.max_twin(coloring)
            verdict = twins.validate_twin(coloring, twin)
            marks.end_item()
            results.append((size, twin, bool(verdict)))
        return results

    def check(self, results, checks: Checks) -> tuple[str, int]:
        lo, hi = self.n // 4, self.n // 2
        for i, (size, twin, valid) in enumerate(results):
            checks.check(
                valid and twin.size == size and lo <= size <= hi,
                f"search coloring {i}: size {size}, witness size {twin.size}, valid {valid}",
            )
        text = repr([(size, twin.first, twin.second) for size, twin, _ in results])
        return hashlib.sha256(text.encode()).hexdigest(), len(results)


_CLASSES = {"guarantees": Guarantees, "blockclaims": BlockClaims, "tables": Tables, "search": Search}
WORKLOADS = tuple(_CLASSES)


def make(name: str, seed: int, smoke: bool, work_dir: str):
    return _CLASSES[name](seed, smoke, work_dir)
