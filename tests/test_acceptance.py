"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric tolerance is pinned here. Seeds are fixed, so every run of
the suite checks the same cases; the statistical probe (criterion 9) is
deterministic under the fixed generator and master seed.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from itertools import permutations, product

from brute_oracles import plain_max
from twins.constructions import random_coloring
from twins.harness import (
    DEFAULT_SEED,
    SuiteConfig,
    default_config,
    run_suite,
)
from twins.oracle import (
    _coloring_step,
    enumerate_twins,
    max_string_twin,
    max_twin,
    max_weak_twin,
)
from twins.reductions import coloring_from_permutation, coloring_from_string
from twins.rng import Rng, derive_seed
from twins.sequences import LetterString, Permutation, validate_string_twin


def report(number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_general_builder_guarantee():
    config = SuiteConfig(
        "guarantees",
        [{"n": 40, "r": 2}, {"n": 50, "r": 2}, {"n": 30, "r": 3}],
        samples=500,
        seed=DEFAULT_SEED,
    )
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    general = [c for c in run.cases if c.params["builder"] == "general"]
    ok = (
        len(general) == 1500
        and all(c.passed for c in general)
        and run.ok
        and elapsed < 60
    )
    report(
        1,
        "general builder floor(n/(r^2+1))",
        ok,
        f"{sum(bool(c.passed) for c in general)}/1500 general cases pass, {elapsed:.1f}s",
    )


def test_criterion_02_binary_builder_guarantee():
    config = SuiteConfig("guarantees", [{"n": 60, "r": 2}], samples=500, seed=DEFAULT_SEED)
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    binary = [c for c in run.cases if c.params["builder"] == "binary"]
    sizes_ok = all(c.passed and c.value >= 15 for c in binary)
    ok = len(binary) == 500 and sizes_ok and elapsed < 60
    report(
        2,
        "binary builder floor(n/4) at n=60",
        ok,
        f"{sum(bool(c.passed) for c in binary)}/500 binary cases pass, {elapsed:.1f}s",
    )


def test_criterion_03_weak_reduction_equivalence_s6():
    start = time.monotonic()
    mismatches = 0
    for values in permutations(range(1, 7)):
        pi = Permutation(values)
        coloring_size = max_twin(coloring_from_permutation(pi))[0]
        weak_size = max_weak_twin(pi)[0]
        if coloring_size != weak_size:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60
    report(
        3,
        "weak reduction equality on all of S_6",
        ok,
        f"{720 - mismatches}/720 permutations agree, {elapsed:.1f}s",
    )


def test_criterion_04_string_reduction_binary_7():
    start = time.monotonic()
    bad = 0
    for letters in product((1, 2), repeat=7):
        x = LetterString(2, letters)
        c = coloring_from_string(x)
        coloring_size, _ = max_twin(c)
        string_size, _ = max_string_twin(x)
        if coloring_size > string_size + 1:
            bad += 1
            continue
        for first, second in enumerate_twins(c):
            if len(first) == coloring_size:
                if not validate_string_twin(x, first[:-1], second[:-1]).ok:
                    bad += 1
                    break
    elapsed = time.monotonic() - start
    ok = bad == 0
    report(
        4,
        "string reduction on all of [2]^7",
        ok,
        f"{128 - bad}/128 strings pass (bound and prefix checks), {elapsed:.1f}s",
    )


def test_criterion_05_exhaustive_tables():
    config = default_config("tables")
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    values = {
        (c.params["table"], c.params["n"], c.params["r"]): c.value
        for c in run.cases
        if c.params.get("table") != "compare"
    }
    expected_coloring = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2}
    expected_weak = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3}
    expected_string = {2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3, 11: 4, 12: 4}
    rows_ok = (
        all(values[("coloring", n, 2)] == v for n, v in expected_coloring.items())
        and all(values[("weak", n, "")] == v for n, v in expected_weak.items())
        and all(values[("string", n, 2)] == v for n, v in expected_string.items())
        and values[("coloring", 2, 3)] == 1
    )
    envelope_ok = all(
        max(1, n // 4) <= values[("coloring", n, 2)] <= n // 2 for n in range(2, 7)
    )
    weak_dominates = all(
        values[("coloring", n, 2)] <= values[("weak", n, "")] for n in range(2, 7)
    )
    ok = run.ok and rows_ok and envelope_ok and weak_dominates and elapsed < 600
    report(
        5,
        "exhaustive extremal tables",
        ok,
        f"{len(values)} rows exact, envelope and weak-dominance hold, {elapsed:.1f}s",
    )


def test_criterion_06_engine_equivalence():
    start = time.monotonic()
    mismatches = 0
    for index in range(1000):
        seed = derive_seed(DEFAULT_SEED, index)
        rng = Rng(seed)
        n = rng.randint(4, 10)
        r = 2 + index % 2
        c = random_coloring(n, r, rng.next_u64())
        if plain_max(n, _coloring_step(c)) != max_twin(c)[0]:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 300
    report(
        6,
        "plain vs compressed engine on 1000 colorings (n <= 10)",
        ok,
        f"{1000 - mismatches}/1000 agree, {elapsed:.1f}s",
    )


def test_criterion_07_composite_twin_bound():
    config = default_config("twinbound")
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    ok = run.ok and len(run.cases) == 50
    report(
        7,
        "composite coloring bound and decomposition parts (50 specs, r=4, m=4)",
        ok,
        f"{sum(bool(c.passed) for c in run.cases)}/50 specs pass, {elapsed:.1f}s",
    )


def test_criterion_08_block_structural_claims():
    config = default_config("blockclaims")
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    twins_checked = sum(c.value for c in run.cases if isinstance(c.value, int))
    ok = run.ok and len(run.cases) == 9 and elapsed < 600
    report(
        8,
        "block-coloring structural claims (all profiles, L <= 15)",
        ok,
        f"{twins_checked} twins enumerated across 9 profiles, 0 violations, {elapsed:.1f}s",
    )


def test_criterion_09_lcs_tail_probe():
    config = default_config("lcs-tail")
    start = time.monotonic()
    run = run_suite(config)
    elapsed = time.monotonic() - start
    exceedances = sum(1 for c in run.cases if c.value == "exceeded")
    # statistical criterion: a nonzero count would flag investigation; under
    # the fixed generator and master seed the observed count is 0
    ok = len(run.cases) == 200 and exceedances == 0
    report(
        9,
        "LCS tail probe (200 pairs, r=100, threshold 30)",
        ok,
        f"exceedances observed: {exceedances}, {elapsed:.1f}s",
    )


def test_criterion_10_invariance_suite():
    start = time.monotonic()
    bad = 0
    for index in range(100):
        seed = derive_seed(DEFAULT_SEED + 1, index)
        rng = Rng(seed)
        n = rng.randint(4, 10)
        r = 2 + index % 2
        c = random_coloring(n, r, rng.next_u64())
        base = max_twin(c)[0]
        sigma = rng.permutation(r)
        from twins.core import EdgeColoring, relabel_palette

        relabeled = relabel_palette(c, sigma)
        flipped = EdgeColoring.from_function(
            n, r, lambda i, j: c.color(n + 1 - i, n + 1 - j)
        )
        if max_twin(relabeled)[0] != base or max_twin(flipped)[0] != base:
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0
    report(
        10,
        "palette relabeling and index reversal invariance (100 colorings)",
        ok,
        f"{100 - bad}/100 colorings invariant, {elapsed:.1f}s",
    )
