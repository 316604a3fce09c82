#!/usr/bin/env python3
"""Compare two commits on the benchmark by alternating pairs of runs.

Usage:
    python scripts/bench_pairs.py --parent REV --change REV --label LABEL
        --workload NAME:PAIRS [--workload NAME:PAIRS ...]
        [--seed N] [--work-dir DIR]

Each side is exported with `git archive` into its own directory under
--work-dir (a new temporary directory by default), so `--change` equal
to `--parent` gives a parent-against-itself set: two checkouts of one
commit, which shows how far pairs drift with no change at all. For
every workload, PAIRS pairs of `perfbench/run.py --trace 0` runs are
made one after the other, the parent first in odd pairs and the change
first in even ones, so both sides see the same host conditions. Each
run lasts the `run_seconds` of BENCHMARK.json, and its end-to-end
metrics are read from the last line of the run's output and printed
per pair, parent first.

Writes BENCH_<LABEL>.json in the repository root, after each workload:
per workload and metric the parent's and the change's quartiles, every
pair's values as [parent, change], and how many pairs the change reads
better in. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METHOD = (
    "alternating pairs of runs, each side from its own `git archive` checkout, "
    "the side that runs first alternating between pairs; "
    "quartiles by statistics.quantiles(method='inclusive'); change_wins counts "
    "pairs where the change reads better, ties for neither"
)


def rev_parse(rev: str) -> str:
    out = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(commit: str, dest: str) -> str:
    """Extract the tree of `commit` into `dest` (once) and return it."""
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = dest + ".tar"
        with open(archive, "wb") as fh:
            subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=fh, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        os.remove(archive)
    return dest


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The end-to-end metric values of one benchmark run, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {checkout}: run failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def compare(pairs: list[tuple[dict, dict]], spec: list[dict]) -> dict:
    metrics = {}
    for metric in spec:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        metrics[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": [[p, c] for p, c in zip(parent, change)],
        }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit measured as the baseline")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work-dir", help="where the two checkouts go")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    parent, change = rev_parse(args.parent), rev_parse(args.change)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="bench_pairs_")
    sides = {
        side: export(commit, os.path.join(work_dir, f"{side}-{commit[:12]}"))
        for side, commit in (("parent", parent), ("change", change))
    }

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    bench = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload NAME --seed SEED --seconds {seconds:g} --trace 0",
        "method": METHOD,
        "parent_commit": parent,
        "change_commit": change,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for item in args.workload:
        workload, _, count = item.partition(":")
        pairs, failed = [], 0
        for k in range(int(count or 1)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: run_once(sides[side], workload, args.seed, seconds) for side in order}
            failed += sum(r is None for r in runs.values())
            if None not in runs.values():
                pairs.append((runs["parent"], runs["change"]))
                print(f"{workload} pair {k + 1}: " + ", ".join(
                    f"{m['name']} {runs['parent'][m['name']]:.4g} -> {runs['change'][m['name']]:.4g}"
                    for m in spec), flush=True)
        if not pairs:
            print(f"{workload}: no pair completed", file=sys.stderr)
            return 1
        bench["workloads"][workload] = [
            {"seed": args.seed, "pairs": len(pairs), "failed_runs": failed, "metrics": compare(pairs, spec)}
        ]
        with open(path, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
