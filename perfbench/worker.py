"""One pass of one workload, in a fresh process.

Run by `run.py` with `twins` importable:

    worker.py --workload NAME --seed N --pass untraced|traced|setup --work-dir DIR [--smoke]

Prints `ready` once set-up is done (the parent times process start to
that line as set-up). Unless the pass is `setup`, it then runs one timed
pass, checks its output, and prints one JSON line: the pass time, the
intervals between marks and which of them end items, a digest of the
output, the checks made and failed, peak memory, and, for a traced pass,
its per-layer metrics. A traced pass also writes its spans to
`DIR/<workload>-<pid>.spans`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
import workloads
from spans import Marks, Tracer, installed


def timed_pass(workload, name: str, traced: bool, work_dir: str) -> dict:
    checks = workloads.Checks()
    marks = Marks({target.partition(".")[2]: every for target, every in workload.tick_marks.items()})
    if traced:
        tracer = Tracer()
        counts = layers.LayerCounts()
        hooks = counts.hooks()
        targets = layers.TRACED

        def wrap(span, fn):
            return tracer.wrap(span, fn, hooks.get(span))

    else:
        targets, wrap = workload.item_marks + list(workload.tick_marks), marks.wrap
    workload.prepare()
    with installed(targets, wrap):
        started = time.perf_counter()
        output = workload.run_pass(marks)
        wall = time.perf_counter() - started
    digest, items = workload.check(output, checks)
    result = {
        "wall_s": wall,
        "items": items,
        "interval_s": [b - a for a, b in zip([started] + marks.times, marks.times)],
        "item_ends": marks.item_ends,
        "digest": digest,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["layers"] = layers.pass_metrics(tracer.summarize(), counts.finish())
        tracer.write(os.path.join(work_dir, f"{name}-{os.getpid()}.spans"))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="kind", required=True, choices=("untraced", "traced", "setup"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, args.smoke, args.work_dir)
    print("ready", flush=True)
    if args.kind != "setup":
        result = timed_pass(workload, args.workload, args.kind == "traced", args.work_dir)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
