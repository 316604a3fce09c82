#!/usr/bin/env python3
"""Benchmark of the `twins` library: one workload per run, checked end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; it measures `src/twins` of this checkout.
Each pass of the workload runs in a fresh worker process, one at a time.
Passes repeat while the next one should end within `--seconds`, with at
least three untraced passes (`--trace 0`), or untraced and traced passes
in turn, at least two of each (`--trace 1`). Every pass must produce
byte-identical output.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`.
The lines before it give the host, every metric with its unit, `fail_frac`
and any failed check; the same record goes to `perfbench/out/`. The exit
code is nonzero when a check fails or the workload cannot run.

Times are given at a reference speed of the host (see REFERENCE_LOOP_S),
and taken so that interference from other processes on a shared machine,
which only ever slows a pass, drops out. Marks at the end of
each item, and every so many calls inside long items, cut every pass
into the same short intervals. Each interval counts at its fastest over
the passes; an item's time is the sum of its intervals, and `wall_s` is
the sum of all intervals plus the fastest remainder of a pass. `setup_s`
is the median over every worker process started (at least eleven), each
timed from its start to the end of its set-up: `import twins` and
building the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

ITEM_UNITS = {
    "guarantees": "cases",
    "blockclaims": "twins",
    "tables": "enumerated instances",
    "search": "colorings",
}
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MIN_UNTRACED = 3
MIN_TRACED = 2  # and as many untraced passes, in turn
SETUP_SAMPLES = 11
DEADLINE_S = 170


# The host is shared and its speed drifts by half or more over minutes, so
# times are reported at a reference speed: each pass's times are scaled by
# REFERENCE_LOOP_S over the time of a fixed loop, which does not touch
# `twins`, measured just before and just after the pass. REFERENCE_LOOP_S
# is that loop's fastest time on the 2-core host the benchmark was set up
# on; on that host at its fastest, the scale is 1.
REFERENCE_LOOP_S = 0.00075
LOOP_SECONDS = 0.3


class BenchError(RuntimeError):
    pass


def loop_time() -> float:
    """Median time of a fixed integer loop, repeated for LOOP_SECONDS."""
    times = []
    end = time.perf_counter() + LOOP_SECONDS
    while time.perf_counter() < end:
        started = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += (i * 2654435761) & 0xFFFF
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def at_reference_speed(result: dict, loop_before: float, loop_after: float) -> dict:
    """The pass's times scaled to the reference speed; `raw_wall_s` keeps the measured time."""
    scale = REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)
    scaled = dict(result, scale=scale, raw_wall_s=result["wall_s"], wall_s=result["wall_s"] * scale)
    scaled["interval_s"] = [t * scale for t in result["interval_s"]]
    if "layers" in result:
        scaled["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in result["layers"].items()}
    return scaled


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


class Runner:
    """Starts worker processes one at a time and collects what they report."""

    def __init__(self, args, work_dir: str):
        self.args = args
        self.work_dir = work_dir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.setups: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, self.env.get("PYTHONPATH")) if p)

    def run(self, kind: str) -> dict | None:
        cmd = [
            sys.executable, WORKER,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--pass", kind,
            "--work-dir", self.work_dir,
        ] + (["--smoke"] if self.args.smoke else [])
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        # Kill the worker at the run's deadline, even while waiting for `ready`.
        timer = threading.Timer(max(1.0, self.deadline - started), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            self.setups.append(time.perf_counter() - started)
            out, _ = proc.communicate()
        finally:
            timer.cancel()
            if proc.poll() is None:  # interrupted: stop the worker before leaving
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(
                f"{kind} worker exited with code {proc.returncode} (killed if the run passed {DEADLINE_S} s)"
            )
        return json.loads(out) if kind != "setup" else None


def fastest_pass(passes: list[dict]) -> tuple[float, list[float]]:
    """(pass time, item times) with each interval at its fastest over the passes."""
    intervals = [min(times) for times in zip(*(p["interval_s"] for p in passes))]
    rest = min(p["wall_s"] - sum(p["interval_s"]) for p in passes)
    ends = passes[0]["item_ends"]
    items = [sum(intervals[a:b]) for a, b in zip([0] + ends, ends)]
    return sum(intervals) + rest, items


def measure(args, runner: Runner) -> tuple[dict, int, list[str]]:
    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []

    loops = [loop_time()]

    def run_pass(kind: str, into: list[dict]) -> None:
        result = runner.run(kind)
        loops.append(loop_time())
        into.append(at_reference_speed(result, loops[-2], loops[-1]))

    def room_for(*passes: dict) -> bool:
        expected = sum(p["raw_wall_s"] + 2 * LOOP_SECONDS for p in passes)
        return time.perf_counter() - started + expected <= args.seconds

    run_pass("untraced", untraced)
    if args.trace:
        # In turn, so that both kinds see the same host conditions.
        run_pass("traced", traced)
        while len(traced) < MIN_TRACED or room_for(untraced[-1], traced[-1]):
            run_pass("untraced", untraced)
            run_pass("traced", traced)
    else:
        while len(untraced) < MIN_UNTRACED or room_for(untraced[-1]):
            run_pass("untraced", untraced)
    while len(runner.setups) < SETUP_SAMPLES:
        runner.run("setup")

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    def check(ok: bool, message: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    for k, p in enumerate(passes[1:], 2):
        check(p["digest"] == passes[0]["digest"], f"pass {k} output differs from pass 1")
    shapes = {(p["items"], len(p["interval_s"]), tuple(p["item_ends"])) for p in untraced}
    check(len(shapes) == 1, "passes did different work")
    check(len(untraced[0]["item_ends"]) >= 2, "fewer than two items were timed")

    wall, items = fastest_pass(untraced)
    stats = {
        "passes": [p["raw_wall_s"] for p in untraced],
        "traced_passes": [p["raw_wall_s"] for p in traced],
        "scales": [p["scale"] for p in untraced + traced],
        "item_samples": len(items),
        "setup_samples": len(runner.setups),
        "wall_s": wall,
        "items_per_s": untraced[0]["items"] / wall,
        "setup_s": statistics.median(runner.setups) * REFERENCE_LOOP_S / statistics.median(loops),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p90_ms": statistics.quantiles(items, n=10)[8] * 1e3,
    }
    if traced:
        layer = {}
        for metric in traced[0]["layers"]:
            values = [p["layers"][metric] for p in traced]
            if metric.endswith("_s"):
                layer[metric] = min(values)
            else:
                check(len(set(values)) == 1, f"{metric} differs between traced passes: {values}")
                layer[metric] = values[0]
        layer["trace.overhead_s"] = min(p["wall_s"] for p in traced) - min(p["wall_s"] for p in untraced)
        stats["layers"] = layer
    return stats, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(ITEM_UNITS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs through the same code paths")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that a running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "twins", "__init__.py")):
        print(f"perfbench: no twins package under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    host = host_info()
    # One work directory per workload, emptied first, so span files of old
    # runs do not pile up.
    work_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        stats, attempted, failures = measure(args, Runner(args, work_dir))
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    values = stats.pop("layers") if args.trace else stats
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        **{k: stats[k] for k in ("passes", "traced_passes", "scales", "item_samples", "setup_samples")},
        "item_unit": ITEM_UNITS[args.workload],
        "fail_frac": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print("host " + json.dumps(host))
    print(
        f"{args.workload}: {len(stats['passes'])} untraced and {len(stats['traced_passes'])} traced passes, "
        f"{stats['item_samples']} items timed, {stats['setup_samples']} set-up samples; "
        f"items_per_s counts {ITEM_UNITS[args.workload]}"
    )
    print(
        "  measured pass times " + " ".join(f"{t:.3f}" for t in stats["passes"] + stats["traced_passes"])
        + " s; scaled to the reference speed by " + " ".join(f"{k:.3f}" for k in stats["scales"])
    )
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"  {name} = {value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}")
    print(f"  fail_frac = {record['fail_frac']:.6g} share ({len(failures)} of {attempted} checks failed)")
    for message in failures[:20]:
        print(f"  FAILED {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
