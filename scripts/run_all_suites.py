#!/usr/bin/env python3
"""Run every verification suite with its default grid and write reports.

Usage:
    python scripts/run_all_suites.py [--out DIR] [--seed N] [--jobs K]

Equivalent to invoking `twin <suite> --out DIR` for each suite. Exits 1
if any assertion-class case fails anywhere, and 2 on a configuration
error such as `--jobs 0`.
"""

import argparse
import sys
import time

from twins.harness import SUITE_NAMES, ConfigError, default_config, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="twin_reports", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--jobs", type=int, default=1, help="worker pool size")
    args = parser.parse_args()

    failures = 0
    for suite in SUITE_NAMES:
        config = default_config(suite)
        if args.seed is not None:
            config.seed = args.seed
        config.jobs = args.jobs
        config.out_dir = args.out
        started = time.monotonic()
        try:
            report = run_suite(config)
        except ConfigError as exc:
            print(f"configuration error - {exc}", file=sys.stderr)
            return 2
        elapsed = time.monotonic() - started
        print(report.summary_text())
        print(f"  elapsed: {elapsed:.1f}s")
        failures += len(report.failed)
    print(f"\nall suites done; reports in {args.out}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
