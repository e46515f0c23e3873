#!/usr/bin/env python3
"""Run the full verification battery across a range of sizes with timings.

Mirrors `gkmhess verify all` but reports one line per suite with its
process CPU time, the measure the benchmark reports, which is handy when
profiling larger n.  Suites whose desk-scale guarantees stop below the
requested n are still run at the requested size.  ``--min-n`` and
``--max-n`` must be at least 1, ``--min-n`` no larger than ``--max-n``.
"""

import argparse
import sys
import time

from gkmhess.cli import SUITES, RunConfig, _positive_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=_positive_int, default=3)
    parser.add_argument("--max-n", type=_positive_int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suites", nargs="*", choices=list(SUITES), default=list(SUITES))
    args = parser.parse_args()
    if args.min_n > args.max_n:
        parser.error(f"--min-n {args.min_n} is above --max-n {args.max_n}")

    config = RunConfig(seed=args.seed)
    all_passed = True
    for n in range(args.min_n, args.max_n + 1):
        print(f"== n = {n}")
        for name in args.suites:
            started = time.process_time()
            result = SUITES[name](n, config)
            elapsed = time.process_time() - started
            status = "ok" if result["passed"] else "FAILED"
            print(f"  {name:<14} {status:>6}  {elapsed:7.2f}s")
            if not result["passed"]:
                all_passed = False
                print(f"    first failures: {result.get('failures')}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
