#!/usr/bin/env python3
"""Run the full verification battery across a range of sizes with timings.

Mirrors `gkmhess verify all` but reports one line per suite with its
process CPU time, the measure the benchmark reports, which is handy when
profiling larger n.  Suites whose desk-scale guarantees stop below the
requested n are still run at the requested size.  At n = 6 with seed 3, on
a 2-core VM with CPython 3.11 (two runs), dot-rules, supports and classes
take the longest, 2.2 to 2.8 s each, followed by Poincare at 1.2 s and
minors at 0.5 s; every other suite takes under 0.3 s.
"""

import argparse
import sys
import time

from gkmhess.cli import SUITES, RunConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suites", nargs="*", choices=list(SUITES), default=list(SUITES))
    args = parser.parse_args()

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
