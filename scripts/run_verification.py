#!/usr/bin/env python3
"""Run the full verification battery across a range of sizes with timings.

Mirrors `gkmhess verify all` but reports one timed line per suite, which is
handy when profiling larger n.  Suites whose desk-scale guarantees stop
below the requested n are still run at the requested size.  At n = 6 with
seed 3, dot-rules and supports take the longest, 1.6 to 3 s wall each on a
2-core VM, followed by classes at 1.5 to 2 s and Poincare at about 1 s
(three runs); the decomposition suite, which works on ordinary vectors
only, is among the quick ones.
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
    parser.add_argument("--suites", nargs="*", default=list(SUITES))
    args = parser.parse_args()

    config = RunConfig(seed=args.seed)
    all_passed = True
    for n in range(args.min_n, args.max_n + 1):
        print(f"== n = {n}")
        for name in args.suites:
            started = time.time()
            result = SUITES[name](n, config)
            elapsed = time.time() - started
            status = "ok" if result["passed"] else "FAILED"
            print(f"  {name:<14} {status:>6}  {elapsed:7.2f}s")
            if not result["passed"]:
                all_passed = False
                print(f"    first failures: {result.get('failures')}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
