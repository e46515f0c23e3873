#!/usr/bin/env python3
"""Print the permutation-module decomposition of every cohomology degree.

For each degree the table lists the generator permutation, its descent
composition, the erased composition, the module type, and the dimension;
the last line gives the total dimension over all degrees.  The script exits
1 if a degree fails its check or the total is not n!, and 2 if ``--n`` is
below 1.
"""

import argparse
import math
import sys

from gkmhess.cli import _positive_int
from gkmhess.decomp import verify_decomposition


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_positive_int, default=5)
    args = parser.parse_args(argv)

    total = 0
    all_passed = True
    for k in range(args.n):
        result = verify_decomposition(args.n, k)
        total += result.total_dim
        all_passed = all_passed and result.passed
        status = "ok" if result.passed else "FAILED"
        print(f"degree 2*{k}: dim {result.total_dim} ({status})")
        for module in result.modules:
            print(
                f"  {module.w}  a={module.a}  erased={module.a_hat}"
                f"  type M{module.module_type}  dim {module.dim_computed}"
            )
    expected = math.factorial(args.n)
    print(f"total dimension: {total}")
    if total != expected:
        print(f"FAILED: the total is not {args.n}! = {expected}")
    return 0 if all_passed and total == expected else 1


if __name__ == "__main__":
    sys.exit(main())
