"""Self-check of the benchmark harness on the n = 4 workloads.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For each n = 4 workload, a plain and two
traced runs must pass their checks and emit exactly the metrics that
``BENCHMARK.json`` names, and the two traced runs must agree on every count;
then a run against a deliberately wrong reference must count the mismatch as
a failure.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, Bench, unit_of

WORKLOADS = ("decompose-n4", "sw-n4", "verify-all-n4", "geometry-n4")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: sorted(m["name"] for m in spec["end_to_end"]),
             1: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    bench = Bench(root)
    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            metrics, attempted, failed, _meta = bench.run(workload, 0, 0, bool(trace))
            if sorted(metrics) != names[trace]:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(metrics) ^ set(names[trace]))} differ")
            if failed or not attempted:
                problems.append(f"{workload} trace={trace}: {failed}/{attempted} failed")
            if trace:
                traced.append({k: v for k, v in metrics.items() if unit_of(k) == "count"})
        if traced[0] != traced[1]:
            problems.append(f"{workload}: counts differ between two traced runs")

    wrong = json.loads(REFERENCE.read_text(encoding="utf-8"))
    wrong["decompose-n4"]["-"][1]["passed"] = False
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        path = Path(scratch) / "wrong-reference.json"
        path.write_text(json.dumps(wrong), encoding="utf-8")
        _metrics, attempted, failed, _meta = Bench(root, path).run(
            "decompose-n4", 0, 0, False)
    if failed != 1:
        problems.append(f"wrong reference: expected 1 failure, counted {failed}/{attempted}")

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: ok" if not problems else "selfcheck: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
