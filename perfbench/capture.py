"""Write ``reference.json``: every workload's check items, for every reference seed.

    python3 perfbench/capture.py

Run from the root of a checkout of the seed commit: the references are the
outputs of that commit, and later commits are checked against them, so do
not re-capture on a changed library.  Each (workload, seed) runs in a fresh
interpreter with the benchmark's environment.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import REFERENCE, Bench
from workloads import SEED_POOL, WORKLOADS


def observe(name: str, seed: int) -> list:
    import gkmhess  # noqa: F401

    workload = WORKLOADS[name]
    return workload.run(workload.setup(workload.n, seed))


def main() -> None:
    bench = Bench(Path.cwd())
    jobs = [(name, seed) for name, workload in WORKLOADS.items()
            for seed in (range(SEED_POOL) if workload.seeded else (0,))]

    def capture(job):
        name, seed = job
        done = subprocess.run(
            [sys.executable, "-s", __file__, name, str(seed)],
            env=bench.env(WORKLOADS[name]), cwd=bench.root,
            capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(capture, jobs))
    reference: dict[str, dict] = {}
    for (name, seed), items in zip(jobs, results):
        reference.setdefault(name, {})[WORKLOADS[name].reference_key(seed)] = items
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(json.dumps(observe(sys.argv[1], int(sys.argv[2]))))
    else:
        main()
