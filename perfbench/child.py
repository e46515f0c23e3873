"""One pass of one workload, in a fresh interpreter started by ``run.py``.

    python3 child.py {setup|run|trace} <workload> <seed> <reference.json>

Imports the library, builds the workload's inputs from the seed and loads
its reference (the set-up), then, unless the mode is ``setup``, runs the
workload and compares every check item with the reference.  It prints one
JSON line with the set-up's CPU time, counted from the process's start, and
for a pass its CPU and wall time, peak resident memory and check counts.  In
``trace`` mode the library is wrapped by ``tracer.Tracer`` before the inputs
are built, and the line also carries the per-layer metrics.

Set-up and pass are each sampled by ``hostspeed.HostSpeed``: the line gives
their times with the probes taken out, and each interval's ``scale`` to a
host of nominal speed.
"""

import json
import resource
import sys

from hostspeed import HostSpeed


def main(mode: str, workload_name: str, seed: int, reference_path: str) -> None:
    speed = HostSpeed()
    speed.start()
    import gkmhess  # noqa: F401
    import gkmhess.cli  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(clock=speed.clock)
        tracer.install()
    inputs = workload.setup(workload.n, seed)
    with open(reference_path, encoding="utf-8") as handle:
        expected = json.load(handle)[workload.name][workload.reference_key(seed)]
    out = {"setup_raw_cpu_s": speed.cpu_clock()}
    speed.stop()
    out["setup_scale"] = speed.scale
    if mode != "setup":
        speed.start()
        start = speed.clock()
        start_cpu = speed.cpu_clock()
        observed = workload.run(inputs)
        failed = sum(1 for got, want in zip(observed, expected) if got != want)
        failed += abs(len(observed) - len(expected))
        out["raw_wall_s"] = speed.clock() - start
        out["raw_cpu_s"] = speed.cpu_clock() - start_cpu
        speed.stop()
        out["scale"] = speed.scale
        out["attempted"] = max(len(observed), len(expected))
        out["failed"] = failed
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
