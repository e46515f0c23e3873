"""Benchmark of the exact GKM engine, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Each pass of a workload runs in a fresh interpreter (``child.py``) on the
library in ``src/``, with a fixed environment: ``PYTHONHASHSEED=0``, the
workload's ``GKM_HESS_THREADS``, single-threaded BLAS and no user site.
Bytecode for ``src/`` and the benchmark is compiled before anything is
timed, so no run pays for compilation.  Every pass's outputs are compared
with ``reference.json``, captured at the seed commit.

Times are CPU times, not wall-clock times.  The machines this runs on are
slices of shared hosts: other processes on the same machine take turns on its
cores, and a pass's wall time then counts the time it waited for a core,
while its CPU time does not.  The host's speed also drifts by tens of percent
within minutes, so each time is normalised to a host of nominal speed: the child samples a fixed probe
kernel throughout the interval it times (see ``hostspeed.py``), the probes'
own time is left out, and the interval is multiplied by nominal over measured
probe time.  Raw CPU and wall times and the scale factors are printed in the
metadata line.

With ``--trace 0`` the run measures

* ``setup_s``: CPU time of interpreter start, ``import gkmhess``, input
  generation and reference loading, normalised; median of
  ``SETUP_SAMPLES`` set-up-only interpreters;
* ``cpu_s``: CPU time (all threads) from the first library call to a checked
  result, normalised; median over the passes that fit in ``--seconds`` (at
  least one);
* ``peak_rss_mb``: peak resident memory of a pass's process; median.

With ``--trace 1`` it makes one plain and one traced pass and reports the
per-layer metrics of ``tracer.py``, with ``trace.overhead_s`` the traced
minus the plain ``cpu_s``.

The last line of standard output is the result as JSON; the line before it
holds the run's metadata.  Failed checks, crashed passes and timeouts count
in ``failed``; ``failed / attempted`` is the failure fraction.  With
``--workload all`` the four workloads run in turn, untraced, and a table of
every end-to-end metric, the normalised wall time and the failure fraction
is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BENCHMARK_WORKLOADS = ("decompose-n6", "sw-n7", "verify-all-n5", "geometry-n6")
SETUP_SAMPLES = 6  # half before the passes, half after, so one slow spell of the host cannot take them all
CHILD_TIMEOUT_S = 170


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Bench:
    def __init__(self, root: Path, reference: Path = REFERENCE):
        self.root = root
        self.src = root / "src"
        self.reference = reference

    def env(self, workload) -> dict[str, str]:
        return {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(self.src),
            "PYTHONHASHSEED": "0",
            "GKM_HESS_THREADS": str(workload.threads),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def compile(self, workload) -> None:
        subprocess.run(
            [sys.executable, "-s", "-m", "compileall", "-q", str(self.src), str(HERE)],
            env=self.env(workload), cwd=self.root, stdout=subprocess.DEVNULL,
            check=True, timeout=CHILD_TIMEOUT_S,
        )

    def spawn(self, mode: str, workload, seed: int) -> dict | None:
        """One child interpreter; its report, with ``setup_s`` added, or None."""
        command = [sys.executable, "-s", str(HERE / "child.py"), mode,
                   workload.name, str(seed), str(self.reference)]
        proc = subprocess.Popen(command, env=self.env(workload), cwd=self.root,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"perfbench: {workload.name} {mode} pass timed out", file=sys.stderr)
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload.name} {mode} pass exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return None
        report = json.loads(lines[-1])
        report["setup_s"] = report["setup_raw_cpu_s"] * report["setup_scale"]
        if "raw_cpu_s" in report:
            report["cpu_s"] = report["raw_cpu_s"] * report["scale"]
            report["wall_s"] = report["raw_wall_s"] * report["scale"]
        return report

    def run(self, workload_name: str, seed: int, seconds: float, trace: bool):
        """Return (metrics, attempted, failed, meta) for one run."""
        workload = WORKLOADS[workload_name]
        with open(self.reference, encoding="utf-8") as handle:
            expected = len(json.load(handle)[workload.name][workload.reference_key(seed)])
        self.compile(workload)
        setups = [] if trace else [self._setup_sample(workload, seed)
                                   for _ in range(SETUP_SAMPLES // 2)]
        if trace:
            reports = [self.spawn(mode, workload, seed) for mode in ("run", "trace")]
        else:
            reports = []
            start = _monotonic()
            while True:
                began = _monotonic()
                reports.append(self.spawn("run", workload, seed))
                now = _monotonic()
                if now - start + (now - began) > seconds:
                    break
            setups += [self._setup_sample(workload, seed)
                       for _ in range(SETUP_SAMPLES - len(setups))]
        attempted = sum(r["attempted"] if r else expected for r in reports)
        failed = sum(r["failed"] if r else expected for r in reports)
        passes = [r for r in reports if r]
        if not passes or (trace and len(passes) < 2):
            raise RuntimeError(f"{workload.name}: no measurement completed")
        cpus = [p["cpu_s"] for p in passes]
        if trace:
            metrics = dict(passes[1]["layers"])
            metrics["trace.overhead_s"] = cpus[1] - cpus[0]
        else:
            metrics = {
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
        meta = {
            "workload": workload.name, "seed": seed, **workload.meta(seed),
            "trace": int(trace), "passes": len(passes),
            "cpu_s_samples": cpus, "setup_s_samples": setups,
            "wall_s_samples": [p["wall_s"] for p in passes],
            "raw_cpu_s_samples": [p["raw_cpu_s"] for p in passes],
            "raw_wall_s_samples": [p["raw_wall_s"] for p in passes],
            "scale_samples": [p["scale"] for p in passes],
            **self.provenance(),
        }
        return metrics, attempted, failed, meta

    def _setup_sample(self, workload, seed: int) -> float:
        report = self.spawn("setup", workload, seed)
        if report is None:
            raise RuntimeError(f"{workload.name}: set-up failed")
        return report["setup_s"]

    def provenance(self) -> dict:
        commit = None
        if (self.root / ".git").exists():
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                   capture_output=True, text=True)
            commit = probe.stdout.strip() or None
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(path.read_bytes())
        return {"commit": commit, "src_sha256": digest.hexdigest(),
                "python": platform.python_version(), "cpu_count": os.cpu_count()}


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=BENCHMARK_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gkmhess" / "__init__.py").is_file():
        print("perfbench: run from the root of a gkmhess checkout "
              "(src/gkmhess not found)", file=sys.stderr)
        return 2
    bench = Bench(root)
    if args.workload != "all":
        metrics, attempted, failed, meta = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"meta": meta}))
        print(result_line(metrics, attempted, failed))
        return 0

    summary = {}
    for name in BENCHMARK_WORKLOADS:
        metrics, attempted, failed, meta = bench.run(name, args.seed, args.seconds, False)
        metrics["wall_s"] = statistics.median(meta["wall_s_samples"])
        metrics["failed_frac"] = failed / attempted
        summary[name] = metrics
        print(f"{name}: cpu_s {metrics['cpu_s']:.3f} s, "
              f"wall_s {metrics['wall_s']:.3f} s, "
              f"setup_s {metrics['setup_s']:.3f} s, "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
              f"failed_frac {metrics['failed_frac']:.4f}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
