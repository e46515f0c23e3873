"""The benchmark's workloads: how each one builds its inputs, runs and reports.

Every workload runs in a fresh interpreter (see ``child.py``).  ``setup``
turns the workload seed into the inputs the library receives, ``run`` makes
the library calls, and returns a list of check items that are compared one by
one against the reference captured at the seed commit (``reference.json``).

Why these four (each stresses layers the others barely touch):

* ``decompose-n6``: the read side of ``classes`` (``reduce_to_ordinary``,
  ``expand_in_basis``), ``decomp`` coset walks and ``dot`` vector
  applications, and heavy ``perms`` construction.  No ``reach``, ``cells``
  or ``chromatic``.
* ``sw-n7``: ``chromatic`` and ``symfunc`` on top of ``dot`` matrix products
  and the ``perm_si_action`` cache fill.  No interpolation, no expansion.
* ``verify-all-n5``: the CLI end to end; mostly the write side of ``classes``
  (``interpolate_class``), with every other module doing a little.
* ``geometry-n6``: ``gkm``, ``reach`` and ``cells`` through the supports,
  minors, cell-chart and Poincare suites; ``supports`` runs on the CLI's
  thread pool, the code's only parallel path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable

# verify-all and geometry take their CLI seed from this many reference seeds,
# so every workload seed maps to an output captured at the seed commit.
SEED_POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    threads: int
    seeded: bool
    h: str
    k: str
    setup: Callable[[int, int], Any]
    run: Callable[[Any], list]

    def input_seed(self, seed: int) -> int | None:
        return seed % SEED_POOL if self.seeded else None

    def reference_key(self, seed: int) -> str:
        return str(self.input_seed(seed)) if self.seeded else "-"

    def meta(self, seed: int) -> dict:
        return {"n": self.n, "h": self.h, "k": self.k,
                "threads": self.threads, "input_seed": self.input_seed(seed)}


def _setup_decompose(n: int, seed: int):
    return n


def _run_decompose(n: int) -> list:
    from gkmhess.decomp import verify_decomposition

    items = []
    for k in range(n):
        report = verify_decomposition(n, k)
        items.append({
            "k": k,
            "passed": report.passed,
            "modules": [
                [str(m.w), list(m.module_type), m.dim_computed, m.stabilizer_exact]
                for m in report.modules
            ],
        })
    return items


def _setup_sw(n: int, seed: int):
    from gkmhess.gkm import HessenbergFunction

    return HessenbergFunction.permutohedral(n)


def _run_sw(h) -> list:
    from gkmhess.chromatic import verify_shareshian_wachs

    report = verify_shareshian_wachs(h)
    return [{"k": k, "agree": ok} for k, ok in enumerate(report.per_degree)]


def _setup_verify_all(n: int, seed: int):
    return ["verify", "all", "--n", str(n), "--seed", str(seed % SEED_POOL)]


def _run_verify_all(argv: list[str]) -> list:
    from gkmhess import cli

    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [{"exit": code, "stdout": raw.getvalue().decode("utf-8")}]


def _setup_geometry(n: int, seed: int):
    from gkmhess import cli

    # from_args reads GKM_HESS_THREADS, as the CLI does
    config = cli.RunConfig.from_args(
        argparse.Namespace(seed=seed % SEED_POOL, format="json")
    )
    return n, config


def _run_geometry(inputs) -> list:
    from gkmhess import cli

    n, config = inputs
    suites = (cli.verify_supports, cli.verify_minors,
              cli.verify_cell_charts, cli.verify_poincare)
    items = []
    for suite in suites:
        result = suite(n, config)
        items.append({"name": result["name"], "passed": result["passed"],
                      "instances": result.get("instances")})
    return items


def _family(n: int) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload(f"decompose-n{n}", n, 1, False, "permutohedral",
                     f"0..{n - 1}", _setup_decompose, _run_decompose),
            Workload(f"sw-n{n}", n, 1, False, "permutohedral",
                     "all", _setup_sw, _run_sw),
            Workload(f"verify-all-n{n}", n, 1, True, "all suites",
                     "all", _setup_verify_all, _run_verify_all),
            Workload(f"geometry-n{n}", n, 2, True, "random (seeded)",
                     "-", _setup_geometry, _run_geometry),
        )
    }


# The benchmark's workloads, and their n = 4 counterparts for the self-check.
WORKLOADS: dict[str, Workload] = {
    "decompose-n6": _family(6)["decompose-n6"],
    "sw-n7": _family(7)["sw-n7"],
    "verify-all-n5": _family(5)["verify-all-n5"],
    "geometry-n6": _family(6)["geometry-n6"],
    **_family(4),
}
