"""Command-line front end with deterministic machine-readable output.

Subcommands cover the individual computations (graphs, supports, charts,
classes, expansions, the dot action, action matrices, decompositions,
chromatic functions) and a ``verify`` battery mirroring the test suite.
All randomness flows from a single ``--seed``; identical invocations give
byte-identical JSON.  Exit status: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cells import (
    EigenvalueVector,
    build_cell_chart,
    fixed_point_oracle,
    minor_reachability_certificate,
    prime_eigenvalues,
)
from .chromatic import chromatic_qsym, verify_closed_expansion, verify_shareshian_wachs
from .classes import EquivariantClass, expand_in_basis, gkm_check, permutohedral_class
from .decomp import verify_decomposition, verify_wz_completeness
from .dot import (
    action_matrix,
    dashed_rule_check,
    dot,
    flow_up_basis,
    flow_up_class,
    full_flag_si_rule_check,
    generator_matrix,
    perm_si_action,
)
from .gkm import EdgeKind, GkmGraph, HessenbergFunction, edge_kind, l_h, poincare_coefficients
from .perms import Composition, Permutation, SymmetricGroup
from .polys import MultiPoly, parse_poly
from .reach import support_A

SCHEMA = 1


@dataclass
class RunConfig:
    seed: int = 0
    output: str = "json"
    oracle_seeds: int = 3
    h_filter: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(
            seed=args.seed,
            output=args.format,
            oracle_seeds=getattr(args, "seeds", 3),
            h_filter=getattr(args, "h", None),
        )

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _parse_h(text: str, n: int | None, source: str | None = None) -> HessenbergFunction:
    """``--h`` as a Hessenberg function, of length ``n`` when ``n`` is given.

    ``source`` says where ``n`` came from in the mismatch message; by
    default it is ``--n``.
    """
    if text in ("permutohedral", "fullflag") and n is None:
        raise ValueError(f"--h {text} needs --n")
    if text == "permutohedral":
        return HessenbergFunction.permutohedral(n)
    if text == "fullflag":
        return HessenbergFunction.full_flag(n)
    h = HessenbergFunction.from_string(text)
    if n is not None and h.n != n:
        raise ValueError(f"{source or f'--n is {n}'} but --h has length {h.n}")
    return h


def _parse_h_for(w: Permutation, text: str, n: int | None,
                 flag: str = "--w") -> HessenbergFunction:
    """``--h`` for the permutation given as ``flag``; their lengths, and
    ``--n`` when given, must agree."""
    source = f"{flag} has length {len(w)}"
    h = _parse_h(text, len(w), source) if n is None else _parse_h(text, n)
    if h.n != len(w):
        raise ValueError(f"{source} but --h has length {h.n}")
    return h


def _emit(payload: dict, config: RunConfig) -> None:
    payload = {"schema": SCHEMA, **payload}
    if config.output == "table":
        for key, value in payload.items():
            print(f"{key}: {value}")
    else:
        json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ":"))
        print()


def _class_payload(cls) -> dict:
    return {str(v): str(p) for v, p in sorted(cls.values.items())}


# -- subcommand handlers -------------------------------------------------------


def cmd_gkm_graph(args, config: RunConfig) -> int:
    h = _parse_h(args.h, args.n)
    graph = GkmGraph(h)
    edges = [
        {"src": str(v), "dst": str(w), "label": f"t{a}-t{b}"}
        for v, w, a, b in graph.edges()
    ]
    edges.sort(key=lambda e: (e["src"], e["dst"]))
    _emit(
        {
            "n": h.n,
            "h": list(h),
            "vertices": [str(w) for w in graph.vertices()],
            "edges": edges,
        },
        config,
    )
    return 0


def cmd_support(args, config: RunConfig) -> int:
    w = Permutation.from_one_line(args.w)
    h = _parse_h_for(w, args.h, args.n)
    members = support_A(w, h).sorted()
    _emit(
        {"n": h.n, "h": list(h), "w": str(w), "support": [str(u) for u in members]},
        config,
    )
    return 0


def cmd_cell_chart(args, config: RunConfig) -> int:
    w = Permutation.from_one_line(args.w)
    h = _parse_h_for(w, args.h, None)
    try:
        c = (
            EigenvalueVector(tuple(Fraction(v) for v in args.eigenvalues.split(",")))
            if args.eigenvalues
            else prime_eigenvalues(h.n)
        )
    except ZeroDivisionError:
        raise ValueError(f"--eigenvalues {args.eigenvalues}: a zero denominator") from None
    chart = build_cell_chart(w, h, c)
    entries = {
        f"{i},{j}": str(chart.entry(i, j))
        for i in range(1, h.n + 1)
        for j in range(1, i)
    }
    _emit(
        {
            "n": h.n,
            "h": list(h),
            "w": str(w),
            "eigenvalues": [str(v) for v in c.values],
            "free_variables": [f"{i},{j}" for i, j in chart.free_pairs],
            "entries": entries,
        },
        config,
    )
    return 0


def cmd_class(args, config: RunConfig) -> int:
    w = Permutation.from_one_line(args.w)
    h = _parse_h_for(w, "permutohedral" if args.permutohedral else args.h, args.n)
    result = flow_up_class(w, h)
    _emit(
        {
            "n": h.n,
            "h": list(h),
            "w": str(w),
            "degree": l_h(w, h),
            "unique": result.unique,
            "values": _class_payload(result.cls),
        },
        config,
    )
    return 0


def cmd_expand(args, config: RunConfig) -> int:
    with open(args.input) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"the class file {args.input} does not hold a JSON object")
    for field in ("n", "values"):
        if field not in data:
            raise ValueError(f"the class file {args.input} has no {field!r} field")
    n, texts = data["n"], data["values"]
    if type(n) is not int or n < 1:
        raise ValueError(f"the class file's 'n' must be an integer >= 1, not {n!r}")
    if not isinstance(texts, dict):
        raise ValueError(f"the class file's 'values' must be an object, not a {type(texts).__name__}")
    if args.n is not None and args.n != n:
        raise ValueError(f"the class has n = {n} but --n is {args.n}")
    h = _parse_h(args.h, n, f"the class has n = {n}")
    values = {}
    for key, text in texts.items():
        if not isinstance(text, str):
            raise ValueError(f"the class file's 'values' entry {key!r} must be a string, not {text!r}")
        v = Permutation.from_one_line(key)
        if len(v) != n:
            raise ValueError(
                f"the class has n = {n} but the value key {key!r} has length {len(v)}"
            )
        values[v] = parse_poly(text, n)
    cls = EquivariantClass(n, values)
    ok, violation = gkm_check(cls, h)
    if not ok:
        _emit({"error": "input violates the edge divisibility condition",
               "edge": [str(violation.v), str(violation.w)]}, config)
        return 1
    expansion = expand_in_basis(cls, flow_up_basis(h), h)
    _emit(
        {
            "n": n,
            "h": list(h),
            "coefficients": {str(v): str(c) for v, c in sorted(expansion.items())},
        },
        config,
    )
    return 0


def cmd_dot(args, config: RunConfig) -> int:
    w = Permutation.from_one_line(args.w)
    n = len(w)
    if not 1 <= args.gen < n:
        raise ValueError(f"--gen {args.gen} outside [1,{n - 1}]")
    h = _parse_h_for(w, "permutohedral" if args.permutohedral else args.h, args.n)
    if args.permutohedral:
        expansion = perm_si_action(w, args.gen)
        _emit(
            {
                "n": n,
                "h": list(h),
                "w": str(w),
                "generator": args.gen,
                "expansion": {str(v): str(c) for v, c in sorted(expansion.items())},
            },
            config,
        )
        return 0
    moved = dot(Permutation.simple(args.gen, n), flow_up_class(w, h).cls)
    _emit(
        {
            "n": n,
            "h": list(h),
            "w": str(w),
            "generator": args.gen,
            "values": _class_payload(moved),
        },
        config,
    )
    return 0


def cmd_action_matrix(args, config: RunConfig) -> int:
    u = Permutation.from_one_line(args.perm)
    n = len(u)
    h = _parse_h_for(u, args.h, args.n, "--perm")
    top = len(h.pairs)
    if not 0 <= args.k <= top:
        raise ValueError(f"degree {args.k} outside [0,{top}]")
    matrix = action_matrix(u, args.k, h)
    order = matrix.basis_order
    dense = [
        [str(matrix.entry(row, col)) for col in order]
        for row in order
    ]
    _emit(
        {
            "n": n,
            "h": list(h),
            "k": args.k,
            "perm": str(u),
            "basis": [str(w) for w in order],
            "matrix": dense,
        },
        config,
    )
    return 0


def cmd_decompose(args, config: RunConfig) -> int:
    h = HessenbergFunction.permutohedral(args.n)
    matrices = {i: generator_matrix(i, args.k, h) for i in range(1, args.n)}
    report = verify_decomposition(args.n, args.k, matrices)
    payload = {
        "n": args.n,
        "k": args.k,
        "passed": report.passed,
        "direct_sum": report.direct_sum,
        "eulerian": report.eulerian,
        "total_dim": report.total_dim,
        "modules": [
            {
                "generator": str(m.w),
                "composition": list(m.a),
                "erased": list(m.a_hat),
                "module_type": list(m.module_type),
                "dim": m.dim_computed,
                "dim_expected": m.dim_expected,
                "stabilizer_exact": m.stabilizer_exact,
            }
            for m in report.modules
        ],
    }
    if args.emit_basis:
        from .decomp import coset_orbit_vectors, sigma_hat_vector

        payload["basis_vectors"] = [
            {str(b): str(c) for b, c in sorted(v.items())}
            for m in report.modules
            for v in coset_orbit_vectors(m.w, sigma_hat_vector(m.w, matrices), matrices)
        ]
    _emit(payload, config)
    return 0 if report.passed else 1


def cmd_chromatic(args, config: RunConfig) -> int:
    h = _parse_h(args.h, args.n)
    graded = chromatic_qsym(h)
    table = [
        {
            f"{args.basis}[{','.join(map(str, lam))}]": str(coeff)
            for lam, coeff in sorted(part.to_basis(args.basis).coeffs.items())
        }
        for part in graded
    ]
    _emit({"n": h.n, "h": list(h), "basis": args.basis, "by_degree": table}, config)
    return 0


# -- verification suites --------------------------------------------------------


def _result(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": passed, **details}


def verify_supports(n: int, config: RunConfig) -> dict:
    if n <= 4:
        instances = [
            (h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)
        ]
    else:
        rng = config.rng()
        perms = list(Permutation.all(n))
        instances = [
            (HessenbergFunction.random(n, rng), rng.choice(perms))
            for _ in range(200)
        ]
    failures = []
    for index, (h, w) in enumerate(instances):
        rng = random.Random(config.seed + index)
        if support_A(w, h).members != fixed_point_oracle(w, h, rng, seeds=config.oracle_seeds):
            failures.append({"w": str(w), "h": str(h)})
    return _result(
        "supports", not failures, instances=len(instances), failures=failures[:5]
    )


def verify_minors(n: int, config: RunConfig) -> dict:
    import itertools as it

    rng = config.rng()
    failures = []
    resamples = 0
    count = 0
    if n <= 4:
        cases = (
            (w, h, rows, cols)
            for h in HessenbergFunction.all(n)
            for w in Permutation.all(n)
            for size in range(1, n + 1)
            for rows in it.combinations(range(1, n + 1), size)
            for cols in it.combinations(range(1, n + 1), size)
        )
    else:
        perms = list(Permutation.all(n))

        def sample():
            for _ in range(500):
                size = rng.randint(1, n)
                yield (
                    rng.choice(perms),
                    HessenbergFunction.random(n, rng),
                    tuple(sorted(rng.sample(range(1, n + 1), size))),
                    tuple(sorted(rng.sample(range(1, n + 1), size))),
                )

        cases = sample()
    for w, h, rows, cols in cases:
        count += 1
        cert = minor_reachability_certificate(w, h, rows, cols, rng)
        resamples += cert.eigenvalue_resamples
        if not cert.agree:
            failures.append({"w": str(w), "h": str(h), "A": rows, "B": cols})
    return _result(
        "minors", not failures, instances=count,
        eigenvalue_resamples=resamples, failures=failures[:5],
    )


def verify_cell_charts(n: int, config: RunConfig) -> dict:
    from .cells import minimal_path_coefficient, minimal_paths, path_monomial_exponents

    failures = []
    count = 0
    c = prime_eigenvalues(n)
    if n <= 5:
        pairs = (
            (h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)
        )
    else:
        rng = config.rng()
        perms = list(Permutation.all(n))
        pairs = (
            (HessenbergFunction.random(n, rng), rng.choice(perms))
            for _ in range(500)
        )
    for h, w in pairs:
        count += 1
        chart = build_cell_chart(w, h, c)
        bad = chart.consistency_violations()
        if bad:
            failures.append({"w": str(w), "h": str(h), "pairs": bad[:3]})
            continue
        g = chart.digraph
        for j in range(1, n + 1):
            for i in range(j + 1, n + 1):
                for path in minimal_paths(g, j, i):
                    mono = path_monomial_exponents(chart, path)
                    coeff = chart.entry(i, j).terms.get(mono, 0)
                    expected = minimal_path_coefficient(path, w, c)
                    if Fraction(coeff) != expected:
                        failures.append(
                            {"w": str(w), "h": str(h), "path": path}
                        )
    return _result("cell-charts", not failures, instances=count, failures=failures[:5])


def verify_classes(n: int, config: RunConfig) -> dict:
    from .classes import smooth_point_value, top_value
    from .reach import support_A as support_fn

    h = HessenbergFunction.permutohedral(n)
    failures = []
    for w in Permutation.all(n):
        cls = permutohedral_class(w)
        ok, violation = gkm_check(cls, h)
        if not ok:
            failures.append({"w": str(w), "kind": "gkm"})
            continue
        if cls.support() != support_fn(w, h).members:
            failures.append({"w": str(w), "kind": "support"})
            continue
        if cls.value(w) != top_value(w, h):
            failures.append({"w": str(w), "kind": "top-value"})
            continue
        support = cls.support()
        for v in support:
            if cls.value(v) != smooth_point_value(w, v, h, support):
                failures.append({"w": str(w), "v": str(v), "kind": "smooth-point"})
                break
    return _result("classes", not failures, instances=math.factorial(n), failures=failures[:5])


def verify_poincare(n: int, config: RunConfig) -> dict:
    failures = []
    drops = SymmetricGroup(n).length_drops.values()
    for h in HessenbergFunction.all(n):
        mask = GkmGraph(h).pair_mask
        counts = poincare_coefficients(h)
        outdeg: dict[int, int] = {}
        for drop in drops:
            d = (drop & mask).bit_count()
            outdeg[d] = outdeg.get(d, 0) + 1
        expected = {k: v for k, v in enumerate(counts) if v}
        if outdeg != expected:
            failures.append({"h": str(h)})
    return _result("poincare", not failures, instances=None, failures=failures[:5])


def verify_dot_rules(n: int, config: RunConfig) -> dict:
    from .dot import build_auxiliary_class

    failures = []
    tii = lambda i: MultiPoly.linear_form(i + 1, i, n)
    for w in Permutation.all(n):
        w_inv = w.inverse()
        for i in range(1, n):
            if w_inv(i + 1) + 1 != w_inv(i):
                continue
            aux = build_auxiliary_class(w, i)
            si = Permutation.simple(i, n)
            lhs = permutohedral_class(si * w).scale(tii(i))
            rhs = dot(si, aux) - aux
            if lhs != rhs:
                failures.append({"w": str(w), "i": i, "kind": "master-identity"})
    for h4 in HessenbergFunction.all(min(n, 4)):
        n4 = h4.n
        for w in Permutation.all(n4):
            for i in range(1, n4):
                if edge_kind(w, i, h4) is EdgeKind.DASHED and not dashed_rule_check(w, i, h4):
                    failures.append({"w": str(w), "i": i, "h": str(h4), "kind": "dashed"})
    n_flag = min(n, 4)
    for w in Permutation.all(n_flag):
        for i in range(1, n_flag):
            if not full_flag_si_rule_check(w, i):
                failures.append({"w": str(w), "i": i, "kind": "full-flag"})
    # every class is read as its flow-up representative, so nothing is skipped;
    # the field stays because schema 1 has it, and so do the verify golden and
    # the benchmark's byte-checked reference output
    return _result("dot-rules", not failures, skipped=0, failures=failures[:5])


def verify_coxeter(n: int, config: RunConfig) -> dict:
    from .dot import ActionMatrix, degree_basis

    h = HessenbergFunction.permutohedral(n)
    failures = []
    for k in range(n):
        mats = {i: generator_matrix(i, k, h) for i in range(1, n)}
        identity = ActionMatrix.identity(degree_basis(h, k))
        for i in range(1, n):
            if mats[i].compose(mats[i]) != identity:
                failures.append({"k": k, "relation": f"s{i}^2"})
        for i in range(1, n - 1):
            lhs = mats[i].compose(mats[i + 1]).compose(mats[i])
            rhs = mats[i + 1].compose(mats[i]).compose(mats[i + 1])
            if lhs != rhs:
                failures.append({"k": k, "relation": f"braid {i},{i + 1}"})
        for i in range(1, n):
            for j in range(i + 2, n):
                if mats[i].compose(mats[j]) != mats[j].compose(mats[i]):
                    failures.append({"k": k, "relation": f"commute {i},{j}"})
    return _result("coxeter", not failures, failures=failures[:5])


def verify_decomposition_suite(n: int, config: RunConfig) -> dict:
    failures = []
    for k in range(n):
        report = verify_decomposition(n, k)
        if not report.passed:
            failures.append({"k": k})
    return _result("decomposition", not failures, failures=failures)


def verify_genfunc(n: int, config: RunConfig) -> dict:
    report = verify_closed_expansion(n)
    return _result("genfunc", report.agree, total_dimension=report.total_dimension)


def verify_sw(n: int, config: RunConfig) -> dict:
    if config.h_filter:
        functions = [_parse_h(config.h_filter, n)]
    else:
        functions = [
            HessenbergFunction.permutohedral(n),
            HessenbergFunction.full_flag(n),
        ]
    reports = [verify_shareshian_wachs(h) for h in functions]
    failures = [
        {"h": str(r.h), "flag": r.convention_flag} for r in reports if not r.agree
    ]
    return _result("sw", not failures, failures=failures)


def verify_wz(n: int, config: RunConfig) -> dict:
    failures = []
    for a in Composition.all(n):
        if not verify_wz_completeness(a):
            failures.append({"composition": list(a)})
    return _result("wz", not failures, failures=failures[:5])


SUITES = {
    "supports": verify_supports,
    "minors": verify_minors,
    "cell-charts": verify_cell_charts,
    "classes": verify_classes,
    "poincare": verify_poincare,
    "dot-rules": verify_dot_rules,
    "coxeter": verify_coxeter,
    "decomposition": verify_decomposition_suite,
    "genfunc": verify_genfunc,
    "sw": verify_sw,
    "wz": verify_wz,
}


def cmd_verify(args, config: RunConfig) -> int:
    if args.h is not None:
        if args.suite not in ("sw", "all"):
            raise ValueError(f"--h applies to the sw suite only, not to {args.suite}")
        _parse_h(args.h, args.n)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.append(SUITES[name](args.n, config))
    passed = all(c["passed"] for c in checks)
    _emit(
        {"suite": args.suite, "n": args.n, "seed": config.seed,
         "passed": passed, "checks": checks},
        config,
    )
    return 0 if passed else 1


# -- argument parsing -------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_h_or_permutohedral(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--h")
    group.add_argument("--permutohedral", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "table"), default="json")
    parser = argparse.ArgumentParser(
        prog="gkmhess",
        description="Exact GKM computations for regular semisimple Hessenberg varieties",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gkm-graph", parents=[common], help="moment graph with edge labels")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--h", required=True)
    p.set_defaults(handler=cmd_gkm_graph)

    p = sub.add_parser("support", parents=[common], help="fixed points of a closed minus cell")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--h", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(handler=cmd_support)

    p = sub.add_parser("cell-chart", parents=[common], help="symbolic chart of a minus cell")
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--eigenvalues")
    p.set_defaults(handler=cmd_cell_chart)

    p = sub.add_parser("class", parents=[common], help="basis class as fixed-point values")
    p.add_argument("--w", required=True)
    p.add_argument("--n", type=_positive_int)
    _add_h_or_permutohedral(p)
    p.set_defaults(handler=cmd_class)

    p = sub.add_parser("expand", parents=[common], help="expand a class JSON over the basis")
    p.add_argument("--input", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--n", type=_positive_int)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("dot", parents=[common], help="simple-reflection action on a basis class")
    p.add_argument("--w", required=True)
    p.add_argument("--gen", type=int, required=True)
    p.add_argument("--n", type=_positive_int)
    _add_h_or_permutohedral(p)
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("action-matrix", parents=[common], help="matrix of a group element on one degree")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--h", default="permutohedral")
    p.set_defaults(handler=cmd_action_matrix)

    p = sub.add_parser("decompose", parents=[common], help="permutation-module decomposition of one degree")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-basis", action="store_true")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("chromatic", parents=[common], help="graded chromatic symmetric function")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--h", required=True)
    p.add_argument("--basis", choices=("m", "e", "h", "p", "s"), default="m")
    p.set_defaults(handler=cmd_chromatic)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seeds", type=_positive_int, default=3,
                   help="independent oracle samples per instance")
    p.add_argument("--h", help="run the sw suite on this one function, any h, "
                   "instead of the permutohedral and the full flag")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = RunConfig.from_args(args)
    try:
        return args.handler(args, config)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except RuntimeError as exc:
        # computation-level failures, such as an input outside the span of
        # the basis or an interpolation that meets a parameter relation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        # a missing key inside the computation is a bug, not a usage error
        print(f"error: internal KeyError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
