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
import itertools
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
    minimal_path_coefficient,
    minimal_paths,
    minor_reachability_certificate,
    path_monomial_exponents,
    prime_eigenvalues,
)
from .chromatic import chromatic_qsym, verify_shareshian_wachs
from .classes import (EquivariantClass, RootProduct, expand_in_basis, gkm_check,
                      permutohedral_root_products, sum_vanishes, top_value)
from .decomp import verify_closed_expansion, verify_decomposition, verify_wz_completeness
from .dot import (
    ActionMatrix,
    FlowUpBasis,
    action_matrix,
    auxiliary_terms,
    dashed_rule_check,
    degree_basis,
    dot,
    flow_up_class,
    full_flag_si_rule_check,
    generator_matrix,
    perm_si_action,
)
from .gkm import (EdgeKind, GkmGraph, HessenbergFunction, edge_kind, l_h, mask_of_pairs,
                  poincare_coefficients)
from .perms import Composition, Permutation
from .polys import parse_poly
from .reach import build_cell_digraph, support_A

SCHEMA = 1


@dataclass
class RunConfig:
    seed: int = 0
    output: str = "json"
    h_filter: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(
            seed=args.seed,
            output=args.format,
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
    try:
        h = HessenbergFunction.from_string(text)
    except ValueError as exc:
        raise ValueError(f"--h {text}: {exc}") from None
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
    w = args.w
    h = _parse_h_for(w, args.h, args.n)
    members = sorted(support_A(w, h))
    _emit(
        {"n": h.n, "h": list(h), "w": str(w), "support": [str(u) for u in members]},
        config,
    )
    return 0


def cmd_cell_chart(args, config: RunConfig) -> int:
    w = args.w
    h = _parse_h_for(w, args.h, None)
    texts = args.eigenvalues.split(",") if args.eigenvalues else []
    try:
        values = tuple(Fraction(text) for text in texts)
    except ZeroDivisionError:
        raise ValueError(f"--eigenvalues {args.eigenvalues}: a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"--eigenvalues {args.eigenvalues}: {exc}") from None
    if values and len(values) != h.n:
        raise ValueError(f"--eigenvalues {args.eigenvalues}: {len(values)} values for n = {h.n}")
    for text, value in zip(texts, values):
        if values.count(value) > 1:
            raise ValueError(f"--eigenvalues {args.eigenvalues}: the value {text} repeats")
    c = EigenvalueVector(values) if values else prime_eigenvalues(h.n)
    chart = build_cell_chart(w, h, c)
    entries = {
        f"{i},{j}": chart.entry(i, j).format(chart.var_names)
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
    w = args.w
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
    expansion = expand_in_basis(cls, FlowUpBasis(h))
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
    w = args.w
    n = len(w)
    if n == 1:
        raise ValueError(f"--gen {args.gen}: n = 1 has no generator s_i")
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
    u = args.perm
    n = len(u)
    h = _parse_h_for(u, args.h, args.n, "--perm")
    top = len(h.pairs)
    if not 0 <= args.k <= top:
        raise ValueError(f"degree {args.k} outside [0,{top}]")
    matrix = action_matrix(u, args.k, h)
    dense = [
        [str(column.get(row, 0)) for column in matrix.columns]
        for row in range(len(matrix.columns))
    ]
    _emit(
        {
            "n": n,
            "h": list(h),
            "k": args.k,
            "perm": str(u),
            "basis": [str(w) for w in matrix.basis_order],
            "matrix": dense,
        },
        config,
    )
    return 0


def cmd_decompose(args, config: RunConfig) -> int:
    report = verify_decomposition(args.n, args.k)
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
        # the ranked rows, keyed by position in the lexicographic degree basis
        basis = degree_basis(HessenbergFunction.permutohedral(args.n), args.k)
        payload["basis_vectors"] = [
            {str(basis[col]): str(c) for col, c in sorted(row.items())}
            for m in report.modules
            for row in m.rows
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


def _cell_instances(n: int, config: RunConfig, exhaustive_to: int,
                    samples: int) -> list[tuple[HessenbergFunction, Permutation]]:
    """Every (h, w) when n <= exhaustive_to, otherwise ``samples`` pairs
    drawn from the run's seed, h first and then w."""
    if n <= exhaustive_to:
        return [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    rng = config.rng()
    perms = list(Permutation.all(n))
    return [(HessenbergFunction.random(n, rng), rng.choice(perms)) for _ in range(samples)]


def verify_supports(n: int, config: RunConfig) -> dict:
    instances = _cell_instances(n, config, 4, 200)
    failures = []
    for h, w in instances:
        if support_A(w, h) != fixed_point_oracle(w, h):
            failures.append({"w": str(w), "h": str(h)})
    return _result(
        "supports", not failures, instances=len(instances), failures=failures[:5]
    )


def verify_minors(n: int, config: RunConfig) -> dict:
    rng = config.rng()
    failures = []
    resamples = 0
    count = 0
    if n <= 4:
        # every (rows, cols) of one (h, w) shares its chart
        cases = (
            (chart, rows, cols)
            for h in HessenbergFunction.all(n)
            for w in Permutation.all(n)
            for chart in [build_cell_chart(w, h)]
            for size in range(1, n + 1)
            for rows in itertools.combinations(range(1, n + 1), size)
            for cols in itertools.combinations(range(1, n + 1), size)
        )
    else:
        perms = list(Permutation.all(n))

        def sample():
            # draws size, w, h, rows and cols, in that order
            for _ in range(500):
                size = rng.randint(1, n)
                yield (
                    build_cell_chart(rng.choice(perms), HessenbergFunction.random(n, rng)),
                    tuple(sorted(rng.sample(range(1, n + 1), size))),
                    tuple(sorted(rng.sample(range(1, n + 1), size))),
                )

        cases = sample()
    for chart, rows, cols in cases:
        count += 1
        cert = minor_reachability_certificate(chart, rows, cols, rng)
        resamples += cert.eigenvalue_resamples
        if not cert.agree:
            failures.append({"w": str(cert.w), "h": str(cert.h), "A": rows, "B": cols})
    return _result(
        "minors", not failures, instances=count,
        eigenvalue_resamples=resamples, failures=failures[:5],
    )


def verify_cell_charts(n: int, config: RunConfig) -> dict:
    """Each chart's forced-zero equations vanish and its minimal-path
    coefficients match the closed form."""
    instances = _cell_instances(n, config, 5, 500)
    failures = _cell_chart_failures(instances, prime_eigenvalues(n))
    return _result("cell-charts", not failures, instances=len(instances), failures=failures[:5])


def _cell_chart_failures(instances, c: EigenvalueVector) -> list[dict]:
    """Every failure of the (h, w) in ``instances``, in their order.  A chart
    is a function of w and the cell digraph G_{w,h}, so the instances are
    grouped by both: each group's chart is built and its paths checked once,
    and each member checks the equations that its own h forces to vanish."""
    groups: dict[tuple, list[int]] = {}
    for index, (h, w) in enumerate(instances):
        groups.setdefault((w, build_cell_digraph(w, h).edges), []).append(index)
    failures: list[tuple[int, dict]] = []
    for members in groups.values():
        failures += _cell_chart_group_failures(instances, members, c)
    failures.sort(key=lambda failure: failure[0])  # stable: a member's own order stays
    return [failure for _, failure in failures]


def _cell_chart_group_failures(instances, members: list[int], c: EigenvalueVector):
    """(instance index, failure) for the instances ``members``, which share
    w and the cell digraph; the chart lives only for this call."""
    h, w = instances[members[0]]
    chart = build_cell_chart(w, h, c)
    wrong_paths = None
    out = []
    for index in members:
        h = instances[index][0]
        bad = chart.consistency_violations(h)
        if bad:
            out.append((index, {"w": str(w), "h": str(h), "pairs": bad[:3]}))
            continue
        if wrong_paths is None:
            wrong_paths = _wrong_path_coefficients(chart, c)
        out += [(index, {"w": str(w), "h": str(h), "path": path}) for path in wrong_paths]
    return out


def _wrong_path_coefficients(chart, c: EigenvalueVector) -> list[tuple[int, ...]]:
    """The minimal paths whose monomial's coefficient in the chart differs
    from the closed form, in (j, i, path) order."""
    n, g = chart.h.n, chart.digraph
    return [
        path
        for j in range(1, n + 1)
        for i in range(j + 1, n + 1)
        for path in minimal_paths(g, j, i)
        if Fraction(chart.entry(i, j).coefficient(path_monomial_exponents(chart, path)))
        != minimal_path_coefficient(path, chart.w, c)
    ]


def verify_classes(n: int, config: RunConfig) -> dict:
    """Each permutohedral class against the geometry, on its root products.

    One walk over the edges of each support point decides the divisibility
    condition on them (an edge that leaves the support needs its label
    among the point's factors), the smooth-point value (the product of the
    labels that leave the support) and, at ``w``, the top value (the
    product of the labels of the oriented edges, those with ``a < b``).  A
    class fails on its first failed check in the order gkm, support, top
    value, smooth point, the last naming its least failing point.
    """
    h = HessenbergFunction.permutohedral(n)
    graph = GkmGraph(h)
    failures = []
    for w in Permutation.all(n):
        values = permutohedral_root_products(w)
        gkm_ok, top_ok, smooth_bad = True, True, None
        for v in sorted(values):
            value, leaving = values[v], []
            edges = graph.neighbors(v)
            for target, a, b in edges:
                other = values.get(target)
                if other is None:
                    leaving.append((a, b))
                    gkm_ok = gkm_ok and not value.substitute(a, b).sign
                elif v < target:
                    gkm_ok = gkm_ok and value.substitute(a, b) == other.substitute(a, b)
            if v == w:
                top_ok = value == RootProduct.of_labels((a, b) for _t, a, b in edges if a < b)
            if smooth_bad is None and value != RootProduct.of_labels(leaving):
                smooth_bad = v
        if not gkm_ok:
            failures.append({"w": str(w), "kind": "gkm"})
        elif values.keys() != support_A(w, h):
            failures.append({"w": str(w), "kind": "support"})
        elif not top_ok:
            failures.append({"w": str(w), "kind": "top-value"})
        elif smooth_bad is not None:
            failures.append({"w": str(w), "v": str(smooth_bad), "kind": "smooth-point"})
    return _result("classes", not failures, instances=math.factorial(n), failures=failures[:5])


def _inversion_masks(n: int) -> list[int]:
    """Per ``w`` in S_n, in the order of ``Permutation.all``, the mask
    (``mask_of_pairs``) of the pairs ``j < i`` with ``w(j) > w(i)``, the
    transpositions ``t`` with ``w t`` shorter than ``w``.  Derived here from
    the definition, not read from ``gkm``'s inversion table, which
    ``verify_poincare`` checks."""
    bits = [(j - 1, i - 1, mask_of_pairs([(j, i)], n))
            for j in range(1, n + 1) for i in range(j + 1, n + 1)]
    return [sum(bit for j, i, bit in bits if w[j] > w[i])
            for w in itertools.permutations(range(n))]


def verify_poincare(n: int, config: RunConfig) -> dict:
    failures = []
    drops = _inversion_masks(n)
    for h in HessenbergFunction.all(n):
        mask = mask_of_pairs(h.pairs, n)
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
    failures = []
    for w in Permutation.all(n):
        w_inv = w.inverse()
        for i in range(1, n):
            if w_inv(i + 1) + 1 == w_inv(i) and not _master_identity_holds(w, i):
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


def _master_identity_holds(w: Permutation, i: int) -> bool:
    """``(t_{i+1} - t_i) sigma_{s_i w} = s_i . aux - aux`` on root products.

    The dot action permutes the variables, so a summand ``mover .
    sigma_target`` of ``aux`` takes the root products of ``sigma_target``,
    relabelled by the mover, to the points ``mover u``, and ``s_i`` moves
    each on to ``s_i mover u``, relabelled by ``s_i``.  The terms of ``lhs
    + aux - s_i . aux`` are gathered per point, and ``sum_vanishes``
    decides each point's sum.
    """
    n = len(w)
    si = Permutation.simple(i, n)
    root = RootProduct.of_labels([(i + 1, i)])
    points: dict[Permutation, list] = {}
    for u, value in permutohedral_root_products(si * w).items():
        points.setdefault(u, []).append((root * value, 1))
    for tilde, target, mover in auxiliary_terms(w, i):
        for u, value in permutohedral_root_products(target).items():
            if target is not tilde:  # the mover is not the identity
                u, value = mover * u, value.relabel(mover)
            points.setdefault(u, []).append((value, 1))
            points.setdefault(si * u, []).append((value.relabel(si), -1))
    return all(sum_vanishes(terms, n) for terms in points.values())


def verify_coxeter(n: int, config: RunConfig) -> dict:
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
        if report.outside_basis:
            failures.append({"k": k, "reason": f"generator {report.outside_basis[0]} lies "
                                               f"outside the degree-{k} basis"})
        elif not report.passed:
            failures.append({"k": k})
    return _result("decomposition", not failures, failures=failures)


def verify_genfunc(n: int, config: RunConfig) -> dict:
    passed, total = verify_closed_expansion(n)
    return _result("genfunc", passed, total_dimension=total)


def verify_sw(n: int, config: RunConfig) -> dict:
    if config.h_filter:
        functions = [_parse_h(config.h_filter, n)]
    else:
        functions = [
            HessenbergFunction.permutohedral(n),
            HessenbergFunction.full_flag(n),
        ]
    # the classes first: a wrong class can leave the span of the basis, and
    # the character check would then stop on the expansion's error.  Schema
    # 1 keeps the "flag" field, which no check sets
    failures = [{"h": str(h), "flag": None} for h in functions
                if not (_flow_up_basis_holds(h) and verify_shareshian_wachs(h).agree)]
    return _result("sw", not failures, failures=failures)


def _flow_up_basis_holds(h: HessenbergFunction) -> bool:
    """Each flow-up class that the matrices of a general h read passes the
    GKM condition, is supported on ``support_A``, takes ``top_value`` at w
    and is homogeneous of degree ``l_h(w)``.  Traces cannot see a change of
    basis, so the character check alone would pass a wrong class.  The
    permutohedral and full-flag matrices read no class."""
    if h.is_permutohedral() or h.is_full_flag():
        return True
    for w in Permutation.all(h.n):
        cls = flow_up_class(w, h).cls
        if not (gkm_check(cls, h)[0] and cls.support() == support_A(w, h)
                and cls.value(w) == top_value(w, h) and cls.is_homogeneous(l_h(w, h))):
            return False
    return True


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


def _permutation(text: str) -> Permutation:
    try:
        w = Permutation.from_one_line(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not w:
        raise argparse.ArgumentTypeError("the permutation is empty")
    return w


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
    p.add_argument("--w", type=_permutation, required=True)
    p.set_defaults(handler=cmd_support)

    p = sub.add_parser("cell-chart", parents=[common], help="symbolic chart of a minus cell")
    p.add_argument("--w", type=_permutation, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--eigenvalues")
    p.set_defaults(handler=cmd_cell_chart)

    p = sub.add_parser("class", parents=[common], help="basis class as fixed-point values")
    p.add_argument("--w", type=_permutation, required=True)
    p.add_argument("--n", type=_positive_int)
    _add_h_or_permutohedral(p)
    p.set_defaults(handler=cmd_class)

    p = sub.add_parser("expand", parents=[common], help="expand a class JSON over the basis")
    p.add_argument("--input", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--n", type=_positive_int)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("dot", parents=[common], help="simple-reflection action on a basis class")
    p.add_argument("--w", type=_permutation, required=True)
    p.add_argument("--gen", type=int, required=True)
    p.add_argument("--n", type=_positive_int)
    _add_h_or_permutohedral(p)
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("action-matrix", parents=[common], help="matrix of a group element on one degree")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perm", type=_permutation, required=True)
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
    except Exception as exc:
        # anything else, a missing key or a broken invariant
        # (TheoremViolationError included), is a bug, not a usage error
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
