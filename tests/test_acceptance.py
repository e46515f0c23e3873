"""Acceptance battery: every headline identity at desk scale, exact arithmetic.

Each test prints one pass/fail line; scales and tolerances are pinned here
(everything is an exact identity, so the tolerance is equality).
"""

import itertools
import random
from fractions import Fraction

import pytest

from gkmhess.cells import (
    EigenvalueVector,
    build_cell_chart,
    fixed_point_oracle,
    minimal_path_coefficient,
    minimal_paths,
    minor_reachability_certificate,
    path_monomial_exponents,
    prime_eigenvalues,
)
from gkmhess.chromatic import verify_closed_expansion, verify_shareshian_wachs
from gkmhess.classes import (
    gkm_check,
    interpolate_class,
    permutohedral_class,
    reduce_to_ordinary,
    smooth_point_value,
    top_value,
)
from gkmhess.decomp import (
    erased_composition,
    expected_type_multiset,
    g_set,
    generator_permutation,
    sigma_hat,
    verify_decomposition,
    verify_wz_completeness,
    w_z,
    composition_graph,
)
from gkmhess.dot import (
    ActionMatrix,
    build_auxiliary_class,
    dashed_rule_check,
    degree_basis,
    dot,
    full_flag_si_rule_check,
    generator_matrix,
    perm_si_action,
)
from gkmhess.gkm import EdgeKind, GkmGraph, HessenbergFunction, edge_kind, l_h, poincare_coefficients
from gkmhess.perms import Composition, Permutation
from gkmhess.polys import MultiPoly
from gkmhess.reach import support_A


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def lf(a, b, n):
    return MultiPoly.linear_form(a, b, n)


def test_criterion_01_supports_vs_oracle():
    rng = random.Random(101)
    mismatches = []
    count = 0
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            count += 1
            if support_A(w, h).members != fixed_point_oracle(w, h, rng, seeds=3):
                mismatches.append((str(w), str(h)))
    perms5 = list(Permutation.all(5))
    for _ in range(200):
        h = HessenbergFunction.random(5, rng)
        w = rng.choice(perms5)
        count += 1
        if support_A(w, h).members != fixed_point_oracle(w, h, rng, seeds=3):
            mismatches.append((str(w), str(h)))
    report(
        "criterion 1: supports equal the fixed-point oracle",
        not mismatches,
        f"{count} instances, first failures {mismatches[:3]}" if mismatches else f"{count} instances",
    )


def test_criterion_02_minor_reachability():
    rng = random.Random(202)
    disagreements = []
    resamples = 0
    count = 0
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            for size in range(1, 5):
                for rows in itertools.combinations(range(1, 5), size):
                    for cols in itertools.combinations(range(1, 5), size):
                        count += 1
                        cert = minor_reachability_certificate(w, h, rows, cols, rng)
                        resamples += cert.eigenvalue_resamples
                        if not cert.agree:
                            disagreements.append((str(w), str(h), rows, cols))
    perms5 = list(Permutation.all(5))
    seeds = [prime_eigenvalues(5)] + [EigenvalueVector.random(5, rng) for _ in range(2)]
    for _ in range(170):
        h = HessenbergFunction.random(5, rng)
        w = rng.choice(perms5)
        size = rng.randint(1, 5)
        rows = tuple(sorted(rng.sample(range(1, 6), size)))
        cols = tuple(sorted(rng.sample(range(1, 6), size)))
        for c in seeds:
            count += 1
            cert = minor_reachability_certificate(w, h, rows, cols, rng, c=c)
            resamples += cert.eigenvalue_resamples
            if not cert.agree:
                disagreements.append((str(w), str(h), rows, cols))
    report(
        "criterion 2: minor nonvanishing matches reachability",
        not disagreements and count >= 500,
        f"{count} instances, {resamples} eigenvalue resamples",
    )


def test_criterion_03_cell_chart_consistency():
    bad = []
    count = 0
    for n in range(2, 6):
        c = prime_eigenvalues(n)
        for h in HessenbergFunction.all(n):
            for w in Permutation.all(n):
                count += 1
                chart = build_cell_chart(w, h, c)
                if chart.consistency_violations():
                    bad.append((str(w), str(h), "equation"))
                    continue
                g = chart.digraph
                for j in range(1, n + 1):
                    for i in range(j + 1, n + 1):
                        for path in minimal_paths(g, j, i):
                            mono = path_monomial_exponents(chart, path)
                            found = Fraction(chart.entry(i, j).terms.get(mono, 0))
                            if found != minimal_path_coefficient(path, w, c):
                                bad.append((str(w), str(h), path))
    report(
        "criterion 3: chart equations vanish and minimal-path coefficients match",
        not bad,
        f"{count} charts",
    )


def test_criterion_04_permutohedral_classes():
    bad = []
    for n in range(2, 7):
        h = HessenbergFunction.permutohedral(n)
        for w in Permutation.all(n):
            cls = permutohedral_class(w)
            support = cls.support()
            if not gkm_check(cls, h)[0]:
                bad.append((n, str(w), "gkm"))
            elif support != support_A(w, h).members:
                bad.append((n, str(w), "support"))
            elif cls.value(w) != top_value(w, h):
                bad.append((n, str(w), "top-value"))
            elif not cls.is_homogeneous(l_h(w, h)):
                bad.append((n, str(w), "degree"))
            else:
                for v in support:
                    if cls.value(v) != smooth_point_value(w, v, h, support):
                        bad.append((n, str(w), "smooth-point"))
                        break
    report(
        "criterion 4: explicit classes satisfy all structural identities up to n=6",
        not bad,
        f"first failures {bad[:3]}" if bad else "1956 classes",
    )


def test_criterion_05_poincare_polynomials():
    bad = []
    for h in HessenbergFunction.all(5):
        graph = GkmGraph(h)
        counts = poincare_coefficients(h)
        outdeg: dict[int, int] = {}
        for w in graph.vertices():
            d = len(graph.oriented_out(w))
            outdeg[d] = outdeg.get(d, 0) + 1
        if outdeg != {k: v for k, v in enumerate(counts) if v}:
            bad.append(str(h))
    eulerian4 = poincare_coefficients(HessenbergFunction.permutohedral(4))
    eulerian5 = poincare_coefficients(HessenbergFunction.permutohedral(5))
    ok = not bad and eulerian4 == (1, 11, 11, 1) and eulerian5 == (1, 26, 66, 26, 1)
    report(
        "criterion 5: degree distributions and Eulerian coefficients",
        ok,
        f"42 functions on [5]; n=4 {eulerian4}, n=5 {eulerian5}",
    )


def test_criterion_06_dot_action_rules():
    failures = []

    # master identity for every eligible pair up to n=5
    for n in range(2, 6):
        for w in Permutation.all(n):
            w_inv = w.inverse()
            for i in range(1, n):
                if w_inv(i + 1) + 1 != w_inv(i):
                    continue
                aux = build_auxiliary_class(w, i)
                si = Permutation.simple(i, n)
                lhs = permutohedral_class(si * w).scale(lf(i + 1, i, n))
                if lhs != dot(si, aux) - aux:
                    failures.append(("master", n, str(w), i))

    # worked expansions reproduced term for term
    exp57 = {str(v): c for v, c in perm_si_action(Permutation.from_one_line("1324"), 2).items()}
    one4 = MultiPoly.one(4)
    if exp57 != {
        "1234": lf(3, 2, 4), "1324": one4, "1342": one4, "3412": one4,
        "3124": one4, "1243": -one4, "2413": -one4, "2134": -one4,
    }:
        failures.append(("example-5.7",))
    exp58 = perm_si_action(Permutation.from_one_line("13245"), 2)
    one5 = MultiPoly.one(5)
    expected58 = {"13245": 1, "13452": 1, "13425": 1, "13524": 1, "34512": 1,
                  "34125": 1, "35124": 1, "31245": 1, "12453": -1, "12435": -1,
                  "12534": -1, "24513": -1, "24135": -1, "25134": -1, "21345": -1}
    got58 = {str(v): c for v, c in exp58.items() if c in (one5, -one5)}
    if {k: (1 if v == one5 else -1) for k, v in got58.items()} != expected58 or (
        exp58[Permutation.from_one_line("12345")] != lf(3, 2, 5)
    ):
        failures.append(("example-5.8",))

    # dashed rule, exhaustively over all Hessenberg functions on [4]
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            for i in range(1, 4):
                if edge_kind(w, i, h) is EdgeKind.DASHED and not dashed_rule_check(w, i, h):
                    failures.append(("dashed", str(w), i, str(h)))

    # full flag rules, exhaustively up to n=4
    for n in range(2, 5):
        for w in Permutation.all(n):
            for i in range(1, n):
                if not full_flag_si_rule_check(w, i):
                    failures.append(("full-flag", n, str(w), i))

    # general-h worked identities on the flow-up representatives: the target
    # 1243 of 4.8(1) is not unique, and the identity holds on its representative
    for label, h_values, summands, i, target, linear in [
        ("4.8(1)", (2, 4, 4, 4), ["2143", "2413", "2341"], 1, "1243", (2, 1)),
        ("4.8(4)", (2, 3, 4, 4), ["1324", "1342", "3124", "3412"], 2, "1234", (3, 2)),
    ]:
        h = HessenbergFunction(h_values)
        results = {w: interpolate_class(Permutation.from_one_line(w), h) for w in summands}
        target_result = interpolate_class(Permutation.from_one_line(target), h)
        total = None
        for w in summands:
            total = results[w].cls if total is None else total + results[w].cls
        si = Permutation.simple(i, 4)
        if dot(si, total) - total != target_result.cls.scale(lf(*linear, 4)):
            failures.append((label,))

    # the two identities whose auxiliary sums carry a moved class
    for label, h_values, base, mover, moved_base, moved_extra, extra_linear, i, target, linear in [
        ("4.8(2)", (2, 4, 4, 4), "1423", Permutation.simple(1, 4), "4213", "4123", (2, 1), 3, "1324", (4, 3)),
        ("4.8(3)", (2, 3, 4, 4), "2143", Permutation.transposition(1, 3, 4), "2431", "2413", (3, 1), 1, "1243", (2, 1)),
    ]:
        h = HessenbergFunction(h_values)
        names = [base, moved_base, moved_extra, target]
        results = {w: interpolate_class(Permutation.from_one_line(w), h) for w in names}
        moved = dot(mover, results[moved_base].cls)
        relation_ok = moved == results[moved_base].cls + results[moved_extra].cls.scale(
            lf(*extra_linear, 4)
        )
        total = results[base].cls + moved
        si = Permutation.simple(i, 4)
        identity_holds = dot(si, total) - total == results[target].cls.scale(lf(*linear, 4))
        if not (relation_ok and identity_holds):
            failures.append((label,))

    report("criterion 6: reflection action rules", not failures, str(failures[:5]) if failures else "")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_07_coxeter_relations(n):
    h = HessenbergFunction.permutohedral(n)
    failures = []
    for k in range(n):
        mats = {i: generator_matrix(i, k, h) for i in range(1, n)}
        identity = ActionMatrix.identity(degree_basis(h, k))
        for i in range(1, n):
            if mats[i].compose(mats[i]) != identity:
                failures.append((k, f"s{i}^2"))
        for i in range(1, n - 1):
            lhs = mats[i].compose(mats[i + 1]).compose(mats[i])
            rhs = mats[i + 1].compose(mats[i]).compose(mats[i + 1])
            if lhs != rhs:
                failures.append((k, f"braid {i}"))
        for i in range(1, n):
            for j in range(i + 2, n):
                if mats[i].compose(mats[j]) != mats[j].compose(mats[i]):
                    failures.append((k, f"commute {i},{j}"))
    report(f"criterion 7: Coxeter relations on every degree at n={n}", not failures)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_08_erasing_marks_decomposition(n):
    failures = []
    for k in range(n):
        result = verify_decomposition(n, k)
        if not result.passed:
            failures.append(k)
    report(f"criterion 8: permutation-module decomposition at n={n}", not failures)


def test_criterion_08b_worked_decomposition_examples():
    # degree-2 table at n=5 and the symmetrized-class expansion at n=4
    report5 = verify_decomposition(5, 2)
    types = sorted(m.module_type for m in report5.modules)
    table_ok = (
        types == sorted([(5,), (3, 2), (4, 1), (3, 2), (2, 2, 1), (3, 2)])
        and report5.total_dim == 66
    )
    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}
    vec = reduce_to_ordinary(sigma_hat(Permutation.from_one_line("4312")), 2, h, basis)
    expansion_ok = {str(v): int(c) for v, c in vec.items()} == {
        "4312": 2, "4213": 4, "3214": 6, "4231": 2, "4132": -2,
        "3241": 4, "3142": -2, "2143": -2, "3421": 2, "2431": -2,
    }
    report(
        "criterion 8: worked degree table and symmetrized expansion",
        table_ok and expansion_ok,
    )


def test_criterion_09_generating_function():
    bad = []
    for n in range(1, 9):
        for k in range(n):
            observed: dict[tuple[int, ...], int] = {}
            for w in g_set(n, k):
                a_hat = tuple(erased_composition(w.descent_composition()))
                observed[a_hat] = observed.get(a_hat, 0) + 1
            if observed != expected_type_multiset(n, k):
                bad.append((n, k))
    report("criterion 9: erased-type generating function up to n=8", not bad)


def test_criterion_10_shareshian_wachs():
    failures = []
    for n in range(2, 6):
        for h in (HessenbergFunction.permutohedral(n), HessenbergFunction.full_flag(n)):
            result = verify_shareshian_wachs(h)
            if not result.agree:
                failures.append((n, str(h), result.convention_flag))
    for n in range(2, 7):
        if not verify_closed_expansion(n).agree:
            failures.append((n, "closed-expansion"))
    report("criterion 10: graded character identity and closed expansion", not failures)


def test_criterion_11_lattice_machinery():
    bad = []
    for n in range(1, 7):
        for a in Composition.all(n):
            if not verify_wz_completeness(a):
                bad.append(tuple(a))
    # leading positivity of the symmetrized classes, n <= 5
    for n in range(2, 6):
        h = HessenbergFunction.permutohedral(n)
        basis = {u: permutohedral_class(u) for u in Permutation.all(n)}
        for a in Composition.all(n):
            k = len(a) - 1
            w = generator_permutation(a)
            vec = reduce_to_ordinary(sigma_hat(w), k, h, basis)
            lattice = {w_z(a, z) for z in composition_graph(a).vertices}
            for z in lattice:
                if not (z in vec and vec[z] > 0):
                    bad.append(("positivity", tuple(a), str(z)))
            for v in vec:
                if v not in lattice and not (
                    tuple(v.descent_composition()) > tuple(a)
                ):
                    bad.append(("ordering", tuple(a), str(v)))
    report("criterion 11: lattice completeness and leading positivity", not bad)
