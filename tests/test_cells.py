import dataclasses
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import reference_paths
from determinants import elimination_det, leibniz
from gkmhess import cells, reach
from gkmhess.cells import (
    DegenerateEigenvaluesError,
    EigenvalueVector,
    _leading_minors,
    build_cell_chart,
    fixed_point_oracle,
    minimal_path_coefficient,
    minimal_paths,
    minor_reachability_certificate,
    minor_symbolic,
    path_monomial_exponents,
    prime_eigenvalues,
)
from gkmhess.gkm import HessenbergFunction
from gkmhess.linalg import row_reduce
from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly
from gkmhess.reach import build_cell_digraph, support_A

H5 = HessenbergFunction((3, 3, 4, 5, 5))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_eigenvalue_distinctness():
    with pytest.raises(DegenerateEigenvaluesError):
        EigenvalueVector((Fraction(1), Fraction(1), Fraction(2)))
    assert prime_eigenvalues(5).values == tuple(map(Fraction, (2, 3, 5, 7, 11)))


def test_chart_free_and_zero_entries():
    w = Permutation.from_one_line("24135")
    chart = build_cell_chart(w, H5)
    assert set(chart.free_pairs) == {(2, 1), (4, 3), (5, 4)}
    for i, j in [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2)]:
        assert chart.entry(i, j).is_zero
    # free pair is the bare variable
    entry = chart.entry(2, 1)
    assert len(entry.terms) == 1 and set(entry.terms.values()) == {1}


def test_chart_dependent_entry_24135():
    w = Permutation.from_one_line("24135")
    c = prime_eigenvalues(5)
    chart = build_cell_chart(w, H5, c)
    entry = chart.entry(5, 3)
    mono = path_monomial_exponents(chart, (3, 4, 5))
    scale = (c[3] - c[1]) / (c[5] - c[1])
    assert entry.terms == {mono: scale}


def test_chart_dependent_entry_identity():
    ident = Permutation.identity(5)
    c = prime_eigenvalues(5)
    chart = build_cell_chart(ident, H5, c)
    entry = chart.entry(5, 2)
    mono = path_monomial_exponents(chart, (2, 3, 4, 5))
    scale = (c[4] - c[3]) * (c[3] - c[2]) / ((c[5] - c[2]) * (c[5] - c[3]))
    assert entry.terms == {mono: scale}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chart_consistency_exhaustive(n):
    c = prime_eigenvalues(n)
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            chart = build_cell_chart(w, h, c)
            assert chart.consistency_violations() == []


def _violations_by_full_scan(chart):
    """Every pair alpha > h(beta) whose defining equation fails to vanish,
    dependent pairs included: the reference for ``consistency_violations``,
    which evaluates only the pairs whose entry is forced to 0."""
    n = chart.h.n
    return [
        (alpha, beta)
        for beta in range(1, n + 1)
        for alpha in range(chart.h(beta) + 1, n + 1)
        if not chart.defining_equation(alpha, beta).is_zero
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_consistency_matches_the_full_scan(n):
    c = prime_eigenvalues(n)
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            chart = build_cell_chart(w, h, c)
            assert chart.consistency_violations() == _violations_by_full_scan(chart)


def test_consistency_reports_a_forced_zero_pair_with_nonzero_sum(monkeypatch):
    # w = 231, h = (2, 3, 3): (3, 1) lies above h and is forced to 0, and so is
    # (3, 2); made 1, it puts -f(2, 1) = -(c_3 - c_2) x2_1 into S(3, 1)
    w, h = Permutation.from_one_line("231"), HessenbergFunction((2, 3, 3))
    assert build_cell_chart(w, h).consistency_violations() == []
    chart = build_cell_chart(w, h)  # equations are kept once computed
    monkeypatch.setitem(chart.entries, (3, 2), MultiPoly.one(chart.nvars))
    assert chart.consistency_violations() == [(3, 1)]
    assert _violations_by_full_scan(chart) == [(3, 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_consistency_evaluates_exactly_the_forced_zero_pairs_above_h(n):
    # with every equation made to read 1, the check reports each pair it
    # evaluates: the pairs alpha > h(beta) with w(alpha) < w(beta), by
    # ascending beta and then alpha
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            chart = build_cell_chart(w, h)
            chart.defining_equation = lambda alpha, beta: MultiPoly.one(chart.nvars)
            expected = [
                (alpha, beta)
                for beta in range(1, n + 1)
                for alpha in range(h(beta) + 1, n + 1)
                if w(alpha) < w(beta)
            ]
            assert chart.consistency_violations() == expected, (str(h), str(w))


def _charts_sharing_a_digraph(n, pairs):
    """For each (h, w) in ``pairs``, its chart and the first chart of the
    pairs before it with the same w and cell digraph, where there is one."""
    first = {}
    for h, w in pairs:
        key = (w, build_cell_digraph(w, h).edges)
        chart = build_cell_chart(w, h)
        if key in first and first[key].h != h:
            yield first[key], chart
        first.setdefault(key, chart)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_chart_reads_h_only_through_its_digraph(n):
    # every pair h != h' at n <= 4 with the same w and digraph, and those
    # among 400 seeded draws at n = 5: the same entries, equations and free
    # pairs, the digraph's edges j -> i read as (i, j)
    if n <= 4:
        pairs = [(h, w) for w in Permutation.all(n) for h in HessenbergFunction.all(n)]
    else:
        rng, perms = random.Random(505), list(Permutation.all(n))
        w_pool = [rng.choice(perms) for _ in range(20)]
        pairs = [(HessenbergFunction.random(n, rng), rng.choice(w_pool)) for _ in range(400)]
    shared = 0
    for chart, other in _charts_sharing_a_digraph(n, pairs):
        shared += 1
        assert other.entries == chart.entries, (str(chart.w), str(chart.h), str(other.h))
        assert other.free_pairs == chart.free_pairs == sorted(
            (i, j) for j, i in build_cell_digraph(other.w, other.h).edges)
        assert other.consistency_violations() == chart.consistency_violations(other.h) == []
        for pair in chart.entries:
            assert other.defining_equation(*pair) == chart.defining_equation(*pair)
    # (n + 1)^(n - 1) distinct charts at n <= 4, as observed up to n = 6
    assert shared == len(pairs) - (n + 1) ** (n - 1) if n <= 4 else shared > 100


def test_consistency_refuses_an_h_with_another_digraph():
    # 2,3,3 and 3,3,3 differ in the pair (1, 3), an edge for 123 but not for 321
    h, other = HessenbergFunction((2, 3, 3)), HessenbergFunction((3, 3, 3))
    assert build_cell_chart(Permutation.longest(3), h).consistency_violations(other) == []
    chart = build_cell_chart(Permutation.identity(3), h)
    with pytest.raises(ValueError, match="another cell digraph"):
        chart.consistency_violations(other)
    with pytest.raises(ValueError, match="another cell digraph"):
        chart.consistency_violations(HessenbergFunction((2, 3, 4, 4)))


def _entries_by_chain_enumeration(chart):
    """The chart's entries, each dependent one rebuilt from the signed sum
    over all 2^(gap-1) decreasing chains alpha > g_1 > ... > g_t > beta,
    the sum that the chart's first-step recurrence regroups."""
    w, h, c = chart.w, chart.h, chart.c
    entries = {}
    for gap in range(1, h.n):
        for beta in range(1, h.n - gap + 1):
            alpha = beta + gap
            if w(alpha) < w(beta) or alpha <= h(beta):
                entries[(alpha, beta)] = chart.entry(alpha, beta)
                continue
            total = MultiPoly.zero(chart.nvars)
            for t in range(1, gap):
                for chain in itertools.combinations(range(beta + 1, alpha), t):
                    gammas = tuple(reversed(chain))  # decreasing
                    product = entries[(alpha, gammas[0])]
                    for a, b in zip(gammas, gammas[1:] + (beta,)):
                        product = product * entries[(a, b)]
                    scale = (-1) ** t * (c[w(gammas[-1])] - c[w(beta)])
                    total = total + product * scale
            entries[(alpha, beta)] = total * (Fraction(-1) / (c[w(alpha)] - c[w(beta)]))
    return entries


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chart_recurrence_matches_chain_enumeration(n):
    rng = random.Random(10 + n)
    if n <= 4:
        pairs = [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    else:
        perms = list(Permutation.all(n))
        pairs = [(HessenbergFunction.random(n, rng), rng.choice(perms)) for _ in range(500)]
    for h, w in pairs:
        chart = build_cell_chart(w, h)
        assert chart.entries == _entries_by_chain_enumeration(chart), (str(h), str(w))


def _hessenberg_conditions_at_a_point(chart, rng):
    """(X^-1 D X)_{alpha, beta} for alpha > h(beta), X the chart at a random
    point and D = diag(c_{w(1)}, ..., c_{w(n)}); all vanish on the variety."""
    n = chart.h.n
    point = [rng.randint(1, 10**6) for _ in range(chart.nvars)]
    x = [[chart.entry(i, j).evaluate(point) for j in range(1, n + 1)] for i in range(1, n + 1)]
    # [X | I] reduces to [I | X^-1]
    pivots, _leftover = row_reduce(
        [{**dict(enumerate(row)), n + i: 1} for i, row in enumerate(x)], bound=n
    )
    inverse = [[pivots[i].get(n + j, 0) for j in range(n)] for i in range(n)]
    d = [chart.c[chart.w(k)] for k in range(1, n + 1)]
    return [
        sum(inverse[alpha - 1][k] * d[k] * x[k][beta - 1] for k in range(n))
        for beta in range(1, n + 1)
        for alpha in range(chart.h(beta) + 1, n + 1)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_points_lie_on_the_hessenberg_variety(n):
    # independent of the chain sums that build the chart: a wrong sign or
    # eigenvalue factor there still passes consistency_violations
    rng = random.Random(n)
    pairs = [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    if n == 5:
        pairs = rng.sample(pairs, 500)
    for h, w in pairs:
        chart = build_cell_chart(w, h)
        assert not any(_hessenberg_conditions_at_a_point(chart, rng)), (str(h), str(w))


def test_minimal_path_examples():
    ident = Permutation.identity(5)
    c = prime_eigenvalues(5)
    assert minimal_path_coefficient((1, 3, 4), ident, c) == (c[3] - c[1]) / (c[4] - c[1])
    assert minimal_path_coefficient((1, 3, 4, 5), ident, c) == (
        (c[4] - c[3]) * (c[3] - c[1]) / ((c[5] - c[1]) * (c[5] - c[3]))
    )
    # a direct edge contributes coefficient 1
    w = Permutation.from_one_line("24135")
    assert minimal_path_coefficient((1, 2), w, c) == 1


def test_minimality_detection():
    g = build_cell_digraph(Permutation.identity(5), H5)
    assert (1, 2, 3, 4) in reference_paths.paths(g, 1, 4)
    assert not reference_paths.is_minimal_path(g, (1, 2, 3, 4))
    assert reference_paths.is_minimal_path(g, (1, 3, 4))
    assert (1, 2, 3, 4) not in minimal_paths(g, 1, 4)
    assert (1, 3, 4) in minimal_paths(g, 1, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minimal_paths_match_the_enumerate_and_filter_reference(n):
    # the same paths in the same order, so failure lists keep their order
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            g = build_cell_digraph(w, h)
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    assert minimal_paths(g, j, i) == reference_paths.minimal_paths(g, j, i), (
                        str(h), str(w), j, i
                    )


@pytest.mark.parametrize("n", [3, 4])
def test_minimal_path_coefficients_in_charts(n):
    vectors = [prime_eigenvalues(n)]
    if n == 4:
        vectors.append(EigenvalueVector((Fraction(1, 2), Fraction(3), Fraction(7, 3), Fraction(5))))
    for c in vectors:
        for h in HessenbergFunction.all(n):
            for w in Permutation.all(n):
                chart = build_cell_chart(w, h, c)
                g = chart.digraph
                for j in range(1, n + 1):
                    for i in range(j + 1, n + 1):
                        for path in minimal_paths(g, j, i):
                            found = minimal_path_coefficient(path, w, c)
                            assert type(found) is Fraction
                            mono = path_monomial_exponents(chart, path)
                            assert Fraction(chart.entry(i, j).terms.get(mono, 0)) == found


def test_minor_examples():
    w = Permutation.from_one_line("24135")
    chart = build_cell_chart(w, H5)
    # principal minor of a unitriangular matrix has constant term 1
    principal = minor_symbolic(chart, (1, 2, 3), (1, 2, 3))
    assert principal.constant_term() == 1
    # unreachable block vanishes identically
    assert minor_symbolic(chart, (3, 4), (1, 2)).is_zero
    # reachable block is nonzero
    w2 = Permutation.from_one_line("15342")
    chart2 = build_cell_chart(w2, H5)
    assert not minor_symbolic(chart2, (3, 4), (1, 3)).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minor_symbolic_matches_leibniz(n):
    c = prime_eigenvalues(n)
    sets = [s for k in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), k)]
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            chart = build_cell_chart(w, h, c)
            for rows in sets:
                for cols in sets:
                    if len(rows) != len(cols):
                        continue
                    sub = [[chart.entry(r, col) for col in cols] for r in rows]
                    assert minor_symbolic(chart, rows, cols) == leibniz(sub), (
                        str(h), str(w), rows, cols
                    )


def _evaluated_block(chart, rows, cols, point):
    """The chart's entries on ``rows`` x ``cols``, each evaluated at ``point``."""
    return [[chart.entry(r, col).evaluate(point) for col in cols] for r in rows]


@pytest.mark.parametrize("n", [3, 5, 6])
def test_minor_at_point_matches_an_exact_determinant(n):
    # the symbolic minor at a point against Gaussian elimination on the
    # entries evaluated there
    rng = random.Random(30 + n)
    perms = list(Permutation.all(n))
    for _ in range(60):
        chart = build_cell_chart(rng.choice(perms), HessenbergFunction.random(n, rng))
        size = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
        # small coordinates make vanishing minors common
        assignment = [Fraction(rng.randint(-2, 2)) for _ in range(chart.nvars)]
        value = minor_symbolic(chart, rows, cols).evaluate(assignment)
        expected = elimination_det(_evaluated_block(chart, rows, cols, assignment))
        assert value == expected, (str(chart.h), str(chart.w), rows, cols)


def _minor_on_the_whole_matrix(chart, rows, cols, point):
    """The minor at a point from the whole chart: every entry of ``x``
    evaluated over ``Fraction``, then the k x k block by elimination."""
    n = chart.h.n
    x = _evaluated_block(chart, range(1, n + 1), range(1, n + 1), [Fraction(v) for v in point])
    return elimination_det([[x[r - 1][c - 1] for c in cols] for r in rows])


NON_INTEGRAL_EIGENVALUES = (
    Fraction(1, 2), Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(5), Fraction(11, 4)
)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("eigenvalues", ["prime", "non-integral"])
def test_minor_at_point_matches_the_whole_matrix_route(n, eigenvalues):
    rng = random.Random(70 + n)
    c = (
        prime_eigenvalues(n) if eigenvalues == "prime"
        else EigenvalueVector(NON_INTEGRAL_EIGENVALUES[:n])
    )
    perms = list(Permutation.all(n))
    for _ in range(40):
        chart = build_cell_chart(rng.choice(perms), HessenbergFunction.random(n, rng), c)
        size = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
        span = rng.choice([3, 10**6])
        point = [rng.randint(1, span) for _ in range(chart.nvars)]
        value = minor_symbolic(chart, rows, cols).evaluate(point)
        assert value == _minor_on_the_whole_matrix(chart, rows, cols, point)


def test_eigenvalue_differences_are_integers_where_integral():
    w = Permutation.from_one_line("53412")
    for c in (prime_eigenvalues(5), EigenvalueVector(NON_INTEGRAL_EIGENVALUES[:5])):
        chart = build_cell_chart(w, H5, c)
        for a in range(1, 6):
            for b in range(1, 6):
                if a != b:
                    diff = chart._coeff(a, b)
                    assert diff == c[w(a)] - c[w(b)]
                    assert type(diff) is int or diff.denominator != 1
        for poly in list(chart.entries.values()) + [chart.defining_equation(5, 1)]:
            assert all(type(v) is int or v.denominator != 1 for v in poly.packed.values())


def test_minors_need_square_index_sets():
    chart = build_cell_chart(Permutation.identity(3), HessenbergFunction((2, 3, 3)))
    with pytest.raises(ValueError, match="equal size"):
        minor_symbolic(chart, (1, 2), (1,))


def test_minor_point_evaluation_agrees_with_symbolic():
    rng = random.Random(3)
    w = Permutation.from_one_line("15342")
    chart = build_cell_chart(w, H5)
    point = [rng.randint(1, 10**6) for _ in range(chart.nvars)]
    symbolic = minor_symbolic(chart, (3, 4), (1, 3))
    assert not symbolic.is_zero
    block = _evaluated_block(chart, (3, 4), (1, 3), point)
    assert symbolic.evaluate(point) == block[0][0] * block[1][1] - block[0][1] * block[1][0]


def test_certificate_trivial_full_sets():
    rng = random.Random(5)
    chart = build_cell_chart(Permutation.from_one_line("24135"), H5)
    cert = minor_reachability_certificate(chart, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), rng)
    assert cert.agree and cert.reachable and cert.minor_nonzero
    assert (cert.w, cert.h) == (chart.w, chart.h)


def test_certificate_exhaustive_n3():
    # a chart shared by every pair of one (h, w) gives the certificate on a
    # chart of its own
    rng = random.Random(11)
    for h in HessenbergFunction.all(3):
        for w in Permutation.all(3):
            chart = build_cell_chart(w, h)
            for size in (1, 2, 3):
                for rows in itertools.combinations((1, 2, 3), size):
                    for cols in itertools.combinations((1, 2, 3), size):
                        cert = minor_reachability_certificate(build_cell_chart(w, h), rows, cols, rng)
                        assert cert.agree
                        assert minor_reachability_certificate(chart, rows, cols, rng) == cert


def test_certificate_counts_the_eigenvalue_draws_it_made(monkeypatch):
    # a reachable pair whose minor keeps vanishing: the certificate gives up
    # after MAX_EIGENVALUE_RESAMPLES fresh vectors and reports exactly that
    # many, the same draws whether its first chart is shared or fresh; each
    # resample's chart comes from build_cell_chart at the vector just drawn
    w, h = Permutation.from_one_line("2413"), HessenbergFunction((2, 3, 4, 4))
    spans, vectors, built = [], [], []
    draw = EigenvalueVector.random.__func__
    build = cells.build_cell_chart

    def counted(cls, n, rng, span=10**6):
        spans.append(span)
        vectors.append(draw(cls, n, rng, span))
        return vectors[-1]

    def recorded_build(w, h, c=None):
        built.append((w, h, c))
        return build(w, h, c)

    shared = build_cell_chart(w, h)
    monkeypatch.setattr(EigenvalueVector, "random", classmethod(counted))
    monkeypatch.setattr(cells, "build_cell_chart", recorded_build)
    monkeypatch.setattr(
        cells, "minor_symbolic", lambda chart, rows, cols: MultiPoly.zero(chart.nvars)
    )
    draws = []
    for chart in (build_cell_chart(w, h), shared, shared):
        spans.clear()
        vectors.clear()
        built.clear()
        rng = random.Random(0)
        cert = minor_reachability_certificate(chart, (1, 2), (1, 2), rng)
        assert cert.reachable and not cert.minor_nonzero
        assert cert.eigenvalue_resamples == cells.MAX_EIGENVALUE_RESAMPLES == len(spans)
        assert spans == [10**7, 10**8, 10**9]
        assert built == [(w, h, c) for c in vectors]
        draws.append(rng.random())
    assert draws[0] == draws[1] == draws[2]


def test_minor_certificates_match_golden():
    # the 500 cases verify minors --n 6 --seed 0 certifies (309 unreachable),
    # each certified again on the chart of its w and h; rng is read only by
    # an eigenvalue resample
    expected = json.loads((GOLDEN / "minor_certificates_n6_seed0.json").read_text())
    records = []
    for case in expected:
        chart = build_cell_chart(
            Permutation.from_one_line(case["w"]), HessenbergFunction.from_string(case["h"])
        )
        cert = minor_reachability_certificate(chart, case["rows"], case["cols"], random.Random(0))
        records.append({
            field.name: getattr(cert, field.name) for field in dataclasses.fields(cert)
        } | {"w": str(cert.w), "h": str(cert.h), "rows": list(cert.rows), "cols": list(cert.cols)})
    assert records == expected


def _minor_cases_drawn(n, seed, count=500):
    """The (w, h, rows, cols) that ``verify minors`` samples at n >= 5,
    replayed in its draw order: size, w, h, rows, cols.  The certificate
    reads the same rng only to resample eigenvalues."""
    rng = random.Random(seed)
    perms = list(Permutation.all(n))
    cases = []
    for _ in range(count):
        size = rng.randint(1, n)
        w = rng.choice(perms)
        h = HessenbergFunction.random(n, rng)
        rows = sorted(rng.sample(range(1, n + 1), size))
        cases.append({"w": str(w), "h": str(h), "rows": rows,
                      "cols": sorted(rng.sample(range(1, n + 1), size))})
    return cases


def test_verify_minors_draws_its_cases_in_order(monkeypatch):
    # a spy on the certificate records what verify minors --n 6 --seed 0
    # certifies: the replayed draws, and the cases of the golden
    from gkmhess import cli

    calls = []
    certify = cli.minor_reachability_certificate

    def spy(chart, rows, cols, rng):
        calls.append({"w": str(chart.w), "h": str(chart.h), "rows": list(rows), "cols": list(cols)})
        return certify(chart, rows, cols, rng)

    monkeypatch.setattr(cli, "minor_reachability_certificate", spy)
    report = cli.verify_minors(6, cli.RunConfig(seed=0))
    assert report["passed"] and report["eigenvalue_resamples"] == 0
    assert calls == _minor_cases_drawn(6, 0)
    golden = json.loads((GOLDEN / "minor_certificates_n6_seed0.json").read_text())
    assert calls == [{key: case[key] for key in ("w", "h", "rows", "cols")} for case in golden]


def _pattern_of_masks(masks, n):
    """For j = 1..n, the ascending row j-sets among the bitmasks ``masks``."""
    patterns = [set() for _ in range(n)]
    for mask in masks:
        rows = tuple(r for r in range(1, n + 1) if mask >> (r - 1) & 1)
        patterns[len(rows) - 1].add(rows)
    return patterns


def test_nonzero_minor_masks_match_j_families():
    # row r of g = w x is row w^-1(r) of x, so the j-family's sets appear
    # through w
    w = Permutation.from_one_line("24135")
    patterns = _pattern_of_masks(cells._nonzero_minor_masks(w, H5), 5)
    for j in range(1, 6):
        expected = {
            tuple(sorted(w(i) for i in combo)) for combo in reach.j_family(w, H5, j)
        }
        assert patterns[j - 1] == expected


def test_oracle_matches_support():
    for w_text in ("24135", "15342", "12345"):
        w = Permutation.from_one_line(w_text)
        assert fixed_point_oracle(w, H5) == support_A(w, H5)


def test_supports_match_the_oracle_on_random_h_at_n6():
    rng = random.Random(606)
    perms = list(Permutation.all(6))
    for _ in range(20):
        h = HessenbergFunction.random(6, rng)
        w = rng.choice(perms)
        assert support_A(w, h) == fixed_point_oracle(w, h), (w, h)


def test_supports_compare_by_their_points():
    # a support is its set of fixed points: two supports are equal exactly
    # when they hold the same points, whatever (w, h) they came from
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            support = support_A(w, h)
            assert support == fixed_point_oracle(w, h), (w, h)
            assert support != frozenset(), (w, h)
    w = Permutation.from_one_line("2143")
    edgeless = support_A(w, HessenbergFunction((1, 2, 3, 4)))
    assert edgeless == support_A(w, HessenbergFunction((2, 2, 4, 4))) == frozenset({w})


def test_oracle_edgeless_case():
    h = HessenbergFunction((1, 2, 3, 4))
    w = Permutation.from_one_line("4321")
    assert fixed_point_oracle(w, h) == frozenset({w})


def test_oracle_calls_nothing_from_reach(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle read the reachability combinatorics")

    for module in (reach, cells):
        for name, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == "gkmhess.reach":
                monkeypatch.setattr(module, name, forbidden)
    w = Permutation.from_one_line("24135")
    assert (1 << 5) - 1 in cells._nonzero_minor_masks(w, H5)
    assert w in fixed_point_oracle(w, H5)


def _pattern_by_subset_determinants(w, h):
    """The Plücker pattern with one Leibniz determinant per row subset over
    the chart's polynomial entries: the reference for the subset recurrence
    of ``_nonzero_minor_masks``."""
    n = h.n
    chart = build_cell_chart(w, h)
    w_inv = w.inverse()
    return [
        {
            rows for rows in itertools.combinations(range(1, n + 1), j)
            if leibniz([[chart.entry(w_inv(r), c) for c in range(1, j + 1)] for r in rows]) != 0
        }
        for j in range(1, n + 1)
    ]


def _oracle_by_scan(patterns, n):
    """Every u in S_n whose sorted prefixes all index a nonzero coordinate."""
    return frozenset(
        u for u in Permutation.all(n)
        if all(tuple(sorted(u[:j])) in patterns[j - 1] for j in range(1, n + 1))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_oracle_matches_subset_determinants(n):
    rng = random.Random(20 + n)
    if n <= 4:
        pairs = [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    else:
        perms = list(Permutation.all(n))
        pairs = [(HessenbergFunction.random(n, rng), rng.choice(perms))
                 for _ in range({5: 300, 6: 100}[n])]
    for h, w in pairs:
        expected = _pattern_by_subset_determinants(w, h)
        masks = cells._nonzero_minor_masks(w, h)
        assert _pattern_of_masks(masks, n) == expected, (str(h), str(w))
        assert fixed_point_oracle(w, h) == _oracle_by_scan(expected, n), (str(h), str(w))


def _square_matrices(entries, max_size=6):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@given(
    _square_matrices(st.integers(-3, 3))
    | _square_matrices(st.integers(-10**9, 10**9))
    | _square_matrices(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=5)
)
@example([[1, 2], [2, 4]])
@example([[0, 5, 1], [0, 3, 2], [0, 7, 9]])
@example([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
@settings(max_examples=60, deadline=None)
def test_leading_minors_match_exact_determinants(rows):
    minors = _leading_minors(rows)
    n = len(rows)
    assert minors[0] == 1
    for mask in range(1, 1 << n):
        chosen = [r for r in range(n) if mask >> r & 1]
        sub = sympy.Matrix([[sympy.Rational(rows[r][col]) for col in range(len(chosen))]
                            for r in chosen])
        assert minors[mask] == Fraction(str(sub.det())), (rows, chosen)


def _assert_minors_match_leibniz(rows):
    """Every leading minor of ``rows`` equals its Leibniz sum, and every
    vanishing one is stored as the ``int`` 0."""
    minors = _leading_minors(rows)
    for mask in range(1, 1 << len(rows)):
        chosen = [rows[r] for r in range(len(rows)) if mask >> r & 1]
        expected = leibniz([row[:len(chosen)] for row in chosen])
        if expected == 0:
            assert type(minors[mask]) is int and minors[mask] == 0, (rows, mask)
        else:
            assert minors[mask] == expected, (rows, mask)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_minors_match_leibniz(n):
    # the rows of g = w x that the oracle expands, every (h, w) at n <= 4
    pairs = [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    if n == 5:
        pairs = random.Random(5).sample(pairs, 60)
    for h, w in pairs:
        w_inv = w.inverse()
        rows = cells._polynomial_rows(
            build_cell_chart(w, h), [w_inv(r) for r in range(1, n + 1)], range(1, n + 1)
        )
        _assert_minors_match_leibniz(rows)


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 2), max_size=3
).map(lambda terms: MultiPoly(2, terms))


def _as_entry(poly):
    """A polynomial as ``_leading_minors`` takes it: zero as the ``int`` 0."""
    return 0 if poly.is_zero else poly


@st.composite
def _cancelling_poly_matrices(draw):
    """A k x k matrix of polynomials whose larger minors cancel: the product
    of a k x r and an r x k matrix with r < k, or a matrix with one row a
    polynomial multiple of another."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        r = draw(st.integers(1, k - 1))
        left = draw(st.lists(st.lists(_small_polys, min_size=r, max_size=r), min_size=k, max_size=k))
        right = draw(st.lists(st.lists(_small_polys, min_size=k, max_size=k), min_size=r, max_size=r))
        return [
            [_as_entry(sum((left[i][t] * right[t][j] for t in range(r)), MultiPoly.zero(2)))
             for j in range(k)]
            for i in range(k)
        ]
    rows = draw(st.lists(st.lists(_small_polys, min_size=k, max_size=k), min_size=k, max_size=k))
    source, target = draw(st.permutations(range(k)))[:2]
    factor = draw(_small_polys)
    rows[target] = [p * factor for p in rows[source]]
    return [[_as_entry(p) for p in row] for row in rows]


@given(_cancelling_poly_matrices())
@settings(max_examples=60, deadline=None)
def test_polynomial_minors_that_cancel_are_the_int_zero(rows):
    _assert_minors_match_leibniz(rows)


@given(_square_matrices(
    st.sampled_from([Fraction(0)]) | st.fractions(min_value=-2, max_value=2, max_denominator=2),
    max_size=5,
))
@example([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
@settings(max_examples=60, deadline=None)
def test_numeric_minors_with_fraction_zeros(rows):
    _assert_minors_match_leibniz(rows)


@given(_square_matrices(st.integers(-2, 2) | _small_polys.map(_as_entry), max_size=4))
@example([[1, MultiPoly.variable(0, 2)], [1, 1]])
@settings(max_examples=60, deadline=None)
def test_minors_of_mixed_number_and_polynomial_matrices(rows):
    # a sum that starts as a number may then subtract a polynomial term
    _assert_minors_match_leibniz(rows)
