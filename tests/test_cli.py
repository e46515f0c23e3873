import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_python(*argv, timeout=600):
    """A fresh interpreter on ``argv``, with the package's source first on
    its ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def run_cli(*args):
    return run_python("-m", "gkmhess", *args)


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_support_example():
    data = run_json("support", "--n", "5", "--h", "3,3,4,5,5", "--w", "24135")
    assert data["schema"] == 1
    assert data["support"] == sorted(
        ["24135", "24153", "24351", "24315", "24531", "24513",
         "42135", "42153", "42351", "42315", "42531", "42513"]
    )


def test_gkm_graph_output():
    data = run_json("gkm-graph", "--n", "3", "--h", "2,3,3")
    assert data["vertices"] == ["123", "132", "213", "231", "312", "321"]
    edges = {(e["src"], e["dst"]): e["label"] for e in data["edges"]}
    assert edges[("132", "312")] == "t3-t1"
    assert edges[("123", "132")] == "t3-t2"
    assert len(edges) == 6


def test_cell_chart_output():
    data = run_json("cell-chart", "--w", "24135", "--h", "3,3,4,5,5")
    assert data["free_variables"] == ["2,1", "4,3", "5,4"]
    assert data["entries"]["5,3"] == "1/3*x4_3*x5_4"
    assert data["entries"]["3,1"] == "0"


def test_class_and_expand_round_trip(tmp_path):
    data = run_json("class", "--permutohedral", "--w", "1324")
    assert data["degree"] == 1
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    expanded = run_json("expand", "--input", str(path), "--h", "2,3,4,4")
    assert expanded["coefficients"] == {"1324": "1"}


def test_dot_output():
    data = run_json("dot", "--permutohedral", "--w", "13245", "--gen", "2")
    assert data["expansion"]["12345"] == "-t2+t3"
    assert data["expansion"]["34512"] == "1"
    assert data["expansion"]["21345"] == "-1"


def test_action_matrix_output():
    data = run_json("action-matrix", "--k", "1", "--perm", "2134", "--h", "permutohedral")
    order = data["basis"]
    matrix = data["matrix"]
    # s_1 moves the class at 1324 to the class at 2314 (values 1,2 not adjacent)
    assert matrix[order.index("2314")][order.index("1324")] == "1"
    assert matrix[order.index("1324")][order.index("1324")] == "0"


def test_decompose_output():
    data = run_json("decompose", "--n", "4", "--k", "2")
    assert data["passed"] is True
    assert data["eulerian"] == 11
    types = sorted(tuple(m["module_type"]) for m in data["modules"])
    assert types == [(2, 2), (3, 1), (4,)]


def test_decompose_emit_basis():
    data = run_json("decompose", "--n", "4", "--k", "1", "--emit-basis")
    assert data["passed"] is True
    # one ordinary vector per coset, eleven in total across the modules
    assert len(data["basis_vectors"]) == 11


@pytest.mark.parametrize("n", range(1, 7))
def test_emit_basis_prints_the_recomputed_orbits(n, capsys):
    # the rows the direct-sum rank read, against a second build of each orbit
    from gkmhess import cli
    from gkmhess.decomp import coset_orbit_vectors, sigma_hat_vector
    from gkmhess.dot import degree_basis, generator_matrix
    from gkmhess.gkm import HessenbergFunction
    from gkmhess.perms import Permutation

    h = HessenbergFunction.permutohedral(n)
    for k in range(n):
        assert cli.main(["decompose", "--n", str(n), "--k", str(k), "--emit-basis"]) == 0
        data = json.loads(capsys.readouterr().out)
        matrices = {i: generator_matrix(i, k, h) for i in range(1, n)}
        basis = degree_basis(h, k)
        expected = []
        for module in data["modules"]:
            w = Permutation.from_one_line(module["generator"])
            for v in coset_orbit_vectors(w, sigma_hat_vector(w, matrices), matrices):
                expected.append({str(basis[j]): str(c) for j, c in sorted(v.items())})
        assert data["basis_vectors"] == expected


def test_chromatic_output():
    data = run_json("chromatic", "--n", "3", "--h", "3,3,3", "--basis", "e")
    assert data["by_degree"][0] == {"e[3]": "1"}
    assert data["by_degree"][1] == {"e[3]": "2"}


def test_verify_suite_exit_codes():
    proc = run_cli("verify", "wz", "--n", "4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True


def test_usage_error_exit_code():
    proc = run_cli("support", "--bogus-flag")
    assert proc.returncode == 2


@pytest.mark.parametrize("h", ["permutohedral", "fullflag"])
def test_named_h_without_n_is_a_usage_error(h, capsys):
    from gkmhess import cli

    assert cli.main(["gkm-graph", "--h", h]) == 2
    assert "--n" in capsys.readouterr().err


def test_dot_generator_out_of_range_is_a_usage_error():
    for extra in (("--permutohedral",), ("--h", "2,3,4,4")):
        for gen in ("0", "4"):
            proc = run_cli("dot", "--w", "1234", "--gen", gen, *extra)
            assert proc.returncode == 2
            assert "--gen" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["class", "--w", "123", "--h", "2,3,4,4"],
    ["support", "--h", "2,3,4,4", "--w", "12"],
    ["cell-chart", "--w", "12345", "--h", "2,3,4,4"],
    ["dot", "--w", "123", "--gen", "1", "--h", "2,3,4,4"],
    ["action-matrix", "--perm", "213", "--h", "2,3,4,4", "--k", "1"],
], ids=lambda argv: argv[0])
def test_permutation_length_must_match_h(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    flag = "--perm" if "--perm" in argv else "--w"
    length = len(argv[argv.index(flag) + 1])
    assert f"{flag} has length {length} but --h has length 4" in err


@pytest.mark.parametrize("k", ["-1", "4", "9"])
def test_action_matrix_degree_out_of_range_is_a_usage_error(k, capsys):
    from gkmhess import cli

    argv = ["action-matrix", "--k", k, "--perm", "2134", "--h", "permutohedral"]
    assert cli.main(argv) == 2
    assert f"degree {k} outside [0,3]" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_decompose_nonpositive_n_is_a_usage_error(n, capsys):
    from gkmhess import cli

    assert cli.main(["decompose", "--n", n, "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert f"argument --n: must be at least 1, got {n}" in err
    assert "degree" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "decomposition", "--n", "0"],
    ["verify", "all", "--n", "-3"],
    ["chromatic", "--n", "0", "--h", "permutohedral"],
    ["gkm-graph", "--n", "0", "--h", "permutohedral"],
    ["gkm-graph", "--n", "-2", "--h", "fullflag"],
    ["support", "--n", "0", "--h", "permutohedral", "--w", "1"],
    ["class", "--n", "0", "--w", "1", "--permutohedral"],
    ["expand", "--n", "-1", "--input", "class.json", "--h", "permutohedral"],
    ["dot", "--n", "0", "--w", "1", "--gen", "1", "--permutohedral"],
    ["action-matrix", "--n", "0", "--k", "0", "--perm", "1"],
], ids=["verify-decomposition", "verify-all", "chromatic", "gkm-graph", "gkm-graph-negative",
        "support", "class", "expand", "dot", "action-matrix"])
def test_nonpositive_n_is_a_usage_error(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument --n: must be at least 1, got {argv[argv.index('--n') + 1]}" in err


@pytest.mark.parametrize("argv,message", [
    (["--min-n", "3", "--max-n", "2"], "--min-n 3 is above --max-n 2"),
    (["--min-n", "0", "--max-n", "2"], "argument --min-n: must be at least 1, got 0"),
    (["--max-n", "-1"], "argument --max-n: must be at least 1, got -1"),
], ids=["empty-range", "zero-min", "negative-max"])
def test_verification_script_rejects_an_empty_or_nonpositive_range(argv, message):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    proc = run_python(str(script), *argv, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


def _decomposition_table():
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "decomposition_table.py"
    spec = importlib.util.spec_from_file_location("decomposition_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", ["0", "-2"])
def test_decomposition_table_rejects_a_nonpositive_n(n):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "decomposition_table.py"
    proc = run_python(str(script), "--n", n, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --n: must be at least 1, got {n}" in proc.stderr


def test_decomposition_table_passes_and_totals_n_factorial(capsys):
    assert _decomposition_table().main(["--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert out.endswith("total dimension: 24\n")


def test_decomposition_table_exits_1_on_a_failed_degree(monkeypatch, capsys):
    table = _decomposition_table()
    verify = table.verify_decomposition

    def broken(n, k):
        report = verify(n, k)
        if k == 1:
            report.direct_sum = False
        return report

    monkeypatch.setattr(table, "verify_decomposition", broken)
    assert table.main(["--n", "3"]) == 1
    assert "degree 2*1: dim 4 (FAILED)" in capsys.readouterr().out


def test_decomposition_table_exits_1_when_the_total_is_not_n_factorial(monkeypatch, capsys):
    # every degree passes its own check, but one counts a dimension too many
    table = _decomposition_table()
    verify = table.verify_decomposition

    def inflated(n, k):
        report = verify(n, k)
        if k == 0:
            report.total_dim += 1
            report.eulerian += 1
        return report

    monkeypatch.setattr(table, "verify_decomposition", inflated)
    assert table.main(["--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "(FAILED)" not in out
    assert out.endswith("total dimension: 7\nFAILED: the total is not 3! = 6\n")


@pytest.mark.parametrize("argv", [
    ["class", "--w", "", "--permutohedral"],
    ["class", "--w", "", "--h", "fullflag"],
    ["support", "--w", "", "--h", "permutohedral"],
    ["cell-chart", "--w", "", "--h", "permutohedral"],
    ["dot", "--w", "", "--permutohedral", "--gen", "1"],
    ["action-matrix", "--perm", "", "--k", "0"],
], ids=["class-permutohedral", "class-fullflag", "support", "cell-chart", "dot",
        "action-matrix"])
def test_empty_permutation_is_a_usage_error(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    flag = "--perm" if "--perm" in argv else "--w"
    assert f"argument {flag}: the permutation is empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", range(16))
def test_geometry_suites_match_the_benchmark_reference(seed, capsys):
    # the supports, minors and poincare checks of ``verify all --n 5`` as the
    # benchmark recorded them, for every seed it runs
    from gkmhess import cli

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    [recorded] = json.loads(path.read_text(encoding="utf-8"))["verify-all-n5"][str(seed)]
    checks = {c["name"]: c for c in json.loads(recorded["stdout"])["checks"]}
    for suite in ("supports", "minors", "poincare"):
        assert cli.main(["verify", suite, "--n", "5", "--seed", str(seed)]) == 0
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert check == checks[suite]


@pytest.mark.parametrize("seed", range(16))
def test_sw_suite_matches_the_benchmark_reference(seed, capsys):
    # the sw check of ``verify all --n 5`` as the benchmark recorded it
    from gkmhess import cli

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    [recorded] = json.loads(path.read_text(encoding="utf-8"))["verify-all-n5"][str(seed)]
    checks = {c["name"]: c for c in json.loads(recorded["stdout"])["checks"]}
    assert cli.main(["verify", "sw", "--n", "5", "--seed", str(seed)]) == 0
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check == checks["sw"]


def test_sw_degrees_match_the_benchmark_reference():
    from gkmhess.chromatic import verify_shareshian_wachs
    from gkmhess.gkm import HessenbergFunction

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))["sw-n4"]["-"]
    report = verify_shareshian_wachs(HessenbergFunction.permutohedral(4))
    assert [{"k": k, "agree": ok} for k, ok in enumerate(report.per_degree)] == recorded


def test_poincare_at_n4_matches_the_geometry_reference():
    from gkmhess import cli

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))["geometry-n4"]
    for seed, items in recorded.items():
        [item] = [item for item in items if item["name"] == "poincare"]
        result = cli.verify_poincare(4, cli.RunConfig(seed=int(seed)))
        assert {key: result.get(key) for key in item} == item


# Each fault runs in a fresh interpreter, so nothing built from it outlives
# it: not the cached table or degree bases, nor the flow-up classes and
# matrices that the other suites hold per h.  The first two faults sit on
# the two independent derivations of the Betti numbers: the inversion table
# that the degree bases are read from, and the masks that verify_poincare
# derives itself and counts out-degrees from.  The others plant a wrong
# entry in s_1's matrix, a wrong flow-up or permutohedral class, one wrong
# root product of a permutohedral class, or one with an extra root, a root
# product that keeps its sign when a pair is swapped, a dropped auxiliary
# summand, a mirror of the t = 0 recursion that is not conjugated back, a
# vanishing root left out of one vertex system of an interpolation, a wrong
# module type count, a wrong lattice permutation, a lattice label one too
# high, a support short of one point, a reachable minor read as 0 and a
# wrong minus-cell chart entry.  Each command prints its suite, its exit code
# and either the verdict and failed checks of its report or, with no report,
# its error line.
_PLANT_FAULT = """
import contextlib, importlib, io, json, sys
from gkmhess.classes import InterpolationResult, RootProduct
from gkmhess.gkm import HessenbergFunction
from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly

# the package's own ``dot`` is the function, so the modules come by name
cells, chromatic, classes, cli, decomp, dot, gkm, reach = (
    importlib.import_module(f"gkmhess.{name}")
    for name in ("cells", "chromatic", "classes", "cli", "decomp", "dot", "gkm", "reach"))


def inversion_table(w, j, i):
    perms, masks = gkm._inversion_table(5)
    masks[perms.index(Permutation.from_one_line(w))] ^= gkm.mask_of_pairs([(int(j), int(i))], 5)


def length_drops(w, j, i):
    derive = cli._inversion_masks
    index = tuple(Permutation.all(5)).index(Permutation.from_one_line(w))

    def faulty(n):
        masks = derive(n)
        masks[index] ^= gkm.mask_of_pairs([(int(j), int(i))], 5)
        return masks
    cli._inversion_masks = faulty


def s1_matrix():
    # add 1 to the entry at row 1, column 0 of s_1's permutohedral t = 0
    # matrix, in every degree of dimension at least 2
    exact = dot.generator_matrix

    def faulty(i, k, h):
        matrix = exact(i, k, h)
        if i == 1 and h.is_permutohedral() and len(matrix.basis_order) > 1:
            columns = list(matrix.columns)
            columns[0] = {**columns[0], 1: columns[0].get(1, 0) + 1}
            matrix = dot.ActionMatrix(matrix.basis_order, columns)
        return matrix
    for module in (chromatic, cli, decomp, dot):
        module.generator_matrix = faulty


def s2_column(w):
    # s_2 . sigma_w read as sigma_w itself, where 2 and 3 stand apart in w
    # and the class moves to sigma_{s_2 w}: one one-term column of every s_2
    # permutohedral matrix, and one move of the t = 0 recursion; the rank of
    # the image for the letter 2 becomes w's own
    exact, w_0 = dot._one_term_ranks, Permutation.from_one_line(w)

    def faulty(v, rank):
        ranks = exact(v, rank)
        if v == w_0:
            ranks[1] = rank
        return ranks
    dot._one_term_ranks = faulty


def type_multiset():
    # one more module of type (5,) in degree 2 at n = 5 than the decomposition has
    exact = decomp.expected_type_multiset

    def faulty(n, k):
        types = exact(n, k)
        return {**types, (5,): types[(5,)] + 1} if (n, k) == (5, 2) else types
    decomp.expected_type_multiset = faulty


def wz_label():
    # every lattice edge label one too high, which leaves [1, n - 1]
    exact = decomp._block_edge_label
    decomp._block_edge_label = lambda block, z_j, j: exact(block, z_j, j) + 1


def wz_s1():
    # every lattice permutation composed with s_1, which stays in range
    exact = decomp.w_z
    decomp.w_z = lambda a, z: Permutation.simple(1, a.n) * exact(a, z)


def flow_up_class(w, h, v):
    # add the class of v to the flow-up class of (w, h)
    exact, h_0 = dot.flow_up_class, HessenbergFunction.from_string(h)
    w_0, top = Permutation.from_one_line(w), Permutation.from_one_line(v)

    def faulty(w, h):
        result = exact(w, h)
        if (w, h) == (w_0, h_0):
            result = InterpolationResult(result.cls + exact(top, h).cls, result.free_parameters)
        return result
    for module in (cli, dot):
        module.flow_up_class = faulty


def quotient_label(h, w, u, a, b):
    # the off-support label t_a - t_b left out of the vanishing roots at the
    # point u of the flow-up class of (w, h): the vertex system of u, which
    # interpolate_class solves with (h, w, u) among its locals, loses that
    # edge condition
    exact = classes._solve_vertex
    point = (HessenbergFunction.from_string(h), Permutation.from_one_line(w),
             Permutation.from_one_line(u))
    label = (int(a), int(b))

    def faulty(n, degree, constraints, next_param):
        caller = sys._getframe(1).f_locals
        if (caller["h"], caller["w"], caller["u"]) == point:
            constraints = [c for c in constraints if c[:2] != label]
        return exact(n, degree, constraints, next_param)
    classes._solve_vertex = faulty


def permutohedral_class(w):
    # add the class of the longest permutation to the permutohedral class of
    # w, in the root products that the classes and dot-rules suites read; the
    # two supports are disjoint, so the sum is the union of the values
    exact, w_0 = cli.permutohedral_root_products, Permutation.from_one_line(w)
    top = Permutation.longest(len(w_0))

    def faulty(v):
        return {**exact(v), **exact(top)} if v == w_0 else exact(v)
    cli.permutohedral_root_products = faulty


def root_value(change, w, v):
    # one root product of the permutohedral class of w changed at the point
    # v: its sign flipped, or its first factor t_a - t_b made t_a - t_(b-1)
    exact = cli.permutohedral_root_products
    w_0, v_0 = Permutation.from_one_line(w), Permutation.from_one_line(v)

    def faulty(u):
        values = exact(u)
        if u == w_0:
            sign, ((a, b), *rest) = values[v_0]
            if change == "sign":
                values[v_0] = RootProduct(-sign, values[v_0].pairs)
            else:
                values[v_0] = RootProduct.of_labels([(a, b - 1), *rest], sign)
        return values
    cli.permutohedral_root_products = faulty


def extra_root(w, v, a, b):
    # the root product of the permutohedral class of w at the point v, as
    # the classes and dot-rules suites read it, times t_a - t_b
    exact = cli.permutohedral_root_products
    w_0, v_0 = Permutation.from_one_line(w), Permutation.from_one_line(v)
    root = RootProduct.of_labels([(int(a), int(b))])

    def faulty(u):
        values = exact(u)
        if u == w_0:
            values[v_0] = values[v_0] * root
        return values
    cli.permutohedral_root_products = faulty


def of_labels_sign():
    # a swapped pair t_b - t_a read as t_a - t_b, its sign change dropped
    exact = RootProduct.of_labels
    RootProduct.of_labels = classmethod(
        lambda cls, labels, sign=1: exact([(min(ab), max(ab)) for ab in labels], sign))


def aux_summand(w, i):
    # the last auxiliary summand of (w, i) dropped from the master identity
    exact, key = cli.auxiliary_terms, (Permutation.from_one_line(w), int(i))
    cli.auxiliary_terms = lambda v, j: exact(v, j)[:-1] if (v, j) == key else exact(v, j)


def recursion_summand(w, i):
    # the last auxiliary summand of (w, i) dropped from the t = 0 recursion
    # alone; the master identity reads its own binding, which stays exact
    exact, key = dot.auxiliary_terms, (Permutation.from_one_line(w), int(i))
    dot.auxiliary_terms = lambda v, j: exact(v, j)[:-1] if (v, j) == key else exact(v, j)


def mirror_unconjugated():
    # a letter i above n/2 read off (w0 w, n - i), keys mapped by w0 alone,
    # in place of the conjugate w0 w w0
    dot._mirror = lambda w: Permutation.longest(len(w)) * w


def support_point(w, h):
    # the largest point dropped from the support of (w, h)
    exact = cli.support_A
    key = (Permutation.from_one_line(w), HessenbergFunction.from_string(h))

    def faulty(v, g):
        result = exact(v, g)
        if (v, g) == key:
            result = result - {max(result)}
        return result
    cli.support_A = faulty


def reach_recursion():
    # every source also reaches the largest element of the universe, so the
    # recursion accepts that element as a candidate whether reached or not
    exact = reach._reachable_subsets

    def faulty(source_reach, within):
        top = 1 << within.bit_length() >> 1
        return exact([r | top for r in source_reach], within)
    reach._reachable_subsets = faulty


def zero_minor(w, h, rows, cols):
    # the minor of the chart of (w, h) on rows x cols read as 0 at every
    # choice of eigenvalues
    exact = cells.minor_symbolic
    key = (Permutation.from_one_line(w), HessenbergFunction.from_string(h),
           tuple(map(int, rows.split(","))), tuple(map(int, cols.split(","))))

    def faulty(chart, r, c):
        if (chart.w, chart.h, tuple(r), tuple(c)) == key:
            return MultiPoly.zero(chart.nvars)
        return exact(chart, r, c)
    cells.minor_symbolic = faulty


def chart_entry(w_1):
    # the first nonzero dependent entry doubled in every chart with w(1) = w_1
    exact = cells.CellChart._build

    def faulty(chart):
        exact(chart)
        if chart.w(1) == int(w_1):
            for pair, entry in chart.entries.items():
                if pair not in chart._var_index and not entry.is_zero:
                    chart.entries[pair] = entry * 2
                    break
    cells.CellChart._build = faulty


fault, *args = sys.argv[1].split()
globals()[fault.replace("-", "_")](*args)
for command in sys.argv[2:]:
    # a verify suite and its options, or "gkmhess ..." for any command,
    # whose exit code and standard output are printed as they are
    argv = command.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[1:] if argv[0] == "gkmhess" else ["verify", *argv])
    suite = argv[0]
    if suite == "gkmhess":
        print(code, out.getvalue().strip())
    elif out.getvalue():
        report = json.loads(out.getvalue())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(suite, code, report["passed"], ",".join(failed))
        if err.getvalue():  # a suite raised after the report was printed
            print(suite, code, err.getvalue().strip())
    else:
        print(suite, code, err.getvalue().strip())
"""


def _run_with_fault(fault, *commands):
    proc = run_python("-c", _PLANT_FAULT, fault, *commands)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _assert_all_fails(line, check):
    suite, code, passed, failed = line.split()
    assert (suite, code, passed) == ("all", "1", "False")
    assert check in failed.split(",")


@pytest.mark.parametrize("layer", ["inversion-table", "length-drops"])
def test_poincare_catches_a_planted_fault(layer):
    # 14532 inverts neither (1, 5) nor (1, 4); the fault claims it does
    pair = "1 5" if layer == "inversion-table" else "1 4"
    lines = _run_with_fault(f"{layer} 14532 {pair}", "poincare --n 5", "all --n 5")
    assert lines[0] == "poincare 1 False poincare"
    _assert_all_fails(lines[1], "poincare")


def test_coxeter_catches_a_wrong_s1_matrix():
    # verify decomposition trusts the matrices, so it is not asserted here;
    # the traces of Shareshian-Wachs read them too
    lines = _run_with_fault("s1-matrix", "coxeter --n 5", "sw --n 5", "all --n 5")
    assert lines[:2] == ["coxeter 1 False coxeter", "sw 1 False sw"]
    _assert_all_fails(lines[2], "coxeter")
    _assert_all_fails(lines[2], "sw")


def test_coxeter_and_sw_catch_a_one_term_column_that_stays():
    # 2 and 3 are apart in 31425, so s_2 moves its class to that of 21435
    lines = _run_with_fault("s2-column 31425", "coxeter --n 5", "sw --n 5", "all --n 5")
    assert lines[:2] == ["coxeter 1 False coxeter", "sw 1 False sw"]
    _assert_all_fails(lines[2], "coxeter")
    _assert_all_fails(lines[2], "sw")


def test_classes_catch_a_wrong_permutohedral_class():
    # the root products of 2143 gain the point 4321, outside its support
    lines = _run_with_fault("permutohedral-class 2143", "classes --n 4", "all --n 4")
    assert lines[0] == "classes 1 False classes"
    _assert_all_fails(lines[1], "classes")


@pytest.mark.parametrize("change", ["sign", "factor"])
def test_classes_catch_one_wrong_root_product(change, monkeypatch):
    # 2413 is the other point of the class of 2143, where the value is
    # (t1 - t3)(t2 - t4); the factor fault makes it (t1 - t2)(t2 - t4)
    lines = _run_with_fault(f"root-value {change} 2143 2413", "classes --n 4", "all --n 4")
    assert lines[0] == "classes 1 False classes"
    _assert_all_fails(lines[1], "classes")
    # the divisibility along the edge 2143 - 2413, labelled t4 - t1, is the
    # first check to fail; the smooth-point value alone would fail later
    from gkmhess import cli
    from gkmhess.classes import RootProduct
    from gkmhess.perms import Permutation

    exact, v_0 = cli.permutohedral_root_products, Permutation.from_one_line("2413")
    wrong = {"sign": RootProduct(-1, ((1, 3), (2, 4))),
             "factor": RootProduct(1, ((1, 2), (2, 4)))}[change]
    monkeypatch.setattr(cli, "permutohedral_root_products",
                        lambda u: {**exact(u), v_0: wrong} if str(u) == "2143" else exact(u))
    assert exact(Permutation.from_one_line("2143"))[v_0] == RootProduct(1, ((1, 3), (2, 4)))
    assert cli.verify_classes(4, cli.RunConfig())["failures"] == [{"w": "2143", "kind": "gkm"}]


def test_dot_rules_catch_a_dropped_auxiliary_summand():
    # the last summand of (2143, 1) is 3214 . sigma_2431, the one the
    # identity relabels by its mover
    lines = _run_with_fault("aux-summand 2143 1", "dot-rules --n 4", "all --n 4")
    assert lines[0] == "dot-rules 1 False dot-rules"
    _assert_all_fails(lines[1], "dot-rules")


def test_matrix_suites_catch_a_dropped_recursion_summand():
    # the same summand as aux-summand, dropped from the t = 0 recursion that
    # the permutohedral matrices read; dot-rules keeps its own exact walk,
    # and the polynomial expansion of dot --permutohedral does not run the
    # recursion, so its output stays as it is
    dot_2143 = "gkmhess dot --permutohedral --w 2143 --gen 1"
    lines = _run_with_fault("recursion-summand 2143 1", "all --n 4", dot_2143)
    assert lines[0] == "all 1 False coxeter,decomposition,sw"
    exact = run_cli(*dot_2143.split()[1:])
    assert exact.returncode == 0
    assert lines[1] == f"0 {exact.stdout.strip()}"


def test_coxeter_and_sw_catch_a_mirror_that_is_not_conjugated():
    # w0 w has n - 1 - k descents where w has k, so the mirror list of the
    # first degree built names an image outside it, and every suite that
    # reads a permutohedral matrix stops on that broken invariant (exit 1);
    # each report names the suite that raised as failed, before the error line
    lines = _run_with_fault("mirror-unconjugated", "coxeter --n 5", "sw --n 5", "all --n 5")
    error = "error: internal AssertionError: phi(12345) leaves degree 0: it reaches 54321"
    assert lines == ["coxeter 1 False coxeter", f"coxeter 1 {error}",
                     "sw 1 False sw", f"sw 1 {error}",
                     "all 1 False coxeter", f"all 1 {error}"]


def test_dot_rules_catch_a_swapped_pair_that_keeps_its_sign():
    lines = _run_with_fault("of-labels-sign", "dot-rules --n 4", "all --n 4")
    assert lines[0] == "dot-rules 1 False dot-rules"
    _assert_all_fails(lines[1], "dot-rules")


def test_dot_rules_catch_an_extra_root_on_the_expanded_path(monkeypatch):
    # 3214 . sigma_2431 is the last summand of (2143, 1); the value of 2431's
    # class at 4231 gains the root t1 - t2
    lines = _run_with_fault("extra-root 2431 4231 1 2", "dot-rules --n 4", "all --n 4")
    assert lines[0] == "dot-rules 1 False dot-rules"
    _assert_all_fails(lines[1], "dot-rules")
    # the master identity expands no root product at n = 4, but a point that
    # the extra root reaches is decided on the expanded rests
    from gkmhess import cli
    from gkmhess.classes import RootProduct
    from gkmhess.perms import Permutation

    expanded = []
    expand = RootProduct.expand
    monkeypatch.setattr(RootProduct, "expand",
                        lambda self, n: expanded.append(self) or expand(self, n))
    descents = [(w, i) for w in Permutation.all(4) for i in range(1, 4)
                if w.inverse()(i + 1) + 1 == w.inverse()(i)]
    assert all(cli._master_identity_holds(w, i) for w, i in descents) and not expanded
    exact, w_0 = cli.permutohedral_root_products, Permutation.from_one_line("2431")
    v_0, root = Permutation.from_one_line("4231"), RootProduct.of_labels([(1, 2)])
    monkeypatch.setattr(cli, "permutohedral_root_products",
                        lambda u: {**exact(u), v_0: exact(u)[v_0] * root} if u == w_0 else exact(u))
    for w, i in descents:
        expanded.clear()
        if not cli._master_identity_holds(w, i):
            assert expanded
    assert not cli._master_identity_holds(Permutation.from_one_line("2143"), 1)


def test_dot_rules_catch_a_wrong_flow_up_class():
    lines = _run_with_fault("flow-up-class 2143 2,3,4,4 4321", "dot-rules --n 4", "all --n 4")
    assert lines[0] == "dot-rules 1 False dot-rules"
    _assert_all_fails(lines[1], "dot-rules")


def test_sw_catches_a_wrong_general_flow_up_class():
    # 14325 is longer than 21435 and of the same degree 2 under 3,3,4,5,5,
    # so adding its class changes the basis unitriangularly and the traces
    # agree; the support of the sum is not that of 21435
    lines = _run_with_fault("flow-up-class 21435 3,3,4,5,5 14325", "sw --n 5 --h 3,3,4,5,5",
                            "all --n 5 --h 3,3,4,5,5")
    assert lines[0] == "sw 1 False sw"
    _assert_all_fails(lines[1], "sw")


def test_dot_rules_and_sw_catch_a_vanishing_root_left_out():
    # 2143 under 2,3,3,4 has the support {2143, 2413}; at 2413 the edge to
    # 4213, labelled t4 - t2, leaves it.  Without that root the value at
    # 2413 gains a free parameter and comes out t1 - t2, not t4 - t2, which
    # does not vanish across the edge: the dashed rule fails at (2143, 3),
    # among others
    lines = _run_with_fault("quotient-label 2,3,3,4 2143 2413 4 2", "dot-rules --n 4",
                            "all --n 4")
    assert lines[0] == "dot-rules 1 False dot-rules"
    _assert_all_fails(lines[1], "dot-rules")
    # the same fault at 32514, the edge to 52314 labelled t5 - t3, in the
    # class of 32154 under 3,3,4,5,5: the s_i images would leave the span of
    # the basis, but the suite checks the classes before it expands them, so
    # it reports the h as failed instead of stopping on the expansion's error
    lines = _run_with_fault("quotient-label 3,3,4,5,5 32154 32514 5 3",
                            "sw --n 5 --h 3,3,4,5,5", "all --n 5 --h 3,3,4,5,5")
    assert lines == ["sw 1 False sw", "all 1 False sw"]


def test_genfunc_and_decomposition_catch_a_wrong_type_multiset():
    lines = _run_with_fault("type-multiset", "genfunc --n 5", "decomposition --n 5", "all --n 5")
    assert lines[:2] == ["genfunc 1 False genfunc", "decomposition 1 False decomposition"]
    _assert_all_fails(lines[2], "genfunc")
    _assert_all_fails(lines[2], "decomposition")


def test_wz_catches_a_wrong_lattice_permutation():
    lines = _run_with_fault("wz-s1", "wz --n 5", "all --n 5")
    assert lines[0] == "wz 1 False wz"
    _assert_all_fails(lines[1], "wz")


def test_wz_exits_1_on_a_lattice_label_out_of_range():
    # a broken invariant of the maths, not a usage error: exit 1, not 2;
    # each report names wz as failed, and the error line follows it
    lines = _run_with_fault("wz-label", "wz --n 5", "all --n 5")
    assert len(lines) == 4
    for reported, error, suite in zip(lines[::2], lines[1::2], ("wz", "all")):
        assert reported == f"{suite} 1 False wz"
        assert error.startswith(f"{suite} 1 error: internal AssertionError: label 5 of ")


def test_verify_all_reports_the_suites_before_one_that_raises():
    # verify all prints the ten suites that finished, all passing, and wz
    # as failed with the exception that stopped it, then exits 1
    [line] = _run_with_fault("wz-label", "gkmhess verify all --n 5")
    code, stdout = line.split(" ", 1)
    report = json.loads(stdout)
    assert code == "1" and report["passed"] is False
    *finished, raised = report["checks"]
    assert [c["name"] for c in finished] == [
        "supports", "minors", "cell-charts", "classes", "poincare", "dot-rules",
        "coxeter", "decomposition", "genfunc", "sw"]
    assert all(c["passed"] for c in finished)
    assert set(raised) == {"name", "passed", "error"}
    assert raised["name"] == "wz" and raised["passed"] is False
    assert raised["error"].startswith("AssertionError: label 5 of ")


def test_supports_catch_a_missing_support_point():
    # 2143 has two points under 2,3,4,4: 2143 itself and 2413, the one dropped
    lines = _run_with_fault("support-point 2143 2,3,4,4", "supports --n 4", "all --n 4")
    assert lines[0] == "supports 1 False supports"
    _assert_all_fails(lines[1], "supports")


def test_minors_catch_a_reachable_minor_read_as_zero():
    # column 1 reaches row 2 along the edge 1 -> 2 of the digraph of 1234 under 2,3,4,4
    lines = _run_with_fault("zero-minor 1234 2,3,4,4 2 1", "minors --n 4", "all --n 4")
    assert lines[0] == "minors 1 False minors"
    _assert_all_fails(lines[1], "minors")


def test_supports_and_minors_catch_a_wrong_reachability_recursion():
    # the fault only adds reachable sets: one it dropped would give a nonzero
    # minor on an unreachable pair, which raises instead of failing a check
    lines = _run_with_fault("reach-recursion", "supports --n 4", "minors --n 4", "all --n 4")
    assert lines[:2] == ["supports 1 False supports", "minors 1 False minors"]
    _assert_all_fails(lines[2], "supports")
    _assert_all_fails(lines[2], "minors")


def test_cell_charts_catch_a_wrong_chart_entry():
    lines = _run_with_fault("chart-entry 3", "cell-charts --n 4", "all --n 4")
    assert lines[0] == "cell-charts 1 False cell-charts"
    _assert_all_fails(lines[1], "cell-charts")


def _cell_chart_failures_one_chart_each(n, config):
    """The cell-charts suite's failure list with one chart per instance: the
    reference for the suite, which builds one chart per w and cell digraph."""
    from gkmhess import cli
    from gkmhess.cells import (build_cell_chart, minimal_path_coefficient, minimal_paths,
                               path_monomial_exponents, prime_eigenvalues)

    c = prime_eigenvalues(n)
    failures = []
    for h, w in cli._cell_instances(n, config, 5, 500):
        chart = build_cell_chart(w, h, c)
        bad = chart.consistency_violations()
        if bad:
            failures.append({"w": str(w), "h": str(h), "pairs": bad[:3]})
            continue
        for j in range(1, n + 1):
            for i in range(j + 1, n + 1):
                for path in minimal_paths(chart.digraph, j, i):
                    mono = path_monomial_exponents(chart, path)
                    if (Fraction(chart.entry(i, j).coefficient(mono))
                            != minimal_path_coefficient(path, w, c)):
                        failures.append({"w": str(w), "h": str(h), "path": path})
    return failures


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("fault", ["chart-entry", "equation-4-1"])
def test_grouped_cell_charts_report_the_per_instance_failures(n, fault, monkeypatch):
    # chart-entry is the planted fault of the harness above: at n = 4 its
    # failures are the three members of one group.  equation-4-1
    # makes f_{4,1} nonzero, which fails an instance's consistency when
    # h(1) < 4 and w(4) < w(1), and passes the members of the same group
    # with h(1) = 4
    from gkmhess import cells, cli

    if fault == "chart-entry":
        exact = cells.CellChart._build

        def faulty(chart):
            exact(chart)
            if chart.w(1) == 3:
                for pair, entry in chart.entries.items():
                    if pair not in chart._var_index and not entry.is_zero:
                        chart.entries[pair] = entry * 2
                        break
        monkeypatch.setattr(cells.CellChart, "_build", faulty)
    else:
        exact = cells.CellChart.defining_equation

        def faulty(chart, alpha, beta):
            f = exact(chart, alpha, beta)
            return f + chart.entry(1, 1) if (alpha, beta) == (4, 1) else f
        monkeypatch.setattr(cells.CellChart, "defining_equation", faulty)
    config = cli.RunConfig()
    expected = _cell_chart_failures_one_chart_each(n, config)
    assert expected
    instances = cli._cell_instances(n, config, 5, 500)
    assert cli._cell_chart_failures(instances, cells.prime_eigenvalues(n)) == expected
    assert cli.verify_cell_charts(n, config) == {
        "name": "cell-charts", "passed": False, "instances": {4: 336, 5: 5040}[n],
        "failures": expected[:5],
    }


def test_decomposition_names_a_permutation_outside_the_degree_basis(monkeypatch):
    # without the inversion (1, 2), 54321 leaves the top degree 4 (h has four
    # pairs) for degree 3, but it still generates degree 4: a failed check,
    # so verify all prints its report
    lines = _run_with_fault("inversion-table 54321 1 2", "decomposition --n 5", "all --n 5")
    assert lines == ["decomposition 1 False decomposition",
                     "all 1 False poincare,decomposition,sw"]
    # the failure names the generator; here the basis the decomposition
    # reads lacks it, and the matrices stay exact
    from gkmhess import cli, decomp
    from gkmhess.perms import Permutation

    exact, top = decomp.degree_basis, Permutation.longest(5)
    monkeypatch.setattr(decomp, "degree_basis",
                        lambda h, k: tuple(w for w in exact(h, k) if w != top))
    assert decomp.verify_decomposition(5, 4).outside_basis == [top]
    assert cli.verify_decomposition_suite(5, cli.RunConfig())["failures"] == [
        {"k": 4, "reason": "generator 54321 lies outside the degree-4 basis"}]


@pytest.mark.parametrize("error", ["AssertionError", "TheoremViolationError",
                                   "IndexError", "OverflowError"])
def test_internal_assertion_error_exits_one(error, monkeypatch, capsys):
    from gkmhess import cells, cli

    def broken(n, config):
        raise {"AssertionError": AssertionError,
               "TheoremViolationError": cells.TheoremViolationError,
               "IndexError": IndexError,
               "OverflowError": OverflowError}[error]("planted")

    monkeypatch.setitem(cli.SUITES, "poincare", broken)
    assert cli.main(["verify", "poincare", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: internal {error}: planted\n"
    # the report names the suite that raised, and nothing passed
    assert json.loads(captured.out) == {
        "schema": 1, "suite": "poincare", "n": 3, "seed": 0, "passed": False,
        "checks": [{"name": "poincare", "passed": False, "error": f"{error}: planted"}]}


def test_a_usage_error_inside_a_suite_exits_two_with_no_report(capsys):
    # the inversion table's bound is reached inside the suite, through the
    # degree bases; a usage error prints no verdict, unlike an internal error
    from gkmhess import cli

    assert cli.main(["verify", "coxeter", "--n", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: inversion table needs n <= 11 "
                            "(C(n,2) bits in 64), got n = 12\n")


def test_sw_failure_names_the_function_with_a_null_flag(monkeypatch, capsys):
    from gkmhess import cli
    from gkmhess.chromatic import SwReport

    monkeypatch.setattr(cli, "verify_shareshian_wachs",
                        lambda h: SwReport(h=h, agree=False, per_degree=[False]))
    assert cli.main(["verify", "sw", "--n", "3", "--h", "2,3,3"]) == 1
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["failures"] == [{"h": "2,3,3", "flag": None}]


def test_repeated_value_in_w_is_a_usage_error():
    proc = run_cli("support", "--h", "2,3,4,4", "--w", "1123")
    assert proc.returncode == 2
    assert "not a permutation" in proc.stderr


def test_package_imports_without_numpy():
    code = "import sys, gkmhess, gkmhess.cli; print('numpy' in sys.modules)"
    proc = run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_subcommand_exit_code():
    proc = run_cli("frobulate")
    assert proc.returncode == 2


def test_determinism():
    args = ("support", "--n", "4", "--h", "2,3,4,4", "--w", "2143", "--seed", "5")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


@pytest.mark.parametrize(
    "golden,args",
    [
        ("support_24135.json", ("support", "--n", "5", "--h", "3,3,4,5,5", "--w", "24135")),
        ("gkm_graph_233.json", ("gkm-graph", "--n", "3", "--h", "2,3,3")),
        ("verify_wz_4.json", ("verify", "wz", "--n", "4", "--seed", "3")),
        # non-unique interpolations: pins the representative, not only the
        # flow-up contract
        ("class_1243_2444.json", ("class", "--w", "1243", "--h", "2,4,4,4")),
        ("class_2134_3344.json", ("class", "--w", "2134", "--h", "3,3,4,4")),
        ("class_1423_3444.json", ("class", "--w", "1423", "--h", "3,4,4,4")),
        ("class_2314_3444.json", ("class", "--w", "2314", "--h", "3,4,4,4")),
        ("class_21345_33455.json", ("class", "--w", "21345", "--h", "3,3,4,5,5")),
        # the orbit vectors of every module, in walk order
        ("decompose_4_2_basis.json", ("decompose", "--n", "4", "--k", "2", "--emit-basis")),
        ("decompose_5_2_basis.json", ("decompose", "--n", "5", "--k", "2", "--emit-basis")),
        ("gkm_graph_2344.json", ("gkm-graph", "--n", "4", "--h", "2,3,4,4")),
        # the permutohedral s_i action: the descent case, and ordinary matrices
        ("dot_21543_gen4.json", ("dot", "--permutohedral", "--w", "21543", "--gen", "4")),
        ("action_matrix_3142_k1.json",
         ("action-matrix", "--perm", "3142", "--k", "1", "--h", "permutohedral")),
        ("action_matrix_25143_k2.json",
         ("action-matrix", "--perm", "25143", "--k", "2", "--h", "permutohedral")),
        # the module table of the two largest degrees at n = 6
        ("decompose_6_3.json", ("decompose", "--n", "6", "--k", "3")),
        ("decompose_6_2.json", ("decompose", "--n", "6", "--k", "2")),
        # the whole verify battery at n = 3
        ("verify_all_3.json", ("verify", "all", "--n", "3", "--seed", "0")),
        # every chart at n = 5, and 500 sampled at n = 6
        ("verify_cell_charts_5.json", ("verify", "cell-charts", "--n", "5")),
        ("verify_cell_charts_6_seed3.json", ("verify", "cell-charts", "--n", "6", "--seed", "3")),
        # moved classes whose expansion runs past the first elimination step
        ("dot_2143_2344_gen1.json", ("dot", "--h", "2,3,4,4", "--w", "2143", "--gen", "1")),
        ("dot_21435_33455_gen1.json", ("dot", "--h", "3,3,4,5,5", "--w", "21435", "--gen", "1")),
    ],
)
def test_golden_outputs(golden, args):
    expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
    proc = run_cli(*args)
    assert proc.stdout == expected


def test_expand_class_size_must_match_h(tmp_path):
    data = run_json("class", "--permutohedral", "--w", "1324")
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    proc = run_cli("expand", "--input", str(path), "--h", "2,3,3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "the class has n = 4 but --h has length 3" in proc.stderr


@pytest.mark.parametrize("field", ["n", "values"])
def test_expand_class_file_missing_a_field_is_a_usage_error(field, tmp_path, capsys):
    from gkmhess import cli

    data = run_json("class", "--permutohedral", "--w", "1324")
    del data[field]
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    assert cli.main(["expand", "--input", str(path), "--h", "2,3,4,4"]) == 2
    assert f"no '{field}' field" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("12", "t1", "the class has n = 4 but the value key '12' has length 2"),
    ("1324", "t9", "unknown variable 't9': expected one of t1, t2, t3, t4"),
    ("1324", 5, "the class file's 'values' entry '1324' must be a string, not 5"),
    ("1324", "t1--t2", "cannot parse 't1--t2': a sign without a term"),
    ("1324", "1/0", "cannot parse '1/0': a zero denominator"),
], ids=["key-length", "unknown-variable", "non-string-value", "stray-sign", "zero-denominator"])
def test_expand_malformed_class_file_is_a_usage_error(key, value, message, tmp_path, capsys):
    from gkmhess import cli

    data = run_json("class", "--permutohedral", "--w", "1324")
    data["values"][key] = value
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    assert cli.main(["expand", "--input", str(path), "--h", "2,3,4,4"]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content,message", [
    ([4, {}], "does not hold a JSON object"),
    ({"n": 4, "values": ["t1"]}, "the class file's 'values' must be an object, not a list"),
    ({"n": "4", "values": {}}, "the class file's 'n' must be an integer >= 1, not '4'"),
    ({"n": True, "values": {}}, "the class file's 'n' must be an integer >= 1, not True"),
    ({"n": 0, "values": {}}, "the class file's 'n' must be an integer >= 1, not 0"),
], ids=["not-an-object", "values-list", "n-string", "n-bool", "n-zero"])
def test_expand_ill_typed_class_file_is_a_usage_error(content, message, tmp_path, capsys):
    from gkmhess import cli

    path = tmp_path / "class.json"
    path.write_text(json.dumps(content))
    assert cli.main(["expand", "--input", str(path), "--h", "2,3,4,4"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_internal_key_error_exits_one(monkeypatch, capsys):
    from gkmhess import cli

    def broken(args, config):
        raise KeyError("1324")

    monkeypatch.setattr(cli, "cmd_dot", broken)
    assert cli.main(["dot", "--permutohedral", "--w", "1324", "--gen", "1"]) == 1
    assert "error: internal KeyError: '1324'" in capsys.readouterr().err


def test_key_error_inside_a_flow_up_class_exits_one_as_internal(monkeypatch, capsys):
    # the on-demand basis passes a bug in building a class through; it is
    # not read as a class missing from the basis
    import importlib

    from gkmhess import cli

    def broken(w, h):
        raise KeyError(str(w))

    # the package's own ``dot`` is the function, so the module comes by name
    monkeypatch.setattr(importlib.import_module("gkmhess.dot"), "flow_up_class", broken)
    path = pathlib.Path(__file__).parent / "golden" / "class_2134_3344.json"
    assert cli.main(["expand", "--input", str(path), "--h", "3,3,4,4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: internal KeyError: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["class", "--permutohedral", "--w", "1324", "--n", "7"],
    ["dot", "--permutohedral", "--w", "1324", "--gen", "1", "--n", "7"],
], ids=lambda argv: argv[0])
def test_permutohedral_n_must_match_the_length_of_w(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "--w has length 4 but --h has length 7" in captured.err
    assert captured.out == ""
    assert cli.main(argv[:-1] + ["4"]) == 0


@pytest.mark.parametrize("h", ["2,4,4,4", "3,3,4,4", "3,4,4,4"])
def test_verify_sw_and_action_matrix_take_an_h_with_non_unique_classes(h, capsys):
    from gkmhess import cli

    assert cli.main(["verify", "sw", "--n", "4", "--h", h]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert cli.main(["action-matrix", "--perm", "2143", "--k", "1", "--h", h]) == 0
    assert json.loads(capsys.readouterr().out)["h"] == [int(v) for v in h.split(",")]


def _non_unique_class_file(tmp_path, capsys) -> tuple[dict, str]:
    """``class --w 1243 --h 2,4,4,4`` (not unique), as payload and as a file."""
    from gkmhess import cli

    assert cli.main(["class", "--w", "1243", "--h", "2,4,4,4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["unique"] is False
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    return data, str(path)


def test_expand_of_a_non_unique_class_is_its_own_basis_vector(tmp_path, capsys):
    from gkmhess import cli

    _data, path = _non_unique_class_file(tmp_path, capsys)
    assert cli.main(["expand", "--input", path, "--h", "2,4,4,4"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == {"1243": "1"}


def test_dot_on_a_non_unique_class_moves_its_representative(tmp_path, capsys):
    from gkmhess import cli
    from gkmhess.classes import EquivariantClass
    from gkmhess.dot import dot
    from gkmhess.perms import Permutation
    from gkmhess.polys import parse_poly

    data, _path = _non_unique_class_file(tmp_path, capsys)
    assert cli.main(["dot", "--w", "1243", "--h", "2,4,4,4", "--gen", "1"]) == 0
    moved = json.loads(capsys.readouterr().out)["values"]
    cls = EquivariantClass(4, {
        Permutation.from_one_line(v): parse_poly(p, 4) for v, p in data["values"].items()
    })
    expected = dot(Permutation.simple(1, 4), cls)
    assert moved == {str(v): str(p) for v, p in sorted(expected.values.items())}


@pytest.mark.parametrize("argv", [
    ["class", "--w", "1243", "--h", "2,4,4,4", "--permutohedral"],
    ["dot", "--w", "1243", "--h", "2,4,4,4", "--gen", "1", "--permutohedral"],
    ["class", "--w", "1243"],
    ["dot", "--w", "1243", "--gen", "1"],
], ids=["class-both", "dot-both", "class-neither", "dot-neither"])
def test_h_and_permutohedral_are_one_choice(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "--h" in captured.err and "--permutohedral" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eigenvalues,message", [
    ("1,2,x,4", "--eigenvalues 1,2,x,4: Invalid literal for Fraction: 'x'"),
    ("1,2,3,1/0", "--eigenvalues 1,2,3,1/0: a zero denominator"),
    ("1,1,2,3", "--eigenvalues 1,1,2,3: the value 1 repeats"),
    ("1,2,3", "--eigenvalues 1,2,3: 3 values for n = 4"),
], ids=["not-a-number", "zero-denominator", "repeated-value", "wrong-count"])
def test_cell_chart_bad_eigenvalues_are_a_usage_error(eigenvalues, message, capsys):
    from gkmhess import cli

    argv = ["cell-chart", "--eigenvalues", eigenvalues, "--w", "2413", "--h", "3,3,4,4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("h,message", [
    ("2,x", "--h 2,x: 'x' is not an integer"),
    ("", "--h : '' is not an integer"),
    ("3,2,3", "--h 3,2,3: not weakly increasing: (3, 2, 3)"),
    ("2,1,3", "--h 2,1,3: h(2) = 1 outside [2,3]"),
], ids=["not-an-integer", "empty", "not-increasing", "below-the-diagonal"])
def test_malformed_h_is_a_usage_error_that_names_the_option(h, message, capsys):
    from gkmhess import cli

    assert cli.main(["gkm-graph", "--h", h]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (("cell-chart", "--eigenvalues", "1,x", "--w", "2413", "--h", "3,3,4,4"),
     "error: --eigenvalues 1,x: Invalid literal for Fraction: 'x'\n"),
    (("dot", "--permutohedral", "--w", "1", "--gen", "1"),
     "error: --gen 1: n = 1 has no generator s_i\n"),
], ids=["cell-chart-eigenvalues", "dot-gen-at-n1"])
def test_usage_message_names_what_is_wrong(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr == message
    assert proc.stdout == ""


def test_verify_supports_is_deterministic():
    args = ("verify", "supports", "--n", "3", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_verify_small_battery():
    payload = run_json("verify", "poincare", "--n", "4")
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["poincare"]


@pytest.mark.parametrize("argv", [
    ["chromatic", "--n", "3", "--h", "2,3,4,4"],
    ["verify", "sw", "--n", "3", "--h", "2,3,4,4"],
    ["verify", "all", "--n", "3", "--h", "2,3,4,4"],
    ["gkm-graph", "--n", "5", "--h", "2,3,3"],
    ["support", "--n", "5", "--h", "2,3,3", "--w", "123"],
    ["class", "--n", "4", "--h", "2,3,3", "--w", "123"],
    ["dot", "--n", "4", "--h", "2,3,3", "--w", "123", "--gen", "1"],
    ["action-matrix", "--n", "4", "--h", "2,3,3", "--perm", "213", "--k", "1"],
], ids=lambda argv: "-".join(argv[:2]))
def test_n_must_match_the_length_of_h(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    n = argv[argv.index("--n") + 1]
    length = len(argv[argv.index("--h") + 1].split(","))
    assert f"--n is {n} but --h has length {length}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["chromatic", "--n", "4", "--h", "2,3,4,4"],
    ["verify", "sw", "--n", "4", "--h", "2,3,3,4"],
    ["gkm-graph", "--n", "3", "--h", "2,3,3"],
    ["support", "--n", "3", "--h", "2,3,3", "--w", "213"],
], ids=lambda argv: "-".join(argv[:2]))
def test_n_matching_h_is_accepted(argv, capsys):
    from gkmhess import cli

    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["n"] == int(argv[argv.index("--n") + 1])


@pytest.mark.parametrize("suite", ["supports", "poincare", "coxeter", "dot-rules"])
def test_verify_h_is_refused_outside_the_sw_suite(suite, capsys):
    from gkmhess import cli

    assert cli.main(["verify", suite, "--n", "3", "--h", "2,3,3"]) == 2
    captured = capsys.readouterr()
    assert f"--h applies to the sw suite only, not to {suite}" in captured.err
    assert captured.out == ""


def test_expand_n_must_match_the_class(tmp_path, capsys):
    from gkmhess import cli

    data = run_json("class", "--permutohedral", "--w", "1324")
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    assert cli.main(["expand", "--input", str(path), "--h", "2,3,4,4", "--n", "5"]) == 2
    assert "the class has n = 4 but --n is 5" in capsys.readouterr().err
