import json
import subprocess
import sys

import pytest

PKG = [sys.executable, "-m", "gkmhess"]


def run_cli(*args):
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, timeout=600
    )


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
    import pathlib

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    proc = subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_nonpositive_oracle_seeds_is_a_usage_error(seeds, capsys):
    # with no sample the oracle is empty, and every support would fail
    from gkmhess import cli

    assert cli.main(["verify", "supports", "--n", "3", "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert f"argument --seeds: must be at least 1, got {seeds}" in err


def test_repeated_value_in_w_is_a_usage_error():
    proc = run_cli("support", "--h", "2,3,4,4", "--w", "1123")
    assert proc.returncode == 2
    assert "not a permutation" in proc.stderr


def test_package_imports_without_numpy():
    code = "import sys, gkmhess, gkmhess.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
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
    ],
)
def test_golden_outputs(golden, args):
    import pathlib

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
    ("1,2,x,4", "Invalid literal for Fraction: 'x'"),
    ("1,2,3,1/0", "--eigenvalues 1,2,3,1/0: a zero denominator"),
], ids=["not-a-number", "zero-denominator"])
def test_cell_chart_bad_eigenvalues_are_a_usage_error(eigenvalues, message, capsys):
    from gkmhess import cli

    argv = ["cell-chart", "--eigenvalues", eigenvalues, "--w", "2413", "--h", "3,3,4,4"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


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
