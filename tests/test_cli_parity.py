"""A fixed slice of the committed CLI parity corpus, run in process.

``tests/golden/parity.args`` lists ``gkmhess`` invocations and
``tests/golden/parity.jsonl`` their fingerprints (exit code, sha256 of
standard output and of standard error), captured before the change that
added them.  ``scripts/cli_parity.py ARGS SRC --check FINGERPRINTS`` runs
the whole corpus; tier-1 runs every fourth invocation, leaving out the
Shareshian-Wachs checks of interpolated h at n = 5, which take most of the
corpus's time.
"""

import importlib
import importlib.util
import pathlib

from gkmhess import cli

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_GOLDEN = _ROOT / "tests" / "golden"


def _cli_parity():
    path = _ROOT / "scripts" / "cli_parity.py"
    spec = importlib.util.spec_from_file_location("cli_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slice(parity) -> list[list[str]]:
    def interpolated_sw_n5(args):
        return args[:4] == ["verify", "sw", "--n", "5"] and "--h" in args

    invocations = parity.read_invocations(_GOLDEN / "parity.args")
    return [args for index, args in enumerate(invocations)
            if index % 4 == 0 and not interpolated_sw_n5(args)]


def test_every_corpus_invocation_has_one_fingerprint():
    parity = _cli_parity()
    invocations = parity.read_invocations(_GOLDEN / "parity.args")
    fingerprints = parity.read_fingerprints(_GOLDEN / "parity.jsonl")
    keys = [parity.shlex.join(args) for args in invocations]
    assert len(set(keys)) == len(keys) == len(fingerprints)
    assert set(keys) == set(fingerprints)


def test_the_parity_slice_is_byte_identical():
    parity = _cli_parity()
    expected = parity.read_fingerprints(_GOLDEN / "parity.jsonl")
    assert parity.differences(cli.main, _slice(parity), expected) == []


def test_the_parity_slice_catches_a_wrong_s1_matrix(monkeypatch):
    # the planted fault s1-matrix of test_cli.py: 1 added at row 1, column 0
    # of s_1's permutohedral t = 0 matrix in every degree of dimension >= 2
    parity = _cli_parity()
    dot = importlib.import_module("gkmhess.dot")
    exact = dot.generator_matrix

    def faulty(i, k, h):
        matrix = exact(i, k, h)
        if i == 1 and h.is_permutohedral() and len(matrix.basis_order) > 1:
            columns = list(matrix.columns)
            columns[0] = {**columns[0], 1: columns[0].get(1, 0) + 1}
            matrix = dot.ActionMatrix(matrix.basis_order, columns)
        return matrix
    for name in ("chromatic", "cli", "decomp", "dot"):
        monkeypatch.setattr(importlib.import_module(f"gkmhess.{name}"), "generator_matrix", faulty)

    readers = [args for args in _slice(parity)
               if args[0] == "action-matrix" or args[:2] in (["verify", "coxeter"],
                                                              ["verify", "sw"])]
    expected = parity.read_fingerprints(_GOLDEN / "parity.jsonl")
    found = {record["args"] for record in parity.differences(cli.main, readers, expected)}
    assert {"verify coxeter --n 3", "verify sw --n 5", "verify sw --n 4 --format table"} <= found
    assert any(args.startswith("action-matrix") for args in found)
