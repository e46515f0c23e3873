#!/usr/bin/env python3
"""Fingerprint ``gkmhess`` invocations, for a byte-for-byte comparison of
two checkouts.

    python3 scripts/cli_parity.py ARGS_FILE SRC_DIR > fingerprints.jsonl
    python3 scripts/cli_parity.py ARGS_FILE SRC_DIR --check fingerprints.jsonl

``ARGS_FILE`` holds one invocation per line, the arguments after
``gkmhess`` in shell syntax (blank lines and ``#`` comments are skipped).
Each runs in this process through ``gkmhess.cli.main``, imported from
``SRC_DIR``, with standard output and standard error captured.  One JSON
line is printed per invocation: its arguments, its exit code, and the
sha256 of its standard output and of its standard error.  Running the same
file against two ``src`` directories and diffing the outputs shows every
invocation whose output or exit code differs.

With ``--check FILE`` the fingerprints are compared with those in ``FILE``
instead, keyed by arguments: only the invocations whose fingerprint differs
(or that ``FILE`` lacks) are printed, with a count on standard error, and
the exit status is 1 on any difference, 0 otherwise.  The committed corpus
is ``tests/golden/parity.args`` with ``tests/golden/parity.jsonl``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys


def fingerprint(main, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return {
        "args": shlex.join(args),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def read_invocations(path: str) -> list[list[str]]:
    """The argument lists of ``path``, one per non-blank, non-comment line."""
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def read_fingerprints(path: str) -> dict[str, dict]:
    """The fingerprints of ``path``, keyed by their ``args``."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {record["args"]: record for record in records}


def differences(main, invocations, expected: dict[str, dict]) -> list[dict]:
    """The fingerprint of each invocation that differs from ``expected``."""
    found = []
    for args in invocations:
        record = fingerprint(main, args)
        if expected.get(record["args"]) != record:
            found.append(record)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("args_file", help="one line of gkmhess arguments per invocation")
    parser.add_argument("src", help="the directory to import gkmhess from")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with these fingerprints; exit 1 on any difference")
    options = parser.parse_args()
    sys.path.insert(0, options.src)
    from gkmhess.cli import main as gkmhess_main

    invocations = read_invocations(options.args_file)
    if options.check:
        found = differences(gkmhess_main, invocations, read_fingerprints(options.check))
        for record in found:
            print(json.dumps(record), flush=True)
        print(f"{len(found)} of {len(invocations)} invocations differ", file=sys.stderr)
        return 1 if found else 0
    for args in invocations:
        print(json.dumps(fingerprint(gkmhess_main, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
