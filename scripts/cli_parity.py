#!/usr/bin/env python3
"""Fingerprint ``gkmhess`` invocations, for a byte-for-byte comparison of
two checkouts.

    python3 scripts/cli_parity.py ARGS_FILE SRC_DIR > fingerprints.jsonl

``ARGS_FILE`` holds one invocation per line, the arguments after
``gkmhess`` in shell syntax (blank lines and ``#`` comments are skipped).
Each runs in this process through ``gkmhess.cli.main``, imported from
``SRC_DIR``, with standard output and standard error captured.  One JSON
line is printed per invocation: its arguments, its exit code, and the
sha256 of its standard output and of its standard error.  Running the same
file against two ``src`` directories and diffing the outputs shows every
invocation whose output or exit code differs.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("args_file", help="one line of gkmhess arguments per invocation")
    parser.add_argument("src", help="the directory to import gkmhess from")
    options = parser.parse_args()
    sys.path.insert(0, options.src)
    from gkmhess.cli import main as gkmhess_main

    with open(options.args_file) as handle:
        lines = [line.strip() for line in handle]
    for line in lines:
        if line and not line.startswith("#"):
            print(json.dumps(fingerprint(gkmhess_main, shlex.split(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
