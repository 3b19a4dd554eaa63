"""Print the sha256 of the CSV that each README example command writes.

    PYTHONPATH=src python scripts/csv_digests.py ["bound-check --count 3000 --seed 7" ...]

Runs every line of README.md's code blocks that starts with `fermicov ` and
names an `--out` file, then each extra command given as one argument, through
`fermicov.cli.main` in a temporary directory (an extra command without
`--out` writes digest.csv). Prints one line per command:
the CSV's sha256, the file name and the command. Two checkouts that print the
same lines wrote byte-identical CSVs. Exits 1 if a command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from fermicov.cli import main as fermicov_main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(text: str) -> list:
    """The fermicov argument lists of the README's code-block lines that write a CSV."""
    commands, in_block = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("fermicov ") and "--out" in line:
            commands.append(shlex.split(line)[1:])
    return commands


def main(argv: list) -> int:
    commands = readme_commands(README.read_text()) + [shlex.split(cmd) for cmd in argv]
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for args in commands:
                if "--out" not in args:
                    args = args + ["--out", "digest.csv"]
                out = args[args.index("--out") + 1]
                with contextlib.redirect_stdout(io.StringIO()):  # each suite's message
                    code = fermicov_main(args)
                if code != 0:
                    print(f"exit {code}  {shlex.join(args)}")
                    status = 1
                    continue
                digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
                print(f"{digest}  {out}  {shlex.join(args)}", flush=True)
        finally:
            os.chdir(cwd)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
