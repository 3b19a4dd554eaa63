"""Print the sha256 of the CSV and JSON summary that each README example and
acceptance command writes.

    python scripts/csv_digests.py ["bound-check --count 50 --seed 1" ...]

Runs every line of README.md's code blocks that starts with `fermicov ` and
names an `--out` file, then the ACCEPTANCE commands, then each extra command
given as one argument, through `fermicov.cli.main` in a temporary directory
(a command without `--out` writes digest.csv). Prints one line per command:
the CSV's sha256, the sha256 of its JSON summary without the timings
(`wall_time_s`, `stage_s`), the CSV's file name and the command; or `exit CODE`
and the command for a run that exits non-zero. Two checkouts that print the
same lines (stderr included) wrote byte-identical CSVs and summaries that agree
in every value but the timings. Exits 1 if a command's exit code is not the
expected one: 0, except where ACCEPTANCE says otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, whatever PYTHONPATH holds
from fermicov.cli import main as fermicov_main  # noqa: E402

README = ROOT / "README.md"
# (command, expected exit code): the default suite, larger and wider generator
# ranges (BK matrices at m > 3 among them), the spectral edge whose determinant
# is not finite, and every other suite once; wick-verify also at D = 5 and 6,
# where a gathered field sums up to D pairs into one row, and at D = 7, where
# the larger stacked fields take the per-mode loop; bk-matrix also at m = 8 and
# on a general graph with a cycle, parallel edges and -0.0; bound-check also at
# N <= 32 and n = 64, where many kernel entries share one time difference, and
# at the largest grid order N_CAP, whose storage indices come near the int64 limit;
# sharpness and universal also at epsilon = 0.99, where (1 - eps)^(2N) is far below
# 1e-12 and only a relative slack tests the witness's lower bound; sharpness also at
# beta = 1e-6, where the witness's lam is -2.8e6 (the family depends on beta lam / n
# alone, so only the cap on n stops the search), and at N = 256, the reach in N of a
# witness on one mode with N colors, whose memory grows as N^2; bound-check also at
# m <= 9, whose BK trees draw up to 8 edges and weights, and with four beta choices;
# and at n = 2147483654, where about half of the offset draws fail the first test of
# numpy's Lemire rule and numpy's own rejection loop decides them; modular-verify
# also with no Hoelder check, where min_slack is 0.0, and with 1200 chains, whose
# check names run to 16 characters and more; sharpness also at N = 500, 1000, 2000,
# where the closed-form check fails on rounding over N factors (exit 1); bound-check
# also at 1025 checks, whose last chunk holds one lane, so its one (d, N) stack has B = 1;
# and at scale_max 1e308, whose chunk fails to generate, so the replay decodes one lane
# at a time and names instance 454 (exit 1); and at d = m = N = 1, where every draw
# reads its row's whole width, so the ziggurat's wedge tests decided in lockstep read
# into the row's spare words, and a lane that has spent them defers to numpy
ACCEPTANCE = (
    ("bound-check", 0),
    ("bound-check --count 3000 --seed 7", 0),
    ("bound-check --count 700 --seed 3 --d-max 6 --N-max 6 --n-choices 2,4,8,16", 0),
    ("bound-check --count 2000 --seed 31337 --d-max 5 --m-max 6", 0),
    ("bound-check --count 101 --n-choices 64 --scale-max 1e30 --seed 2", 1),
    ("universal --count 10000 --epsilon-list 0.1,0.01 --seed 606", 0),
    ("wick-verify --N-max 3 --modes 4", 0),
    ("modular-verify --seed 2 --modes 6", 0),
    ("bk-matrix", 0),
    ("wick-verify --N-max 3 --modes 5", 0),
    ("wick-verify --N-max 3 --modes 6 --draws 1", 0),
    ("bk-matrix --m 8 --seed 3 --t 0.7", 0),
    ("bk-matrix --m 5 --t 1 --edges 0-1:0.5,1-2:0.5,0-2:-0.0,3-4:0.2,2-3:0.9,0-1:0.1", 0),
    ("wick-verify --N-max 2 --modes 7 --draws 2 --seed 3", 0),
    ("bound-check --count 300 --seed 5 --d-max 8 --m-max 4 --N-max 32 --n-choices 64", 0),
    ("bound-check --count 300 --seed 9 --n-choices 2,4611686018427387902 --d-max 4 --N-max 4", 0),
    ("sharpness --epsilon 0.99", 0),
    ("universal --count 200 --epsilon-list 0.5,0.99 --seed 4", 0),
    ("sharpness --beta 1e-6", 0),
    ("sharpness --N-list 1,256", 0),
    ("bound-check --count 500 --seed 9 --m-max 9 --beta-choices 0.3,0.7,1.1,5", 0),
    ("bound-check --count 300 --seed 11 --n-choices 2147483654", 0),
    ("modular-verify --states 2 --chains 0 --pairs 0", 0),
    ("modular-verify --states 1 --chains 1200 --pairs 0 --modes 2", 0),
    ("sharpness --N-list 500,1000,2000", 1),
    ("bound-check --count 1025 --seed 8", 0),
    ("bound-check --count 2000 --scale-max 1e308 --seed 2", 1),
    ("bound-check --count 3000 --seed 12 --d-max 1 --m-max 1 --N-max 1", 0),
)


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
    commands = ([(args, 0) for args in readme_commands(README.read_text())]
                + [(shlex.split(cmd), code) for cmd, code in ACCEPTANCE]
                + [(shlex.split(cmd), 0) for cmd in argv])
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for args, expected in commands:
                if "--out" not in args:
                    args = args + ["--out", "digest.csv"]
                out = args[args.index("--out") + 1]
                with contextlib.redirect_stdout(io.StringIO()):  # each suite's message
                    code = fermicov_main(args)
                if code != expected:
                    status = 1
                if code != 0:
                    print(f"exit {code}  {shlex.join(args)}", flush=True)
                    continue
                summary_path = (args[args.index("--summary") + 1] if "--summary" in args
                                else os.path.splitext(out)[0] + ".json")
                summary = json.loads(Path(summary_path).read_text())
                for timing in ("wall_time_s", "stage_s"):
                    summary.pop(timing, None)
                digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
                summary_digest = hashlib.sha256(
                    json.dumps(summary, sort_keys=True).encode()).hexdigest()
                print(f"{digest}  {summary_digest}  {out}  {shlex.join(args)}", flush=True)
        finally:
            os.chdir(cwd)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
