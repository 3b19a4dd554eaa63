"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, makes one untimed
first call (the set-up probe), runs timed passes through fermicov's public
entry points, and checks every pass's output outside the timed region.

    bound_suite      fermicov.cli.main(["bound-check", ...]) at the default
                     generator ranges and default --jobs
    modular_rep      determinant_representation(inst, eta=3.0) at
                     D = d * rank(M) in {8, 9, 10}, against covariance_det
    wick_exhaustive  fermicov.cli.main(["wick-verify", "--N-max", "3",
                     "--modes", "4"])

`check_pass` returns (checks attempted, checks failed, notes); a failed check
is a verification failure, an exception or a non-zero exit code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

# cli and modular are called through their modules so that the tracer's
# wrappers, installed on module attributes, see the calls
from fermicov import cli, modular
from fermicov.covariance import BoundInstance, covariance_det
from fermicov.spectral import CutoffSpec, HermitianMatrix
from fermicov.torus import DiscreteTorus
from fermicov.verify import GeneratorConfig, random_instance

ROOT = Path(__file__).resolve().parent.parent


def _read_summary(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _cli_failures(code, summary, checks: int) -> int:
    """Failed checks of one CLI pass: listed failures, or all if unexplained."""
    if isinstance(code, BaseException) or summary is None:
        return checks
    failed = len(summary.get("failures", []))
    return checks if code != 0 and failed == 0 else failed


class BoundSuite:
    """The paper's main suite: seeded random determinant-bound checks."""

    name = "bound_suite"
    warm_up = True  # one untimed pass before timing
    checks = 2000  # instances per pass
    first_call_count = 32
    setup_samples = 15  # set-up samples per run, each about 0.2 s
    oracle_rows = 48  # CSV rows replayed through the dense oracle per run
    oracle_tol = 1e-9  # criterion 02, relative to the instance's bound

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.csv = out.with_suffix(".csv")
        self.summary = out.with_suffix(".json")
        self.digests = []

    def _argv(self, count: int, csv_path: Path) -> list:
        return ["bound-check", "--count", str(count), "--seed", str(self.seed),
                "--out", str(csv_path), "--summary", str(csv_path.with_suffix(".json"))]

    def jobs(self):
        args = cli.build_parser().parse_args(self._argv(1, self.csv))
        return getattr(args, "jobs", None)

    def first_call(self):
        probe = self.csv.with_name(self.csv.stem + "-first.csv")
        return cli.main(self._argv(self.first_call_count, probe))

    def run_pass(self):
        return cli.main(self._argv(self.checks, self.csv))

    def check_pass(self, code):
        failed = _cli_failures(code, _read_summary(self.summary), self.checks)
        if not isinstance(code, BaseException) and self.csv.exists():
            self.digests.append(hashlib.sha256(self.csv.read_bytes()).hexdigest())
        return self.checks, failed, [f"exit code {code}"] if code != 0 else []

    def final_check(self):
        """CSV identical across passes; a seeded sample of rows replayed by seed
        through the dense-inversion oracle of tests/oracles.py."""
        notes = []
        if len(set(self.digests)) > 1:
            notes.append(f"CSV sha256 differs across passes: {sorted(set(self.digests))}")
        if not self.digests:
            return 0, 0, notes + ["no CSV was written"]
        sys.path.insert(0, str(ROOT / "tests"))
        from oracles import dense_inversion_entry

        with open(self.csv, newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(rows), size=min(self.oracle_rows, len(rows)), replace=False)
        config = GeneratorConfig()
        failed = 0
        for idx in sorted(int(i) for i in picks):
            row = rows[idx]
            inst = random_instance(int(row["seed"]), config)
            N, torus = inst.pair_count, inst.torus
            shape = (inst.H.dim, inst.m, N, torus.n, torus.beta)
            if shape != (int(row["d"]), int(row["m"]), int(row["N"]), int(row["n"]),
                         float(row["beta"])):
                failed += 1
                notes.append(f"row {idx}: replayed instance shape {shape} differs")
                continue
            mat = np.empty((N, N), dtype=complex)
            for k, (ik, phik, jk) in enumerate(inst.points[:N]):
                for l, (il, phil, jl) in enumerate(inst.points[N:]):
                    mat[k, l] = inst.M[jk, jl] * dense_inversion_entry(
                        inst.H.matrix, inst.chi, phik, phil, torus.index_diff(ik, il), torus
                    )
            oracle = complex(np.linalg.det(mat))
            det = complex(float(row["det_re"]), float(row["det_im"]))
            bound = float(row["bound"])
            if not abs(det - oracle) <= self.oracle_tol * bound:
                failed += 1
                notes.append(f"row {idx}: det {det} vs dense oracle {oracle}, bound {bound}")
        return len(picks), failed, notes


def _representation_instance(rng: np.random.Generator, d: int, m: int, pairs: int):
    """Criterion-04 style instance: spectrum at least 0.1 n/beta away from the
    singular value, full-rank M = B B^T, |det| > 1e-6 for a relative check."""
    while True:
        n = int(rng.choice([2, 4]))
        beta = float(rng.choice([0.5, 1.0]))
        torus = DiscreteTorus(beta=beta, n=n)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (A + A.conj().T) / 2 * rng.uniform(0.3, 2.0)
        if np.min(np.abs(np.linalg.eigvalsh(H) - torus.rate)) < 0.1 * torus.rate:
            continue
        B = rng.normal(size=(m, m))
        M = B @ B.T
        if np.linalg.matrix_rank(M, tol=1e-9) != m:
            continue
        points = [
            (torus.zero_index + int(rng.integers(0, n)),
             rng.normal(size=d) + 1j * rng.normal(size=d),
             int(rng.integers(0, m)))
            for _ in range(2 * pairs)
        ]
        inst = BoundInstance(H=HermitianMatrix(H), torus=torus,
                             chi=CutoffSpec.gaussian(0.0, 2.0 * torus.rate), M=M, points=points)
        det = covariance_det(inst)
        if abs(det) > 1e-6:
            return inst, det


class ModularRep:
    """The modular route to the determinant on dense 2^D Fock operators."""

    name = "modular_rep"
    warm_up = False  # the first call at D=10 already warms every buffer size
    setup_samples = 3  # each about 8 s
    eta = 3.0
    rel_tol = 1e-8
    pairs = 2  # N: 2N creation/annihilation operators per representation
    # (D, d, rank M, instances per pass); the largest D comes first
    sizes = ((10, 5, 2, 1), (9, 3, 3, 2), (8, 4, 2, 2))  # 11-14 s a pass on a 2-core Xeon

    def __init__(self, seed: int, out: Path):
        rng = np.random.default_rng(seed)
        self.cases = []  # (D, instance, covariance_det reference)
        for modes, d, m, per_pass in self.sizes:
            for _ in range(per_pass):
                inst, det = _representation_instance(rng, d, m, self.pairs)
                self.cases.append((modes, inst, det))
        self.checks = len(self.cases)

    def jobs(self):
        return None

    def first_call(self):
        _, inst, _ = self.cases[0]
        return modular.determinant_representation(inst, eta=self.eta)

    def run_pass(self):
        results = []
        for _, inst, _ in self.cases:
            try:
                results.append(modular.determinant_representation(inst, eta=self.eta))
            except Exception as exc:  # a failed check, counted, not fatal
                results.append(exc)
        return results

    def check_pass(self, results):
        if isinstance(results, BaseException):
            return self.checks, self.checks, [repr(results)]
        failed, notes = 0, []
        for (modes, _, det), rep in zip(self.cases, results):
            if isinstance(rep, BaseException) or not abs(rep - det) <= self.rel_tol * abs(det):
                failed += 1
                notes.append(f"D={modes}: representation {rep!r} vs covariance_det {det}")
        return self.checks, failed, notes

    def final_check(self):
        return 0, 0, []


class WickExhaustive:
    """Every permuted monomial up to N = 3 at D = 4 against the Wick determinant."""

    name = "wick_exhaustive"
    warm_up = True
    setup_samples = 15  # each about 0.15 s
    checks = 2 + 24 + 720  # permutations of 2N operators for N = 1, 2, 3

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.csv = out.with_suffix(".csv")
        self.summary = out.with_suffix(".json")

    def _argv(self, n_max: str, csv_path: Path) -> list:
        return ["wick-verify", "--N-max", n_max, "--modes", "4", "--seed", str(self.seed),
                "--out", str(csv_path), "--summary", str(csv_path.with_suffix(".json"))]

    def jobs(self):
        return None

    def first_call(self):
        return cli.main(self._argv("1", self.csv.with_name(self.csv.stem + "-first.csv")))

    def run_pass(self):
        return cli.main(self._argv("3", self.csv))

    def check_pass(self, code):
        failed = _cli_failures(code, _read_summary(self.summary), self.checks)
        return self.checks, failed, [f"exit code {code}"] if code != 0 else []

    def final_check(self):
        return 0, 0, []


WORKLOADS = {w.name: w for w in (BoundSuite, ModularRep, WickExhaustive)}
