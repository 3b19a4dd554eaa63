"""Experiment runner.

Subcommands: kernel, wick-verify, modular-verify, bound-check, bk-matrix,
sharpness, universal.  Each writes a CSV (schema header
`# fermicov-schema v1`, floats at 17 significant digits, so identical seeds
give byte-identical files) and a JSON summary, both through atomic temp-file
renames.  Exit codes: 0 all checks pass, 1 some verification failed, 2 usage
or config error.  Each flag's argparse type checks its value's domain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import NamedTuple

import numpy as np

from fermicov.car_fock import FOCK_CAP, wick_suite
from fermicov.covariance import KernelEval, kernel_g
from fermicov.modular import holder_slack, modular_suite
from fermicov.mspace import TreeGraph, bk_matrix, random_tree
from fermicov.spectral import rate_terms
from fermicov.torus import N_CAP, DiscreteTorus
from fermicov.verify import (
    SHARPNESS_CSV,
    UNIVERSAL_CSV,
    GeneratorConfig,
    bound_check_suite,
    sharpness_sweep,
    universal_bound_estimate,
    witness_pass,
)

SCHEMA_LINE = "# fermicov-schema v1"


class ConfigError(Exception):
    pass


class Outcome(NamedTuple):
    """What one suite found; `main` writes it as CSV, JSON summary and exit code."""

    records: np.ndarray  # the CSV, a row per record; the count unless extra sets one
    failures: list
    min_slack: float
    message: str
    extra: dict = {}  # further summary keys


def row_format(dtype: np.dtype) -> str:
    """One CSV row's %-format, for a `.tolist()` tuple of dtype's records: floats at
    17 significant digits (round-trip safe), ints and bools as integers, else str()."""
    kinds = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d"}
    return ",".join(kinds.get(dtype[name].kind, "%s") for name in dtype.names)


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fermicov-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, records: np.ndarray):
    line = row_format(records.dtype)
    lines = [SCHEMA_LINE, ",".join(records.dtype.names), *(line % row for row in records.tolist())]
    atomic_write(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------- flag types


def _number(kind, what: str, valid):
    """An argparse type: a `kind` value for which `valid` holds.

    Each float domain below is false for nan and for infinities."""

    def parse(text: str):
        try:
            value = kind(text)
            if valid(value):
                return value
        except ValueError:  # from `kind`
            pass
        raise argparse.ArgumentTypeError(f"must be {what}: {text!r}")

    return parse


def _list_of(item):
    """An argparse type: a comma-separated list of `item` values."""
    return lambda text: tuple(item(tok) for tok in text.split(","))


def _at_least(low: int):
    return _number(int, f"an integer >= {low}", lambda v: v >= low)


def _modes(low: int):
    """A Fock-space mode count."""
    return _number(int, f"an integer from {low} to {FOCK_CAP}", lambda v: low <= v <= FOCK_CAP)


FINITE = _number(float, "a finite number", math.isfinite)
POSITIVE = _number(float, "a positive number", lambda v: 0 < v < math.inf)
EVEN_N = _number(int, f"an even integer in [2, {N_CAP}]", lambda v: 2 <= v <= N_CAP and v % 2 == 0)
SEED = _number(int, "a non-negative integer", lambda v: v >= 0)


def _out_path(text: str) -> str:
    """An output file in an existing directory, so no run ends unable to write."""
    if text and not os.path.isdir(text) and os.path.isdir(os.path.dirname(os.path.abspath(text))):
        return text
    raise argparse.ArgumentTypeError(f"must be a file in an existing directory: {text!r}")


def _lam(text: str):
    """A --lam value: 'singular' (for n/beta) or a finite number."""
    return text if text == "singular" else FINITE(text)


def _edges(text: str) -> tuple:
    """An --edges value 'u-v:w,...': the (u, v) pairs and their weights."""
    edges, weights = [], []
    for tok in text.split(","):
        try:
            pair, w = tok.split(":")
            u, v = pair.split("-")
            edges.append((int(u), int(v)))
            weights.append(float(w))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad edge token {tok!r}; expected 'u-v:w'") from None
    return tuple(edges), np.array(weights)


# ---------------------------------------------------------------- subcommands


def cmd_kernel(args) -> Outcome:
    torus = DiscreteTorus(beta=args.beta, n=args.n)
    lam = torus.rate if args.lam == "singular" else args.lam
    ker = kernel_g(lam, torus, eta=args.eta)
    table = np.rec.fromarrays([torus.indices, torus.alpha(torus.indices), ker.values],
                              names="index,alpha,g")
    singular, _, sign = rate_terms(lam, torus)
    if args.eta is not None and singular:
        # on the singular band a finite eta tabulates the kernel of the eigenvalue
        # whose 1 - lam/rate is sign * exp(-eta/rate): check the table against it
        solved = torus.rate * ((1.0 - sign) - sign * np.expm1(-args.eta / torus.rate))
        ker = KernelEval(float(solved), torus, ker.values)
    residual = ker.residual()
    tol = 1e-9 * torus.rate
    ok = residual <= tol
    return Outcome(
        table, [] if ok else [lam], tol - residual,
        f"kernel lam={lam:g} residual={residual:.3e} ({'ok' if ok else 'FAIL'})",
        {"lam": lam, "residual": residual},
    )


def cmd_bound_check(args) -> Outcome:
    config = GeneratorConfig(
        d_max=args.d_max, m_max=args.m_max, N_max=args.N_max,
        n_choices=args.n_choices, beta_choices=args.beta_choices,
        scale_max=args.scale_max,
    )
    result = bound_check_suite(args.count, config, seed=args.seed)
    checks = result.checks
    failures = checks["seed"][~checks["pass"]].tolist()
    min_slack = float(checks["slack"].min())
    return Outcome(checks, failures, min_slack, f"bound-check: {args.count} instances, "
                   f"{len(failures)} failures, min slack {min_slack:.3e}", result.summary())


def cmd_wick_verify(args) -> Outcome:
    perms = wick_suite(args.modes, args.N_max, args.draws, args.seed)
    failures = perms[["N", "perm_id"]][~perms["pass"]].tolist()
    return Outcome(perms, failures, 0.0, f"wick-verify: {len(perms)} permutations checked, "
                   f"{len(failures)} failures")


def cmd_modular_verify(args) -> Outcome:
    if args.states == 0 and args.pairs == 0:
        raise ConfigError("modular-verify needs --states or --pairs above 0 to check anything")
    checks = modular_suite(args.states, args.chains, args.pairs, args.modes, args.seed)
    failures = checks[["state", "check"]][~checks["pass"]].tolist()
    return Outcome(checks, failures, holder_slack(checks),
                   f"modular-verify: {len(checks)} checks, {len(failures)} failures")


def cmd_bk_matrix(args) -> Outcome:
    if args.edges:
        try:
            graph = TreeGraph(args.m, *args.edges)
        except ValueError as exc:
            raise ConfigError(f"--edges: {exc}") from None
    else:
        graph = random_tree(args.m, np.random.default_rng(args.seed))
    M = bk_matrix(graph, args.t)
    min_eig = float(np.linalg.eigvalsh(M).min())
    return Outcome(
        np.rec.fromarrays([np.arange(args.m), *M.T],
                          names=["row"] + [f"col{j}" for j in range(args.m)]),
        [] if min_eig >= -1e-10 else [args.seed], min_eig,
        f"bk-matrix: m={args.m} t={args.t:g} min eigenvalue {min_eig:.3e}",
        {"count": 1},  # one check, positive semidefiniteness, over the m rows
    )


def cmd_sharpness(args) -> Outcome:
    witnesses = sharpness_sweep(args.epsilon, args.beta, args.N_list)
    failures = witnesses["N"][~witness_pass(witnesses)].tolist()
    return Outcome(
        witnesses[SHARPNESS_CSV], failures, 0.0,
        f"sharpness eps={args.epsilon:g}: lam={witnesses['lam'][0]:.6g} "
        f"n={witnesses['n'][0]}, {len(failures)} failures",
    )


def cmd_universal(args) -> Outcome:
    result = bound_check_suite(args.count, GeneratorConfig(), seed=args.seed)
    sharp = np.concatenate([sharpness_sweep(eps, args.beta) for eps in args.epsilon_list])
    lower = universal_bound_estimate(sharp)
    violations = result.checks["seed"][~result.checks["pass"]].tolist()
    # a witness is named by its epsilon and N, as sharpness names it by N
    witnesses = [f"witness epsilon={eps:g} N={N}"
                 for eps, N in sharp[["epsilon", "N"]][~witness_pass(sharp)].tolist()]
    return Outcome(
        sharp[UNIVERSAL_CSV], violations + witnesses, 0.0,
        f"universal bracket: [{lower:.6f}, 1.0] "
        f"({len(violations)} bound violations in {args.count} instances, "
        f"{len(witnesses)} witness failures)",
        {
            "count": args.count,  # the bound checks, not the witness rows
            "bracket_lower": lower,
            "bracket_upper": 1.0,
            "violations": len(violations),
            "witness_failures": len(witnesses),
            **result.summary(),
        },
    )


# ------------------------------------------------------------------- parsing


def _add_common(sub, out_default: str, seeded: bool):
    sub.add_argument("--out", type=_out_path, default=out_default, help="CSV output path")
    sub.add_argument("--summary", type=_out_path, default=None, help="JSON summary path")
    if seeded:  # only suites that draw random numbers take a seed
        sub.add_argument("--seed", type=SEED, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicov",
        description="covariance determinant bound verification experiments",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("kernel", help="tabulate a covariance kernel")
    s.add_argument("--beta", type=POSITIVE, default=1.0)
    s.add_argument("--n", type=EVEN_N, default=8)
    s.add_argument("--lam", type=_lam, default="0.0", help="number or 'singular' for n/beta")
    s.add_argument("--eta", type=POSITIVE, default=None)
    _add_common(s, "kernel.csv", seeded=False)
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("bound-check", help="run seeded determinant-bound instances")
    s.add_argument("--count", type=_at_least(1), default=1000)
    s.add_argument("--d-max", type=_at_least(1), default=3)
    s.add_argument("--m-max", type=_at_least(1), default=3)
    s.add_argument("--N-max", dest="N_max", type=_at_least(1), default=3)
    s.add_argument("--n-choices", type=_list_of(EVEN_N), default="2,4,8")
    s.add_argument("--beta-choices", type=_list_of(POSITIVE), default="0.5,1,2")
    s.add_argument("--scale-max", type=_number(float, "a number >= 0.1",
                                                lambda v: 0.1 <= v < math.inf), default=1e3)
    _add_common(s, "bound-check.csv", seeded=True)
    s.set_defaults(func=cmd_bound_check)

    s = subs.add_parser("wick-verify", help="exhaustive permuted-monomial checks")
    s.add_argument("--N-max", dest="N_max", type=_at_least(1), default=2)
    s.add_argument("--draws", type=_at_least(1), default=3)
    s.add_argument("--modes", type=_modes(1), default=3)
    _add_common(s, "wick.csv", seeded=True)
    s.set_defaults(func=cmd_wick_verify)

    s = subs.add_parser("modular-verify", help="modular/Hoelder property checks")
    s.add_argument("--states", type=_at_least(0), default=5)
    s.add_argument("--chains", type=_at_least(0), default=20)
    s.add_argument("--pairs", type=_at_least(0), default=100)
    s.add_argument("--modes", type=_modes(2), default=4)
    _add_common(s, "modular.csv", seeded=True)
    s.set_defaults(func=cmd_modular_verify)

    s = subs.add_parser("bk-matrix", help="tree interpolation matrix")
    s.add_argument("--m", type=_at_least(1), default=4)
    s.add_argument("--t", type=_number(float, "in [0, 1]", lambda v: 0 <= v <= 1), default=1.0)
    s.add_argument("--edges", type=_edges, default=None, help="explicit edges 'u-v:w,...'")
    _add_common(s, "bk.csv", seeded=True)
    s.set_defaults(func=cmd_bk_matrix)

    epsilon = _number(float, "in (0, 1)", lambda v: 0 < v < 1)
    s = subs.add_parser("sharpness", help="sharpness witness sweep")
    s.add_argument("--epsilon", type=epsilon, default=0.1)
    s.add_argument("--beta", type=POSITIVE, default=1.0)
    s.add_argument("--N-list", dest="N_list", type=_list_of(_at_least(1)), default="1,2,4,8")
    _add_common(s, "sharpness.csv", seeded=False)
    s.set_defaults(func=cmd_sharpness)

    s = subs.add_parser("universal", help="bracket the universal bound")
    s.add_argument("--count", type=_at_least(1), default=2000)
    s.add_argument("--epsilon-list", type=_list_of(epsilon), default="0.1,0.01")
    s.add_argument("--beta", type=POSITIVE, default=1.0)
    _add_common(s, "universal.csv", seeded=True)
    s.set_defaults(func=cmd_universal)

    return parser


def main(argv: list | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        out = args.func(args)
        write_csv(args.out, out.records)
        summary = {
            "suite": args.subcommand,
            "count": len(out.records),
            "failures": out.failures,
            "min_slack": out.min_slack,
            **out.extra,
            "wall_time_s": time.perf_counter() - t0,
        }
        atomic_write(args.summary or os.path.splitext(args.out)[0] + ".json",
                     json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(out.message)
        return 1 if out.failures else 0
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError, FloatingPointError, MemoryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
