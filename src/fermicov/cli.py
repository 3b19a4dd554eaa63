"""Config-driven experiment runner.

Subcommands: kernel, wick-verify, modular-verify, bound-check, bk-matrix,
sharpness, universal, decay.  Each writes a CSV (schema header
`# fermicov-schema v1`, floats at 17 significant digits, so identical seeds
give byte-identical files) and a JSON summary, both through atomic temp-file
renames.  Exit codes: 0 all checks pass, 1 some verification failed, 2 usage
or config error.  Each flag's argparse type checks its value's domain.

Defaults can come from an INI config file (one section per subcommand, keys
named as the flags with case kept); command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
import time
from itertools import islice, permutations
from typing import NamedTuple

import numpy as np

from fermicov.car_fock import (
    FOCK_CAP,
    FockSpace,
    expect_monomial,
    monomial_block,
    quasifree_modes,
    wick_determinant,
)
from fermicov.covariance import KernelEval, decay_parameter, kernel_g
from fermicov.modular import modular_power, schatten_norm, tube_chain
from fermicov.mspace import TreeGraph, bk_matrix, random_tree
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian, rate_terms
from fermicov.torus import N_CAP, DiscreteTorus
from fermicov.verify import (
    GeneratorConfig,
    bound_check_suite,
    sharpness_sweep,
    universal_bound_estimate,
)

SCHEMA_LINE = "# fermicov-schema v1"

# modular-verify flows X on a principal block of at most this many occupation
# patterns; Delta^z acts entry by entry, so the block's flow is the flow's block
FLOW_BLOCK = 64


class ConfigError(Exception):
    pass


class Outcome(NamedTuple):
    """What one suite found; `main` writes it as CSV, JSON summary and exit code."""

    header: list
    rows: list
    count: int
    failures: list
    min_slack: float
    message: str
    extra: dict = {}  # further summary keys


def fmt(x) -> str:
    """Round-trip-safe text for one CSV cell."""
    if type(x) is float:  # the common cells first; a bool is not of type int
        return f"{x:.17g}"
    if type(x) is int:
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


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


def write_csv(path: str, header: list, rows: list):
    lines = [SCHEMA_LINE, ",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
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
    rows = [(i, torus.alpha(i), g) for i, g in zip(torus.indices.tolist(), ker.values.tolist())]
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
        ["index", "alpha", "g"], rows, torus.size, [] if ok else [0], tol - residual,
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
    return Outcome(
        list(checks.dtype.names), checks.tolist(), args.count, failures, min_slack,
        f"bound-check: {args.count} instances, {len(failures)} failures, "
        f"min slack {min_slack:.3e}",
        result.summary(),
    )


def cmd_wick_verify(args) -> Outcome:
    rng = np.random.default_rng(args.seed)
    D, draws = args.modes, args.draws
    fock = FockSpace(D)
    rows = []
    for N in range(1, args.N_max + 1):
        block = max(1, monomial_block(fock, 2 * N) // draws)  # permutations per stack
        orders, start = permutations(range(2 * N)), len(rows)
        while chunk := list(islice(orders, block)):
            perms = np.repeat(chunk, draws, axis=0)
            # one draw after another from one stream: A (real, imaginary), then 2N vectors
            z = rng.normal(size=(len(perms), 2 * D * D + 4 * N * D))
            A = z[:, :D * D].reshape(-1, D, D) + 1j * z[:, D * D:2 * D * D].reshape(-1, D, D)
            v = z[:, 2 * D * D:].reshape(-1, 2 * N, 2, D)
            vecs = v[:, :, 0] + 1j * v[:, :, 1]
            V, logp, symbol = quasifree_modes(A, beta=1.0)
            in_modes = (V.conj().mT[:, None] @ vecs[..., None])[..., 0]
            direct = expect_monomial(fock, logp, in_modes, perms, N).tolist()
            det = wick_determinant(symbol, vecs, perms).tolist()
            errors = [abs(d - w) / max(abs(d), 1e-12) for d, w in zip(direct, det)]
            # criterion 03's rule: relative where the value is not tiny, absolute where
            # it is, since a monomial such as a+ a+ vanishes exactly
            passed = [abs(d - w) <= (1e-10 * abs(d) if abs(d) > 1e-6 else 1e-12)
                      for d, w in zip(direct, det)]
            for i in range(len(chunk)):
                mine = slice(i * draws, (i + 1) * draws)
                rows.append((N, len(rows) - start, max(0.0, *errors[mine]), all(passed[mine])))
    failures = [args.seed for *_, ok in rows if not ok]
    return Outcome(
        ["N", "perm_id", "max_rel_err", "pass"], rows, len(rows), failures, 0.0,
        f"wick-verify: {len(rows)} permutations checked, {len(failures)} failures",
    )


def cmd_modular_verify(args) -> Outcome:
    if args.states == 0 and args.pairs == 0:
        raise ConfigError("modular-verify needs --states or --pairs above 0 to check anything")
    rng = np.random.default_rng(args.seed)
    rows, min_slack = [], np.inf
    for s in range(args.states):
        modes = int(rng.integers(2, args.modes + 1))
        A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        beta = float(rng.uniform(0.5, 2.0))
        V, logp, _ = quasifree_modes(A, beta)
        fock = FockSpace(modes)
        block = (np.arange(fock.dim) if fock.dim <= FLOW_BLOCK
                 else np.sort(rng.choice(fock.dim, FLOW_BLOCK, replace=False)))
        eta = np.diag(np.exp(logp[block] / 2))
        fixed = modular_power(logp[block], rng.uniform(-1, 1), eta)
        fixed_err = float(np.max(np.abs(fixed - eta)))
        X = rng.normal(size=(block.size,) * 2) + 1j * rng.normal(size=(block.size,) * 2)
        flowed = modular_power(logp[block], 1j * rng.uniform(-3, 3), X)
        iso_err = abs(float(np.linalg.norm(flowed)) - float(np.linalg.norm(X)))
        rows.append((s, "fixed_point", fixed_err, fixed_err <= 1e-12))
        rows.append((s, "isometry", iso_err, iso_err <= 1e-10))
        for c in range(args.chains):
            Nc = int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, size=Nc)
            re = raw / raw.sum() * rng.uniform(0, 0.5) * beta
            zs = re + 1j * rng.normal(size=Nc)
            chain, prod = [], 1.0
            for z in zs:
                psi = rng.normal(size=modes) + 1j * rng.normal(size=modes)
                chain.append((z, (V.conj().T @ psi, rng.uniform() < 0.5)))
                prod *= np.linalg.norm(psi)
            slack = prod - tube_chain(fock, logp, beta, chain).norm()
            min_slack = min(min_slack, slack)
            rows.append((s, f"holder_chain_{c}", slack, slack >= -1e-10))
    for _ in range(args.pairs):
        dim = int(rng.integers(2, 9))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r = float(rng.uniform(1, 4))
        u = float(rng.uniform(0.05, 0.95))
        s1, s2 = r / u, r / (1.0 - u)
        slack = schatten_norm(A, s1) * schatten_norm(B, s2) - schatten_norm(A @ B, r)
        min_slack = min(min_slack, slack)
        rows.append((-1, "holder_schatten", slack, slack >= -1e-10))
    failures = [args.seed] if any(not row[3] for row in rows) else []
    return Outcome(
        ["state", "check", "value", "pass"], rows, len(rows), failures,
        float(min_slack) if np.isfinite(min_slack) else 0.0,
        f"modular-verify: {len(rows)} checks, {len(failures)} failures",
    )


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
        ["row"] + [f"col{j}" for j in range(args.m)],
        [(k,) + tuple(M[k]) for k in range(args.m)],
        1, [] if min_eig >= -1e-10 else [args.seed], min_eig,
        f"bk-matrix: m={args.m} t={args.t:g} min eigenvalue {min_eig:.3e}",
    )


def cmd_sharpness(args) -> Outcome:
    reports = sharpness_sweep(args.epsilon, args.beta, args.N_list)
    rows = [
        (r.epsilon, r.beta, r.lam, r.n, r.N, abs(r.det), r.closed_form,
         r.lower_bound, r.kernel_at_zero)
        for r in reports
    ]
    failures = [r.N for r in reports if not r.passed]
    return Outcome(
        ["epsilon", "beta", "lam", "n", "N", "det_abs", "closed_form",
         "lower_bound", "kernel_at_zero"],
        rows, len(reports), failures, 0.0,
        f"sharpness eps={args.epsilon:g}: lam={reports[0].lam:.6g} n={reports[0].n}, "
        f"{len(failures)} failures",
    )


def cmd_universal(args) -> Outcome:
    result = bound_check_suite(args.count, GeneratorConfig(), seed=args.seed)
    sharp = []
    for eps in args.epsilon_list:
        sharp += sharpness_sweep(eps, args.beta)
    lower = universal_bound_estimate(sharp)
    rows = [
        (r.epsilon, r.N, r.n, r.lam, abs(r.det), r.det_abs ** (1.0 / (2 * r.N)))
        for r in sharp
    ]
    violations = result.checks["seed"][~result.checks["pass"]].tolist()
    # a witness is named by its epsilon and N, as sharpness names it by N
    witnesses = [f"witness epsilon={r.epsilon:g} N={r.N}" for r in sharp if not r.passed]
    return Outcome(
        ["epsilon", "N", "n", "lam", "det_abs", "per_factor_estimate"], rows,
        args.count, violations + witnesses, 0.0,
        f"universal bracket: [{lower:.6f}, 1.0] "
        f"({len(violations)} bound violations in {args.count} instances, "
        f"{len(witnesses)} witness failures)",
        {
            "bracket_lower": lower,
            "bracket_upper": 1.0,
            "violations": len(violations),
            "witness_failures": len(witnesses),
            **result.summary(),
        },
    )


def cmd_decay(args) -> Outcome:
    diag = np.array(args.H_diag)
    torus = DiscreteTorus(beta=args.beta, n=args.n)
    S = eig_hermitian(HermitianMatrix(np.diag(diag)))
    params = {"indicator": {"a": args.chi_a, "b": args.chi_b},
              "gaussian": {"center": args.chi_center, "width": args.chi_width}}
    try:
        chi = CutoffSpec(args.chi, **params.get(args.chi, {}))
    except ValueError as exc:
        raise ConfigError(f"--chi {args.chi}: {exc}") from None
    value = decay_parameter(S, chi, torus)
    return Outcome(
        ["beta", "n", "d", "decay_snapshot"], [(args.beta, args.n, len(diag), value)],
        1, [], 0.0, f"decay snapshot (n={args.n}, no limit taken): {value:.12g}",
    )


# ------------------------------------------------------------------- parsing


def _add_common(sub, out_default: str, seeded: bool):
    sub.add_argument("--out", type=_out_path, default=out_default, help="CSV output path")
    sub.add_argument("--summary", type=_out_path, default=None, help="JSON summary path")
    if seeded:  # only suites that draw random numbers take a seed
        sub.add_argument("--seed", type=SEED, default=0)


def _config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fermicov", add_help=False)
    parser.add_argument("--config", default=None, help="INI config file; flags win")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicov",
        description="covariance determinant bound verification experiments",
        parents=[_config_parser()],
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

    s = subs.add_parser("decay", help="finite-n covariance summability snapshot")
    s.add_argument("--beta", type=POSITIVE, default=1.0)
    s.add_argument("--n", type=EVEN_N, default=16)
    s.add_argument("--H-diag", dest="H_diag", type=_list_of(FINITE), default="0.0")
    s.add_argument("--chi", default="one", choices=("one", "indicator", "gaussian"))
    s.add_argument("--chi-a", type=FINITE, default=-1.0)
    s.add_argument("--chi-b", type=FINITE, default=1.0)
    s.add_argument("--chi-center", type=FINITE, default=0.0)
    s.add_argument("--chi-width", type=POSITIVE, default=1.0)
    _add_common(s, "decay.csv", seeded=False)
    s.set_defaults(func=cmd_decay)

    return parser


def _with_config(path: str | None, argv: list) -> list:
    """argv (subcommand first) with the file's section for it put in as flags
    right after the subcommand, so the flags that follow win."""
    if path is None:
        return argv
    ini = configparser.ConfigParser(interpolation=None)  # values are literal: a % is a %
    ini.optionxform = str  # keep key case: N_max must become --N-max
    try:
        if not ini.read(path):  # missing, a directory, or unreadable
            raise ConfigError(f"--config: cannot read file {path}")
    except configparser.Error as exc:
        raise ConfigError(f"--config: malformed file {path}: {exc}")
    if not argv or not ini.has_section(argv[0]):
        return argv
    injected = [tok for key, value in ini.items(argv[0])
                for tok in ("--" + key.replace("_", "-"), value)]
    return argv[:1] + injected + argv[1:]


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config before the subcommand, as the full parser reads it
    pre = _config_parser()
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        known, unknown = pre.parse_known_args(argv)
        args = build_parser().parse_args(unknown + _with_config(known.config, known.rest))
        t0 = time.perf_counter()
        out = args.func(args)
        write_csv(args.out, out.header, out.rows)
        summary = {
            "suite": args.subcommand,
            "count": out.count,
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
