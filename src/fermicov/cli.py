"""Config-driven experiment runner.

Subcommands: kernel, wick-verify, modular-verify, bound-check, bk-matrix,
sharpness, universal, decay.  Each writes a CSV (schema header
`# fermicov-schema v1`, floats at 17 significant digits, so identical seeds
give byte-identical files) and a JSON summary, both through atomic temp-file
renames.  Exit codes: 0 all checks pass, 1 some verification failed, 2 usage
or config error.

Defaults can come from an INI config file (one section per subcommand, keys
named as the flags with case kept); command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import tempfile
import time
from itertools import islice, permutations

import numpy as np

from fermicov.car_fock import (
    FockSpace,
    expect_monomial,
    fock_cap,
    monomial_block,
    quasifree_modes,
    wick_determinant,
)
from fermicov.covariance import decay_parameter, kernel_g
from fermicov.modular import modular_power, schatten_norm, tube_chain
from fermicov.mspace import TreeGraph, bk_matrix, random_tree
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian, rate_terms
from fermicov.torus import DiscreteTorus
from fermicov.verify import (
    GeneratorConfig,
    bound_check_suite,
    sharpness_sweep,
    universal_bound_estimate,
)

SCHEMA_LINE = "# fermicov-schema v1"

# Scalar flags whose domain is narrower than their type, by parameter name; `main`
# checks them before any work, next to each subcommand's minimum counts.
DOMAINS = {
    "beta": (lambda v: v > 0, "positive"),
    "eta": (lambda v: v > 0, "positive"),
    "n": (lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2"),
    "epsilon": (lambda v: 0 < v < 1, "in (0, 1)"),
    "t": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "scale_max": (lambda v: v > 0, "positive"),
    "chi_width": (lambda v: v > 0, "positive"),
}


class ConfigError(Exception):
    pass


def fmt(x) -> str:
    """Round-trip-safe text for one CSV cell."""
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
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def write_summary(path: str, summary: dict):
    atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _summary(suite: str, count: int, failures: list, min_slack: float, t0: float) -> dict:
    return {
        "suite": suite,
        "count": count,
        "failures": failures,
        "min_slack": min_slack,
        "wall_time_s": time.perf_counter() - t0,
    }


def _stage_totals(reports) -> dict:
    """Summed per-stage wall times of a bound suite, in seconds."""
    return {
        stage: sum(getattr(r, f"{stage}_s") for r in reports)
        for stage in ("generate", "eig", "det", "bound")
    }


def _parse_cutoff(kind: str, a: float, b: float, center: float, width: float) -> CutoffSpec:
    try:
        if kind == "indicator":
            return CutoffSpec.indicator(a, b)
        if kind == "gaussian":
            return CutoffSpec.gaussian(center, width)
        return CutoffSpec(kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_list(args, key: str, kind, valid, what: str) -> tuple:
    """The values of the comma-separated list flag `key`, each a valid `kind`."""
    text = getattr(args, key)
    try:
        values = tuple(kind(tok) for tok in text.split(","))
    except ValueError:
        values = ()
    if not values or not all(valid(v) for v in values):
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{flag} must be a comma-separated list of {what}: {text!r}")
    return values


def _parse_diag(text: str) -> np.ndarray:
    try:
        diag = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"could not parse diagonal {text!r}: {exc}")
    if diag.size == 0 or not np.all(np.isfinite(diag)):
        raise ConfigError(f"--H-diag must be a comma-separated list of finite numbers: {text!r}")
    return diag


def _lam(text: str):
    """A --lam value: 'singular' (for n/beta) or a float."""
    return text if text == "singular" else float(text)


# ---------------------------------------------------------------- subcommands


def cmd_kernel(args) -> int:
    t0 = time.perf_counter()
    torus = DiscreteTorus(beta=args.beta, n=args.n)
    lam = torus.rate if args.lam == "singular" else args.lam
    ker = kernel_g(lam, torus, eta=args.eta)
    rows = [(i, torus.alpha(i), ker.values[i]) for i in range(torus.size)]
    write_csv(args.out, ["index", "alpha", "g"], rows)
    residual = ker.residual()
    tol = 1e-9 * torus.rate
    finite_eta_singular = args.eta is not None and bool(rate_terms(lam, torus)[0])
    ok = residual <= tol or finite_eta_singular
    summary = _summary("kernel", torus.size, [] if ok else [0], tol - residual, t0)
    summary.update({"lam": lam, "residual": residual})
    write_summary(args.summary, summary)
    print(f"kernel lam={lam:g} residual={residual:.3e} ({'ok' if ok else 'FAIL'})")
    return 0 if ok else 1


def _bound_rows(reports):
    header = [
        "instance_id", "seed", "d", "m", "N", "n", "beta",
        "det_re", "det_im", "det_abs", "bound", "slack", "pass",
    ]
    rows = [
        (
            r.instance_id, r.seed, r.d, r.m, r.N, r.n, r.beta,
            r.det.real, r.det.imag, abs(r.det), r.bound, r.slack, r.passed,
        )
        for r in reports
    ]
    return header, rows


def cmd_bound_check(args) -> int:
    t0 = time.perf_counter()
    config = GeneratorConfig(
        d_max=args.d_max, m_max=args.m_max, N_max=args.N_max,
        n_choices=_parse_list(args, "n_choices", int, lambda n: n >= 2 and n % 2 == 0,
                              "even integers >= 2"),
        beta_choices=_parse_list(args, "beta_choices", float,
                                 lambda b: np.isfinite(b) and b > 0, "positive numbers"),
        scale_max=args.scale_max,
    )
    reports = bound_check_suite(args.count, config, seed=args.seed)
    header, rows = _bound_rows(reports)
    write_csv(args.out, header, rows)
    failures = [r.seed for r in reports if not r.passed]
    min_slack = min((r.slack for r in reports), default=0.0)
    summary = _summary("bound-check", args.count, failures, min_slack, t0)
    summary["stage_s"] = _stage_totals(reports)
    write_summary(args.summary, summary)
    print(f"bound-check: {args.count} instances, {len(failures)} failures, "
          f"min slack {min_slack:.3e}")
    return 0 if not failures else 1


def cmd_wick_verify(args) -> int:
    t0 = time.perf_counter()
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
            V, logp, symbol = quasifree_modes((A + A.conj().mT) / 2, beta=1.0)
            in_modes = (V.conj().mT[:, None] @ vecs[..., None])[..., 0]
            direct = expect_monomial(fock, logp, in_modes, perms, N).tolist()
            det = wick_determinant(symbol, vecs, perms).tolist()
            errors = [abs(d - w) / max(abs(d), 1e-12) for d, w in zip(direct, det)]
            for i in range(len(chunk)):
                worst = max(0.0, *errors[i * draws:(i + 1) * draws])
                rows.append((N, len(rows) - start, worst, worst <= 1e-10))
    failures = [args.seed for *_, ok in rows if not ok]
    write_csv(args.out, ["N", "perm_id", "max_rel_err", "pass"], rows)
    write_summary(args.summary, _summary("wick-verify", len(rows), failures, 0.0, t0))
    print(f"wick-verify: {len(rows)} permutations checked, {len(failures)} failures")
    return 0 if not failures else 1


def cmd_modular_verify(args) -> int:
    if args.states == 0 and args.pairs == 0:
        raise ConfigError("modular-verify needs --states or --pairs above 0 to check anything")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    rows, min_slack = [], np.inf
    for s in range(args.states):
        modes = int(rng.integers(2, args.modes + 1))
        A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        beta = float(rng.uniform(0.5, 2.0))
        V, logp, _ = quasifree_modes((A + A.conj().T) / 2, beta)
        fock = FockSpace(modes)
        eta = np.diag(np.exp(logp / 2))
        fixed = modular_power(logp, rng.uniform(-1, 1), eta)
        fixed_err = float(np.max(np.abs(fixed - eta)))
        X = rng.normal(size=(fock.dim,) * 2) + 1j * rng.normal(size=(fock.dim,) * 2)
        flowed = modular_power(logp, 1j * rng.uniform(-3, 3), X)
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
    write_csv(args.out, ["state", "check", "value", "pass"], rows)
    if not np.isfinite(min_slack):
        min_slack = 0.0
    write_summary(
        args.summary,
        _summary("modular-verify", len(rows), failures, float(min_slack), t0),
    )
    print(f"modular-verify: {len(rows)} checks, {len(failures)} failures")
    return 0 if not failures else 1


def cmd_bk_matrix(args) -> int:
    t0 = time.perf_counter()
    if args.edges:
        edges, weights = [], []
        for tok in args.edges.split(","):
            try:
                pair, w = tok.split(":")
                u, v = pair.split("-")
                edges.append((int(u), int(v)))
                weights.append(float(w))
            except ValueError:
                raise ConfigError(f"bad edge token {tok!r}; expected 'u-v:w'")
        try:
            graph = TreeGraph(m=args.m, edges=tuple(edges), weights=np.array(weights))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        graph = random_tree(args.m, np.random.default_rng(args.seed))
    M = bk_matrix(graph, args.t)
    min_eig = float(np.linalg.eigvalsh(M).min())
    ok = min_eig >= -1e-10
    rows = [(k,) + tuple(M[k]) for k in range(args.m)]
    write_csv(args.out, ["row"] + [f"col{j}" for j in range(args.m)], rows)
    write_summary(
        args.summary,
        _summary("bk-matrix", 1, [] if ok else [args.seed], min_eig, t0),
    )
    print(f"bk-matrix: m={args.m} t={args.t:g} min eigenvalue {min_eig:.3e}")
    return 0 if ok else 1


def cmd_sharpness(args) -> int:
    t0 = time.perf_counter()
    N_list = _parse_list(args, "N_list", int, lambda N: N >= 1, "integers >= 1")
    reports = sharpness_sweep(args.epsilon, args.beta, N_list)
    rows = [
        (r.epsilon, r.beta, r.lam, r.n, r.N, abs(r.det), r.closed_form,
         r.lower_bound, r.kernel_at_zero)
        for r in reports
    ]
    write_csv(
        args.out,
        ["epsilon", "beta", "lam", "n", "N", "det_abs", "closed_form",
         "lower_bound", "kernel_at_zero"],
        rows,
    )
    failures = [r.N for r in reports if abs(r.det) < r.lower_bound - 1e-12]
    write_summary(args.summary, _summary("sharpness", len(reports), failures, 0.0, t0))
    print(f"sharpness eps={args.epsilon:g}: lam={reports[0].lam:.6g} n={reports[0].n}, "
          f"{len(failures)} failures")
    return 0 if not failures else 1


def cmd_universal(args) -> int:
    t0 = time.perf_counter()
    epsilons = _parse_list(args, "epsilon_list", float, lambda e: 0 < e < 1,
                           "numbers in (0, 1)")
    config = GeneratorConfig()
    reports = bound_check_suite(args.count, config, seed=args.seed)
    sharp = []
    for eps in epsilons:
        sharp += sharpness_sweep(eps, args.beta)
    bracket = universal_bound_estimate(reports, sharp)
    rows = [
        (r.epsilon, r.N, r.n, r.lam, abs(r.det), r.det_abs ** (1.0 / (2 * r.N)))
        for r in sharp
    ]
    write_csv(
        args.out,
        ["epsilon", "N", "n", "lam", "det_abs", "per_factor_estimate"],
        rows,
    )
    summary = _summary("universal", args.count, [], 0.0, t0)
    summary.update(
        {
            "bracket_lower": bracket.lower,
            "bracket_upper": bracket.upper,
            "violations": bracket.violations,
            "stage_s": _stage_totals(reports),
        }
    )
    write_summary(args.summary, summary)
    print(f"universal bracket: [{bracket.lower:.6f}, {bracket.upper:.1f}] "
          f"({bracket.violations} bound violations in {args.count} instances)")
    return 0 if bracket.violations == 0 else 1


def cmd_decay(args) -> int:
    t0 = time.perf_counter()
    diag = _parse_diag(args.H_diag)
    torus = DiscreteTorus(beta=args.beta, n=args.n)
    S = eig_hermitian(HermitianMatrix(np.diag(diag)))
    chi = _parse_cutoff(args.chi, args.chi_a, args.chi_b, args.chi_center, args.chi_width)
    basis = list(np.eye(len(diag)))
    value = decay_parameter(S, chi, basis, torus)
    write_csv(
        args.out,
        ["beta", "n", "d", "decay_snapshot"],
        [(args.beta, args.n, len(diag), value)],
    )
    write_summary(args.summary, _summary("decay", 1, [], 0.0, t0))
    print(f"decay snapshot (n={args.n}, no limit taken): {value:.12g}")
    return 0


# ------------------------------------------------------------------- parsing


def _add_common(sub, out_default: str):
    sub.add_argument("--out", default=out_default, help="CSV output path")
    sub.add_argument("--summary", default=None, help="JSON summary path")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicov",
        description="covariance determinant bound verification experiments",
    )
    parser.add_argument("--config", default=None, help="INI config file; flags win")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("kernel", help="tabulate a covariance kernel")
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--lam", type=_lam, default="0.0", help="float or 'singular' for n/beta")
    s.add_argument("--eta", type=float, default=None)
    _add_common(s, "kernel.csv")
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("bound-check", help="run seeded determinant-bound instances")
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--d-max", type=int, default=3)
    s.add_argument("--m-max", type=int, default=3)
    s.add_argument("--N-max", dest="N_max", type=int, default=3)
    s.add_argument("--n-choices", default="2,4,8")
    s.add_argument("--beta-choices", default="0.5,1,2")
    s.add_argument("--scale-max", type=float, default=1e3)
    _add_common(s, "bound-check.csv")
    s.set_defaults(func=cmd_bound_check,
                   minima={"count": 1, "d_max": 1, "m_max": 1, "N_max": 1})

    s = subs.add_parser("wick-verify", help="exhaustive permuted-monomial checks")
    s.add_argument("--N-max", dest="N_max", type=int, default=2)
    s.add_argument("--draws", type=int, default=3)
    s.add_argument("--modes", type=int, default=3)
    _add_common(s, "wick.csv")
    s.set_defaults(func=cmd_wick_verify, minima={"N_max": 1, "draws": 1, "modes": 1},
                   fock=True)

    s = subs.add_parser("modular-verify", help="modular/Hoelder property checks")
    s.add_argument("--states", type=int, default=5)
    s.add_argument("--chains", type=int, default=20)
    s.add_argument("--pairs", type=int, default=100)
    s.add_argument("--modes", type=int, default=4)
    _add_common(s, "modular.csv")
    s.set_defaults(func=cmd_modular_verify,
                   minima={"states": 0, "chains": 0, "pairs": 0, "modes": 2}, fock=True)

    s = subs.add_parser("bk-matrix", help="tree interpolation matrix")
    s.add_argument("--m", type=int, default=4)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--edges", default=None, help="explicit edges 'u-v:w,...'")
    _add_common(s, "bk.csv")
    s.set_defaults(func=cmd_bk_matrix, minima={"m": 1})

    s = subs.add_parser("sharpness", help="sharpness witness sweep")
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--N-list", dest="N_list", default="1,2,4,8")
    _add_common(s, "sharpness.csv")
    s.set_defaults(func=cmd_sharpness)

    s = subs.add_parser("universal", help="bracket the universal bound")
    s.add_argument("--count", type=int, default=2000)
    s.add_argument("--epsilon-list", default="0.1,0.01")
    s.add_argument("--beta", type=float, default=1.0)
    _add_common(s, "universal.csv")
    s.set_defaults(func=cmd_universal, minima={"count": 1})

    s = subs.add_parser("decay", help="finite-n covariance summability snapshot")
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--n", type=int, default=16)
    s.add_argument("--H-diag", dest="H_diag", default="0.0")
    s.add_argument("--chi", default="one", choices=("one", "indicator", "gaussian"))
    s.add_argument("--chi-a", type=float, default=-1.0)
    s.add_argument("--chi-b", type=float, default=1.0)
    s.add_argument("--chi-center", type=float, default=0.0)
    s.add_argument("--chi-width", type=float, default=1.0)
    _add_common(s, "decay.csv")
    s.set_defaults(func=cmd_decay)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Fold INI-file values in as defaults, leaving flags the final word."""
    path = None
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            path = argv[idx + 1]
        except IndexError:
            raise ConfigError("--config needs a file path")
        remainder = argv[:idx] + argv[idx + 2:]
    else:
        for pos, arg in enumerate(argv):
            if arg.startswith("--config="):
                path = arg.split("=", 1)[1]
                remainder = argv[:pos] + argv[pos + 1:]
                break
        else:
            return argv
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case: N_max must become --N-max
    try:
        ini.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    sub = next((a for a in remainder if not a.startswith("-")), None)
    if sub and ini.has_section(sub):
        injected = []
        for key, value in ini.items(sub):
            flag = "--" + key.replace("_", "-")
            injected += [flag, value]
        pos = argv.index(sub) + 1
        argv = argv[:pos] + injected + argv[pos:]
    return argv


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        if args.summary is None:
            args.summary = os.path.splitext(args.out)[0] + ".json"
        for key, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"parameter {key} is not finite: {value}")
        for key, (valid, what) in DOMAINS.items():
            value = getattr(args, key, None)
            if value is not None and not valid(value):
                raise ConfigError(f"parameter {key} must be {what}: {value}")
        for key, low in getattr(args, "minima", {}).items():  # counts that run a check
            if getattr(args, key) < low:
                raise ConfigError(f"parameter {key} must be at least {low}: {getattr(args, key)}")
        if getattr(args, "fock", False):  # --modes sets a Fock-space mode count
            try:
                cap = fock_cap()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if args.modes > cap:
                raise ConfigError(f"parameter modes must be at most the Fock cap {cap} "
                                  f"(FERMICOV_FOCK_CAP): {args.modes}")
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, AssertionError, OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
