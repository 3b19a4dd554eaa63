"""Verification suites: ordering permutations, bound checks, sharpness sweeps.

Everything here is seeded and replayable: each generated instance carries an
integer seed that regenerates it bit-exactly, and suites process instances in
instance-id order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from fermicov.car_fock import permutation_sign
from fermicov.covariance import (
    BoundInstance,
    covariance_det,
    instance_bound,
    kernel_values_at,
)
from fermicov.mspace import random_tree, bk_matrix
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus

__all__ = [
    "OrderingData",
    "ordering_from_grid",
    "GeneratorConfig",
    "BoundReport",
    "SharpnessReport",
    "UniversalBracket",
    "random_instance",
    "instance_seed",
    "bound_check_suite",
    "sharpness_sweep",
    "universal_bound_estimate",
]

SLACK_TOL = 1e-10  # a check passes when bound - |det| >= -SLACK_TOL * max(1, bound)


@dataclass(frozen=True)
class OrderingData:
    """Time-ordering of 2N covariance points for the modular representation.

    placement lists the original 0-based point indices in increasing shifted
    time.  rep_sign is the parity of rearranging the canonical CAR tuple
    (creators ascending, annihilators descending) into placement order; it
    is the sign carried by the modular inner-product formula.  xi holds the
    2N-1 consecutive shifted-time increments divided by beta (all >= 0,
    grid-exact), and split is the first position whose shifted time reaches
    beta/2 (2N if none does).
    """

    placement: tuple
    rep_sign: int
    alpha_tilde: tuple
    xi: tuple
    split: int


def ordering_from_grid(a_units: list, N: int, n: int) -> OrderingData:
    """Ordering data from integer grid offsets a_q (alpha_q = a_q * beta / n).

    The 0-based points q < N are creator slots, q >= N annihilator slots; the
    latter get the one-step shift that breaks time ties in favor of creators.
    """
    if len(a_units) != 2 * N:
        raise ValueError(f"expected {2 * N} grid points, got {len(a_units)}")
    for a in a_units:
        if not 0 <= a < n:
            raise ValueError(f"grid offset {a} outside [0, n)")
    a_tilde = tuple(a + (1 if q >= N else 0) for q, a in enumerate(a_units))
    placement = tuple(
        sorted(range(2 * N), key=lambda q: (a_tilde[q], a_units[q], q))
    )
    xi = tuple(
        (a_tilde[placement[u]] - a_tilde[placement[u - 1]]) / n
        for u in range(1, 2 * N)
    )
    split = 2 * N
    for u, q in enumerate(placement):
        if 2 * a_tilde[q] >= n:
            split = u
            break
    return OrderingData(
        placement=placement,
        rep_sign=_rep_sign(placement, N),
        alpha_tilde=a_tilde,
        xi=xi,
        split=split,
    )


@functools.cache
def _rep_sign(placement: tuple, N: int) -> int:
    """The parity of placement in the slots of the canonical CAR tuple.

    Creator q sits in slot q and annihilator q in slot 3N - 1 - q.  There are
    (2N)! placements, so each parity is computed once.
    """
    return int(permutation_sign([q if q < N else 3 * N - 1 - q for q in placement]))


@dataclass
class GeneratorConfig:
    """Ranges for random determinant-bound instances."""

    d_max: int = 3
    m_max: int = 3
    N_max: int = 3
    n_choices: tuple = (2, 4, 8)
    beta_choices: tuple = (0.5, 1.0, 2.0)
    scale_max: float = 1e3  # eigenvalue magnitude sweep, in units of n/beta
    cutoff_kinds: tuple = ("one", "indicator", "gaussian")
    matrix_kinds: tuple = ("psd", "bk")
    pin_singular_prob: float = 0.05


@dataclass
class BoundReport:
    """Outcome of one determinant-bound check."""

    instance_id: int
    seed: int
    d: int
    m: int
    N: int
    n: int
    beta: float
    det: complex
    bound: float
    slack: float
    passed: bool
    generate_s: float = 0.0  # per-stage wall times of this check
    eig_s: float = 0.0
    det_s: float = 0.0
    bound_s: float = 0.0

    @property
    def det_abs(self) -> float:
        return abs(self.det)


@dataclass
class SharpnessReport:
    """One sharpness witness: |det| >= (1 - eps)^(2N) at the found (lam, n)."""

    epsilon: float
    beta: float
    lam: float
    n: int
    N: int
    det: complex
    closed_form: float
    lower_bound: float
    bound: float
    kernel_at_zero: float

    @property
    def det_abs(self) -> float:
        return abs(self.det)


@dataclass
class UniversalBracket:
    """Numerical bracket [lower, 1] for the best universal per-factor bound."""

    lower: float
    upper: float
    epsilon: float
    sharpness_count: int
    bound_count: int
    violations: int


def instance_seed(root_seed: int, instance_id: int) -> int:
    """Stable per-instance seed; regenerating from it replays the instance."""
    return (int(root_seed) * 1_000_003 + int(instance_id)) % (2**63 - 1)


def _random_hermitian(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2


def _pick(rng: np.random.Generator, options):
    """One uniform element; the same draw and value as rng.choice(options)."""
    return options[int(rng.integers(0, len(options)))]


def random_instance(seed: int, config: GeneratorConfig) -> BoundInstance:
    """Generate one seeded random instance within the configured ranges."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, config.d_max + 1))
    m = int(rng.integers(1, config.m_max + 1))
    N = int(rng.integers(1, config.N_max + 1))
    n = int(_pick(rng, config.n_choices))
    beta = float(_pick(rng, config.beta_choices))
    torus = DiscreteTorus(beta=beta, n=n)
    rate = torus.rate

    scale = rate * 10.0 ** rng.uniform(-1.0, np.log10(config.scale_max))
    H = _random_hermitian(rng, d, scale / max(1.0, np.sqrt(d)))
    if rng.uniform() < config.pin_singular_prob:
        # pin one eigenvalue exactly on the singular value n/beta
        S = eig_hermitian(HermitianMatrix(H))
        vals = S.values.copy()
        vals[int(rng.integers(0, d))] = rate
        H = (S.vectors * vals) @ S.vectors.conj().T

    kind = str(_pick(rng, config.cutoff_kinds))
    if kind == "one":
        chi = CutoffSpec.one()
    elif kind == "indicator":
        half_width = scale * rng.uniform(0.1, 2.0)
        center = rng.uniform(-scale, scale)
        chi = CutoffSpec.indicator(center - half_width, center + half_width)
    else:
        chi = CutoffSpec.gaussian(
            center=rng.uniform(-scale, scale), width=scale * rng.uniform(0.2, 2.0)
        )

    mkind = str(_pick(rng, config.matrix_kinds))
    if mkind == "bk" and m >= 1:
        M = bk_matrix(random_tree(m, rng), t=float(rng.uniform(0.2, 1.0)))
        if np.abs(M).max() == 0:
            M = np.eye(m)
    else:
        r = int(rng.integers(1, m + 1))
        B = rng.normal(size=(m, r))
        M = B @ B.T

    points = []
    for _ in range(2 * N):
        a = int(rng.integers(0, n))
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi *= rng.uniform(0.3, 1.5) / max(np.linalg.norm(phi), 1e-30)
        j = int(rng.integers(0, m))
        points.append((torus.zero_index + a, phi, j))

    # valid by construction: the checks of BoundInstance.__post_init__ are skipped
    return BoundInstance._trusted(HermitianMatrix(H), torus, chi, M, points)


def _check_one(instance_id: int, seed: int, config: GeneratorConfig) -> BoundReport:
    t0 = time.perf_counter()
    inst = random_instance(seed, config)
    t1 = time.perf_counter()
    spectral = eig_hermitian(inst.H)
    t2 = time.perf_counter()
    det = covariance_det(inst, spectral=spectral)
    t3 = time.perf_counter()
    bound = instance_bound(inst, spectral=spectral)
    t4 = time.perf_counter()
    slack = bound - abs(det)
    return BoundReport(
        instance_id=instance_id,
        seed=seed,
        d=inst.H.dim,
        m=inst.m,
        N=inst.pair_count,
        n=inst.torus.n,
        beta=inst.torus.beta,
        det=det,
        bound=bound,
        slack=slack,
        passed=bool(slack >= -SLACK_TOL * max(1.0, bound)),
        generate_s=t1 - t0,
        eig_s=t2 - t1,
        det_s=t3 - t2,
        bound_s=t4 - t3,
    )


def bound_check_suite(count: int, config: GeneratorConfig | None = None, seed: int = 0) -> list:
    """Run count seeded random determinant-bound checks; failures are reported,
    never raised.  Results come back ordered by instance id."""
    config = config or GeneratorConfig()
    return [_check_one(i, instance_seed(seed, i), config) for i in range(count)]


def _kernel_at_zero(lam: float, torus: DiscreteTorus) -> float:
    return float(kernel_values_at(np.array([lam]), torus, torus.zero_index)[0])


def sharpness_sweep(
    epsilon: float,
    beta: float,
    N_list: tuple = (1, 2, 4, 8),
    n_cap: int = 8192,
) -> list:
    """Find (lam < 0, n) with kernel value at zero >= 1 - epsilon, then verify
    the closed-form determinant family against covariance_det.

    The kernel value g_lam(0) = 1/(x (1 + x^-n)) with x = 1 - beta lam / n is
    unimodal in x > 1 with maximum at x = (n-1)^(1/n); n is doubled from 4
    until the maximum clears 1 - epsilon, then lam is found by bisection on
    the monotone branch between 0 and the maximizer.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = 4
    torus = None
    lam_star = None
    while n <= n_cap:
        torus = DiscreteTorus(beta=beta, n=n)
        x_star = (n - 1) ** (1.0 / n)
        lam_star = -(x_star - 1.0) * torus.rate
        if lam_star < -1e6:
            raise RuntimeError(
                f"sharpness search left the window [-1e6, 0] at n={n}; "
                f"epsilon={epsilon} is too small for double precision"
            )
        if _kernel_at_zero(lam_star, torus) >= 1.0 - epsilon:
            break
        n *= 2
    else:
        raise RuntimeError(
            f"no n <= {n_cap} reaches a kernel value of {1 - epsilon}; "
            f"epsilon={epsilon} is too small for this cap"
        )

    # bisect the smallest |lam| on [0, |lam_star|] with g_lam(0) >= 1 - epsilon
    lo, hi = 0.0, -lam_star
    for _ in range(80):
        mid = (lo + hi) / 2
        if _kernel_at_zero(-mid, torus) >= 1.0 - epsilon:
            hi = mid
        else:
            lo = mid
    lam = -hi

    reports = []
    for N in N_list:
        d = N
        H = HermitianMatrix(lam * np.eye(d))
        basis = np.eye(d)
        points = [(torus.zero_index, basis[k], 0) for k in range(N)]
        points += [(torus.zero_index, basis[l], 0) for l in range(N)]
        inst = BoundInstance(
            H=H, torus=torus, chi=CutoffSpec.one(), M=np.array([[1.0]]), points=points
        )
        det = covariance_det(inst)
        x = 1.0 - lam / torus.rate
        closed = x ** (-N) * (1.0 + abs(x) ** (-n)) ** (-N)
        if abs(det - closed) > 1e-12 * abs(closed):
            raise AssertionError(
                f"covariance_det {det} disagrees with closed form {closed}"
            )
        reports.append(
            SharpnessReport(
                epsilon=epsilon,
                beta=beta,
                lam=lam,
                n=n,
                N=N,
                det=det,
                closed_form=closed,
                lower_bound=(1.0 - epsilon) ** (2 * N),
                bound=instance_bound(inst),
                kernel_at_zero=_kernel_at_zero(lam, torus),
            )
        )
    return reports


def universal_bound_estimate(
    bound_reports: list, sharpness_reports: list
) -> UniversalBracket:
    """Bracket the best universal per-factor constant from the two suites.

    Lower edge: max over sharpness witnesses of |det|^(1/2N) normalized by the
    per-factor bound.  Upper edge: 1, backed by the absence of violations in
    the bound suite (violations, if any, are counted, not asserted here).
    """
    if not bound_reports or not sharpness_reports:
        raise ValueError("both suites must be nonempty")
    lower = 0.0
    for rep in sharpness_reports:
        per_factor = rep.bound ** (1.0 / (2 * rep.N)) if rep.bound > 0 else 1.0
        lower = max(lower, rep.det_abs ** (1.0 / (2 * rep.N)) / per_factor)
    violations = sum(0 if r.passed else 1 for r in bound_reports)
    eps = min(r.epsilon for r in sharpness_reports)
    if lower < 1.0 - eps - 1e-6:
        raise AssertionError(
            f"sharpness lower estimate {lower} fell below 1 - epsilon = {1 - eps}"
        )
    return UniversalBracket(
        lower=lower,
        upper=1.0,
        epsilon=eps,
        sharpness_count=len(sharpness_reports),
        bound_count=len(bound_reports),
        violations=violations,
    )
