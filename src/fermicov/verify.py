"""Verification suites: bound checks, sharpness sweeps.

Everything here is seeded and replayable: each generated instance carries an
integer seed that regenerates it bit-exactly, and suites process instances in
instance-id order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fermicov.covariance import (
    BoundInstance,
    InstanceStack,
    covariance_det,
    instance_bound,
    kernel_values_at,
)
from fermicov.mspace import random_tree, bk_matrix
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus

__all__ = [
    "GeneratorConfig",
    "CHECK",
    "BoundSuiteResult",
    "SharpnessReport",
    "random_instance",
    "random_instances",
    "instance_seed",
    "within_bound",
    "bound_check_suite",
    "sharpness_sweep",
    "universal_bound_estimate",
]

SLACK_TOL = 1e-10  # a check passes when bound - |det| >= -SLACK_TOL * max(1, bound)
SHARPNESS_N_CAP = 8192  # sharpness_sweep doubles n from 4 up to this grid order
# the bound suite generates this many instances, then checks them as stacks;
# a fixed chunk keeps its memory flat in the count
CHUNK = 256
STAGES = ("generate", "eig", "det", "bound")  # the bound suite's timed stages
# one bound check: the bound-check CSV's columns, in CSV order
CHECK = np.dtype([("instance_id", np.int64), ("seed", np.int64), ("d", np.int64),
                  ("m", np.int64), ("N", np.int64), ("n", np.int64), ("beta", float),
                  ("det_re", float), ("det_im", float), ("det_abs", float), ("bound", float),
                  ("slack", float), ("pass", bool)])


@dataclass
class GeneratorConfig:
    """Ranges for random determinant-bound instances."""

    d_max: int = 3
    m_max: int = 3
    N_max: int = 3
    n_choices: tuple = (2, 4, 8)
    beta_choices: tuple = (0.5, 1.0, 2.0)
    scale_max: float = 1e3  # eigenvalue magnitudes sweep 0.1 to this, in units of n/beta

    def __post_init__(self):
        for name in ("d_max", "m_max", "N_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("n_choices", "beta_choices"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        for n, beta in itertools.product(self.n_choices, self.beta_choices):
            try:
                DiscreteTorus(beta=beta, n=n)  # every pair the generator may draw
            except ValueError as exc:
                raise ValueError(f"n_choices and beta_choices: {exc}") from None
        if not 0.1 <= self.scale_max < math.inf:  # the floor of the scale draw
            raise ValueError(f"scale_max must be a finite number >= 0.1, got {self.scale_max}")


@dataclass
class BoundSuiteResult:
    """The checks of one bound suite, in instance-id order, and what the run saw."""

    checks: np.ndarray  # one CHECK record per check
    # wall seconds per stage, summed over the run
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    zero_bound: int = 0  # checks whose bound is exactly 0.0
    zero_det: int = 0  # checks whose det is exactly 0.0 under a positive bound
    singular_band_hits: int = 0  # eigenvalues in the singular band, over all checks
    pinned: int = 0  # instances generated with an eigenvalue pinned on n/beta
    # the check with the largest per-factor ratio (|det|/bound)^(1/2N), as
    # {seed, slack, ratio}; None while no bound is positive
    tightest: dict | None = None

    def summary(self) -> dict:
        """Every field but the checks: JSON summary keys, which the CSV never carries."""
        return {key: value for key, value in vars(self).items() if key != "checks"}


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

    @property
    def passed(self) -> bool:
        """The witness's verdict: det agrees with its closed form and |det| reaches
        (1 - eps)^(2N), each to a relative 1e-12, and the bound holds (within_bound)."""
        return bool(abs(self.det - self.closed_form) <= 1e-12 * abs(self.closed_form)
                    and self.det_abs >= self.lower_bound * (1.0 - 1e-12)
                    and within_bound(self.det, self.bound))


def instance_seed(root_seed: int, instance_id: int) -> int:
    """Stable per-instance seed; regenerating from it replays the instance."""
    return (int(root_seed) * 1_000_003 + int(instance_id)) % (2**63 - 1)


def _pick(rng, options):
    """One uniform element; the same draw and value as rng.choice(options)."""
    return options[int(rng.integers(0, len(options)))]


def _hash_constants(h: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 values of SeedSequence's hash constant over count calls, as
    a uint32 column: call k xors with row k and multiplies by row k + 1."""
    out = [h]
    for _ in range(count):
        h = h * mult & 0xFFFFFFFF
        out.append(h)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence: the pool's 4 + 12 hashes, its output's 8, and the mix;
# and PCG64's 128-bit multiplier
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(v: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of v, with one constant call per row."""
    v = (v ^ constants[:-1]) * constants[1:]
    return v ^ v >> 16


def _pcg64_states(seeds) -> list:
    """The (state, inc) pair that np.random.PCG64(seed) starts from, for each
    seed in [0, 2^64): SeedSequence's pool hash and generate_state(4, uint64),
    vectorized over seeds in wrapping uint32 arithmetic, then PCG64's two-step
    set_seed in Python integers."""
    seeds = np.array(seeds, dtype=np.uint64)
    # a seed below 2^64 is at most two entropy words; the pool's other two hash 0
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hash(pool, _POOL_HASH[:5])
    for src in range(4):  # word src, hashed once per other word, mixed into each
        dst = [k for k in range(4) if k != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _POOL_HASH[4 + 3 * src:8 + 3 * src])
        pool[dst] = mixed ^ mixed >> 16
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT_HASH).T  # (seeds, 8)
    states = []
    for hi, lo, inc_hi, inc_lo in words.astype("<u4", order="C").view("<u8").tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & (2**128 - 1)
        states.append(((((hi << 64 | lo) + inc) * _PCG_MULT + inc) & (2**128 - 1), inc))
    return states


class _Stream:
    """The Generator calls that _draw makes, on one PCG64 set once per seed.

    Iterating yields the stream once per seed, in seeds order, in the state
    np.random.default_rng(seed) starts in.  Each method then returns what the
    Generator method of its name returns, from the same bits: integers(low,
    high) by numpy's Lemire rule on 32-bit draws up to a width of 2^32 and on
    64-bit draws above it, random(), uniform(low, high) as low + (high -
    low) * a double, and normal through a Generator on the same bits.
    """

    def __init__(self, seeds):
        self._states = _pcg64_states(seeds)
        self._bits = np.random.PCG64(0)  # each seed's state replaces this one
        c = self._bits.ctypes
        self._ptr = c.state.value  # the address of self._bits' state, which it keeps
        self._next32, self._next64, self._double = c.next_uint32, c.next_uint64, c.next_double
        self.normal = np.random.Generator(self._bits).normal

    def __iter__(self):
        for state, inc in self._states:
            self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
            yield self

    def integers(self, low: int, high: int) -> int:
        low = int(low)  # a numpy integer would wrap in the products below
        width = int(high) - low
        if width < 1:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        if width == 1:
            return low
        draw, bits = (self._next32, 32) if width <= 2**32 else (self._next64, 64)
        mask = (1 << bits) - 1
        m = draw(self._ptr) * width
        if m & mask < width:
            threshold = (1 << bits) % width  # reject the low words that bias m >> bits
            while m & mask < threshold:
                m = draw(self._ptr) * width
        return low + (m >> bits)

    def random(self) -> float:
        return self._double(self._ptr)

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        width = high - low
        if not math.isfinite(width):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, width) < 0:  # -0.0 too, as numpy's sign-bit test
            raise ValueError("high - low < 0")
        return low + width * self._double(self._ptr)


class _Draws(NamedTuple):
    """One instance's rng draws, with the per-instance objects built from them."""

    d: int
    N: int
    n: int
    beta: float
    scale: float  # eigenvalue magnitude: n/beta times 10^u, u uniform in [-1, log10(scale_max))
    A: np.ndarray  # (2, d, d): the real and imaginary parts of A
    pin: int | None  # the eigenvalue put on n/beta, or None
    chi: CutoffSpec
    M: np.ndarray
    points: list  # 2N draws (alpha offset, (2, d) real and imaginary phi, |phi|, color index)


def _draw(rng: _Stream, config: GeneratorConfig) -> _Draws:
    """Make one instance's rng calls, in the generator's order; the arithmetic
    that a (d, N) group shares is left to _assemble."""
    d = int(rng.integers(1, config.d_max + 1))
    m = int(rng.integers(1, config.m_max + 1))
    N = int(rng.integers(1, config.N_max + 1))
    n = int(_pick(rng, config.n_choices))
    beta = float(_pick(rng, config.beta_choices))
    # n/beta is torus.rate; a scalar expression, as an array pow may not give these bits
    scale = n / beta * 10.0 ** rng.uniform(-1.0, np.log10(config.scale_max))
    A = rng.normal(size=(2, d, d))
    # random() is uniform(): 0 + 1 * the same double, exact on every platform
    pin = int(rng.integers(0, d)) if rng.random() < 0.05 else None

    kind = _pick(rng, ("one", "indicator", "gaussian"))
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

    if _pick(rng, ("psd", "bk")) == "bk":
        M = bk_matrix(random_tree(m, rng), t=float(rng.uniform(0.2, 1.0)))
    else:
        r = int(rng.integers(1, m + 1))
        B = rng.normal(size=(m, r))
        M = B @ B.T

    points = [(int(rng.integers(0, n)), rng.normal(size=(2, d)), rng.uniform(0.3, 1.5),
               int(rng.integers(0, m))) for _ in range(2 * N)]
    return _Draws(d, N, n, beta, scale, A, pin, chi, M, points)


def _assemble(draws: list) -> list:
    """Each (d, N) group of draws as (members, arrays): its positions in draws
    and its members' InstanceStack arguments (H, phi, index, color, beta, n,
    chi, M).

    The arithmetic and checks that do not depend on the instance run once per
    group, on its stack, and give each member the bits it gets alone; each
    pinned instance takes its own eigendecomposition.
    """
    groups = {}
    for k, dr in enumerate(draws):
        groups.setdefault((dr.d, dr.N), []).append(k)
    assembled = []
    for (d, N), members in groups.items():
        group = [draws[k] for k in members]
        scale = np.array([dr.scale for dr in group]) / max(1.0, np.sqrt(d))
        Z = np.array([dr.A for dr in group])
        A = Z[:, 0] + 1j * Z[:, 1]
        H = scale[:, None, None] * (A + A.conj().swapaxes(-1, -2)) / 2
        pinned = [i for i, dr in enumerate(group) if dr.pin is not None]
        for i, matrix in zip(pinned, HermitianMatrix(H[pinned]).matrix):
            # pin one eigenvalue exactly on the singular value n/beta
            S = eig_hermitian(HermitianMatrix._trusted(matrix))
            vals = S.values.copy()
            vals[group[i].pin] = group[i].n / group[i].beta
            H[i] = (S.vectors * vals) @ S.vectors.conj().T

        offsets, Z, radius, color = map(np.array, zip(*(zip(*dr.points) for dr in group)))
        phi = Z[:, :, 0] + 1j * Z[:, :, 1]  # (B, 2N, d)
        # each |phi|^2 as np.linalg.norm sums it: re . re + im . im, one dot product each
        re, im = phi.real[..., None, :], phi.imag[..., None, :]
        norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
        phi *= (radius / np.maximum(norms, 1e-30))[..., None]

        beta = np.array([dr.beta for dr in group])
        n = np.array([dr.n for dr in group])
        index = DiscreteTorus._stack(beta[:, None], n[:, None]).zero_index + offsets
        assembled.append((members, (HermitianMatrix(H), phi, index, color, beta, n,
                                    [dr.chi for dr in group], [dr.M for dr in group])))
    return assembled


def random_instances(seeds, config: GeneratorConfig) -> list:
    """Generate one seeded random instance per seed, in seeds order.

    The cutoff kind (one, indicator, gaussian) and the matrix kind (PSD or
    BK) are drawn uniformly, and one instance in twenty gets an eigenvalue
    pinned on n/beta.  Each instance is what its seed alone gives, bit for bit:
    what np.random.default_rng(seed) draws, for each seed in [0, 2^64).
    """
    draws = [_draw(rng, config) for rng in _Stream(seeds)]
    insts = [None] * len(draws)
    for members, (H, phi, index, color, beta, n, chi, M) in _assemble(draws):
        for i, (k, beta_i, n_i) in enumerate(zip(members, beta.tolist(), n.tolist())):
            insts[k] = BoundInstance(H=HermitianMatrix._trusted(H.matrix[i]),
                                     torus=DiscreteTorus(beta=beta_i, n=n_i), chi=chi[i],
                                     M=M[i], points=list(zip(index[i], phi[i], color[i])))
    return insts


def random_instance(seed: int, config: GeneratorConfig) -> BoundInstance:
    """Generate one seeded random instance (see random_instances)."""
    return random_instances([seed], config)[0]


def within_bound(det: complex | np.ndarray, bound: float | np.ndarray) -> np.bool_ | np.ndarray:
    """The pass rule of every bound check: bound - |det| >= -SLACK_TOL * max(1, bound),
    elementwise on arrays, with |det| taken as abs() takes it, bit for bit."""
    return bound - np.hypot(det.real, det.imag) >= -SLACK_TOL * np.maximum(1.0, bound)


def _generate(ids: range, seeds: list, config: GeneratorConfig) -> tuple:
    """The draws of the instances ids, from their seeds, and their (d, N) groups
    (see _assemble).  A generator error, such as a scale too large for the draws
    or the matrix, names the first instance that fails alone and its seed."""
    try:
        draws = [_draw(rng, config) for rng in _Stream(seeds)]
        return draws, _assemble(draws)
    except (ValueError, OverflowError):
        for i, seed_i, rng in zip(ids, seeds, _Stream(seeds)):
            try:
                _assemble([_draw(rng, config)])
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"instance {i} (seed {seed_i}): {exc}") from None
        raise


def _check_chunk(ids: range, seed: int, config: GeneratorConfig, result: BoundSuiteResult):
    """Generate and check the instances ids, filling their records of result.checks
    up to det_abs, slack and pass."""
    stage = result.stage_s
    seeds = [instance_seed(seed, i) for i in ids]
    t0 = time.perf_counter()
    draws, groups = _generate(ids, seeds, config)
    stage["generate"] += time.perf_counter() - t0
    result.pinned += sum(dr.pin is not None for dr in draws)
    rows = result.checks[ids.start:ids.stop]
    dets = np.empty(len(draws), dtype=complex)
    for members, arrays in groups:
        t0 = time.perf_counter()
        stack = InstanceStack(*arrays)
        t1 = time.perf_counter()
        dets[members] = np.linalg.det(stack.matrices())
        t2 = time.perf_counter()
        rows["bound"][members] = stack.bounds()
        stage["eig"] += t1 - t0
        stage["det"] += t2 - t1
        stage["bound"] += time.perf_counter() - t2
        result.singular_band_hits += stack.singular_hits()

    bad = np.flatnonzero(~np.isfinite(dets))
    if bad.size:
        k = int(bad[0])
        raise FloatingPointError(f"instance {ids[k]} (seed {seeds[k]}): "
                                 f"determinant {complex(dets[k])} is not finite")
    rows[["instance_id", "seed", "d", "m", "N", "n", "beta"]] = [
        (i, s, dr.d, len(dr.M), dr.N, dr.n, dr.beta) for i, s, dr in zip(ids, seeds, draws)]
    rows["det_re"], rows["det_im"] = dets.real, dets.imag


def bound_check_suite(count: int, config: GeneratorConfig | None = None,
                      seed: int = 0) -> BoundSuiteResult:
    """Run count seeded random determinant-bound checks; bound violations are
    reported, never raised, and a non-finite determinant raises
    FloatingPointError naming the first such instance.

    Instances are generated CHUNK at a time; each chunk's instances of one
    shape (d, N) are checked as one InstanceStack, which gives every check the
    bits it gets alone (covariance_det, instance_bound).  The checks come back
    as CHECK records ordered by instance id; their verdicts, zeros and the
    tightest check are taken once, over the whole run."""
    config = config or GeneratorConfig()
    result = BoundSuiteResult(np.empty(count, dtype=CHECK))
    for start in range(0, count, CHUNK):
        _check_chunk(range(start, min(start + CHUNK, count)), seed, config, result)
    checks = result.checks
    bound = checks["bound"]
    positive = bound > 0.0
    det_abs = np.hypot(checks["det_re"], checks["det_im"])  # abs() bit for bit, as the CSV takes it
    checks["det_abs"], checks["slack"] = det_abs, bound - det_abs
    checks["pass"] = within_bound(det_abs, bound)  # a real |det| is its own modulus
    result.zero_bound = int(np.count_nonzero(bound == 0.0))
    result.zero_det = int(np.count_nonzero((det_abs == 0.0) & positive))
    if positive.any():
        power = 1.0 / (2 * checks["N"])
        ratio = np.full(count, -np.inf)
        np.divide(det_abs ** power, bound ** power, out=ratio, where=positive)
        k = int(np.argmax(ratio))  # the first of equals, in instance-id order
        result.tightest = {"seed": int(checks["seed"][k]), "slack": float(checks["slack"][k]),
                           "ratio": float(ratio[k])}
    return result


def _kernel_at_zero(lam: float, torus: DiscreteTorus) -> float:
    return float(kernel_values_at(np.array([lam]), torus, torus.zero_index)[0])


def sharpness_sweep(
    epsilon: float,
    beta: float,
    N_list: tuple = (1, 2, 4, 8),
) -> list:
    """Find (lam < 0, n) with g_lam(0) >= 1 - epsilon, then report one witness per
    N, H = [[lam]] on one mode with N orthonormal colors (M = I_N): its
    covariance_det next to the closed form, judged by SharpnessReport.passed.

    The kernel value g_lam(0) = 1/(x (1 + x^-n)) with x = 1 - beta lam / n is
    unimodal in x > 1 with maximum at x = (n-1)^(1/n); n is doubled from 4 up
    to SHARPNESS_N_CAP until the maximum clears 1 - epsilon, then lam is found
    by bisection on the monotone branch between 0 and the maximizer.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = 4
    while n <= SHARPNESS_N_CAP:
        torus = DiscreteTorus(beta=beta, n=n)
        x_star = (n - 1) ** (1.0 / n)
        lam_star = -(x_star - 1.0) * torus.rate
        if _kernel_at_zero(lam_star, torus) >= 1.0 - epsilon:
            break
        n *= 2
    else:
        raise RuntimeError(
            f"no n <= {SHARPNESS_N_CAP} reaches a kernel value of {1 - epsilon}; "
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
        points = [(torus.zero_index, [1.0], k) for k in range(N)] * 2
        inst = BoundInstance(H=HermitianMatrix(np.array([[lam]])), torus=torus,
                             chi=CutoffSpec.one(), M=np.eye(N), points=points)
        det = covariance_det(inst)
        x = 1.0 - lam / torus.rate
        closed = x ** (-N) * (1.0 + abs(x) ** (-n)) ** (-N)
        reports.append(SharpnessReport(
            epsilon=epsilon, beta=beta, lam=lam, n=n, N=N, det=det, closed_form=closed,
            lower_bound=(1.0 - epsilon) ** (2 * N), bound=instance_bound(inst),
            kernel_at_zero=_kernel_at_zero(lam, torus),
        ))
    return reports


def universal_bound_estimate(sharpness_reports: list) -> float:
    """The lower edge of the bracket [lower, 1] for the best universal per-factor constant.

    The maximum over sharpness witnesses of |det|^(1/2N) normalized by the
    per-factor bound; the upper edge 1 is backed by the bound suite.  As the
    family's bound is 1.0, lower is at least 1 - epsilon - 1e-12 unless a witness
    at the smallest epsilon fails, and its report says so.
    """
    if not sharpness_reports:
        raise ValueError("the sharpness suite must be nonempty")
    return max(0.0, *(rep.det_abs ** (1.0 / (2 * rep.N))
                      / (rep.bound ** (1.0 / (2 * rep.N)) if rep.bound > 0 else 1.0)
                      for rep in sharpness_reports))
