"""Verification suites: bound checks, sharpness sweeps.

Everything here is seeded and replayable: each generated instance carries an
integer seed that regenerates it bit-exactly, and suites process instances in
instance-id order.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from fermicov.covariance import (
    BoundInstance,
    InstanceStack,
    covariance_det,
    instance_bound,
    kernel_values_at,
)
from fermicov.mspace import bk_matrices
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus

__all__ = [
    "GeneratorConfig",
    "CHECK",
    "BoundSuiteResult",
    "SHARPNESS",
    "random_instance",
    "random_instances",
    "instance_seed",
    "within_bound",
    "bound_check_suite",
    "sharpness_sweep",
    "witness_pass",
    "universal_bound_estimate",
]

SLACK_TOL = 1e-10  # a check passes when bound - |det| >= -SLACK_TOL * max(1, bound)
SHARPNESS_N_CAP = 8192  # sharpness_sweep doubles n from 4 up to this grid order
# the bound suite generates this many instances, then checks them as stacks; each chunk
# pays a fixed cost, and a fixed chunk keeps memory flat in the count.  Traced peak of a
# chunk: 2.2 MiB at the default ranges, 22.7 MiB at d, m, N, n up to 8, 4, 32, 64, and
# 79.7 MiB at d, m, N, n up to 8, 4, 128, 64 (5.7 and 21.3 MiB at CHUNK = 256)
CHUNK = 1024
STAGES = ("generate", "eig", "det", "bound")  # the bound suite's timed stages
# one bound check: the bound-check CSV's columns, in CSV order
CHECK = np.dtype([("instance_id", np.int64), ("seed", np.int64), ("d", np.int64),
                  ("m", np.int64), ("N", np.int64), ("n", np.int64), ("beta", float),
                  ("det_re", float), ("det_im", float), ("det_abs", float), ("bound", float),
                  ("slack", float), ("pass", bool)])
# one sharpness witness: the sharpness CSV's columns, then its det, bound and |det|^(1/2N);
# SHARPNESS_CSV and UNIVERSAL_CSV name the fields of the sharpness and universal CSVs
SHARPNESS = np.dtype([("epsilon", float), ("beta", float), ("lam", float), ("n", np.int64),
                      ("N", np.int64), ("det_abs", float), ("closed_form", float),
                      ("lower_bound", float), ("kernel_at_zero", float), ("det", complex),
                      ("bound", float), ("per_factor_estimate", float)])
SHARPNESS_CSV = list(SHARPNESS.names[:9])
UNIVERSAL_CSV = ["epsilon", "N", "n", "lam", "det_abs", "per_factor_estimate"]


@dataclass(frozen=True)
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


def instance_seed(root_seed: int, instance_id: int) -> int:
    """Stable per-instance seed; regenerating from it replays the instance."""
    return (int(root_seed) * 1_000_003 + int(instance_id)) % (2**63 - 1)


def _hash_constants(h: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 values of SeedSequence's hash constant over count calls, as
    a uint32 column: call k xors with row k and multiplies by row k + 1."""
    out = [h]
    for _ in range(count):
        h = h * mult & 0xFFFFFFFF
        out.append(h)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence: the pool's 4 + 12 hashes, its output's 8, and the mix;
# and PCG64's 128-bit multiplier and its inverse
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INV = pow(_PCG_MULT, -1, 2**128)


def _hash(v: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of v, with one constant call per row."""
    v = (v ^ constants[:-1]) * constants[1:]
    return v ^ v >> 16


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) for each seed in [0, 2^64), one
    row per seed: the pool hash and the output hash, vectorized over seeds in
    wrapping uint32 arithmetic."""
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
    return words.astype("<u4", order="C").view("<u8")


@functools.cache
def _seeded() -> type:
    """PCG64's seed from a lane's SeedSequence words: PCG64(_seeded()(row)) starts
    where PCG64(seed) starts, with no hash of its own.  Made on first use, so that
    importing fermicov does not import numpy.random."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for its 4 uint64 words, and only for them

    return Seeded


def _pcg64_state(state: dict, has_uint32=0, uinteger=0) -> dict:
    return {"bit_generator": "PCG64", "state": state,
            "has_uint32": int(has_uint32), "uinteger": int(uinteger)}


@functools.cache
def _ziggurat() -> tuple:
    """numpy's normal ziggurat as (wi, ki, kh, fi): layer idx's width wi = x_idx / 2^52,
    read from normal() on the crafted word (1 << 9) | idx; a lower bound ki and an
    upper bound kh of its acceptance bound 2^52 x_(idx-1) / x_idx (r = x_255 for layer
    0, none for layer 1), shrunk and grown by 1e-12 so that rounding leaves numpy's
    between them; and the density at each layer's edge, fi = exp(-x_idx^2 / 2), with
    fi[0] = 1 for the top of layer 1."""
    bits = np.random.PCG64(0)
    normal, inc = np.random.Generator(bits).normal, bits.state["state"]["inc"]
    wi = np.empty(256)
    for idx in range(256):  # the state that steps to state (1 << 9) | idx, its next word
        bits.state = _pcg64_state({"state": (((1 << 9) | idx) - inc) * _PCG_INV % 2**128,
                                   "inc": inc})
        wi[idx] = normal()
    ratio = np.zeros(256)
    ratio[0], ratio[2:] = wi[255] / wi[0], wi[1:-1] / wi[2:]
    ki = (ratio * 2.0**52 * (1 - 1e-12)).astype(np.uint64)
    kh = (ratio * 2.0**52 * (1 + 1e-12)).astype(np.uint64) + 1
    fi = np.exp(-0.5 * (wi * 2.0**52) ** 2)
    fi[0] = 1.0
    for table in (wi, ki, kh, fi):
        table.flags.writeable = False  # shared by every caller
    return wi, ki, kh, fi


class _Words:
    """The raw PCG64 words of a chunk's seeds, one row per lane, decoded in lockstep:
    each method makes one Generator call on each lane given, with its bits.  A
    lane keeps a cursor into its row and PCG64's buffered half word.  numpy
    decides the rare branches, on the lane's state at its cursor; the lane then
    reads on, in a fresh row, from the state numpy leaves.  A row holds a whole
    draw's words when numpy decides nothing, and SPARE more for the wedge tests
    decided here, each of which spends one or two (spent, since the row began);
    so no row runs out."""

    # from 8 on, the default 2000-check suite at root seed 0 leaves numpy 47 calls (763
    # with no spare word); wider draws spend more: the first 300 lanes at root seed 0
    # with d, m, N, n up to 8, 4, 32, 64 leave it 246 calls at 8, 191 at 16, 182 at 32
    SPARE = 16

    def __init__(self, seeds, width: int):
        self.bits = np.random.PCG64(0)
        self.generator = np.random.Generator(self.bits)
        self.seeded = _seed_words(seeds)  # each lane's PCG64 seed words
        self.start = {}  # a lane's PCG64 state at its row's first word, once numpy set it
        self.rows = np.empty((len(seeds), width + self.SPARE), dtype=np.uint64)
        self.cur, self.has32 = np.zeros(len(seeds), dtype=np.int64), np.zeros(len(seeds), bool)
        self.buf = np.zeros(len(seeds), dtype=np.uint64)
        self.spent = np.zeros(len(seeds), dtype=np.int64)
        seeded = _seeded()
        for lane, words in enumerate(self.seeded):
            self.rows[lane] = np.random.PCG64(seeded(words)).random_raw(self.rows.shape[1])

    def _read(self, lanes, span: int) -> np.ndarray:
        """The next span words of each lane; past its row, its last word again."""
        cols = self.cur[lanes][:, None] + np.arange(span)
        return self.rows[lanes[:, None], np.minimum(cols, self.rows.shape[1] - 1)]

    def _numpy(self, lane, call):
        """call(Generator) on the lane's state at its cursor, then a fresh row."""
        start = self.start.get(lane) or np.random.PCG64(_seeded()(self.seeded[lane])).state["state"]
        self.bits.state = _pcg64_state(start, self.has32[lane], self.buf[lane])
        self.bits.random_raw(int(self.cur[lane]))  # the words read; the buffered half stays
        value = call(self.generator)
        after = self.bits.state
        self.start[lane] = after["state"]
        self.has32[lane], self.buf[lane] = after["has_uint32"], after["uinteger"]
        self.rows[lane] = self.bits.random_raw(self.rows.shape[1])
        self.cur[lane] = self.spent[lane] = 0
        return value

    def integers(self, lanes, low, width) -> np.ndarray:
        """integers(low, low + width) on each lane: Lemire's rule on 32-bit draws,
        where numpy decides a rejection and a width above 2^32."""
        low, width = np.zeros_like(lanes) + low, np.zeros_like(lanes) + width
        if (width < 1).any():  # numpy's messages
            raise ValueError("high <= 0" if low[width < 1][0] == 0 else "low >= high")
        out = low.copy()
        small = ((width > 1) & (width <= 2**32)).nonzero()[0]  # width 1 draws nothing
        L, w = lanes[small], width[small].astype(np.uint64)
        has, word = self.has32[L], self._read(L, 1)[:, 0]
        m = np.where(has, self.buf[L], word & 0xFFFFFFFF) * w
        ok = (m & 0xFFFFFFFF) >= 2**32 % w  # else numpy's rejection loop
        fresh = ok & ~has
        self.cur[L[fresh]] += 1
        self.buf[L[fresh]] = word[fresh] >> 32
        self.has32[L[ok]] = fresh[ok]
        out[small[ok]] += (m[ok] >> 32).astype(np.int64)
        for i in [*small[~ok].tolist(), *(width > 2**32).nonzero()[0].tolist()]:
            out[i] = self._numpy(lanes[i], lambda g: g.integers(low[i], low[i] + width[i]))
        return out

    def doubles(self, lanes, count=1) -> np.ndarray:
        """random() count times on each lane, (word >> 11) * 2^-53, as rows padded
        to the largest count."""
        count = np.zeros_like(lanes) + count
        words = self._read(lanes, count.max(initial=1))
        self.cur[lanes] += count
        return (words >> 11) * 2.0**-53

    @np.errstate(over="ignore", invalid="ignore")  # a width that is not finite raises below
    def uniform(self, lanes, low, high) -> np.ndarray:
        """uniform(low, high) on each lane, with numpy's checks of high - low."""
        width = np.subtract(high, low)
        if not np.isfinite(width).all():
            raise OverflowError("high - low range exceeds valid bounds")
        if np.signbit(width).any():
            raise ValueError("high - low < 0")
        return low + width * self.doubles(lanes)[:, 0]

    def _fast_path(self, lanes, count) -> tuple:
        """The ziggurat's fast path on each lane's next count words: their normals up
        to its first word off the path, as rows padded with 0, and how many."""
        wi, ki = _ziggurat()[:2]
        words = self._read(lanes, count.max(initial=1))
        span = np.arange(words.shape[1])
        idx, rabs = words & 0xFF, (words >> 9) & (2**52 - 1)
        off = (rabs >= ki[idx]) & (span < count[:, None])
        run = np.where(off.any(axis=1), off.argmax(axis=1), count)
        x = rabs * wi[idx]  # + 0.0 below: loc + scale * x, at 0 and 1
        self.cur[lanes] += run
        return np.where(span < run[:, None], np.where(words & 0x100, -x, x) + 0.0, 0.0), run

    def normals(self, lanes, count) -> np.ndarray:
        """normal(size=count) on each lane, as rows padded to the largest count.

        A lane's first word off the fast path is decided here where numpy's verdict
        is certain: a layer above 0, rabs >= kh, and a wedge test whose sides differ
        by more than 1e-9 relative, which the next word's double decides as numpy's
        does: accepted, the value is x; rejected, the same value is drawn again.
        Those lanes then take the fast path once more.  numpy decides the rest of a
        block from any other word off the path, or where the test would spend more
        words than the row has spare."""
        wi, ki, kh, fi = _ziggurat()
        count = np.zeros_like(lanes) + count
        out, run = self._fast_path(lanes, count)
        stop = (run < count).nonzero()[0]
        if stop.size:
            L = lanes[stop]
            word, u = self._read(L, 2).T
            idx, rabs = (word & 0xFF).astype(np.int64), (word >> 9) & (2**52 - 1)
            x = rabs * wi[idx]
            x = np.where(word & 0x100, -x, x) + 0.0
            # fi[idx - 1] is fi[-1] at layer 0, whose tail numpy decides
            lhs = (fi[idx - 1] - fi[idx]) * ((u >> 11) * 2.0**-53) + fi[idx]
            rhs = np.exp(-0.5 * x * x)
            accept = lhs < rhs
            sure = ((idx > 0) & (rabs >= kh[idx]) & (np.abs(lhs - rhs) > 1e-9 * rhs)
                    & (self.spent[L] + 2 - accept <= self.SPARE))
            here, accept = stop[sure], accept[sure]
            out[here[accept], run[here[accept]]] = x[sure][accept]
            self.cur[L[sure]] += 2
            self.spent[L[sure]] += 2 - accept
            run[here] += accept
            more = here[run[here] < count[here]]
            values, extra = self._fast_path(lanes[more], count[more] - run[more])
            r, c = (np.arange(values.shape[1]) < extra[:, None]).nonzero()
            out[more[r], run[more[r]] + c] = values[r, c]
            run[more] += extra
        for i in (run < count).nonzero()[0].tolist():
            out[i, run[i]:count[i]] = self._numpy(lanes[i], lambda g: g.normal(
                size=count[i] - run[i]))
        return out


# the chunk table: a dict of columns, one row per lane, its draws in v1's frozen
# order, a block of draws as a zero-padded row: d, m, N, n, beta, scale (n/beta *
# 10^u, u uniform in [-1, log10(scale_max))), A (2 d d: its real, then imaginary
# parts), pin (the eigenvalue put on n/beta, or -1), kind and params (2) (see
# CutoffSpec.stacked), r (M is B B^T, B (m r), or at r = 0 the BK matrix of the tree
# with edges (parent[v - 1], v), v < m, weights weight (m - 1) and t), and the
# points' offset, phi (2 d), radius and color (2N each)


@np.errstate(all="ignore")  # what overflows is not finite, and raises in _assemble
def _decode(seeds, config: GeneratorConfig) -> dict:
    """The chunk table of seeds, decoded in lockstep from their raw words."""
    d_max, m_max, N_max = config.d_max, config.m_max, config.N_max
    # the most words a draw reads when numpy decides nothing, a word per 32-bit
    # integer: the shape, scale, A, pin and cutoff; a BK tree or B; the points
    words = _Words(seeds, 12 + 2 * d_max**2 + max(2 * m_max - 1, 1 + m_max**2)
                   + 2 * N_max * (3 + 2 * d_max))
    every = np.arange(len(seeds))
    d, m, N = (words.integers(every, 1, k) for k in (d_max, m_max, N_max))
    n = np.array(config.n_choices, dtype=np.int64)[words.integers(every, 0, len(config.n_choices))]
    beta = np.array(config.beta_choices, dtype=float)[
        words.integers(every, 0, len(config.beta_choices))]
    u = words.uniform(every, -1.0, np.log10(config.scale_max))
    # n/beta is torus.rate; a scalar power, as an array pow may not give these bits
    scale = n / beta * np.array([10.0 ** x for x in u.tolist()])
    A = words.normals(every, 2 * d * d)
    pin = np.full(len(seeds), -1)
    pinned = every[words.doubles(every)[:, 0] < 0.05]  # random() is uniform(0, 1)
    pin[pinned] = words.integers(pinned, 0, d[pinned])
    kind = words.integers(every, 0, 3)
    params = np.zeros((len(seeds), 2))
    L = every[kind == 1]  # indicator: half width, then center
    half_width = scale[L] * words.uniform(L, 0.1, 2.0)
    center = words.uniform(L, -scale[L], scale[L])
    params[L] = np.stack([center - half_width, center + half_width], axis=1)
    L = every[kind == 2]  # gaussian: center, then width
    params[L, 0] = words.uniform(L, -scale[L], scale[L])
    params[L, 1] = scale[L] * words.uniform(L, 0.2, 2.0)
    bk = words.integers(every, 0, 2) == 1
    parent = np.zeros((len(seeds), m_max - 1), dtype=np.int64)
    for v in range(1, m_max):
        L = every[bk & (m > v)]
        parent[L, v - 1] = words.integers(L, 0, v)
    weight = words.doubles(every, np.where(bk, m - 1, 0))  # uniform(0, 1) is its double
    t, r = np.zeros(len(seeds)), np.zeros(len(seeds), dtype=np.int64)
    t[bk] = words.uniform(every[bk], 0.2, 1.0)
    r[~bk] = words.integers(every[~bk], 1, m[~bk])
    B = words.normals(every, m * r)
    offset, color = np.zeros((2, len(seeds), 2 * N_max), dtype=np.int64)
    phi, radius = np.zeros((len(seeds), 2 * N_max, 2 * d_max)), np.zeros((len(seeds), 2 * N_max))
    for q in range(2 * N_max):
        L = every[2 * N > q]
        offset[L, q] = words.integers(L, 0, n[L])
        phi[L, q, :2 * d[L].max(initial=0)] = words.normals(L, 2 * d[L])
        radius[L, q] = words.uniform(L, 0.3, 1.5)
        color[L, q] = words.integers(L, 0, m[L])
    return dict(d=d, m=m, N=N, n=n, beta=beta, scale=scale, A=A, pin=pin, kind=kind,
                params=params, parent=parent, weight=weight, t=t, r=r, B=B,
                offset=offset, phi=phi, radius=radius, color=color)


@np.errstate(all="ignore")  # what overflows is not finite, and raises below
def _assemble(table: dict) -> list:
    """Each (d, N) group of the table's lanes as (members, arrays): its lanes and
    their InstanceStack arguments (H, phi, index, color, beta, n, kind, params, M).

    What does not depend on the instance runs once per group, on its stack, and
    gives each member the bits it gets alone; the pinned members take one stacked
    eigendecomposition.  A cutoff or an H that is not finite raises its
    constructor's error, for the first such lane."""
    kind, p = table["kind"], table["params"]
    # drawn finite, an indicator's a <= b and a gaussian's width > 0 hold by construction
    bad = np.flatnonzero((kind > 0) & ~np.isfinite(p).all(axis=1))
    if bad.size:
        CutoffSpec.of_row(kind[bad[0]], p[bad[0]])
    # each lane's M in the top left of a zero stack: B B^T stacked per (m, r), the BK
    # matrices per m (at r = 0)
    m, r = table["m"], table["r"]
    M = np.zeros((len(m), m.max(), m.max()))
    for mi, ri in set(zip(m.tolist(), r.tolist())):
        rows = np.flatnonzero((m == mi) & (r == ri))
        B = table["B"][rows, :mi * ri].reshape(len(rows), mi, ri)
        parent = table["parent"][rows, :mi - 1]
        M[rows, :mi, :mi] = B @ B.swapaxes(-1, -2) if ri else bk_matrices(
            mi, np.stack(np.broadcast_arrays(parent, np.arange(1, mi)), axis=-1),
            table["weight"][rows, :mi - 1], table["t"][rows])
    assembled = []
    for d, N in set(zip(table["d"].tolist(), table["N"].tolist())):
        members = np.flatnonzero((table["d"] == d) & (table["N"] == N))
        scale = table["scale"][members] / max(1.0, np.sqrt(d))
        Z = table["A"][members, :2 * d * d].reshape(-1, 2, d, d)
        A = Z[:, 0] + 1j * Z[:, 1]
        H = scale[:, None, None] * (A + A.conj().swapaxes(-1, -2)) / 2
        beta, n = table["beta"][members], table["n"][members]
        pin = table["pin"][members]
        pinned = np.flatnonzero(pin >= 0)
        if pinned.size:  # one eigenvalue each put exactly on the singular value n/beta
            S = eig_hermitian(HermitianMatrix(H[pinned]))
            S.values[np.arange(len(pinned)), pin[pinned]] = n[pinned] / beta[pinned]
            H[pinned] = (S.vectors * S.values[:, None]) @ S.vectors.conj().swapaxes(-1, -2)
        H = HermitianMatrix(H)

        Z = table["phi"][members, :2 * N, :2 * d].reshape(-1, 2 * N, 2, d)
        phi = Z[:, :, 0] + 1j * Z[:, :, 1]  # (B, 2N, d)
        # each |phi|^2 as np.linalg.norm sums it: re . re + im . im, one dot product each
        re, im = phi.real[..., None, :], phi.imag[..., None, :]
        norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
        phi *= (table["radius"][members, :2 * N] / np.maximum(norms, 1e-30))[..., None]
        index = (DiscreteTorus._stack(beta[:, None], n[:, None]).zero_index
                 + table["offset"][members, :2 * N])
        assembled.append((members, (H, phi, index, table["color"][members, :2 * N], beta,
                                    n, kind[members], p[members], M[members])))
    return assembled


def _instances(table: dict) -> list:
    """The table's instances, each through the checked BoundInstance constructor."""
    insts = [None] * len(table["d"])
    for members, (H, phi, index, color, beta, n, kind, params, M) in _assemble(table):
        for i, k in enumerate(members.tolist()):
            m = int(table["m"][k])
            insts[k] = BoundInstance(H=HermitianMatrix._trusted(H.matrix[i]),
                                     torus=DiscreteTorus(beta=float(beta[i]), n=int(n[i])),
                                     chi=CutoffSpec.of_row(kind[i], params[i]), M=M[i, :m, :m],
                                     points=list(zip(index[i], phi[i], color[i])))
    return insts


def random_instances(seeds, config: GeneratorConfig) -> list:
    """Generate one seeded random instance per seed, in seeds order.

    The cutoff kind (one, indicator, gaussian) and the matrix kind (PSD or
    BK) are drawn uniformly, and one instance in twenty gets an eigenvalue
    pinned on n/beta.  Each instance is what its seed alone gives, bit for bit:
    what numpy's Generator(PCG64(seed)) draws, for each seed in [0, 2^64).
    """
    return _instances(_decode(seeds, config))


def random_instance(seed: int, config: GeneratorConfig) -> BoundInstance:
    """Generate one seeded random instance: random_instances([seed], config)[0].  A
    lane decoded alone costs about 35 times its share of a chunk of 1024 lanes, so a
    caller with many seeds passes them to random_instances at once."""
    return random_instances([seed], config)[0]


def within_bound(det: complex | np.ndarray, bound: float | np.ndarray) -> np.bool_ | np.ndarray:
    """The pass rule of every bound check: bound - |det| >= -SLACK_TOL * max(1, bound),
    elementwise on arrays, with |det| taken as abs() takes it, bit for bit."""
    return bound - np.hypot(det.real, det.imag) >= -SLACK_TOL * np.maximum(1.0, bound)


def _generate(ids: range, seeds: list, config: GeneratorConfig) -> tuple:
    """The chunk table of the instances ids, from their seeds, and its (d, N)
    groups (see _assemble).  A generator error, such as a scale too large for the draws
    or the matrix, names the first instance that fails alone and its seed."""
    try:
        table = _decode(seeds, config)
        return table, _assemble(table)
    except (ValueError, OverflowError):
        for i, seed_i in zip(ids, seeds):
            try:
                _assemble(_decode([seed_i], config))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"instance {i} (seed {seed_i}): {exc}") from None
        raise


def _check_chunk(ids: range, seed: int, config: GeneratorConfig, result: BoundSuiteResult):
    """Generate and check the instances ids, filling their records of result.checks
    up to det_abs, slack and pass."""
    stage = result.stage_s
    seeds = [instance_seed(seed, i) for i in ids]
    t0 = time.perf_counter()
    table, groups = _generate(ids, seeds, config)
    stage["generate"] += time.perf_counter() - t0
    result.pinned += int(np.count_nonzero(table["pin"] >= 0))
    rows = result.checks[ids.start:ids.stop]
    dets = np.empty(len(seeds), dtype=complex)
    for members, arrays in groups:
        t0 = time.perf_counter()
        stack = InstanceStack(*arrays)
        t1 = time.perf_counter()
        with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite det raises below
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
    rows["instance_id"], rows["seed"] = ids, seeds
    for name in ("d", "m", "N", "n", "beta"):
        rows[name] = table[name]
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
) -> np.ndarray:
    """Find (lam < 0, n) with g_lam(0) >= 1 - epsilon, then return one SHARPNESS
    witness per N, H = [[lam]] on one mode with N orthonormal colors (M = I_N): its
    covariance_det next to the closed form, judged by witness_pass.

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

    witnesses = np.empty(len(N_list), dtype=SHARPNESS)
    for i, N in enumerate(N_list):
        points = [(torus.zero_index, [1.0], k) for k in range(N)] * 2
        inst = BoundInstance(H=HermitianMatrix(np.array([[lam]])), torus=torus,
                             chi=CutoffSpec.one(), M=np.eye(N), points=points)
        det = covariance_det(inst)
        x = 1.0 - lam / torus.rate
        closed = x ** (-N) * (1.0 + abs(x) ** (-n)) ** (-N)
        # Python scalar powers: an array pow may not give these bits
        witnesses[i] = (epsilon, beta, lam, n, N, abs(det), closed, (1.0 - epsilon) ** (2 * N),
                        _kernel_at_zero(lam, torus), det, instance_bound(inst),
                        abs(det) ** (1.0 / (2 * N)))
    return witnesses


def witness_pass(witnesses: np.ndarray) -> np.ndarray:
    """Each SHARPNESS witness's verdict: det agrees with its closed form and |det| reaches
    (1 - eps)^(2N), each to a relative 1e-12, and within_bound; each |z| from det, as abs()."""
    det, off = witnesses["det"], witnesses["det"] - witnesses["closed_form"]
    return ((np.hypot(off.real, off.imag) <= 1e-12 * np.abs(witnesses["closed_form"]))
            & (np.hypot(det.real, det.imag) >= witnesses["lower_bound"] * (1.0 - 1e-12))
            & within_bound(det, witnesses["bound"]))


def universal_bound_estimate(witnesses: np.ndarray) -> float:
    """The lower edge of the bracket [lower, 1] for the best universal per-factor constant.

    The maximum over SHARPNESS witnesses of |det|^(1/2N) normalized by the
    per-factor bound; the upper edge 1 is backed by the bound suite.  As the
    family's bound is 1.0, lower is at least 1 - epsilon - 1e-12 unless a witness
    at the smallest epsilon fails, and witness_pass says so.
    """
    if not len(witnesses):
        raise ValueError("the sharpness suite must be nonempty")
    return max(0.0, *(per / (bound ** (1.0 / (2 * N)) if bound > 0 else 1.0) for per, bound, N
                      in witnesses[["per_factor_estimate", "bound", "N"]].tolist()))
