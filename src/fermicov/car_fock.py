"""Finite CAR algebra on Fock space, in the occupation basis of eigenmodes.

A quasi-free state exp(-beta dGamma(h)) / Z is diagonal in the occupation
basis of the eigenmodes of h, with the closed-form log-weights of
`quasifree_log_weights`; `quasifree_modes` gives those modes, the weights and
the symbol S = (1 + exp(beta h))^{-1}.  A vector psi in the site modes enters
that basis as V* psi.  A product of creation and annihilation operators on a
diagonal is a `FockChain`: each field a(psi) or a+(psi) acts through each
mode's signed bit flip, with Jordan-Wigner signs and mode order (fiber index,
color index) lexicographic, on shell rows that hold only the entries such a
product can reach, so no dense Fock operator or 2^D x 2^D array is formed.
a(psi) is antilinear in psi, so two-point functions read
rho(a+(psi1) a(psi2)) = <psi2, S psi1>.

Monomial conventions.  A monomial has vectors psi_1..psi_{N1+N2} and a
permutation of the N1+N2 operator slots of the tuple

    (a+(psi_1), ..., a+(psi_N1), a(psi_{N1+N2}), ..., a(psi_{N1+1})),

i.e. annihilators appear in descending vector order, and perm[u] is the
position the operator in slot u takes in the product.  With this convention
the identity permutation reproduces the normally ordered monomial whose
expectation is the plain determinant of two-point functions, and the
generalized Wick formula holds for every permutation: the (k, l) entry pairs
psi_k with psi_{N+l} and its operator order is decided by the positions
perm[k] and perm[2N-1-l] (the slot that actually carries a(psi_{N+l})).
`expect_monomial` and `wick_determinant` take stacks of monomials, along the
leading axes of their arrays, and evaluate each stack with one field per
operator position and one stacked determinant; a single monomial is a stack
of shape ().
"""

from __future__ import annotations

import functools
from itertools import islice, permutations
from typing import NamedTuple

import numpy as np

__all__ = [
    "FOCK_CAP",
    "FockSpace",
    "FockChain",
    "quasifree_modes",
    "quasifree_log_weights",
    "expect_monomial",
    "wick_determinant",
    "monomial_block",
    "permutation_sign",
    "WICK",
    "wick_suite",
]

FOCK_CAP = 14  # the largest mode count of any Fock space; no 2^D x 2^D array is formed


# Below this many gathered entries a field is one gather per layer of (row,
# mode) pairs; above it, a loop over modes moves half rows through views.  The
# loop costs interpreter time per mode, the gather touches a whole row for
# every pair.  On a 2-core Xeon VM (one BLAS thread), on modular_rep's single
# fields, the gather took 43 against the loop's 80 us at 4608 entries (D = 9)
# and 80 against 112 us at 10240 (D = 10), tied at 16384 (D = 8, 116 against
# 112 us), and took 1.3-4.9 times the loop's time at 41472 and 102400; a
# wick-verify --N-max 2 --modes 7 pass, whose stacked fields have 4097-12288
# entries, took 19.3 ms against 21.3 ms with those fields on the loop.  Both
# sum in one order, so the threshold picks only the speed, never the bits.
SMALL_FIELD = 12288

# A block of monomials for one stacked `expect_monomial` call gathers at most
# this many entries in one field (`monomial_block`; a block holds at least one
# monomial).  At D = 4 and N = 3, 448 entries a monomial, a wick-verify pass of
# --N-max 3 --modes 4 took 0.33-0.39 / 0.15-0.16 / 0.13-0.17 s (medians of nine
# passes, two runs) at 2^12 / 2^14 / 2^16 entries, with peak RSS 39.6 / 39.8 /
# 41.2 MB (2-core Xeon VM, one BLAS thread).
BLOCK_ENTRIES = 2**14

# one permutation of wick_suite: the wick-verify CSV's columns
WICK = np.dtype([("N", np.int64), ("perm_id", np.int64), ("max_rel_err", float), ("pass", bool)])


def _top(modes: int, reach: int, parity: int) -> int:
    """The largest set size at most `reach` of the given parity among `modes` modes, or -1."""
    top = min(reach, modes)
    return max(top - (top - parity) % 2, -1)


@functools.cache
def _weights(modes: int) -> np.ndarray:
    """|S| for every mask S of `modes` modes."""
    idx = np.arange(2**modes)
    return sum((idx >> k) & 1 for k in range(modes))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, locked: every space of a mode count shares the cached tables."""
    a.flags.writeable = False
    return a


@functools.cache
def _family(modes: int, reach: int, parity: int) -> np.ndarray:
    weight = _weights(modes)
    return _read_only(np.flatnonzero((weight <= reach) & (weight % 2 == parity)))


@functools.cache
def _hops(modes: int) -> tuple:
    r = np.arange(2**modes)
    bits = 1 << np.arange(modes - 1, -1, -1)
    occupied = (r & bits[:, None]) != 0
    # int8: `field` copies a table per operator of a stack, and at D = 14 the
    # tables and copies in int64 raised a wick-verify peak from 39 to 44 MiB
    signs = (1 - 2 * ((np.cumsum(occupied, axis=0) - occupied) % 2)).astype(np.int8)
    return tuple(map(_read_only, (r ^ bits[:, None], signs * ~occupied, signs * occupied)))


class Layer(NamedTuple):
    """The t-th pair (S, k), in mode order, of each destination row that has more than t.

    src[i, r] = s * 2^D + flips[k, r], with s the row of S in its family,
    indexes the flattened rows of the source chain; modes are the pairs'
    modes k and rows their destination rows.
    """

    src: np.ndarray
    modes: np.ndarray
    rows: np.ndarray


class Shell:
    """The moves of one field from the family F = (reach, parity) to F' = (next reach, 1 - parity).

    A family holds the sets S of at most `reach` modes with |S| = parity mod 2,
    as sorted bit masks (mode k in bit D-1-k).  The field moves row S of F by
    mode k to row S ^ bit_k of F'; pairs (S, k) whose destination lies outside
    F' are dropped, and `pairs` counts the rest.  by_mode[k] holds the source
    rows of mode k's pairs (a full slice when every row has one) and their
    destinations.  F' has `size` masks, of at most `reach` modes.
    """

    def __init__(self, modes: int, reach: int, parity: int, next_reach: int):
        masks = _family(modes, reach, parity)
        landing = _family(modes, next_reach, 1 - parity)
        bits = 1 << np.arange(modes - 1, -1, -1)
        moved = masks ^ bits[:, None]
        mode_of, row_of = np.nonzero(_weights(modes)[moved] <= next_reach)
        dest = np.searchsorted(landing, moved[mode_of, row_of])
        cuts = np.searchsorted(mode_of, np.arange(1, modes))
        self.by_mode = tuple(
            (slice(None) if len(rows) == len(masks) else rows, to)
            for rows, to in zip(np.split(row_of, cuts), np.split(dest, cuts))
        )
        self.modes, self.pairs, self.size, self.reach = modes, len(dest), len(landing), next_reach
        self._pairs = mode_of, row_of, dest

    @functools.cached_property
    def layers(self) -> tuple:
        """The read-only `Layer`s of the gather path, built by its first field.

        Layer t holds the t-th pair of every row with more than t.  The rows are
        ranked by their pair count, most first, so each layer's rows are a
        prefix of the layer before.  Built lazily, since a large shell's tables
        would hold 2^D entries per pair.
        """
        mode_of, row_of, dest = self._pairs
        fan_in = np.bincount(dest, minlength=self.size)
        order = np.argsort(dest, kind="stable")  # by destination, then mode
        first, rank = np.cumsum(fan_in) - fan_in, np.argsort(-fan_in, kind="stable")
        flips = _hops(self.modes)[0]
        layers = []
        for t in range(fan_in.max(initial=0)):
            to = rank[:np.count_nonzero(fan_in > t)]
            pair = order[first[to] + t]
            layers.append(Layer(*map(_read_only, (
                row_of[pair, None] * 2**self.modes + flips[mode_of[pair]], mode_of[pair], to))))
        return tuple(layers)

    @functools.cached_property
    def unrank(self) -> np.ndarray:
        """The ranked row of each mask of F', in mask order."""
        return _read_only(np.argsort(self.layers[0].rows))


@functools.cache
def _shell(modes: int, reach: int, parity: int, next_reach: int | None) -> Shell:
    """The Shell out of the family (reach, parity) into (next_reach, 1 - parity).

    reach must be the family's own largest set size (`_top`); next_reach may
    be any bound, by default the whole family one field reaches.
    """
    wanted = reach + 1 if next_reach is None else min(next_reach, reach + 1)
    if next_reach != (top := _top(modes, wanted, 1 - parity)):
        return _shell(modes, reach, parity, top)  # one table per family pair
    return Shell(modes, reach, parity, next_reach)


class FockSpace:
    """Fermionic Fock space over D one-particle modes; total dimension 2^D.

    Mode k is bit D-1-k of an occupation pattern (mode 0 in the highest bit).
    Every construction checks D against `FOCK_CAP`.  The tables of `FockChain`
    are built on first use and shared by all spaces of the same mode count.
    """

    def __init__(self, modes: int):
        if not 1 <= modes <= FOCK_CAP:
            raise ValueError(f"mode count {modes} outside allowed range 1..{FOCK_CAP}")
        self.modes = modes
        self.dim = 2**modes

    def __repr__(self):
        return f"FockSpace(modes={self.modes})"

    @property
    def hops(self) -> tuple:
        """(flips, annihilate, create), each D x 2^D.

        flips[k, r] = r ^ bit_k; annihilate[k, r] and create[k, r] are the
        Jordan-Wigner sign (-1)^(n_0 + ... + n_(k-1)) of pattern r where c_k,
        or c_k*, lands on r, and 0 elsewhere.
        """
        return _hops(self.modes)

    def family(self, reach: int, parity: int) -> np.ndarray:
        """The sorted masks S with |S| <= reach and |S| = parity mod 2."""
        return _family(self.modes, _top(self.modes, reach, parity), parity)


class FockChain:
    """A stack of Fock-space operators X made by t fields acting on diagonals, in shell rows.

    Each field flips one mode, so entry X[r, c] can be nonzero only where
    r ^ c is a set S of at most t modes with |S| = t mod 2.  The chain keeps
    rows[..., i, r] = X[r, r ^ masks[i]] for the masks of its family, the sets
    of at most `reach` such modes: |F| rows of length 2^D in place of
    2^D x 2^D entries (at D = 10, 1, 10, 46, 130, 256 rows for t = 0..4 when
    reach = t).  A read-out that needs only the rows with |S| <= target
    after f more fields lets each field keep reach at most target + f
    (`field`), since a field changes |S| by one.
    A field on mode k moves row S to row S ^ bit_k and maps the entries of
    each row as the Jordan-Wigner row map of c_k maps the rows of X; D^w
    scales entry (S, r) by p_r^w.  The leading axes of rows stack operators
    of one length and reach, which share every table; a single operator has
    batch shape ().
    """

    def __init__(self, fock: FockSpace, length: int, rows: np.ndarray, reach: int):
        self.fock = fock
        self.length = length
        self.rows = rows
        self.reach = reach

    @property
    def masks(self) -> np.ndarray:
        """The masks S of the rows held, sorted."""
        return self.fock.family(self.reach, self.length % 2)

    @classmethod
    def diagonal(cls, fock: FockSpace, values: np.ndarray) -> "FockChain":
        """The chains of no fields, diag(values[..., :])."""
        values = np.asarray(values, dtype=complex)
        if values.shape[-1:] != (fock.dim,):
            raise ValueError(f"diagonal of shape {values.shape} does not match "
                             f"dimension {fock.dim}")
        return cls(fock, 0, values[..., None, :].copy(), 0)

    def field(self, psi: np.ndarray, creator=False, reach: int | None = None) -> "FockChain":
        """a(psi) X, or a+(psi) X where creator is True, as a chain one field longer.

        psi[..., :] and the booleans creator broadcast against the stack, so
        one call may mix creators and annihilators.  The new chain keeps the
        rows with |S| <= reach; by default every row the field reaches.  c_k
        moves entry (.., n_k = 1, ..) of a row to (.., n_k = 0, ..) with the
        sign (-1)^(n_0 + ... + n_(k-1)), and c_k* moves it back.
        """
        fock = self.fock
        psi = np.asarray(psi, dtype=complex)
        if psi.shape[-1:] != (fock.modes,):
            raise ValueError(f"vector shape {psi.shape} does not match {fock.modes} modes")
        _, annihilate, create = fock.hops
        creator = np.asarray(creator, dtype=bool)
        if creator.ndim:  # a table per operator
            coeffs = np.where(creator[..., None], psi, np.conj(psi))
            table = np.where(creator[..., None, None], create, annihilate)
        else:
            coeffs, table = (psi, create) if creator else (np.conj(psi), annihilate)
        hop = coeffs[..., None] * table
        shell = _shell(fock.modes, self.reach, self.length % 2, reach)
        batch = np.broadcast_shapes(self.rows.shape[:-2], hop.shape[:-2])
        out = np.zeros((*batch, shell.size, fock.dim), dtype=complex)
        # Both strategies add each destination entry's pairs onto zeros in mode order,
        # as hop times source: np.multiply, not *, since numpy may write a product into
        # a large temporary right operand, which swaps the factors, and a complex
        # product's FMA rounding is not symmetric in them
        if 0 < shell.pairs * fock.dim <= SMALL_FIELD:
            flat = self.rows.reshape(*self.rows.shape[:-2], -1)
            for layer in shell.layers:
                out[..., :len(layer.rows), :] += np.multiply(np.take(hop, layer.modes, axis=-2),
                                                             flat[..., layer.src])
            return FockChain(fock, self.length + 1, out[..., shell.unrank, :], shell.reach)
        # A single operator skips the broadcasting below: about 20 us a field,
        # 12 % of a modular_rep pass at D = 8..10 (2-core Xeon VM).
        if not batch:
            _move_halves(self.rows, coeffs, hop, out, shell, creator)
        else:  # one operator at a time: each moves more than SMALL_FIELD entries
            rows = np.broadcast_to(self.rows, (*batch, *self.rows.shape[-2:]))
            coeffs = np.broadcast_to(coeffs, (*batch, fock.modes))
            hop = np.broadcast_to(hop, (*batch, *hop.shape[-2:]))
            creator = np.broadcast_to(creator, batch)
            for i in np.ndindex(batch):
                _move_halves(rows[i], coeffs[i], hop[i], out[i], shell, creator[i])
        return FockChain(fock, self.length + 1, out, shell.reach)

    def scale(self, factors: np.ndarray) -> "FockChain":
        """diag(factors) X, in place: entry (S, r) times factors[r]."""
        self.rows *= factors
        return self

    def trace(self) -> np.ndarray:
        """Tr X, the sum of row S = 0; a chain of odd length or an empty family has none."""
        if self.length % 2 == 0 and self.rows.shape[-2]:
            return np.sum(self.rows[..., 0, :], axis=-1)
        return np.zeros(self.rows.shape[:-2], dtype=complex)

    def norm(self) -> float:
        """The Hilbert-Schmidt norm (Tr X* X)^(1/2) of the rows held, for batch shape ()."""
        return float(np.linalg.norm(self.rows))

    def vdot(self, other: "FockChain") -> complex:
        """<X, Y> = Tr(X* Y), over the masks the two chains share, for batch shape ().

        Chains of the same parity have nested families, so the smaller family
        is picked out of the larger one; chains of opposite parity share none.
        """
        if self.fock.modes != other.fock.modes:
            raise ValueError(f"chains on {self.fock.modes} and {other.fock.modes} modes")
        if (self.length - other.length) % 2:
            return 0j
        mine, theirs = self.masks, other.masks
        if len(mine) == len(theirs):
            return complex(np.vdot(self.rows, other.rows))
        if len(mine) < len(theirs):
            return complex(np.vdot(self.rows, other.rows[np.searchsorted(theirs, mine)]))
        return complex(np.vdot(self.rows[np.searchsorted(mine, theirs)], other.rows))


def _move_halves(rows, coeffs, hop, out, shell: Shell, creator: bool):
    """Add one field on one operator to out, mode by mode, through views of half rows.

    The field on mode k moves the half of each row where mode k is occupied
    (annihilator) or empty (creator) to the other half of its destination
    row; a mode whose coefficient is 0 is skipped.
    """
    src, dst = (0, 1) if creator else (1, 0)
    size, dim = out.shape
    for k in np.flatnonzero(coeffs):
        sources, to = shell.by_mode[k]
        halves = (2**k, 2, dim >> (k + 1))
        block = rows.reshape(-1, *halves)[sources, :, src]
        out.reshape(size, *halves)[to, :, dst] += np.multiply(hop[k].reshape(halves)[:, dst], block)


def _fermi(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    out = np.empty_like(x)
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def quasifree_modes(h: np.ndarray, beta: float) -> tuple:
    """The quasi-free states exp(-beta dGamma(h)) / Z in the eigenmodes of h[..., :, :].

    Returns (V, logp, symbol): the eigenvectors V of h, with which a site
    vector psi becomes V* psi; the log-weights of the occupation basis of
    those modes; and the symbol (1 + exp(beta h))^{-1} in the site modes.
    Only D x D matrices are diagonalized, a stack of them in one call.
    """
    h = np.asarray(h, dtype=complex)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    eps, V = np.linalg.eigh((h + h.conj().mT) / 2)
    symbol = (V * _fermi(beta * eps)[..., None, :]) @ V.conj().mT
    return V, quasifree_log_weights(eps, beta), symbol


def quasifree_log_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """log p(occ) = -beta occ.eps - sum_k log(1 + exp(-beta eps_k)), in closed form.

    The quasi-free state exp(-beta sum_k eps_k n_k) / Z is diagonal in the
    occupation basis of the modes with energies eps[..., :]; the entries
    follow the Jordan-Wigner order, mode 0 in the highest bit.  Kept in log
    form, so extreme energies neither overflow nor underflow.
    """
    e = beta * np.asarray(energies, dtype=float)
    free = np.logaddexp(0.0, -e)
    occupation = np.stack([-free, -e - free], axis=-1)  # log p of n_k = 0, 1 for each mode k
    logp = np.zeros((*e.shape[:-1], 1))
    for k in range(e.shape[-1]):
        logp = (logp[..., :, None] + occupation[..., k, None, :]).reshape(*e.shape[:-1], -1)
    return logp


def permutation_sign(perm) -> np.ndarray:
    """The parity (-1)^inversions of each permutation perm[..., :] of distinct integers."""
    perm = np.asarray(perm)
    order = np.arange(perm.shape[-1])
    inverted = (perm[..., :, None] > perm[..., None, :]) & (order[:, None] < order)
    return 1 - 2 * (inverted.sum(axis=(-2, -1)) % 2)


def _permutations(perm, count: int) -> np.ndarray:
    """perm as an array, checked once for the stack: each perm[..., :] permutes range(count)."""
    perm = np.asarray(perm)
    if perm.shape[-1:] != (count,) or not np.all(np.sort(perm, axis=-1) == np.arange(count)):
        raise ValueError(f"perm of shape {perm.shape} is not a stack of permutations "
                         f"of 0..{count - 1}")
    return perm


def monomial_block(fock: FockSpace, fields: int) -> int:
    """How many monomials of `fields` fields one `expect_monomial` call takes within BLOCK_ENTRIES.

    A monomial costs the entries its largest field gathers, one per (pair,
    pattern) of the shells `expect_monomial` walks; the block holds at least one.
    """
    reach, entries = 0, 1
    for done in range(1, fields + 1):
        shell = _shell(fock.modes, reach, (done - 1) % 2, fields - done)
        entries, reach = max(entries, shell.pairs * fock.dim), shell.reach
    return max(1, BLOCK_ENTRIES // entries)


def expect_monomial(fock: FockSpace, logp: np.ndarray, vectors: np.ndarray, perm,
                    creators: int) -> np.ndarray:
    """sign(perm) * Tr(rho * product of the permuted operator tuple), for a stack of monomials.

    Each monomial has `creators` = N1 creators and n - N1 annihilators on the
    n vectors[..., :, :] (see the module docstring for the tuple order), and
    perm[..., u] is the position of slot u in its product.  rho is diagonal
    with log-weights logp[..., :] in the occupation basis of the modes in
    which the vectors are written (see `quasifree_modes`).  The leading axes
    of logp, vectors and perm broadcast; a single monomial has batch shape ().
    The products act on rho as row maps, last position first, one field per
    position for the whole stack, so Tr(product rho) needs no dense operator;
    with f fields still to apply a row can reach the trace's row S = 0 only
    if |S| <= f, so no other row is kept.
    """
    vectors = np.asarray(vectors, dtype=complex)
    perm = _permutations(perm, vectors.shape[-2])
    n = perm.shape[-1]
    if not 0 <= creators <= n:
        raise ValueError(f"{creators} creators among {n} operators")
    batch = np.broadcast_shapes(vectors.shape[:-2], perm.shape[:-1])
    vectors = np.broadcast_to(vectors, (*batch, *vectors.shape[-2:]))
    slots = np.argsort(np.broadcast_to(perm, (*batch, n)), axis=-1)  # the slot at each position
    kinds = slots < creators
    psis = np.take_along_axis(vectors, np.where(kinds, slots, creators + n - 1 - slots)[..., None],
                              axis=-2)
    X = FockChain.diagonal(fock, np.exp(logp))
    for done in range(1, n + 1):
        X = X.field(psis[..., n - done, :], creator=kinds[..., n - done], reach=n - done)
    return permutation_sign(perm) * X.trace()


def wick_determinant(symbol: np.ndarray, vectors: np.ndarray, perm) -> np.ndarray:
    """Generalized Wick determinants of a stack of permuted 2N-monomials.

    symbol[..., :, :] is the symbol S of a quasi-free state and
    vectors[..., :, :] are the 2N vectors psi of the monomial, both in the
    site modes; the leading axes of symbol, vectors and perm broadcast.  Entry
    (k, l) pairs a+(psi_k) with a(psi_{N+l}) at their actual positions,
    perm[k] and perm[2N-1-l]: <psi_{N+l}, S psi_k> when the creator comes
    first, and otherwise the CAR-swapped signed value <psi_{N+l}, (S - 1) psi_k>.
    """
    vectors = np.asarray(vectors, dtype=complex)
    perm = _permutations(perm, vectors.shape[-2])
    if perm.shape[-1] % 2:
        raise ValueError(f"a Wick determinant needs an even operator count, got {perm.shape[-1]}")
    N = perm.shape[-1] // 2
    # @ runs BLAS gemv and dot on each pair, as for a stack of one (einsum's sums differ)
    kets = vectors[..., :N, None, :, None]
    bras = np.conj(vectors[..., None, N:, None, :])
    pair = (bras @ (symbol[..., None, None, :, :] @ kets))[..., 0, 0]
    overlap = (bras @ kets)[..., 0, 0]
    annihilator_first = perm[..., None, N:][..., ::-1] < perm[..., :N, None]
    return np.linalg.det(np.where(annihilator_first, pair - overlap, pair))


def wick_suite(modes: int, N_max: int, draws: int, seed: int) -> np.ndarray:
    """One WICK record per permuted 2N-monomial, N = 1..N_max: expect_monomial against
    wick_determinant on `draws` random states and vectors of `modes` modes, its largest
    relative error and its verdict.  A draw passes to a relative 1e-10, or an absolute
    1e-12 where |direct| <= 1e-6, as a monomial such as a+ a+ vanishes exactly.  The
    (2N)! orders stream through stacks of monomial_block's size, whose draws are those
    of one draw after another: A (real, imaginary), then the 2N vectors."""
    rng = np.random.default_rng(seed)
    D, fock, found = modes, FockSpace(modes), []
    for N in range(1, N_max + 1):
        block = max(1, monomial_block(fock, 2 * N) // draws)  # permutations per stack
        orders, done = permutations(range(2 * N)), 0
        while chunk := list(islice(orders, block)):
            perms = np.repeat(chunk, draws, axis=0)
            z = rng.normal(size=(len(perms), 2 * D * D + 4 * N * D))
            A = z[:, :D * D].reshape(-1, D, D) + 1j * z[:, D * D:2 * D * D].reshape(-1, D, D)
            v = z[:, 2 * D * D:].reshape(-1, 2 * N, 2, D)
            vecs = v[:, :, 0] + 1j * v[:, :, 1]
            V, logp, symbol = quasifree_modes(A, beta=1.0)
            in_modes = (V.conj().mT[:, None] @ vecs[..., None])[..., 0]
            direct = expect_monomial(fock, logp, in_modes, perms, N)
            off = direct - wick_determinant(symbol, vecs, perms)
            # each |z| as abs() takes it; np.abs may differ in the last bit
            err, size = np.hypot(off.real, off.imag), np.hypot(direct.real, direct.imag)
            passed = err <= np.where(size > 1e-6, 1e-10 * size, 1e-12)
            rows = np.empty(len(chunk), dtype=WICK)
            rows["N"], rows["perm_id"] = N, range(done, done + len(chunk))
            # fmax skips a nan error, whose draw fails its check anyway
            rows["max_rel_err"] = np.fmax.reduce(
                (err / np.maximum(size, 1e-12)).reshape(-1, draws), axis=1, initial=0.0)
            rows["pass"] = passed.reshape(-1, draws).all(axis=1)
            found.append(rows)
            done += len(chunk)
    return np.concatenate(found)
