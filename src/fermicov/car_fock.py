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

Monomial conventions.  A monomial spec lists vectors psi_1..psi_{N1+N2} and
a permutation of the N1+N2 operator slots of the tuple

    (a+(psi_1), ..., a+(psi_N1), a(psi_{N1+N2}), ..., a(psi_{N1+1})),

i.e. annihilators appear in descending vector order, and perm[u] is the
position the operator in slot u takes in the product.  With this convention
the identity permutation reproduces the normally ordered monomial whose
expectation is the plain determinant of two-point functions, and the
generalized Wick formula holds for every permutation: the (k, l) entry pairs
psi_k with psi_{N+l} and its operator order is decided by the positions
perm[k] and perm[2N-1-l] (the slot that actually carries a(psi_{N+l})).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "fock_cap",
    "FockSpace",
    "MonomialSpec",
    "FockChain",
    "quasifree_modes",
    "quasifree_log_weights",
    "expect_monomial",
    "wick_determinant",
    "symbol_two_point",
    "permutation_sign",
]

HARD_FOCK_CAP = 14
DEFAULT_FOCK_CAP = 10


def fock_cap() -> int:
    """Current Fock dimension cap: FERMICOV_FOCK_CAP, clamped to the hard max 14."""
    raw = os.environ.get("FERMICOV_FOCK_CAP", "")
    try:
        cap = int(raw) if raw else DEFAULT_FOCK_CAP
    except ValueError:
        raise ValueError(f"FERMICOV_FOCK_CAP must be an integer, got {raw!r}")
    return max(1, min(cap, HARD_FOCK_CAP))


# Below this many gathered entries a field is one vectorized gather over all
# (row, mode) pairs; above it, a loop over modes moves half rows through views.
# The loop costs about 6 us of interpreter time per mode, the gather touches
# whole rows for every mode: on a 2-core Xeon VM the gather was 3x faster at
# D = 4 and 4x slower at D = 10, and the two broke even near 4096 entries.
SMALL_FIELD = 4096


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
    signs = 1 - 2 * ((np.cumsum(occupied, axis=0) - occupied) % 2)
    return tuple(map(_read_only, (r ^ bits[:, None], signs * ~occupied, signs * occupied)))


class Shell(NamedTuple):
    """The moves of one field from the family F = (reach, parity) to F' = (next reach, 1 - parity).

    A family holds the sets S of at most `reach` modes with |S| = parity mod 2,
    as sorted bit masks (mode k in bit D-1-k).  The field moves row S of F by
    mode k to row S ^ bit_k of F'; pairs (S, k) whose destination lies outside
    F' are dropped.  The kept pairs (pair_rows, pair_modes) are sorted by
    destination, starts[j] is the first pair landing on row j of F', and
    by_mode[k] holds the source rows of mode k's pairs (a full slice when
    every row has one) and their destinations.  F' has `size` masks, of at
    most `reach` modes.
    """

    pair_rows: np.ndarray
    pair_modes: np.ndarray
    starts: np.ndarray
    by_mode: tuple
    size: int
    reach: int


@functools.cache
def _shell(modes: int, reach: int, parity: int, next_reach: int | None) -> Shell:
    """The Shell out of the family (reach, parity) into (next_reach, 1 - parity).

    reach must be the family's own largest set size (`_top`); next_reach may
    be any bound, by default the whole family one field reaches.
    """
    wanted = reach + 1 if next_reach is None else min(next_reach, reach + 1)
    if next_reach != (top := _top(modes, wanted, 1 - parity)):
        return _shell(modes, reach, parity, top)  # one table per family pair
    masks = _family(modes, reach, parity)
    landing = _family(modes, next_reach, 1 - parity)
    bits = 1 << np.arange(modes - 1, -1, -1)
    moved = masks ^ bits[:, None]
    mode_of, row_of = np.nonzero(_weights(modes)[moved] <= next_reach)
    dest = np.searchsorted(landing, moved[mode_of, row_of])
    order = np.argsort(dest, kind="stable")
    cuts = np.searchsorted(mode_of, np.arange(1, modes))
    by_mode = tuple(
        (slice(None) if len(rows) == len(masks) else rows, to)
        for rows, to in zip(np.split(row_of, cuts), np.split(dest, cuts))
    )
    return Shell(row_of[order], mode_of[order], np.flatnonzero(np.diff(dest[order], prepend=-1)),
                 by_mode, len(landing), next_reach)


class FockSpace:
    """Fermionic Fock space over D one-particle modes; total dimension 2^D.

    Mode k is bit D-1-k of an occupation pattern (mode 0 in the highest bit).
    Every construction checks D against `fock_cap`.  The tables of `FockChain`
    are built on first use and shared by all spaces of the same mode count.
    """

    def __init__(self, modes: int):
        cap = fock_cap()
        if not 1 <= modes <= cap:
            raise ValueError(f"mode count {modes} outside allowed range 1..{cap}")
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
    """A Fock-space operator X made by t fields acting on a diagonal, in shell rows.

    Each field flips one mode, so entry X[r, c] can be nonzero only where
    r ^ c is a set S of at most t modes with |S| = t mod 2.  The chain keeps
    rows[i, r] = X[r, r ^ masks[i]] for the masks of its family, the sets of
    at most `reach` such modes: |F| rows of length 2^D in place of
    2^D x 2^D entries (at D = 10, 1, 10, 46, 130, 256 rows for t = 0..4 when
    reach = t).  A read-out that needs only the rows with |S| <= target
    after f more fields lets each field keep reach at most target + f
    (`field`), since a field changes |S| by one.
    A field on mode k moves row S to row S ^ bit_k and maps the entries of
    each row as the Jordan-Wigner row map of c_k maps the rows of X; D^w
    scales entry (S, r) by p_r^w.
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
        """The chain of no fields, diag(values)."""
        values = np.asarray(values, dtype=complex).reshape(-1)
        if values.shape[0] != fock.dim:
            raise ValueError(f"diagonal of length {values.shape[0]} does not match "
                             f"dimension {fock.dim}")
        return cls(fock, 0, values[None, :].copy(), 0)

    def field(self, psi: np.ndarray, creator: bool = False, reach: int | None = None) -> "FockChain":
        """a(psi) X, or a+(psi) X with creator=True, as a chain one field longer.

        The new chain keeps the rows with |S| <= reach; by default every row
        the field reaches.  c_k moves entry (.., n_k = 1, ..) of a row to
        (.., n_k = 0, ..) with the sign (-1)^(n_0 + ... + n_(k-1)), and c_k*
        moves it back.
        """
        fock = self.fock
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape[0] != fock.modes:
            raise ValueError(f"vector length {psi.shape[0]} does not match {fock.modes} modes")
        flips, annihilate, create = fock.hops
        coeffs = psi if creator else np.conj(psi)
        hop = coeffs[:, None] * (create if creator else annihilate)
        shell = _shell(fock.modes, self.reach, self.length % 2, reach)
        if 0 < len(shell.pair_rows) * fock.dim <= SMALL_FIELD:
            modes = shell.pair_modes
            moved = self.rows[shell.pair_rows[:, None], flips[modes]] * hop[modes]
            return FockChain(fock, self.length + 1, np.add.reduceat(moved, shell.starts),
                             shell.reach)
        src, dst = (0, 1) if creator else (1, 0)
        out = np.zeros((shell.size, fock.dim), dtype=complex)
        for k in np.flatnonzero(coeffs):
            rows, to = shell.by_mode[k]
            halves = (2**k, 2, fock.dim >> (k + 1))
            block = self.rows.reshape(-1, *halves)[rows, :, src]
            out.reshape(shell.size, *halves)[to, :, dst] += hop[k].reshape(halves)[:, dst] * block
        return FockChain(fock, self.length + 1, out, shell.reach)

    def scale(self, factors: np.ndarray) -> "FockChain":
        """diag(factors) X, in place: entry (S, r) times factors[r]."""
        self.rows *= factors
        return self

    def trace(self) -> complex:
        """Tr X, the sum of row S = 0; a chain of odd length or an empty family has none."""
        return complex(np.sum(self.rows[0])) if self.length % 2 == 0 and len(self.rows) else 0j

    def norm(self) -> float:
        """The Hilbert-Schmidt norm (Tr X* X)^(1/2) of the rows held."""
        return float(np.linalg.norm(self.rows))

    def vdot(self, other: "FockChain") -> complex:
        """<X, Y> = Tr(X* Y), over the masks the two chains share.

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


def _fermi(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    out = np.empty_like(x)
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def quasifree_modes(h: np.ndarray, beta: float) -> tuple:
    """The quasi-free state exp(-beta dGamma(h)) / Z in the eigenmodes of h.

    Returns (V, logp, symbol): the eigenvectors V of h, with which a site
    vector psi becomes V* psi; the log-weights of the occupation basis of
    those modes; and the symbol (1 + exp(beta h))^{-1} in the site modes.
    Only D x D matrices are diagonalized.
    """
    h = np.asarray(h, dtype=complex)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    eps, V = np.linalg.eigh((h + h.conj().T) / 2)
    symbol = (V * _fermi(beta * eps)) @ V.conj().T
    return V, quasifree_log_weights(eps, beta), symbol


def quasifree_log_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """log p(occ) = -beta occ.eps - sum_k log(1 + exp(-beta eps_k)), in closed form.

    The quasi-free state exp(-beta sum_k eps_k n_k) / Z is diagonal in the
    occupation basis of the modes with energies eps; the entries follow the
    Jordan-Wigner order, mode 0 in the highest bit.  Kept in log form, so
    extreme energies neither overflow nor underflow.
    """
    logp = np.zeros(1)
    for e in beta * np.asarray(energies, dtype=float):
        free = np.logaddexp(0.0, -e)
        logp = np.add.outer(logp, [-free, -e - free]).ravel()
    return logp


def permutation_sign(perm) -> int:
    """Parity of a permutation given as a sequence of distinct integers."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass
class MonomialSpec:
    """A signed permuted monomial in N1 creators and N2 annihilators.

    perm maps the 0-based slot of the tuple
    (a+(psi_1)...a+(psi_N1), a(psi_{N1+N2})...a(psi_{N1+1})) to its 0-based
    position in the product.
    """

    n1: int
    n2: int
    vectors: list
    perm: tuple

    def __post_init__(self):
        total = self.n1 + self.n2
        if len(self.vectors) != total:
            raise ValueError(f"need {total} vectors, got {len(self.vectors)}")
        if sorted(self.perm) != list(range(total)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{total - 1}")
        self.perm = tuple(int(p) for p in self.perm)

    def slot_operator_index(self, slot: int) -> tuple:
        """(vector index, is_creator) for a tuple slot."""
        if slot < self.n1:
            return slot, True
        return 2 * self.n1 + self.n2 - 1 - slot, False


def expect_monomial(fock: FockSpace, logp: np.ndarray, spec: MonomialSpec) -> complex:
    """sign(perm) * Tr(rho * product of the permuted operator tuple).

    rho is diagonal with log-weights logp in the occupation basis of the modes
    in which spec.vectors are written (see `quasifree_modes`).  The product
    acts on rho as row maps, last position first, so Tr(product rho) needs no
    dense operator; with f fields still to apply a row can reach the trace's
    row S = 0 only if |S| <= f, so no other row is kept.
    """
    X = FockChain.diagonal(fock, np.exp(logp))
    slots = sorted(range(len(spec.perm)), key=spec.perm.__getitem__, reverse=True)
    for done, slot in enumerate(slots, 1):
        vec_idx, is_creator = spec.slot_operator_index(slot)
        X = X.field(spec.vectors[vec_idx], creator=is_creator, reach=len(slots) - done)
    return permutation_sign(spec.perm) * X.trace()


def wick_determinant(two_point: Callable, N: int, perm) -> complex:
    """Generalized Wick determinant for a permuted 2N-monomial.

    two_point(k, l, annihilator_first) must return the quasi-free expectation
    of the signed pair monomial in a+(psi_k), a(psi_{N+l}) with the stated
    order (0-based k, l).  Entry (k, l) uses the actual positions of the two
    operators: perm[k] for the creator and perm[2N-1-l] for the slot holding
    a(psi_{N+l}).
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(2 * N)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{2 * N - 1}")
    mat = np.zeros((N, N), dtype=complex)
    for k in range(N):
        for l in range(N):
            annihilator_first = perm[2 * N - 1 - l] < perm[k]
            mat[k, l] = two_point(k, l, annihilator_first)
    return complex(np.linalg.det(mat))


def symbol_two_point(symbol: np.ndarray, vectors: list) -> Callable:
    """Pair expectations of rho_S for wick_determinant.

    Creator first: <psi_{N+l}, S psi_k>; annihilator first the CAR-swapped
    signed value <psi_{N+l}, (S - 1) psi_k>.
    """
    S = np.asarray(symbol)
    N = len(vectors) // 2

    def two_point(k: int, l: int, annihilator_first: bool) -> complex:
        pk = np.asarray(vectors[k], dtype=complex)
        pl = np.asarray(vectors[N + l], dtype=complex)
        if annihilator_first:
            return complex(np.vdot(pl, S @ pk) - np.vdot(pl, pk))
        return complex(np.vdot(pl, S @ pk))

    return two_point
