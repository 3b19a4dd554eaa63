"""Finite CAR algebra on Fock space, in the occupation basis of eigenmodes.

A quasi-free state exp(-beta dGamma(h)) / Z is diagonal in the occupation
basis of the eigenmodes of h, with the closed-form log-weights of
`quasifree_log_weights`; `quasifree_modes` gives those modes, the weights and
the symbol S = (1 + exp(beta h))^{-1}.  A vector psi in the site modes enters
that basis as V* psi.  `apply_field` applies a(psi) or a+(psi) to the rows of
an array through each mode's signed bit flip, with Jordan-Wigner signs and
mode order (fiber index, color index) lexicographic, so no dense Fock
operator is ever formed.  a(psi) is antilinear in psi, so two-point functions
read rho(a+(psi1) a(psi2)) = <psi2, S psi1>.

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

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "fock_cap",
    "FockSpace",
    "MonomialSpec",
    "apply_field",
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


class FockSpace:
    """Fermionic Fock space over D one-particle modes; total dimension 2^D."""

    def __init__(self, modes: int):
        cap = fock_cap()
        if not 1 <= modes <= cap:
            raise ValueError(f"mode count {modes} outside allowed range 1..{cap}")
        self.modes = modes
        self.dim = 2**modes
        self._jw_signs: np.ndarray | None = None

    def __repr__(self):
        return f"FockSpace(modes={self.modes})"

    @property
    def jw_signs(self) -> np.ndarray:
        """The cached Jordan-Wigner signs (-1)^(n_0 + ... + n_(k-1)).

        Entry j is the sign of the occupation pattern j of the leading modes,
        mode 0 in the highest bit; the first 2^k entries serve mode k.
        """
        if self._jw_signs is None:
            signs = np.ones(1)
            for _ in range(self.modes - 1):
                signs = np.concatenate([signs, -signs])
            self._jw_signs = signs
        return self._jw_signs


def apply_field(
    fock: FockSpace, psi: np.ndarray, X: np.ndarray, creator: bool = False
) -> np.ndarray:
    """a(psi) @ X, or a+(psi) @ X with creator=True, without a dense a(psi).

    The rows of X are occupation patterns.  c_k moves row (.., n_k = 1, ..) to
    row (.., n_k = 0, ..) with the sign (-1)^(n_0 + ... + n_(k-1)) and c_k*
    moves it back, so each mode costs one signed copy of half the rows.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != fock.modes:
        raise ValueError(f"vector length {psi.shape[0]} does not match {fock.modes} modes")
    X = np.asarray(X)
    if X.shape[0] != fock.dim:
        raise ValueError(f"array with {X.shape[0]} rows does not match dimension {fock.dim}")
    src, dst = (0, 1) if creator else (1, 0)
    out = np.zeros(X.shape, dtype=complex)
    for k, coeff in enumerate(psi if creator else np.conj(psi)):
        if coeff != 0:
            rows = X.reshape(2**k, 2, -1)  # axis 1 is the occupation of mode k
            out.reshape(2**k, 2, -1)[:, dst] += (
                (coeff * fock.jw_signs[: 2**k])[:, None] * rows[:, src]
            )
    return out


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
    dense operator.
    """
    X = np.diag(np.exp(logp)).astype(complex)
    for slot in sorted(range(len(spec.perm)), key=spec.perm.__getitem__, reverse=True):
        vec_idx, is_creator = spec.slot_operator_index(slot)
        X = apply_field(fock, spec.vectors[vec_idx], X, creator=is_creator)
    return permutation_sign(spec.perm) * complex(np.trace(X))


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
