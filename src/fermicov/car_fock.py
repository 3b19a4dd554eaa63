"""Finite CAR algebra on Fock space: the brute-force oracle substrate.

Modes are realized by Jordan-Wigner matrices in the occupation-number basis,
with mode order (fiber index, color index) lexicographic.  a(psi) is
antilinear in psi, so two-point functions of a quasi-free state read
rho(a+(psi1) a(psi2)) = <psi2, S psi1> with the symbol S.

The same family also acts without dense matrices: `apply_field` applies a(psi)
or a+(psi) to the rows of an array through each mode's signed bit flip, and
`quasifree_log_weights` gives the diagonal state of a one-particle energy in
the occupation basis of its own eigenmodes.  Together they evaluate modular
chains in O(D 4^D) where the dense family costs O(8^D).

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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fermicov.spectral import HermitianMatrix

__all__ = [
    "fock_cap",
    "FockSpace",
    "FockOperator",
    "MonomialSpec",
    "QuasiFreeState",
    "jordan_wigner",
    "annihilator",
    "creator",
    "apply_field",
    "second_quantize",
    "quasifree_density",
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
        self._lowering: list | None = None
        self._jw_signs: np.ndarray | None = None

    def __eq__(self, other):
        return isinstance(other, FockSpace) and other.modes == self.modes

    def __repr__(self):
        return f"FockSpace(modes={self.modes})"

    @property
    def lowering(self) -> list:
        """The cached Jordan-Wigner annihilation family."""
        if self._lowering is None:
            self._lowering = jordan_wigner(self.modes, fock=self)
        return self._lowering

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


@dataclass
class FockOperator:
    """A dense operator on the Fock space."""

    fock: FockSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.shape != (self.fock.dim, self.fock.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match 2^{self.fock.modes}"
            )

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.fock, self.matrix.conj().T)


def jordan_wigner(modes: int, fock: FockSpace | None = None) -> list:
    """The D annihilation operators c_i in the occupation basis, exact 0/+-1 entries.

    c_i = Z x ... x Z x a x 1 x ... x 1 with i sign factors Z on the left.
    """
    if fock is None:
        fock = FockSpace(modes)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.diag([1.0, -1.0])
    one = np.eye(2)
    ops = []
    for i in range(modes):
        m = np.eye(1)
        for j in range(modes):
            m = np.kron(m, z if j < i else (a if j == i else one))
        ops.append(FockOperator(fock, m))
    return ops


def annihilator(fock: FockSpace, psi: np.ndarray) -> FockOperator:
    """a(psi) = sum_i conj(psi_i) c_i; antilinear in psi."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != fock.modes:
        raise ValueError(f"vector length {psi.shape[0]} does not match {fock.modes} modes")
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for coeff, c in zip(np.conj(psi), fock.lowering):
        if coeff != 0:
            out += coeff * c.matrix
    return FockOperator(fock, out)


def creator(fock: FockSpace, psi: np.ndarray) -> FockOperator:
    """a+(psi) = a(psi)*; linear in psi."""
    return annihilator(fock, psi).adjoint()


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


def second_quantize(h: np.ndarray | HermitianMatrix, fock: FockSpace | None = None) -> FockOperator:
    """dGamma(h) = sum_ij h_ij c_i+ c_j, assembled column by column."""
    if isinstance(h, HermitianMatrix):
        h = h.matrix
    h = np.asarray(h, dtype=complex)
    modes = h.shape[0]
    if fock is None:
        fock = FockSpace(modes)
    if modes != fock.modes:
        raise ValueError(f"matrix dimension {modes} does not match {fock.modes} modes")
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for j in range(modes):
        col_creator = creator(fock, h[:, j]).matrix
        out += col_creator @ fock.lowering[j].matrix
    return FockOperator(fock, out)


def _fermi(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    out = np.empty_like(x)
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


@dataclass
class QuasiFreeState:
    """Gauge-invariant quasi-free state given by a thermal density matrix.

    Carries the dense density matrix (for brute-force traces), its spectral
    data in log form (so modular powers never underflow), the symbol, and the
    one-particle data that generated it.
    """

    fock: FockSpace
    beta: float
    one_particle: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        tr = float(np.trace(self.density).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr} is not 1")

    def expectation(self, op: FockOperator | np.ndarray) -> complex:
        m = op.matrix if isinstance(op, FockOperator) else np.asarray(op)
        return complex(np.sum(self.density * m.T))

    def verify_symbol(self, rng: np.random.Generator, trials: int = 5) -> float:
        """Max deviation of Tr(rho a+(p1) a(p2)) from <p2, S p1> on random vectors."""
        worst = 0.0
        for _ in range(trials):
            p1 = rng.normal(size=self.fock.modes) + 1j * rng.normal(size=self.fock.modes)
            p2 = rng.normal(size=self.fock.modes) + 1j * rng.normal(size=self.fock.modes)
            lhs = self.expectation(
                FockOperator(
                    self.fock, creator(self.fock, p1).matrix @ annihilator(self.fock, p2).matrix
                )
            )
            rhs = complex(np.vdot(p2, self.symbol @ p1))
            worst = max(worst, abs(lhs - rhs))
        return worst


def quasifree_density(
    h: np.ndarray | HermitianMatrix, beta: float, fock: FockSpace | None = None
) -> QuasiFreeState:
    """The quasi-free state with density exp(-beta dGamma(h)) / Z.

    Its symbol is (1 + exp(beta h))^{-1}.  Boltzmann log-weights are kept
    exactly; the dense density matrix may underflow in its smallest entries,
    which only affects brute-force traces, not modular powers.  A trace
    underflow (every weight below 1e-300) is rejected: the caller should
    reduce the regularization parameter.
    """
    if isinstance(h, HermitianMatrix):
        h = h.matrix
    h = np.asarray(h, dtype=complex)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if fock is None:
        fock = FockSpace(h.shape[0])
    eps, V = np.linalg.eigh((h + h.conj().T) / 2)
    symbol = (V * _fermi(beta * eps)) @ V.conj().T

    dg = second_quantize(h, fock).matrix
    energies, U = np.linalg.eigh((dg + dg.conj().T) / 2)
    logw = -beta * energies
    if np.all(logw < np.log(1e-300)):
        raise FloatingPointError(
            "all Boltzmann weights underflow double precision; reduce beta or eta"
        )
    log_z = _logsumexp(logw)
    logp = logw - log_z
    density = (U * np.exp(logp)) @ U.conj().T
    density = (density + density.conj().T) / 2
    return QuasiFreeState(
        fock=fock,
        beta=float(beta),
        one_particle=h,
        symbol=symbol,
        density=density,
        basis=U,
        log_weights=logp,
    )


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


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m))))


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


def expect_monomial(state: QuasiFreeState, spec: MonomialSpec) -> complex:
    """sign(perm) * Tr(rho * product of the permuted operator tuple)."""
    fock = state.fock
    slot_at_position = [0] * len(spec.perm)
    for slot, pos in enumerate(spec.perm):
        slot_at_position[pos] = slot
    prod = np.eye(fock.dim, dtype=complex)
    for pos in range(len(spec.perm)):
        vec_idx, is_creator = spec.slot_operator_index(slot_at_position[pos])
        psi = spec.vectors[vec_idx]
        op = creator(fock, psi) if is_creator else annihilator(fock, psi)
        prod = prod @ op.matrix
    return permutation_sign(spec.perm) * state.expectation(FockOperator(fock, prod))


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
