"""Finite-dimensional standard representation and modular calculus.

Operators on the Fock space form a Hilbert space under <A, B> = Tr(A* B);
the state's density matrix D gives the cyclic vector eta = D^(1/2) and the
modular operator Delta X = D X D^(-1).  Powers Delta^z act entrywise in the
eigenbasis of D as (p_k / p_l)^z, computed from log-weights so that extreme
Boltzmann ratios neither overflow nor collapse to 0/0.

Correlation chains Delta^(z1/beta) x1 ... Delta^(zN/beta) xN eta are
evaluated in the product form in which every density-matrix power carries a
nonnegative exponent bounded by 1/2: each intermediate is then a contraction
of the operator norms, which is the numerical content of the Hoelder bound
itself.

`ModularData`, `modular_power` and `correlation_vector` work on dense
density matrices of any quasi-free state.  `determinant_representation`
needs only thermal states of a known one-particle energy, and evaluates its
chains in the occupation basis of that energy's eigenmodes: the density is
diagonal there with closed-form log-weights, Delta^w is a row scaling, and
each creation or annihilation operator is a signed bit-flip row map
(`car_fock.apply_field`).  No 2^D x 2^D diagonalization or matrix product
is formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from fermicov.car_fock import (
    FockOperator,
    FockSpace,
    QuasiFreeState,
    apply_field,
    quasifree_log_weights,
)
from fermicov.covariance import BoundInstance
from fermicov.mspace import quotient_space
from fermicov.spectral import bernoulli_euler_rate, eig_hermitian, sign_values
from fermicov.verify import OrderingData, ordering_from_grid

__all__ = [
    "HSVector",
    "ModularData",
    "modular_power",
    "correlation_vector",
    "schatten_norm",
    "determinant_representation",
]

OVERFLOW_LOG = 690.0  # log(1e300)


@dataclass
class HSVector:
    """An operator viewed as a vector of the Hilbert-Schmidt space."""

    fock: FockSpace
    matrix: np.ndarray = field(repr=False)

    def inner(self, other: "HSVector") -> complex:
        """<A, B> = Tr(A* B); conjugate-linear in the first slot."""
        return complex(np.vdot(self.matrix, other.matrix))

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


class ModularData:
    """Modular operator of a strictly positive quasi-free density matrix.

    Holds the eigenbasis of the density matrix and the exact log-weights; the
    strict positivity needed for Delta to exist is automatic in this form.
    """

    def __init__(self, state: QuasiFreeState):
        self.state = state
        self.fock = state.fock
        self.beta = state.beta
        self.basis = state.basis
        self.log_weights = state.log_weights

    def eta(self) -> HSVector:
        """The cyclic vector D^(1/2), a unit HS vector and fixed point of Delta."""
        U = self.basis
        return HSVector(self.fock, (U * np.exp(self.log_weights / 2)) @ U.conj().T)

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ matrix @ self.basis

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        return self.basis @ matrix @ self.basis.conj().T

    def power_in_basis(self, z: complex, X: np.ndarray) -> np.ndarray:
        """Delta^z on an operator already expressed in the eigenbasis of D.

        Computed as phase(X) * exp(z (log p_k - log p_l) + log|X|) so the
        damping by |X| acts before exponentiation; zero entries never meet
        large exponents at all.
        """
        X = np.asarray(X, dtype=complex)
        L = np.subtract.outer(self.log_weights, self.log_weights)
        absX = np.abs(X)
        live = absX > 0
        logabs = np.log(absX, out=np.full_like(L, -np.inf), where=live)
        if np.any(np.real(z) * L[live] + logabs[live] > OVERFLOW_LOG):
            raise OverflowError(
                "modular power would exceed 1e300; the exponent lies outside "
                "the safe tube for this state"
            )
        phase = np.divide(X, absX, out=np.zeros_like(X), where=live)
        return phase * np.exp(z * L + logabs)


def modular_power(mod: ModularData, z: complex, X: HSVector | np.ndarray) -> HSVector:
    """Delta^z X = D^z X D^(-z), through the eigenbasis of D."""
    matrix = X.matrix if isinstance(X, HSVector) else np.asarray(X)
    Xb = mod.to_eigenbasis(matrix)
    return HSVector(mod.fock, mod.from_eigenbasis(mod.power_in_basis(z, Xb)))


def _check_tube(zs: np.ndarray, kappa: float, slack: float = 1e-12):
    re = np.real(zs)
    if np.any(re < -slack) or np.sum(re) > kappa + slack:
        raise ValueError(
            f"chain exponents {zs} leave the tube Re z >= 0, sum Re z <= {kappa}"
        )


def correlation_vector(mod: ModularData, chain: list) -> HSVector:
    """Delta^(z1/beta) x1 Delta^(z2/beta) x2 ... xN eta for a tube chain.

    chain holds pairs (z_q, x_q) with complex z_q satisfying Re z_q >= 0 and
    sum Re z_q <= beta/2 (to 1e-12 slack).  The product is accumulated as
    D^(Re w_1) x1' D^(Re w_2) x2' ... D^(1/2 - sum Re w) with w = z/beta and
    the x' Bogoliubov-rotated by the accumulated imaginary parts, so every
    density-power exponent lies in [0, 1/2].
    """
    if not chain:
        return mod.eta()
    zs = np.array([z for z, _ in chain], dtype=complex)
    _check_tube(zs, mod.beta / 2)
    w = zs / mod.beta
    re = np.clip(np.real(w), 0.0, None)
    im = np.imag(w)
    logp = mod.log_weights
    L = np.subtract.outer(logp, logp)

    tail = max(0.0, 0.5 - float(np.sum(re)))
    V = np.diag(np.exp(logp * tail)).astype(complex)
    cum_im = np.cumsum(im)
    for q in range(len(chain) - 1, -1, -1):
        x = chain[q][1]
        xb = mod.to_eigenbasis(x.matrix if isinstance(x, FockOperator) else np.asarray(x))
        rotated = xb * np.exp(1j * cum_im[q] * L)
        V = rotated @ V
        V = np.exp(logp * re[q])[:, None] * V
    return HSVector(mod.fock, mod.from_eigenbasis(V))


def schatten_norm(X: FockOperator | np.ndarray, s: float) -> float:
    """(Tr |X|^s)^(1/s); s = inf gives the operator norm, s = 2 the HS norm."""
    if not (s >= 1.0):
        raise ValueError(f"Schatten order must satisfy s >= 1, got {s}")
    matrix = X.matrix if isinstance(X, FockOperator) else np.asarray(X)
    sv = np.linalg.svd(matrix, compute_uv=False)
    if np.isinf(s):
        return float(sv[0]) if sv.size else 0.0
    top = float(sv[0]) if sv.size else 0.0
    if top == 0.0:
        return 0.0
    return float(top * np.sum((sv / top) ** s) ** (1.0 / s))


def _eigenbasis_chain(fock: FockSpace, logp: np.ndarray, chain: list, tail: float) -> np.ndarray:
    """D^(w_1) x_1 D^(w_2) x_2 ... x_N D^tail for the diagonal state of log-weights logp.

    chain holds pairs (w_q, (psi_q, is_creator_q)) with psi_q in the state's
    eigenmode basis.  Applied right to left, each x_q is a row map and each
    D^(w_q) a row scaling, so no dense Fock operator is formed.
    """
    X = np.diag(np.exp(logp * tail)).astype(complex)
    for w, (psi, is_creator) in reversed(chain):
        X = apply_field(fock, psi, X, creator=is_creator)
        X *= np.exp(logp * w)[:, None]
    return X


def _half_chain(fock: FockSpace, logp: np.ndarray, beta: float, chain: list) -> np.ndarray:
    """Delta^(z1/beta) x1 ... xN eta in the eigenbasis, for a tube chain of real z."""
    zs = np.array([z for z, _ in chain], dtype=complex)
    _check_tube(zs, beta / 2)
    w = np.clip(np.real(zs) / beta, 0.0, None)
    tail = max(0.0, 0.5 - float(np.sum(w)))
    return _eigenbasis_chain(fock, logp, list(zip(w, (x for _, x in chain))), tail)


def determinant_representation(
    inst: BoundInstance,
    eta: float,
    form: str = "inner",
) -> complex:
    """Covariance determinant through the modular standard representation.

    Builds the time-ordered chain of creation/annihilation operators dressed
    with sign-operator powers and the square-root cutoff, splits it where the
    shifted times cross beta/2, and evaluates the signed inner product of the
    two modular half-chains (form="inner") or the equivalent cyclic trace
    (form="trace").  Away from the singular spectral value n/beta the result
    matches the directly computed determinant at any finite eta; with an
    eigenvalue pinned there it converges to it as eta grows.

    Both forms are evaluated in the occupation basis of the eigenmodes of the
    regularized one-particle energy h (x) 1_r.  There the quasi-free state is
    diagonal with closed-form log-weights, every operator is a signed
    bit-flip row map on the 2^D x 2^D chain array, and Delta^w is a row
    scaling; inner product and trace are unitarily invariant, so no change of
    basis back to the site modes is needed.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if form not in ("inner", "trace"):
        raise ValueError(f"unknown form {form!r}")
    torus = inst.torus
    beta = torus.beta
    N = inst.pair_count
    S = eig_hermitian(inst.H)
    qs = quotient_space(inst.M)
    d, r = S.dim, qs.rank
    fock = FockSpace(d * r)  # raises if the cap is exceeded

    rates = bernoulli_euler_rate(S.values, torus, eta)
    cap = OVERFLOW_LOG / beta
    if np.max(np.abs(rates)) > cap:
        warnings.warn(
            f"clamping regularized one-particle energies to |rate| <= {cap:.3g} "
            "to keep Boltzmann weights representable",
            RuntimeWarning,
            stacklevel=2,
        )
        rates = np.clip(rates, -cap, cap)
    logp = quasifree_log_weights(np.repeat(rates, r), beta)

    a_units = [i - torus.zero_index for i, _, _ in inst.points]
    order: OrderingData = ordering_from_grid(a_units, N, torus.n)

    sqrt_chi = np.sqrt(inst.chi(S.values))
    signs = sign_values(S, torus)
    ops = []  # (psi in the eigenmode basis, is_creator); the adjoint flips the flag
    for q, (i_alpha, phi, j) in enumerate(inst.points):
        dressed = sqrt_chi * (S.vectors.conj().T @ phi)
        if order.alpha_tilde[q] % 2 == 1:
            dressed = signs * dressed  # involution: only the parity acts
        ops.append((np.kron(dressed, qs.coords[j]), q < N))

    n = torus.n
    tilde = order.alpha_tilde
    placed = order.placement

    if form == "trace":
        lead = 1.0 - (tilde[placed[-1]] - tilde[placed[0]]) / n
        chain = [(lead, ops[placed[0]])]
        chain += [(order.xi[u - 1], ops[placed[u]]) for u in range(1, 2 * N)]
        return order.rep_sign * complex(np.trace(_eigenbasis_chain(fock, logp, chain, 0.0)))

    def adjoint(op):
        return op[0], not op[1]

    p = order.split
    left_chain = []
    if p > 0:
        left_chain.append(
            (beta * (0.5 - tilde[placed[p - 1]] / n), adjoint(ops[placed[p - 1]]))
        )
        for u in range(p - 1, 0, -1):
            left_chain.append((beta * order.xi[u - 1], adjoint(ops[placed[u - 1]])))
    right_chain = []
    if p < 2 * N:
        right_chain.append(
            (beta * (tilde[placed[p]] / n - 0.5), ops[placed[p]])
        )
        for u in range(p + 1, 2 * N):
            right_chain.append((beta * order.xi[u - 1], ops[placed[u]]))

    left = _half_chain(fock, logp, beta, left_chain)
    right = _half_chain(fock, logp, beta, right_chain)
    return order.rep_sign * complex(np.vdot(left, right))
