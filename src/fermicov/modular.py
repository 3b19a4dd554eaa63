"""Finite-dimensional standard representation and modular calculus.

Operators on the Fock space form a Hilbert space under <A, B> = Tr(A* B);
the state's density matrix D gives the cyclic vector eta = D^(1/2) and the
modular operator Delta X = D X D^(-1).  Everything here works in the
occupation basis of the eigenmodes of a one-particle energy, where the
quasi-free density is diagonal with closed-form log-weights
(`car_fock.quasifree_log_weights`).  There eta is diagonal, Delta^z acts
entrywise as (p_k / p_l)^z, computed from log-weights so that extreme
Boltzmann ratios neither overflow nor collapse to 0/0, and a chain of
creation and annihilation operators on a diagonal is a `car_fock.FockChain`
of shell rows.  No 2^D x 2^D diagonalization or matrix product is formed,
and no chain holds a 2^D x 2^D array.

Correlation chains Delta^(z1/beta) x1 ... Delta^(zN/beta) xN eta equal
D^(w1) x1 D^(w2) x2 ... xN D^(1/2 - sum w) with w = z/beta.  In the tube
Re z >= 0, sum Re z <= beta/2 every power of D is a row scaling by factors of
modulus at most 1, so each intermediate is a contraction of the operator
norms, which is the numerical content of the Hoelder bound itself.
"""

from __future__ import annotations

import warnings

import numpy as np

from fermicov.car_fock import FockChain, FockSpace, quasifree_log_weights
from fermicov.covariance import BoundInstance
from fermicov.mspace import quotient_space
from fermicov.spectral import eig_hermitian, rate_terms
from fermicov.verify import OrderingData, ordering_from_grid

__all__ = [
    "modular_power",
    "tube_chain",
    "schatten_norm",
    "determinant_representation",
]

OVERFLOW_LOG = 690.0  # log(1e300)


def modular_power(logp: np.ndarray, z: complex, X: np.ndarray) -> np.ndarray:
    """Delta^z X = D^z X D^(-z) for X in the basis where D = diag(exp(logp)).

    Computed as phase(X) * exp(z (log p_k - log p_l) + log|X|) so the
    damping by |X| acts before exponentiation; zero entries never meet
    large exponents at all.
    """
    X = np.asarray(X, dtype=complex)
    L = np.subtract.outer(logp, logp)
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


def _check_tube(zs: np.ndarray, kappa: float, slack: float = 1e-12):
    re = np.real(zs)
    if np.any(re < -slack) or np.sum(re) > kappa + slack:
        raise ValueError(
            f"chain exponents {zs} leave the tube Re z >= 0, sum Re z <= {kappa}"
        )


def schatten_norm(X: np.ndarray, s: float) -> float:
    """(Tr |X|^s)^(1/s); s = inf gives the operator norm, s = 2 the HS norm."""
    if not (s >= 1.0):
        raise ValueError(f"Schatten order must satisfy s >= 1, got {s}")
    sv = np.linalg.svd(np.asarray(X), compute_uv=False)
    if np.isinf(s):
        return float(sv[0]) if sv.size else 0.0
    top = float(sv[0]) if sv.size else 0.0
    if top == 0.0:
        return 0.0
    return float(top * np.sum((sv / top) ** s) ** (1.0 / s))


def tube_chain(fock: FockSpace, logp: np.ndarray, beta: float, chain: list,
               target: int | None = None) -> FockChain:
    """The correlation vector Delta^(z1/beta) x1 ... xN eta of a tube chain, as a FockChain.

    chain holds pairs (z_q, (psi_q, is_creator_q)): x_q is a+(psi_q) or
    a(psi_q) with psi_q in the eigenmode basis of the state of log-weights
    logp.  The z_q must satisfy Re z_q >= 0 and sum Re z_q <= beta/2 (to
    1e-12 slack).  Real exponents stay real, so a chain of real z pays for
    no complex row scaling.  A target keeps only the rows with |S| <= target
    (see `FockChain`); without one the chain holds every row and its norm is
    the Hilbert-Schmidt norm.

    The chain equals D^(w_1) x_1 ... x_N D^tail with w = z/beta and
    tail = 1/2 - sum w.  Applied right to left, each x_q is a field and each
    D^(w_q) a row scaling of the shell rows, so no dense Fock operator is
    formed, and no field builds a row that cannot reach the target.
    """
    zs = np.array([z for z, _ in chain], dtype=complex)
    _check_tube(zs, beta / 2)
    w = np.clip(np.real(zs) / beta, 0.0, None)
    tail = max(0.0, 0.5 - float(np.sum(w)))
    if np.any(np.imag(zs)):
        w = w + 1j * np.imag(zs) / beta
        tail = tail - 1j * float(np.sum(np.imag(zs))) / beta
    X = FockChain.diagonal(fock, np.exp(logp * tail))
    for left, (_, (psi, is_creator)) in reversed(list(enumerate(chain))):
        reach = None if target is None else target + left
        X = X.field(psi, creator=is_creator, reach=reach).scale(np.exp(logp * w[left]))
    return X


def determinant_representation(inst: BoundInstance, eta: float) -> complex:
    """Covariance determinant through the modular standard representation.

    Builds the time-ordered chain of creation/annihilation operators dressed
    with sign-operator powers and the square-root cutoff, splits it where the
    shifted times cross beta/2, and evaluates the signed inner product of the
    two modular half-chains.  Away from the singular spectral value n/beta
    the result matches the directly computed determinant at any finite eta;
    with an eigenvalue pinned there it converges to it as eta grows.

    It is evaluated in the occupation basis of the eigenmodes of the
    regularized one-particle energy h (x) 1_r.  There the quasi-free state is
    diagonal with closed-form log-weights, each half chain is a `FockChain`
    of shell rows, and Delta^w is a row scaling; the inner product is
    unitarily invariant, so no change of basis back to the site modes is
    needed.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    torus = inst.torus
    beta = torus.beta
    N = inst.pair_count
    S = eig_hermitian(inst.H)
    qs = quotient_space(inst.M)
    d, r = S.dim, qs.rank
    fock = FockSpace(d * r)  # raises if the cap is exceeded

    _, rates, signs = rate_terms(S.values, torus, eta)  # signs do not depend on eta
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
    ops = []  # (psi in the eigenmode basis, is_creator); the adjoint flips the flag
    for q, (i_alpha, phi, j) in enumerate(inst.points):
        dressed = sqrt_chi * (S.vectors.conj().T @ phi)
        if order.alpha_tilde[q] % 2 == 1:
            dressed = signs * dressed  # involution: only the parity acts
        ops.append((np.outer(dressed, qs.coords[j]).ravel(), q < N))  # dressed (x) coords_j

    n = torus.n
    tilde = order.alpha_tilde
    placed = order.placement

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

    target = min(len(left_chain), len(right_chain))  # the masks both half chains reach
    left = tube_chain(fock, logp, beta, left_chain, target)
    right = tube_chain(fock, logp, beta, right_chain, target)
    return order.rep_sign * left.vdot(right)
