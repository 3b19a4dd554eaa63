"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities through a different route than the
package (dense linear solves on explicit matrices, fine-grid integration,
exhaustive search) so that agreement is evidence, not tautology.
"""

import numpy as np
import scipy.linalg

from fermicov.car_fock import FockSpace, annihilator, creator, quasifree_density
from fermicov.modular import OVERFLOW_LOG, ModularData, correlation_vector
from fermicov.mspace import quotient_space
from fermicov.spectral import bernoulli_euler_rate, eig_hermitian, matrix_function, sign_values
from fermicov.torus import DiscreteTorus, delta_ap, derivative_matrix
from fermicov.verify import ordering_from_grid


def dense_solve_kernel(lam: float, torus: DiscreteTorus) -> np.ndarray:
    """Solve (del + lam) g = -2 delta_ap as a dense reduced linear system.

    Returns all 2n values (antiperiodic extension of the n-point solution).
    """
    n = torus.n
    A = derivative_matrix(torus) + lam * np.eye(n)
    rhs = -2.0 * delta_ap(torus).values[:n, 0].real
    g_half = np.linalg.solve(A, rhs)
    return np.concatenate([g_half, -g_half])


def full_redundant_operator(H: np.ndarray, torus: DiscreteTorus) -> np.ndarray:
    """(del + H^) as a dense (2n d) x (2n d) matrix on the redundant grid."""
    size = torus.size
    d = H.shape[0]
    D = np.zeros((size, size))
    for i in range(size):
        D[i, (i + 1) % size] += torus.rate
        D[i, i] -= torus.rate
    return np.kron(D, np.eye(d)) + np.kron(np.eye(size), H)


def dense_inversion_entry(H, chi, phi1, phi2, alpha_index, torus) -> complex:
    """<phi2, (C chi(H^) phi1^)(alpha)> by inverting the full redundant matrix."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    w, V = np.linalg.eigh(H)
    chi_phi1 = (V * chi(w)) @ V.conj().T @ np.asarray(phi1, dtype=complex)
    delta = delta_ap(torus).values[:, 0]
    rhs = np.outer(delta, chi_phi1).reshape(-1)
    A = full_redundant_operator(H, torus)
    u = np.linalg.solve(A, rhs).reshape(torus.size, d)
    return complex(np.vdot(np.asarray(phi2, dtype=complex), -2.0 * u[torus.wrap(alpha_index)]))


def expm_density(h: np.ndarray, beta: float, dgamma: np.ndarray) -> np.ndarray:
    """Density matrix exp(-beta dGamma(h)) / Z via scipy's expm (independent path)."""
    R = scipy.linalg.expm(-beta * dgamma)
    return R / np.trace(R).real


def dense_representation(inst, eta: float, form: str = "inner") -> complex:
    """determinant_representation through the dense Fock-space modular calculus.

    Second-quantizes the regularized energy h (x) 1_r into a dense 2^D x 2^D
    matrix, diagonalizes it (quasifree_density), and evaluates the two half
    chains with correlation_vector on dense creator/annihilator matrices in
    the site modes, or the cyclic trace in the eigenbasis of the density.
    """
    torus, N, beta, n = inst.torus, inst.pair_count, inst.torus.beta, inst.torus.n
    S = eig_hermitian(inst.H)
    qs = quotient_space(inst.M)
    fock = FockSpace(S.dim * qs.rank)
    cap = OVERFLOW_LOG / beta
    rates = np.clip(bernoulli_euler_rate(S.values, torus, eta), -cap, cap)
    h = np.kron(matrix_function(lambda lam: rates, S), np.eye(qs.rank))
    mod = ModularData(quasifree_density(h, beta, fock))

    order = ordering_from_grid([i - torus.zero_index for i, _, _ in inst.points], N, n)
    sqrt_chi = np.sqrt(inst.chi(S.values))
    signs = sign_values(S, torus)
    ops = []
    for q, (_, phi, j) in enumerate(inst.points):
        dressed = sqrt_chi * (S.vectors.conj().T @ np.asarray(phi, dtype=complex))
        if order.alpha_tilde[q] % 2 == 1:
            dressed = signs * dressed
        psi = np.kron(S.vectors @ dressed, qs.coords[j])
        ops.append(creator(fock, psi) if q < N else annihilator(fock, psi))

    tilde, placed, xi, p = order.alpha_tilde, order.placement, order.xi, order.split
    if form == "trace":
        logp = mod.log_weights
        lead = 1.0 - (tilde[placed[-1]] - tilde[placed[0]]) / n
        M = np.diag(np.exp(logp * lead)) @ mod.to_eigenbasis(ops[placed[0]].matrix)
        for u in range(1, 2 * N):
            M = (M * np.exp(logp * xi[u - 1])[None, :]) @ mod.to_eigenbasis(ops[placed[u]].matrix)
        return order.rep_sign * complex(np.trace(M))
    left = []
    if p > 0:
        left.append((beta * (0.5 - tilde[placed[p - 1]] / n), ops[placed[p - 1]].adjoint()))
        left += [(beta * xi[u - 1], ops[placed[u - 1]].adjoint()) for u in range(p - 1, 0, -1)]
    right = []
    if p < 2 * N:
        right.append((beta * (tilde[placed[p]] / n - 0.5), ops[placed[p]]))
        right += [(beta * xi[u - 1], ops[placed[u]]) for u in range(p + 1, 2 * N)]
    return order.rep_sign * correlation_vector(mod, left).inner(correlation_vector(mod, right))


def fine_grid_bk(edges, weights, m: int, t: float, samples: int = 10_000) -> np.ndarray:
    """Midpoint-rule integration of the connectivity indicator on [0, t]."""
    out = np.zeros((m, m))
    ds = t / samples
    for step in range(samples):
        s = (step + 0.5) * ds
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v), w in zip(edges, weights):
            if w < s:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
        roots = np.array([find(k) for k in range(m)])
        out += ds * (roots[:, None] == roots[None, :])
    return out


def ordering_brute_force(alphas, N: int, torus: DiscreteTorus):
    """All placement orders satisfying both order conditions, by exhaustion.

    A placement (tuple of original indices) is valid when the shifted times
    and the raw times are both nondecreasing along it.
    """
    from itertools import permutations

    a = [torus.index(al) - torus.zero_index for al in alphas]
    tilde = [v + (1 if q >= N else 0) for q, v in enumerate(a)]
    valid = []
    for perm in permutations(range(2 * N)):
        ok = all(
            tilde[perm[u]] >= tilde[perm[u - 1]] and a[perm[u]] >= a[perm[u - 1]]
            for u in range(1, 2 * N)
        )
        if ok:
            valid.append(perm)
    return valid
