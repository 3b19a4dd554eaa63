"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities through a different route than the
package (dense linear solves on explicit matrices, dense Jordan-Wigner
operators in the site modes, fine-grid integration, exhaustive search) so
that agreement is evidence, not tautology.  The reduced derivative and
covariance matrices also feed the Gram-degeneration table of criterion 08
and scripts/run_gram_divergence.py.  Only numpy and scipy are needed
besides the package itself.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.linalg

from fermicov.covariance import BoundInstance
from fermicov.modular import OVERFLOW_LOG
from fermicov.mspace import random_tree
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus, delta_ap


def derivative_matrix(torus: DiscreteTorus) -> np.ndarray:
    """Dense matrix of the discrete derivative on the reduced representation.

    Coordinates are the n values on alpha in (-beta, 0], with the
    antiperiodic seam f(beta/n) = -f(beta/n - beta) built in.  The matrix is
    invertible for every n; its eigenvalues stay away from the imaginary
    axis' zero (inf spec |Im del| > 0).
    """
    n, c = torus.n, torus.rate
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i, i + 1] += c
        M[i, i] -= c
    M[n - 1, 0] -= c
    M[n - 1, n - 1] -= c
    return M


def covariance_matrix_reduced(H: np.ndarray, torus: DiscreteTorus) -> np.ndarray:
    """Dense -2 (del + H^)^{-1} on the reduced antiperiodic representation."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    A = np.kron(derivative_matrix(torus).astype(complex), np.eye(d)) + np.kron(
        np.eye(torus.n), H
    )
    return -2.0 * np.linalg.inv(A)


def kernel_g_continuum(lam: float, beta: float, alpha: float) -> float:
    """Continuum kernel exp(-alpha lam) / (1 + exp(beta lam)) for alpha in (-beta, 0]."""
    if not (-beta < alpha <= 0):
        raise ValueError(f"alpha must lie in (-beta, 0], got {alpha}")
    # shift the larger exponential into the denominator so nothing overflows
    if beta * lam > 0:
        return float(np.exp(-(alpha + beta) * lam) / (1.0 + np.exp(-beta * lam)))
    return float(np.exp(-alpha * lam) / (1.0 + np.exp(beta * lam)))


def fit_growth_exponent(ns, vals) -> float:
    """Least-squares slope of log(vals) against log(ns)."""
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(vals, float)), 1)[0])


def dense_solve_kernel(lam: float, torus: DiscreteTorus) -> np.ndarray:
    """Solve (del + lam) g = -2 delta_ap as a dense reduced linear system.

    Returns all 2n values (antiperiodic extension of the n-point solution).
    """
    n = torus.n
    A = derivative_matrix(torus) + lam * np.eye(n)
    rhs = -2.0 * delta_ap(torus)[:n]
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
    delta = delta_ap(torus)
    rhs = np.outer(delta, chi_phi1).reshape(-1)
    A = full_redundant_operator(H, torus)
    u = np.linalg.solve(A, rhs).reshape(torus.size, d)
    return complex(np.vdot(np.asarray(phi2, dtype=complex), -2.0 * u[torus.wrap(alpha_index)]))


def dense_covariance_matrix(inst) -> np.ndarray:
    """The matrix of covariance_matrix, entry by entry through dense_inversion_entry."""
    N, torus = inst.pair_count, inst.torus
    return np.array([
        [inst.M[jk, jl] * dense_inversion_entry(inst.H.matrix, inst.chi, phik, phil,
                                                torus.index_diff(ik, il), torus)
         for il, phil, jl in inst.points[N:]]
        for ik, phik, jk in inst.points[:N]
    ])


def expm_density(h: np.ndarray, beta: float, dgamma: np.ndarray) -> np.ndarray:
    """Density matrix exp(-beta dGamma(h)) / Z via scipy's expm (independent path)."""
    R = scipy.linalg.expm(-beta * dgamma)
    return R / np.trace(R).real


@lru_cache(maxsize=None)
def jordan_wigner(modes: int) -> tuple:
    """The D annihilation operators c_i in the occupation basis, exact 0/+-1 entries.

    c_i = Z x ... x Z x a x 1 x ... x 1 with i sign factors Z on the left;
    cached, so the arrays are read-only.
    """
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.diag([1.0, -1.0])
    ops = []
    for i in range(modes):
        c = reduce(np.kron, [z] * i + [a] + [np.eye(2)] * (modes - 1 - i), np.eye(1))
        c.setflags(write=False)
        ops.append(c)
    return tuple(ops)


def apply_field(psi: np.ndarray, X: np.ndarray, creator: bool = False) -> np.ndarray:
    """a(psi) @ X, or a+(psi) @ X with creator=True, as signed bit-flip row maps.

    The rows of X are occupation patterns of D = len(psi) modes, mode 0 in the
    highest bit.  c_k moves row (.., n_k = 1, ..) to row (.., n_k = 0, ..) with
    the sign (-1)^(n_0 + ... + n_(k-1)) and c_k* moves it back.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    X = np.asarray(X)
    if X.shape[0] != 2 ** psi.shape[0]:
        raise ValueError(f"array with {X.shape[0]} rows does not match {psi.shape[0]} modes")
    src, dst = (0, 1) if creator else (1, 0)
    out = np.zeros(X.shape, dtype=complex)
    for k, coeff in enumerate(psi if creator else np.conj(psi)):
        leading = np.arange(2**k)
        signs = (-1.0) ** np.array([bin(j).count("1") for j in leading])
        rows = X.reshape(2**k, 2, -1)  # axis 1 is the occupation of mode k
        out.reshape(2**k, 2, -1)[:, dst] += (coeff * signs)[:, None] * rows[:, src]
    return out


def dense_chain(chain) -> np.ndarray:
    """The 2^D x 2^D matrix X of a FockChain: X[r, r ^ S] = rows[S, r]."""
    X = np.zeros((chain.fock.dim,) * 2, dtype=complex)
    r = np.arange(chain.fock.dim)
    for mask, row in zip(chain.masks, chain.rows):
        X[r, r ^ mask] = row
    return X


def reference_field(chain, psi, creator=False, reach=None) -> np.ndarray:
    """The rows of chain.field(psi, creator, reach) by one gather over all (row, mode) pairs.

    The products hop * source of the pairs (S, k) of the chain's masks whose
    S ^ bit_k is a mask the new chain keeps are gathered at once, in mode order,
    and added one pair at a time onto rows of zeros, so each destination sums
    its pairs in mode order.  np.multiply fixes the operand order of the complex
    product; `*` lets numpy reuse a large temporary right operand as the output,
    which swaps the factors.
    """
    fock = chain.fock
    wanted = chain.reach + 1 if reach is None else min(reach, chain.reach + 1)
    landing = fock.family(wanted, 1 - chain.length % 2)
    flips, annihilate, create = fock.hops
    moved = chain.masks ^ (1 << np.arange(fock.modes - 1, -1, -1))[:, None]
    mode_of, row_of = np.nonzero(np.isin(moved, landing))
    dest = np.searchsorted(landing, moved[mode_of, row_of])
    psi, creator = np.asarray(psi, dtype=complex), np.asarray(creator, dtype=bool)
    coeffs = np.where(creator[..., None], psi, np.conj(psi))
    hop = coeffs[..., None] * np.where(creator[..., None, None], create, annihilate)
    gathered = np.multiply(hop[..., mode_of, :], chain.rows[..., row_of[:, None], flips[mode_of]])
    out = np.zeros((*gathered.shape[:-2], len(landing), fock.dim), dtype=complex)
    for pair, to in enumerate(dest):
        out[..., to, :] += gathered[..., pair, :]
    return out


def annihilator(psi: np.ndarray) -> np.ndarray:
    """a(psi) = sum_i conj(psi_i) c_i as a dense matrix; antilinear in psi."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return sum(np.conj(p) * c for p, c in zip(psi, jordan_wigner(psi.shape[0])))


def creator(psi: np.ndarray) -> np.ndarray:
    """a+(psi) = a(psi)*; linear in psi."""
    return annihilator(psi).conj().T


def second_quantize(h: np.ndarray) -> np.ndarray:
    """dGamma(h) = sum_ij h_ij c_i+ c_j, assembled column by column."""
    h = np.asarray(h, dtype=complex)
    return sum(creator(h[:, j]) @ c for j, c in enumerate(jordan_wigner(h.shape[0])))


@dataclass
class QuasiFreeState:
    """The dense state exp(-beta dGamma(h)) / Z in the site modes.

    Carries the density matrix (for traces) and the eigenbasis and exact
    log-weights of dGamma(h) (for modular powers, which never underflow in
    log form).
    """

    beta: float
    density: np.ndarray
    basis: np.ndarray
    log_weights: np.ndarray

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ matrix @ self.basis

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        return self.basis @ matrix @ self.basis.conj().T


def quasifree_density(h: np.ndarray, beta: float) -> QuasiFreeState:
    """Second-quantize h into a dense 2^D x 2^D matrix and diagonalize it."""
    dg = second_quantize(h)
    energies, U = np.linalg.eigh((dg + dg.conj().T) / 2)
    logw = -beta * energies
    logp = logw - np.logaddexp.reduce(logw)
    density = (U * np.exp(logp)) @ U.conj().T
    return QuasiFreeState(float(beta), (density + density.conj().T) / 2, U, logp)


def dense_monomial(state: QuasiFreeState, vectors: list, perm: tuple, creators: int) -> complex:
    """sign(perm) * Tr(rho * product) of a permuted monomial in the site modes.

    Slot u < creators holds a+(vectors[u]), slot u >= creators holds
    a(vectors[creators + n - 1 - u]); perm[u] is the position of slot u.
    """
    n = len(perm)
    prod = np.eye(state.density.shape[0], dtype=complex)
    for slot in sorted(range(n), key=perm.__getitem__):
        if slot < creators:
            prod = prod @ creator(vectors[slot])
        else:
            prod = prod @ annihilator(vectors[creators + n - 1 - slot])
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return (-1) ** inversions * complex(np.sum(state.density * prod.T))


def correlation_vector(state: QuasiFreeState, chain: list) -> np.ndarray:
    """Delta^(z1/beta) x1 Delta^(z2/beta) x2 ... xN eta for dense operators x_q.

    The product is accumulated as D^(Re w_1) x1' D^(Re w_2) x2' ...
    D^(1/2 - sum Re w) with w = z/beta and the x' Bogoliubov-rotated by the
    accumulated imaginary parts, in the eigenbasis of the dense density.
    """
    zs = np.array([z for z, _ in chain], dtype=complex)
    w = zs / state.beta
    re = np.clip(np.real(w), 0.0, None)
    logp = state.log_weights
    L = np.subtract.outer(logp, logp)
    V = np.diag(np.exp(logp * max(0.0, 0.5 - float(np.sum(re))))).astype(complex)
    cum_im = np.cumsum(np.imag(w))
    for q in range(len(chain) - 1, -1, -1):
        rotated = state.to_eigenbasis(chain[q][1]) * np.exp(1j * cum_im[q] * L)
        V = np.exp(logp * re[q])[:, None] * (rotated @ V)
    return state.from_eigenbasis(V)


def dense_representation(inst, eta: float, placement=None) -> complex:
    """determinant_representation through the dense Fock-space modular calculus.

    Second-quantizes the regularized energy h (x) 1_r into a dense 2^D x 2^D
    matrix, diagonalizes it (quasifree_density), and evaluates the two half
    chains with correlation_vector on dense creator/annihilator matrices in
    the site modes.  The points go in placement order, by default the first
    valid order that ordering_brute_force finds.
    """
    torus, N, beta, n = inst.torus, inst.pair_count, inst.torus.beta, inst.torus.n
    lam, U = np.linalg.eigh(inst.H.matrix)
    w, V = np.linalg.eigh(inst.M)  # the color factor: coords @ coords.T == M
    keep = w > 1e-10 * np.abs(w).max()
    coords = V[:, keep] * np.sqrt(w[keep])
    cap = OVERFLOW_LOG / beta
    # -(n/beta) ln|1 - (beta/n) lam|, eta within 1e-12 n/beta of the singular n/beta
    ratio = 1.0 - lam / torus.rate
    with np.errstate(divide="ignore"):
        log_rates = -torus.rate * np.log(np.abs(ratio))
    singular = np.abs(lam - torus.rate) <= 1e-12 * torus.rate
    rates = np.clip(np.where(singular, eta, log_rates), -cap, cap)
    h = np.kron((U * rates) @ U.conj().T, np.eye(coords.shape[1]))
    state = quasifree_density(h, beta)

    a = [i - torus.zero_index for i, _, _ in inst.points]
    tilde = [v + (1 if q >= N else 0) for q, v in enumerate(a)]  # annihilators one step later
    placed = ordering_brute_force(a, N)[0] if placement is None else placement
    sqrt_chi = np.sqrt(inst.chi(lam))
    signs = np.where(ratio >= 0.0, 1.0, -1.0)  # sgn(1 - (beta/n) lam), sgn(0) = +1
    ops = []
    for q, (_, phi, j) in enumerate(inst.points):
        dressed = sqrt_chi * (U.conj().T @ np.asarray(phi, dtype=complex))
        if tilde[q] % 2 == 1:
            dressed = signs * dressed
        psi = np.kron(U @ dressed, coords[j])
        ops.append(creator(psi) if q < N else annihilator(psi))

    # canonical CAR tuple: creator q in slot q, annihilator q in slot 3N - 1 - q
    slots = [q if q < N else 3 * N - 1 - q for q in placed]
    inversions = sum(slots[u] > slots[v] for u in range(2 * N) for v in range(u + 1, 2 * N))
    p = next((u for u, q in enumerate(placed) if 2 * tilde[q] >= n), 2 * N)  # at or after beta/2
    left = []
    if p > 0:
        left.append((beta * (0.5 - tilde[placed[p - 1]] / n), ops[placed[p - 1]].conj().T))
    for u in range(p - 1, 0, -1):
        xi = (tilde[placed[u]] - tilde[placed[u - 1]]) / n
        left.append((beta * xi, ops[placed[u - 1]].conj().T))
    right = []
    if p < 2 * N:
        right.append((beta * (tilde[placed[p]] / n - 0.5), ops[placed[p]]))
    for u in range(p + 1, 2 * N):
        xi = (tilde[placed[u]] - tilde[placed[u - 1]]) / n
        right.append((beta * xi, ops[placed[u]]))
    return (-1) ** inversions * complex(
        np.vdot(correlation_vector(state, left), correlation_vector(state, right))
    )


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


def reference_bk_matrix(g, t: float) -> np.ndarray:
    """The independent interval-by-interval reference for mspace.bk_matrix:
    numpy's unique breakpoints, a fresh union-find over the surviving edges
    for each interval, and the interval lengths added to M in order."""
    breaks = np.unique(np.concatenate([[0.0, t], g.weights[g.weights < t]]))
    out = np.zeros((g.m, g.m))
    for s0, s1 in zip(breaks[:-1], breaks[1:]):
        parent = list(range(g.m))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for (u, v), w in zip(g.edges, g.weights):
            if w <= s0:
                parent[find(v)] = find(u)
        roots = np.array([find(k) for k in range(g.m)])
        out += (s1 - s0) * (roots[:, None] == roots[None, :])
    return out


def ordering_brute_force(a, N: int):
    """All placement orders satisfying both order conditions, by exhaustion.

    a holds the 2N integer grid offsets of the points.  A placement (tuple of
    original indices) is valid when the shifted times and the raw times are
    both nondecreasing along it.
    """
    from itertools import permutations

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


def reference_instance(seed: int, config) -> tuple:
    """(instance, pinned): the bound suite's instance for seed, generated one rng
    call and one piece of arithmetic at a time, and whether it took the branch
    that pins an eigenvalue on n/beta.  The generator's per-instance form,
    which verify.random_instances must match bit for bit."""
    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, config.d_max + 1))
    m = int(rng.integers(1, config.m_max + 1))
    N = int(rng.integers(1, config.N_max + 1))
    n = int(pick(config.n_choices))
    beta = float(pick(config.beta_choices))
    torus = DiscreteTorus(beta=beta, n=n)
    rate = torus.rate

    scale = rate * 10.0 ** rng.uniform(-1.0, np.log10(config.scale_max))
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = scale / max(1.0, np.sqrt(d)) * (A + A.conj().T) / 2
    pinned = rng.uniform() < 0.05
    if pinned:
        S = eig_hermitian(HermitianMatrix(H))
        vals = S.values.copy()
        vals[int(rng.integers(0, d))] = rate
        H = (S.vectors * vals) @ S.vectors.conj().T

    kind = pick(("one", "indicator", "gaussian"))
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

    if pick(("psd", "bk")) == "bk":
        M = reference_bk_matrix(random_tree(m, rng), t=float(rng.uniform(0.2, 1.0)))
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

    return BoundInstance(H=HermitianMatrix(H), torus=torus, chi=chi, M=M, points=points), pinned
