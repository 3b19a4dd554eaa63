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

The covariance determinant is the parity of a time order times the inner
product of two such chains.  `time_order` shifts each annihilator one grid
step later, places the 2N points by shifted time and splits them where the
shifted times reach beta/2.  Each point's exponent z/beta is its gap to the
neighbour on the side of beta/2, or to beta/2 itself, so the exponents of each
half chain sum to at most 1/2 and both chains lie in the tube.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from fermicov.car_fock import (FockChain, FockSpace, permutation_sign, quasifree_log_weights,
                               quasifree_modes)
from fermicov.covariance import BoundInstance
from fermicov.mspace import quotient_space
from fermicov.spectral import rate_terms

__all__ = [
    "modular_power",
    "tube_chain",
    "schatten_norm",
    "time_order",
    "determinant_representation",
    "MODULAR_CHECK",
    "modular_suite",
    "holder_slack",
]

OVERFLOW_LOG = 690.0  # log(1e300)
# modular_suite flows X on a principal block of at most this many occupation
# patterns; Delta^z acts entry by entry, so the block's flow is the flow's block
FLOW_BLOCK = 64
# the modular-verify CSV's columns; an object check, as a fixed width cuts long names
MODULAR_CHECK = np.dtype([("state", np.int64), ("check", object), ("value", float),
                          ("pass", bool)])


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


def time_order(a_units, N: int, n: int) -> tuple:
    """Time-order 2N covariance points at grid offsets a_q (alpha_q = a_q beta / n).

    Points q < N are creators and q >= N annihilators; an annihilator is
    shifted one grid step, t~_q = a_q + [q >= N], so that a creator goes first
    at a time tie.  Returns (t~, placement, split, gaps):

    - placement lists the point indices by t~, then a, then index;
    - split is the first position whose shifted time reaches beta/2 (2N if
      none does);
    - gaps[u] is the exponent z/beta of the point placed at u, its distance in
      units of beta from the next shifted time (or from beta/2) on the left of
      split and from the previous one (or from beta/2) on the right.  All gaps
      are >= 0, and each side sums to at most 1/2.
    """
    a = np.asarray(a_units)
    if a.shape != (2 * N,):
        raise ValueError(f"expected {2 * N} grid points, got {a.size}")
    if np.any((a < 0) | (a >= n)):
        raise ValueError(f"grid offsets {a.tolist()} outside [0, {n})")
    q = np.arange(2 * N)
    tilde = a + (q >= N)
    placement = np.lexsort((q, a, tilde))
    twice = 2 * tilde[placement]
    split = int(np.searchsorted(twice, n))
    gaps = np.diff(np.insert(twice, split, n)) / (2 * n)
    return tilde, placement, split, gaps


@functools.cache
def _rep_sign(placement: tuple, N: int) -> int:
    """The parity of placement in the slots of the canonical CAR tuple.

    Creator q sits in slot q and annihilator q in slot 3N - 1 - q.  There are
    (2N)! placements, so each parity is computed once.
    """
    return int(permutation_sign([q if q < N else 3 * N - 1 - q for q in placement]))


def determinant_representation(inst: BoundInstance, eta: float) -> complex:
    """Covariance determinant through the modular standard representation.

    Dresses each point's vector with the square-root cutoff and, at an odd
    shifted offset, the sign operator, orders the points with `time_order`
    and splits them where the shifted times cross beta/2.  The left half chain
    holds the adjoints of the points before the split, last placed first, and
    the right half chain the points from the split on; each point carries its
    own gap as exponent.  The result is the inner product of the two chains
    times the parity of the placement.  Away from the singular spectral value
    n/beta it matches the directly computed determinant at any finite eta;
    with an eigenvalue pinned there it converges to it as eta grows.

    It is evaluated in the occupation basis of the eigenmodes of the
    regularized one-particle energy h (x) 1_r.  There the quasi-free state is
    diagonal with closed-form log-weights, each half chain is a `FockChain`
    of shell rows, and Delta^w is a row scaling; the inner product is
    unitarily invariant, so no change of basis back to the site modes is
    needed.
    """
    torus = inst.torus
    beta = torus.beta
    N = inst.pair_count
    stack = inst.stack  # the spectrum, projections and chi weights, as a stack of one
    coords = quotient_space(inst.M)  # m x rank
    fock = FockSpace(inst.H.dim * coords.shape[1])  # raises if the cap is exceeded

    _, rates, signs = rate_terms(stack.values[0], torus, eta)  # signs do not depend on eta
    cap = OVERFLOW_LOG / beta
    if np.max(np.abs(rates)) > cap:
        warnings.warn(
            f"clamping regularized one-particle energies to |rate| <= {cap:.3g} "
            "to keep Boltzmann weights representable",
            RuntimeWarning,
            stacklevel=2,
        )
        rates = np.clip(rates, -cap, cap)
    logp = quasifree_log_weights(np.repeat(rates, coords.shape[1]), beta)

    index, _, color = zip(*inst.points)
    tilde, placement, split, gaps = time_order(np.array(index) - torus.zero_index, N, torus.n)
    dressed = np.sqrt(stack.weights[0]) * stack.coefficients[0]
    dressed[tilde % 2 == 1] *= signs  # involution: only the parity acts
    psis = [np.outer(row, coords[j]).ravel() for row, j in zip(dressed, color)]

    # (z, (psi, is_creator)); the adjoint of a left point swaps creator and annihilator
    left = [(beta * gaps[u], (psis[placement[u]], placement[u] >= N))
            for u in range(split - 1, -1, -1)]
    right = [(beta * gaps[u], (psis[placement[u]], placement[u] < N))
             for u in range(split, 2 * N)]
    target = min(len(left), len(right))  # the masks both half chains reach
    return _rep_sign(tuple(placement), N) * tube_chain(fock, logp, beta, left, target).vdot(
        tube_chain(fock, logp, beta, right, target))


def modular_suite(states: int, chains: int, pairs: int, modes: int, seed: int) -> np.ndarray:
    """One MODULAR_CHECK record per seeded check: for each random quasi-free state
    of 2..modes modes, Delta^z eta = eta to 1e-12 (fixed_point) and Delta^(it)
    keeping the HS norm to 1e-10 (isometry), on a block of FLOW_BLOCK patterns at
    most, then the slack of each Hoelder tube chain (holder_chain_<c>); then the
    slack of each Schatten Hoelder pair (holder_schatten, state -1).  A slack
    passes at >= -1e-10."""
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(states):
        D = int(rng.integers(2, modes + 1))
        A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        beta = float(rng.uniform(0.5, 2.0))
        V, logp, _ = quasifree_modes(A, beta)
        fock = FockSpace(D)
        block = (np.arange(fock.dim) if fock.dim <= FLOW_BLOCK
                 else np.sort(rng.choice(fock.dim, FLOW_BLOCK, replace=False)))
        eta = np.diag(np.exp(logp[block] / 2))
        fixed = modular_power(logp[block], rng.uniform(-1, 1), eta)
        fixed_err = float(np.max(np.abs(fixed - eta)))
        X = rng.normal(size=(block.size,) * 2) + 1j * rng.normal(size=(block.size,) * 2)
        flowed = modular_power(logp[block], 1j * rng.uniform(-3, 3), X)
        iso_err = abs(float(np.linalg.norm(flowed)) - float(np.linalg.norm(X)))
        rows.append((s, "fixed_point", fixed_err, fixed_err <= 1e-12))
        rows.append((s, "isometry", iso_err, iso_err <= 1e-10))
        for c in range(chains):
            Nc = int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, size=Nc)
            re = raw / raw.sum() * rng.uniform(0, 0.5) * beta
            zs = re + 1j * rng.normal(size=Nc)
            chain, prod = [], 1.0
            for z in zs:
                psi = rng.normal(size=D) + 1j * rng.normal(size=D)
                chain.append((z, (V.conj().T @ psi, rng.uniform() < 0.5)))
                prod *= np.linalg.norm(psi)
            slack = prod - tube_chain(fock, logp, beta, chain).norm()
            rows.append((s, f"holder_chain_{c}", slack, slack >= -1e-10))
    for _ in range(pairs):
        dim = int(rng.integers(2, 9))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r = float(rng.uniform(1, 4))
        u = float(rng.uniform(0.05, 0.95))
        s1, s2 = r / u, r / (1.0 - u)
        slack = schatten_norm(A, s1) * schatten_norm(B, s2) - schatten_norm(A @ B, r)
        rows.append((-1, "holder_schatten", slack, slack >= -1e-10))
    return np.array(rows, dtype=MODULAR_CHECK)


def holder_slack(checks: np.ndarray) -> float:
    """The least value of the Hoelder (holder_*) checks, 0.0 without one; fmin skips a nan."""
    holder = np.char.startswith(checks["check"].astype(str), "holder_")
    least = float(np.fmin.reduce(checks["value"][holder], initial=np.inf))
    return least if np.isfinite(least) else 0.0
