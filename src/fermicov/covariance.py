"""Covariance kernels and determinants on the discrete torus.

The covariance C = -2 (del + H^)^{-1} acts fiberwise through the spectrum of
H: on the eigenvalue lam it convolves with an explicit antiperiodic kernel
g_lam, the discrete counterpart of exp(-alpha*lam)/(1 + exp(beta*lam)).  The
kernel solves (del + lam) g = -2 delta_ap; on the single singular value
lam = n/beta it degenerates, for infinite regularization, to a two-point
spike of height 1.

Kernel magnitudes are evaluated in a log-stable form so that eigenvalues
thousands of times larger than n/beta neither overflow nor lose the bound
|g| <= 1 that the determinant estimates rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    SpectralData,
    eig_hermitian,
    rate_terms,
)
from fermicov.torus import DiscreteTorus, delta_ap, derivative_matrix

__all__ = [
    "KernelEval",
    "BoundInstance",
    "kernel_g",
    "kernel_g_continuum",
    "kernel_values_at",
    "covariance_entry",
    "covariance_det",
    "instance_bound",
    "GramNormRow",
    "gram_norm_demo",
    "fit_growth_exponent",
    "decay_parameter",
    "covariance_matrix_reduced",
]


def kernel_values_at(
    lams: np.ndarray,
    torus: DiscreteTorus,
    alpha_index: int | np.ndarray,
    eta: float | None = None,
) -> np.ndarray:
    """Evaluate g_lam(alpha) for an array of lam at one grid index or an array of them.

    A single index gives one value per lam; an array of indices gives one row
    of values per index, from one rate_terms call.  With eta absent, values
    inside the singular band around n/beta use the closed
    infinite-regularization limit (a -1/+1 spike at alpha = beta/n and
    beta/n - beta); with eta given, the finite-regularization formula is used
    everywhere.  Off the band the result is eta-independent.
    """
    n, beta = torus.n, torus.beta
    index = np.asarray(alpha_index)
    # alpha in (0, beta]: antiperiodic extension g(a) = -g(a - beta)
    flip = np.where(torus.wrap(index) >= n, -1.0, 1.0)[..., None]
    # n - i, with i in [0, n) the index of alpha shifted into (-beta, 0]
    steps = (n - index % n)[..., None]

    singular, log_rates, signs = rate_terms(lams, torus, 1.0 if eta is None else eta)
    t = beta * log_rates / n  # per-step log magnitude
    nt = n * t
    # exponent (n - i) t - max(nt, 0) is <= 0 on both branches
    mag = np.exp(steps * t - np.maximum(nt, 0.0)) / (1.0 + np.exp(-np.abs(nt)))
    sign_factor = np.where(steps % 2 == 1, signs, 1.0)
    values = flip * sign_factor * mag

    if eta is None and singular.any():
        spike = np.where(steps == n, 1.0, 0.0)  # alpha = beta/n - beta carries +1
        values = np.where(singular, flip * spike, values)
    return values


@dataclass
class KernelEval:
    """The kernel g_lam tabulated on all 2n grid points."""

    lam: float
    torus: DiscreteTorus
    values: np.ndarray = field(repr=False)

    def residual(self) -> float:
        """max_alpha |del g + lam g + 2 delta_ap| for the defining equation."""
        g = self.values
        dg = self.torus.rate * (np.roll(g, -1) - g)
        r = dg + self.lam * g + 2.0 * delta_ap(self.torus)
        return float(np.max(np.abs(r)))


def kernel_g(lam: float, torus: DiscreteTorus, eta: float | None = None) -> KernelEval:
    """Tabulate the covariance kernel g_lam on the whole grid."""
    half = kernel_values_at(np.array([lam]), torus, np.arange(torus.n), eta)[:, 0]
    values = np.concatenate([half, -half])
    return KernelEval(lam, torus, values)


def kernel_g_continuum(lam: float, beta: float, alpha: float) -> float:
    """Continuum kernel exp(-alpha lam) / (1 + exp(beta lam)) for alpha in (-beta, 0]."""
    if not (-beta < alpha <= 0):
        raise ValueError(f"alpha must lie in (-beta, 0], got {alpha}")
    # shift the larger exponential into the denominator so nothing overflows
    if beta * lam > 0:
        return float(np.exp(-(alpha + beta) * lam) / (1.0 + np.exp(-beta * lam)))
    return float(np.exp(-alpha * lam) / (1.0 + np.exp(beta * lam)))


def _coefficients(S: SpectralData, phis) -> np.ndarray:
    """Eigenbasis coefficients U* phi, one row per vector."""
    Uh = S.vectors.conj().T
    return np.array([Uh @ np.asarray(phi, dtype=complex).reshape(-1) for phi in phis])


def _entries(g: np.ndarray, weights: np.ndarray, c1: np.ndarray, c2: np.ndarray):
    """sum_j g_j chi_j conj(c2_j) c1_j over the last (eigenvalue) axis."""
    return np.sum(g * weights * np.conj(c2) * c1, axis=-1)


def covariance_entry(
    S: SpectralData,
    chi: CutoffSpec,
    phi1: np.ndarray,
    phi2: np.ndarray,
    alpha_index: int,
    torus: DiscreteTorus,
    eta: float | None = None,
) -> complex:
    """<phi2, (C chi(H^) phi1^)(alpha)> through the spectral representation.

    Equals sum_j g_{lam_j}(alpha) chi(lam_j) <phi2, v_j> <v_j, phi1> with the
    first slot of every inner product conjugated.
    """
    if np.size(phi1) != S.dim or np.size(phi2) != S.dim:
        raise ValueError("vector dimensions do not match the Hamiltonian")
    c1, c2 = _coefficients(S, (phi1, phi2))
    g = kernel_values_at(S.values, torus, alpha_index, eta)
    return complex(_entries(g, chi(S.values), c1, c2))


@dataclass
class BoundInstance:
    """One determinant-bound test case.

    points holds 2N triples (alpha_index, phi, j): a grid index with
    alpha in [0, beta), a fiber vector, and a 0-based color index into M.
    """

    H: HermitianMatrix
    torus: DiscreteTorus
    chi: CutoffSpec
    M: np.ndarray
    points: list

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError("M must be a square matrix")
        if not np.allclose(self.M, self.M.T, atol=1e-10 * max(1.0, np.abs(self.M).max())):
            raise ValueError("M must be symmetric")
        if np.abs(self.M).max() == 0:
            raise ValueError("M must be nonzero")
        scale = np.abs(self.M).max()
        if np.linalg.eigvalsh(self.M).min() < -1e-10 * scale:
            raise ValueError("M must be positive semidefinite")
        if len(self.points) % 2 != 0 or not self.points:
            raise ValueError("points must hold 2N triples with N >= 1")
        norm_points = []
        lo, hi = self.torus.zero_index, self.torus.size - 2
        for alpha_index, phi, j in self.points:
            i = self.torus.wrap(int(alpha_index))
            if not lo <= i <= hi:
                raise ValueError("alpha points must lie on the grid within [0, beta)")
            phi = np.asarray(phi, dtype=complex).reshape(-1)
            if phi.shape[0] != self.H.dim:
                raise ValueError("fiber vector dimension does not match H")
            if not 0 <= int(j) < self.M.shape[0]:
                raise ValueError("color index out of range")
            norm_points.append((i, phi, int(j)))
        self.points = norm_points

    @classmethod
    def _trusted(cls, H, torus, chi, M, points) -> "BoundInstance":
        """An instance built from fields that are valid and normalized by
        construction, without re-running __post_init__'s checks."""
        inst = object.__new__(cls)
        inst.H, inst.torus, inst.chi, inst.points = H, torus, chi, points
        inst.M = np.asarray(M, dtype=float)
        return inst

    @property
    def pair_count(self) -> int:
        return len(self.points) // 2

    @property
    def m(self) -> int:
        return self.M.shape[0]


def covariance_det(
    inst: BoundInstance,
    eta: float | None = None,
    spectral: SpectralData | None = None,
) -> complex:
    """det over k,l of M[j_k, j_{N+l}] <phi_{N+l}, (C chi phi_k^)(alpha_k - alpha_{N+l})>.

    Each of the 2N vectors is projected once and the kernel is tabulated once
    over the distinct time differences, so the matrix is built in one pass.
    """
    S = spectral if spectral is not None else eig_hermitian(inst.H)
    N = inst.pair_count
    index, phis, color = zip(*inst.points)
    index, color = np.array(index), np.array(color)
    c = _coefficients(S, phis)
    diff = inst.torus.index_diff(index[:N, None], index[None, N:])
    taus = np.flatnonzero(np.bincount(diff.ravel()))  # the distinct differences
    g = kernel_values_at(S.values, inst.torus, taus, eta)[np.searchsorted(taus, diff)]
    entries = _entries(g, inst.chi(S.values), c[:N, None], c[None, N:])
    return complex(np.linalg.det(inst.M[color[:N, None], color[None, N:]] * entries))


def instance_bound(inst: BoundInstance, spectral: SpectralData | None = None) -> float:
    """The claimed bound prod_q ||sqrt(chi(H)) phi_q|| * M[j_q, j_q]^(1/2)."""
    S = spectral if spectral is not None else eig_hermitian(inst.H)
    _, phis, color = zip(*inst.points)
    c = _coefficients(S, phis)
    norms = np.sqrt(np.sum(inst.chi(S.values) * np.abs(c) ** 2, axis=-1))
    diag = np.diag(inst.M)[list(color)]
    return float(np.prod(norms * np.sqrt(np.maximum(diag, 0.0))))


@dataclass
class GramNormRow:
    """One torus row of the naive-Gram degeneration table."""

    n: int
    beta: float
    cov_norm: float
    embed_norm: float
    gram_factor: float


def covariance_matrix_reduced(H: np.ndarray, torus: DiscreteTorus) -> np.ndarray:
    """Dense -2 (del + H^)^{-1} on the reduced antiperiodic representation."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    A = np.kron(derivative_matrix(torus).astype(complex), np.eye(d)) + np.kron(
        np.eye(torus.n), H
    )
    return -2.0 * np.linalg.inv(A)


def gram_norm_demo(H: HermitianMatrix, torus_list: list) -> tuple[list, bool]:
    """Tabulate ||C_H|| and the embedding norm ||e1^|| over a list of tori.

    Returns (rows, zero_mode_present).  The embedding norm sqrt(n/(2 beta))
    grows like sqrt(n); gram_factor = ||C_H||^(1/2) * ||e1^|| is the
    per-determinant-factor weight the naive Gram estimate would charge.  The
    zero-mode precondition (0 in spec(H) within 1e-9) is reported but the
    computation runs either way.
    """
    S = eig_hermitian(H)
    zero_mode = bool(np.any(np.abs(S.values) <= 1e-9))
    rows = []
    for torus in torus_list:
        C = covariance_matrix_reduced(H.matrix, torus)
        cov_norm = float(np.linalg.norm(C, 2))
        embed_norm = float(np.sqrt(torus.rate / 2.0))
        rows.append(
            GramNormRow(
                n=torus.n,
                beta=torus.beta,
                cov_norm=cov_norm,
                embed_norm=embed_norm,
                gram_factor=float(np.sqrt(cov_norm) * embed_norm),
            )
        )
    return rows, zero_mode


def fit_growth_exponent(ns, vals) -> float:
    """Least-squares slope of log(vals) against log(ns)."""
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(vals, float)), 1)[0])


def decay_parameter(
    S: SpectralData,
    chi: CutoffSpec,
    basis: list,
    torus: DiscreteTorus,
    eta: float | None = None,
) -> float:
    """Finite-n snapshot of the covariance summability parameter.

    max over basis index i of (beta/n) sum_tau sum_q |<phi_q, (C chi phi_i^)(tau)>|
    with both i and q running over the supplied orthonormal family.  No limit
    over n is attempted; callers report the n used.
    """
    B = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in basis]).T
    gram = B.conj().T @ B
    if np.max(np.abs(gram - np.eye(B.shape[1]))) > 1e-10:
        raise ValueError("basis is not orthonormal to 1e-10")
    C = S.vectors.conj().T @ B  # column i = eigenbasis coefficients of phi_i
    weights = chi(S.values)
    G = kernel_values_at(S.values, torus, np.arange(torus.size), eta)  # shape (2n, d)
    best = 0.0
    for i in range(B.shape[1]):
        # entries[tau, q] = sum_j g_j(tau) chi_j conj(C[j,q]) C[j,i]
        entries = (G * weights) @ (np.conj(C) * C[:, i][:, None])
        best = max(best, float(torus.step * np.sum(np.abs(entries))))
    return best
