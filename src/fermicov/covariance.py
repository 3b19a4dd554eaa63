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

import functools
from dataclasses import dataclass, field

import numpy as np

from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    eig_hermitian,
    rate_terms,
)
from fermicov.mspace import psd_eigh
from fermicov.torus import DiscreteTorus, delta_ap

__all__ = [
    "KernelEval",
    "BoundInstance",
    "InstanceStack",
    "kernel_g",
    "kernel_values_at",
    "covariance_matrix",
    "covariance_det",
    "instance_bound",
]


def kernel_values_at(
    lams: np.ndarray,
    torus: DiscreteTorus,
    alpha_index: int | np.ndarray,
    eta: float | None = None,
) -> np.ndarray:
    """Evaluate g_lam(alpha) for eigenvalues lams (..., d) at grid indices (...).

    The indices gain a last axis, against the eigenvalues, and broadcast against
    lams; one rate_terms call serves them all.  A stack of tori broadcasts like
    the indices, with a last axis of length 1: lams (B, 1, 1, d), indices
    (B, N, N) and tori (B, 1, 1, 1) give one value per matrix entry and lam.
    With eta absent, values inside the singular band around n/beta use the
    closed infinite-regularization limit (a -1/+1 spike at alpha = beta/n and
    beta/n - beta); with eta given, the finite-regularization formula is used
    everywhere.  Off the band the result is eta-independent.
    """
    n, beta = torus.n, torus.beta
    index = np.asarray(alpha_index)[..., None]  # against the eigenvalue axis
    # alpha in (0, beta]: antiperiodic extension g(a) = -g(a - beta)
    flip = np.where(torus.wrap(index) >= n, -1.0, 1.0)
    # n - i, with i in [0, n) the index of alpha shifted into (-beta, 0]
    steps = n - index % n

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
    values = kernel_values_at(np.array([lam]), torus, torus.indices, eta)[:, 0]
    return KernelEval(lam, torus, values)


def _entries(g: np.ndarray, weights: np.ndarray, c1: np.ndarray, c2: np.ndarray):
    """sum_j g_j chi_j conj(c2_j) c1_j over the last (eigenvalue) axis."""
    return np.sum(g * weights * np.conj(c2) * c1, axis=-1)


@dataclass(frozen=True)
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
        M = psd_eigh(self.M)[0]
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
            if not 0 <= int(j) < M.shape[0]:
                raise ValueError("color index out of range")
            norm_points.append((i, phi, int(j)))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "points", norm_points)

    @property
    def pair_count(self) -> int:
        return len(self.points) // 2

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @functools.cached_property
    def stack(self) -> "InstanceStack":
        """The instance as a stack of one, built on first use; its spectrum,
        projections and chi weights are read-only, as callers share them."""
        return InstanceStack.of([self])


class InstanceStack:
    """Bound instances of one shape (d, N), stacked along a leading axis.

    Made from arrays: the checked H (B, d, d), the fiber vectors phi (B, 2N, d),
    the points' storage and color indices (B, 2N), beta and n (B,), the cutoffs'
    kind codes (B,) and parameters (B, 2) (CutoffSpec.stacked), and the checked
    M, zero-padded to (B, m, m); `of` gathers them from instances.  It owns, read-only,
    one eigendecomposition of H, the projections U* phi_q and chi on the
    spectrum.  The bound suite checks each (d, N) group as one stack and an
    instance is its cached stack of one, so every determinant and bound has the
    same code and bits.  Members may differ in n, beta, m, chi and M.
    """

    def __init__(self, H: HermitianMatrix, phi: np.ndarray, index: np.ndarray,
                 color: np.ndarray, beta: np.ndarray, n: np.ndarray, kind: np.ndarray,
                 params: np.ndarray, M: np.ndarray):
        spectral = eig_hermitian(H)
        adjoint = np.conj(spectral.vectors).swapaxes(-1, -2)
        self.values = spectral.values  # (B, d)
        # (B, 2N, d): one matrix-vector product per row, the bits of each member alone
        self.coefficients = (adjoint[:, None] @ phi[..., None])[..., 0]
        self.rows = np.arange(len(M))[:, None]  # (B, 1): each instance's place
        self.beta, self.n, self.index, self.color = beta, n, index, color
        self.weights = CutoffSpec.stacked(kind, params, self.values)
        self.M = M
        for array in vars(self).values():  # the caller's arrays among them
            array.flags.writeable = False

    @classmethod
    def of(cls, insts: list) -> "InstanceStack":
        """The stack of instances of one shape (d, N), gathered from their fields."""
        index, phi, color = map(np.array, zip(*(zip(*inst.points) for inst in insts)))
        kind, params = zip(*(inst.chi.row() for inst in insts))
        m = max(inst.m for inst in insts)
        M = np.zeros((len(insts), m, m))
        for slot, inst in zip(M, insts):
            slot[:inst.m, :inst.m] = inst.M
        return cls(HermitianMatrix._trusted(np.stack([inst.H.matrix for inst in insts])),
                   phi, index, color, np.array([inst.torus.beta for inst in insts]),
                   np.array([inst.torus.n for inst in insts]), np.array(kind),
                   np.array(params), M)

    def _torus(self, rows) -> DiscreteTorus:
        return DiscreteTorus._stack(self.beta[rows], self.n[rows])

    def matrices(self, eta: float | None = None) -> np.ndarray:
        """The (B, N, N) stack of covariance matrices (see covariance_matrix), in one pass."""
        N = self.index.shape[1] // 2
        rows = self.rows[..., None]  # (B, 1, 1)
        diff = self._torus(rows).index_diff(self.index[:, :N, None], self.index[:, None, N:])
        table = kernel_values_at(self.values[rows], self._torus(rows[..., None]), diff, eta)
        c = self.coefficients
        entries = _entries(table, self.weights[rows], c[:, :N, None], c[:, None, N:])
        return self.M[rows, self.color[:, :N, None], self.color[:, None, N:]] * entries

    def bounds(self) -> np.ndarray:
        """The (B,) claimed bounds (see instance_bound)."""
        norms = np.sqrt(np.sum(self.weights[:, None] * np.abs(self.coefficients) ** 2, axis=-1))
        diag = self.M[self.rows, self.color, self.color]
        return np.prod(norms * np.sqrt(np.maximum(diag, 0.0)), axis=-1)

    def singular_hits(self) -> int:
        """The number of eigenvalues in the singular band around n/beta."""
        return int(np.sum(rate_terms(self.values, self._torus(self.rows))[0]))


def covariance_matrix(inst: BoundInstance, eta: float | None = None) -> np.ndarray:
    """The N x N matrix M[j_k, j_{N+l}] <phi_{N+l}, (C chi phi_k^)(alpha_k - alpha_{N+l})>.

    The inner product conjugates its first slot; an entry is
    sum_j g_{lam_j}(alpha) chi(lam_j) <phi_{N+l}, v_j> <v_j, phi_k>.
    """
    return inst.stack.matrices(eta)[0]


def covariance_det(inst: BoundInstance, eta: float | None = None) -> complex:
    """The determinant of covariance_matrix, the quantity the bound is checked on."""
    return complex(np.linalg.det(covariance_matrix(inst, eta)))


def instance_bound(inst: BoundInstance) -> float:
    """The claimed bound prod_q ||sqrt(chi(H)) phi_q|| * M[j_q, j_q]^(1/2)."""
    return float(inst.stack.bounds()[0])
