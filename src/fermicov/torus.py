"""Discrete imaginary-time torus, its antiperiodic delta and derivative.

The time grid is T_n = {-beta + k*beta/n : k = 1..2n}, a discrete torus of
length 2*beta with the identification -beta == beta.  Functions on it carry
the fermionic boundary condition f(alpha + beta) = -f(alpha) and are plain
arrays: all 2n values (kernel tables, the delta), or the n values on
(-beta, 0] that the reduced derivative matrix acts on.

All grid arithmetic is done on the integer label k (mod 2n), never on
floating-point alpha values, so antiperiodicity and grid identities hold
exactly.  Storage index i = k - 1 runs 0..2n-1; alpha = 0 sits at i = n - 1
and alpha = beta at i = 2n - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiscreteTorus", "delta_ap", "derivative_matrix"]


@dataclass(frozen=True)
class DiscreteTorus:
    """Inverse temperature beta and even half-order n of the time grid."""

    beta: float
    n: int

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 2, got {self.n}")

    @property
    def size(self) -> int:
        """Number of grid points, 2n."""
        return 2 * self.n

    @property
    def step(self) -> float:
        """Grid spacing beta/n."""
        return self.beta / self.n

    @property
    def rate(self) -> float:
        """The frequently needed scale n/beta."""
        return self.n / self.beta

    def alpha(self, i: int) -> float:
        """Grid value at storage index i (wrapped mod 2n)."""
        return -self.beta + ((i % self.size) + 1) * self.beta / self.n

    def wrap(self, i: int) -> int:
        return i % self.size

    def index_diff(self, i1: int, i2: int) -> int:
        """Storage index of alpha(i1) - alpha(i2) on the torus (mod 2*beta)."""
        # alpha_i1 - alpha_i2 = (i1-i2)*step = alpha at index i1-i2+n-1
        return (i1 - i2 + self.n - 1) % self.size

    @property
    def zero_index(self) -> int:
        return self.n - 1

    @property
    def beta_index(self) -> int:
        return self.size - 1


def delta_ap(torus: DiscreteTorus) -> np.ndarray:
    """Discrete antiperiodic delta on all 2n grid points, as a real array.

    +n/(2 beta) at alpha = 0, -n/(2 beta) at alpha = beta, zero elsewhere.
    """
    values = np.zeros(torus.size)
    values[torus.zero_index] = torus.rate / 2
    values[torus.beta_index] = -torus.rate / 2
    return values


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
