"""Discrete imaginary-time torus and its antiperiodic delta.

The time grid is T_n = {-beta + k*beta/n : k = 1..2n}, a discrete torus of
length 2*beta with the identification -beta == beta.  Functions on it carry
the fermionic boundary condition f(alpha + beta) = -f(alpha) and are plain
arrays of all 2n values (kernel tables, the delta).

All grid arithmetic is done on the integer label k (mod 2n), never on
floating-point alpha values, so antiperiodicity and grid identities hold
exactly.  Storage index i = k - 1 runs 0..2n-1; alpha = 0 sits at i = n - 1
and alpha = beta at i = 2n - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["N_CAP", "DiscreteTorus", "delta_ap"]

N_CAP = 2**62 - 2  # the largest n: 2n and every sum of two grid indices fit in int64


@dataclass(frozen=True)
class DiscreteTorus:
    """Inverse temperature beta and even half-order n of the time grid.

    A stack of tori, one per entry of two arrays beta and n, comes from
    `_stack`; every property and method below then broadcasts against the
    arrays it meets.
    """

    beta: float
    n: int

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (2 <= self.n <= N_CAP and self.n % 2 == 0):
            raise ValueError(f"n must be an even integer in [2, {N_CAP}], got {self.n}")
        if not math.isfinite(self.n / self.beta):
            raise ValueError(f"n/beta must be finite, got n={self.n} and beta={self.beta}")

    @classmethod
    def _stack(cls, beta: np.ndarray, n: np.ndarray) -> "DiscreteTorus":
        """The tori (beta[i], n[i]), unchecked: each pair must make a valid torus."""
        torus = object.__new__(cls)
        vars(torus).update(beta=beta, n=n)
        return torus

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
    def indices(self) -> np.ndarray:
        """The storage indices 0..2n-1, as two halves: np.arange(2n) is empty near N_CAP."""
        return np.add.outer((0, self.n), np.arange(self.n)).ravel()

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

