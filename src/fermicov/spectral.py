"""Hermitian eigendecomposition and the scalar functions evaluated on it.

One-particle Hamiltonians are finite Hermitian matrices; unbounded operators
are emulated by letting eigenvalues take arbitrary magnitudes, which is what
the universality sweeps exercise.  Everything downstream (cutoffs, signs,
imaginary-time exponentials, the Bernoulli-Euler rate) is evaluated on the
eigenvalues of one deterministic eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fermicov.torus import DiscreteTorus

__all__ = [
    "HermitianMatrix",
    "SpectralData",
    "CutoffSpec",
    "eig_hermitian",
    "rate_terms",
    "singular_rate_band",
]

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HermitianMatrix:
    """A dense Hermitian matrix, symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():  # before m - m*, where inf - inf warns
            raise ValueError("matrix has non-finite entries")
        defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian: max |A - A*| = {defect:g}")
        object.__setattr__(self, "matrix", (m + m.conj().T) / 2)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition H = U diag(values) U*, ascending and phase-fixed."""

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def eig_hermitian(H: HermitianMatrix | np.ndarray) -> SpectralData:
    """Eigendecompose a Hermitian matrix deterministically.

    Eigenvalues come out ascending; each eigenvector's largest-magnitude
    component is rotated to be real positive so repeated runs (and different
    LAPACK builds) agree on the phase convention.
    """
    if not isinstance(H, HermitianMatrix):
        H = HermitianMatrix(np.asarray(H))
    values, vectors = np.linalg.eigh(H.matrix)
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    sizes = np.hypot(pivots.real, pivots.imag)  # abs() of each pivot, bit for bit
    vectors *= np.divide(np.conj(pivots), sizes, out=np.ones_like(pivots), where=sizes != 0)
    return SpectralData(values, vectors)


def singular_rate_band(torus: DiscreteTorus) -> float:
    """Absolute half-width of the band around n/beta treated as the singular value."""
    return 1e-12 * torus.rate


def rate_terms(lams, torus: DiscreteTorus, eta: float = 1.0) -> tuple:
    """The spectral decisions at the singular value n/beta, for an array of lam.

    Returns (singular, log_rate, sign): the band test
    |lam - n/beta| <= singular_rate_band, the Bernoulli-Euler log-rate
    -(n/beta) ln|1 - (beta/n) lam| (eta on the band), and sgn(1 - (beta/n) lam)
    with sgn(0) = +1.  Off the band the log-rate is eta-independent and
    satisfies exp(-+beta*rate) = (1 - (beta/n) lam)^(+-n) for even n.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    lams = np.asarray(lams, dtype=float)
    rate = torus.rate
    ratio = 1.0 - lams / rate
    singular = np.abs(lams - rate) <= singular_rate_band(torus)
    log_rate = np.where(
        singular, float(eta), -rate * np.log(np.maximum(np.abs(ratio), 1e-300))
    )
    return singular, log_rate, np.where(ratio >= 0.0, 1.0, -1.0)


class CutoffSpec:
    """A named nonnegative bounded scalar cutoff function on the spectrum.

    Supported kinds: the constant-one function, the indicator of an interval
    and a Gaussian window, each with finite parameters.
    """

    def __init__(self, kind: str, **params):
        if kind not in ("one", "indicator", "gaussian"):
            raise ValueError(f"unknown cutoff kind {kind!r}")
        for name, value in params.items():
            if not math.isfinite(value):
                raise ValueError(f"{kind} cutoff needs a finite {name}, got {value}")
        self.kind = kind
        self.params = params
        if kind == "indicator":
            a, b = params["a"], params["b"]
            if a > b:
                raise ValueError(f"empty indicator interval [{a}, {b}]")
        elif kind == "gaussian":
            if params["width"] <= 0:
                raise ValueError("gaussian width must be positive")

    @classmethod
    def one(cls) -> "CutoffSpec":
        return cls("one")

    @classmethod
    def indicator(cls, a: float, b: float) -> "CutoffSpec":
        return cls("indicator", a=a, b=b)

    @classmethod
    def gaussian(cls, center: float, width: float) -> "CutoffSpec":
        return cls("gaussian", center=center, width=width)

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.kind == "one":
            return np.ones_like(lam)
        if self.kind == "indicator":
            a, b = self.params["a"], self.params["b"]
            return np.where((lam >= a) & (lam <= b), 1.0, 0.0)
        c, w = self.params["center"], self.params["width"]
        return np.exp(-(((lam - c) / w) ** 2))

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"CutoffSpec({self.kind}{', ' if inner else ''}{inner})"
