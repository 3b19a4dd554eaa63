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
    """A dense Hermitian matrix, or a stack (..., d, d) of them, symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():  # before m - m*, where inf - inf warns
            raise ValueError("matrix has non-finite entries")
        adjoint = m.conj().swapaxes(-1, -2)
        if m.size:  # each matrix against its own scale
            defect = np.abs(m - adjoint).max(axis=(-2, -1))
            scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
            if (defect > HERMITICITY_TOL * scale).any():
                raise ValueError(f"matrix is not Hermitian: max |A - A*| = {defect.max():g}")
        # halves first, exactly, so entries near the float maximum do not overflow
        object.__setattr__(self, "matrix", m / 2 + adjoint / 2)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "HermitianMatrix":
        """A complex matrix that is Hermitian and symmetrized by construction, unchecked."""
        H = object.__new__(cls)
        object.__setattr__(H, "matrix", matrix)
        return H

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition H = U diag(values) U*, ascending and phase-fixed.

    A stack of matrices gives values (..., d) and vectors (..., d, d)."""

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)


def eig_hermitian(H: HermitianMatrix | np.ndarray) -> SpectralData:
    """Eigendecompose a Hermitian matrix, or a stack (..., d, d) of them, deterministically.

    Eigenvalues come out ascending; each eigenvector's largest-magnitude
    component is rotated to be real positive so repeated runs (and different
    LAPACK builds) agree on the phase convention.  A stack takes one
    np.linalg.eigh call, and each matrix gets the bits it gets alone.
    """
    if not isinstance(H, HermitianMatrix):
        H = HermitianMatrix(np.asarray(H))
    values, vectors = np.linalg.eigh(H.matrix)
    pivot_rows = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    pivots = np.take_along_axis(vectors, pivot_rows, axis=-2)  # one per column
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
    satisfies exp(-+beta*rate) = (1 - (beta/n) lam)^(+-n) for even n.  A stack
    of tori broadcasts against lams, one torus per row.  Raises ValueError
    unless 0 < eta < inf and every lam is finite.
    """
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError("eigenvalues must be finite")
    rate = torus.rate
    ratio = 1.0 - lams / rate
    with np.errstate(over="ignore"):  # an infinite |lam - n/beta| is off the band
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

    PARAMS = {"one": (), "indicator": ("a", "b"), "gaussian": ("center", "width")}
    KINDS = tuple(PARAMS)  # in a stack, a kind's code is its index

    def __init__(self, kind: str, **params):
        if kind not in self.PARAMS:
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

    @classmethod
    def of_row(cls, code: int, params) -> "CutoffSpec":
        """The cutoff of one row of a stack, checked as any other."""
        kind = cls.KINDS[int(code)]
        return cls(kind, **dict(zip(cls.PARAMS[kind], np.asarray(params).tolist())))

    def row(self) -> tuple:
        """(kind code, [first, second parameter]), 0.0 for a parameter the kind lacks."""
        values = [self.params[name] for name in self.PARAMS[self.kind]]
        return self.KINDS.index(self.kind), values + [0.0] * (2 - len(values))

    def __call__(self, lam) -> np.ndarray:
        return _cutoff_values(self.kind, np.asarray(lam, dtype=float), self.row()[1])

    @staticmethod
    def stacked(kind: np.ndarray, params: np.ndarray, lams) -> np.ndarray:
        """The checked cutoff of kind code kind[i] and parameters params[i] (as row()
        gives them) on lams[i], for each row i, with one evaluation per kind; each
        parameter enters as a column, so every row gets the bits of its own call."""
        lams = np.asarray(lams, dtype=float)
        out = np.empty_like(lams)
        for code in set(kind.tolist()):
            rows = kind == code
            columns = params[rows].T[..., None]
            out[rows] = _cutoff_values(CutoffSpec.KINDS[code], lams[rows], columns)
        return out

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"CutoffSpec({self.kind}{', ' if inner else ''}{inner})"


def _cutoff_values(kind: str, lam: np.ndarray, params) -> np.ndarray:
    """The cutoff of a kind on lam; its two parameters broadcast against lam."""
    if kind == "one":
        return np.ones_like(lam)
    if kind == "indicator":
        return np.where((lam >= params[0]) & (lam <= params[1]), 1.0, 0.0)
    return np.exp(-(((lam - params[0]) / params[1]) ** 2))
