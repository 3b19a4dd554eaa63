"""Hermitian eigendecomposition and the scalar functions evaluated on it.

One-particle Hamiltonians are finite Hermitian matrices; unbounded operators
are emulated by letting eigenvalues take arbitrary magnitudes, which is what
the universality sweeps exercise.  Everything downstream (cutoffs, signs,
imaginary-time exponentials, the Bernoulli-Euler rate) is evaluated on the
eigenvalues of one deterministic eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fermicov.torus import DiscreteTorus

__all__ = [
    "HermitianMatrix",
    "SpectralData",
    "CutoffSpec",
    "eig_hermitian",
    "bernoulli_euler_rate",
    "rate_terms",
    "singular_rate_band",
    "sign_values",
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
        defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if not np.isfinite(defect):  # a nan or inf entry makes the defect nan or inf
            raise ValueError("matrix has non-finite entries")
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

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eig_hermitian(H: HermitianMatrix | np.ndarray) -> SpectralData:
    """Eigendecompose a Hermitian matrix deterministically.

    Eigenvalues come out ascending; each eigenvector's largest-magnitude
    component is rotated to be real positive so repeated runs (and different
    LAPACK builds) agree on the phase convention.
    """
    if not isinstance(H, HermitianMatrix):
        H = HermitianMatrix(np.asarray(H))
    values, vectors = np.linalg.eigh(H.matrix)
    vectors = np.array(vectors, dtype=complex)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0:
            vectors[:, j] = col * (np.conj(pivot) / abs(pivot))
    data = SpectralData(values, vectors)
    scale = max(1.0, float(np.max(np.abs(H.matrix))))
    err = np.max(np.abs(data.reconstruct() - H.matrix))
    if err > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to reconstruct input: error {err:g}"
        )
    return data


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


def bernoulli_euler_rate(lam, torus: DiscreteTorus, eta: float):
    """Discrete log-rate whose exponential is the Bernoulli-Euler power.

    -(n/beta) ln|1 - (beta/n) lam| off the singular band and eta on it (see
    rate_terms); a scalar lam gives a float, an array of lam an array.
    """
    rates = rate_terms(lam, torus, eta)[1]
    return rates if rates.ndim else float(rates)


def sign_values(S: SpectralData, torus: DiscreteTorus) -> np.ndarray:
    """Eigenvalues of the unitary involution sgn(1 - (beta/n) H), with sgn(0) = +1."""
    return rate_terms(S.values, torus)[2]


class CutoffSpec:
    """A named nonnegative bounded scalar cutoff function on the spectrum.

    Supported kinds: the constant-one function, the indicator of an interval,
    a Gaussian window, and a user table with nearest-point lookup.
    """

    def __init__(self, kind: str, **params):
        if kind not in ("one", "indicator", "gaussian", "table"):
            raise ValueError(f"unknown cutoff kind {kind!r}")
        self.kind = kind
        self.params = params
        if kind == "indicator":
            a, b = params["a"], params["b"]
            if a > b:
                raise ValueError(f"empty indicator interval [{a}, {b}]")
        elif kind == "gaussian":
            if params["width"] <= 0:
                raise ValueError("gaussian width must be positive")
        elif kind == "table":
            pts = np.asarray(params["points"], dtype=float)
            vals = np.asarray(params["values"], dtype=float)
            if pts.shape != vals.shape or pts.ndim != 1 or pts.size == 0:
                raise ValueError("table needs matching 1-d points and values")
            if np.any(vals < 0):
                raise ValueError("cutoff table values must be nonnegative")
            order = np.argsort(pts)
            self.params = {"points": pts[order], "values": vals[order]}

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
    def table(cls, points, values) -> "CutoffSpec":
        return cls("table", points=points, values=values)

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.kind == "one":
            out = np.ones_like(lam)
        elif self.kind == "indicator":
            a, b = self.params["a"], self.params["b"]
            out = np.where((lam >= a) & (lam <= b), 1.0, 0.0)
        elif self.kind == "gaussian":
            c, w = self.params["center"], self.params["width"]
            out = np.exp(-(((lam - c) / w) ** 2))
        else:
            pts, vals = self.params["points"], self.params["values"]
            idx = np.clip(np.searchsorted(pts, lam), 0, pts.size - 1)
            left = np.clip(idx - 1, 0, pts.size - 1)
            nearer_left = np.abs(lam - pts[left]) <= np.abs(pts[idx] - lam)
            out = vals[np.where(nearer_left, left, idx)]
        return out

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"CutoffSpec({self.kind}{', ' if inner else ''}{inner})"
