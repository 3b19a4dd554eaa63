import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    eig_hermitian,
    rate_terms,
)
from fermicov.torus import DiscreteTorus


def random_hermitian(rng, d, scale=1.0):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2


def test_hermitian_validation():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = HermitianMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert H.dim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hermitian_rejects_non_finite_entries(bad):
    for m in ([[1.0, 0.0], [0.0, bad]], [[1.0, bad], [bad, 1.0]], [[1.0, bad], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix(np.array(m))
    with pytest.raises(ValueError, match="non-finite"):
        eig_hermitian(np.diag([1.0, bad]))


def test_hermitian_non_finite_fails_without_warning():
    # finiteness is tested before m - m*, where inf - inf would warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix(np.diag([1.0, np.inf]))


def test_eig_diagonal():
    S = eig_hermitian(np.diag([1.0, 2.0]))
    assert_allclose(S.values, [1.0, 2.0])
    assert_allclose(S.vectors, np.eye(2))


def test_eig_pauli_x():
    S = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(S.values, [-1.0, 1.0])


def test_eig_reconstruction(rng):
    # U diag(values) U* = H to 1e-10 of max |H|, with eigenvalues up to 10^3 n/beta
    cases = [random_hermitian(rng, 5, 3.0)]
    for trial in range(200):
        d = int(rng.integers(1, 9))
        torus = DiscreteTorus(beta=float(rng.choice([0.5, 1.0, 2.0])), n=int(rng.choice([2, 4, 8])))
        Q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        values = rng.uniform(-1e3, 1e3, size=d) * torus.rate
        if trial % 2:
            values[0] = torus.rate  # one eigenvalue pinned on n/beta
        cases.append((Q * values) @ Q.conj().T)
    for H in cases:
        S = eig_hermitian(H)
        sym = HermitianMatrix(H).matrix
        rebuilt = (S.vectors * S.values) @ S.vectors.conj().T
        assert np.max(np.abs(rebuilt - sym)) <= 1e-10 * np.max(np.abs(sym))
        assert np.max(np.abs(S.vectors.conj().T @ S.vectors - np.eye(S.dim))) <= 1e-12


def test_eig_deterministic_phase(rng):
    H = random_hermitian(rng, 4)
    S1 = eig_hermitian(H)
    S2 = eig_hermitian(H.copy())
    assert np.array_equal(S1.vectors, S2.vectors)
    # the pivot component of every column is real positive
    for j in range(4):
        k = int(np.argmax(np.abs(S1.vectors[:, j])))
        pivot = S1.vectors[k, j]
        assert abs(pivot.imag) <= 1e-15 and pivot.real > 0


def test_rate_at_zero_and_singular():
    torus = DiscreteTorus(beta=1.0, n=8)
    assert rate_terms(0.0, torus, eta=5.0)[1] == 0.0
    assert rate_terms(torus.rate, torus, eta=7.0)[1] == 7.0
    with pytest.raises(ValueError):
        rate_terms(1.0, torus, eta=0.0)


def test_rate_convergence_to_identity():
    torus = DiscreteTorus(beta=1.0, n=64)
    val = rate_terms(1.0, torus, eta=1.0)[1]
    assert_allclose(val, -64.0 * np.log(1.0 - 1.0 / 64.0), rtol=1e-15)
    assert abs(val - 1.0) <= 2.0 / 64.0  # O(1/n) defect


def test_rate_array_matches_scalar():
    torus = DiscreteTorus(beta=0.7, n=8)
    lams = np.array([-30.0, 0.0, 0.3, torus.rate, 2.0 * torus.rate, 1e3 * torus.rate])
    singular, rates, sign = rate_terms(lams, torus, eta=2.5)
    assert rates.tolist() == [float(rate_terms(lam, torus, eta=2.5)[1]) for lam in lams]
    assert singular.tolist() == [False, False, False, True, False, False]
    assert sign.tolist() == [1.0, 1.0, 1.0, 1.0, -1.0, -1.0]


@pytest.mark.parametrize("n", [2, 8, 64])
def test_rate_exponential_identity(n):
    # exp(-+beta*rate(lam)) == (1 - beta lam / n)^(+-n) for even n
    torus = DiscreteTorus(beta=0.7, n=n)
    for lam in (-30.0, -1.0, 0.3, 2.0 * torus.rate, 5.0 * torus.rate):
        rate = rate_terms(lam, torus, eta=1.0)[1]
        target = (1.0 - lam / torus.rate) ** n
        assert_allclose(np.exp(-torus.beta * rate), target, rtol=1e-10)


def test_sign_values_conventions():
    torus = DiscreteTorus(beta=1.0, n=4)
    below = eig_hermitian(np.diag([-7.0, 3.9]))  # both eigenvalues < n/beta
    assert rate_terms(below.values, torus)[2].tolist() == [1.0, 1.0]
    above = eig_hermitian(np.diag([2.0 * torus.rate, 0.0]))  # ascending: 0, 2 n/beta
    assert rate_terms(above.values, torus)[2].tolist() == [1.0, -1.0]
    at_singular = eig_hermitian(np.diag([torus.rate]))
    assert rate_terms(at_singular.values, torus)[2][0] == 1.0  # sgn(0) = +1


def test_sign_is_involution(rng):
    # sgn(1 - (beta/n) H) squares to the identity: every eigenvalue is +-1
    torus = DiscreteTorus(beta=2.0, n=8)
    S = eig_hermitian(random_hermitian(rng, 4, 10.0))
    assert set(rate_terms(S.values, torus)[2].tolist()) <= {-1.0, 1.0}


def test_cutoff_kinds():
    lam = np.array([-2.0, 0.0, 0.5, 3.0])
    assert_allclose(CutoffSpec.one()(lam), np.ones(4))
    ind = CutoffSpec.indicator(-1.0, 1.0)
    assert_allclose(ind(lam), [0.0, 1.0, 1.0, 0.0])
    gauss = CutoffSpec.gaussian(0.0, 1.0)
    assert_allclose(gauss(lam), np.exp(-(lam**2)))
    with pytest.raises(ValueError):
        CutoffSpec.indicator(2.0, 1.0)
    with pytest.raises(ValueError):
        CutoffSpec.gaussian(0.0, -1.0)
    for kind in ("nope", "table"):
        with pytest.raises(ValueError, match="unknown cutoff kind"):
            CutoffSpec(kind)
    # non-finite parameters would give NaN weights or a silently all-zero indicator
    for a, b in ((np.nan, 1.0), (-1.0, np.inf), (-np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            CutoffSpec.indicator(a, b)
    for center, width in ((0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            CutoffSpec.gaussian(center, width)
