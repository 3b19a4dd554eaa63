import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    bernoulli_euler_rate,
    eig_hermitian,
    rate_terms,
    sign_values,
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


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hermitian_rejects_non_finite_entries(bad):
    for m in ([[1.0, 0.0], [0.0, bad]], [[1.0, bad], [bad, 1.0]], [[1.0, bad], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix(np.array(m))
    with pytest.raises(ValueError, match="non-finite"):
        eig_hermitian(np.diag([1.0, bad]))


def test_eig_diagonal():
    S = eig_hermitian(np.diag([1.0, 2.0]))
    assert_allclose(S.values, [1.0, 2.0])
    assert_allclose(S.vectors, np.eye(2))


def test_eig_pauli_x():
    S = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(S.values, [-1.0, 1.0])


def test_eig_reconstruction(rng):
    H = random_hermitian(rng, 5, 3.0)
    S = eig_hermitian(H)
    sym = (H + H.conj().T) / 2
    assert np.max(np.abs(S.reconstruct() - sym)) <= 1e-10 * np.max(np.abs(sym))
    assert np.max(np.abs(S.vectors.conj().T @ S.vectors - np.eye(5))) <= 1e-12


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
    assert bernoulli_euler_rate(0.0, torus, eta=5.0) == 0.0
    assert bernoulli_euler_rate(torus.rate, torus, eta=7.0) == 7.0
    with pytest.raises(ValueError):
        bernoulli_euler_rate(1.0, torus, eta=0.0)


def test_rate_convergence_to_identity():
    torus = DiscreteTorus(beta=1.0, n=64)
    val = bernoulli_euler_rate(1.0, torus, eta=1.0)
    assert_allclose(val, -64.0 * np.log(1.0 - 1.0 / 64.0), rtol=1e-15)
    assert abs(val - 1.0) <= 2.0 / 64.0  # O(1/n) defect


def test_rate_array_matches_scalar():
    torus = DiscreteTorus(beta=0.7, n=8)
    lams = np.array([-30.0, 0.0, 0.3, torus.rate, 2.0 * torus.rate, 1e3 * torus.rate])
    rates = bernoulli_euler_rate(lams, torus, eta=2.5)
    assert rates.tolist() == [bernoulli_euler_rate(lam, torus, eta=2.5) for lam in lams]
    singular, _, sign = rate_terms(lams, torus, eta=2.5)
    assert singular.tolist() == [False, False, False, True, False, False]
    assert sign.tolist() == [1.0, 1.0, 1.0, 1.0, -1.0, -1.0]


@pytest.mark.parametrize("n", [2, 8, 64])
def test_rate_exponential_identity(n):
    # exp(-+beta*rate(lam)) == (1 - beta lam / n)^(+-n) for even n
    torus = DiscreteTorus(beta=0.7, n=n)
    for lam in (-30.0, -1.0, 0.3, 2.0 * torus.rate, 5.0 * torus.rate):
        rate = bernoulli_euler_rate(lam, torus, eta=1.0)
        target = (1.0 - lam / torus.rate) ** n
        assert_allclose(np.exp(-torus.beta * rate), target, rtol=1e-10)


def test_sign_values_conventions():
    torus = DiscreteTorus(beta=1.0, n=4)
    below = eig_hermitian(np.diag([-7.0, 3.9]))  # both eigenvalues < n/beta
    assert sign_values(below, torus).tolist() == [1.0, 1.0]
    above = eig_hermitian(np.diag([2.0 * torus.rate, 0.0]))  # ascending: 0, 2 n/beta
    assert sign_values(above, torus).tolist() == [1.0, -1.0]
    at_singular = eig_hermitian(np.diag([torus.rate]))
    assert sign_values(at_singular, torus)[0] == 1.0  # sgn(0) = +1


def test_sign_is_involution(rng):
    # sgn(1 - (beta/n) H) squares to the identity: every eigenvalue is +-1
    torus = DiscreteTorus(beta=2.0, n=8)
    S = eig_hermitian(random_hermitian(rng, 4, 10.0))
    assert set(sign_values(S, torus).tolist()) <= {-1.0, 1.0}


def test_cutoff_kinds():
    lam = np.array([-2.0, 0.0, 0.5, 3.0])
    assert_allclose(CutoffSpec.one()(lam), np.ones(4))
    ind = CutoffSpec.indicator(-1.0, 1.0)
    assert_allclose(ind(lam), [0.0, 1.0, 1.0, 0.0])
    gauss = CutoffSpec.gaussian(0.0, 1.0)
    assert_allclose(gauss(lam), np.exp(-(lam**2)))
    table = CutoffSpec.table([0.0, 1.0, 2.0], [5.0, 1.0, 0.25])
    assert_allclose(table(np.array([-3.0, 0.4, 0.6, 1.9, 10.0])), [5.0, 5.0, 1.0, 0.25, 0.25])
    with pytest.raises(ValueError):
        CutoffSpec.indicator(2.0, 1.0)
    with pytest.raises(ValueError):
        CutoffSpec.gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        CutoffSpec.table([0.0], [-1.0])
    with pytest.raises(ValueError):
        CutoffSpec("nope")
