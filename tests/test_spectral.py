import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    apply_scalar_function,
    bernoulli_euler_rate,
    eig_hermitian,
    matrix_function,
    rate_terms,
    sign_power,
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


def test_apply_identity_and_exp(rng):
    S = eig_hermitian(np.diag([0.5, -1.5, 2.0]))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert_allclose(apply_scalar_function(lambda lam: np.ones_like(lam), S, x), x, rtol=1e-14)
    assert_allclose(
        apply_scalar_function(np.exp, S, x), np.exp(np.diag([0.5, -1.5, 2.0])).diagonal() * x,
        rtol=1e-13,
    )


def test_apply_matches_dense_reassembly(rng):
    S = eig_hermitian(random_hermitian(rng, 4, 2.0))
    chi = CutoffSpec.gaussian(0.3, 1.1)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    dense = matrix_function(chi, S)
    assert_allclose(apply_scalar_function(chi, S, x), dense @ x, rtol=1e-12, atol=1e-13)


def test_apply_linear_and_multiplicative(rng):
    S = eig_hermitian(random_hermitian(rng, 3))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = np.cos
    lhs = apply_scalar_function(f, S, 2.0 * x + 1j * y)
    rhs = 2.0 * apply_scalar_function(f, S, x) + 1j * apply_scalar_function(f, S, y)
    assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-14)
    both = apply_scalar_function(np.sin, S, apply_scalar_function(np.cos, S, x))
    product = apply_scalar_function(lambda lam: np.sin(lam) * np.cos(lam), S, x)
    assert_allclose(both, product, rtol=1e-12, atol=1e-13)


def test_sign_power_conventions(rng):
    torus = DiscreteTorus(beta=1.0, n=4)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    below = eig_hermitian(np.diag([-7.0, 3.9]))  # both eigenvalues < n/beta
    for k in (-3, -1, 0, 1, 2, 5):
        assert_allclose(sign_power(below, torus, k, x), x, rtol=1e-14)
    above = eig_hermitian(np.diag([2.0 * torus.rate, 0.0]))
    flipped = sign_power(above, torus, 1, x)
    assert_allclose(flipped, np.array([-x[0], x[1]]), rtol=1e-14)
    at_singular = eig_hermitian(np.diag([torus.rate]))
    assert sign_values(at_singular, torus)[0] == 1.0  # sgn(0) = +1


def test_sign_is_involution(rng):
    torus = DiscreteTorus(beta=2.0, n=8)
    S = eig_hermitian(random_hermitian(rng, 4, 10.0))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    twice = sign_power(S, torus, 1, sign_power(S, torus, 1, x))
    assert_allclose(twice, x, rtol=1e-13, atol=1e-14)
    assert_allclose(sign_power(S, torus, 3, x), sign_power(S, torus, -1, x), rtol=1e-14)


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
