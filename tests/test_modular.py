import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from fermicov.car_fock import FockChain, FockSpace, quasifree_log_weights, quasifree_modes
from fermicov.covariance import BoundInstance, covariance_det
from fermicov.modular import (
    determinant_representation,
    modular_power,
    schatten_norm,
    tube_chain,
)
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus

from oracles import (
    annihilator,
    correlation_vector,
    creator,
    dense_chain,
    dense_representation,
    expm_density,
    quasifree_density,
    second_quantize,
)


def random_state(rng, modes, beta=1.0, scale=1.0):
    """(h, V, logp, symbol) of a random thermal state; see quasifree_modes."""
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = scale * (A + A.conj().T) / 2
    return (h,) + quasifree_modes(h, beta)


def field(fock, psi, creator=False):
    """a(psi) or a+(psi) as a matrix in the eigenmode occupation basis."""
    return dense_chain(FockChain.diagonal(fock, np.ones(fock.dim)).field(psi, creator=creator))


def random_instance(rng, d=2, m=2, N=2, n=4, beta=1.0, avoid_singular=True):
    torus = DiscreteTorus(beta=beta, n=n)
    while True:
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (A + A.conj().T) / 2 * rng.uniform(0.3, 2.0)
        if not avoid_singular or np.min(np.abs(np.linalg.eigvalsh(H) - torus.rate)) > 0.1:
            break
    B = rng.normal(size=(m, m))
    points = [
        (torus.zero_index + int(rng.integers(0, n)),
         rng.normal(size=d) + 1j * rng.normal(size=d),
         int(rng.integers(0, m)))
        for _ in range(2 * N)
    ]
    return BoundInstance(
        H=HermitianMatrix(H), torus=torus, chi=CutoffSpec.gaussian(0.0, 3.0),
        M=B @ B.T, points=points,
    )


def test_eta_is_fixed_point(rng):
    _, _, logp, _ = random_state(rng, 3)
    eta = np.diag(np.exp(logp / 2))
    assert abs(np.linalg.norm(eta) - 1.0) <= 1e-12
    for z in (0.7, -1.3, 0.2 + 0.9j):
        moved = modular_power(logp, z, eta)
        assert np.max(np.abs(moved - eta)) <= 1e-12


def test_imaginary_power_is_isometry(rng):
    _, _, logp, _ = random_state(rng, 3, beta=1.7)
    for _ in range(5):
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        t = float(rng.uniform(-5, 5))
        moved = modular_power(logp, 1j * t, X)
        assert abs(np.linalg.norm(moved) - np.linalg.norm(X)) <= 1e-11 * np.linalg.norm(X)


def _scipy_modular_check(rng, modes, beta):
    """Fixed point and isometry errors of Delta^z X = rho^z X rho^-z, all through scipy.

    rho comes from expm_density on the dense site-mode dGamma(h), eta is
    sqrtm(rho), and rho^z X rho^-z = expm(z L) X expm(-z L) with
    L = -beta dGamma(h) (the normalization cancels), so none of the package's
    log-weights or eigenmodes enter.  The fixed point is checked in the
    equivalent balanced form Delta^(z/2) eta = Delta^(-z/2) eta: the dense
    product rho^z eta rho^-z rounds with the condition number of rho^z, and
    its error reached 1.8e-10 on such states; the balanced form rounds with
    the square root of that condition number.
    """
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = (A + A.conj().T) / 2
    dg = second_quantize(h)
    rho = expm_density(h, beta, dg)

    def delta(z, X):
        return scipy.linalg.expm(-z * beta * dg) @ X @ scipy.linalg.expm(z * beta * dg)

    eta = scipy.linalg.sqrtm(rho)
    z = float(rng.uniform(-1, 1))
    fixed_err = np.max(np.abs(delta(z / 2, eta) - delta(-z / 2, eta)))
    X = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
    flowed = delta(1j * float(rng.uniform(-4, 4)), X)
    iso_err = abs(np.linalg.norm(flowed) - np.linalg.norm(X)) / np.linalg.norm(X)
    # the package's diagonal eta has the spectrum of this one
    _, logp, _ = quasifree_modes(h, beta)
    spectrum_err = np.max(np.abs(np.sort(np.exp(logp / 2)) - np.linalg.eigvalsh(eta)))
    return fixed_err, iso_err, spectrum_err


def test_fixed_point_and_isometry_through_scipy(rng):
    # the independent version of modular-verify's fixed_point and isometry checks,
    # on states drawn as in criterion 05 and at its tolerance
    for _ in range(50):
        fixed_err, iso_err, spectrum_err = _scipy_modular_check(
            rng, int(rng.integers(2, 5)), float(rng.uniform(0.5, 2.0)))
        assert fixed_err <= 1e-11
        assert iso_err <= 1e-11
        assert spectrum_err <= 1e-12


def test_modular_flow_is_bogoliubov_rotation(rng):
    # Delta^(-it/beta) a(psi) Delta^(it/beta) equals a(exp(it h) psi)
    h, V, logp, _ = random_state(rng, 3, beta=1.3)
    fock = FockSpace(3)
    w = np.linalg.eigvalsh(h)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    for t in (0.4, -2.2):
        lhs = modular_power(logp, -1j * t / 1.3, field(fock, V.conj().T @ psi))
        rotated = (V * np.exp(1j * t * w)) @ V.conj().T @ psi
        rhs = field(fock, V.conj().T @ rotated)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_modular_power_overflow_guard(rng):
    logp = quasifree_log_weights(np.array([-50.0, 50.0]), 1.0)
    X = np.ones((4, 4), dtype=complex)
    with pytest.raises(OverflowError):
        modular_power(logp, 8.0, X)
    # zero entries at the dangerous ratios are fine
    Xsafe = np.diag(np.ones(4)).astype(complex)
    assert np.isfinite(modular_power(logp, 8.0, Xsafe)).all()


def test_correlation_vector_basics(rng):
    _, V, logp, symbol = random_state(rng, 3)
    fock = FockSpace(3)
    assert abs(tube_chain(fock, logp, 1.0, []).norm() - 1.0) <= 1e-12
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec = tube_chain(fock, logp, 1.0, [(0.0, (V.conj().T @ psi, False))])
    expected = np.vdot(psi, symbol @ psi).real
    assert_allclose(vec.norm() ** 2, expected, rtol=1e-11)


def test_correlation_vector_tube_validation(rng):
    _, _, logp, _ = random_state(rng, 2)
    fock = FockSpace(2)
    op = (np.array([1.0, 0.0]), False)
    with pytest.raises(ValueError):
        tube_chain(fock, logp, 1.0, [(-0.1, op)])
    with pytest.raises(ValueError):
        tube_chain(fock, logp, 1.0, [(0.4, op), (0.2, op)])
    with pytest.raises(ValueError):
        tube_chain(fock, logp, 1.0, [(-0.1 + 2j, op)])
    tube_chain(fock, logp, 1.0, [(0.3 + 5j, op), (0.2 - 1j, op)])  # on the edge: accepted


def test_correlation_vector_holder_bound(rng):
    for _ in range(5):
        beta = float(rng.uniform(0.5, 2.0))
        _, V, logp, _ = random_state(rng, 3, beta=beta, scale=float(rng.uniform(0.5, 4.0)))
        fock = FockSpace(3)
        for _ in range(30):
            Nc = int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, size=Nc)
            re = raw / raw.sum() * rng.uniform(0, 0.5) * beta
            product = 1.0
            chain = []
            for q in range(Nc):
                psi = rng.normal(size=3) + 1j * rng.normal(size=3)
                op = (V.conj().T @ psi, rng.uniform() < 0.5)
                chain.append((re[q] + 1j * rng.normal(), op))
                product *= np.linalg.norm(psi)
            assert tube_chain(fock, logp, beta, chain).norm() <= product + 1e-10


def test_correlation_vector_matches_dense_oracle(rng):
    # complex-z tube chains: eigenmode row maps against dense Bogoliubov-rotated chains.
    # HS norms and inner products are invariant under the Fock unitary between the
    # site and eigenmode bases, so both routes must give the same numbers.
    for _ in range(200):
        modes = int(rng.integers(1, 7))
        beta = float(rng.uniform(0.5, 2.0))
        h, V, logp, _ = random_state(rng, modes, beta=beta, scale=float(rng.uniform(0.5, 3.0)))
        state = quasifree_density(h, beta)
        vectors, oracles, products = [], [], []
        for _ in range(2):
            Nc = int(rng.integers(0, 5))
            raw = rng.uniform(0, 1, size=Nc)
            zs = raw / max(raw.sum(), 1.0) * rng.uniform(0, 0.5) * beta + 1j * rng.normal(size=Nc)
            chain, dense, product = [], [], 1.0
            for z in zs:
                psi = rng.normal(size=modes) + 1j * rng.normal(size=modes)
                is_creator = bool(rng.uniform() < 0.5)
                chain.append((z, (V.conj().T @ psi, is_creator)))
                dense.append((z, creator(psi) if is_creator else annihilator(psi)))
                product *= np.linalg.norm(psi)
            vectors.append(tube_chain(FockSpace(modes), logp, beta, chain))
            oracles.append(correlation_vector(state, dense))
            products.append(product)
        for vec, oracle_vec, product in zip(vectors, oracles, products):
            norm, oracle = vec.norm(), np.linalg.norm(oracle_vec)
            if norm == 0.0:  # more fields of one kind than modes: zero by particle number
                assert oracle <= 1e-14 * product
            else:
                assert abs(norm - oracle) <= 1e-12 * oracle
        inner, oracle = vectors[0].vdot(vectors[1]), np.vdot(*oracles)
        assert abs(inner - oracle) <= 1e-12 * max(np.prod([np.linalg.norm(v) for v in oracles]),
                                                 1e-14 * np.prod(products))


def test_correlation_vector_continuous_in_tube(rng):
    _, V, logp, _ = random_state(rng, 2)
    fock = FockSpace(2)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    op = (V.conj().T @ psi, True)
    z0 = 0.2
    v0 = tube_chain(fock, logp, 1.0, [(z0, op)])
    v1 = tube_chain(fock, logp, 1.0, [(z0 + 1e-6, op)])
    assert abs(v0.norm() - v1.norm()) <= 1e-4
    v2 = tube_chain(fock, logp, 1.0, [(z0 + 1e-6j, op)])
    assert np.max(np.abs(v0.rows - v2.rows)) <= 1e-4


def test_schatten_norm_values(rng):
    _, _, logp, _ = random_state(rng, 2)
    assert_allclose(schatten_norm(np.diag(np.exp(logp)), 1.0), 1.0, rtol=1e-12)
    assert_allclose(schatten_norm(np.diag([3.0, 4.0]), 2.0), 5.0, rtol=1e-14)
    X = rng.normal(size=(5, 5))
    assert_allclose(schatten_norm(X, np.inf), np.linalg.norm(X, 2), rtol=1e-12)
    assert_allclose(schatten_norm(X, 2.0), np.linalg.norm(X), rtol=1e-12)
    with pytest.raises(ValueError):
        schatten_norm(X, 0.5)


def test_schatten_holder_inequality(rng):
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r = float(rng.uniform(1.0, 4.0))
        u = float(rng.uniform(0.05, 0.95))
        s1, s2 = r / u, r / (1.0 - u)  # 1/s1 + 1/s2 = 1/r with s1, s2 >= r >= 1
        assert schatten_norm(A @ B, r) <= schatten_norm(A, s1) * schatten_norm(B, s2) + 1e-10


def test_hs_inner_conventions(rng):
    # <A, B> = Tr(A* B) is np.vdot: <a(p1) eta, a(p2) eta> = rho(a+(p1) a(p2)) = <p2, S p1>
    _, V, logp, symbol = random_state(rng, 2)
    fock = FockSpace(2)
    p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    p2 = rng.normal(size=2) + 1j * rng.normal(size=2)

    def vec(psi):
        return tube_chain(fock, logp, 1.0, [(0.0, (V.conj().T @ psi, False))])

    A, B = vec(p1), vec(p2)
    assert_allclose(A.vdot(B), np.trace(dense_chain(A).conj().T @ dense_chain(B)), rtol=1e-13)
    assert_allclose(A.vdot(B), np.vdot(p2, symbol @ p1), rtol=1e-12)
    # a(psi) is antilinear, so <a(c p1) eta, B> = c <a(p1) eta, B>
    assert_allclose(vec((2.0 + 1j) * p1).vdot(B), (2.0 + 1j) * A.vdot(B), rtol=1e-13)


def test_representation_two_point_free():
    torus = DiscreteTorus(beta=1.0, n=4)
    inst = BoundInstance(
        H=HermitianMatrix(np.zeros((1, 1))), torus=torus, chi=CutoffSpec.one(),
        M=np.array([[1.0]]),
        points=[(torus.zero_index, [1.0], 0), (torus.zero_index, [1.0], 0)],
    )
    assert_allclose(determinant_representation(inst, eta=3.0), 0.5, rtol=1e-12)


def test_representation_matches_covariance_det(rng):
    for trial in range(6):
        inst = random_instance(rng, d=2, m=2, N=2, n=4)
        direct = covariance_det(inst)
        rep = determinant_representation(inst, eta=4.0)
        assert abs(rep - direct) <= 1e-10 * max(abs(direct), 1e-9)


def test_representation_matches_dense_oracle(rng):
    # the eigenmode row maps against dense creator/annihilator chains, D <= 6
    for d, m, N in ((1, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 2)):
        inst = random_instance(rng, d=d, m=m, N=N, n=int(rng.choice([2, 4, 6])),
                               beta=float(rng.uniform(0.5, 2.0)))
        while abs(covariance_det(inst)) < 1e-6:
            inst = random_instance(rng, d=d, m=m, N=N, n=inst.torus.n, beta=inst.torus.beta)
        oracle = dense_representation(inst, eta=3.0)
        rep = determinant_representation(inst, eta=3.0)
        assert abs(rep - oracle) <= 1e-12 * abs(oracle), (d, m, N)


def test_representation_at_ten_modes(rng):
    inst = random_instance(rng, d=5, m=2, N=2, n=4)
    while abs(covariance_det(inst)) < 1e-6:
        inst = random_instance(rng, d=5, m=2, N=2, n=4)
    direct = covariance_det(inst)
    assert abs(determinant_representation(inst, eta=3.0) - direct) <= 1e-8 * abs(direct)


@pytest.mark.parametrize("d, m", [(6, 2), (4, 3)])
def test_representation_at_twelve_modes(rng, d, m):
    inst = random_instance(rng, d=d, m=m, N=2, n=4)
    while abs(covariance_det(inst)) < 1e-6 or np.linalg.matrix_rank(inst.M) != m:
        inst = random_instance(rng, d=d, m=m, N=2, n=4)
    direct = covariance_det(inst)
    assert abs(determinant_representation(inst, eta=3.0) - direct) <= 1e-8 * abs(direct)


def _representation_peak(inst) -> int:
    """Peak traced bytes of one determinant_representation call."""
    tracemalloc.start()
    try:
        determinant_representation(inst, eta=3.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_representation_memory_at_ten_modes(rng):
    # one dense 2^10 x 2^10 complex array takes 16 MiB; no chain may need one
    inst = random_instance(rng, d=5, m=2, N=2, n=4)
    assert _representation_peak(inst) < 16 * 2**20


def test_representation_memory_at_twelve_modes(rng):
    # the half chains keep only the rows that both reach, so at D = 12 they stay within
    # the D = 10 bound; one dense 2^12 x 2^12 complex array would take 256 MiB
    inst = random_instance(rng, d=6, m=2, N=2, n=4)
    while np.linalg.matrix_rank(inst.M) != 2:
        inst = random_instance(rng, d=6, m=2, N=2, n=4)
    assert _representation_peak(inst) < 16 * 2**20


def test_representation_sign_involution(rng):
    # an eigenvalue above n/beta has sgn(1 - beta lam / n) = -1, which the dressing of
    # each point at an odd shifted offset carries.  covariance_det sees that dressing
    # dropped; it reads the same sign from rate_terms, so only the dense oracle, which
    # computes the sign itself, sees a sign lost there
    torus = DiscreteTorus(beta=1.0, n=4)
    V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    H = HermitianMatrix((V * np.array([1.5 * torus.rate, -0.8])) @ V.conj().T)
    # creators at offsets 1 and 0, annihilators at 2 and 3: shifted offsets 1, 0, 3, 4
    points = [(torus.zero_index + a, rng.normal(size=2) + 1j * rng.normal(size=2), 0)
              for a in (1, 0, 2, 3)]
    inst = BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(),
                         M=np.array([[1.0]]), points=points)
    direct = covariance_det(inst)
    rep = determinant_representation(inst, eta=3.0)
    assert abs(rep - direct) <= 1e-8 * abs(direct)
    oracle = dense_representation(inst, eta=3.0)
    assert abs(rep - oracle) <= 1e-12 * abs(oracle)


def test_representation_energy_clamp(rng):
    # an eigenvalue pinned on n/beta gets the rate eta, here past OVERFLOW_LOG / beta
    torus = DiscreteTorus(beta=1.0, n=4)
    V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    H = HermitianMatrix((V * np.array([torus.rate, -0.8])) @ V.conj().T)
    points = [(torus.zero_index + q, rng.normal(size=2) + 1j * rng.normal(size=2), 0)
              for q in (0, 1, 2, 3)]
    inst = BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(),
                         M=np.array([[1.0]]), points=points)
    with pytest.warns(RuntimeWarning, match="clamping"):
        rep = determinant_representation(inst, eta=1000.0)
    assert np.isfinite(rep)
    oracle = dense_representation(inst, eta=1000.0)
    assert abs(rep - oracle) <= 1e-12 * abs(oracle)


def test_representation_eta_sweep_at_singular_value(rng):
    torus = DiscreteTorus(beta=1.0, n=4)
    V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    H = HermitianMatrix((V * np.array([torus.rate, -0.8])) @ V.conj().T)
    points = [
        (torus.zero_index + int(rng.integers(0, 4)),
         rng.normal(size=2) + 1j * rng.normal(size=2), 0)
        for _ in range(4)
    ]
    inst = BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(),
                         M=np.array([[1.0]]), points=points)
    target = covariance_det(inst)
    errors = [abs(determinant_representation(inst, eta=eta) - target)
              for eta in (2.0, 4.0, 8.0, 16.0)]
    assert errors[0] > 1e-10
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_representation_respects_mode_cap(rng):
    inst = random_instance(rng, d=8, m=2, N=1)  # D = d * rank M = 16 modes
    assert np.linalg.matrix_rank(inst.M) == 2
    with pytest.raises(ValueError, match="mode count 16"):
        determinant_representation(inst, eta=2.0)


def test_representation_rejects_bad_eta(rng):
    inst = random_instance(rng, d=1, m=1, N=1)
    with pytest.raises(ValueError):
        determinant_representation(inst, eta=-1.0)
