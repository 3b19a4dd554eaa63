import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.car_fock import (
    FockOperator,
    annihilator,
    creator,
    quasifree_density,
)
from fermicov.covariance import BoundInstance, covariance_det
from fermicov.modular import (
    HSVector,
    ModularData,
    correlation_vector,
    determinant_representation,
    modular_power,
    schatten_norm,
)
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian
from fermicov.torus import DiscreteTorus

from oracles import dense_representation


def random_state(rng, modes, beta=1.0, scale=1.0):
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return quasifree_density(scale * (A + A.conj().T) / 2, beta=beta)


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
    state = random_state(rng, 3)
    mod = ModularData(state)
    eta = mod.eta()
    assert abs(eta.norm() - 1.0) <= 1e-12
    for z in (0.7, -1.3, 0.2 + 0.9j):
        moved = modular_power(mod, z, eta)
        assert np.max(np.abs(moved.matrix - eta.matrix)) <= 1e-12


def test_imaginary_power_is_isometry(rng):
    state = random_state(rng, 3, beta=1.7)
    mod = ModularData(state)
    for _ in range(5):
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        t = float(rng.uniform(-5, 5))
        moved = modular_power(mod, 1j * t, X)
        assert abs(moved.norm() - np.linalg.norm(X)) <= 1e-11 * np.linalg.norm(X)


def test_modular_flow_is_bogoliubov_rotation(rng):
    # Delta^(-it/beta) a(psi) Delta^(it/beta) equals a(exp(it h) psi)
    state = random_state(rng, 3, beta=1.3)
    mod = ModularData(state)
    w, V = np.linalg.eigh(state.one_particle)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    for t in (0.4, -2.2):
        lhs = modular_power(mod, -1j * t / state.beta, annihilator(state.fock, psi).matrix)
        rotated = (V * np.exp(1j * t * w)) @ V.conj().T @ psi
        rhs = annihilator(state.fock, rotated).matrix
        assert np.max(np.abs(lhs.matrix - rhs)) <= 1e-9


def test_modular_power_overflow_guard(rng):
    state = quasifree_density(np.diag([-50.0, 50.0]), beta=1.0)
    mod = ModularData(state)
    X = np.ones((4, 4), dtype=complex)
    with pytest.raises(OverflowError):
        modular_power(mod, 8.0, X)
    # zero entries at the dangerous ratios are fine
    Xsafe = np.diag(np.ones(4)).astype(complex)
    assert np.isfinite(modular_power(mod, 8.0, Xsafe).matrix).all()


def test_correlation_vector_basics(rng):
    state = random_state(rng, 3)
    mod = ModularData(state)
    assert abs(correlation_vector(mod, []).norm() - 1.0) <= 1e-12
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec = correlation_vector(mod, [(0.0, annihilator(state.fock, psi))])
    expected = np.vdot(psi, state.symbol @ psi).real
    assert_allclose(vec.norm() ** 2, expected, rtol=1e-11)


def test_correlation_vector_tube_validation(rng):
    state = random_state(rng, 2)
    mod = ModularData(state)
    op = annihilator(state.fock, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        correlation_vector(mod, [(-0.1, op)])
    with pytest.raises(ValueError):
        correlation_vector(mod, [(0.4 * state.beta, op), (0.2 * state.beta, op)])


def test_correlation_vector_holder_bound(rng):
    for _ in range(5):
        state = random_state(rng, 3, beta=float(rng.uniform(0.5, 2.0)),
                             scale=float(rng.uniform(0.5, 4.0)))
        mod = ModularData(state)
        for _ in range(30):
            Nc = int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, size=Nc)
            re = raw / raw.sum() * rng.uniform(0, 0.5) * state.beta
            product = 1.0
            chain = []
            for q in range(Nc):
                psi = rng.normal(size=3) + 1j * rng.normal(size=3)
                make = creator if rng.uniform() < 0.5 else annihilator
                chain.append((re[q] + 1j * rng.normal(), make(state.fock, psi)))
                product *= np.linalg.norm(psi)
            assert correlation_vector(mod, chain).norm() <= product + 1e-10


def test_correlation_vector_continuous_in_tube(rng):
    state = random_state(rng, 2)
    mod = ModularData(state)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    op = creator(state.fock, psi)
    z0 = 0.2 * state.beta
    v0 = correlation_vector(mod, [(z0, op)])
    v1 = correlation_vector(mod, [(z0 + 1e-6, op)])
    assert abs(v0.norm() - v1.norm()) <= 1e-4


def test_schatten_norm_values(rng):
    state = random_state(rng, 2)
    assert_allclose(schatten_norm(state.density, 1.0), 1.0, rtol=1e-12)
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
    state = random_state(rng, 2)
    A = HSVector(state.fock, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    B = HSVector(state.fock, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert_allclose(A.inner(B), np.trace(A.matrix.conj().T @ B.matrix), rtol=1e-13)
    scaled = HSVector(state.fock, (2.0 + 1j) * A.matrix)
    assert_allclose(scaled.inner(B), np.conj(2.0 + 1j) * A.inner(B), rtol=1e-13)


def test_representation_two_point_free():
    torus = DiscreteTorus(beta=1.0, n=4)
    inst = BoundInstance(
        H=HermitianMatrix(np.zeros((1, 1))), torus=torus, chi=CutoffSpec.one(),
        M=np.array([[1.0]]),
        points=[(torus.zero_index, [1.0], 0), (torus.zero_index, [1.0], 0)],
    )
    assert_allclose(determinant_representation(inst, eta=3.0), 0.5, rtol=1e-12)
    assert_allclose(determinant_representation(inst, eta=3.0, form="trace"), 0.5, rtol=1e-12)


def test_representation_matches_covariance_det(rng):
    for trial in range(6):
        inst = random_instance(rng, d=2, m=2, N=2, n=4)
        direct = covariance_det(inst)
        rep = determinant_representation(inst, eta=4.0)
        trace = determinant_representation(inst, eta=4.0, form="trace")
        scale = max(abs(direct), 1e-9)
        assert abs(rep - direct) <= 1e-10 * scale
        assert abs(rep - trace) <= 1e-10 * scale


def test_representation_matches_dense_oracle(rng):
    # the eigenmode row maps against dense creator/annihilator chains, D <= 6
    for d, m, N in ((1, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 2)):
        inst = random_instance(rng, d=d, m=m, N=N, n=int(rng.choice([2, 4, 6])),
                               beta=float(rng.uniform(0.5, 2.0)))
        while abs(covariance_det(inst)) < 1e-6:
            inst = random_instance(rng, d=d, m=m, N=N, n=inst.torus.n, beta=inst.torus.beta)
        for form in ("inner", "trace"):
            oracle = dense_representation(inst, eta=3.0, form=form)
            rep = determinant_representation(inst, eta=3.0, form=form)
            assert abs(rep - oracle) <= 1e-12 * abs(oracle), (d, m, N, form)


def test_representation_at_ten_modes(rng):
    inst = random_instance(rng, d=5, m=2, N=2, n=4)
    while abs(covariance_det(inst)) < 1e-6:
        inst = random_instance(rng, d=5, m=2, N=2, n=4)
    direct = covariance_det(inst)
    for form in ("inner", "trace"):
        assert abs(determinant_representation(inst, eta=3.0, form=form) - direct) \
            <= 1e-8 * abs(direct)


def test_representation_energy_clamp(rng):
    # an eigenvalue pinned on n/beta gets the rate eta, here past OVERFLOW_LOG / beta
    torus = DiscreteTorus(beta=1.0, n=4)
    V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    H = HermitianMatrix((V * np.array([torus.rate, -0.8])) @ V.conj().T)
    points = [(torus.zero_index + q, rng.normal(size=2) + 1j * rng.normal(size=2), 0)
              for q in (0, 1, 2, 3)]
    inst = BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(),
                         M=np.array([[1.0]]), points=points)
    for form in ("inner", "trace"):
        with pytest.warns(RuntimeWarning, match="clamping"):
            rep = determinant_representation(inst, eta=1000.0, form=form)
        assert np.isfinite(rep)
        oracle = dense_representation(inst, eta=1000.0, form=form)
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


def test_representation_respects_fock_cap(monkeypatch, rng):
    monkeypatch.setenv("FERMICOV_FOCK_CAP", "3")
    inst = random_instance(rng, d=2, m=2, N=1)
    with pytest.raises(ValueError):
        determinant_representation(inst, eta=2.0)


def test_representation_rejects_bad_eta(rng):
    inst = random_instance(rng, d=1, m=1, N=1)
    with pytest.raises(ValueError):
        determinant_representation(inst, eta=-1.0)
    with pytest.raises(ValueError):
        determinant_representation(inst, eta=2.0, form="nope")
