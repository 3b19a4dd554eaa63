import numpy as np
import pytest
from itertools import permutations
from numpy.testing import assert_allclose

from fermicov.car_fock import (
    FockOperator,
    FockSpace,
    MonomialSpec,
    annihilator,
    apply_field,
    creator,
    expect_monomial,
    fock_cap,
    jordan_wigner,
    permutation_sign,
    quasifree_density,
    quasifree_log_weights,
    second_quantize,
    symbol_two_point,
    wick_determinant,
)

from oracles import expm_density


def random_state(rng, modes, beta=1.0, scale=1.0):
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return quasifree_density(scale * (A + A.conj().T) / 2, beta=beta)


def test_fock_cap_env(monkeypatch):
    monkeypatch.setenv("FERMICOV_FOCK_CAP", "4")
    assert fock_cap() == 4
    with pytest.raises(ValueError):
        FockSpace(5)
    monkeypatch.setenv("FERMICOV_FOCK_CAP", "99")
    assert fock_cap() == 14  # hard max
    monkeypatch.delenv("FERMICOV_FOCK_CAP")
    assert fock_cap() == 10


def test_jordan_wigner_single_mode():
    (c,) = jordan_wigner(1)
    assert_allclose(c.matrix, [[0.0, 1.0], [0.0, 0.0]])
    anti = c.matrix @ c.matrix.T + c.matrix.T @ c.matrix
    assert_allclose(anti, np.eye(2))


def test_jordan_wigner_car_exact():
    # every pair for D <= 6, a fixed sample of pairs (first, neighbor, last) at D = 8
    cases = [(D, [(i, j) for i in range(D) for j in range(D)]) for D in range(1, 7)]
    cases.append((8, [(0, 0), (0, 1), (0, 7), (6, 7)]))
    for D, pairs in cases:
        ops = jordan_wigner(D)
        eye = np.eye(2**D)
        for i, j in pairs:
            ci, cj = ops[i].matrix, ops[j].matrix
            assert np.max(np.abs(ci @ cj + cj @ ci)) == 0.0
            acc = ci @ cj.T + cj.T @ ci
            assert np.max(np.abs(acc - (eye if i == j else 0.0))) == 0.0


def test_field_maps_rebuild_jordan_wigner():
    for D in range(1, 7):
        fock = FockSpace(D)
        eye = np.eye(fock.dim)
        for k, c in enumerate(jordan_wigner(D)):
            mode = np.eye(D)[k]
            assert (apply_field(fock, mode, eye) == c.matrix).all()
            assert (apply_field(fock, mode, eye, creator=True) == c.matrix.T).all()


def test_apply_field_matches_dense(rng):
    fock = FockSpace(4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    X = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert_allclose(apply_field(fock, psi, X), annihilator(fock, psi).matrix @ X, atol=1e-13)
    assert_allclose(apply_field(fock, psi, X, creator=True),
                    creator(fock, psi).matrix @ X, atol=1e-13)
    with pytest.raises(ValueError):
        apply_field(fock, np.ones(3), X)
    with pytest.raises(ValueError):
        apply_field(fock, psi, X[:8])


def test_quasifree_log_weights_match_expm_oracle():
    eps = np.array([0.7, -1.2, 2.5])
    h = np.diag(eps)
    dg = second_quantize(h).matrix
    oracle = expm_density(h, 0.8, dg)
    assert np.max(np.abs(np.diag(oracle) - np.exp(quasifree_log_weights(eps, 0.8)))) <= 1e-14
    # closed form stays finite and normalized where exp(-beta eps) overflows
    logp = quasifree_log_weights(np.array([800.0, -900.0]), 1.0)
    assert np.isfinite(logp).all()
    assert_allclose(np.exp(logp), [0.0, 1.0, 0.0, 0.0], atol=1e-200)  # only mode 1 filled


def test_annihilator_antilinear(rng):
    fock = FockSpace(3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert_allclose(annihilator(fock, 1j * psi).matrix,
                    -1j * annihilator(fock, psi).matrix, atol=1e-14)
    with pytest.raises(ValueError):
        annihilator(fock, np.ones(2))


def test_car_for_dressed_operators(rng):
    fock = FockSpace(4)
    p1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    p2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    a1, a2 = annihilator(fock, p1).matrix, annihilator(fock, p2).matrix
    c2 = creator(fock, p2).matrix
    assert np.max(np.abs(a1 @ a2 + a2 @ a1)) <= 1e-12
    # {a+(p1), a(p2)} = <p2, p1> 1 with the first slot conjugated
    acc = creator(fock, p1).matrix @ a2 + a2 @ creator(fock, p1).matrix
    assert np.max(np.abs(acc - np.vdot(p2, p1) * np.eye(fock.dim))) <= 1e-12
    acc2 = a1 @ c2 + c2 @ a1
    assert np.max(np.abs(acc2 - np.vdot(p1, p2) * np.eye(fock.dim))) <= 1e-12


def test_second_quantize_number_operator():
    D = 3
    num = second_quantize(np.eye(D))
    vals = np.sort(np.linalg.eigvalsh(num.matrix))
    counts = {v: list(np.round(vals).astype(int)).count(v) for v in range(D + 1)}
    assert counts == {0: 1, 1: 3, 2: 3, 3: 1}
    assert np.max(np.abs(second_quantize(np.zeros((2, 2))).matrix)) == 0.0


def test_second_quantize_commutator(rng):
    D = 4
    fock = FockSpace(D)
    A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    h = (A + A.conj().T) / 2
    dg = second_quantize(h, fock).matrix
    psi = rng.normal(size=D) + 1j * rng.normal(size=D)
    lhs = dg @ creator(fock, psi).matrix - creator(fock, psi).matrix @ dg
    rhs = creator(fock, h @ psi).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))


def test_quasifree_density_free_mode():
    state = quasifree_density(np.zeros((1, 1)), beta=1.0)
    assert_allclose(state.density, np.eye(2) / 2, atol=1e-14)
    assert_allclose(state.symbol, [[0.5]], atol=1e-14)


def test_quasifree_density_matches_expm_oracle(rng):
    D = 3
    A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    h = (A + A.conj().T) / 2
    state = quasifree_density(h, beta=0.8)
    oracle = expm_density(h, 0.8, second_quantize(h).matrix)
    assert np.max(np.abs(state.density - oracle)) <= 1e-12


def test_quasifree_symbol_invariant(rng):
    state = random_state(rng, 2)
    assert state.verify_symbol(rng) <= 1e-10


def test_quasifree_gauge_invariance(rng):
    state = random_state(rng, 3)
    p1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    p2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    two_creators = creator(state.fock, p1).matrix @ creator(state.fock, p2).matrix
    assert abs(state.expectation(FockOperator(state.fock, two_creators))) <= 1e-12


def test_quasifree_density_survives_extreme_energies():
    # a naive exp(-beta dGamma) overflows here; the log-domain route must not
    state = quasifree_density(np.diag([800.0, -900.0]), beta=1.0)
    assert np.isfinite(state.log_weights).all()
    assert abs(np.trace(state.density).real - 1.0) <= 1e-12
    assert_allclose(state.symbol, np.diag([0.0, 1.0]), atol=1e-200)


def test_expect_monomial_two_point(rng):
    state = random_state(rng, 3)
    p1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    p2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    spec = MonomialSpec(n1=1, n2=1, vectors=[p1, p2], perm=(0, 1))
    assert_allclose(expect_monomial(state, spec), np.vdot(p2, state.symbol @ p1),
                    rtol=1e-11, atol=1e-12)


def test_expect_monomial_unbalanced_vanishes(rng):
    state = random_state(rng, 4)
    for n1, n2 in [(2, 1), (1, 2), (3, 1), (0, 2)]:
        vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(n1 + n2)]
        perm = tuple(rng.permutation(n1 + n2))
        value = expect_monomial(state, MonomialSpec(n1=n1, n2=n2, vectors=vecs, perm=perm))
        assert abs(value) <= 1e-12


def test_wick_single_pair_conventions(rng):
    state = random_state(rng, 2)
    p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    p2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    tp = symbol_two_point(state.symbol, [p1, p2])
    assert_allclose(wick_determinant(tp, 1, (0, 1)),
                    np.vdot(p2, state.symbol @ p1), rtol=1e-12)
    swapped = wick_determinant(tp, 1, (1, 0))
    expected = np.vdot(p2, state.symbol @ p1) - np.vdot(p2, p1)
    assert_allclose(swapped, expected, rtol=1e-12)
    direct = expect_monomial(state, MonomialSpec(n1=1, n2=1, vectors=[p1, p2], perm=(1, 0)))
    assert_allclose(swapped, direct, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("N", [1, 2])
def test_wick_exhaustive_small(N, rng):
    state = random_state(rng, 3)
    for perm in permutations(range(2 * N)):
        vecs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2 * N)]
        direct = expect_monomial(state, MonomialSpec(n1=N, n2=N, vectors=vecs, perm=perm))
        det = wick_determinant(symbol_two_point(state.symbol, vecs), N, perm)
        assert abs(direct - det) <= 1e-10 * max(abs(direct), 1e-2)


def test_monomial_spec_validation(rng):
    with pytest.raises(ValueError):
        MonomialSpec(n1=1, n2=1, vectors=[np.ones(2)], perm=(0, 1))
    with pytest.raises(ValueError):
        MonomialSpec(n1=1, n2=1, vectors=[np.ones(2), np.ones(2)], perm=(0, 0))
    with pytest.raises(ValueError):
        wick_determinant(lambda k, l, o: 0.0, 1, (0, 2))


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1
