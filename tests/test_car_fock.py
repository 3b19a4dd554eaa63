import numpy as np
import pytest
from itertools import permutations
from math import comb
from numpy.testing import assert_allclose

from fermicov import car_fock
from fermicov.car_fock import (
    FockChain,
    FockSpace,
    expect_monomial,
    permutation_sign,
    quasifree_log_weights,
    quasifree_modes,
    wick_determinant,
)

from oracles import (
    annihilator,
    apply_field,
    creator,
    dense_chain,
    dense_monomial,
    expm_density,
    jordan_wigner,
    quasifree_density,
    second_quantize,
)


def random_h(rng, modes, scale=1.0):
    A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return scale * (A + A.conj().T) / 2


def random_vectors(rng, modes, count):
    return [rng.normal(size=modes) + 1j * rng.normal(size=modes) for _ in range(count)]


def field_matrix(fock, psi, creator=False):
    """The dense matrix of a(psi) or a+(psi), rebuilt from one field on the identity."""
    return dense_chain(FockChain.diagonal(fock, np.ones(fock.dim)).field(psi, creator=creator))


def test_fock_tables_shared_and_cap_checked():
    first, second = FockSpace(10), FockSpace(10)
    assert first.hops is second.hops
    assert first.family(3, 1) is second.family(4, 1)  # one table per (mode count, family)
    with pytest.raises(ValueError):  # shared, so read-only
        first.hops[0][0, 0] = 1
    assert FockSpace(car_fock.FOCK_CAP).modes == 14  # checked, not built
    for modes in (0, 15):
        with pytest.raises(ValueError):
            FockSpace(modes)


def test_jordan_wigner_single_mode():
    (c,) = jordan_wigner(1)
    assert_allclose(c, [[0.0, 1.0], [0.0, 0.0]])
    anti = c @ c.T + c.T @ c
    assert_allclose(anti, np.eye(2))


def test_jordan_wigner_car_exact():
    # every pair for D <= 6, a fixed sample of pairs (first, neighbor, last) at D = 8
    cases = [(D, [(i, j) for i in range(D) for j in range(D)]) for D in range(1, 7)]
    cases.append((8, [(0, 0), (0, 1), (0, 7), (6, 7)]))
    for D, pairs in cases:
        ops = jordan_wigner(D)
        eye = np.eye(2**D)
        for i, j in pairs:
            ci, cj = ops[i], ops[j]
            assert np.max(np.abs(ci @ cj + cj @ ci)) == 0.0
            acc = ci @ cj.T + cj.T @ ci
            assert np.max(np.abs(acc - (eye if i == j else 0.0))) == 0.0


def test_field_maps_rebuild_jordan_wigner():
    for D in range(1, 7):
        fock = FockSpace(D)
        for k, c in enumerate(jordan_wigner(D)):
            mode = np.eye(D)[k]
            assert (field_matrix(fock, mode) == c).all()
            assert (field_matrix(fock, mode, creator=True) == c.T).all()


def test_apply_field_matches_dense(rng):
    # the row-map reference of the shell engine against dense Jordan-Wigner products
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    X = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert_allclose(apply_field(psi, X), annihilator(psi) @ X, atol=1e-13)
    assert_allclose(apply_field(psi, X, creator=True), creator(psi) @ X, atol=1e-13)
    with pytest.raises(ValueError):
        apply_field(np.ones(3), X)
    with pytest.raises(ValueError):
        apply_field(psi, X[:8])


def test_quasifree_log_weights_match_expm_oracle():
    eps = np.array([0.7, -1.2, 2.5])
    h = np.diag(eps)
    oracle = expm_density(h, 0.8, second_quantize(h))
    assert np.max(np.abs(np.diag(oracle) - np.exp(quasifree_log_weights(eps, 0.8)))) <= 1e-14
    # closed form stays finite and normalized where exp(-beta eps) overflows
    logp = quasifree_log_weights(np.array([800.0, -900.0]), 1.0)
    assert np.isfinite(logp).all()
    assert_allclose(np.exp(logp), [0.0, 1.0, 0.0, 0.0], atol=1e-200)  # only mode 1 filled


def test_shell_families(rng):
    fock = FockSpace(10)
    assert [len(fock.family(t, t % 2)) for t in range(5)] == [1, 10, 46, 130, 256]
    # pruned to a read-out target: a 4-field trace chain and the right half of a 1|3 split
    psi = rng.normal(size=10) + 1j * rng.normal(size=10)
    X = FockChain.diagonal(fock, np.ones(fock.dim))
    counts = [len(X.rows)]
    for left in (3, 2, 1, 0):
        X = X.field(psi, creator=left % 2 == 0, reach=0 + left)
        counts.append(len(X.rows))
    assert counts == [1, 10, 46, 10, 1]
    X, counts = FockChain.diagonal(fock, np.ones(fock.dim)), []
    for left in (2, 1, 0):
        X = X.field(psi, reach=1 + left)
        counts.append(len(X.rows))
    assert counts == [10, 46, 10]
    for D in range(1, 7):
        fock = FockSpace(D)
        for t in range(9):
            masks = fock.family(t, t % 2)
            weights = [bin(int(m)).count("1") for m in masks]
            assert all(w <= t and w % 2 == t % 2 for w in weights)
            assert len(masks) == sum(comb(D, w) for w in range(t % 2, min(t, D) + 1, 2))
            assert (0 in masks) == (t % 2 == 0)  # row 0, the trace, only on even chains


@pytest.mark.parametrize("small_field", [car_fock.SMALL_FIELD, 0, 10**9])
def test_fock_chain_matches_apply_field_oracle(rng, monkeypatch, small_field):
    # chains of up to 8 fields on a diagonal, with real and complex D^w between the fields,
    # against the dense row maps: entries, trace, norm and inner products across lengths;
    # the three thresholds run the default choice, the per-mode loop and the gather
    monkeypatch.setattr(car_fock, "SMALL_FIELD", small_field)
    for D in range(1, 7):
        fock = FockSpace(D)
        logp = quasifree_log_weights(rng.normal(size=D), float(rng.uniform(0.5, 2.0)))
        start = rng.normal(size=2**D) + 1j * rng.normal(size=2**D)
        X, dense = FockChain.diagonal(fock, start), np.diag(start)
        chains, denses = [X], [dense]
        for t in range(1, 9):
            psi = rng.normal(size=D) + 1j * rng.normal(size=D)
            is_creator = bool(rng.uniform() < 0.5)
            w = float(rng.uniform(0, 0.5)) + (1j * float(rng.normal()) if t % 3 == 0 else 0.0)
            X = X.field(psi, creator=is_creator).scale(np.exp(logp * w))
            dense = np.exp(logp * w)[:, None] * apply_field(psi, dense, creator=is_creator)
            scale = max(np.max(np.abs(dense)), 1e-300)
            assert X.length == t and (X.masks == fock.family(t, t % 2)).all()
            assert np.max(np.abs(dense_chain(X) - dense)) <= 1e-13 * scale, (D, t)
            assert abs(X.trace() - np.trace(dense)) <= 1e-13 * 2**D * scale
            if t % 2:
                assert X.trace() == 0.0
            assert abs(X.norm() - np.linalg.norm(dense)) <= 1e-13 * 2**D * scale
            chains.append(X)
            denses.append(dense)
        for i in range(len(chains)):
            for j in range(i, len(chains), 3):
                expected = np.vdot(denses[i], denses[j])
                bound = np.linalg.norm(denses[i]) * np.linalg.norm(denses[j])
                assert abs(chains[i].vdot(chains[j]) - expected) <= 1e-13 * bound
                assert abs(chains[j].vdot(chains[i]) - np.conj(expected)) <= 1e-13 * bound


@pytest.mark.parametrize("small_field", [car_fock.SMALL_FIELD, 0, 10**9])
def test_pruned_chain_matches_apply_field_oracle(rng, monkeypatch, small_field):
    # chains that keep only the rows a read-out target can still reach after the fields
    # left (reach target + left), against the dense row maps on every kept row; target 0
    # is expect_monomial's trace read-out, min(len L, len R) the inner product of two
    # half chains
    monkeypatch.setattr(car_fock, "SMALL_FIELD", small_field)
    for D in range(1, 7):
        fock = FockSpace(D)
        logp = quasifree_log_weights(rng.normal(size=D), float(rng.uniform(0.5, 2.0)))
        r = np.arange(fock.dim)
        weight = np.array([bin(int(m)).count("1") for m in r])

        def build(fields, target):
            start = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
            X, dense = FockChain.diagonal(fock, start), np.diag(start)
            for t in range(1, fields + 1):
                psi = rng.normal(size=D) + 1j * rng.normal(size=D)
                is_creator = bool(rng.uniform() < 0.5)
                w = float(rng.uniform(0, 0.5)) + (1j * float(rng.normal()) if t % 3 == 0 else 0.0)
                reach = min(t, target + fields - t)
                X = X.field(psi, creator=is_creator, reach=target + fields - t)
                X.scale(np.exp(logp * w))
                dense = np.exp(logp * w)[:, None] * apply_field(psi, dense, creator=is_creator)
                expected = [m for m in r if weight[m] <= reach and weight[m] % 2 == t % 2]
                assert X.length == t and list(X.masks) == expected, (D, t, target)
                kept = np.isin(r[:, None] ^ r[None, :], X.masks)
                scale = max(np.max(np.abs(dense)), 1e-300)
                assert np.max(np.abs(dense_chain(X) - dense * kept), initial=0.0) \
                    <= 1e-13 * scale, (D, t, target)
            return X, dense

        for fields in (1, 2, 3, 5, 8):
            X, dense = build(fields, 0)
            scale = max(np.max(np.abs(dense)), 1e-300)
            assert abs(X.trace() - np.trace(dense)) <= 1e-13 * 2**D * scale
        for p, q in ((1, 1), (1, 3), (2, 2), (3, 5), (4, 4)):
            target = min(p, q)
            (L, dense_l), (R, dense_r) = build(p, target), build(q, target)
            expected = np.vdot(dense_l, dense_r)
            bound = np.linalg.norm(dense_l) * np.linalg.norm(dense_r)
            assert abs(L.vdot(R) - expected) <= 1e-13 * bound, (D, p, q)
        # unbalanced monomials vanish exactly, whether or not their trace row is kept
        _, logp, _ = quasifree_modes(random_h(rng, D), beta=1.0)
        for n1, n2 in [(1, 0), (0, 2), (2, 1), (1, 3), (3, 1), (4, 0)]:
            vecs, perm = random_vectors(rng, D, n1 + n2), rng.permutation(n1 + n2)
            assert expect_monomial(fock, logp, vecs, perm, n1) == 0.0, (D, n1, n2)


def test_annihilator_antilinear(rng):
    fock = FockSpace(3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    X = FockChain.diagonal(fock, rng.normal(size=8) + 1j * rng.normal(size=8))
    X = X.field(rng.normal(size=3) + 1j * rng.normal(size=3), creator=True)
    assert_allclose(X.field(1j * psi).rows, -1j * X.field(psi).rows, atol=1e-14)
    assert_allclose(annihilator(1j * psi), -1j * annihilator(psi), atol=1e-14)
    with pytest.raises(ValueError):
        X.field(np.ones(2))
    with pytest.raises(ValueError):
        FockChain.diagonal(fock, np.ones(4))
    with pytest.raises(ValueError):
        FockChain.diagonal(FockSpace(2), np.ones(4)).vdot(X)


def test_car_for_dressed_operators(rng):
    fock = FockSpace(4)
    p1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    p2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    a1, a2 = field_matrix(fock, p1), field_matrix(fock, p2)
    c1, c2 = field_matrix(fock, p1, creator=True), field_matrix(fock, p2, creator=True)
    assert np.max(np.abs(a1 @ a2 + a2 @ a1)) <= 1e-12
    # {a+(p1), a(p2)} = <p2, p1> 1 with the first slot conjugated
    acc = c1 @ a2 + a2 @ c1
    assert np.max(np.abs(acc - np.vdot(p2, p1) * np.eye(fock.dim))) <= 1e-12
    acc2 = a1 @ c2 + c2 @ a1
    assert np.max(np.abs(acc2 - np.vdot(p1, p2) * np.eye(fock.dim))) <= 1e-12


def test_second_quantize_number_operator():
    D = 3
    num = second_quantize(np.eye(D))
    vals = np.sort(np.linalg.eigvalsh(num))
    counts = {v: list(np.round(vals).astype(int)).count(v) for v in range(D + 1)}
    assert counts == {0: 1, 1: 3, 2: 3, 3: 1}
    assert np.max(np.abs(second_quantize(np.zeros((2, 2))))) == 0.0


def test_second_quantize_commutator(rng):
    D = 4
    h = random_h(rng, D)
    dg = second_quantize(h)
    psi = rng.normal(size=D) + 1j * rng.normal(size=D)
    lhs = dg @ creator(psi) - creator(psi) @ dg
    rhs = creator(h @ psi)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs))


def test_quasifree_density_free_mode():
    V, logp, symbol = quasifree_modes(np.zeros((1, 1)), beta=1.0)
    assert_allclose(np.exp(logp), [0.5, 0.5], atol=1e-14)
    assert_allclose(symbol, [[0.5]], atol=1e-14)
    assert_allclose(quasifree_density(np.zeros((1, 1)), beta=1.0).density, np.eye(2) / 2,
                    atol=1e-14)
    with pytest.raises(ValueError):
        quasifree_modes(np.zeros((1, 1)), beta=0.0)


def test_quasifree_density_matches_expm_oracle(rng):
    D = 3
    h = random_h(rng, D)
    oracle = expm_density(h, 0.8, second_quantize(h))
    assert np.max(np.abs(quasifree_density(h, beta=0.8).density - oracle)) <= 1e-12
    # the eigenmode weights are the spectrum of the site-basis density
    _, logp, _ = quasifree_modes(h, beta=0.8)
    assert np.max(np.abs(np.sort(np.exp(logp)) - np.linalg.eigvalsh(oracle))) <= 1e-12


def test_quasifree_symbol_invariant(rng):
    # Tr(rho a+(p1) a(p2)) = <p2, S p1>, rho from expm on dense site-mode operators
    h = random_h(rng, 2)
    _, _, symbol = quasifree_modes(h, beta=1.0)
    rho = expm_density(h, 1.0, second_quantize(h))
    for _ in range(5):
        p1, p2 = random_vectors(rng, 2, 2)
        lhs = np.trace(rho @ creator(p1) @ annihilator(p2))
        assert abs(lhs - np.vdot(p2, symbol @ p1)) <= 1e-10


def test_quasifree_gauge_invariance(rng):
    V, logp, _ = quasifree_modes(random_h(rng, 3), beta=1.0)
    vecs = [V.conj().T @ p for p in random_vectors(rng, 3, 2)]
    assert abs(expect_monomial(FockSpace(3), logp, vecs, (0, 1), 2)) <= 1e-12  # two creators


def test_quasifree_density_survives_extreme_energies():
    # a naive exp(-beta dGamma) overflows here; the log-domain route must not
    V, logp, symbol = quasifree_modes(np.diag([800.0, -900.0]), beta=1.0)
    assert np.isfinite(logp).all()
    assert abs(np.sum(np.exp(logp)) - 1.0) <= 1e-12
    assert_allclose(symbol, np.diag([0.0, 1.0]), atol=1e-200)


def test_expect_monomial_two_point(rng):
    V, logp, symbol = quasifree_modes(random_h(rng, 3), beta=1.0)
    p1, p2 = random_vectors(rng, 3, 2)
    value = expect_monomial(FockSpace(3), logp, [V.conj().T @ p1, V.conj().T @ p2], (0, 1), 1)
    assert_allclose(value, np.vdot(p2, symbol @ p1), rtol=1e-11, atol=1e-12)


def test_expect_monomial_unbalanced_vanishes(rng):
    _, logp, _ = quasifree_modes(random_h(rng, 4), beta=1.0)
    for n1, n2 in [(2, 1), (1, 2), (3, 1), (0, 2)]:
        vecs = random_vectors(rng, 4, n1 + n2)
        perm = tuple(rng.permutation(n1 + n2))
        assert abs(expect_monomial(FockSpace(4), logp, vecs, perm, n1)) <= 1e-12


def test_expect_monomial_matches_dense_oracle(rng):
    # eigenmode row maps against Tr(rho product) on dense site-mode matrices, D <= 6
    for modes in range(1, 7):
        h = random_h(rng, modes, scale=float(rng.uniform(0.3, 2.0)))
        beta = float(rng.uniform(0.5, 2.0))
        V, logp, _ = quasifree_modes(h, beta)
        state = quasifree_density(h, beta)
        fock = FockSpace(modes)
        for n1, n2 in [(1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (1, 3)]:
            vecs = random_vectors(rng, modes, n1 + n2)
            perm = tuple(rng.permutation(n1 + n2))
            oracle = dense_monomial(state, vecs, perm, n1)
            value = expect_monomial(fock, logp, [V.conj().T @ v for v in vecs], perm, n1)
            if n1 != n2:
                assert value == 0.0 and abs(oracle) <= 1e-12
            else:
                assert abs(value - oracle) <= 1e-12 * abs(oracle), (modes, n1, perm)


def test_wick_single_pair_conventions(rng):
    V, logp, symbol = quasifree_modes(random_h(rng, 2), beta=1.0)
    p1, p2 = random_vectors(rng, 2, 2)
    assert_allclose(wick_determinant(symbol, [p1, p2], (0, 1)), np.vdot(p2, symbol @ p1),
                    rtol=1e-12)
    swapped = wick_determinant(symbol, [p1, p2], (1, 0))
    expected = np.vdot(p2, symbol @ p1) - np.vdot(p2, p1)
    assert_allclose(swapped, expected, rtol=1e-12)
    direct = expect_monomial(FockSpace(2), logp, [V.conj().T @ p1, V.conj().T @ p2], (1, 0), 1)
    assert_allclose(swapped, direct, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("N", [1, 2])
def test_wick_exhaustive_small(N, rng):
    V, logp, symbol = quasifree_modes(random_h(rng, 3), beta=1.0)
    fock = FockSpace(3)
    perms = np.array(list(permutations(range(2 * N))))
    vecs = np.array([random_vectors(rng, 3, 2 * N) for _ in perms])  # one draw per permutation
    direct = expect_monomial(fock, logp, vecs @ V.conj(), perms, N)
    det = wick_determinant(symbol, vecs, perms)
    assert np.all(np.abs(direct - det) <= 1e-10 * np.maximum(np.abs(direct), 1e-2))


@pytest.mark.parametrize("small_field", [car_fock.SMALL_FIELD, 0])  # gather, per-mode loop
@pytest.mark.parametrize("modes", [3, 4])
def test_stacked_wick_matches_stacks_of_one_bitwise(modes, small_field, rng, monkeypatch):
    monkeypatch.setattr(car_fock, "SMALL_FIELD", small_field)
    fock = FockSpace(modes)
    for N in (1, 2, 3):
        perms = np.array(list(permutations(range(2 * N))))
        perms = perms[rng.choice(len(perms), size=min(len(perms), 40), replace=False)]
        kinds = np.argsort(perms, axis=-1) < N  # creator at each position
        assert np.any(kinds.any(axis=0) & ~kinds.all(axis=0))  # some field mixes kinds
        h = np.array([random_h(rng, modes) for _ in perms])
        V, logp, symbol = quasifree_modes(h, beta=1.0)
        vecs = np.array([random_vectors(rng, modes, 2 * N) for _ in perms])
        in_modes = (V.conj().mT[:, None] @ vecs[..., None])[..., 0]
        direct = expect_monomial(fock, logp, in_modes, perms, N)
        det = wick_determinant(symbol, vecs, perms)
        assert direct.shape == det.shape == (len(perms),)
        for i, perm in enumerate(perms):
            assert direct[i] == expect_monomial(fock, logp[i], in_modes[i], perm, N)
            assert det[i] == wick_determinant(symbol[i], vecs[i], perm)
    # one stacked eigh gives each state's bits
    h = np.array([random_h(rng, modes) for _ in range(5)])
    for stacked, single in zip(quasifree_modes(h, 1.0), zip(*(quasifree_modes(x, 1.0) for x in h))):
        assert np.array_equal(stacked, np.array(single))


def test_monomial_spec_validation(rng):
    fock, logp = FockSpace(2), np.zeros(4)
    with pytest.raises(ValueError):  # two slots, one vector
        expect_monomial(fock, logp, [np.ones(2)], (0, 1), 1)
    with pytest.raises(ValueError):
        expect_monomial(fock, logp, [np.ones(2), np.ones(2)], (0, 0), 1)
    with pytest.raises(ValueError):  # one stack entry of three is not a permutation
        expect_monomial(fock, logp, np.ones((3, 2, 2)), [(0, 1), (1, 0), (1, 1)], 1)
    with pytest.raises(ValueError):
        expect_monomial(fock, logp, [np.ones(2), np.ones(2)], (0, 1), 3)
    with pytest.raises(ValueError):
        wick_determinant(np.eye(2), [np.ones(2), np.ones(2)], (0, 2))
    with pytest.raises(ValueError):  # an odd operator count has no Wick determinant
        wick_determinant(np.eye(2), [np.ones(2)] * 3, (0, 1, 2))


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1
    perms = list(permutations(range(4)))
    expected = [(-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) for p in perms]
    assert permutation_sign(perms).tolist() == expected
    assert permutation_sign(()) == 1
