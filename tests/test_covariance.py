import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.covariance import (
    BoundInstance,
    covariance_det,
    covariance_entry,
    covariance_matrix_reduced,
    decay_parameter,
    fit_growth_exponent,
    gram_norm_demo,
    instance_bound,
    kernel_g,
    kernel_g_continuum,
    kernel_values_at,
)
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian, rate_terms
from fermicov.torus import DiscreteTorus, derivative_matrix
from fermicov.verify import GeneratorConfig, instance_seed, random_instance

from oracles import dense_inversion_entry, dense_solve_kernel


def test_kernel_singular_closed_limit():
    torus = DiscreteTorus(beta=1.0, n=8)
    ker = kernel_g(torus.rate, torus)
    assert ker.values[torus.zero_index + 1] == -1.0  # alpha = beta/n
    assert ker.values[torus.zero_index + 1 - torus.n] == 1.0  # alpha = beta/n - beta
    assert np.count_nonzero(ker.values) == 2
    assert ker.residual() <= 1e-12 * torus.rate


def test_kernel_lambda_zero_is_half():
    torus = DiscreteTorus(beta=2.0, n=4)
    ker = kernel_g(0.0, torus)
    assert_allclose(ker.values[: torus.n], 0.5)
    assert_allclose(ker.values[torus.n :], -0.5)


def test_kernel_matches_dense_solve():
    torus = DiscreteTorus(beta=1.0, n=8)
    ker = kernel_g(3.0, torus)
    assert ker.residual() <= 1e-10 * torus.rate
    dense = dense_solve_kernel(3.0, torus)
    assert np.max(np.abs(ker.values - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_kernel_residual_on_lambda_grid():
    torus = DiscreteTorus(beta=1.0, n=8)
    for i in range(-30, 31):
        lam = (i / 3.0) * torus.rate
        assert kernel_g(lam, torus).residual() <= 1e-9 * torus.rate, lam


def test_kernel_eta_independence_off_singularity():
    torus = DiscreteTorus(beta=1.0, n=4)
    for lam in (-5.0, 0.0, 3.9, 17.0):
        values = [kernel_g(lam, torus, eta).values for eta in (1.0, 10.0, 100.0)]
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(values[1], values[2])


def test_kernel_finite_eta_at_singularity_solves_only_in_limit():
    torus = DiscreteTorus(beta=1.0, n=4)
    residuals = [kernel_g(torus.rate, torus, eta).residual() for eta in (2.0, 8.0, 32.0)]
    assert residuals[0] > 1e-3 * torus.rate  # finite eta misses the equation
    assert residuals[0] > residuals[1] > residuals[2]  # and converges in eta


def test_kernel_extreme_lambda_stays_bounded():
    torus = DiscreteTorus(beta=1.0, n=16)
    for lam in (-1e6, -1e3, 1e3, 1e6, torus.rate * (1.0 - 1e-9), torus.rate * (1.0 + 1e-9)):
        values = kernel_g(lam, torus).values
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) <= 1.0 + 1e-12


def test_continuum_kernel_values():
    assert kernel_g_continuum(0.0, 1.0, -0.3) == 0.5
    assert_allclose(kernel_g_continuum(np.log(3.0), 1.0, 0.0), 0.25, rtol=1e-14)
    assert np.isfinite(kernel_g_continuum(1e5, 2.0, -1.0))
    with pytest.raises(ValueError):
        kernel_g_continuum(1.0, 1.0, 0.5)


def test_discrete_kernel_approaches_continuum():
    lam, beta = 1.0, 1.0
    sups = []
    ns = [8, 16, 32, 64]
    for n in ns:
        torus = DiscreteTorus(beta=beta, n=n)
        worst = 0.0
        for i in range(n):
            alpha = torus.alpha(i)
            disc = kernel_values_at(np.array([lam]), torus, i)[0]
            worst = max(worst, abs(disc - kernel_g_continuum(lam, beta, alpha)))
        sups.append(worst)
    order = -fit_growth_exponent(ns, sups)
    assert 0.7 <= order <= 1.3  # O(1/n) convergence


def test_covariance_entry_free_case():
    torus = DiscreteTorus(beta=1.0, n=4)
    S = eig_hermitian(np.zeros((1, 1)))
    val = covariance_entry(S, CutoffSpec.one(), [1.0], [1.0], torus.zero_index, torus)
    assert_allclose(val, 0.5, rtol=1e-14)


@pytest.mark.parametrize("lam", [-4.0, -0.5, 0.9, 2.7])
def test_covariance_entry_scalar_hamiltonian(lam):
    torus = DiscreteTorus(beta=1.0, n=8)
    S = eig_hermitian(lam * np.eye(3))
    val = covariance_entry(S, CutoffSpec.one(), np.eye(3)[1], np.eye(3)[1],
                           torus.zero_index, torus)
    x = 1.0 - lam / torus.rate
    assert_allclose(val, 1.0 / x / (1.0 + abs(x) ** (-torus.n)), rtol=1e-13)


def test_covariance_entry_matches_dense_inversion(rng):
    for trial in range(12):
        d = int(rng.integers(1, 5))
        n = int(rng.choice([2, 4, 8, 16]))
        torus = DiscreteTorus(beta=float(rng.uniform(0.5, 2.0)), n=n)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (A + A.conj().T) / 2 * rng.uniform(0.2, 3.0)
        chi = CutoffSpec.gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
        phi1 = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi2 = rng.normal(size=d) + 1j * rng.normal(size=d)
        alpha_index = int(rng.integers(0, torus.size))
        fast = covariance_entry(eig_hermitian(H), chi, phi1, phi2, alpha_index, torus)
        slow = dense_inversion_entry(H, chi, phi1, phi2, alpha_index, torus)
        assert abs(fast - slow) <= 1e-9 * max(1e-12, abs(slow))


def test_covariance_det_trivial_and_sharp():
    torus = DiscreteTorus(beta=1.0, n=4)
    inst = BoundInstance(
        H=HermitianMatrix(np.zeros((1, 1))),
        torus=torus,
        chi=CutoffSpec.one(),
        M=np.array([[1.0]]),
        points=[(torus.zero_index, [1.0], 0), (torus.zero_index, [1.0], 0)],
    )
    assert_allclose(covariance_det(inst), 0.5, rtol=1e-14)

    lam, N = -3.0, 3
    basis = np.eye(N)
    points = [(torus.zero_index, basis[k], 0) for k in range(N)] * 2
    sharp = BoundInstance(
        H=HermitianMatrix(lam * np.eye(N)),
        torus=torus,
        chi=CutoffSpec.one(),
        M=np.array([[1.0]]),
        points=points,
    )
    x = 1.0 - lam / torus.rate
    expected = (1.0 / x / (1.0 + abs(x) ** (-torus.n))) ** N
    assert_allclose(covariance_det(sharp), expected, rtol=1e-13)


def test_covariance_det_matches_entry_oracle(rng):
    d, m, N, n = 3, 2, 3, 4
    torus = DiscreteTorus(beta=1.0, n=n)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = HermitianMatrix((A + A.conj().T) / 2)
    B = rng.normal(size=(m, m))
    M = B @ B.T
    points = [
        (torus.zero_index + int(rng.integers(0, n)),
         rng.normal(size=d) + 1j * rng.normal(size=d),
         int(rng.integers(0, m)))
        for _ in range(2 * N)
    ]
    chi = CutoffSpec.gaussian(0.0, 2.5)
    inst = BoundInstance(H=H, torus=torus, chi=chi, M=M, points=points)
    mat = np.zeros((N, N), dtype=complex)
    for k in range(N):
        ik, phik, jk = inst.points[k]
        for l in range(N):
            il, phil, jl = inst.points[N + l]
            mat[k, l] = M[jk, jl] * dense_inversion_entry(
                H.matrix, chi, phik, phil, torus.index_diff(ik, il), torus
            )
    oracle = np.linalg.det(mat)
    scale = max(np.max(np.abs(mat)) ** N, 1e-12)
    assert abs(covariance_det(inst) - oracle) <= 1e-9 * max(abs(oracle), scale * 1e-3)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _per_entry_det(inst, S, eta=None) -> complex:
    """The determinant built entry by entry, one covariance_entry call each."""
    N = inst.pair_count
    mat = np.zeros((N, N), dtype=complex)
    for k in range(N):
        ik, phik, jk = inst.points[k]
        for l in range(N):
            il, phil, jl = inst.points[N + l]
            mat[k, l] = inst.M[jk, jl] * covariance_entry(
                S, inst.chi, phik, phil, inst.torus.index_diff(ik, il), inst.torus, eta
            )
    return complex(np.linalg.det(mat))


def _per_vector_bound(inst, S) -> float:
    out = 1.0
    for _, phi, j in inst.points:
        c = S.vectors.conj().T @ phi
        norm = float(np.sqrt(np.sum(inst.chi(S.values) * np.abs(c) ** 2)))
        out *= norm * np.sqrt(max(inst.M[j, j], 0.0))
    return float(out)


def test_one_pass_det_and_bound_equal_per_entry_loop():
    zero = CutoffSpec.indicator(1e300, 1e300)  # 0 on every generated spectrum
    cases = [(random_instance(instance_seed(13, i), GeneratorConfig()), None)
             for i in range(500)]
    pinned = []  # the first 60 default instances with an eigenvalue on n/beta
    for i in itertools.count():
        inst = random_instance(instance_seed(14, i), GeneratorConfig())
        if rate_terms(eig_hermitian(inst.H).values, inst.torus)[0].any():
            pinned.append(inst)
            if len(pinned) == 60:
                break
    cases += [(inst, eta) for inst in pinned for eta in (None, 2.5)]
    for i in range(40):
        inst = random_instance(instance_seed(15, i), GeneratorConfig())
        inst.chi = zero
        cases.append((inst, None))
    hits = zeros = 0
    for inst, eta in cases:
        S = eig_hermitian(inst.H)
        det = covariance_det(inst, eta=eta, spectral=S)
        assert _bits(det) == _bits(_per_entry_det(inst, S, eta))
        assert _bits(instance_bound(inst, S)) == _bits(_per_vector_bound(inst, S))
        hits += bool(np.any(rate_terms(S.values, inst.torus)[0]))
        zeros += det == 0
    assert hits >= 60 and zeros >= 40  # pinned eigenvalues and zero cutoffs were covered


def test_covariance_det_matches_dense_oracle_up_to_n16(rng):
    for N in (1, 2, 5, 9, 16):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        torus = DiscreteTorus(beta=float(rng.choice([0.5, 1.0, 2.0])), n=int(rng.choice([4, 8])))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = HermitianMatrix((A + A.conj().T) / 2 * torus.rate * rng.uniform(0.1, 3.0))
        B = rng.normal(size=(m, m))
        points = [
            (torus.zero_index + int(rng.integers(0, torus.n)),
             rng.normal(size=d) + 1j * rng.normal(size=d),
             int(rng.integers(0, m)))
            for _ in range(2 * N)
        ]
        chi = CutoffSpec.gaussian(0.0, torus.rate * rng.uniform(0.5, 3.0))
        inst = BoundInstance(H=H, torus=torus, chi=chi, M=B @ B.T, points=points)
        mat = np.array([
            [inst.M[jk, jl] * dense_inversion_entry(H.matrix, chi, phik, phil,
                                                    torus.index_diff(ik, il), torus)
             for il, phil, jl in inst.points[N:]]
            for ik, phik, jk in inst.points[:N]
        ])
        assert abs(covariance_det(inst) - np.linalg.det(mat)) <= 1e-9 * instance_bound(inst)


def test_kernel_values_at_index_array_matches_single_indices():
    for n in (2, 4, 8, 16):
        torus = DiscreteTorus(beta=1.0, n=n)
        lams = np.array([0.0, -3.0, 0.5 * torus.rate, torus.rate,
                         torus.rate * (1 + 1e-13), 1e3 * torus.rate, -1e6])
        assert np.sum(rate_terms(lams, torus)[0]) == 2  # two lams in the singular band
        indices = np.arange(-torus.size, 2 * torus.size)
        for eta in (None, 2.5):
            table = kernel_values_at(lams, torus, indices, eta)
            assert table.shape == (indices.size, lams.size)
            for row, i in zip(table, indices):
                assert _bits(row) == _bits(kernel_values_at(lams, torus, int(i), eta))
            grid = kernel_values_at(lams, torus, indices.reshape(3, -1), eta)
            assert _bits(grid) == _bits(table.reshape(3, -1, lams.size))


def test_bound_instance_validation():
    torus = DiscreteTorus(beta=1.0, n=4)
    H = HermitianMatrix(np.zeros((2, 2)))
    good = [(torus.zero_index, np.ones(2), 0)] * 2
    with pytest.raises(ValueError):
        BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.zeros((1, 1)), points=good)
    with pytest.raises(ValueError):
        BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=-np.eye(1), points=good)
    with pytest.raises(ValueError):
        BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.eye(1),
                      points=[(torus.beta_index, np.ones(2), 0)] * 2)  # alpha = beta excluded
    with pytest.raises(ValueError):
        BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.eye(1),
                      points=[(torus.zero_index, np.ones(3), 0)] * 2)


def test_embedding_norm_exact_and_cov_norm_saturates():
    # the naive Gram estimate degenerates through the embedding norms
    # sqrt(n/2); the covariance operator norm itself stays bounded (~2/pi),
    # so the per-factor product grows like sqrt(n)
    H = HermitianMatrix(np.zeros((1, 1)))
    ns = [4, 8, 16, 32]
    rows, zero_mode = gram_norm_demo(H, [DiscreteTorus(beta=1.0, n=n) for n in ns])
    assert zero_mode
    for row in rows:
        assert row.embed_norm == np.sqrt(row.n / 2.0)
        assert 0.63 <= row.cov_norm <= 0.71
    ratio = rows[-1].cov_norm / rows[-2].cov_norm
    assert abs(ratio - 1.0) <= 0.05  # doubling n leaves the norm flat
    factor_exponent = fit_growth_exponent(ns, [r.gram_factor for r in rows])
    assert abs(factor_exponent - 0.5) <= 0.1


def test_gram_demo_resolvent_comparison():
    H = HermitianMatrix(np.diag([0.0, 5.0]))
    torus = DiscreteTorus(beta=1.0, n=16)
    rows, zero_mode = gram_norm_demo(H, [torus])
    assert zero_mode
    # ||C_H|| is the largest resolvent norm 2 ||(del + lam)^-1|| over the spectrum
    dmat = derivative_matrix(torus).astype(complex)
    res = np.array([2.0 * np.linalg.norm(np.linalg.inv(dmat + lam * np.eye(torus.n)), 2)
                    for lam in eig_hermitian(H).values])
    assert res[0] > res[1]  # the zero mode dominates the norm
    assert_allclose(rows[0].cov_norm, res.max(), rtol=1e-10)
    C = covariance_matrix_reduced(H.matrix, torus)
    assert_allclose(np.linalg.norm(C, 2), rows[0].cov_norm, rtol=1e-12)
    # no zero mode: reported as such, computation still performed
    rows2, zero_mode2 = gram_norm_demo(HermitianMatrix(np.diag([5.0])), [torus])
    assert not zero_mode2 and np.isfinite(rows2[0].cov_norm)


def test_decay_parameter_free_value():
    # d=1, H=0, chi=1: (beta/n) * sum_tau |g_0(tau)| = (beta/n) * 2n/2 = beta
    for beta, n in [(1.0, 8), (2.0, 4)]:
        torus = DiscreteTorus(beta=beta, n=n)
        S = eig_hermitian(np.zeros((1, 1)))
        val = decay_parameter(S, CutoffSpec.one(), [np.array([1.0])], torus)
        assert_allclose(val, beta, rtol=1e-13)


def test_decay_parameter_zero_cutoff_and_stability():
    torus = DiscreteTorus(beta=1.0, n=8)
    S = eig_hermitian(np.diag([0.3, -1.2]))
    zero = CutoffSpec.indicator(1e300, 1e300)
    basis = list(np.eye(2))
    assert decay_parameter(S, zero, basis, torus) == 0.0
    v1 = decay_parameter(S, CutoffSpec.one(), basis, torus)
    v2 = decay_parameter(S, CutoffSpec.one(), basis, DiscreteTorus(beta=1.0, n=16))
    assert abs(v2 - v1) <= 0.1 * v1
    with pytest.raises(ValueError):
        decay_parameter(S, zero, [np.array([1.0, 1.0])], torus)


def test_instance_bound_positive(rng):
    torus = DiscreteTorus(beta=1.0, n=4)
    inst = BoundInstance(
        H=HermitianMatrix(np.diag([0.5, -2.0])),
        torus=torus,
        chi=CutoffSpec.one(),
        M=np.eye(2),
        points=[(torus.zero_index, np.eye(2)[q % 2], q % 2) for q in range(4)],
    )
    assert_allclose(instance_bound(inst), 1.0, rtol=1e-13)
