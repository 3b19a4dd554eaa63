import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fermicov
from fermicov.covariance import (
    BoundInstance,
    InstanceStack,
    _entries,
    covariance_det,
    covariance_matrix,
    instance_bound,
    kernel_g,
    kernel_values_at,
)
from fermicov.modular import determinant_representation
from fermicov.spectral import CutoffSpec, HermitianMatrix, eig_hermitian, rate_terms
from fermicov.torus import N_CAP, DiscreteTorus, delta_ap
from fermicov.verify import (
    CHUNK,
    GeneratorConfig,
    bound_check_suite,
    instance_seed,
    random_instance,
    random_instances,
)

from oracles import (
    covariance_matrix_reduced,
    dense_covariance_matrix,
    dense_solve_kernel,
    derivative_matrix,
    fit_growth_exponent,
    kernel_g_continuum,
)


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


def test_kernel_rejects_non_finite_lambda_and_eta():
    torus = DiscreteTorus(1.0, 4)  # lam = 4.0 sits on n/beta, where eta enters
    for eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eta"):
            kernel_g(4.0, torus, eta=eta)
    with pytest.raises(ValueError, match="finite"):
        kernel_g(np.nan, torus)


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


def _one_pair(H, torus, phi) -> BoundInstance:
    """One pair of points at alpha = 0 with the same vector: a 1 x 1 matrix."""
    return BoundInstance(H=HermitianMatrix(H), torus=torus, chi=CutoffSpec.one(),
                         M=np.array([[1.0]]), points=[(torus.zero_index, phi, 0)] * 2)


def test_covariance_entry_free_case():
    torus = DiscreteTorus(beta=1.0, n=4)
    val = covariance_matrix(_one_pair(np.zeros((1, 1)), torus, [1.0]))
    assert_allclose(val, [[0.5]], rtol=1e-14)


@pytest.mark.parametrize("lam", [-4.0, -0.5, 0.9, 2.7])
def test_covariance_entry_scalar_hamiltonian(lam):
    torus = DiscreteTorus(beta=1.0, n=8)
    val = covariance_matrix(_one_pair(lam * np.eye(3), torus, np.eye(3)[1]))
    x = 1.0 - lam / torus.rate
    assert_allclose(val, [[1.0 / x / (1.0 + abs(x) ** (-torus.n))]], rtol=1e-13)


def test_covariance_entry_matches_dense_inversion(rng):
    # the entries' time differences alpha_k - alpha_l range over (-beta, beta)
    for trial in range(12):
        d, m, N = (int(k) for k in rng.integers(1, [5, 4, 4]))
        n = int(rng.choice([2, 4, 8, 16]))
        torus = DiscreteTorus(beta=float(rng.uniform(0.5, 2.0)), n=n)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = HermitianMatrix((A + A.conj().T) / 2 * rng.uniform(0.2, 3.0))
        chi = CutoffSpec.gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
        B = rng.normal(size=(m, m))
        points = [(torus.zero_index + int(rng.integers(0, n)),
                   rng.normal(size=d) + 1j * rng.normal(size=d), int(rng.integers(0, m)))
                  for _ in range(2 * N)]
        inst = BoundInstance(H=H, torus=torus, chi=chi, M=B @ B.T, points=points)
        fast, slow = covariance_matrix(inst), dense_covariance_matrix(inst)
        assert np.all(np.abs(fast - slow) <= 1e-9 * np.maximum(1e-12, np.abs(slow)))


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
    mat = dense_covariance_matrix(inst)
    oracle = np.linalg.det(mat)
    scale = max(np.max(np.abs(mat)) ** N, 1e-12)
    assert abs(covariance_det(inst) - oracle) <= 1e-9 * max(abs(oracle), scale * 1e-3)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _per_entry_matrix(inst, S, eta=None) -> np.ndarray:
    """The matrix built entry by entry, the kernel evaluated at one index each."""
    N, weights = inst.pair_count, inst.chi(S.values)
    mat = np.zeros((N, N), dtype=complex)
    for k in range(N):
        ik, phik, jk = inst.points[k]
        for l in range(N):
            il, phil, jl = inst.points[N + l]
            c1, c2 = S.vectors.conj().T @ phik, S.vectors.conj().T @ phil
            g = kernel_values_at(S.values, inst.torus, inst.torus.index_diff(ik, il), eta)
            mat[k, l] = inst.M[jk, jl] * _entries(g, weights, c1, c2)
    return mat


def _per_vector_bound(inst, S) -> float:
    out = 1.0
    for _, phi, j in inst.points:
        c = S.vectors.conj().T @ phi
        norm = float(np.sqrt(np.sum(inst.chi(S.values) * np.abs(c) ** 2)))
        out *= norm * np.sqrt(max(inst.M[j, j], 0.0))
    return float(out)


def test_one_pass_det_and_bound_equal_per_entry_loop():
    zero = CutoffSpec.indicator(1e300, 1e300)  # 0 on every generated spectrum

    def batch(root, count, config=GeneratorConfig()):
        return random_instances([instance_seed(root, i) for i in range(count)], config)

    cases = [(inst, None) for inst in batch(13, 500)]
    pinned = [inst for inst in batch(14, 1500)  # the first 60 with an eigenvalue on n/beta
              if rate_terms(eig_hermitian(inst.H).values, inst.torus)[0].any()][:60]
    assert len(pinned) == 60
    cases += [(inst, eta) for inst in pinned for eta in (None, 2.5)]
    cases += [(dataclasses.replace(inst, chi=zero), None) for inst in batch(15, 40)]
    # wider ranges, with many entries per time difference, and a fine grid
    wide = GeneratorConfig(d_max=6, m_max=5, N_max=6, n_choices=(2, 4, 8, 16))
    cases += [(inst, None) for inst in batch(16, 400, wide)]
    cases += [(inst, None) for inst in batch(17, 100, GeneratorConfig(n_choices=(10**7,)))]
    hits = zeros = 0
    for inst, eta in cases:
        S = eig_hermitian(inst.H)
        det = covariance_det(inst, eta=eta)
        loop = _per_entry_matrix(inst, S, eta)
        assert _bits(covariance_matrix(inst, eta)) == _bits(loop)
        assert _bits(det) == _bits(complex(np.linalg.det(loop)))
        assert _bits(instance_bound(inst)) == _bits(_per_vector_bound(inst, S))
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
        mat = dense_covariance_matrix(inst)
        assert np.all(np.abs(covariance_matrix(inst) - mat)
                      <= 1e-9 * np.maximum(np.abs(mat), 1e-12))
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
    for points in ([], good + good[:1]):  # no pair, and an odd count
        with pytest.raises(ValueError, match="2N triples"):
            BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.eye(1), points=points)
    for color in (1, -1):  # M is 1 x 1
        with pytest.raises(ValueError, match="color index out of range"):
            BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.eye(1),
                          points=[good[0], (torus.zero_index, np.ones(2), color)])


def test_bound_instance_applies_one_rule_for_m():
    torus = DiscreteTorus(beta=1.0, n=4)
    H = HermitianMatrix(np.array([[0.3]]))
    points = [(torus.zero_index, [1.0], 0), (torus.zero_index, [1.0], 1)]

    def make(M):
        return BoundInstance(H=H, torus=torus, chi=CutoffSpec.one(), M=np.array(M),
                             points=points)

    # an asymmetry of 4e-6 is far above 1e-10 max|M|; accepted, it would let the
    # direct and the modular determinant read different matrices
    with pytest.raises(ValueError, match="symmetric"):
        make([[1.0, 0.5 + 4e-6], [0.5, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        make([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        make([[1.0, 0.0], [0.0, -5e-9]])
    inst = make([[1.0, 0.5 + 1e-12], [0.5, 1.0]])  # within 1e-10 max|M|: symmetrized
    assert np.array_equal(inst.M, inst.M.T)


def _count_eig_calls(monkeypatch) -> list:
    """A list that records each eig_hermitian call from here on."""
    calls = []

    def counting(H):
        calls.append(H)
        return eig_hermitian(H)

    modules = [fermicov] + [importlib.import_module(f"fermicov.{info.name}")
                            for info in pkgutil.iter_modules(fermicov.__path__)]
    for module in modules:  # every module that holds a reference to it
        if getattr(module, "eig_hermitian", None) is eig_hermitian:
            monkeypatch.setattr(module, "eig_hermitian", counting)
    return calls


def test_one_eigendecomposition_per_instance(monkeypatch):
    calls = _count_eig_calls(monkeypatch)
    torus = DiscreteTorus(beta=1.0, n=4)
    points = [(torus.zero_index + a, [1.0, 0.5j], j) for a, j in ((0, 0), (1, 1))]
    inst = BoundInstance(H=HermitianMatrix(np.array([[0.3, 0.2], [0.2, -1.0]])), torus=torus,
                         chi=CutoffSpec.one(), M=np.array([[1.0, 0.4], [0.4, 1.0]]),
                         points=points)
    covariance_det(inst)
    instance_bound(inst)
    determinant_representation(inst, 3.0)
    assert len(calls) == 1


def test_one_eigendecomposition_per_suite_group(monkeypatch):
    # one for each group's stack, and one in generation for each group's pinned members
    calls = _count_eig_calls(monkeypatch)
    insts, pinned = [], []
    for i in range(300):
        calls.clear()
        insts.append(random_instance(instance_seed(4, i), GeneratorConfig()))
        pinned.append(len(calls) == 1)  # generation eigendecomposes an instance it pins
    groups = 0
    for start in range(0, len(insts), CHUNK):
        chunk = range(start, min(start + CHUNK, len(insts)))
        groups += len({(insts[i].H.dim, insts[i].pair_count) for i in chunk})
        groups += len({(insts[i].H.dim, insts[i].pair_count) for i in chunk if pinned[i]})
    calls.clear()
    bound_check_suite(len(insts), seed=4)
    assert any(pinned) and len(calls) == groups


def test_largest_grid_order_keeps_the_antiperiodic_sign():
    # at n = N_CAP the stack's int64 indices, 2n and index sums do not wrap;
    # at lam = 0, g is 1/2 on (-beta, 0] and -1/2 on (0, beta]
    torus = DiscreteTorus(beta=1.0, n=N_CAP)
    for offsets, value in (((3, 0), -0.5), ((0, 3), 0.5), ((N_CAP - 1, 0), -0.5)):
        inst = BoundInstance(H=HermitianMatrix(np.zeros((1, 1))), torus=torus,
                             chi=CutoffSpec.one(), M=np.eye(1),
                             points=[(torus.zero_index + a, [1.0], 0) for a in offsets])
        assert covariance_det(inst) == value


def test_bound_suite_builds_no_instance(monkeypatch):
    # the suite stacks the generator's arrays; it builds no BoundInstance
    built = []
    check = BoundInstance.__post_init__
    monkeypatch.setattr(BoundInstance, "__post_init__",
                        lambda inst: built.append(inst) or check(inst))
    random_instance(instance_seed(4, 0), GeneratorConfig())
    assert len(built) == 1  # the counter sees an instance that is built
    built.clear()
    assert len(bound_check_suite(300, seed=4).checks) == 300
    assert built == []


def test_stack_weights_match_each_cutoff_bitwise():
    # a stack evaluates chi once per cutoff kind; each member keeps the bits of its own call
    insts = random_instances([instance_seed(7, i) for i in range(300)],
                             GeneratorConfig(scale_max=1e6))
    groups = {}
    for inst in insts:
        groups.setdefault((inst.H.dim, inst.pair_count), []).append(inst)
    weights = []
    for members in groups.values():
        stack = InstanceStack.of(members)
        alone = np.array([inst.chi(lams) for inst, lams in zip(members, stack.values)])
        assert stack.weights.tobytes() == alone.tobytes()
        weights.append(stack.weights)
    assert {"one", "indicator", "gaussian"} in [{inst.chi.kind for inst in members}
                                                for members in groups.values()]
    assert any(np.any((w > 0.0) & (w < 1.0)) for w in weights)  # Gaussian values in between


def test_instance_fields_and_its_stack_are_read_only():
    inst = random_instance(instance_seed(4, 0), GeneratorConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.chi = CutoffSpec.one()
    with pytest.raises(ValueError, match="read-only"):
        inst.stack.coefficients[0, 0, 0] = 0.0
    assert not any(array.flags.writeable for array in vars(inst.stack).values())


def test_embedding_norm_exact_and_cov_norm_saturates():
    # the naive Gram estimate degenerates through the embedding norms
    # sqrt(n/2); the covariance operator norm itself stays bounded (~2/pi),
    # so the per-factor product grows like sqrt(n)
    ns = [4, 8, 16, 32]
    cov_norms, embed_norms = [], []
    for n in ns:
        torus = DiscreteTorus(beta=1.0, n=n)
        embed_norms.append(np.sqrt(torus.step * np.sum(delta_ap(torus) ** 2)))  # ||e1^||
        cov_norms.append(np.linalg.norm(covariance_matrix_reduced(np.zeros((1, 1)), torus), 2))
    assert embed_norms == [np.sqrt(n / 2.0) for n in ns]
    assert all(0.63 <= c <= 0.71 for c in cov_norms)
    assert abs(cov_norms[-1] / cov_norms[-2] - 1.0) <= 0.05  # doubling n leaves the norm flat
    factor_exponent = fit_growth_exponent(ns, np.sqrt(cov_norms) * embed_norms)
    assert abs(factor_exponent - 0.5) <= 0.1


def test_gram_demo_resolvent_comparison():
    H = np.diag([0.0, 5.0])
    torus = DiscreteTorus(beta=1.0, n=16)
    # ||C_H|| is the largest resolvent norm 2 ||(del + lam)^-1|| over the spectrum
    dmat = derivative_matrix(torus).astype(complex)
    res = np.array([2.0 * np.linalg.norm(np.linalg.inv(dmat + lam * np.eye(torus.n)), 2)
                    for lam in eig_hermitian(H).values])
    assert res[0] > res[1]  # the zero mode dominates the norm
    assert_allclose(np.linalg.norm(covariance_matrix_reduced(H, torus), 2), res.max(),
                    rtol=1e-10)
    # without a zero mode the norm is finite too
    assert np.isfinite(np.linalg.norm(covariance_matrix_reduced(np.diag([5.0]), torus), 2))


def test_gram_divergence_script_runs(tmp_path):
    # the script reaches its checkout's src/ and tests/oracles.py through sys.path,
    # from any directory and without PYTHONPATH
    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_gram_divergence.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "zero mode present: True" in lines
    rows = [ln.split() for ln in lines[2:]]
    assert [row[0] for row in rows[:5]] == ["4", "8", "16", "32", "64"]
    assert all(len(row) == 4 for row in rows[:5]) and rows[5][0] == "fitted"


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
