"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test is self-timed against its runtime budget.  The terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

import time
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.car_fock import FockSpace, expect_monomial, quasifree_modes, wick_determinant
from fermicov.covariance import BoundInstance, covariance_det, covariance_matrix, kernel_g
from fermicov.cli import main as cli_main
from fermicov.modular import (
    determinant_representation,
    modular_power,
    schatten_norm,
    tube_chain,
)
from fermicov.mspace import bk_matrix, random_tree
from fermicov.spectral import CutoffSpec, HermitianMatrix
from fermicov.torus import DiscreteTorus
from fermicov.verify import GeneratorConfig, bound_check_suite, sharpness_sweep

from oracles import (
    covariance_matrix_reduced,
    dense_covariance_matrix,
    dense_solve_kernel,
    fine_grid_bk,
    fit_growth_exponent,
)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeded {self.limit}s"


def test_criterion_01_kernel_correctness():
    budget = Budget(5.0)
    for beta in (0.5, 1.0, 2.0):
        for n in (2, 4, 8, 16):
            torus = DiscreteTorus(beta=beta, n=n)
            rate = torus.rate
            for i in range(-30, 31):
                lam = (i / 3.0) * rate  # 61 points, i = 3 gives n/beta exactly
                ker = kernel_g(lam, torus)
                assert ker.residual() <= 1e-9 * rate
                dense = dense_solve_kernel(lam, torus)
                scale = np.max(np.abs(dense))
                assert np.max(np.abs(ker.values - dense)) <= 1e-10 * scale
    budget.check()


def test_criterion_02_covariance_oracle_equivalence():
    budget = Budget(30.0)
    rng = np.random.default_rng(202)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.choice([2, 4, 8, 16]))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        torus = DiscreteTorus(beta=beta, n=n)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = HermitianMatrix((A + A.conj().T) / 2 * rng.uniform(0.2, 2.0) * torus.rate)
        chi = CutoffSpec.gaussian(float(rng.normal()), float(torus.rate * rng.uniform(0.5, 2.0)))
        # N = 3 pairs: nine entries whose time differences span (-beta, beta)
        points = [(torus.zero_index + int(rng.integers(0, n)),
                   rng.normal(size=d) + 1j * rng.normal(size=d), 0) for _ in range(6)]
        inst = BoundInstance(H=H, torus=torus, chi=chi, M=np.array([[1.0]]), points=points)
        fast, slow = covariance_matrix(inst), dense_covariance_matrix(inst)
        assert np.all(np.abs(fast - slow) <= 1e-9 * np.maximum(np.abs(slow), 1e-12))
    budget.check()


def test_criterion_03_generalized_wick_exhaustive():
    budget = Budget(120.0)
    rng = np.random.default_rng(303)
    modes = 4
    fock = FockSpace(modes)
    for N in (1, 2, 3):
        draws = []
        for _ in range(10):
            A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
            V, logp, symbol = quasifree_modes((A + A.conj().T) / 2, beta=1.0)
            vecs = [rng.normal(size=modes) + 1j * rng.normal(size=modes)
                    for _ in range(2 * N)]
            draws.append((logp, symbol, vecs, [V.conj().T @ v for v in vecs]))
        logp, symbol, vecs, in_modes = map(np.array, zip(*draws))
        # every permutation against every draw: one stack of (permutation, draw)
        perms = np.array(list(permutations(range(2 * N))))[:, None, :]
        direct = expect_monomial(fock, logp, in_modes, perms, N)
        det = wick_determinant(symbol, vecs, perms)
        assert direct.shape == det.shape == (len(perms), 10)
        large = np.abs(direct) > 1e-6
        assert np.all(np.abs(direct - det)[large] <= 1e-10 * np.abs(direct)[large])
        assert np.all(np.abs(direct - det)[~large] <= 1e-12)
    # unbalanced monomials vanish
    V, logp, _ = quasifree_modes(np.diag([0.4, -1.0, 2.0, 0.1]), beta=1.0)
    for n1, n2 in [(1, 2), (2, 1), (3, 2), (1, 3), (2, 3), (3, 1)]:
        vecs = [V.conj().T @ (rng.normal(size=modes) + 1j * rng.normal(size=modes))
                for _ in range(n1 + n2)]
        perm = tuple(rng.permutation(n1 + n2))
        assert abs(expect_monomial(fock, logp, vecs, perm, n1)) <= 1e-12
    budget.check()


def _representation_instance(seed):
    """A seeded instance with D = d * rank(M) <= 8, spectrum off the singular
    value, and a determinant large enough for a relative comparison."""
    rng = np.random.default_rng(seed)
    while True:
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(1, 3))
        n = int(rng.choice([2, 4]))
        beta = float(rng.choice([0.5, 1.0]))
        torus = DiscreteTorus(beta=beta, n=n)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (A + A.conj().T) / 2 * rng.uniform(0.3, 2.0)
        if np.min(np.abs(np.linalg.eigvalsh(H) - torus.rate)) < 0.1 * torus.rate:
            continue
        B = rng.normal(size=(m, m))
        M = B @ B.T
        if d * np.linalg.matrix_rank(M, tol=1e-9) > 8:
            continue
        points = [
            (torus.zero_index + int(rng.integers(0, n)),
             rng.normal(size=d) + 1j * rng.normal(size=d),
             int(rng.integers(0, m)))
            for _ in range(2 * N)
        ]
        inst = BoundInstance(H=HermitianMatrix(H), torus=torus,
                             chi=CutoffSpec.gaussian(0.0, 2.0 * torus.rate),
                             M=M, points=points)
        det = covariance_det(inst)
        if abs(det) > 1e-6:
            return inst, det


def test_criterion_04_representation_identity():
    budget = Budget(300.0)
    for idx in range(50):
        inst, det = _representation_instance(4000 + idx)
        rep = determinant_representation(inst, eta=3.0)
        assert abs(rep - det) <= 1e-8 * abs(det)
    # eta sweep with an eigenvalue pinned on the singular value
    rng = np.random.default_rng(404)
    done = 0
    while done < 5:
        torus = DiscreteTorus(beta=1.0, n=4)
        V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        H = HermitianMatrix((V * np.array([torus.rate, float(rng.normal())])) @ V.conj().T)
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
        if errors[0] < 1e-10:  # no weight on the singular mode; resample
            continue
        assert all(a > b for a, b in zip(errors, errors[1:])), errors
        done += 1
    budget.check()


def test_criterion_05_holder_and_modular_bounds():
    budget = Budget(120.0)
    rng = np.random.default_rng(505)
    # (a) unitarity of the modular flow and the fixed point
    for _ in range(10):
        modes = int(rng.integers(2, 5))
        A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        _, logp, _ = quasifree_modes((A + A.conj().T) / 2, beta=float(rng.uniform(0.5, 2.0)))
        eta = np.diag(np.exp(logp / 2))
        moved = modular_power(logp, float(rng.uniform(-1, 1)), eta)
        assert np.max(np.abs(moved - eta)) <= 1e-11
        X = rng.normal(size=(2**modes,) * 2) + 1j * rng.normal(size=(2**modes,) * 2)
        flowed = modular_power(logp, 1j * float(rng.uniform(-4, 4)), X)
        assert abs(np.linalg.norm(flowed) - np.linalg.norm(X)) <= 1e-11 * np.linalg.norm(X)
    # (b) Schatten Hoelder on 200 random pairs and triples
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r = float(rng.uniform(1.0, 4.0))
        u = float(rng.uniform(0.05, 0.95))
        slack = (schatten_norm(A, r / u) * schatten_norm(B, r / (1 - u))
                 - schatten_norm(A @ B, r))
        assert slack >= -1e-10
        C = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w = rng.uniform(0.1, 1.0, size=3)
        w /= w.sum()
        slack3 = (schatten_norm(A, r / w[0]) * schatten_norm(B, r / w[1])
                  * schatten_norm(C, r / w[2]) - schatten_norm(A @ B @ C, r))
        assert slack3 >= -1e-10
    # (c) correlation-vector bound on 100 tube chains per state, 10 states
    for _ in range(10):
        modes = int(rng.integers(2, 5))
        A = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        beta = float(rng.uniform(0.5, 2.0))
        V, logp, _ = quasifree_modes((A + A.conj().T) / 2 * float(rng.uniform(0.5, 3.0)), beta)
        fock = FockSpace(modes)
        for _ in range(100):
            Nc = int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, size=Nc)
            re = raw / raw.sum() * rng.uniform(0, 0.5) * beta
            product, chain = 1.0, []
            for q in range(Nc):
                psi = rng.normal(size=modes) + 1j * rng.normal(size=modes)
                is_creator = rng.uniform() < 0.5
                chain.append((re[q] + 1j * float(rng.normal()), (V.conj().T @ psi, is_creator)))
                product *= np.linalg.norm(psi)
            assert product - tube_chain(fock, logp, beta, chain).norm() >= -1e-10
    budget.check()


def test_criterion_06_determinant_bound_at_scale():
    budget = Budget(600.0)
    checks = bound_check_suite(10_000, GeneratorConfig(), seed=606).checks
    failures = checks[~checks["pass"]]
    assert failures.tolist() == []
    budget.check()


def test_criterion_07_sharpness_and_universal_bracket():
    budget = Budget(60.0)
    # closed form against covariance_det over a (lam, n, N) grid
    for beta in (1.0,):
        for n in (4, 8, 16):
            torus = DiscreteTorus(beta=beta, n=n)
            for lam_units in (-20.0, -5.0, -1.0, 0.0, 0.7, 3.0):
                lam = lam_units * torus.rate
                for N in (1, 2, 3):
                    basis = np.eye(N)
                    points = [(torus.zero_index, basis[k], 0) for k in range(N)] * 2
                    inst = BoundInstance(
                        H=HermitianMatrix(lam * np.eye(N)), torus=torus,
                        chi=CutoffSpec.one(), M=np.array([[1.0]]), points=points,
                    )
                    x = 1.0 - lam / torus.rate
                    closed = x ** (-N) * (1.0 + abs(x) ** (-n)) ** (-N)
                    det = covariance_det(inst)
                    assert abs(det - closed) <= 1e-12 * abs(closed)
    # sweeps bracket the universal constant
    for eps in (0.1, 0.01):
        for w in sharpness_sweep(eps, beta=1.0, N_list=(1, 2, 4, 8)):
            assert w["det_abs"] >= (1.0 - eps) ** (2 * w["N"]) - 1e-12
            lower = w["det_abs"] ** (1.0 / (2 * w["N"]))
            assert lower >= 1.0 - eps - 1e-6
            assert lower <= 1.0 + 1e-12
    budget.check()


def test_criterion_08_gram_divergence_demonstrator():
    budget = Budget(10.0)
    ns = [4, 8, 16, 32, 64]  # H = 0 has a zero mode; beta = 1
    cov_norms = [float(np.linalg.norm(covariance_matrix_reduced(np.zeros((1, 1)),
                                                                DiscreteTorus(1.0, n)), 2))
                 for n in ns]
    gram_factors = [float(np.sqrt(c) * np.sqrt(n / 2.0)) for c, n in zip(cov_norms, ns)]
    exponent = fit_growth_exponent(ns, cov_norms)
    budget.check()
    assert abs(exponent - 0.5) <= 0.1, (
        f"fitted growth exponent of the covariance operator norm is {exponent:.4f}; "
        f"the norm saturates near 2/pi = {2 / np.pi:.4f} "
        f"(values: {[round(c, 6) for c in cov_norms]}) while the embedding norms "
        f"sqrt(n/2) and the per-factor products "
        f"{[round(g, 4) for g in gram_factors]} carry the sqrt(n) growth "
        f"(exponent {fit_growth_exponent(ns, gram_factors):.4f})"
    )


def test_criterion_09_bk_matrices():
    budget = Budget(10.0)
    rng = np.random.default_rng(909)
    for _ in range(500):
        m = int(rng.integers(1, 9))
        tree = random_tree(m, rng)
        t = float(rng.uniform(0.0, 1.0))
        M = bk_matrix(tree, t)
        assert np.linalg.eigvalsh(M).min() >= -1e-10
        assert np.max(np.abs(np.diag(M) - t)) == 0.0
        later = bk_matrix(tree, min(1.0, t + rng.uniform(0.0, 1.0 - t)))
        assert np.all(later - M >= -1e-14)
    for a in (0.15, 0.62):
        from fermicov.mspace import TreeGraph

        g = TreeGraph(m=2, edges=((0, 1),), weights=np.array([a]))
        M = bk_matrix(g, 1.0)
        assert_allclose(M, [[1.0, 1.0 - a], [1.0 - a, 1.0]], atol=1e-14)
        approx = fine_grid_bk(g.edges, g.weights, 2, 1.0, samples=10_000)
        assert np.max(np.abs(M - approx)) <= 2e-4
    budget.check()


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = cli_main(["bound-check", "--count", "60", "--seed", "1010",
                         "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
