import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.car_fock import permutation_sign
from fermicov.covariance import BoundInstance, covariance_det
from fermicov.spectral import CutoffSpec, rate_terms
from fermicov.torus import DiscreteTorus
from fermicov.verify import (
    GeneratorConfig,
    _pick,
    bound_check_suite,
    instance_seed,
    ordering_from_grid,
    random_instance,
    sharpness_sweep,
    universal_bound_estimate,
)

from oracles import ordering_brute_force


def positions(placement):
    """The inverse of placement: pi[q] is the position of point q."""
    pi = [0] * len(placement)
    for pos, q in enumerate(placement):
        pi[q] = pos
    return tuple(pi)


def test_ordering_trivial_pair():
    order = ordering_from_grid([0, 0], 1, 4)
    assert order.placement == (0, 1)
    assert positions(order.placement) == (0, 1)
    assert permutation_sign(positions(order.placement)) == 1
    assert order.rep_sign == 1
    assert order.alpha_tilde == (0, 1)
    assert order.xi == (1 / 4,)


def test_ordering_reference_example():
    a = [2, 0, 0, 2]  # alphas 0.5, 0, 0, 0.5 at beta = 1, n = 4
    order = ordering_from_grid(a, 2, 4)
    assert order.placement == (1, 2, 0, 3)  # shifted times 0.5, 0, 0.25, 0.75
    assert permutation_sign(positions(order.placement)) == 1
    # the brute-force search over all 24 permutations finds exactly this one
    valid = ordering_brute_force(a, 2)
    assert valid == [(1, 2, 0, 3)]


def test_ordering_tie_break_by_index():
    order = ordering_from_grid([1, 1, 2, 2], 2, 4)
    assert order.placement == (0, 1, 2, 3)


def test_ordering_satisfies_conditions_at_random(rng):
    n = 8
    for _ in range(50):
        N = int(rng.integers(1, 4))
        a = [int(rng.integers(0, n)) for _ in range(2 * N)]
        order = ordering_from_grid(a, N, n)
        tilde = order.alpha_tilde
        pi = positions(order.placement)
        # both footnote conditions, re-inspected on the output
        for k in range(2 * N):
            for l in range(2 * N):
                if a[k] < a[l]:
                    assert pi[k] < pi[l]
        for k in range(N):
            for l in range(N, 2 * N):
                if a[k] == a[l]:
                    assert pi[k] < pi[l]
        assert all(x >= 0 for x in order.xi)
        total = sum(tilde[order.placement[u]] - tilde[order.placement[u - 1]]
                    for u in range(1, 2 * N))
        assert total == max(tilde) - min(tilde)  # exact integer telescoping
        assert order.placement in ordering_brute_force(a, N)
        # canonical CAR tuple: creators ascending, then annihilators descending
        slots = list(range(N)) + list(range(2 * N - 1, N - 1, -1))
        assert order.rep_sign == permutation_sign([slots.index(q) for q in order.placement])


def test_ordering_rejects_bad_points():
    with pytest.raises(ValueError):
        ordering_from_grid([0, -1], 1, 4)  # alpha < 0
    with pytest.raises(ValueError):
        ordering_from_grid([0, 4], 1, 4)  # alpha = beta excluded
    with pytest.raises(ValueError):
        ordering_from_grid([0, 1, 2], 1, 4)


def test_bound_suite_no_failures(rng):
    reports = bound_check_suite(150, GeneratorConfig(), seed=7)
    assert len(reports) == 150
    assert all(r.passed for r in reports)
    assert all(np.isfinite(r.bound) and np.isfinite(abs(r.det)) for r in reports)


def test_bound_suite_deterministic():
    a = bound_check_suite(25, GeneratorConfig(), seed=3)
    b = bound_check_suite(25, GeneratorConfig(), seed=3)
    for ra, rb in zip(a, b):
        assert ra.seed == rb.seed
        assert ra.det == rb.det
        assert ra.bound == rb.bound


def test_generated_instances_pass_full_validator():
    config = GeneratorConfig()
    pinned = 0
    for i in range(2000):
        inst = random_instance(instance_seed(21, i), config)
        checked = BoundInstance(H=inst.H, torus=inst.torus, chi=inst.chi,
                                M=inst.M.copy(), points=list(inst.points))
        assert np.array_equal(checked.M, inst.M)
        for (ia, pa, ja), (ib, pb, jb) in zip(checked.points, inst.points):
            assert ia == ib and ja == jb and np.array_equal(pa, pb)
        eigs = np.linalg.eigvalsh(inst.H.matrix)
        pinned += bool(np.any(rate_terms(eigs, inst.torus)[0]))
    assert pinned >= 50  # pinned eigenvalues are among the validated instances


def test_pick_replays_rng_choice():
    for seed in range(200):
        for options in ((2, 4, 8), (0.5, 1.0, 2.0), ("one", "indicator", "gaussian")):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _pick(a, options) == b.choice(options)
            assert a.integers(0, 2**62) == b.integers(0, 2**62)  # same draws consumed


def test_zero_cutoff_gives_zero_det():
    inst = random_instance(instance_seed(5, 0), GeneratorConfig())
    inst.chi = CutoffSpec.indicator(1e300, 1e300)  # 0 on every generated spectrum
    assert covariance_det(inst) == 0.0


def test_replay_instance_bit_exact():
    seed = instance_seed(42, 17)
    a = random_instance(seed, GeneratorConfig())
    b = random_instance(seed, GeneratorConfig())
    assert a.torus == b.torus
    assert np.array_equal(a.H.matrix, b.H.matrix)
    assert np.array_equal(a.M, b.M)
    for (ia, pa, ja), (ib, pb, jb) in zip(a.points, b.points):
        assert ia == ib and ja == jb and np.array_equal(pa, pb)


def test_sharpness_closed_form_at_lambda_zero():
    torus = DiscreteTorus(beta=1.0, n=8)
    from fermicov.covariance import BoundInstance
    from fermicov.spectral import HermitianMatrix

    for N in (1, 2, 4):
        basis = np.eye(N)
        points = [(torus.zero_index, basis[k], 0) for k in range(N)] * 2
        inst = BoundInstance(
            H=HermitianMatrix(np.zeros((N, N))), torus=torus,
            chi=CutoffSpec.one(), M=np.array([[1.0]]), points=points,
        )
        assert_allclose(covariance_det(inst), 2.0 ** (-N), rtol=1e-13)


def test_sharpness_sweep_epsilon_01():
    reports = sharpness_sweep(0.1, beta=1.0, N_list=(1, 2, 4, 8))
    for rep in reports:
        assert rep.det_abs >= (1.0 - 0.1) ** (2 * rep.N) - 1e-12
        assert_allclose(rep.det_abs, rep.closed_form, rtol=1e-12)
        assert rep.kernel_at_zero >= 0.9
        assert rep.lam < 0.0


def test_sharpness_search_fails_for_impossible_epsilon():
    with pytest.raises(RuntimeError):
        sharpness_sweep(1e-12, beta=1.0, N_list=(1,), n_cap=64)


def test_universal_bracket_and_monotonicity():
    bounds = bound_check_suite(50, GeneratorConfig(), seed=1)
    sharp_01 = sharpness_sweep(0.1, beta=1.0, N_list=(1, 2))
    bracket = universal_bound_estimate(bounds, sharp_01)
    assert bracket.upper == 1.0
    assert bracket.violations == 0
    assert bracket.lower >= 0.9 - 1e-6
    sharp_001 = sharpness_sweep(0.01, beta=1.0, N_list=(1, 2))
    tighter = universal_bound_estimate(bounds, sharp_001)
    assert tighter.lower >= bracket.lower - 1e-12
    with pytest.raises(ValueError):
        universal_bound_estimate([], sharp_01)
