import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fermicov.mspace import TreeGraph, bk_matrix, quotient_space, random_tree

from oracles import fine_grid_bk


def test_quotient_identity():
    qs = quotient_space(np.eye(3))
    assert qs.rank == 3
    assert_allclose(qs.coords @ qs.coords.conj().T, np.eye(3), atol=1e-12)


def test_quotient_all_ones():
    qs = quotient_space(np.ones((2, 2)))
    assert qs.rank == 1
    assert qs.coords.shape == (2, 1)
    assert_allclose(qs.coords, [[1.0], [1.0]], atol=1e-12)


def test_quotient_reconstructs_random_gram(rng):
    for m, r in [(4, 2), (5, 5), (3, 1)]:
        B = rng.normal(size=(m, r))
        M = B @ B.T
        qs = quotient_space(M)
        assert qs.rank == np.linalg.matrix_rank(M, tol=1e-9)
        assert np.max(np.abs(qs.gram() - M)) <= 1e-10 * max(1.0, np.abs(M).max())


def test_quotient_idempotent(rng):
    B = rng.normal(size=(4, 2))
    qs1 = quotient_space(B @ B.T)
    qs2 = quotient_space(qs1.gram())
    assert_allclose(qs1.gram(), qs2.gram(), atol=1e-11)


def test_quotient_rejects_bad_input():
    with pytest.raises(ValueError):
        quotient_space(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        quotient_space(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        quotient_space(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_tree_validation():
    with pytest.raises(ValueError):
        TreeGraph(m=3, edges=((0, 1),), weights=np.array([1.5]))
    with pytest.raises(ValueError):
        TreeGraph(m=3, edges=((0, 3),), weights=np.array([0.5]))
    with pytest.raises(ValueError):
        TreeGraph(m=3, edges=((1, 1),), weights=np.array([0.5]))  # self-loop
    with pytest.raises(ValueError):
        TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=np.array([0.5]))
    TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=np.array([0.5, 0.2]))


def test_single_edge_closed_form_and_fine_grid():
    for a in (0.0, 0.3, 0.77, 1.0):
        g = TreeGraph(m=2, edges=((0, 1),), weights=np.array([a]))
        M = bk_matrix(g, 1.0)
        assert_allclose(M, [[1.0, 1.0 - a], [1.0 - a, 1.0]], atol=1e-14)
        approx = fine_grid_bk(g.edges, g.weights, 2, 1.0, samples=10_000)
        assert np.max(np.abs(M - approx)) <= 2e-4


def test_path_graph_closed_form():
    a, b = 0.25, 0.6
    g = TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=np.array([a, b]))
    M = bk_matrix(g, 1.0)
    assert_allclose(M[0, 1], 1.0 - a, atol=1e-14)
    assert_allclose(M[1, 2], 1.0 - b, atol=1e-14)
    assert_allclose(M[0, 2], 1.0 - b, atol=1e-14)
    approx = fine_grid_bk(g.edges, g.weights, 3, 1.0, samples=10_000)
    assert np.max(np.abs(M - approx)) <= 2e-4


def test_bk_zero_time_and_partial_time():
    g = TreeGraph(m=4, edges=((0, 1), (1, 2), (2, 3)), weights=np.array([0.2, 0.5, 0.8]))
    assert np.all(bk_matrix(g, 0.0) == 0.0)
    M = bk_matrix(g, 0.4)
    assert_allclose(np.diag(M), 0.4)
    assert_allclose(M[0, 1], 0.2)  # connected only on (0.2, 0.4)
    assert M[1, 2] == 0.0
    with pytest.raises(ValueError):
        bk_matrix(g, 1.2)


def test_bk_accepts_general_graphs():
    g = TreeGraph(m=3, edges=((0, 1), (1, 2), (0, 2)), weights=np.array([0.1, 0.2, 0.9]))
    M = bk_matrix(g, 1.0)
    # the cycle-closing edge is redundant once the path connects 0 and 2
    assert_allclose(M[0, 2], 1.0 - 0.2, atol=1e-14)


@given(seed=st.integers(0, 2**31), m=st.integers(1, 8), t=st.floats(0.0, 1.0))
def test_bk_psd_and_monotone(seed, m, t):
    rng = np.random.default_rng(seed)
    g = random_tree(m, rng)
    M = bk_matrix(g, t)
    assert np.linalg.eigvalsh(M).min() >= -1e-10
    assert_allclose(np.diag(M), t, atol=1e-14)
    later = bk_matrix(g, min(1.0, t + 0.25))
    assert np.all(later - M >= -1e-14)
