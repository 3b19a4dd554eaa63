import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fermicov.mspace import TreeGraph, bk_matrices, bk_matrix, quotient_space, random_tree

from oracles import fine_grid_bk, reference_bk_matrix


def gram(coords):
    """The Gram matrix of the e_k coordinates, which reproduces M."""
    return coords @ coords.conj().T


def test_quotient_identity():
    coords = quotient_space(np.eye(3))
    assert coords.shape == (3, 3)
    assert_allclose(gram(coords), np.eye(3), atol=1e-12)


def test_quotient_all_ones():
    coords = quotient_space(np.ones((2, 2)))
    assert coords.shape == (2, 1)
    assert_allclose(coords, [[1.0], [1.0]], atol=1e-12)


def test_quotient_reconstructs_random_gram(rng):
    for m, r in [(4, 2), (5, 5), (3, 1)]:
        B = rng.normal(size=(m, r))
        M = B @ B.T
        coords = quotient_space(M)
        assert coords.shape == (m, np.linalg.matrix_rank(M, tol=1e-9))
        assert np.max(np.abs(gram(coords) - M)) <= 1e-10 * max(1.0, np.abs(M).max())


def test_quotient_idempotent(rng):
    B = rng.normal(size=(4, 2))
    qs1 = quotient_space(B @ B.T)
    qs2 = quotient_space(gram(qs1))
    assert_allclose(gram(qs1), gram(qs2), atol=1e-11)


def test_quotient_rejects_bad_input():
    with pytest.raises(ValueError):
        quotient_space(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        quotient_space(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        quotient_space(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quotient_applies_the_instance_rule_for_m():
    # -5e-9 max|M| is below the PSD limit of -1e-10 max|M|, not a null direction
    with pytest.raises(ValueError, match="positive semidefinite"):
        quotient_space(np.diag([1.0, -5e-9]))
    with pytest.raises(ValueError, match="finite"):
        quotient_space(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        quotient_space(np.array([[1.0, 0.5 + 4e-6], [0.5, 1.0]]))


def test_tree_validation():
    for weight in (1.5, -0.1, np.nan):  # nan compares false both ways
        with pytest.raises(ValueError, match=r"edge weights must lie in \[0, 1\]"):
            TreeGraph(m=3, edges=((0, 1),), weights=np.array([weight]))
    with pytest.raises(ValueError, match=r"bad edge \(0, 3\) on 3 vertices"):
        TreeGraph(m=3, edges=((0, 3),), weights=np.array([0.5]))
    with pytest.raises(ValueError, match=r"bad edge \(1, 1\) on 3 vertices"):
        TreeGraph(m=3, edges=((1, 1),), weights=np.array([0.5]))  # self-loop
    with pytest.raises(ValueError, match=r"bad edge \(-1, 0\) on 3 vertices"):
        TreeGraph(m=3, edges=((-1, 0),), weights=np.array([0.5]))
    # one weight per edge, as a 1-d array: a scalar or a column is rejected too
    for weights in (np.array([0.5]), np.float64(0.5), np.array([[0.5], [0.2]])):
        with pytest.raises(ValueError, match="one weight per edge required"):
            TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=weights)
    TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=np.array([0.5, 0.2]))
    g = TreeGraph(m=3, edges=((0, 1), (1, 2)), weights=[-0.0, 1.0])  # both ends of [0, 1]
    assert g.weights.dtype == float and g.weights.tolist() == [0.0, 1.0]


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


def test_bk_bits_match_the_interval_sum():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        m = int(rng.integers(1, 9))
        g = random_tree(m, rng)
        t = float(rng.choice([0.0, 1.0, rng.uniform(), round(rng.uniform(), 1)]))
        if m > 1 and rng.uniform() < 0.3:  # ties with each other and with t, and -0.0
            weights = np.where(rng.uniform(size=m - 1) < 0.3, -0.0, np.round(g.weights, 1))
            g = TreeGraph(m=m, edges=g.edges, weights=weights)
        assert bk_matrix(g, t).tobytes() == reference_bk_matrix(g, t).tobytes()
    # general graphs: cycles, parallel edges, isolated vertices, disconnected parts
    for _ in range(3000):
        m = int(rng.integers(2, 9))
        edges = [rng.choice(m, 2, replace=False) for _ in range(rng.integers(0, 2 * m))]
        weights = rng.uniform(size=len(edges))
        weights = np.where(rng.uniform(size=len(edges)) < 0.5, np.round(weights, 1), weights)
        weights[rng.uniform(size=len(edges)) < 0.2] = -0.0
        g = TreeGraph(m=m, edges=edges, weights=weights)
        t = float(rng.choice([0.0, 1.0, rng.uniform(), round(rng.uniform(), 1)]))
        assert bk_matrix(g, t).tobytes() == reference_bk_matrix(g, t).tobytes()
    # a -0.0 edge parallel to a 0.0 edge and visited first (ties go by edge), a
    # triangle, a second part, and vertex 5 alone
    g = TreeGraph(m=6, edges=((1, 0), (0, 1), (1, 2), (2, 0), (3, 4)),
                  weights=np.array([0.0, -0.0, 0.5, 0.5, 0.2]))
    for t in (0.0, 0.2, 0.5, 0.7, 1.0):
        assert bk_matrix(g, t).tobytes() == reference_bk_matrix(g, t).tobytes()
    for m in (0, 3):  # no edges: still a float (m, m) array, which tobytes() cannot tell
        g = TreeGraph(m=m, edges=(), weights=np.zeros(0))
        M = bk_matrix(g, 0.7)
        assert M.dtype == np.float64 and M.shape == (m, m)
        assert M.tobytes() == reference_bk_matrix(g, 0.7).tobytes()


def test_bk_matrices_give_each_graph_its_own_bits():
    # one stack of general graphs on 6 vertices, 9 edges each: ties, -0.0, weights at
    # and above t, and t at 0 and 1; each slot is its graph's interval sum alone
    rng = np.random.default_rng(12)
    B, m, E = 400, 6, 9
    edges = np.array([[rng.choice(m, 2, replace=False) for _ in range(E)] for _ in range(B)])
    weights = np.where(rng.uniform(size=(B, E)) < 0.5, np.round(rng.uniform(size=(B, E)), 1),
                       rng.uniform(size=(B, E)))
    weights[rng.uniform(size=(B, E)) < 0.1] = -0.0
    t = rng.choice([0.0, 1.0, 0.5, *rng.uniform(size=5)], size=B)
    stack = bk_matrices(m, edges, weights, t)
    for M, e, w, tb in zip(stack, edges, weights, t.tolist()):
        g = TreeGraph(m=m, edges=e, weights=w)
        assert M.tobytes() == reference_bk_matrix(g, tb).tobytes() == bk_matrix(g, tb).tobytes()
    with pytest.raises(ValueError, match="t must lie in"):
        bk_matrices(m, edges[:2], weights[:2], np.array([0.5, np.nan]))
