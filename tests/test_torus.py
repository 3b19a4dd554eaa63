import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermicov.torus import DiscreteTorus, delta_ap, derivative_matrix

from oracles import full_redundant_operator


def test_torus_validation():
    with pytest.raises(ValueError):
        DiscreteTorus(beta=1.0, n=3)
    with pytest.raises(ValueError):
        DiscreteTorus(beta=1.0, n=0)
    with pytest.raises(ValueError):
        DiscreteTorus(beta=-1.0, n=2)
    for beta in (np.inf, np.nan):  # inf would give rate 0 and an all-NaN kernel
        with pytest.raises(ValueError, match="finite"):
            DiscreteTorus(beta=beta, n=4)


def test_grid_layout():
    torus = DiscreteTorus(beta=1.0, n=2)
    assert_allclose([torus.alpha(i) for i in range(torus.size)], [-0.5, 0.0, 0.5, 1.0])
    assert torus.alpha(torus.zero_index) == 0.0 and torus.zero_index == 1
    assert torus.alpha(torus.beta_index) == 1.0 and torus.beta_index == 3
    assert torus.alpha(-1) == 1.0  # indices wrap mod 2n: -beta identified with beta
    assert torus.index_diff(torus.zero_index, torus.beta_index) == torus.beta_index


def test_delta_values_beta1_n2():
    torus = DiscreteTorus(beta=1.0, n=2)
    d = delta_ap(torus)
    assert d.shape == (torus.size,) and d.dtype == float
    assert d.tolist() == [0.0, 1.0, 0.0, -1.0]  # alpha = -0.5, 0, 0.5, 1


def test_delta_values_beta2_n4():
    torus = DiscreteTorus(beta=2.0, n=4)
    d = delta_ap(torus)
    assert d[torus.zero_index] == 1.0
    assert d[torus.beta_index] == -1.0
    nonzero = np.flatnonzero(d)
    assert len(nonzero) == 2


@pytest.mark.parametrize("beta,n", [(1.0, 2), (0.5, 4), (2.0, 8), (3.0, 6)])
def test_delta_self_inner(beta, n):
    torus = DiscreteTorus(beta=beta, n=n)
    d = delta_ap(torus)
    # <d, d> = (beta/n) sum_alpha |d(alpha)|^2
    assert_allclose(torus.step * np.vdot(d, d), n / beta / 2, rtol=1e-14)


def test_derivative_matches_matrix_form(rng):
    # the reduced matrix is the redundant forward difference on antiperiodic vectors
    torus = DiscreteTorus(beta=1.3, n=8)
    full = full_redundant_operator(np.zeros((1, 1)), torus)
    half = rng.normal(size=torus.n) + 1j * rng.normal(size=torus.n)
    df = full @ np.concatenate([half, -half])
    assert_allclose(df[torus.n:], -df[: torus.n], rtol=1e-13, atol=1e-13)
    assert_allclose(derivative_matrix(torus) @ half, df[: torus.n], rtol=1e-13, atol=1e-13)


def test_derivative_of_piecewise_constant():
    torus = DiscreteTorus(beta=1.0, n=8)
    df = derivative_matrix(torus) @ np.full(torus.n, 0.7)
    # on (-beta, 0] the only jump is at the seam alpha = 0
    nonzero = set(np.flatnonzero(np.abs(df) > 1e-14))
    assert nonzero == {torus.zero_index}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_imaginary_part_of_derivative_bounded_below(n):
    torus = DiscreteTorus(beta=1.0, n=n)
    M = derivative_matrix(torus)
    im = (M - M.conj().T) / 2j
    gap = np.min(np.abs(np.linalg.eigvalsh(im)))
    assert gap > 0.5  # approaches pi/beta from above
    assert np.min(np.abs(np.linalg.svd(M, compute_uv=False))) > 0
