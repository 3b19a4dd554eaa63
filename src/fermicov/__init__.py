"""Numerical verification of determinant bounds for fermionic covariances.

The package instantiates, at desk scale, the objects behind sharp bounds on
determinants of discrete imaginary-time fermionic covariances: the discrete
antiperiodic torus and its covariance kernels, quasi-free states on finite
fermionic Fock spaces, the finite-dimensional modular operator, and the
Schatten/Hoelder inequalities that produce a universal per-factor bound of 1.
Every analytic formula is cross-checked against an independent brute-force
oracle (dense linear solves, explicit Fock-space traces; see tests/oracles.py).
"""

from fermicov.torus import DiscreteTorus, delta_ap
from fermicov.spectral import (
    CutoffSpec,
    HermitianMatrix,
    SpectralData,
    bernoulli_euler_rate,
    eig_hermitian,
)
from fermicov.covariance import (
    BoundInstance,
    KernelEval,
    covariance_det,
    covariance_entry,
    decay_parameter,
    gram_norm_demo,
    kernel_g,
    kernel_g_continuum,
)
from fermicov.mspace import QuotientSpace, TreeGraph, bk_matrix, quotient_space
from fermicov.car_fock import (
    FockChain,
    FockSpace,
    MonomialSpec,
    expect_monomial,
    quasifree_modes,
    wick_determinant,
)
from fermicov.modular import (
    determinant_representation,
    modular_power,
    schatten_norm,
    tube_chain,
)
from fermicov.verify import (
    BoundReport,
    SharpnessReport,
    bound_check_suite,
    sharpness_sweep,
    universal_bound_estimate,
)

__version__ = "0.1.0"
