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
    eig_hermitian,
)
from fermicov.covariance import (
    BoundInstance,
    InstanceStack,
    KernelEval,
    covariance_det,
    covariance_matrix,
    kernel_g,
)
from fermicov.mspace import TreeGraph, bk_matrix, quotient_space
from fermicov.car_fock import (
    FockChain,
    FockSpace,
    expect_monomial,
    quasifree_modes,
    wick_determinant,
    wick_suite,
)
from fermicov.modular import (
    determinant_representation,
    modular_power,
    modular_suite,
    schatten_norm,
    tube_chain,
)
from fermicov.verify import (
    SHARPNESS,
    BoundSuiteResult,
    bound_check_suite,
    sharpness_sweep,
    universal_bound_estimate,
    witness_pass,
)

__version__ = "0.1.0"
