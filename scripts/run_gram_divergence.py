#!/usr/bin/env python3
"""Print the Gram-degeneration table for H = 0 over a decade of grid sizes.

The covariance operator norm saturates near 2*beta/pi while the embedding
norm sqrt(n/(2*beta)) grows like sqrt(n); their product is the per-factor
weight the naive Gram determinant estimate would charge.  The dense
covariance matrix comes from the reference computations in tests/oracles.py.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package and oracles
from fermicov.spectral import eig_hermitian  # noqa: E402
from fermicov.torus import DiscreteTorus  # noqa: E402
from oracles import covariance_matrix_reduced, fit_growth_exponent  # noqa: E402

if __name__ == "__main__":
    ns, H = [4, 8, 16, 32, 64], np.zeros((1, 1))
    cov_norms = [float(np.linalg.norm(covariance_matrix_reduced(H, DiscreteTorus(1.0, n)), 2))
                 for n in ns]
    embed_norms = [float(np.sqrt(n / 2.0)) for n in ns]
    gram_factors = [float(np.sqrt(c) * e) for c, e in zip(cov_norms, embed_norms)]
    print(f"zero mode present: {bool(np.any(np.abs(eig_hermitian(H).values) <= 1e-9))}")
    print(f"{'n':>4}  {'cov_norm':>10}  {'embed_norm':>10}  {'gram_factor':>11}")
    for row in zip(ns, cov_norms, embed_norms, gram_factors):
        print("{:>4}  {:>10.6f}  {:>10.6f}  {:>11.6f}".format(*row))
    print(f"fitted exponent cov_norm:    {fit_growth_exponent(ns, cov_norms):+.4f}")
    print(f"fitted exponent gram_factor: {fit_growth_exponent(ns, gram_factors):+.4f}")
    print(f"saturation value 2 beta / pi = {2 / np.pi:.6f}")
