"""Color Hilbert space from a PSD matrix, and tree-interpolation matrices.

A positive semidefinite m x m matrix defines a (possibly degenerate)
sesquilinear form on C^m; quotienting out the null space leaves an
r-dimensional Hilbert space in which the canonical images e_k have Gram
matrix exactly M.  The interpolation matrices of tree expansions are
integrated exactly here: a pair, once joined, stays joined as s grows, so its
entry is the sum of the interval lengths from its joining weight to t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TreeGraph", "psd_eigh", "quotient_space", "bk_matrix", "random_tree"]

PSD_TOL = 1e-10  # asymmetry and negative eigenvalues allowed, relative to max |M|


def psd_eigh(M) -> tuple:
    """The one rule for a color matrix: square, finite, nonzero, and symmetric and
    PSD up to PSD_TOL * max |M|.  Returns (M, w, V): M symmetrized and its eigh."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("M must have finite entries")
    scale = np.abs(M).max()
    if scale == 0:
        raise ValueError("M must be nonzero")
    if np.abs(M - M.T).max() > PSD_TOL * scale:
        raise ValueError("M must be symmetric")
    M = (M + M.T) / 2
    w, V = np.linalg.eigh(M)
    if w.min() < -PSD_TOL * scale:
        raise ValueError(f"M is not positive semidefinite: min eigenvalue {w.min():g}")
    return M, w, V


def quotient_space(M: np.ndarray) -> np.ndarray:
    """Factor a real PSD matrix M into the coordinates of the canonical e_k.

    Returns the m x r array coords, r the rank of M, with coords @ coords^* == M
    entrywise.  Deterministic: eigenvalues ascending, the largest-magnitude entry of
    each eigenvector positive, eigenvalues below 1e-10 * ||M|| treated as null.
    """
    M, w, V = psd_eigh(M)
    V *= np.where(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0, -1.0, 1.0)
    keep = w > 1e-10 * np.linalg.norm(M, 2)
    return V[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))


@dataclass(frozen=True)
class TreeGraph:
    """An undirected weighted graph on vertices 0..m-1.

    Edges carry weights in [0, 1].  Despite the name, general graphs are
    accepted, since the interpolation matrix is defined for arbitrary edge
    sets.
    """

    m: int
    edges: tuple
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.shape != (len(self.edges),):
            raise ValueError("one weight per edge required")
        for u, v in self.edges:
            if not (0 <= u < self.m and 0 <= v < self.m) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) on {self.m} vertices")
        # plain floats: cheaper than numpy for a few weights; nan fails too
        if not all(0.0 <= w <= 1.0 for w in self.weights.tolist()):
            raise ValueError("edge weights must lie in [0, 1]")


def bk_matrix(g: TreeGraph, t: float) -> np.ndarray:
    """Exact interpolation matrix M[k,l] = integral_0^t 1[k ~ l after dropping
    edges with weight >= s] ds.

    Connectivity in s is piecewise constant with breakpoints at 0, t and the
    edge weights below t.  One pass visits the edges in increasing weight and
    merges components; the edge that first joins k and l has the minimax
    weight w of the paths between them, on trees and general graphs alike,
    and sets M[k,l] to the sum of the interval lengths from w to t (0 when
    w >= t).  The diagonal is the sum from 0.  Each sum is added left to
    right from 0.0, so it can differ from t - w in the last bit: at t = 1
    the diagonal can be 0.9999999999999999.  Removing an edge exactly at s
    equal to its weight is a measure-zero convention.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # Python floats: sorting a few of them and comparing them beats numpy's per-call cost
    weights = g.weights.tolist()
    breaks = sorted({0.0, float(t), *(w for w in weights if w < t)})
    # breakpoint -> the interval lengths from it to t, added left to right in a loop
    # (sum() rounds floats differently from Python 3.12 on); -0.0 finds 0.0
    tail = {}
    for i, s in enumerate(breaks):
        total = 0.0
        for s0, s1 in zip(breaks[i:], breaks[i + 1:]):
            total += s1 - s0
        tail[s] = total
    out = [[tail[0.0] if k == l else 0.0 for l in range(g.m)] for k in range(g.m)]
    component = [[k] for k in range(g.m)]
    for w, (u, v) in sorted(zip(weights, g.edges)):
        a, b = component[u], component[v]
        if a is not b:
            value = tail.get(w, 0.0)
            for k in a:
                for l in b:
                    out[k][l] = out[l][k] = value
            a += b
            for l in b:
                component[l] = a
    return np.array(out, dtype=float).reshape(g.m, g.m)


def random_tree(m: int, rng) -> TreeGraph:
    """Uniform-ish random spanning tree with uniform [0,1] edge weights, drawn with
    rng's integers(low, high) and uniform(low, high), one weight a call: a numpy
    Generator's, or the bound suite's stream of the same calls."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, m)]
    return TreeGraph(m=m, edges=tuple(edges), weights=[rng.uniform(0.0, 1.0) for _ in edges])
