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

__all__ = ["TreeGraph", "psd_eigh", "quotient_space", "bk_matrix", "bk_matrices", "random_tree"]

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
    edges with weight >= s] ds: bk_matrices on the stack of one graph."""
    edges = np.array(g.edges, dtype=np.int64).reshape(1, -1, 2)
    return bk_matrices(g.m, edges, g.weights[None], np.array([t], dtype=float))[0]


def bk_matrices(m: int, edges: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The interpolation matrices (B, m, m) of B graphs on vertices 0..m-1, with
    edges (B, E, 2), weights (B, E) in [0, 1] and t (B,).

    One pass visits each graph's edges in increasing weight and merges
    components: the edge that first joins k and l has the minimax weight w of
    the paths between them, on trees and general graphs alike, and M[k,l] is
    the sum of the interval lengths between breakpoints (0, t and the weights
    below t) from w to t, 0 when w >= t; the diagonal is the sum from 0.  Each
    sum is added left to right from 0.0, so at t = 1 the diagonal can be
    0.9999999999999999.  Dropping an edge at s equal to its weight is a
    measure-zero convention.
    """
    t = np.asarray(t, dtype=float)
    inside = (0.0 <= t) & (t <= 1.0)
    if not inside.all():
        raise ValueError(f"t must lie in [0, 1], got {t[~inside][0]}")
    stack = np.arange(len(t))[:, None]
    # the breakpoints 0, t and each weight, a weight at or above t standing in as t,
    # sorted with repeats: a repeat adds a gap of 0.0, which moves no sum's bits
    points = np.concatenate([np.zeros((len(t), 1)), t[:, None],
                             np.where(weights < t[:, None], weights, t[:, None])], axis=1)
    order = np.argsort(points, axis=1, kind="stable")
    breaks = points[stack, order]
    gaps = breaks[:, 1:] - breaks[:, :-1]
    tail = np.zeros(points.shape)  # sorted breakpoint -> the gaps from it to t, left to right
    for j in range(gaps.shape[1]):
        tail[:, :j + 1] += gaps[:, j:j + 1]
    tail[stack, order] = tail.copy()  # by each point's place in points
    out = np.zeros((len(t), m, m))
    label = 0 * stack + np.arange(m)  # each vertex's component, by a vertex in it
    by_weight = np.argsort(weights, axis=1, kind="stable")
    ends, values = edges[stack, by_weight], tail[stack, 2 + by_weight]
    rows = stack[:, 0]
    for e in range(weights.shape[1]):
        a, b = label[rows, ends[:, e, 0]][:, None], label[rows, ends[:, e, 1]][:, None]
        in_a, in_b = label == a, (label == b) & (a != b)
        join = in_a[:, :, None] & in_b[:, None, :]
        out = np.where(join | join.swapaxes(1, 2), values[:, e, None, None], out)
        label = np.where(in_b, a, label)
    out[:, np.arange(m), np.arange(m)] = tail[:, :1]
    return out


def random_tree(m: int, rng) -> TreeGraph:
    """Uniform-ish random spanning tree with uniform [0,1] edge weights, drawn with a
    numpy Generator's integers(0, v) per vertex v > 0, then uniform(0, 1) per edge."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, m)]
    return TreeGraph(m=m, edges=tuple(edges), weights=[rng.uniform(0.0, 1.0) for _ in edges])
