"""Color Hilbert space from a PSD matrix, and tree-interpolation matrices.

A positive semidefinite m x m matrix defines a (possibly degenerate)
sesquilinear form on C^m; quotienting out the null space leaves an
r-dimensional Hilbert space in which the canonical images e_k have Gram
matrix exactly M.  The piecewise-constant interpolation matrices produced by
tree expansions are integrated exactly here: connectivity only changes at
edge weights, so the integral is a finite sum of interval lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuotientSpace", "TreeGraph", "quotient_space", "bk_matrix", "random_tree"]


@dataclass(frozen=True)
class QuotientSpace:
    """Coordinates of the canonical vectors e_k in an orthonormal basis.

    coords has shape (m, r) with coords @ coords^* == M entrywise, so row
    inner products reproduce the defining Gram matrix.
    """

    m: int
    rank: int
    coords: np.ndarray = field(repr=False)


def quotient_space(M: np.ndarray) -> QuotientSpace:
    """Factor a real PSD matrix M into e_k coordinates with Gram matrix M.

    Deterministic: eigenvalues ascending, eigenvector phases fixed, and
    eigenvalues below 1e-10 * ||M|| treated as null directions.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be a square matrix")
    scale = np.abs(M).max()
    if scale == 0:
        raise ValueError("M must be nonzero")
    if not np.allclose(M, M.T, atol=1e-10 * scale):
        raise ValueError("M must be symmetric")
    w, V = np.linalg.eigh((M + M.T) / 2)
    if w.min() < -1e-8 * scale:
        raise ValueError(f"M is not positive semidefinite: min eigenvalue {w.min():g}")
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    keep = w > 1e-10 * np.linalg.norm(M, 2)
    coords = V[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))
    return QuotientSpace(m=M.shape[0], rank=int(keep.sum()), coords=coords)


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
        if len(self.edges) != self.weights.shape[0]:
            raise ValueError("one weight per edge required")
        for u, v in self.edges:
            if not (0 <= u < self.m and 0 <= v < self.m) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) on {self.m} vertices")
        if not np.all((self.weights >= 0) & (self.weights <= 1)):  # nan fails too
            raise ValueError("edge weights must lie in [0, 1]")


class _UnionFind:
    """Union-find with path compression; reflexivity is built in."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        self.parent[self.find(b)] = self.find(a)


def bk_matrix(g: TreeGraph, t: float) -> np.ndarray:
    """Exact interpolation matrix M[k,l] = integral_0^t 1[k ~ l after dropping
    edges with weight >= s] ds.

    Connectivity as a function of s is piecewise constant with breakpoints at
    the edge weights, so the integral is summed interval by interval with a
    union-find over the surviving edges (those of weight < s).  The diagonal
    is t by reflexivity.  Removing an edge exactly at s equal to its weight
    is a measure-zero convention and does not affect the result.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    breaks = np.unique(np.concatenate([[0.0, t], g.weights[g.weights < t]]))
    out = np.zeros((g.m, g.m))
    for s0, s1 in zip(breaks[:-1], breaks[1:]):
        if s1 <= s0:
            continue
        uf = _UnionFind(g.m)
        for (u, v), w in zip(g.edges, g.weights):
            if w <= s0:  # surviving for all s in (s0, s1): weight < s
                uf.union(u, v)
        roots = np.array([uf.find(k) for k in range(g.m)])
        out += (s1 - s0) * (roots[:, None] == roots[None, :])
    return out


def random_tree(m: int, rng: np.random.Generator) -> TreeGraph:
    """Uniform-ish random spanning tree with uniform [0,1] edge weights."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, m)]
    return TreeGraph(m=m, edges=tuple(edges), weights=rng.uniform(0.0, 1.0, size=m - 1))
