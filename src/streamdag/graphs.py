"""Binary DAG representation and the continuous-vector-to-DAG mapping.

A directed graph on d nodes is a d x d numpy array with entries in {0, 1};
entry (i, j) = 1 means an edge from node i to node j.  The mapping from a
real vector of length d(d+1) to a DAG works in two pieces: the first d
entries order the nodes (an edge i -> j is admissible only when the
ordering value of i exceeds that of j), and the remaining d^2 entries are
thresholded at zero into an edge mask.  Acyclicity is guaranteed by
construction because every admissible edge points down the ordering.
For any other graph, is_acyclic is the one cycle check, on one graph or a
stack, through the reachability closure that SID also reads;
topological_order orders a DAG for dag_decompose and synth.  graph_size is
the one square-shape check, for graphs here and in engine, metrics and rca.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CyclicGraphError, DimensionMismatchError, InvalidActionError


def action_dim(d: int) -> int:
    """Length of an action vector for a d-node graph."""
    return d * (d + 1)


def nodes_from_action_dim(length: int) -> int:
    """Invert d(d+1) = length; raises if length is not of that form."""
    d = int((math.isqrt(4 * length + 1) - 1) // 2)
    if d < 1 or d * (d + 1) != length:
        raise InvalidActionError(
            f"action length {length} is not d*(d+1) for any integer d"
        )
    return d


def split_action(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d ordering scores and the d x d mask logits of an action, as views;
    a (k, d(d+1)) stack gives (k, d) scores and (k, d, d) logits."""
    d = nodes_from_action_dim(a.shape[-1])
    return a[..., :d], a[..., d:].reshape(a.shape[:-1] + (d, d))


def action_to_dag(a: np.ndarray) -> np.ndarray:
    """Map a real vector of length d(d+1) to a binary acyclic adjacency matrix.

    The first d entries h define the ordering matrix H (H[i,j] = 1 iff
    h[i] > h[j]; ties drop both directions), the remaining d^2 entries are
    mask logits thresholded at 0.  Returns H * S elementwise.  A (k, d(d+1))
    stack of actions maps to a (k, d, d) stack of DAGs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2):
        raise InvalidActionError(
            f"action must be a vector or a stack of vectors, got shape {a.shape}")
    h, logits = split_action(a)
    if not np.all(np.isfinite(a)):
        raise InvalidActionError("action contains non-finite entries")
    order = h[..., :, None] > h[..., None, :]      # strict, so the diagonal is 0
    return (order & (logits > 0.0)).astype(np.int8)


def graph_size(*adjs) -> int:
    """The d of graphs that all share one d x d shape; else DimensionMismatchError."""
    shapes = [np.shape(a) for a in adjs]
    if len(set(shapes)) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise DimensionMismatchError(
            f"graphs must share a square shape, got {' vs '.join(map(str, shapes))}")
    return shapes[0][0]


def topological_order(adj: np.ndarray) -> list[int]:
    """Kahn's algorithm with lowest-index-first tie-breaking.

    Raises CyclicGraphError on cyclic input, DimensionMismatchError on non-square input.
    """
    a = np.asarray(adj)
    d = graph_size(a)
    indeg = a.sum(axis=0).astype(np.int64)
    alive = np.ones(d, dtype=bool)
    order: list[int] = []
    for _ in range(d):
        ready = np.flatnonzero(alive & (indeg == 0))
        if ready.size == 0:
            raise CyclicGraphError("graph contains a directed cycle")
        nxt = int(ready[0])
        order.append(nxt)
        alive[nxt] = False
        indeg -= a[nxt]
    return order


def reachability(adjs: np.ndarray) -> np.ndarray:
    """Boolean reflexive-transitive closure of a graph, or of each graph in a
    (k, d, d) stack: entry (i, j) is True iff j is i or a descendant of i.

    Repeated squaring of I + A, ceil(log2(d - 1)) float products clipped to
    1, so a path of any length up to d - 1 shows.
    """
    a = np.asarray(adjs, dtype=float)
    d = graph_size(a[0] if a.ndim == 3 else a)     # a stack's graphs share its shape
    r = np.minimum(a + np.eye(d), 1.0)
    for _ in range(max(d - 2, 0).bit_length()):
        r = np.minimum(r @ r, 1.0)
    return r > 0


def is_acyclic(adjs: np.ndarray) -> np.bool_ | np.ndarray:
    """True iff the graph has no directed cycle, a self-loop included; a
    (k, d, d) stack gives a boolean array of one verdict per graph.

    A cycle is an edge i -> j whose head j reaches its tail i.
    """
    a = np.asarray(adjs) != 0
    return ~(a & reachability(a).swapaxes(-1, -2)).any(axis=(-2, -1))


def dag_decompose(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an acyclic adjacency A into (P, U) with P^T U P = A.

    P is the permutation matrix of a topological order of A and U is the
    strictly upper-triangular reordering of A under that order.
    """
    a = np.asarray(adj, dtype=np.int8)
    order = topological_order(a)
    d = a.shape[0]
    perm = np.zeros((d, d), dtype=np.int8)
    for pos, node in enumerate(order):
        perm[pos, node] = 1
    upper = a[np.ix_(order, order)]
    return perm, upper


def complement(adj: np.ndarray) -> np.ndarray:
    """Flip off-diagonal entries; the diagonal stays 0 (self-loops stay meaningless)."""
    a = np.asarray(adj, dtype=np.int8)
    out = (1 - a).astype(np.int8)
    np.fill_diagonal(out, 0)
    return out


def random_dag(d: int, edge_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform-order random DAG: random topological order, iid edges below it."""
    upper = np.triu(rng.random((d, d)) < edge_prob, k=1).astype(np.int8)
    perm = rng.permutation(d)
    return upper[np.ix_(perm, perm)]
