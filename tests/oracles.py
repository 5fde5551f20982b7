"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way on purpose: recursive
DFS instead of vectorized Kahn, per-node lstsq instead of cached normal
equations, exhaustive path enumeration instead of moralization. Tests
compare the fast package code against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from streamdag.scoring import _RSS_FLOOR


def is_acyclic_dfs(adj: np.ndarray) -> bool:
    """Cycle check by colored depth-first search."""
    d = adj.shape[0]
    color = [0] * d  # 0 white, 1 gray, 2 black

    def visit(u: int) -> bool:
        color[u] = 1
        for v in range(d):
            if adj[u, v]:
                if color[v] == 1:
                    return False
                if color[v] == 0 and not visit(v):
                    return False
        color[u] = 2
        return True

    return all(color[u] != 0 or visit(u) for u in range(d))


def enumerate_dags(d: int) -> list[np.ndarray]:
    """All labeled DAGs on d nodes by filtering every binary matrix."""
    cells = [(i, j) for i in range(d) for j in range(d) if i != j]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        adj = np.zeros((d, d), dtype=np.int8)
        for (i, j), b in zip(cells, bits):
            adj[i, j] = b
        if is_acyclic_dfs(adj):
            out.append(adj)
    return out


def topo_sort_reference(adj: np.ndarray) -> list[int]:
    """Kahn's algorithm with a plain list scan, lowest index first."""
    d = adj.shape[0]
    indeg = [int(adj[:, j].sum()) for j in range(d)]
    placed = [False] * d
    order = []
    for _ in range(d):
        pick = None
        for j in range(d):
            if not placed[j] and indeg[j] == 0:
                pick = j
                break
        if pick is None:
            raise ValueError("graph has a cycle")
        placed[pick] = True
        order.append(pick)
        for j in range(d):
            if adj[pick, j]:
                indeg[j] -= 1
    return order


def bic_lstsq_reference(adj: np.ndarray, x: np.ndarray) -> float:
    """BIC via per-node least squares, no caching, no ridge."""
    n, d = x.shape
    total = 0.0
    for j in range(d):
        parents = [int(i) for i in np.flatnonzero(adj[:, j])]
        design = np.concatenate([np.ones((n, 1)), x[:, parents]], axis=1)
        beta, _, _, _ = np.linalg.lstsq(design, x[:, j], rcond=None)
        resid = x[:, j] - design @ beta
        rss = float(resid @ resid)
        total += n * math.log(max(rss / n, 1e-300))
    total += float(adj.sum()) * math.log(n)
    return total


def exact_optimum(scorer) -> tuple[float, np.ndarray]:
    """The lowest BIC of any DAG on a BatchScorer's statistics, and a DAG
    that reaches it (Silander & Myllymaki, UAI 2006).

    The scorer's own _solve gives every node's RSS on every parent set, all
    d * 2^(d-1) of them, so small d only.  Each node term is
    n * log(max(RSS / n, floor)) + |P| * log(n).  A subset DP keeps each
    node's best parent set within every candidate set, and a DP over node
    subsets adds the nodes one at a time: the last node of a set takes its
    best parents among the others.
    """
    d, n = scorer.d, scorer.n
    full = 1 << d
    masks = np.arange(full)
    size = np.array([bin(m).count("1") for m in masks])
    best = np.full((d, full), np.inf)     # best[i, C]: node i's term, parents within C
    arg = np.zeros((d, full), dtype=np.int64)
    for i in range(d):
        own = masks[(masks >> i) & 1 == 0]
        rss = scorer._solve(np.full(own.size, i), own)
        best[i, own] = n * np.log(np.maximum(rss / n, _RSS_FLOOR)) + size[own] * np.log(n)
        arg[i, own] = own
        for j in range(d):                # one candidate at a time: C against C - {j}
            with_j = own[(own >> j) & 1 == 1]
            better = best[i, with_j ^ (1 << j)] < best[i, with_j]
            best[i, with_j[better]] = best[i, with_j[better] ^ (1 << j)]
            arg[i, with_j[better]] = arg[i, with_j[better] ^ (1 << j)]
    total = np.full(full, np.inf)         # total[S]: best score of a DAG on the nodes in S
    total[0] = 0.0
    last = np.zeros(full, dtype=np.int64)
    for s in masks[1:]:
        members = np.flatnonzero((s >> np.arange(d)) & 1)
        rest = s ^ (1 << members)
        options = total[rest] + best[members, rest]
        k = int(options.argmin())
        total[s], last[s] = options[k], members[k]
    adj = np.zeros((d, d), dtype=np.int8)
    s = full - 1
    while s:
        i = last[s]
        s ^= 1 << i
        adj[:, i] = (arg[i, s] >> np.arange(d)) & 1
    return float(total[-1]), adj


def finite_diff_grad(fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + step
        up = fn(x)
        flat[k] = keep - step
        dn = fn(x)
        flat[k] = keep
        gf[k] = (up - dn) / (2.0 * step)
    return g


def descendants_reference(adj: np.ndarray, node: int) -> set[int]:
    """All nodes reachable from `node` along directed edges, plus itself."""
    d = adj.shape[0]
    seen = {node}
    stack = [node]
    while stack:
        u = stack.pop()
        for v in range(d):
            if adj[u, v] and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def d_separated_paths(adj: np.ndarray, x: int, y: int, z: set[int]) -> bool:
    """d-separation of x and y given z by enumerating every undirected path.

    A path is blocked if some non-collider on it is in z, or some collider
    has no descendant in z (including itself). Exponential; fine for d <= 5.
    """
    d = adj.shape[0]
    desc = [descendants_reference(adj, v) for v in range(d)]

    def active(path: list[int]) -> bool:
        for idx in range(1, len(path) - 1):
            a, b, c = path[idx - 1], path[idx], path[idx + 1]
            collider = bool(adj[a, b]) and bool(adj[c, b])
            if collider:
                if not any(t in z for t in desc[b]):
                    return False
            else:
                if b in z:
                    return False
        return True

    def extend(path: list[int]) -> bool:
        u = path[-1]
        if u == y:
            return active(path)
        for v in range(d):
            if v in path:
                continue
            if adj[u, v] or adj[v, u]:
                if extend(path + [v]):
                    return True
        return False

    return not extend([x])


def sid_reference(true_adj: np.ndarray, est_adj: np.ndarray) -> int:
    """Structural intervention distance by exhaustive d-separation checks.

    Pair (i, j), i != j, is counted as a mistake unless the estimate's
    parent set of i either contains j while j is no descendant of i in the
    truth, or is a valid backdoor adjustment set for (i, j) in the truth.
    """
    d = true_adj.shape[0]
    mistakes = 0
    for i in range(d):
        pa_est = {int(k) for k in np.flatnonzero(est_adj[:, i])}
        desc_i = descendants_reference(true_adj, i)
        cut = true_adj.copy()
        cut[i, :] = 0
        for j in range(d):
            if j == i:
                continue
            if j in pa_est:
                ok = j not in desc_i
            else:
                ok = (not (pa_est & desc_i)) and d_separated_paths(cut, i, j, pa_est)
            if not ok:
                mistakes += 1
    return mistakes
