"""BIC scoring of candidate DAGs, the ordering search, and the agents' rewards.

The score of a graph A against the n x d rows X seen so far in a state is

    sum_i n * log(RSS_i / n)  +  |E| * log(n)

where RSS_i is the residual sum of squares of regressing column i on its
parent columns (intercept-only when the parent set is empty).  Lower is
better; reward negates it and adds an agent's decoupling term at the weight
the engine passes in.  A BatchScorer holds the centred sums of squares
and products of those rows, so it scores any DAG in O(d) small solves, and
a batch's scorer extends the state's earlier one.  It rejects rows with a
NaN or infinite cell, and rows whose statistics overflow float64.

BatchScorer.ordering_search looks for a low-scoring DAG through node
orderings (Teyssier & Koller, UAI 2005): given an ordering, each node takes
the BIC-selected parents among its predecessors, and the ordering is
hill-climbed with insertion moves.

score and score_many compute every regression they are asked for:
score_many scores the k DAGs of a policy update in one call, with one
stacked solve per parent count, and score makes one node_rss call per node.
The scorer's one memo (BatchScorer._lookup) holds the search's selections,
keyed node + d * candidate bitmask, so a second search on the same scorer
starts warm.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigError,
    CyclicGraphError,
    DataRangeError,
    DimensionMismatchError,
    InsufficientDataError,
)
from .graphs import complement, is_acyclic

# Floor on RSS/n before the log so perfect fits stay finite.
_RSS_FLOOR = 1e-300
# A column whose residual variance falls below this share of its variance
# is treated as explained and never selected as a parent.
_RESIDUAL_TOL = 1e-10
# Relative score change below which the ordering search sees no difference.
_CLIMB_TOL = 1e-9
# Memory bound on the Cholesky columns of one batched parent selection.
_SELECT_BYTES = 1 << 20
# Ridge added to each parent Gram diagonal, so collinear parents still solve.
_RIDGE_EPS = 1e-8
# The scorer's memo keys (node, node set) pairs as node + d * bitmask in int64.
MAX_SEARCH_NODES = 57


class BatchScorer:
    """The one store of a state's statistics, so many DAGs score cheaply.

    The Gram matrix of X, with an intercept column, is accumulated about
    an origin, the column means of the state's first batch, so columns
    whose means dwarf their spread keep their precision.  Everything else
    reads the centred d x d covariance built from it, in which the
    intercept is absorbed exactly: per node _solve solves ridge-regularized
    normal equations on the sub-block selected by its parent set, _select
    runs Cholesky updates on it, and column_moments gives the columns' mean
    and std.  Passing ``base`` (the scorer of the same state's earlier
    rows) adds its statistics to this batch's, so the scorer then scores
    against every row of the state seen so far.  score_many scores a stack
    of DAGs in one call; ordering_search looks for a low-scoring DAG on the
    same statistics, and keeps its selections in the scorer's one memo.
    """

    def __init__(self, x: np.ndarray, *, base: "BatchScorer | None" = None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatchError(f"batch must be 2-d, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise DataRangeError("the rows hold non-finite values (NaN or inf)")
        n, d = x.shape
        if d > MAX_SEARCH_NODES:
            raise ConfigError(f"a scorer handles at most {MAX_SEARCH_NODES} nodes")
        if base is not None:
            if base.d != d:
                raise DimensionMismatchError(
                    f"cannot extend a d={base.d} scorer with a d={d} batch")
            n += base.n
        if n < d + 2:
            raise InsufficientDataError(f"need at least d+2={d + 2} rows, got {n}")
        self.n = n
        self.d = d
        # statistics that overflow are rejected below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            self._origin = x.mean(axis=0) if base is None else base._origin
            x = x - self._origin
            phi = np.concatenate([np.ones((x.shape[0], 1)), x], axis=1)
            self._gram = phi.T @ phi         # about the origin, [1 | X]
            if base is not None:
                self._gram += base._gram
            colsum = self._gram[0, 1:]
            # centred sums of squares and products of the columns
            self._cov = self._gram[1:, 1:] - np.outer(colsum, colsum) / n
        if not np.isfinite(self._cov).all():
            raise DataRangeError("the rows' sums of squares and products overflow float64")
        # The search's memo (see _lookup), never taken from base: the sorted
        # keys node + d * candidate bitmask, their terms and parent bitmasks.
        self._selections = [np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64)]
        self._layout = _insertion_layout(d)

    def column_moments(self) -> np.ndarray:
        """Per-column (mean, std) of the rows so far, as a (d, 2) array."""
        mean = self._origin + self._gram[0, 1:] / self.n
        std = np.sqrt(np.maximum(np.diag(self._cov), 0.0) / self.n)
        return np.stack([mean, std], axis=1)

    def node_rss(self, node: int, parents: np.ndarray) -> float:
        """Residual sum of squares of node on parents, each in 0..d-1 and
        none of them the node itself."""
        held = set(np.asarray(parents).tolist())
        if node not in range(self.d) or not held <= set(range(self.d)):
            raise DimensionMismatchError(
                f"node {node} and parents {sorted(held)} must lie in 0..{self.d - 1}")
        if node in held:
            raise CyclicGraphError(f"node {node} cannot be its own parent")
        mask = sum(1 << p for p in held)
        return float(self._solve(np.array([node]), np.array([mask], dtype=np.int64))[0])

    def _solve(self, nodes: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """RSS of each node on the parents in its bitmask, in one stacked solve
        per parent count."""
        d = self.d
        held = ((masks[:, None] >> np.arange(d)) & 1).astype(bool)
        count = held.sum(axis=1)
        rss = np.zeros(len(nodes))
        by_count = np.argsort(count, kind="stable")
        for group in np.split(by_count, np.flatnonzero(np.diff(count[by_count])) + 1):
            q, p = group.size, count[group[0]]
            parents = np.nonzero(held[group])[1].reshape(q, p)
            s_xx = self._cov[parents[:, :, None], parents[:, None, :]]
            s_xx.reshape(q, p * p)[:, ::p + 1] += _RIDGE_EPS      # the diagonals
            s_xy = self._cov[parents, nodes[group, None]]
            try:
                beta = np.linalg.solve(s_xx, s_xy[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:   # collinear parents, the ridge below rounding
                beta = np.stack([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(s_xx, s_xy)])
            # yty - 2 b.s + b.S.b with (S + eps I) b = s, so b.S.b = b.s - eps b.b
            y_ty = self._cov[nodes[group], nodes[group]]
            rss[group] = y_ty - (beta * (s_xy + _RIDGE_EPS * beta)).sum(axis=1)
        return np.maximum(rss, 0.0)

    def score(self, adj: np.ndarray) -> float:
        a = np.asarray(adj)
        if a.shape != (self.d, self.d):
            raise DimensionMismatchError(
                f"adjacency shape {a.shape} does not match batch with d={self.d}"
            )
        rss = [self.node_rss(j, np.flatnonzero(a[:, j])) for j in range(self.d)]
        return float(self._bic(np.array([rss]), a[None])[0])

    def score_many(self, adjs: np.ndarray) -> np.ndarray:
        """score() of each DAG in a (k, d, d) stack, from one batched RSS pass."""
        a = np.asarray(adjs)
        d = self.d
        if a.ndim != 3 or a.shape[1:] != (d, d):
            raise DimensionMismatchError(
                f"adjacency stack shape {a.shape} does not match batch with d={d}"
            )
        if a.diagonal(axis1=1, axis2=2).any():
            raise CyclicGraphError("a graph of the stack has a self-loop")
        masks = ((a != 0).astype(np.int64) << np.arange(d)[:, None]).sum(axis=1)
        rss = self._solve(np.broadcast_to(np.arange(d), masks.shape).ravel(), masks.ravel())
        return self._bic(rss.reshape(masks.shape), a)

    def _bic(self, rss: np.ndarray, adjs: np.ndarray) -> np.ndarray:
        """BIC of each DAG in a (k, d, d) stack from its (k, d) node RSS; an
        edge is a nonzero cell, whatever its value."""
        n = self.n
        terms = n * np.log(np.maximum(rss / n, _RSS_FLOOR))
        total = np.zeros(len(adjs))
        for term in terms.T:          # one node at a time, in node order
            total += term
        return total + np.count_nonzero(adjs.reshape(len(adjs), -1), axis=1) * np.log(n)

    # -- ordering search ---------------------------------------------------------

    def ordering_search(self, starts) -> tuple[list[int], np.ndarray]:
        """Best node ordering found from ``starts``, and the DAG it selects.

        An ordering is scored by the sum over nodes of the BIC term of the
        node's best parents among its predecessors (see _select; that
        selection is greedy and can miss a better parent set, so a caller
        compares the result with score()).  Each start is
        hill-climbed with insertion moves: take one node out and put it back
        at another position.  Such a move changes the predecessor sets of the
        moved node and of the nodes it passes, and of no other, so moves over
        disjoint stretches of the ordering add up: each sweep scores every
        move, then applies the best move of each node while their stretches
        do not overlap.  A climb ends when no move improves its score.  The
        climbs run side by side, so batched selections serve a sweep of all
        of them.  The best local optimum wins, the earlier start on ties.
        Every edge of the DAG points down the ordering, so it is acyclic by
        construction.
        """
        d = self.d
        orders = []
        for start in starts:
            order = [int(v) for v in start]
            if sorted(order) != list(range(d)):
                raise DimensionMismatchError(f"start {order} is not an ordering of {d} nodes")
            orders.append(order)
        if not orders:
            raise ConfigError("ordering_search needs at least one start ordering")
        orders = np.array(orders)
        totals = np.full(len(orders), np.inf)
        climbing = np.arange(len(orders))
        while climbing.size:
            moved, passed = self._move_terms(orders[climbing])
            still = []
            for c, m, p in zip(climbing, moved, passed):
                new_order, totals[c] = self._apply_moves(orders[c], m, p)
                if new_order is not None:
                    orders[c] = new_order
                    still.append(c)
            climbing = np.array(still, dtype=int)
        best = 0
        for c, total in enumerate(totals):
            if total < totals[best] - _CLIMB_TOL * (1.0 + abs(totals[best])):
                best = c
        order = orders[best]
        prefix = np.concatenate([[0], np.cumsum(1 << order)[:-1]])
        _, parents = self._lookup(order, prefix)
        adj = ((parents[:, None] >> np.arange(d)) & 1).T.astype(np.int8)
        return order.tolist(), adj[:, np.argsort(order)]

    def _move_terms(self, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node terms behind every insertion move of each ordering (one per row).

        moved[c, i, j] is the term of the node at position i when put back at
        slot j of the others (j = i leaves it in place), passed[c, i, k] the
        term of the k-th other node with node i toggled in its predecessors.
        Forward selection takes the same steps among fewer candidates as long
        as they still hold the parents it chose among more.  So a selection
        among candidates C that chose parents P serves every query whose
        candidate mask M has P <= M <= C, and _reused applies this rule to
        each node's selections among its predecessors and among all others.
        The rest is selected.
        """
        d = self.d
        pos, rest, slot = self._layout
        n_orders = len(orders)
        rows = np.arange(n_orders)[:, None, None]
        bits = 1 << orders                                            # (C, d)
        prefix = np.concatenate([np.zeros((n_orders, 1), dtype=np.int64),
                                 np.cumsum(bits, axis=1)], axis=1)    # masks of order[:k]
        # the candidates of the node at position i put back at slot j, and of
        # the k-th other node with node i toggled
        moved_masks = prefix[:, slot] - np.where(pos[None, :] > pos[:, None], bits[:, :, None], 0)
        passed_masks = prefix[rows, rest] ^ bits[:, :, None]
        cand = np.stack([prefix[:, :d], prefix[:, d:] - bits])      # predecessors, all others
        terms, parents = (v.reshape(cand.shape) for v in self._lookup(
            np.concatenate([orders, orders]).ravel(), cand.ravel()))
        moved = _reused(terms[..., None], parents[..., None], cand[..., None], moved_masks)
        passed = _reused(terms[:, rows, rest], parents[:, rows, rest], cand[:, rows, rest],
                         passed_masks)
        mc, mi, mj = np.nonzero(np.isnan(moved))
        pc, pi, pk = np.nonzero(np.isnan(passed))
        terms, _ = self._lookup(
            np.concatenate([orders[mc, mi], orders[pc, rest[pi, pk]]]),
            np.concatenate([moved_masks[mc, mi, mj], passed_masks[pc, pi, pk]]))
        moved[mc, mi, mj] = terms[:mc.size]
        passed[pc, pi, pk] = terms[mc.size:]
        return moved, passed

    def _apply_moves(self, order: np.ndarray, moved: np.ndarray,
                     passed: np.ndarray) -> tuple[np.ndarray | None, float]:
        """Apply the improving moves of non-overlapping stretches; None if there is none."""
        d = self.d
        pos, rest, _ = self._layout
        cur = np.diagonal(moved).copy()
        run = np.concatenate([np.zeros((d, 1)), np.cumsum(passed - cur[rest], axis=1)], axis=1)
        delta = moved - cur[:, None] + (run - run[pos, pos][:, None]) * np.sign(pos - pos[:, None])
        total = float(cur.sum())
        # Scores that differ by less than tol count as equal, and ties go to the
        # earlier slot and node: Markov-equivalent orderings score the same up
        # to rounding, which must not pick among them.
        tol = _CLIMB_TOL * (1.0 + abs(total))
        gain = delta.min(axis=1)
        target = (delta <= gain[:, None] + tol).argmax(axis=1)
        taken: list[tuple[int, int]] = []
        new_order = order.copy()
        for i in np.argsort(np.round(gain / tol), kind="stable"):
            if gain[i] >= -tol:
                break
            j = int(target[i])
            lo, hi = min(i, j), max(i, j)
            if any(lo <= b and a <= hi for a, b in taken):
                continue
            taken.append((lo, hi))
            new_order[lo:hi + 1] = np.insert(np.delete(order, i), j, order[i])[lo:hi + 1]
        return (new_order if taken else None), total

    def _lookup(self, nodes: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node terms and parent bitmasks of (node, candidate bitmask) queries,
        through the selection memo.

        The memo holds the sorted keys node + d * mask seen so far, with their
        terms and parent bitmasks in key order.  The distinct keys it lacks
        are selected in ascending order, in chunks so that _select's Cholesky
        columns stay within _SELECT_BYTES, and merged in.
        """
        d = self.d
        keys = nodes + d * masks
        known = self._selections[0]
        new = np.sort(keys)           # np.unique's first call maps megabytes of code
        new = new[np.diff(new, prepend=-1) != 0]
        if known.size:
            new = new[known[np.minimum(np.searchsorted(known, new), known.size - 1)] != new]
        if new.size:
            chunk = max(1, _SELECT_BYTES // (8 * d * d))
            new_nodes, new_masks = new % d, new // d
            parts = [self._select(new_nodes[i:i + chunk], new_masks[i:i + chunk])
                     for i in range(0, new.size, chunk)]
            merged = np.concatenate([known, new])
            order = np.argsort(merged)
            self._selections = [merged[order]] + [
                np.concatenate([old, *fresh])[order]
                for old, fresh in zip(self._selections[1:], zip(*parts))]
        known, terms, parents = self._selections
        at = np.searchsorted(known, keys)
        return terms[at], parents[at]

    def _select(self, nodes: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """BIC-selected parents of each node among the candidates in its bitmask.

        Forward selection adds, one at a time, the candidate that cuts the
        node's residual sum of squares the most, while that lowers the node's
        BIC term; returns the terms and the parent bitmasks.  It runs for all
        queries at once, by Cholesky updates of the centred covariance.  A
        candidate whose residual variance is below a relative tolerance of
        its own variance (a constant column, or one the chosen parents
        already explain) is never added, so the choice does not depend on
        the columns' scales.
        """
        d = self.d
        n = self.n
        cov = self._cov
        floor = _RESIDUAL_TOL * np.maximum(np.diag(cov), 0.0)
        bits = 1 << np.arange(d, dtype=np.int64)
        q = len(nodes)
        # Adding a parent lowers the term iff it shrinks max(RSS / n, floor)
        # below this share of its value.
        shrink = np.exp(-np.log(n) / n)
        fit = np.maximum(cov[nodes, nodes] / n, _RSS_FLOOR)
        k = np.zeros(q)
        chosen = np.zeros(q, dtype=np.int64)
        # Per live query: the residual variance of every candidate column
        # (0 once it is no candidate) and its residual covariance with the
        # target given the parents chosen so far, and the Cholesky columns of
        # those parents (the residual covariance is cov - L L^T).
        live = np.arange(q)
        target = nodes.copy()
        var = np.where(((masks[:, None] & bits) != 0) & (floor > 0.0), floor / _RESIDUAL_TOL, 0.0)
        cross = cov[nodes]
        chol = np.zeros((q, d, 0))
        while live.size:
            at = np.arange(live.size)
            # cross * (cross / var), not cross * cross / var: the square of a
            # covariance past about 1e154 overflows, the gain (at most the
            # target's variance) does not.  A candidate whose var is at or
            # below the floor gets 0, which `best > 0.0` below never takes.
            gain = np.divide(cross, var, out=np.zeros_like(var), where=var > floor)
            gain *= cross
            pick = gain.argmax(axis=1)
            best = gain[at, pick]
            new_fit = np.maximum((cross[at, target] - best) / n, _RSS_FLOOR)
            take = np.flatnonzero((best > 0.0) & (new_fit < fit[live] * shrink))
            if not take.size:
                break
            live, target, pick = live[take], target[take], pick[take]
            var, cross, chol = var[take], cross[take], chol[take]
            at = np.arange(live.size)
            col = cov[pick] - np.einsum("qdk,qk->qd", chol, chol[at, pick])
            col /= np.sqrt(var[at, pick])[:, None]             # var > floor > 0 there
            var -= col * col
            var[at, pick] = 0.0
            cross -= col * col[at, target][:, None]
            chol = np.concatenate([chol, col[:, :, None]], axis=2)
            fit[live] = np.maximum(cross[at, target] / n, _RSS_FLOOR)
            k[live] += 1
            chosen[live] |= bits[pick]
        term = n * np.log(fit) + k * np.log(n)
        return term, chosen


def _reused(terms, parents, cand, masks) -> np.ndarray:
    """The term of each candidate bitmask in ``masks`` from the first of a
    node's selections that serves it (P <= M <= C, see _move_terms), nan
    where none does.  terms, parents and cand stack the selections' terms,
    parent masks P and candidate masks C on their first axis, each
    broadcast against ``masks``."""
    reused = np.full(masks.shape, np.nan)
    for term, par, c in zip(terms[::-1], parents[::-1], cand[::-1]):
        reused = np.where((par & ~masks | masks & ~c) == 0, term, reused)
    return reused


def _insertion_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, and with the node at position i taken out (row i): the
    positions of the others, and the position each slot j starts from."""
    pos = np.arange(d)
    rest = np.where(pos[None, :] < pos[:, None], pos[None, :], pos[None, :] + 1)[:, :d - 1]
    slot = np.where(pos[None, :] <= pos[:, None], pos[None, :], pos[None, :] + 1)
    return pos, rest, slot


def bic_score(adj: np.ndarray, x: np.ndarray) -> float:
    """One-off BIC of a DAG against a batch; see BatchScorer for the formula."""
    if not is_acyclic(adj):
        raise CyclicGraphError("bic_score requires an acyclic graph")
    return BatchScorer(x).score(adj)


def _sq_fro(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """Squared Frobenius distance of a 0/1 graph, or of each in a stack, to
    0/1 graph b: the number of cells on which they differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim not in (2, 3) or a.shape[-2:] != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.count_nonzero(a != b, axis=(-2, -1))


def decouple_specific(a_spec: np.ndarray, a_inv_prev: np.ndarray,
                      a_prev_state: np.ndarray) -> float | np.ndarray:
    """(||A_spec - comp(A_inv_prev)||^2 + ||A_spec - comp(A_prev_state)||^2) / d.

    A (k, d, d) stack of A_spec gives the k terms.
    """
    d = np.asarray(a_spec).shape[-1]
    return (_sq_fro(a_spec, complement(a_inv_prev))
            + _sq_fro(a_spec, complement(a_prev_state))) / d


def decouple_invariant(a_inv: np.ndarray, a_spec_prev: np.ndarray,
                       a_prev_state: np.ndarray) -> float | np.ndarray:
    """(||A_inv - comp(A_spec_prev)||^2 + ||A_inv - A_prev_state||^2) / d.

    The second term has no complement: it is zero when the invariant graph
    reproduces the previous state's estimate.  A (k, d, d) stack of A_inv
    gives the k terms.
    """
    d = np.asarray(a_inv).shape[-1]
    return (_sq_fro(a_inv, complement(a_spec_prev))
            + _sq_fro(a_inv, a_prev_state)) / d


def reward(bic, decouple, lam: float) -> float | np.ndarray:
    """Total agent reward: -bic + lam * decouple, lam being the agent's
    decoupling weight.

    bic and decouple are numbers, or arrays of one term per episode.
    """
    return -bic + lam * decouple
