"""Structure-recovery metrics, ranking metrics, and timing aggregation.

SID follows the intervention-distance definition: pair (i, j) counts as a
mistake unless the estimate's parent set of i is a valid (backdoor)
adjustment set for the effect of i on j in the true graph.  All d sources
go in one pass of (d, d) row masks: the truth's descendant closure
(graphs.reachability), and backdoor_connected's frontier loops over the
ancestors of each parent set and over the active trails from each source,
in the truth with that source's out-edges cut.  summarize_run rates the
final estimates of all states in one such pass over (m, d, d) stacks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InsufficientDataError
from .graphs import graph_size, reachability


@dataclass
class StructureReport:
    tpr: float
    fdr: float
    f1: float
    auroc: float
    shd: int
    sid: int
    atb_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


# The per-state columns of `streamdag eval` and of summarize_run's average.
METRIC_COLUMNS = tuple(f.name for f in fields(StructureReport))


@dataclass
class RankingReport:
    pr_at: dict
    ap_at: dict
    mrr: float

    def as_dict(self) -> dict:
        return {"pr_at": {str(k): v for k, v in self.pr_at.items()},
                "ap_at": {str(k): v for k, v in self.ap_at.items()},
                "mrr": self.mrr}


def _shd(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SHD of each pair of (..., d, d) boolean graphs: the unordered pairs
    whose edge patterns differ, so a reversed edge costs 1."""
    iu, ju = np.triu_indices(t.shape[-1], k=1)
    pat_true = t[..., iu, ju] * 2 + t[..., ju, iu]
    pat_est = e[..., iu, ju] * 2 + e[..., ju, iu]
    return (pat_true != pat_est).sum(axis=-1)


def backdoor_connected(adj: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mask (x, y): y, outside z[x], has an active trail from x given z[x]
    in adj with x's out-edges cut, for every source x at once; (k, d, d)
    stacks of graphs and sets give one mask per graph.

    Row x of z is source x's conditioning set, which must not hold x.
    Reachability over (node, direction) states (Koller & Friedman, PGM,
    Algorithm 3.1), one frontier per row: a trail passes a non-collider
    outside z[x], and a collider that is in z[x] or has a descendant in it.
    The cut graph differs from adj only in row x, so node x is masked as a
    source of row x's children product.  z[x]'s ancestors are taken in adj:
    one that reaches z[x] only through x's out-edges lies on a chain up
    from x, whose states already reach all that it opens.
    """
    g = np.asarray(adj, dtype=float)
    gt = g.swapaxes(-1, -2)
    z = np.asarray(z, dtype=bool)
    other = ~np.eye(g.shape[-1], dtype=bool)
    opens = frontier = z                       # colliders that z[x] activates
    while frontier.any():
        frontier = (frontier @ gt > 0) & ~opens
        opens = opens | frontier
    down = np.zeros_like(z)                    # (x, node) reached from a parent
    up = down | ~other                         # (x, node) reached from a child
    f_up, f_down = up, down
    while f_up.any() or f_down.any():
        passes = (f_up | f_down) & ~z & other
        climbs = (f_up & ~z) | (f_down & opens)
        f_down = (passes @ g > 0) & ~down
        f_up = (climbs @ gt > 0) & ~up
        down, up = down | f_down, up | f_up
    return (up | down) & ~z


def _sid(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SID of each pair of (..., d, d) boolean graphs: the ordered pairs
    whose parent adjustment in the estimate fails in the truth."""
    desc = reachability(t)
    z = e.swapaxes(-1, -2)                     # z[..., i, :]: estimated parents of i
    adjusts_desc = (z & desc).any(axis=-1, keepdims=True)
    wrong = np.where(adjusts_desc, ~z | desc, backdoor_connected(t, z))
    return (wrong & ~np.eye(t.shape[-1], dtype=bool)).sum(axis=(-2, -1))


def _structure_reports(truths, estimates) -> list[StructureReport]:
    """StructureReport of each estimate against the truth at its place in
    the list, all pairs in one pass over (k, d, d) stacks.

    AUROC rates the 0/1 estimate over the off-diagonal cells, ties counting
    half: (TPR + TNR) / 2, and 0.5 when the truth has no edge or no non-edge.
    """
    d = graph_size(*truths, *estimates)
    t = np.asarray(truths, dtype=bool)
    e = np.asarray(estimates, dtype=bool)
    off = ~np.eye(d, dtype=bool)
    counts = np.stack([t & e, ~t & e & off, t, t & off, ~t & off, t & e & off,
                       ~t & ~e & off]).sum(axis=(-2, -1)).T.tolist()
    reports = []
    for (tp, fp, pos, n_pos, n_neg, hit_pos, hit_neg), shd_k, sid_k in zip(
            counts, _shd(t, e).tolist(), _sid(t, e).tolist()):
        pred = tp + fp
        tpr = tp / pos if pos else 1.0
        fdr = fp / pred if pred else 0.0
        precision = tp / pred if pred else (1.0 if pos == 0 else 0.0)
        f1 = 2 * precision * tpr / (precision + tpr) if precision + tpr > 0 else 0.0
        hits = hit_pos * n_neg + hit_neg * n_pos
        roc = hits / (2 * n_pos * n_neg) if n_pos and n_neg else 0.5
        reports.append(StructureReport(tpr=float(tpr), fdr=float(fdr), f1=float(f1),
                                       auroc=roc, shd=shd_k, sid=sid_k))
    return reports


def structure_metrics(a_true: np.ndarray, a_est: np.ndarray) -> StructureReport:
    """TPR/FDR/F1/AUROC/SHD/SID of an estimated DAG against the truth."""
    return _structure_reports([a_true], [a_est])[0]


def ranking_metrics(rank_list, true_roots, k_values) -> RankingReport:
    """PR@K, AP@K, and MRR of a root-cause ranking, for each K >= 1 in k_values."""
    if not k_values or min(k_values) < 1:
        raise ConfigError(f"need one or more K values, each >= 1, got {list(k_values)}")
    ranks = list(rank_list)
    if sorted(ranks) != list(range(len(ranks))):
        raise DimensionMismatchError("rank list must be a permutation of node indices")
    roots = set(true_roots)
    if not roots:
        raise InsufficientDataError("true root set is empty")
    if not roots <= set(ranks):
        raise DimensionMismatchError("true roots must appear in the rank list")
    max_k = max(k_values)
    pr_curve = []
    hits = 0
    for k in range(1, min(max_k, len(ranks)) + 1):
        if ranks[k - 1] in roots:
            hits += 1
        pr_curve.append(hits / min(k, len(roots)))
    pr_at = {}
    ap_at = {}
    for k in k_values:
        kk = min(k, len(pr_curve))
        pr_at[k] = pr_curve[kk - 1]
        ap_at[k] = float(np.mean(pr_curve[:kk]))
    position = {node: idx + 1 for idx, node in enumerate(ranks)}
    mrr = float(np.mean([1.0 / position[r] for r in roots]))
    return RankingReport(pr_at=pr_at, ap_at=ap_at, mrr=mrr)


def final_records_per_state(results: list[dict]) -> dict[int, dict]:
    """Last record of each state in a results-file dict list."""
    return {int(rec["t"]): rec for rec in results}


def summarize_run(results: list[dict], truth: dict) -> dict:
    """Per-state reports (final estimate vs truth, and atb_ms: the mean
    wall_ms of the state's records, converged ones included) plus the
    across-state average; the results hold the truth's states and no other."""
    finals = final_records_per_state(results)
    states = range(1, int(truth["m"]) + 1)
    for t in states:
        if t not in finals:
            raise InsufficientDataError(f"results contain no records for state {t}")
    if len(finals) > len(states):
        raise DimensionMismatchError(f"results hold state {max(finals)}, but the truth has "
                                     f"{len(states)} states")
    reports = _structure_reports([truth["adjacencies"][t - 1] for t in states],
                                 [finals[t]["a_est"] for t in states])
    for t, report in zip(states, reports):
        report.atb_ms = float(np.mean([float(r["wall_ms"]) for r in results
                                       if int(r["t"]) == t]))
    rows = [s.as_dict() for s in reports]
    avg = {key: float(np.mean([r[key] for r in rows])) for key in METRIC_COLUMNS}
    return {"states": rows, "average": avg}
