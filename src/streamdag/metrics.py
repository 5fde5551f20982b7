"""Structure-recovery metrics, ranking metrics, and timing aggregation.

SID follows the intervention-distance definition: pair (i, j) counts as a
mistake unless the estimate's parent set of i is a valid (backdoor)
adjustment set for the effect of i on j in the true graph.  d-separation
is decided by active-trail reachability from i, one pass for every j.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError
from .graphs import graph_size


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


def shd(a_true: np.ndarray, a_est: np.ndarray) -> int:
    """Differing unordered-pair patterns; a reversed edge costs 1."""
    d = graph_size(a_true, a_est)
    iu, ju = np.triu_indices(d, k=1)
    pat_true = np.asarray(a_true)[iu, ju] * 2 + np.asarray(a_true)[ju, iu]
    pat_est = np.asarray(a_est)[iu, ju] * 2 + np.asarray(a_est)[ju, iu]
    return int((pat_true != pat_est).sum())


def descendants(adj: np.ndarray, seeds) -> np.ndarray:
    """Boolean mask of the seeds (a node index or a mask) and every node they reach.

    On adj.T this is the seeds plus their ancestors.
    """
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[seeds] = True
    frontier = list(np.flatnonzero(seen))
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                frontier.append(v)
    return seen


def d_connected(adj: np.ndarray, x: int, z: np.ndarray) -> np.ndarray:
    """Mask of the nodes outside z with an active trail from x given mask z.

    Reachability over (node, direction) pairs (Koller & Friedman, PGM,
    Algorithm 3.1): a trail passes a non-collider outside z, and a collider
    that is in z or has a descendant in z.
    """
    a = np.asarray(adj, dtype=bool)
    z = np.asarray(z, dtype=bool)
    opens = descendants(a.T, z)                # colliders that z activates
    reach = np.zeros(a.shape[0], dtype=bool)
    seen = set()
    frontier = [(x, True)]                     # (node, reached from a child)
    while frontier:
        node, up = frontier.pop()
        if (node, up) in seen:
            continue
        seen.add((node, up))
        if not z[node]:
            reach[node] = True
            frontier += [(int(c), False) for c in np.flatnonzero(a[node])]
        if (up and not z[node]) or (not up and opens[node]):
            frontier += [(int(p), True) for p in np.flatnonzero(a[:, node])]
    return reach


def sid(a_true: np.ndarray, a_est: np.ndarray) -> int:
    """Count ordered pairs whose parent-adjustment in the estimate fails in the truth."""
    d = graph_size(a_true, a_est)
    g = np.asarray(a_true, dtype=np.int8)
    h = np.asarray(a_est, dtype=np.int8)
    mistakes = 0
    for i in range(d):
        z = h[:, i].astype(bool)              # estimated parents of i
        desc = descendants(g, i)
        if (z & desc).any():
            wrong = ~z | desc
        else:
            cut = g.copy()
            cut[i, :] = 0
            wrong = np.where(z, desc, d_connected(cut, i, z))
        wrong[i] = False
        mistakes += int(wrong.sum())
    return mistakes


def structure_metrics(a_true: np.ndarray, a_est: np.ndarray) -> StructureReport:
    """TPR/FDR/F1/AUROC/SHD/SID of an estimated DAG against the truth.

    AUROC rates the 0/1 estimate over the off-diagonal cells, ties counting
    half: (TPR + TNR) / 2, and 0.5 when the truth has no edge or no non-edge.
    """
    d = graph_size(a_true, a_est)
    t = np.asarray(a_true, dtype=bool)
    e = np.asarray(a_est, dtype=bool)
    off = ~np.eye(d, dtype=bool)
    tp = int((t & e).sum())
    fp = int((~t & e & off).sum())
    pos = int(t.sum())
    pred = tp + fp
    tpr = tp / pos if pos else 1.0
    fdr = fp / pred if pred else 0.0
    precision = tp / pred if pred else (1.0 if pos == 0 else 0.0)
    recall = tpr
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    labels, rated = t[off], e[off]
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    hits = int((labels & rated).sum()) * n_neg + int((~labels & ~rated).sum()) * n_pos
    roc = hits / (2 * n_pos * n_neg) if n_pos and n_neg else 0.5
    return StructureReport(tpr=float(tpr), fdr=float(fdr), f1=float(f1),
                           auroc=roc, shd=shd(a_true, a_est), sid=sid(a_true, a_est))


def ranking_metrics(rank_list, true_roots, k_values) -> RankingReport:
    """PR@K, AP@K, and MRR of a root-cause ranking."""
    ranks = list(rank_list)
    if sorted(ranks) != list(range(len(ranks))):
        raise DimensionMismatchError("rank list must be a permutation of node indices")
    roots = set(true_roots)
    if not roots:
        raise InsufficientDataError("true root set is empty")
    if not roots <= set(ranks):
        raise DimensionMismatchError("true roots must appear in the rank list")
    max_k = max(k_values) if k_values else 0
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
        pr_at[k] = pr_curve[kk - 1] if kk else 0.0
        ap_at[k] = float(np.mean(pr_curve[:kk])) if kk else 0.0
    position = {node: idx + 1 for idx, node in enumerate(ranks)}
    mrr = float(np.mean([1.0 / position[r] for r in roots]))
    return RankingReport(pr_at=pr_at, ap_at=ap_at, mrr=mrr)


def atb(records) -> float:
    """Mean wall_ms across result dicts (converged batches included)."""
    times = [float(r["wall_ms"]) for r in records]
    if not times:
        raise InsufficientDataError("atb needs at least one record")
    return float(np.mean(times))


def final_records_per_state(results: list[dict]) -> dict[int, dict]:
    """Last record of each state in a results-file dict list."""
    finals: dict[int, dict] = {}
    for rec in results:
        finals[int(rec["t"])] = rec
    return finals


def summarize_run(results: list[dict], truth: dict) -> dict:
    """Per-state reports (final estimate vs truth) plus the across-state average."""
    finals = final_records_per_state(results)
    states = []
    for t in range(1, int(truth["m"]) + 1):
        if t not in finals:
            raise InsufficientDataError(f"results contain no records for state {t}")
        report = structure_metrics(truth["adjacencies"][t - 1],
                                   np.asarray(finals[t]["a_est"], dtype=np.int8))
        report.atb_ms = atb([r for r in results if int(r["t"]) == t])
        states.append(report)
    rows = [s.as_dict() for s in states]
    avg = {key: float(np.mean([r[key] for r in rows])) for key in METRIC_COLUMNS}
    return {"states": rows, "average": avg}
