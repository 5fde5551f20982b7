"""Root-cause ranking on a learned graph via random walk with restarts.

The walk runs against edge direction (from effects toward causes); the
restart distribution is the normalized per-node anomaly score, and nodes
with no cause to walk to hand their mass back to the restart distribution.
Stationary visit probability ranks the candidates; it is solved exactly as
pi proportional to (I - (1 - r) T)^-1 q (Tong, Faloutsos & Pan, ICDM 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InsufficientDataError
from .graphs import graph_size

# Lower bound on a normal-window sigma, so a constant column scores finitely.
_SIGMA_FLOOR = 1e-12


@dataclass
class RwrConfig:
    anomaly_scores: np.ndarray
    restart_prob: float = 0.3

    def __post_init__(self):
        self.anomaly_scores = np.asarray(self.anomaly_scores, dtype=float)
        if self.anomaly_scores.ndim != 1:
            raise ConfigError("anomaly_scores must be a vector")
        if (self.anomaly_scores < 0).any() or not np.isfinite(self.anomaly_scores).all():
            raise ConfigError("anomaly_scores must be finite and nonnegative")
        if not self.anomaly_scores.sum() > 0:
            raise ConfigError("anomaly_scores must not be all zero")
        if not 0.0 < self.restart_prob < 1.0:
            raise ConfigError(f"restart_prob must be in (0, 1), got {self.restart_prob}")


def rank_root_causes(adj: np.ndarray, cfg: RwrConfig) -> list[tuple[int, float]]:
    """Nodes sorted by stationary visit probability, ties broken by index."""
    a = np.asarray(adj)
    d = graph_size(a)
    if cfg.anomaly_scores.shape != (d,):
        raise DimensionMismatchError(
            f"anomaly_scores length {cfg.anomaly_scores.shape[0]} does not match d={d}"
        )
    q = cfg.anomaly_scores / cfg.anomaly_scores.sum()
    # reversed walk: from node j step to each parent i of j (A[i, j] = 1)
    w = np.asarray(a, dtype=float).copy()
    np.fill_diagonal(w, 0.0)
    col_deg = w.sum(axis=0)
    trans = np.zeros((d, d))
    nonzero = col_deg > 0
    trans[:, nonzero] = w[:, nonzero] / col_deg[nonzero]
    trans[:, ~nonzero] = q[:, None]           # dangling columns restart
    # trans is column-stochastic, so I - (1-r) trans is nonsingular for 0 < r < 1
    pi = np.linalg.solve(np.eye(d) - (1.0 - cfg.restart_prob) * trans, q)
    pi /= pi.sum()
    order = np.lexsort((np.arange(d), -pi))
    return [(int(i), float(pi[i])) for i in order]


def anomaly_zscores(normal_x: np.ndarray, fault_x: np.ndarray) -> np.ndarray:
    """Per-node mean absolute deviation of the fault window, in normal-window sigmas."""
    normal_x = np.asarray(normal_x, dtype=float)
    fault_x = np.asarray(fault_x, dtype=float)
    if normal_x.ndim != 2 or fault_x.ndim != 2 or normal_x.shape[1] != fault_x.shape[1]:
        raise DimensionMismatchError("normal and fault windows must share column count")
    if normal_x.shape[0] < 2:
        raise InsufficientDataError("normal window needs at least 2 rows")
    if fault_x.shape[0] < 1:
        raise InsufficientDataError("fault window is empty")
    mu = normal_x.mean(axis=0)
    sigma = np.maximum(normal_x.std(axis=0), _SIGMA_FLOOR)
    return np.abs(fault_x - mu).mean(axis=0) / sigma


def fault_window_scores(batches, state: int, row_start: int, row_stop: int) -> np.ndarray:
    """Anomaly z-scores for rows [row_start, row_stop) of one state's data.

    The preceding rows of the same state serve as the normal window.
    """
    rows = [np.asarray(b.x, dtype=float) for b in batches if b.t == state]
    if not rows:
        raise InsufficientDataError(f"stream has no batches for state {state}")
    x = np.concatenate(rows, axis=0)
    if not 0 < row_start < row_stop <= x.shape[0]:
        raise ConfigError(
            f"fault rows [{row_start}, {row_stop}) invalid for a state with {x.shape[0]} rows"
        )
    return anomaly_zscores(x[:row_start], x[row_start:row_stop])
