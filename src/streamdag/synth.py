"""Synthetic non-stationary streams with per-state ground-truth DAGs.

The final state's graph is an Erdos-Renyi DAG; earlier states are built
backward by cumulative random edge deletions, and every non-final state
additionally receives a few acyclicity-preserving noise edges.  Edge
weights are drawn once over the union of all per-state edges, so shared
edges keep identical mechanisms across states.

Each state's rows follow the SEM X_j = f_j(X_pa(j)) + s_j * N_j, node by
node in topological order.  f_j is the parents' linear term sum_i w_ij X_i;
under QR it adds sum_i q_ij X_i^2 + sum_{i<k} p_ikj X_i X_k, and under GP
it is instead one draw of a zero-mean GP with an RBF kernel over the
parents.  N_j is Exp(1) under LE and N(0, 1) otherwise; s_j is the node's
noise scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GenerationError, require
from .graphs import is_acyclic, random_dag, topological_order
from .io import StreamBatch

MECHANISMS = ("LG", "LE", "QR", "GP")


@dataclass
class SynthConfig:
    d: int
    m: int = 2
    e: float = 0.0                 # transition noise rate, percent
    mechanism: str = "LG"
    er_expected_degree: float = 4.0
    n_per_state: int = 500
    batch_size: int = 50
    seed: int = 0
    noise_scale: float = 1.0

    def __post_init__(self):
        require("d", self.d, "[2, inf)", integer=True)
        require("m", self.m, "[2, inf)", integer=True)
        require("e", self.e, "[0, inf)")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")
        require("er_expected_degree", self.er_expected_degree, "(0, inf]")  # inf: the complete DAG
        require("n_per_state", self.n_per_state, "[1, inf)", integer=True)
        require("batch_size", self.batch_size, f"[1, {self.n_per_state}]", integer=True)
        require("seed", self.seed, "[0, inf)", integer=True)
        require("noise_scale", self.noise_scale, "(0, inf)")


@dataclass
class MechanismParams:
    """One SEM: its mechanism, per-edge coefficients shared by all states
    (masked per state), and per-node noise scales."""

    mechanism: str                           # one of MECHANISMS
    lin: np.ndarray                          # (d, d) linear weight for i -> j
    square: np.ndarray                       # (d, d) coefficient of x_i^2 into j
    noise_scale: np.ndarray                  # (d,) per-node noise scale
    pair: dict = field(default_factory=dict)  # (i, k) -> (d,) coefficients of x_i * x_k


@dataclass
class GroundTruth:
    adjacencies: list[np.ndarray]            # G_1 .. G_m
    params: MechanismParams
    config: SynthConfig

    def weights_for(self, t: int) -> np.ndarray:
        """Per-state linear weight matrix (zero where no edge)."""
        return self.params.lin * self.adjacencies[t - 1]


def _inject_noise_edges(adj: np.ndarray, count: int, rng: np.random.Generator,
                        t: int) -> np.ndarray:
    """Add `count` random edges that keep state t's graph acyclic.  A d-node DAG
    holds at most d(d-1)/2 edges and one with fewer can take one more, so a count
    beyond that room fails before any draw, and within it every draw has at
    least a 1/d^2 chance of a fit."""
    d = adj.shape[0]
    room = d * (d - 1) // 2 - int(adj.sum())
    if count > room:
        raise GenerationError(f"state {t} has room for {room} more acyclic edges, "
                              f"not the {count} noise edges asked for")
    out = adj.copy()
    added = 0
    while added < count:
        i = int(rng.integers(d))
        j = int(rng.integers(d))
        if i == j or out[i, j]:
            continue
        out[i, j] = 1
        if is_acyclic(out):
            added += 1
        else:
            out[i, j] = 0
    return out


def _draw_weight(rng: np.random.Generator, size) -> np.ndarray:
    mag = rng.uniform(0.5, 2.0, size=size)
    sign = rng.choice([-1.0, 1.0], size=size)
    return mag * sign


def make_state_graphs(cfg: SynthConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """G_m from ER, earlier states by cumulative deletion plus noise injection."""
    final = random_dag(cfg.d, min(cfg.er_expected_degree / (cfg.d - 1), 1.0), rng)
    graphs = [final]
    per_step = final.sum() // cfg.m
    cur = final
    for _ in range(cfg.m - 1):
        edges = np.argwhere(cur == 1)
        drop = min(int(per_step), len(edges))
        cur = cur.copy()
        if drop > 0:
            cur[tuple(edges[rng.choice(len(edges), size=drop, replace=False)].T)] = 0
        graphs.append(cur)
    graphs.reverse()                          # now G_1 .. G_m, edge counts ascending
    for t in range(cfg.m - 1):                # non-final states get noise edges
        base_edges = int(graphs[t].sum())
        extra = int(np.ceil(cfg.e / 100.0 * base_edges))
        if extra > 0:
            graphs[t] = _inject_noise_edges(graphs[t], extra, rng, t + 1)
    return graphs


def _draw_params(cfg: SynthConfig, graphs: list[np.ndarray],
                 rng: np.random.Generator) -> MechanismParams:
    union = np.zeros((cfg.d, cfg.d), dtype=np.int8)
    for g in graphs:
        union |= g
    lin = np.zeros((cfg.d, cfg.d))
    mask = union == 1
    lin[mask] = _draw_weight(rng, int(mask.sum()))
    square = np.zeros((cfg.d, cfg.d))
    pair: dict = {}
    if cfg.mechanism == "QR":
        square[mask] = _draw_weight(rng, int(mask.sum()))
        for i, k in itertools.combinations(range(cfg.d), 2):
            pair[(i, k)] = _draw_weight(rng, cfg.d)
    return MechanismParams(mechanism=cfg.mechanism, lin=lin, square=square,
                           noise_scale=np.full(cfg.d, cfg.noise_scale), pair=pair)


def sem_sample(adj: np.ndarray, params: MechanismParams, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """Draw n rows from the SEM X_j = f_j(parents) + noise, in topological
    order, under params' mechanism and noise scales."""
    mechanism = params.mechanism
    if mechanism not in MECHANISMS:
        raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    x = np.zeros((n, adj.shape[0]))
    for j in topological_order(adj):
        parents = np.flatnonzero(adj[:, j])
        pts = x[:, parents]
        if mechanism != "GP":
            f = pts @ params.lin[parents, j]
        elif parents.size:
            sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
            f = np.linalg.cholesky(np.exp(-0.5 * sq) + 1e-6 * np.eye(n)) @ rng.standard_normal(n)
        else:
            f = np.zeros(n)
        if mechanism == "QR":
            f += (pts ** 2) @ params.square[parents, j]
            for a, b in itertools.combinations(parents.tolist(), 2):
                f += params.pair[(a, b)][j] * x[:, a] * x[:, b]
        noise = rng.exponential(1.0, size=n) if mechanism == "LE" else rng.standard_normal(n)
        x[:, j] = f + noise * params.noise_scale[j]
    return x


def generate(cfg: SynthConfig) -> tuple[list[StreamBatch], GroundTruth]:
    """Full stream (state 1 .. m, batched) plus its ground truth."""
    root = np.random.SeedSequence(cfg.seed)
    graph_seq, param_seq, data_seq = root.spawn(3)
    rng_graphs = np.random.default_rng(graph_seq)
    graphs = make_state_graphs(cfg, rng_graphs)
    params = _draw_params(cfg, graphs, np.random.default_rng(param_seq))
    truth = GroundTruth(adjacencies=graphs, params=params, config=cfg)
    data_children = data_seq.spawn(cfg.m)
    batches: list[StreamBatch] = []
    for t in range(1, cfg.m + 1):
        rng = np.random.default_rng(data_children[t - 1])
        x = sem_sample(graphs[t - 1], params, cfg.n_per_state, rng)
        n_batches = cfg.n_per_state // cfg.batch_size
        for l in range(1, n_batches + 1):
            lo = (l - 1) * cfg.batch_size
            hi = l * cfg.batch_size if l < n_batches else cfg.n_per_state
            batches.append(StreamBatch(t=t, l=l, transition=(t > 1 and l == 1),
                                       x=x[lo:hi]))
    return batches, truth
