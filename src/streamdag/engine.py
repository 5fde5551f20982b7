"""Online learning loop over a non-stationary batch stream.

One engine instance consumes batches in order, maintains the two agents,
and emits one estimate per batch.  Three modes share the code path:

  marlin    dual agents, one worker owning the whole action vector
  marlin-s  single specific-style agent, no fusion, no decoupling terms
  marlin-m  dual agents, the action vector split across several workers

marlin is literally marlin-m with workers=1, which is what makes the
worker count a pure throughput knob.

The episodes of a learning batch run in updates of EPISODES_PER_UPDATE:
each agent encodes once, draws that many actions from one decoded policy,
the fused DAGs are mapped and scored as one stack (BatchScorer.score_many),
and each agent takes one train_step on all of them (batched policy-gradient
updates, as in RL-BIC, Zhu et al. 2020).

Every episode is scored on the current state's rows so far: the engine
keeps one BatchScorer per state, extends its statistics with each learning
batch and drops it on a state transition.  After the episodes, an ordering
search on the same statistics (BatchScorer.ordering_search) starts from the
state's incumbent ordering, the best episode's ordering and a seeded random
ordering; the estimate is the better-scoring of its DAG and the best
episode's.  Early exit watches the agents: it fires once the best episodes'
DAGs of two consecutive batches are more similar than xi_threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import Agent, fuse_actions
from .errors import ConfigError, DataRangeError, DimensionMismatchError
from .graphs import action_dim, action_to_dag, split_action
from .scoring import (
    MAX_SEARCH_NODES,
    BatchScorer,
    ScoreConfig,
    decouple_invariant,
    decouple_specific,
    reward,
)

MODES = ("marlin", "marlin-s", "marlin-m")

_JS_EPS = 1e-3

# Episodes per policy update: each agent encodes once, draws this many
# actions from one decoded policy and takes one Adam step on all of them.
EPISODES_PER_UPDATE = 16


@dataclass
class OnlineConfig:
    beta: float = 0.5
    xi_threshold: float = 0.98
    episodes_per_batch: int = 64
    mode: str = "marlin"
    workers: int = 1
    seed: int = 0
    score: ScoreConfig = field(default_factory=ScoreConfig)
    lr: float = 0.01
    gamma: float = 0.99
    timing: bool = True           # False writes wall_ms = 0.0 for byte-stable output

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.mode in ("marlin", "marlin-s") and self.workers != 1:
            raise ConfigError(f"mode {self.mode} runs a single worker")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.xi_threshold <= 1.0:
            raise ConfigError(f"xi_threshold must be in [0, 1], got {self.xi_threshold}")
        if self.episodes_per_batch < 1:
            raise ConfigError("episodes_per_batch must be positive")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass
class EpisodeRecord:
    """Per-batch output of the engine.

    a_est is the estimate and best_reward the negated BIC of a_est on the
    state's rows so far (on a converged record: up to the state's last
    learning batch).  a_spec and a_inv come from the batch's best episode,
    and xi is the similarity between the fused DAGs of the best episodes of
    this and the state's previous learning batch: 0 on a state's first
    batch, 1 on a converged record.
    """

    t: int
    l: int
    a_est: np.ndarray
    a_spec: np.ndarray | None
    a_inv: np.ndarray | None
    best_reward: float
    xi: float
    wall_ms: float
    converged: bool


def graph_similarity(g_prev: np.ndarray, g_cur: np.ndarray) -> float:
    """1 minus the mean base-2 JS divergence over off-diagonal edge cells.

    Each cell is a Laplace-smoothed Bernoulli p = (v + eps) / (1 + 2 eps) with
    eps = _JS_EPS, so identical graphs give 1 and fully complementary graphs
    approach 0.
    """
    a = np.asarray(g_prev, dtype=float)
    b = np.asarray(g_cur, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"graphs must share a square shape, got {a.shape} vs {b.shape}")
    d = a.shape[0]
    if d < 2:
        return 1.0
    off = ~np.eye(d, dtype=bool)
    p = (a[off] + _JS_EPS) / (1.0 + 2.0 * _JS_EPS)
    q = (b[off] + _JS_EPS) / (1.0 + 2.0 * _JS_EPS)

    def kl(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u * np.log2(u / v) + (1.0 - u) * np.log2((1.0 - u) / (1.0 - v))

    m = 0.5 * (p + q)
    js = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return float(1.0 - js.mean())


def _detached(rec: EpisodeRecord, **changes) -> EpisodeRecord:
    """rec with changes applied, sharing no array with rec."""
    for name in ("a_est", "a_spec", "a_inv"):
        if getattr(rec, name) is not None:
            changes[name] = getattr(rec, name).copy()
    return replace(rec, **changes)


class OnlineEngine:
    """Incremental DAG learner over a stream of batches."""

    def __init__(self, d: int, cfg: OnlineConfig):
        if not 2 <= d <= MAX_SEARCH_NODES:
            raise ConfigError(f"need 2 to {MAX_SEARCH_NODES} variables, got d={d}")
        if cfg.workers > action_dim(d):
            raise ConfigError(
                f"workers={cfg.workers} exceeds action length {action_dim(d)}"
            )
        self.d = d
        self.cfg = cfg
        width = max(16, 64 // cfg.workers)     # embedding and hidden width
        root = np.random.SeedSequence(cfg.seed)
        spec_init, inv_init, spec_sample, inv_sample, restarts = root.spawn(5)
        self.spec = Agent("specific", d, cfg.workers, width, width,
                          cfg.lr, cfg.gamma, spec_init)
        self.dual = cfg.mode != "marlin-s"
        self.inv = (Agent("invariant", d, cfg.workers, width, width,
                          cfg.lr, cfg.gamma, inv_init) if self.dual else None)
        self._rng_spec = np.random.default_rng(spec_sample)
        self._rng_inv = np.random.default_rng(inv_sample)
        self._rng_restart = np.random.default_rng(restarts)
        zeros = np.zeros((d, d), dtype=np.int8)
        # record of the last learning batch; empty graphs before the first batch
        self._last = EpisodeRecord(t=0, l=0, a_est=zeros, a_spec=zeros, a_inv=zeros,
                                   best_reward=np.nan, xi=0.0, wall_ms=0.0, converged=False)
        self.prev_best_dag = zeros             # fused DAG of the previous batch's best episode
        self.prev_state_est = zeros            # final estimate of the previous state
        self.prev_summary = np.zeros((d, 2))   # previous state's per-column (mean, std)
        self._stat_count = 0
        self._stat_sum = np.zeros(d)
        self._stat_sumsq = np.zeros(d)
        self.state_scorer: BatchScorer | None = None   # statistics of the state's rows
        self._incumbent = list(range(d))       # ordering of the latest estimate
        self.t: int | None = None
        self.batch_in_state = 0
        self.converged = False

    # -- state handling ---------------------------------------------------------

    def on_state_transition(self, t_new: int) -> "OnlineEngine":
        """Roll summaries, snapshot the finished state's estimate, reset the specific agent."""
        self.prev_state_est = self._last.a_est
        if self._stat_count > 0:
            mean = self._stat_sum / self._stat_count
            var = self._stat_sumsq / self._stat_count - mean * mean
            self.prev_summary = np.stack([mean, np.sqrt(np.maximum(var, 0.0))], axis=1)
        self._stat_count = 0
        self._stat_sum[:] = 0.0
        self._stat_sumsq[:] = 0.0
        self.state_scorer = None
        self.spec.reinit()
        self.converged = False
        self.t = t_new
        self.batch_in_state = 0
        return self

    # -- main loop ----------------------------------------------------------------

    def process_batch(self, batch) -> EpisodeRecord:
        x = np.asarray(batch.x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DimensionMismatchError(
                f"batch {batch.t}/{batch.l} has width {x.shape[-1]}, expected d={self.d}"
            )
        start = time.perf_counter()
        transition = self.t is not None and (batch.transition or batch.t != self.t)
        # The scorer and the state's column sums are built before any state
        # changes, so a batch they reject (too few rows for the state so far,
        # or values whose statistics overflow) leaves the engine as it was.
        scorer = (BatchScorer(x, self.cfg.score, base=None if transition else self.state_scorer)
                  if transition or not self.converged else None)
        stat_sum, stat_sumsq = (0.0, 0.0) if transition else (self._stat_sum, self._stat_sumsq)
        with np.errstate(over="ignore", invalid="ignore"):
            stat_sum = stat_sum + x.sum(axis=0)
            stat_sumsq = stat_sumsq + (x * x).sum(axis=0)
        if not (np.isfinite(stat_sum).all() and np.isfinite(stat_sumsq).all()):
            raise DataRangeError(f"batch {batch.t}/{batch.l}: the state's column sums of "
                                 "squares overflow float64")
        if self.t is None:
            self.t = batch.t
        elif transition:
            self.on_state_transition(batch.t)
        self.batch_in_state += 1

        self._stat_count += x.shape[0]
        self._stat_sum, self._stat_sumsq = stat_sum, stat_sumsq
        if scorer is None:
            return self._converged_record(batch, start)

        cfg = self.cfg
        self.state_scorer = scorer
        best_neg_bic, best = -np.inf, None
        for done in range(0, cfg.episodes_per_batch, EPISODES_PER_UPDATE):
            k = min(EPISODES_PER_UPDATE, cfg.episodes_per_batch - done)
            neg_bic, episode = self._update(x, scorer, k)
            if neg_bic > best_neg_bic:
                best_neg_bic, best = neg_bic, episode
        self.spec.commit_carry()

        a_best, a_spec_best, a_inv_best, fused_best = best
        order_scores, _ = split_action(fused_best)
        # the incumbent goes first, so it stays on ties
        episode_order = np.argsort(-order_scores, kind="stable")
        order, a_est = scorer.ordering_search(
            [self._incumbent, episode_order, self._rng_restart.permutation(self.d)])
        neg_bic = -scorer.score(a_est)
        if neg_bic >= best_neg_bic:
            best_neg_bic = neg_bic
        else:
            order, a_est = episode_order.tolist(), a_best
        self._incumbent = order
        xi = (0.0 if self.batch_in_state == 1
              else graph_similarity(self.prev_best_dag, a_best))
        if xi > cfg.xi_threshold:
            self.converged = True
        self.prev_best_dag = a_best
        wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.timing else 0.0
        self._last = EpisodeRecord(
            t=batch.t, l=batch.l, a_est=a_est, a_spec=a_spec_best, a_inv=a_inv_best,
            best_reward=best_neg_bic, xi=xi, wall_ms=wall_ms, converged=self.converged,
        )
        return _detached(self._last)

    def _update(self, x: np.ndarray, scorer: BatchScorer, k: int) -> tuple[float, tuple]:
        """k episodes and one train_step per agent; the best episode's -BIC and
        (fused DAG, specific DAG, invariant DAG, fused action).

        The update's tapes and samples die with this call, before the
        ordering search runs.
        """
        cfg = self.cfg
        last = self._last
        z_spec = self.spec.encode_specific(x, last.a_est)
        prop_spec = self.spec.propose(z_spec, self._rng_spec, k)
        if self.dual:
            z_inv = self.inv.encode_invariant(self.prev_summary, z_spec, last.a_est)
            prop_inv = self.inv.propose(z_inv, self._rng_inv, k)
            fused = fuse_actions(prop_spec.actions, prop_inv.actions, cfg.beta)
        else:
            fused = prop_spec.actions
        a_fused = action_to_dag(fused)
        bic = scorer.score_many(a_fused)
        if self.dual:
            a_spec = action_to_dag(prop_spec.actions)
            a_inv = action_to_dag(prop_inv.actions)
            dec_s = decouple_specific(a_spec, last.a_inv, self.prev_state_est)
            r_spec = reward("specific", bic, dec_s, cfg.score).total
            dec_i = decouple_invariant(a_inv, last.a_spec, self.prev_state_est)
            r_inv = reward("invariant", bic, dec_i, cfg.score).total
        else:
            a_spec, a_inv = a_fused, None
            r_spec = -bic
        i = int(np.argmin(bic))
        best = (a_fused[i].copy(), a_spec[i].copy(),
                None if a_inv is None else a_inv[i].copy(), fused[i].copy())
        self.spec.train_step(prop_spec, r_spec)
        if self.dual:
            self.inv.train_step(prop_inv, r_inv)
        return -float(bic[i]), best

    def _converged_record(self, batch, start: float) -> EpisodeRecord:
        """Early-exit path: no episodes, no scoring, a copy of the last learning
        record; xi is 1, the similarity of the estimate it repeats with itself."""
        wall_ms = (time.perf_counter() - start) * 1000.0 if self.cfg.timing else 0.0
        return _detached(self._last, t=batch.t, l=batch.l, xi=1.0, wall_ms=wall_ms,
                         converged=True)

    def run(self, batches):
        """Process an iterable of batches, yielding one record per batch."""
        for batch in batches:
            yield self.process_batch(batch)
