"""Online learning loop over a non-stationary batch stream.

One engine instance consumes batches in order, maintains the two agents,
and emits one estimate per batch as an EpisodeRecord, which io declares
beside the results file that holds it.  Three modes share the code path:

  marlin    dual agents, one worker owning the whole action vector
  marlin-s  single specific-style agent, no fusion, no decoupling terms
  marlin-m  dual agents, the action vector split across several workers

marlin is literally marlin-m with workers=1, which is what makes the
worker count a pure throughput knob.

The episodes of a learning batch run in updates of EPISODES_PER_UPDATE:
each agent encodes once, draws that many actions from one decoded policy,
the fused DAGs are mapped and scored as one stack (BatchScorer.score_many),
and each agent takes one train_step on all of them (batched policy-gradient
updates, as in RL-BIC, Zhu et al. 2020).  An agent's reward is the DAG's
-BIC plus its decoupling term at its own weight, penalty_lambda1 for the
specific agent and penalty_lambda2 for the invariant one.

Every episode is scored on the current state's rows so far: the engine
keeps one BatchScorer per state, extends its statistics with each learning
batch and, on a state transition, keeps only its column moments.  After the
episodes, an ordering search on the same statistics
(BatchScorer.ordering_search) starts from the state's incumbent ordering,
the best episode's ordering and a seeded random ordering; the estimate is
the better-scoring of its DAG and the best episode's.  Early exit reads
the last learning record: a batch that opens no new state repeats it with
xi 1, learning nothing, once it converged (xi > xi_threshold); a state's
first batch always learns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .agents import Agent
from .errors import ConfigError, DataRangeError, DimensionMismatchError, require
from .graphs import action_to_dag, graph_size
from .io import EpisodeRecord
from .scoring import (
    MAX_SEARCH_NODES,
    BatchScorer,
    decouple_invariant,
    decouple_specific,
    reward,
)

MODES = ("marlin", "marlin-s", "marlin-m")

# An edge cell v is smoothed to the Bernoulli (v + 1e-3) / 1.002, so a flipped
# cell compares p with 1 - p; their base-2 JS divergence is 1 - H2(p).
_JS_P = 1e-3 / (1.0 + 2e-3)
_JS_FLIP = 1.0 + _JS_P * np.log2(_JS_P) + (1.0 - _JS_P) * np.log2(1.0 - _JS_P)

# Episodes per policy update: each agent encodes once, draws this many
# actions from one decoded policy and takes one Adam step on all of them.
EPISODES_PER_UPDATE = 16


@dataclass
class OnlineConfig:
    """Every setting of a run, the reward weights included."""

    beta: float = 0.5
    xi_threshold: float = 0.98
    episodes_per_batch: int = 64
    mode: str = "marlin"
    workers: int = 1
    seed: int = 0
    penalty_lambda1: float = 0.1  # decoupling weight of the specific agent's reward
    penalty_lambda2: float = 0.1  # ... and of the invariant agent's
    lr: float = 0.01
    gamma: float = 0.99
    timing: bool = True           # False writes wall_ms = 0.0 for byte-stable output

    def __post_init__(self):
        require("episodes_per_batch", self.episodes_per_batch, "[1, inf)", integer=True)
        require("workers", self.workers, "[1, inf)", integer=True)
        require("seed", self.seed, "[0, inf)", integer=True)
        require("beta", self.beta, "[0, 1]")
        require("xi_threshold", self.xi_threshold, "[0, 1]")
        require("penalty_lambda1", self.penalty_lambda1, "[0, inf)")
        require("penalty_lambda2", self.penalty_lambda2, "[0, inf)")
        require("lr", self.lr, "(0, inf)")
        require("gamma", self.gamma, "[0, 1]")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode in ("marlin", "marlin-s") and self.workers != 1:
            raise ConfigError(f"mode {self.mode} runs a single worker")


def graph_similarity(g_prev: np.ndarray, g_cur: np.ndarray) -> float:
    """1 minus the mean base-2 JS divergence over off-diagonal edge cells.

    Agreeing cells add 0 and each flipped cell _JS_FLIP (about 0.98861), so
    identical graphs give 1 and fully complementary graphs about 0.011.
    """
    a, b = np.asarray(g_prev), np.asarray(g_cur)
    d = graph_size(a, b)
    if d < 2:
        return 1.0
    flipped = np.count_nonzero((a != b) & ~np.eye(d, dtype=bool))
    return float(1.0 - _JS_FLIP * flipped / (d * (d - 1)))


class EpisodeDags(NamedTuple):
    """DAGs of a learning batch's best episode: the fused DAG and each
    agent's own (invariant is None under marlin-s)."""

    fused: np.ndarray
    specific: np.ndarray
    invariant: np.ndarray | None


def _detached(rec: EpisodeRecord, **changes) -> EpisodeRecord:
    """rec with changes applied, sharing no array with rec."""
    return replace(rec, a_est=rec.a_est.copy(), **changes)


class OnlineEngine:
    """Incremental DAG learner over a stream of batches.

    state_scorer is the one store of the current state's statistics: the
    episodes and the search score against it, and on a state transition its
    column moments become prev_summary, which the invariant agent encodes.
    """

    def __init__(self, d: int, cfg: OnlineConfig):
        require("d", d, f"[2, {MAX_SEARCH_NODES}]", integer=True)
        self.d = d
        self.cfg = cfg
        width = max(16, 64 // cfg.workers)     # embedding and hidden width
        root = np.random.SeedSequence(cfg.seed)
        spec_init, inv_init, spec_sample, inv_sample, restarts = root.spawn(5)
        self.spec = Agent("specific", d, cfg.workers, width, cfg.lr, cfg.gamma, spec_init)
        self.dual = cfg.mode != "marlin-s"
        self.inv = (Agent("invariant", d, cfg.workers, width, cfg.lr, cfg.gamma, inv_init)
                    if self.dual else None)
        self._rng_spec = np.random.default_rng(spec_sample)
        self._rng_inv = np.random.default_rng(inv_sample)
        self._rng_restart = np.random.default_rng(restarts)
        zeros = np.zeros((d, d), dtype=np.int8)
        # record and best episode of the last learning batch; empty graphs before the first
        self._last = EpisodeRecord(t=0, l=0, a_est=zeros, best_reward=np.nan, xi=0.0,
                                   wall_ms=0.0, converged=False)
        self.best_dags = EpisodeDags(zeros, zeros, zeros if self.dual else None)
        self.prev_state_est = zeros            # final estimate of the previous state
        self.prev_summary = np.zeros((d, 2))   # previous state's per-column (mean, std)
        self.state_scorer: BatchScorer | None = None   # statistics of the state's rows
        self._incumbent = list(range(d))       # ordering of the latest estimate
        self.t: int | None = None

    # -- state handling ---------------------------------------------------------

    def on_state_transition(self, t_new: int):
        """Roll summaries, snapshot the finished state's estimate, reset the specific agent."""
        self.prev_state_est = self._last.a_est
        if self.state_scorer is not None:
            self.prev_summary = self.state_scorer.column_moments()
        self.state_scorer = None
        self.spec.reinit()
        self.t = t_new

    # -- main loop ----------------------------------------------------------------

    def process_batch(self, batch) -> EpisodeRecord:
        x = np.asarray(batch.x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DimensionMismatchError(f"batch {batch.t}/{batch.l} has width "
                                         f"{x.shape[-1]}, expected d={self.d}")
        start = time.perf_counter()
        transition = self.t is not None and (batch.transition or batch.t != self.t)
        skip = not transition and self._last.converged
        # The batch is checked and the scorer built before any state changes, so
        # a batch they reject (non-finite values, too few rows for the state so
        # far, or overflowing statistics) leaves the engine as it was.  The
        # agents' batch_stats read the batch's raw moments, so those must be finite too.
        if not np.isfinite(x).all():
            raise DataRangeError(f"batch {batch.t}/{batch.l} holds non-finite values")
        base = None if transition else self.state_scorer
        scorer = None if skip else BatchScorer(x, base=base)
        with np.errstate(over="ignore"):
            if not np.isfinite((x * x).sum(axis=0)).all():
                raise DataRangeError(f"batch {batch.t}/{batch.l}: the column sums of "
                                     "squares overflow float64")
        if transition:
            self.on_state_transition(batch.t)
        self.t = batch.t
        cfg = self.cfg
        if skip:    # xi 1: the similarity of the repeated estimate with itself
            wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.timing else 0.0
            return _detached(self._last, t=batch.t, l=batch.l, xi=1.0, wall_ms=wall_ms)

        self.state_scorer = scorer
        best_neg_bic, best = -np.inf, None
        for done in range(0, cfg.episodes_per_batch, EPISODES_PER_UPDATE):
            k = min(EPISODES_PER_UPDATE, cfg.episodes_per_batch - done)
            neg_bic, episode = self._update(x, scorer, k)
            if neg_bic > best_neg_bic:
                best_neg_bic, best = neg_bic, episode
        self.spec.commit_carry()

        dags, episode_order = best
        # the incumbent goes first, so it stays on ties
        order, a_est = scorer.ordering_search(
            [self._incumbent, episode_order, self._rng_restart.permutation(self.d)])
        neg_bic = -scorer.score(a_est)
        if neg_bic >= best_neg_bic:
            best_neg_bic = neg_bic
        else:
            order, a_est = episode_order.tolist(), dags.fused
        self._incumbent = order
        # a scorer that extends no base belongs to the state's first learning batch
        xi = 0.0 if base is None else graph_similarity(self.best_dags.fused, dags.fused)
        self.best_dags = dags
        wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.timing else 0.0
        self._last = EpisodeRecord(t=batch.t, l=batch.l, a_est=a_est, best_reward=best_neg_bic,
                                   xi=xi, wall_ms=wall_ms, converged=xi > cfg.xi_threshold)
        return _detached(self._last)

    def _update(self, x: np.ndarray, scorer: BatchScorer, k: int) -> tuple[float, tuple]:
        """k episodes and one train_step per agent; the best episode's -BIC and
        (EpisodeDags, node ordering): its nodes by descending ordering score, the
        first d entries of its fused action (graphs.action_to_dag).

        The update's tapes and samples die with this call, before the
        ordering search runs.
        """
        cfg = self.cfg
        a_prev, prev = self._last.a_est, self.best_dags
        z_spec = self.spec.encode_specific(x, a_prev)
        prop_spec = self.spec.propose(z_spec, self._rng_spec, k)
        if self.dual:
            z_inv = self.inv.encode_invariant(self.prev_summary, z_spec, a_prev)
            prop_inv = self.inv.propose(z_inv, self._rng_inv, k)
            fused = cfg.beta * prop_spec.actions + (1.0 - cfg.beta) * prop_inv.actions
        else:
            fused = prop_spec.actions
        a_fused = action_to_dag(fused)
        bic = scorer.score_many(a_fused)
        if self.dual:
            a_spec = action_to_dag(prop_spec.actions)
            a_inv = action_to_dag(prop_inv.actions)
            dec_s = decouple_specific(a_spec, prev.invariant, self.prev_state_est)
            r_spec = reward(bic, dec_s, cfg.penalty_lambda1)
            dec_i = decouple_invariant(a_inv, prev.specific, self.prev_state_est)
            r_inv = reward(bic, dec_i, cfg.penalty_lambda2)
        else:
            a_spec, a_inv = a_fused, None
            r_spec = -bic
        i = int(np.argmin(bic))
        best = (EpisodeDags(a_fused[i].copy(), a_spec[i].copy(),
                            None if a_inv is None else a_inv[i].copy()),
                np.argsort(-fused[i, :self.d], kind="stable"))
        self.spec.train_step(prop_spec, r_spec)
        if self.dual:
            self.inv.train_step(prop_inv, r_inv)
        return -float(bic[i]), best

    def run(self, batches):
        """Process an iterable of batches, yielding one record per batch."""
        for batch in batches:
            yield self.process_batch(batch)
