"""State-specific and state-invariant actor-critic agents.

Both agents share one mechanical skeleton: encode the current evidence
into node embeddings, decode a diagonal-Gaussian policy over (a slice of)
the action vector, draw k actions from it, and train on all k with an
advantage built from a critic and a scalar reward baseline.  They differ in
what they encode: the specific agent runs batch statistics through an LSTM
whose carry persists within a system state, the invariant agent projects a
summary of the previous state's data and conditions on the specific
agent's embedding.

All parameter tensors carry a leading worker axis so a factored action
space (several workers owning contiguous action slices) runs through the
same batched code as the single-worker case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InsufficientDataError, require
from .graphs import action_dim
from .nn import (
    LOG_2PI,
    GaussianPolicy,
    GCNLayer,
    LSTMCell,
    Linear,
    ParamStore,
    Tensor,
    adam_step,
    concat,
    gcn_normalize,
)

KINDS = ("specific", "invariant")


def batch_stats(x: np.ndarray) -> np.ndarray:
    """Per-column [mean, std, min, max], squashed by sign(v)*log1p(|v|)."""
    x = np.asarray(x, dtype=float)
    raw = np.stack([x.mean(axis=0), x.std(axis=0), x.min(axis=0), x.max(axis=0)], axis=1)
    return np.sign(raw) * np.log1p(np.abs(raw))


@dataclass
class ActionProposal:
    """k actions drawn from one policy, and what train_step needs of them."""

    actions: np.ndarray           # (k, d*(d+1)) assembled full actions
    samples: np.ndarray           # (k, w, 1, max_slice) the same actions per worker slice
    policy: GaussianPolicy        # taped (w, 1, max_slice) mean and clamped log_std
    valid_mask: np.ndarray        # (w, 1, max_slice) 1 on each worker's own slice
    predicted_reward: Tensor      # (w,) critic output

    def weighted_log_prob(self, weights: np.ndarray) -> Tensor:
        """Taped sum_k weights[k, w] * log p(sample k) of each worker, shape (w,).

        The samples enter only through three moments of D = a - mean:
        sum_k c, sum_k c * D and sum_k c * D^2.  With shift = mean - mean.data
        (zero in value, the mean's gradient in the tape),
        sum_k c * (a_k - mean)^2 = sum c*D^2 - 2 * shift * sum c*D + shift^2 * sum c,
        and the last term is zero in value and gradient.  So the tape has the
        policy's shape whatever the number of samples.
        """
        c = np.asarray(weights, dtype=float)
        if c.shape != self.samples.shape[:2]:
            raise DimensionMismatchError(
                f"weights of shape {c.shape} do not match {self.samples.shape[:2]} samples"
            )
        c = c[:, :, None, None]
        mean, log_std = self.policy.mean, self.policy.log_std
        dev = self.samples - mean.data
        s0 = c.sum(axis=0)
        s1 = (c * dev).sum(axis=0)
        s2 = (c * dev * dev).sum(axis=0)
        shift = mean - mean.data
        sq = Tensor(s2) - shift * (2.0 * s1)
        per_dim = (log_std * s0 + sq * (log_std * -2.0).exp() * 0.5
                   + 0.5 * LOG_2PI * s0)
        return -(per_dim * self.valid_mask).sum(axis=-1).reshape(len(self.valid_mask))


@dataclass
class TrainStats:
    actor_loss: float
    critic_loss: float
    mean_advantage: float
    baseline: float


def partition_action_space(action_len: int, workers: int) -> list[int]:
    """Contiguous slice lengths; the last worker absorbs the remainder."""
    require("workers", workers, f"[1, {action_len}]", integer=True)
    base = action_len // workers
    sizes = [base] * workers
    sizes[-1] += action_len - base * workers
    return sizes


class Agent:
    """Actor-critic over (a partition of) the continuous action space.

    kind "specific" adds an LSTM over per-batch statistics whose carry is
    the agent's memory within a system state; kind "invariant" instead
    projects the previous state's data summary and consumes the specific
    agent's (detached) embedding.
    """

    def __init__(self, kind: str, d: int, workers: int, width: int,
                 lr: float, gamma: float, seed_seq: np.random.SeedSequence):
        if kind not in KINDS:
            raise ConfigError(f"agent kind must be one of {KINDS}, got {kind!r}")
        require("lr", lr, "(0, inf)")
        require("gamma", gamma, "[0, 1]")
        self.kind = kind
        self.d = d
        self.workers = workers
        self.width = width                # embedding and hidden width
        self.lr = lr
        self.gamma = gamma
        self.slice_sizes = partition_action_space(action_dim(d), workers)
        self.max_slice = max(self.slice_sizes)
        mask = np.zeros((workers, 1, self.max_slice))
        for k, size in enumerate(self.slice_sizes):
            mask[k, 0, :size] = 1.0
        self.valid_mask = mask
        self._init_seq = seed_seq
        self._build(np.random.default_rng(seed_seq.spawn(1)[0]))

    # -- construction --------------------------------------------------------

    def _build(self, rng: np.random.Generator, reuse: ParamStore | None = None):
        d, w, width = self.d, self.workers, self.width
        store = ParamStore()
        stack = (w,)
        if self.kind == "specific":
            self.proj = Linear(store, "proj", stack, 4, width, rng)
            self.lstm = LSTMCell(store, "lstm", stack, width, width, rng)
            self.carry = (np.zeros((w, 1, width)), np.zeros((w, 1, width)))
        else:
            self.proj = Linear(store, "proj", stack, 2, width, rng)
            self.lstm = None
            self.carry = None
        self._pending_carry = None
        # either kind's GCN reads its projection next to one more width-wide input
        self.gcn = GCNLayer(store, "gcn", stack, 2 * width, width, rng)
        self.dec1 = Linear(store, "dec1", stack, d * width, width, rng)
        self.dec2 = Linear(store, "dec2", stack, width, 2 * self.max_slice, rng, gain=0.1)
        self.critic1 = Linear(store, "critic1", stack, width, width, rng)
        self.critic2 = Linear(store, "critic2", stack, width, 1, rng)
        store.pack(reuse)
        self.params = store
        self.baseline = 0.0

    def reinit(self):
        """Fresh seeded parameters, zero carry, zero baseline, in the old store's buffers."""
        if self.kind != "specific":
            raise ConfigError("only the state-specific agent is reinitialized")
        self._build(np.random.default_rng(self._init_seq.spawn(1)[0]), reuse=self.params)

    # -- encoders -------------------------------------------------------------

    def encode_specific(self, x: np.ndarray, prev_dag: np.ndarray) -> Tensor:
        """Column statistics -> LSTM with carried state -> GCN over prev_dag."""
        if self.kind != "specific":
            raise ConfigError("encode_specific requires a specific agent")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DimensionMismatchError(f"batch shape {x.shape} does not match d={self.d}")
        stats = batch_stats(x)                        # (d, 4)
        proj = self.proj(Tensor(stats)).tanh()        # (w, d, width)
        pooled = proj.mean(axis=1, keepdims=True)     # (w, 1, width)
        h_prev = Tensor(self.carry[0])
        c_prev = Tensor(self.carry[1])
        h, (h_new, c_new) = self.lstm(pooled, (h_prev, c_prev))
        self._pending_carry = (h_new.data.copy(), c_new.data.copy())
        spread = h.broadcast_to((self.workers, self.d, self.width))
        feats = concat([proj, spread], axis=-1)
        return self.gcn(feats, gcn_normalize(prev_dag))

    def commit_carry(self):
        """Advance the LSTM carry to the last encode's output (once per batch)."""
        if self._pending_carry is not None:
            self.carry = self._pending_carry
            self._pending_carry = None

    def encode_invariant(self, prev_summary: np.ndarray, z_specific: Tensor,
                         prev_dag: np.ndarray) -> Tensor:
        """Previous-state summary projection, concatenated with z_specific, GCN."""
        if self.kind != "invariant":
            raise ConfigError("encode_invariant requires an invariant agent")
        summary = np.asarray(prev_summary, dtype=float)
        if summary.shape != (self.d, 2):
            raise DimensionMismatchError(
                f"previous-state summary must be ({self.d}, 2), got {summary.shape}"
            )
        squashed = np.sign(summary) * np.log1p(np.abs(summary))
        proj = self.proj(Tensor(squashed)).tanh()     # (w, d, width)
        z_const = z_specific.detach()
        if z_const.data.shape != (self.workers, self.d, self.width):
            raise DimensionMismatchError(
                f"specific embedding shape {z_const.data.shape} does not match agent"
            )
        feats = concat([proj, z_const], axis=-1)
        return self.gcn(feats, gcn_normalize(prev_dag))

    # -- acting ----------------------------------------------------------------

    def _policy(self, z: Tensor) -> GaussianPolicy:
        """Decode the (w, 1, max_slice) diagonal-Gaussian policy from the embedding."""
        flat = z.reshape(self.workers, 1, self.d * self.width)
        out = self.dec2(self.dec1(flat).tanh())        # (w, 1, 2 * max_slice)
        return GaussianPolicy(out.narrow(-1, 0, self.max_slice),
                              out.narrow(-1, self.max_slice, self.max_slice))

    def propose(self, z: Tensor, rng: np.random.Generator, k: int) -> ActionProposal:
        """Decode the policy once, draw k actions from it, and predict the reward.

        The k draws take one (k, w, 1, max_slice) normal array, which is the
        same stream as k draws of one action each.
        """
        if k < 1:
            raise ConfigError(f"propose needs k >= 1 samples, got {k}")
        w = self.workers
        policy = self._policy(z)
        samples = rng.standard_normal((k, w, 1, self.max_slice))
        samples *= np.exp(policy.log_std.data)
        samples += policy.mean.data
        pooled = z.detach().mean(axis=1, keepdims=True)
        pred = self.critic2(self.critic1(pooled).tanh()).reshape(w)
        actions = np.concatenate(
            [samples[:, j, 0, :size] for j, size in enumerate(self.slice_sizes)], axis=1
        )
        return ActionProposal(actions=actions, samples=samples, policy=policy,
                              valid_mask=self.valid_mask, predicted_reward=pred)

    # -- learning ----------------------------------------------------------------

    def train_step(self, proposal: ActionProposal, rewards) -> TrainStats:
        """One combined actor/critic update from a proposal's k actions and rewards.

        advantage_k = R_k - (B + R_hat), held constant for the actor term,
        whose loss is the mean over k of -advantage_k * log p(a_k); the
        critic minimizes the mean squared TD error (R_k - (B + R_hat))^2.
        Actor and critic parameter sets are disjoint (the critic reads a
        detached embedding), so the single Adam step below is one step for
        each.
        """
        rewards = np.asarray(rewards, dtype=float)
        if rewards.size == 0:
            raise InsufficientDataError("train_step needs at least one reward")
        k = len(proposal.actions)
        if rewards.shape != (k,):
            raise DimensionMismatchError(
                f"{rewards.size} rewards do not align with {k} proposed actions"
            )
        pred = proposal.predicted_reward
        adv = rewards[:, None] - (self.baseline + pred.data)          # (k, w) constant
        actor_loss = proposal.weighted_log_prob(-adv / k)
        td = Tensor(rewards[:, None] - self.baseline) - pred
        critic_loss = td.square().mean(axis=0)
        total = actor_loss.sum() + critic_loss.sum()
        self.params.zero_grad()
        total.backward()
        adam_step(self.params, lr=self.lr)
        mean_reward = float(rewards.mean())
        self.baseline = self.gamma * self.baseline + (1.0 - self.gamma) * mean_reward
        return TrainStats(
            actor_loss=float(actor_loss.data.sum()),
            critic_loss=float(critic_loss.data.sum()),
            mean_advantage=float(adv.mean()),
            baseline=self.baseline,
        )

