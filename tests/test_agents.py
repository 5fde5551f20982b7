"""Dual-agent encoding, proposing, fusing, and training mechanics."""

import math

import numpy as np
import pytest

from streamdag.agents import (
    Agent,
    fuse_actions,
    partition_action_space,
    update_baseline,
)
from streamdag.errors import ConfigError, DimensionMismatchError, InsufficientDataError
from streamdag.nn import Tensor

from oracles import finite_diff_grad

D = 4
WIDTH = 8


def make_agent(kind="specific", seed=11, workers=1, d=D):
    return Agent(kind, d=d, workers=workers, width=WIDTH,
                 lr=0.01, gamma=0.99, seed_seq=np.random.SeedSequence(seed))


def make_batch(seed=0, n=30, d=D):
    return np.random.default_rng(seed).standard_normal((n, d))


def test_fuse_actions_unit_cases():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(fuse_actions(a, b, 0.5), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(fuse_actions(a, b, 1.0), a)
    np.testing.assert_array_equal(fuse_actions(a, b, 0.0), b)
    np.testing.assert_array_equal(fuse_actions(a, a, 0.37), a)


def test_fuse_actions_validation():
    with pytest.raises(DimensionMismatchError):
        fuse_actions(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(ConfigError):
        fuse_actions(np.zeros(3), np.zeros(3), 1.5)


def test_update_baseline_unit_cases():
    assert update_baseline(0.0, 0.9, 2.0) == pytest.approx(0.2)
    assert update_baseline(1.7, 1.0, 99.0) == 1.7
    assert update_baseline(1.7, 0.0, 99.0) == 99.0


def test_baseline_stays_in_convex_hull():
    rng = np.random.default_rng(0)
    b = 0.0
    rewards = rng.uniform(-5, 3, size=50)
    for r in rewards:
        b = update_baseline(b, 0.9, float(r))
        assert min(rewards.min(), 0.0) <= b <= max(rewards.max(), 0.0)


def test_partition_sizes():
    assert partition_action_space(20, 1) == [20]
    assert partition_action_space(20, 4) == [5, 5, 5, 5]
    assert partition_action_space(22, 4) == [5, 5, 5, 7]
    with pytest.raises(ConfigError):
        partition_action_space(6, 7)
    with pytest.raises(ConfigError):
        partition_action_space(6, 0)


def test_encode_specific_shape_and_first_batch_determinism():
    prev = np.zeros((D, D), dtype=np.int8)
    x = make_batch()
    z1 = make_agent(seed=3).encode_specific(x, prev)
    z2 = make_agent(seed=3).encode_specific(x, prev)
    assert z1.data.shape == (1, D, WIDTH)
    np.testing.assert_array_equal(z1.data, z2.data)


def test_encode_specific_carry_evolves():
    agent = make_agent()
    prev = np.zeros((D, D), dtype=np.int8)
    x = make_batch()
    z1 = agent.encode_specific(x, prev)
    agent.commit_carry()
    z2 = agent.encode_specific(x, prev)
    assert not np.array_equal(z1.data, z2.data)


def test_encode_specific_rejects_wrong_width():
    agent = make_agent()
    with pytest.raises(DimensionMismatchError):
        agent.encode_specific(make_batch(d=D + 1), np.zeros((D, D)))


def test_encode_invariant_shape_and_determinism():
    spec = make_agent("specific", seed=4)
    inv1 = make_agent("invariant", seed=5)
    inv2 = make_agent("invariant", seed=5)
    prev = np.zeros((D, D), dtype=np.int8)
    z = spec.encode_specific(make_batch(), prev)
    summary = np.stack([np.arange(D, dtype=float), np.ones(D)], axis=1)
    out1 = inv1.encode_invariant(summary, z, prev)
    out2 = inv2.encode_invariant(summary, z, prev)
    assert out1.data.shape == (1, D, WIDTH)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_encode_invariant_permutation_equivariance():
    """Relabeling nodes permutes the embedding rows identically."""
    inv = make_agent("invariant", seed=6)
    rng = np.random.default_rng(7)
    summary = rng.standard_normal((D, 2))
    z = Tensor(rng.standard_normal((1, D, WIDTH)))
    adj = np.array(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int8
    )
    base = inv.encode_invariant(summary, z, adj).data
    perm = np.array([2, 0, 3, 1])
    out = inv.encode_invariant(
        summary[perm], Tensor(z.data[:, perm, :]), adj[np.ix_(perm, perm)]
    ).data
    np.testing.assert_allclose(out, base[:, perm, :], atol=1e-12)


def test_specific_pipeline_permutation_equivariance():
    spec = make_agent("specific", seed=8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, D))
    adj = np.array(
        [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int8
    )
    base = spec.encode_specific(x, adj).data
    perm = np.array([3, 1, 0, 2])
    out = make_agent("specific", seed=8).encode_specific(
        x[:, perm], adj[np.ix_(perm, perm)]
    ).data
    np.testing.assert_allclose(out, base[:, perm, :], atol=1e-12)


def _assembled(agent, stacked):
    """Concatenate each worker's slice of a (w, 1, max_slice) array."""
    return np.concatenate([stacked[k, 0, :size] for k, size in enumerate(agent.slice_sizes)])


def _closed_form_density(agent, prop, i):
    """Per-element Gaussian log density of sample i, assembled like the action."""
    mean = _assembled(agent, prop.policy.mean.data)
    var = np.exp(2 * _assembled(agent, prop.policy.log_std.data))
    return -0.5 * np.log(2 * math.pi * var) - (prop.actions[i] - mean) ** 2 / (2 * var)


def test_propose_reproducible_and_consistent():
    agent = make_agent(seed=10)
    z = agent.encode_specific(make_batch(), np.zeros((D, D)))
    p1 = agent.propose(z, np.random.default_rng(42), 3)
    p2 = agent.propose(z, np.random.default_rng(42), 3)
    np.testing.assert_array_equal(p1.actions, p2.actions)
    assert p1.actions.shape == (3, D * (D + 1))
    assert np.isfinite(p1.predicted_reward.data).all()
    # the taped log density agrees with the closed form at each sampled action
    for i in range(3):
        one_hot = np.eye(3)[:, [i]]
        got = float(p1.weighted_log_prob(one_hot).data.sum())
        assert got == pytest.approx(float(_closed_form_density(agent, p1, i).sum()), abs=1e-10)
    with pytest.raises(ConfigError):
        agent.propose(z, np.random.default_rng(42), 0)


def test_propose_stacked_workers_assembles_full_action():
    agent = make_agent(workers=3, seed=12)
    z = agent.encode_specific(make_batch(), np.zeros((D, D)))
    prop = agent.propose(z, np.random.default_rng(0), 2)
    assert prop.actions.shape == (2, D * (D + 1))
    assert prop.samples.shape == (2, 3, 1, agent.max_slice)
    assert prop.predicted_reward.data.shape == (3,)
    # per-worker log densities also match closed form on each slice
    for i in range(2):
        got = prop.weighted_log_prob(np.eye(2)[:, [i]] * np.ones(3)).data
        assert got.shape == (3,)
        dens = _closed_form_density(agent, prop, i)
        start = 0
        for k, size in enumerate(agent.slice_sizes):
            want = float(dens[start:start + size].sum())
            assert float(got[k]) == pytest.approx(want, abs=1e-10)
            start += size


def test_propose_k_samples_equal_k_single_draws():
    for workers in (1, 3):
        agent = make_agent(workers=workers, seed=16)
        z = agent.encode_specific(make_batch(), np.zeros((D, D)))
        stacked = agent.propose(z, np.random.default_rng(5), 6)
        rng = np.random.default_rng(5)
        single = [agent.propose(z, rng, 1).actions[0] for _ in range(6)]
        np.testing.assert_array_equal(stacked.actions, np.array(single))


@pytest.mark.parametrize("workers", [1, 4])
def test_moment_actor_loss_matches_per_sample_log_prob(workers):
    """Sum_k c_k log p(a_k) from three moments equals the per-sample tape."""
    k = 5
    x = make_batch(seed=17)
    weights = np.random.default_rng(18).standard_normal((k, workers)) * 30.0

    def forward():
        # non-leaf tensors keep .grad, so each loss gets its own forward pass
        agent = make_agent(workers=workers, seed=19)
        z = agent.encode_specific(x, np.zeros((D, D)))
        return agent, agent.propose(z, np.random.default_rng(20), k)

    def grads(agent, loss):
        agent.params.zero_grad()
        loss.sum().backward()
        return {name: p.grad for name, p in agent.params.params.items() if p.grad is not None}

    agent, prop = forward()
    moment = prop.weighted_log_prob(weights)
    g_moment = grads(agent, moment)

    agent, prop = forward()
    terms = [prop.policy.log_prob(prop.samples[i], valid_mask=prop.valid_mask,
                                  axis=-1).reshape(workers) * weights[i] for i in range(k)]
    per_sample = terms[0]
    for term in terms[1:]:
        per_sample = per_sample + term
    g_sample = grads(agent, per_sample)

    np.testing.assert_allclose(moment.data, per_sample.data, rtol=1e-12)
    assert set(g_moment) == set(g_sample)
    assert "dec2.w" in g_moment and "proj.w" in g_moment
    for name, g in g_sample.items():
        np.testing.assert_allclose(g_moment[name], g, rtol=1e-9,
                                   atol=1e-12 * np.abs(g).max())


def test_zero_advantage_leaves_parameters_unchanged():
    agent = make_agent(seed=13)
    z = agent.encode_specific(make_batch(), np.zeros((D, D)))
    prop = agent.propose(z, np.random.default_rng(1), 4)
    reward = float(prop.predicted_reward.data[0])  # baseline is 0 -> advantage 0
    before = {k: t.data.copy() for k, t in agent.params.params.items()}
    stats = agent.train_step(prop, [reward] * 4)
    assert stats.mean_advantage == 0.0
    assert stats.critic_loss == 0.0
    for k, t in agent.params.params.items():
        np.testing.assert_array_equal(t.data, before[k])


def test_train_step_moves_parameters_and_baseline():
    agent = make_agent(seed=14)
    z = agent.encode_specific(make_batch(), np.zeros((D, D)))
    prop = agent.propose(z, np.random.default_rng(2), 2)
    stats = agent.train_step(prop, [4.0, 6.0])
    assert agent.baseline[0] == pytest.approx(update_baseline(0.0, 0.99, 5.0))
    assert stats.critic_loss > 0.0


def test_train_step_rejects_empty_and_misaligned():
    agent = make_agent(seed=15)
    z = agent.encode_specific(make_batch(), np.zeros((D, D)))
    prop = agent.propose(z, np.random.default_rng(3), 1)
    with pytest.raises(InsufficientDataError):
        agent.train_step(prop, [])
    with pytest.raises(DimensionMismatchError):
        agent.train_step(prop, [1.0, 2.0])


def test_actor_gradient_matches_finite_differences():
    """FD check of train_step's actor gradient in the decoder weights on a 2-node toy."""
    x = make_batch(seed=20, n=25, d=2)
    prev = np.zeros((2, 2), dtype=np.int8)
    rewards = np.array([1.7, -0.4, 0.9])
    k = len(rewards)

    def fresh():
        return Agent("specific", d=2, workers=1, width=4,
                     lr=0.01, gamma=0.99, seed_seq=np.random.SeedSequence(22))

    agent = fresh()
    prop = agent.propose(agent.encode_specific(x, prev), np.random.default_rng(21), k)
    adv = rewards - prop.predicted_reward.data[0]             # the baseline starts at 0
    agent.train_step(prop, rewards)
    got = agent.dec2.w.grad.copy()                            # dec2 feeds the actor only

    probe = fresh()

    def objective(wdata: np.ndarray) -> float:
        probe.dec2.w.data = wdata
        zz = probe.encode_specific(x, prev)
        policy = probe.propose(zz, np.random.default_rng(0), 1).policy
        return float(sum(policy.log_prob(prop.samples[i]).data * (-adv[i] / k)
                         for i in range(k)))

    fd = finite_diff_grad(objective, probe.dec2.w.data.copy(), step=1e-5)
    np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-8)


def test_reinit_guard_and_determinism():
    inv = make_agent("invariant", seed=30)
    with pytest.raises(ConfigError):
        inv.reinit()

    a = make_agent("specific", seed=31)
    b = make_agent("specific", seed=31)
    # drive one agent's parameters away before reinit
    z = a.encode_specific(make_batch(), np.zeros((D, D)))
    prop = a.propose(z, np.random.default_rng(4), 1)
    a.train_step(prop, [3.0])
    a.commit_carry()
    buffer = a.params.data
    a.reinit()
    b.reinit()
    assert a.params.data is buffer                 # the new parameters reuse the old buffers
    for k in a.params.params:
        np.testing.assert_array_equal(a.params.params[k].data, b.params.params[k].data)
    assert a.baseline.tolist() == [0.0]
    assert a.carry[0].sum() == 0.0 and a.carry[1].sum() == 0.0
    # Adam starts over: the next update moves both agents alike
    for agent in (a, b):
        z = agent.encode_specific(make_batch(seed=1), np.zeros((D, D)))
        agent.train_step(agent.propose(z, np.random.default_rng(5), 2), [1.0, -2.0])
    for k in a.params.params:
        np.testing.assert_array_equal(a.params.params[k].data, b.params.params[k].data)


def test_construction_equal_seeds_identical():
    a = make_agent(seed=40)
    b = make_agent(seed=40)
    for k in a.params.params:
        np.testing.assert_array_equal(a.params.params[k].data, b.params.params[k].data)
