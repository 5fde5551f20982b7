"""Synthetic stream generator tests."""

import dataclasses
import itertools

import numpy as np
import pytest

from streamdag.errors import ConfigError, CyclicGraphError, GenerationError
from streamdag.synth import (
    MechanismParams,
    SynthConfig,
    generate,
    make_state_graphs,
    sem_sample,
)

from oracles import is_acyclic_dfs


def _edge_set(adj):
    return {(int(i), int(j)) for i, j in np.argwhere(np.asarray(adj) == 1)}


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(d=1)
    with pytest.raises(ConfigError):
        SynthConfig(d=4, m=1)
    with pytest.raises(ConfigError):
        SynthConfig(d=4, e=-0.5)
    with pytest.raises(ConfigError):
        SynthConfig(d=4, mechanism="XX")
    with pytest.raises(ConfigError):
        SynthConfig(d=4, er_expected_degree=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(d=4, n_per_state=10, batch_size=11)
    with pytest.raises(ConfigError):
        SynthConfig(d=4, noise_scale=0.0)
    with pytest.raises(ConfigError, match="er_expected_degree must be positive"):
        SynthConfig(d=4, er_expected_degree=float("nan"))
    for value in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="noise rate must be finite"):
            SynthConfig(d=4, e=value)
        with pytest.raises(ConfigError, match="noise_scale must be finite"):
            SynthConfig(d=4, noise_scale=value)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        SynthConfig(d=4, seed=-1)
    for name in ("d", "m", "n_per_state", "batch_size", "seed"):
        for value in (2.5, 2.0, float("nan"), True):
            with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
                SynthConfig(**{"d": 4, name: value})
    batches, _ = generate(SynthConfig(d=np.int64(3), m=np.int32(2), n_per_state=np.int64(40),
                                      batch_size=np.int16(20), seed=np.uint32(1)))
    assert len(batches) == 4 and batches[0].x.shape == (20, 3)


def test_states_form_subset_chain_without_noise():
    cfg = SynthConfig(d=8, m=4, e=0.0, er_expected_degree=3.0, seed=11)
    graphs = make_state_graphs(cfg, np.random.default_rng(11))
    assert len(graphs) == 4
    for g in graphs:
        assert is_acyclic_dfs(g)
    for earlier, later in zip(graphs, graphs[1:]):
        assert _edge_set(earlier) <= _edge_set(later)


def test_deletion_schedule_edge_counts():
    cfg = SynthConfig(d=10, m=3, e=0.0, er_expected_degree=4.0, seed=5)
    graphs = make_state_graphs(cfg, np.random.default_rng(5))
    final_edges = int(graphs[-1].sum())
    per_step = final_edges // cfg.m
    for t, g in enumerate(graphs, start=1):
        assert int(g.sum()) == final_edges - (cfg.m - t) * per_step


def test_noise_injection_counts_and_acyclicity():
    cfg = SynthConfig(d=10, m=3, e=25.0, er_expected_degree=4.0, seed=5)
    base = make_state_graphs(SynthConfig(d=10, m=3, e=0.0, er_expected_degree=4.0, seed=5),
                             np.random.default_rng(5))
    noisy = make_state_graphs(cfg, np.random.default_rng(5))
    assert np.array_equal(noisy[-1], base[-1])          # final state gets no noise
    for t in range(cfg.m - 1):
        base_edges = int(base[t].sum())
        expected_extra = int(np.ceil(cfg.e / 100.0 * base_edges))
        assert int(noisy[t].sum()) == base_edges + expected_extra
        assert is_acyclic_dfs(noisy[t])
        assert _edge_set(base[t]) <= _edge_set(noisy[t])


def test_injection_failure_raises():
    # d=2 full DAG has its single possible edge; any extra edge must cycle
    cfg = SynthConfig(d=2, m=2, e=100.0, er_expected_degree=10.0, seed=0)
    with pytest.raises(GenerationError):
        make_state_graphs(cfg, np.random.default_rng(0))


@pytest.mark.parametrize("d,degree,e,room,count", [
    (2, 10.0, 100.0, 0, 1),             # state 1 holds the one edge 2 nodes allow
    (4, float("inf"), 200.0, 3, 6),     # half of the complete 6-edge DAG, room 3
])
def test_injection_without_room_fails_before_any_draw(d, degree, e, room, count):
    """The room check draws nothing: the generator ends where the same graphs
    without noise edges leave it."""
    rng = np.random.default_rng(0)
    make_state_graphs(SynthConfig(d=d, m=2, er_expected_degree=degree), rng)
    after_graphs = rng.bit_generator.state
    rng = np.random.default_rng(0)
    with pytest.raises(GenerationError, match=f"^state 1 has room for {room} more acyclic "
                                              f"edges, not the {count} noise edges asked for$"):
        make_state_graphs(SynthConfig(d=d, m=2, e=e, er_expected_degree=degree), rng)
    assert rng.bit_generator.state == after_graphs


def test_injection_fills_the_room_exactly():
    graphs = make_state_graphs(SynthConfig(d=4, m=2, e=100.0, er_expected_degree=float("inf")),
                               np.random.default_rng(0))
    assert int(graphs[0].sum()) == 6 and is_acyclic_dfs(graphs[0])


def test_generate_stream_layout():
    cfg = SynthConfig(d=4, m=3, e=0.0, n_per_state=120, batch_size=50, seed=2)
    batches, truth = generate(cfg)
    # 120 rows at batch 50 -> two batches per state, the last absorbing the remainder
    assert len(batches) == 3 * 2
    for b in batches:
        assert b.x.shape[1] == 4
        assert b.transition == (b.t > 1 and b.l == 1)
    per_state = {}
    for b in batches:
        per_state.setdefault(b.t, 0)
        per_state[b.t] += b.x.shape[0]
    assert per_state == {1: 120, 2: 120, 3: 120}
    keys = [(b.t, b.l) for b in batches]
    assert keys == sorted(keys)
    assert len(truth.adjacencies) == 3


def test_generate_deterministic_and_seed_sensitive():
    cfg = SynthConfig(d=5, m=2, e=10.0, n_per_state=60, batch_size=20, seed=9)
    b1, t1 = generate(cfg)
    b2, t2 = generate(cfg)
    assert all(np.array_equal(x.x, y.x) for x, y in zip(b1, b2))
    assert all(np.array_equal(g, h) for g, h in zip(t1.adjacencies, t2.adjacencies))
    b3, _ = generate(SynthConfig(d=5, m=2, e=10.0, n_per_state=60, batch_size=20, seed=10))
    assert any(not np.array_equal(x.x, y.x) for x, y in zip(b1, b3))


def test_weights_shared_across_states():
    cfg = SynthConfig(d=8, m=3, e=20.0, er_expected_degree=3.0, seed=4)
    _, truth = generate(cfg)
    mags = np.abs(truth.params.lin[truth.params.lin != 0])
    assert ((mags >= 0.5) & (mags <= 2.0)).all()
    for t in range(1, cfg.m + 1):
        w = truth.weights_for(t)
        adj = truth.adjacencies[t - 1]
        assert np.array_equal((w != 0).astype(int), adj)
        # shared edges carry the same coefficient in every state
        assert np.allclose(w[adj == 1], truth.params.lin[adj == 1])


def test_linear_gaussian_covariance_matches_closed_form():
    # X = W^T X + eta  =>  Cov = (I - W^T)^{-1} (I - W^T)^{-T}
    cfg = SynthConfig(d=4, m=2, e=0.0, er_expected_degree=2.0, seed=3)
    _, truth = generate(cfg)
    adj = truth.adjacencies[-1]
    w = truth.weights_for(cfg.m)
    x = sem_sample(adj, truth.params, 60000, np.random.default_rng(42))
    inv = np.linalg.inv(np.eye(4) - w.T)
    expected = inv @ inv.T
    assert np.abs(np.cov(x, rowvar=False) - expected).max() < 0.12 * max(1.0, np.abs(expected).max())


def test_linear_exponential_noise_is_uncentered_and_skewed():
    adj = np.array([[0, 1], [0, 0]], dtype=np.int8)
    params = MechanismParams(mechanism="LE", lin=np.array([[0.0, 1.5], [0.0, 0.0]]),
                             square=np.zeros((2, 2)), noise_scale=np.ones(2))
    x = sem_sample(adj, params, 50000, np.random.default_rng(1))
    root = x[:, 0]
    assert abs(root.mean() - 1.0) < 0.03                # Exp(1) mean
    centered = root - root.mean()
    skew = (centered ** 3).mean() / (centered ** 2).mean() ** 1.5
    assert 1.7 < skew < 2.3                             # Exp(1) skewness is 2


def test_quadratic_mechanism_unit_case():
    adj = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
    lin = np.zeros((3, 3))
    lin[0, 2], lin[1, 2] = 2.0, -1.0
    square = np.zeros((3, 3))
    square[0, 2], square[1, 2] = 3.0, 0.5
    pair = {(0, 1): np.array([0.0, 0.0, 4.0])}
    params = MechanismParams(mechanism="QR", lin=lin, square=square,
                             noise_scale=np.full(3, 1e-9), pair=pair)
    x = sem_sample(adj, params, 200, np.random.default_rng(7))
    expected = (2.0 * x[:, 0] - 1.0 * x[:, 1]
                + 3.0 * x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2
                + 4.0 * x[:, 0] * x[:, 1])
    assert np.abs(x[:, 2] - expected).max() < 1e-6


def test_generate_under_qr_draws_square_and_pair_coefficients():
    cfg = SynthConfig(d=5, m=3, e=10.0, mechanism="QR", n_per_state=60, batch_size=30, seed=4)
    batches, truth = generate(cfg)
    union = np.any([g == 1 for g in truth.adjacencies], axis=0)
    # square coefficients on exactly the union's edges
    assert np.array_equal(truth.params.square != 0, union)
    # one pair vector, of one coefficient per node, for every node pair
    assert sorted(truth.params.pair) == list(itertools.combinations(range(5), 2))
    assert all(v.shape == (5,) for v in truth.params.pair.values())
    assert all(np.isfinite(b.x).all() for b in batches)
    again, _ = generate(cfg)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(batches, again, strict=True))


def test_noiseless_linear_reconstruction():
    cfg = SynthConfig(d=5, m=2, e=0.0, er_expected_degree=2.0, seed=8, noise_scale=1.0)
    _, truth = generate(cfg)
    adj = truth.adjacencies[-1]
    w = truth.weights_for(cfg.m)
    params = dataclasses.replace(truth.params, noise_scale=np.full(5, 1e-10))
    x = sem_sample(adj, params, 300, np.random.default_rng(0))
    for j in range(5):
        parents = np.flatnonzero(adj[:, j])
        if parents.size:
            assert np.abs(x[:, j] - x[:, parents] @ w[parents, j]).max() < 1e-6


def test_gp_mechanism_deterministic_and_finite():
    adj = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
    params = MechanismParams(mechanism="GP", lin=np.zeros((3, 3)), square=np.zeros((3, 3)),
                             noise_scale=np.full(3, 0.1))
    x1 = sem_sample(adj, params, 64, np.random.default_rng(5))
    x2 = sem_sample(adj, params, 64, np.random.default_rng(5))
    assert np.array_equal(x1, x2)
    assert np.isfinite(x1).all()
    # the sampled function varies with its parent inputs
    assert x1[:, 1].std() > 0.1


def test_sem_sample_rejects_cycles():
    cyc = np.array([[0, 1], [1, 0]], dtype=np.int8)
    params = MechanismParams(mechanism="LG", lin=np.zeros((2, 2)), square=np.zeros((2, 2)),
                             noise_scale=np.ones(2))
    with pytest.raises(CyclicGraphError):
        sem_sample(cyc, params, 10, np.random.default_rng(0))


def test_sem_sample_rejects_an_unknown_mechanism():
    adj = np.array([[0, 1], [0, 0]], dtype=np.int8)
    params = MechanismParams(mechanism="XX", lin=np.zeros((2, 2)), square=np.zeros((2, 2)),
                             noise_scale=np.ones(2))
    with pytest.raises(ConfigError, match="mechanism must be one of"):
        sem_sample(adj, params, 10, np.random.default_rng(0))
