"""Root-cause ranking tests."""

import numpy as np
import pytest

from streamdag.errors import ConfigError, DimensionMismatchError, InsufficientDataError
from streamdag.rca import RwrConfig, anomaly_zscores, fault_window_scores, rank_root_causes


class _Batch:
    def __init__(self, t, x):
        self.t = t
        self.x = np.asarray(x, dtype=float)


def test_config_validation():
    ok = np.array([1.0, 2.0])
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=np.zeros(3))
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=np.array([1.0, -0.1]))
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=np.array([1.0, np.nan]))
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=np.ones((2, 2)))
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=ok, restart_prob=0.0)
    with pytest.raises(ConfigError):
        RwrConfig(anomaly_scores=ok, restart_prob=1.0)


def test_single_node_graph():
    ranked = rank_root_causes(np.zeros((1, 1), dtype=int),
                              RwrConfig(anomaly_scores=np.array([2.5])))
    assert ranked == [(0, 1.0)]


def test_two_node_closed_form():
    # edge 0 -> 1, all restart mass on the child: solving
    # pi0 = (1-r) pi1, pi1 = (1-r) pi0 + r gives pi = ((1-r)/(2-r), 1/(2-r))
    adj = np.array([[0, 1], [0, 0]], dtype=int)
    for r in (1e-4, 0.1, 0.3, 0.7):
        cfg = RwrConfig(anomaly_scores=np.array([0.0, 1.0]), restart_prob=r)
        ranked = rank_root_causes(adj, cfg)
        scores = dict(ranked)
        assert scores[0] == pytest.approx((1 - r) / (2 - r), abs=1e-12)
        assert scores[1] == pytest.approx(1 / (2 - r), abs=1e-12)
        assert ranked[0][0] == 1                # the restart node keeps the lead


def test_two_cycle_closed_form():
    """A periodic walk: its mass alternates between the nodes and damps only by
    1 - r per step, so a small restart probability leaves it far from settled
    after many steps.  pi0 = (1-r) pi1 + r, pi1 = (1-r) pi0 give
    pi = (1/(2-r), (1-r)/(2-r))."""
    adj = np.array([[0, 1], [1, 0]], dtype=int)
    for r in (1e-4, 1e-3, 0.3):
        cfg = RwrConfig(anomaly_scores=np.array([1.0, 0.0]), restart_prob=r)
        scores = dict(rank_root_causes(adj, cfg))
        assert scores[0] == pytest.approx(1 / (2 - r), abs=1e-12)
        assert scores[1] == pytest.approx((1 - r) / (2 - r), abs=1e-12)


def test_stationary_vector_is_a_distribution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        upper = np.triu((rng.random((d, d)) < 0.5).astype(int), k=1)
        perm = rng.permutation(d)
        adj = upper[np.ix_(perm, perm)]
        scores = rng.random(d) + 0.01
        ranked = rank_root_causes(adj, RwrConfig(anomaly_scores=scores))
        pi = np.array([s for _, s in ranked])
        assert (pi >= 0).all()
        assert abs(pi.sum() - 1.0) < 1e-12
        assert [s for _, s in ranked] == sorted(pi, reverse=True)


def test_restart_dominant_limit_recovers_anomaly_ranking():
    rng = np.random.default_rng(1)
    adj = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=int)
    scores = np.array([0.2, 3.0, 1.0])
    ranked = rank_root_causes(adj, RwrConfig(anomaly_scores=scores, restart_prob=0.999))
    assert [node for node, _ in ranked] == [1, 2, 0]


def test_edgeless_graph_returns_restart_distribution():
    scores = np.array([0.0, 2.0, 2.0])
    ranked = rank_root_causes(np.zeros((3, 3), dtype=int),
                              RwrConfig(anomaly_scores=scores))
    assert [node for node, _ in ranked] == [1, 2, 0]    # tie broken by index
    assert ranked[0][1] == pytest.approx(0.5)
    assert ranked[1][1] == pytest.approx(0.5)
    assert ranked[2][1] == pytest.approx(0.0)


def test_ranking_is_deterministic():
    adj = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=int)
    cfg = RwrConfig(anomaly_scores=np.array([0.5, 1.0, 2.0]))
    assert rank_root_causes(adj, cfg) == rank_root_causes(adj, cfg)


def test_shape_mismatches():
    cfg = RwrConfig(anomaly_scores=np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        rank_root_causes(np.zeros((3, 3), dtype=int), cfg)
    with pytest.raises(DimensionMismatchError):
        rank_root_causes(np.zeros((2, 3), dtype=int), cfg)


def test_anomaly_zscores_hand_case():
    normal = np.array([[1.0], [-1.0]])          # mean 0, std 1
    fault = np.array([[3.0], [3.0]])
    assert anomaly_zscores(normal, fault) == pytest.approx([3.0])
    fault2 = np.array([[2.0], [-4.0]])          # mean |dev| = 3
    assert anomaly_zscores(normal, fault2) == pytest.approx([3.0])


def test_anomaly_zscores_validation():
    with pytest.raises(InsufficientDataError):
        anomaly_zscores(np.ones((1, 2)), np.ones((3, 2)))
    with pytest.raises(InsufficientDataError):
        anomaly_zscores(np.ones((4, 2)), np.ones((0, 2)))
    with pytest.raises(DimensionMismatchError):
        anomaly_zscores(np.ones((4, 2)), np.ones((3, 3)))


def test_fault_window_scores_selects_state_rows():
    rng = np.random.default_rng(2)
    state1 = rng.standard_normal((40, 2))
    state2 = rng.standard_normal((60, 2))
    state2[30:, 0] += 10.0                      # fault on node 0 in the back half
    batches = [_Batch(1, state1), _Batch(2, state2[:30]), _Batch(2, state2[30:])]
    z = fault_window_scores(batches, state=2, row_start=30, row_stop=60)
    assert z[0] > 5.0
    assert z[1] < 3.0
    with pytest.raises(InsufficientDataError):
        fault_window_scores(batches, state=9, row_start=1, row_stop=2)
    with pytest.raises(ConfigError):
        fault_window_scores(batches, state=2, row_start=0, row_stop=10)
    with pytest.raises(ConfigError):
        fault_window_scores(batches, state=2, row_start=30, row_stop=600)
