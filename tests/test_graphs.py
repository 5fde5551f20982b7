"""Action-to-DAG mapping, acyclicity, decomposition, complement."""

import re

import numpy as np
import pytest

from streamdag.engine import graph_similarity
from streamdag.errors import CyclicGraphError, DimensionMismatchError, InvalidActionError
from streamdag.graphs import (
    action_dim,
    action_to_dag,
    complement,
    dag_decompose,
    is_acyclic,
    nodes_from_action_dim,
    random_dag,
    split_action,
    topological_order,
)
from streamdag.metrics import structure_metrics
from streamdag.rca import RwrConfig, rank_root_causes

from oracles import enumerate_dags, is_acyclic_dfs, topo_sort_reference


def test_action_dim_roundtrip():
    for d in (1, 2, 3, 7, 20):
        assert nodes_from_action_dim(action_dim(d)) == d


def test_action_dim_rejects_bad_length():
    with pytest.raises(InvalidActionError):
        nodes_from_action_dim(7)


def test_action_to_dag_worked_example():
    # d=2: h=(0.3, -1.2) puts node 0 before node 1; logits row-major.
    a = np.array([0.3, -1.2, 5.0, 1.0, 2.0, -0.5])
    adj = action_to_dag(a)
    assert adj.tolist() == [[0, 1], [0, 0]]


def test_split_action_gives_ordering_scores_and_mask_logits():
    a = np.array([0.3, -1.2, 5.0, 1.0, 2.0, -0.5])
    scores, logits = split_action(a)
    assert scores.tolist() == [0.3, -1.2]
    assert logits.tolist() == [[5.0, 1.0], [2.0, -0.5]]
    stack = np.stack([a, -a])
    scores, logits = split_action(stack)
    assert scores.shape == (2, 2) and logits.shape == (2, 2, 2)
    assert logits[1].tolist() == [[-5.0, -1.0], [-2.0, 0.5]]
    with pytest.raises(InvalidActionError):
        split_action(np.zeros(7))


def test_action_to_dag_tie_drops_both_directions():
    a = np.array([1.0, 1.0, 9.0, 9.0, 9.0, 9.0])
    assert action_to_dag(a).sum() == 0


def test_action_to_dag_rejects_nonfinite():
    with pytest.raises(InvalidActionError):
        action_to_dag(np.array([np.nan, 0.0, 1.0, 1.0, 1.0, 1.0]))


def test_action_to_dag_maps_a_stack_row_by_row():
    rng = np.random.default_rng(5)
    for d in (2, 4, 7):
        actions = rng.standard_normal((9, action_dim(d)))
        actions[3, :d] = actions[3, 0]                 # a row of ties
        stack = action_to_dag(actions)
        assert stack.shape == (9, d, d) and stack.dtype == np.int8
        for row, adj in zip(actions, stack):
            assert np.array_equal(adj, action_to_dag(row))
    for bad in (np.nan, np.inf):
        for row in range(3):
            actions = rng.standard_normal((3, action_dim(3)))
            actions[row, 5] = bad
            with pytest.raises(InvalidActionError):
                action_to_dag(actions)
    with pytest.raises(InvalidActionError):
        action_to_dag(rng.standard_normal((2, 2, action_dim(2))))
    with pytest.raises(InvalidActionError):
        action_to_dag(rng.standard_normal((2, 7)))


def test_mapped_graphs_always_acyclic_small_sweep():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for _ in range(300):
            adj = action_to_dag(rng.standard_normal(action_dim(d)))
            assert is_acyclic_dfs(adj)


def test_is_acyclic_matches_dfs_oracle_on_all_d3_matrices():
    rng = np.random.default_rng(11)
    for _ in range(500):
        adj = (rng.random((3, 3)) < 0.5).astype(np.int8)
        np.fill_diagonal(adj, 0)
        assert is_acyclic(adj) == is_acyclic_dfs(adj)


@pytest.mark.parametrize("d", range(1, 7))
def test_is_acyclic_on_a_stack_matches_dfs_oracle(d):
    """One verdict per graph of a stack, on DAGs with a planted 2-cycle, a
    planted self-loop, a longer planted cycle, or none."""
    rng = np.random.default_rng(20 + d)
    stack = np.stack([random_dag(d, p, rng) for p in rng.random(40)])
    for g in stack[:10]:
        g[np.diag_indices(d)] = rng.random(d) < 0.3
    if d >= 2:
        for g in stack[10:20]:
            i, j = rng.choice(d, size=2, replace=False)
            g[i, j] = g[j, i] = 1
    for g in stack[20:30]:
        cycle = rng.permutation(d)[:rng.integers(1, d + 1)]
        g[cycle, np.roll(cycle, 1)] = 1
    verdicts = is_acyclic(stack)
    assert verdicts.shape == (40,)
    assert verdicts.tolist() == [is_acyclic_dfs(g) for g in stack]
    assert [bool(is_acyclic(g)) for g in stack] == verdicts.tolist()


def test_topological_order_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(200):
        adj = random_dag(6, 0.4, rng)
        assert topological_order(adj) == topo_sort_reference(adj)


def test_topological_order_raises_on_cycle():
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    with pytest.raises(CyclicGraphError):
        topological_order(adj)


@pytest.mark.parametrize("check", [topological_order, dag_decompose, is_acyclic])
def test_graph_checks_reject_a_non_square_matrix(check):
    with pytest.raises(DimensionMismatchError):
        check(np.zeros((2, 3), dtype=np.int8))


def _rank(adj):
    return rank_root_causes(adj, RwrConfig(anomaly_scores=np.ones(2)))


@pytest.mark.parametrize("check,pair", [
    (topological_order, False), (_rank, False), (structure_metrics, True),
    (graph_similarity, True),
], ids=["topological_order", "rank_root_causes", "structure_metrics", "graph_similarity"])
def test_every_square_shape_check_gives_one_message(check, pair):
    msg = "graphs must share a square shape, got "
    bad = np.zeros((2, 3), dtype=np.int8)
    with pytest.raises(DimensionMismatchError, match=re.escape(msg + "(2, 3)")):
        check(bad, bad) if pair else check(bad)
    if pair:
        with pytest.raises(DimensionMismatchError, match=re.escape(msg + "(3, 3) vs (2, 2)")):
            check(np.zeros((3, 3), dtype=np.int8), np.zeros((2, 2), dtype=np.int8))


def test_decompose_worked_example():
    adj = np.array([[0, 0], [1, 0]], dtype=np.int8)
    perm, upper = dag_decompose(adj)
    assert perm.tolist() == [[0, 1], [1, 0]]
    assert upper.tolist() == [[0, 1], [0, 0]]
    assert np.array_equal(perm.T @ upper @ perm, adj)


def test_decompose_reconstructs_random_dags():
    rng = np.random.default_rng(5)
    for _ in range(200):
        adj = random_dag(8, 0.3, rng)
        perm, upper = dag_decompose(adj)
        assert np.array_equal(np.triu(upper, 1), upper)
        assert np.array_equal(perm.T @ upper @ perm, adj)


def test_complement_flips_off_diagonal_only():
    adj = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]], dtype=np.int8)
    comp = complement(adj)
    assert comp.tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert np.array_equal(complement(comp), adj)


def test_d3_has_25_dags_and_mapping_reaches_each():
    dags = enumerate_dags(3)
    assert len(dags) == 25
    keys = {bytes(g.tobytes()) for g in dags}
    rng = np.random.default_rng(0)
    hit = set()
    for _ in range(20000):
        adj = action_to_dag(rng.standard_normal(12))
        hit.add(bytes(adj.astype(np.int8).tobytes()))
        if hit == keys:
            break
    assert hit == keys
