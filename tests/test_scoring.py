"""BIC scoring against a least-squares oracle and the exact optimum, plus
reward unit cases."""

import math

import numpy as np
import pytest

from streamdag.engine import OnlineConfig, OnlineEngine
from streamdag.errors import (
    ConfigError,
    CyclicGraphError,
    DataRangeError,
    DimensionMismatchError,
    InsufficientDataError,
)
from streamdag.graphs import complement, random_dag, topological_order
from streamdag.scoring import (
    _CLIMB_TOL,
    BatchScorer,
    bic_score,
    decouple_invariant,
    decouple_specific,
    reward,
)
from streamdag.synth import SynthConfig, generate

from oracles import bic_lstsq_reference, enumerate_dags, exact_optimum, is_acyclic_dfs


def _sample_linear(adj, n, rng):
    d = adj.shape[0]
    w = adj * rng.uniform(0.5, 2.0, size=adj.shape) * rng.choice([-1.0, 1.0], size=adj.shape)
    x = np.zeros((n, d))
    noise = rng.standard_normal((n, d))
    for j in topological_order(adj):
        x[:, j] = x @ w[:, j] + noise[:, j]
    return x


def test_bic_empty_graph_is_sum_of_log_variances():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 4))
    adj = np.zeros((4, 4), dtype=np.int8)
    got = bic_score(adj, x)
    want = sum(200 * math.log(np.var(x[:, j])) for j in range(4))
    assert got == pytest.approx(want, rel=1e-9)


def test_bic_matches_lstsq_oracle_linear():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        adj = random_dag(d, 0.4, rng)
        x = _sample_linear(adj, 150, rng)
        probe = random_dag(d, 0.4, rng)
        got = bic_score(probe, x)
        want = bic_lstsq_reference(probe, x)
        assert got == pytest.approx(want, rel=1e-8)
        many = BatchScorer(x).score_many(probe[None])
        assert many[0] == pytest.approx(want, rel=1e-8)


def test_bic_prefers_true_graph_over_empty():
    rng = np.random.default_rng(9)
    adj = random_dag(6, 0.5, rng)
    x = _sample_linear(adj, 500, rng)
    assert bic_score(adj, x) < bic_score(np.zeros_like(adj), x)


def test_bic_counts_an_edge_per_nonzero_cell():
    """Bool, weighted and doubled forms of one structure score as its 0/1 form."""
    batches, truth = generate(SynthConfig(d=5, seed=0))
    x = np.concatenate([b.x for b in batches if b.t == 1])
    adj = truth.adjacencies[0]
    scorer = BatchScorer(x)
    want, want_many = bic_score(adj, x), scorer.score_many(adj[None])[0]
    for form in (adj.astype(bool), truth.weights_for(1), 2 * adj):
        assert bic_score(form, x) == want
        assert scorer.score_many(form[None])[0] == want_many


def test_node_rss_rejects_a_parent_outside_the_nodes():
    scorer = BatchScorer(np.random.default_rng(3).standard_normal((40, 5)))
    for parents in ([12], [-1], [1, 5]):
        with pytest.raises(DimensionMismatchError, match=r"must lie in 0\.\.4"):
            scorer.node_rss(0, np.array(parents))
    assert scorer.node_rss(0, [1, 4]) == scorer.node_rss(0, np.array([4, 1]))


def test_a_node_outside_the_nodes_or_among_its_own_parents_is_rejected():
    scorer = BatchScorer(np.random.default_rng(3).standard_normal((40, 5)))
    for node in (-1, 5, 7):
        with pytest.raises(DimensionMismatchError, match=rf"node {node} .*must lie in 0\.\.4"):
            scorer.node_rss(node, [])
    with pytest.raises(CyclicGraphError, match="node 2 cannot be its own parent"):
        scorer.node_rss(2, [0, 2])
    with pytest.raises(CyclicGraphError):
        scorer.score(np.eye(5, dtype=int))
    stack = np.zeros((3, 5, 5), dtype=int)
    scorer.score_many(stack)
    stack[1, 3, 3] = 1
    with pytest.raises(CyclicGraphError, match="self-loop"):
        scorer.score_many(stack)


def test_scorer_rejects_tiny_batches():
    x = np.zeros((4, 5))
    with pytest.raises(InsufficientDataError):
        BatchScorer(x)


def test_scorer_extends_its_base_with_a_batch():
    rng = np.random.default_rng(21)
    blocks = [rng.standard_normal((n, 4)) for n in (12, 3, 20)]
    probes = [random_dag(4, 0.5, rng) for _ in range(5)]
    scorer = None
    for block in blocks:
        if scorer is not None:
            for probe in probes:          # the base scores before it is extended
                scorer.score(probe)
        scorer = BatchScorer(block, base=scorer)
    assert scorer.n == 35
    whole = BatchScorer(np.concatenate(blocks))
    for probe in probes:
        assert scorer.score(probe) == pytest.approx(whole.score(probe), rel=1e-9)
    # a scorer that has scored returns what a fresh one on the same rows computes
    fresh = BatchScorer(np.concatenate(blocks))
    for probe in probes:
        assert whole.score(probe) == fresh.score(probe)
        for j in range(4):
            parents = np.flatnonzero(probe[:, j])
            assert whole.node_rss(j, parents) == BatchScorer(
                np.concatenate(blocks)).node_rss(j, parents)
    # a short batch counts the base's rows towards the minimum
    BatchScorer(rng.standard_normal((2, 4)), base=BatchScorer(
        rng.standard_normal((6, 4))))
    with pytest.raises(DimensionMismatchError):
        BatchScorer(rng.standard_normal((10, 3)), base=scorer)


def test_column_moments_cover_every_row_of_the_extended_scorers():
    rng = np.random.default_rng(23)
    blocks = [np.array([1.0, 1e-3, 1e3, 1.0]) * rng.standard_normal((n, 4))
              + np.array([0.0, 5.0, -7e3, 1e6]) for n in (12, 3, 20)]
    scorer = None
    for block in blocks:
        scorer = BatchScorer(block, base=scorer)
    rows = np.concatenate(blocks)
    moments = scorer.column_moments()
    assert moments.shape == (4, 2)
    np.testing.assert_allclose(moments[:, 0], rows.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(moments[:, 1], rows.std(axis=0), rtol=1e-9)


def test_score_many_matches_score():
    """One batched pass over a stack gives each DAG's score(), and each row
    of the stack scores exactly as that DAG alone does on a fresh scorer."""
    rng = np.random.default_rng(23)
    d = 5
    full = np.triu(np.ones((d, d), dtype=np.int8), 1)[np.ix_(*[rng.permutation(d)] * 2)]
    x = _sample_linear(random_dag(d, 0.5, rng), 60, rng)
    probes = [random_dag(d, 0.5, rng) for _ in range(6)]
    stack = np.stack(probes + [np.zeros((d, d), dtype=np.int8), full] + probes[:3])
    base = BatchScorer(x[:40])
    for make in (lambda: BatchScorer(x), lambda: BatchScorer(x[40:], base=base)):
        scorer = make()
        want = [scorer.score(a) for a in stack]
        many = scorer.score_many(stack)
        assert many.shape == (len(stack),)
        np.testing.assert_allclose(many, want, rtol=1e-12, atol=0.0)
        assert many[-3:].tolist() == many[:3].tolist()        # repeated DAGs
        assert scorer.score_many(stack[::-1]).tolist() == many[::-1].tolist()
        assert [make().score_many(a[None])[0] for a in stack] == many.tolist()
    with pytest.raises(DimensionMismatchError):
        scorer.score_many(stack[0])


def _ordering_case(seed, d=8, n=300):
    rng = np.random.default_rng(seed)
    adj = random_dag(d, 0.4, rng)
    return rng, adj, _sample_linear(adj, n, rng)


def test_ordering_search_dag_follows_its_ordering():
    for seed in range(5):
        rng, _, x = _ordering_case(seed)
        scorer = BatchScorer(x)
        order, dag = scorer.ordering_search([rng.permutation(8) for _ in range(2)])
        assert sorted(order) == list(range(8))
        position = np.argsort(order)
        for i, j in zip(*np.nonzero(dag)):
            assert position[i] < position[j]
        # the climb stopped at a local optimum: restarting there changes nothing
        again, dag_again = scorer.ordering_search([order])
        assert again == order and np.array_equal(dag_again, dag)


def _mask(nodes):
    return sum(1 << int(v) for v in nodes)


def test_move_terms_equal_a_cold_selection_of_every_move():
    """Every term _move_terms reuses from an earlier selection is the term a
    scorer with an empty memo selects for the same query; a duplicated and a
    summed column make some gains tie."""
    rng = np.random.default_rng(80)
    for case in range(120):
        d = 3 + case % 6
        x = _sample_linear(random_dag(d, 0.5, rng), 100, rng)
        if case % 3 == 0:
            x[:, 1] = x[:, 0]
            x[:, 2] = x[:, 0] + x[:, 1]
        orders = np.array([rng.permutation(d) for _ in range(3)])
        moved, passed = BatchScorer(x)._move_terms(orders)
        nodes, masks = [], []
        for order in orders.tolist():
            for i, node in enumerate(order):
                others = order[:i] + order[i + 1:]
                nodes += [node] * d                   # put back at slot j
                masks += [_mask(others[:j]) for j in range(d)]
                nodes += others                       # node i toggled in their predecessors
                masks += [_mask(order[:order.index(v)]) ^ (1 << node) for v in others]
        want, _ = BatchScorer(x)._lookup(np.array(nodes), np.array(masks))
        got = np.concatenate([moved, passed], axis=2).ravel()
        assert got.tolist() == want.tolist()


def test_ordering_search_stops_where_no_insertion_move_improves():
    for seed in range(60):
        rng, _, x = _ordering_case(90 + seed, d=3 + seed % 6)
        d = x.shape[1]
        scorer = BatchScorer(x)
        order, _ = scorer.ordering_search([rng.permutation(d) for _ in range(2)])

        def total(order):
            terms, _ = scorer._lookup(np.array(order), np.array([_mask(order[:k]) for k in range(d)]))
            return terms.sum()
        best = total(order)
        tol = _CLIMB_TOL * (1.0 + abs(best))
        for i in range(d):
            for j in range(d):
                if j != i:
                    moved = np.insert(np.delete(order, i), j, order[i]).tolist()
                    assert total(moved) >= best - tol


def test_a_second_search_on_the_scorer_selects_nothing(monkeypatch):
    """The search's selections live on the scorer: a second search from the
    same starts finds every selection in the scorer's memo."""
    rng, _, x = _ordering_case(60)
    scorer = BatchScorer(x)
    starts = [rng.permutation(8) for _ in range(3)]
    order, dag = scorer.ordering_search(starts)
    calls = []
    method = scorer._select
    monkeypatch.setattr(scorer, "_select", lambda *args: (calls.append(args), method(*args))[1])
    again, dag_again = scorer.ordering_search(starts)
    assert again == order and np.array_equal(dag_again, dag)
    assert calls == []


def test_scorer_rejects_statistics_that_overflow():
    rng = np.random.default_rng(61)
    x = 1e100 * rng.standard_normal((30, 3))
    assert np.isfinite(BatchScorer(x).score(np.zeros((3, 3))))
    # rows of +-2e153 about a zero mean: one batch's sums of squares are 1.2e308,
    # and extending it with the same rows doubles them past the float64 range
    x = 2e153 * np.where(np.arange(30) % 2, 1.0, -1.0)[:, None] * np.ones(3)
    base = BatchScorer(x)
    with pytest.raises(DataRangeError):
        BatchScorer(x, base=base)


@pytest.mark.parametrize("cell", [np.nan, np.inf], ids=["nan", "inf"])
def test_scorer_rejects_non_finite_rows(cell):
    """A NaN or infinite cell is named as such, not as an overflow."""
    x = np.random.default_rng(63).standard_normal((20, 3))
    x[7, 1] = cell
    with pytest.raises(DataRangeError, match="non-finite"):
        bic_score(np.zeros((3, 3), dtype=np.int8), x)
    with pytest.raises(DataRangeError, match="non-finite"):
        BatchScorer(x, base=BatchScorer(x[:7]))


def test_collinear_parents_below_the_ridge_still_solve():
    """Two columns, 0 in the first rows and constant after, are collinear at
    a scale where the ridge falls below rounding: the normal equations are
    singular, and the regression falls back to least squares."""
    rng = np.random.default_rng(62)
    first = rng.standard_normal((6, 4))
    first[:, 2:] = 0.0
    second = rng.standard_normal((4, 4))
    second[:, 2], second[:, 3] = 3345.0, 125001.0
    scorer = BatchScorer(second, base=BatchScorer(first))
    both = scorer.node_rss(0, np.array([2, 3]))
    assert both == pytest.approx(scorer.node_rss(0, np.array([2])), rel=1e-6)


def test_ordering_search_from_the_true_ordering_keeps_the_truth():
    rng, adj, x = _ordering_case(40, d=6, n=5000)
    scorer = BatchScorer(x)
    _, dag = scorer.ordering_search([topological_order(adj)])
    assert np.array_equal(dag | dag.T, adj | adj.T)
    assert scorer.score(dag) == pytest.approx(scorer.score(adj), rel=1e-9)


def test_ordering_search_ignores_column_scales():
    """Varsortability guard: per-column rescaling shifts every DAG's BIC by
    one constant, so from the same starts the search returns the same DAG."""
    for seed in range(5):
        rng, _, x = _ordering_case(50 + seed)
        scale = np.exp(rng.uniform(-4.0, 4.0, size=8))
        starts = [rng.permutation(8) for _ in range(3)]
        order, dag = BatchScorer(x).ordering_search(starts)
        order_scaled, dag_scaled = BatchScorer(x * scale).ordering_search(starts)
        assert order_scaled == order
        assert np.array_equal(dag_scaled, dag)


def test_ordering_search_survives_an_exact_linear_dependence():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 4))
        x[:, 3] = x[:, 0] + x[:, 1]
        scorer = BatchScorer(x)
        with np.errstate(invalid="raise", divide="raise"):
            order, dag = scorer.ordering_search([rng.permutation(4) for _ in range(3)])
        assert sorted(order) == [0, 1, 2, 3]
        assert np.isfinite(scorer.score(dag))


def test_ordering_search_ends_on_columns_far_from_zero():
    """A shift of every column leaves every DAG's score unchanged: at offsets
    up to 1e8 the score and the search's DAG match offset 0.  At 1e12 the
    rows keep only a few bits of their spread; the search must still end,
    with a finite score and no invalid value."""
    rng, _, x = _ordering_case(70, d=4, n=100)
    starts = [rng.permutation(4) for _ in range(3)]
    base = BatchScorer(x)
    order, dag = base.ordering_search(starts)
    for offset in (1e6, 1e8):
        scorer = BatchScorer(x + offset)
        assert scorer.ordering_search(starts)[0] == order
        assert np.array_equal(scorer.ordering_search(starts)[1], dag)
        assert scorer.score(dag) == pytest.approx(base.score(dag), rel=1e-6)
        # a batch of the same state extends the statistics about the same origin
        grown = BatchScorer(x[:10] + offset, base=scorer)
        whole = BatchScorer(np.concatenate([x, x[:10]]))
        assert grown.score(dag) == pytest.approx(whole.score(dag), rel=1e-6)
    for offset in (1e6, 1e8, 1e12):
        scorer = BatchScorer(x + offset)
        with np.errstate(invalid="raise", divide="raise"):
            order, dag = scorer.ordering_search(starts)
        assert sorted(order) == [0, 1, 2, 3]
        assert np.isfinite(scorer.score(dag))


def test_ordering_search_never_picks_a_constant_parent():
    rng, _, x = _ordering_case(60)
    x[:, 3] = 2.5
    order, dag = BatchScorer(x).ordering_search([rng.permutation(8)])
    assert not dag[3].any() and not dag[:, 3].any()
    with pytest.raises(ConfigError):
        BatchScorer(x).ordering_search([])
    with pytest.raises(DimensionMismatchError):
        BatchScorer(x).ordering_search([[0, 1, 2]])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_optimum_is_the_best_of_every_dag(d):
    rng = np.random.default_rng(d)
    x = _sample_linear(random_dag(d, 0.6, rng), 40, rng)
    scorer = BatchScorer(x)
    optimum, dag = exact_optimum(scorer)
    # the oracle sums each node's term with its edges, _bic the terms first
    assert optimum == pytest.approx(scorer.score_many(np.stack(enumerate_dags(d))).min(),
                                    rel=1e-9)
    assert is_acyclic_dfs(dag)
    assert scorer.score(dag) == pytest.approx(optimum, rel=1e-9)


@pytest.mark.parametrize("d, seed", [(6, 0), (8, 1), (10, 2)])
def test_no_search_or_engine_dag_scores_below_the_exact_optimum(d, seed):
    """One climb from the identity ordering and an engine's final estimate,
    each against the optimum on the engine's final state statistics."""
    batches, _ = generate(SynthConfig(d=d, m=2, n_per_state=100, seed=seed))
    eng = OnlineEngine(d, OnlineConfig(episodes_per_batch=16, seed=seed))
    a_est = [eng.process_batch(b) for b in batches][-1].a_est
    scorer = eng.state_scorer
    optimum, _ = exact_optimum(scorer)
    _, climbed = scorer.ordering_search([list(range(d))])
    gaps = scorer.score_many(np.stack([climbed, a_est])) - optimum
    print(f"exact optimum d={d} seed={seed}: {optimum:.3f}; gap of one climb "
          f"{gaps[0]:.3f}, of the engine {gaps[1]:.3f}")
    assert (gaps >= -1e-9 * (1.0 + abs(optimum))).all()


def test_scorer_and_config_take_no_backend():
    """Linear BIC is the one score: a backend argument is a TypeError."""
    with pytest.raises(TypeError):
        OnlineConfig(backend="linear")
    with pytest.raises(TypeError):
        BatchScorer(np.zeros((6, 3)), "linear")


def test_decouple_zero_at_targets():
    rng = np.random.default_rng(2)
    prev_inv = random_dag(4, 0.4, rng)
    # Specific term vanishes when the specific DAG equals both complements.
    a_spec = complement(prev_inv)
    assert decouple_specific(a_spec, prev_inv, prev_inv) == 0.0
    # Invariant term vanishes at comp(prev specific) when that equals prev DAG.
    prev_spec = random_dag(4, 0.4, rng)
    a_inv = complement(prev_spec)
    assert decouple_invariant(a_inv, prev_spec, a_inv) == 0.0


def test_decouple_unit_cases_d2():
    zero = np.zeros((2, 2), dtype=np.int8)
    full = np.array([[0, 1], [1, 0]], dtype=np.int8)
    e01 = np.array([[0, 1], [0, 0]], dtype=np.int8)
    e10 = np.array([[0, 0], [1, 0]], dtype=np.int8)
    # Specific: agreeing with both complements scores 0; one wrong cell per
    # term gives (1 + 1) / 2 = 1; two wrong cells per term gives 2.
    assert decouple_specific(full, zero, zero) == 0.0
    assert decouple_specific(zero, e01, e01) == pytest.approx(1.0)
    assert decouple_specific(zero, zero, zero) == pytest.approx(2.0)
    # Invariant: comp(prev specific) and the raw previous estimate.
    assert decouple_invariant(full, zero, full) == 0.0
    assert decouple_invariant(e10, zero, zero) == pytest.approx(1.0)
    assert decouple_invariant(zero, zero, full) == pytest.approx(2.0)
    # A stack of DAGs gives the term of each.
    stack = np.stack([zero, full, e01, e10])
    for prev, state in ((zero, zero), (e01, full), (full, e10)):
        assert decouple_specific(stack, prev, state).tolist() == [
            decouple_specific(a, prev, state) for a in stack]
        assert decouple_invariant(stack, prev, state).tolist() == [
            decouple_invariant(a, prev, state) for a in stack]
    with pytest.raises(DimensionMismatchError):
        decouple_specific(stack, np.zeros((3, 3)), zero)


def test_reward_combines_bic_and_decouple():
    r1 = reward(bic=10.0, decouple=3.0, lam=0.1)
    assert r1 == pytest.approx(-10.0 + 0.1 * 3.0)
    r2 = reward(bic=10.0, decouple=3.0, lam=0.2)
    assert r2 == pytest.approx(-10.0 + 0.2 * 3.0)
