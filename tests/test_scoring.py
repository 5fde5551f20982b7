"""BIC scoring against a least-squares oracle, plus reward unit cases."""

import math

import numpy as np
import pytest

from streamdag.errors import (
    ConfigError,
    DataRangeError,
    DimensionMismatchError,
    InsufficientDataError,
)
from streamdag.graphs import complement, random_dag, topological_order
from streamdag.scoring import (
    BACKENDS,
    BatchScorer,
    ScoreConfig,
    bic_score,
    decouple_invariant,
    decouple_specific,
    reward,
)

from oracles import bic_lstsq_reference


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
    got = bic_score(adj, x, ScoreConfig())
    want = sum(200 * math.log(np.var(x[:, j])) for j in range(4))
    assert got == pytest.approx(want, rel=1e-9)


def test_bic_matches_lstsq_oracle_linear():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        adj = random_dag(d, 0.4, rng)
        x = _sample_linear(adj, 150, rng)
        probe = random_dag(d, 0.4, rng)
        got = bic_score(probe, x, ScoreConfig(backend="linear"))
        want = bic_lstsq_reference(probe, x, backend="linear")
        assert got == pytest.approx(want, rel=1e-8)
        many = BatchScorer(x, ScoreConfig(backend="linear")).score_many(probe[None])
        assert many[0] == pytest.approx(want, rel=1e-8)


def test_bic_matches_lstsq_oracle_quadratic():
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = int(rng.integers(3, 6))
        adj = random_dag(d, 0.4, rng)
        x = _sample_linear(adj, 200, rng)
        probe = random_dag(d, 0.4, rng)
        got = bic_score(probe, x, ScoreConfig(backend="quadratic"))
        want = bic_lstsq_reference(probe, x, backend="quadratic")
        assert got == pytest.approx(want, rel=1e-8)
        many = BatchScorer(x, ScoreConfig(backend="quadratic")).score_many(probe[None])
        assert many[0] == pytest.approx(want, rel=1e-8)


def test_bic_prefers_true_graph_over_empty():
    rng = np.random.default_rng(9)
    adj = random_dag(6, 0.5, rng)
    x = _sample_linear(adj, 500, rng)
    cfg = ScoreConfig()
    assert bic_score(adj, x, cfg) < bic_score(np.zeros_like(adj), x, cfg)


def test_scorer_rejects_tiny_batches():
    x = np.zeros((4, 5))
    with pytest.raises(InsufficientDataError):
        BatchScorer(x, ScoreConfig())


def test_scorer_extends_its_base_with_a_batch():
    rng = np.random.default_rng(21)
    for backend in BACKENDS:
        cfg = ScoreConfig(backend=backend)
        blocks = [rng.standard_normal((n, 4)) for n in (12, 3, 20)]
        probes = [random_dag(4, 0.5, rng) for _ in range(5)]
        scorer = None
        for block in blocks:
            if scorer is not None:
                for probe in probes:          # warm the base's node_rss memo
                    scorer.score(probe)
            scorer = BatchScorer(block, cfg, base=scorer)
        assert scorer.n == 35
        whole = BatchScorer(np.concatenate(blocks), cfg)
        for probe in probes:
            assert scorer.score(probe) == pytest.approx(whole.score(probe), rel=1e-9)
        # a warmed memo returns what a fresh scorer on the same rows computes
        fresh = BatchScorer(np.concatenate(blocks), cfg)
        for probe in probes:
            assert whole.score(probe) == fresh.score(probe)
            for j in range(4):
                parents = np.flatnonzero(probe[:, j])
                assert whole.node_rss(j, parents) == BatchScorer(
                    np.concatenate(blocks), cfg).node_rss(j, parents)
    # a short batch counts the base's rows towards the minimum
    BatchScorer(rng.standard_normal((2, 4)), ScoreConfig(), base=BatchScorer(
        rng.standard_normal((6, 4)), ScoreConfig()))
    with pytest.raises(DimensionMismatchError):
        BatchScorer(rng.standard_normal((10, 3)), ScoreConfig(), base=scorer)


def test_column_moments_cover_every_row_of_the_extended_scorers():
    rng = np.random.default_rng(23)
    for backend in BACKENDS:
        cfg = ScoreConfig(backend=backend)
        blocks = [np.array([1.0, 1e-3, 1e3, 1.0]) * rng.standard_normal((n, 4))
                  + np.array([0.0, 5.0, -7e3, 1e6]) for n in (12, 3, 20)]
        scorer = None
        for block in blocks:
            scorer = BatchScorer(block, cfg, base=scorer)
        rows = np.concatenate(blocks)
        moments = scorer.column_moments()
        assert moments.shape == (4, 2)
        np.testing.assert_allclose(moments[:, 0], rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(moments[:, 1], rows.std(axis=0), rtol=1e-9)


def test_score_many_matches_score():
    """One batched pass over a stack gives each DAG's score(), whichever of
    the two filled the memo first."""
    rng = np.random.default_rng(23)
    d = 5
    full = np.triu(np.ones((d, d), dtype=np.int8), 1)[np.ix_(*[rng.permutation(d)] * 2)]
    for backend in BACKENDS:
        cfg = ScoreConfig(backend=backend)
        x = _sample_linear(random_dag(d, 0.5, rng), 60, rng)
        probes = [random_dag(d, 0.5, rng) for _ in range(6)]
        stack = np.stack(probes + [np.zeros((d, d), dtype=np.int8), full] + probes[:3])
        base = BatchScorer(x[:40], cfg)
        base.score_many(stack)
        for make in (lambda: BatchScorer(x, cfg), lambda: BatchScorer(x[40:], cfg, base=base)):
            by_score = make()
            want = [by_score.score(a) for a in stack]
            scorer = make()
            cold = scorer.score_many(stack)
            assert cold.shape == (len(stack),)
            np.testing.assert_allclose(cold, want, rtol=1e-12, atol=0.0)
            assert cold[-3:].tolist() == cold[:3].tolist()        # repeated DAGs
            warm = scorer.score_many(stack[::-1])
            assert warm.tolist() == cold[::-1].tolist()
            np.testing.assert_allclose([scorer.score(a) for a in stack], want,
                                       rtol=1e-12, atol=0.0)
            # a memo that score() filled serves score_many
            np.testing.assert_allclose(by_score.score_many(stack), want, rtol=1e-12, atol=0.0)
    with pytest.raises(DimensionMismatchError):
        scorer.score_many(stack[0])


def _ordering_case(seed, d=8, n=300):
    rng = np.random.default_rng(seed)
    adj = random_dag(d, 0.4, rng)
    return rng, adj, _sample_linear(adj, n, rng)


def test_ordering_search_dag_follows_its_ordering():
    for seed in range(5):
        rng, _, x = _ordering_case(seed)
        scorer = BatchScorer(x, ScoreConfig())
        order, dag = scorer.ordering_search([rng.permutation(8) for _ in range(2)])
        assert sorted(order) == list(range(8))
        position = np.argsort(order)
        for i, j in zip(*np.nonzero(dag)):
            assert position[i] < position[j]
        # the climb stopped at a local optimum: restarting there changes nothing
        again, dag_again = scorer.ordering_search([order])
        assert again == order and np.array_equal(dag_again, dag)


def test_searches_and_node_rss_share_the_scorer_memo(monkeypatch):
    """The selections and the regressions live on the scorer: a second search
    selects nothing, and node_rss solves nothing that score_many solved."""
    rng, _, x = _ordering_case(60)
    scorer = BatchScorer(x, ScoreConfig())
    starts = [rng.permutation(8) for _ in range(3)]
    order, dag = scorer.ordering_search(starts)
    calls = []
    for name in ("_select", "_solve"):
        method = getattr(scorer, name)
        monkeypatch.setattr(scorer, name, lambda *args, name=name, method=method: (
            calls.append(name), method(*args))[1])
    again, dag_again = scorer.ordering_search(starts)
    assert again == order and np.array_equal(dag_again, dag)
    assert "_select" not in calls
    stack = np.stack([dag, random_dag(8, 0.4, rng)])
    scorer.score_many(stack)
    calls.clear()
    for adj in stack:
        for j in range(8):
            scorer.node_rss(j, np.flatnonzero(adj[:, j]))
        scorer.score(adj)
    assert calls == []


def test_scorer_rejects_statistics_that_overflow():
    rng = np.random.default_rng(61)
    x = 1e100 * rng.standard_normal((30, 3))
    assert np.isfinite(BatchScorer(x, ScoreConfig()).score(np.zeros((3, 3))))
    with pytest.raises(DataRangeError):
        BatchScorer(x, ScoreConfig(backend="quadratic"))      # fourth powers overflow
    # rows of +-2e153 about a zero mean: one batch's sums of squares are 1.2e308,
    # and extending it with the same rows doubles them past the float64 range
    x = 2e153 * np.where(np.arange(30) % 2, 1.0, -1.0)[:, None] * np.ones(3)
    base = BatchScorer(x, ScoreConfig())
    with pytest.raises(DataRangeError):
        BatchScorer(x, ScoreConfig(), base=base)


def test_collinear_parents_below_the_ridge_still_solve():
    """Two columns, 0 in the first rows and constant after, are collinear at
    a scale where the ridge falls below rounding: the normal equations are
    singular, and the regression falls back to least squares."""
    rng = np.random.default_rng(62)
    first = rng.standard_normal((6, 4))
    first[:, 2:] = 0.0
    second = rng.standard_normal((4, 4))
    second[:, 2], second[:, 3] = 3345.0, 125001.0
    scorer = BatchScorer(second, ScoreConfig(), base=BatchScorer(first, ScoreConfig()))
    both = scorer.node_rss(0, np.array([2, 3]))
    assert both == pytest.approx(scorer.node_rss(0, np.array([2])), rel=1e-6)


def test_ordering_search_from_the_true_ordering_keeps_the_truth():
    rng, adj, x = _ordering_case(40, d=6, n=5000)
    scorer = BatchScorer(x, ScoreConfig())
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
        order, dag = BatchScorer(x, ScoreConfig()).ordering_search(starts)
        order_scaled, dag_scaled = BatchScorer(x * scale, ScoreConfig()).ordering_search(starts)
        assert order_scaled == order
        assert np.array_equal(dag_scaled, dag)


def test_ordering_search_survives_an_exact_linear_dependence():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 4))
        x[:, 3] = x[:, 0] + x[:, 1]
        scorer = BatchScorer(x, ScoreConfig())
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
    base = BatchScorer(x, ScoreConfig())
    order, dag = base.ordering_search(starts)
    for offset in (1e6, 1e8):
        scorer = BatchScorer(x + offset, ScoreConfig())
        assert scorer.ordering_search(starts)[0] == order
        assert np.array_equal(scorer.ordering_search(starts)[1], dag)
        assert scorer.score(dag) == pytest.approx(base.score(dag), rel=1e-6)
        # a batch of the same state extends the statistics about the same origin
        grown = BatchScorer(x[:10] + offset, ScoreConfig(), base=scorer)
        whole = BatchScorer(np.concatenate([x, x[:10]]), ScoreConfig())
        assert grown.score(dag) == pytest.approx(whole.score(dag), rel=1e-6)
    for offset in (1e6, 1e8, 1e12):
        scorer = BatchScorer(x + offset, ScoreConfig())
        with np.errstate(invalid="raise", divide="raise"):
            order, dag = scorer.ordering_search(starts)
        assert sorted(order) == [0, 1, 2, 3]
        assert np.isfinite(scorer.score(dag))


def test_ordering_search_never_picks_a_constant_parent():
    rng, _, x = _ordering_case(60)
    x[:, 3] = 2.5
    order, dag = BatchScorer(x, ScoreConfig()).ordering_search([rng.permutation(8)])
    assert not dag[3].any() and not dag[:, 3].any()
    with pytest.raises(ConfigError):
        BatchScorer(x, ScoreConfig()).ordering_search([])
    with pytest.raises(DimensionMismatchError):
        BatchScorer(x, ScoreConfig()).ordering_search([[0, 1, 2]])


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError):
        ScoreConfig(backend="cubic")


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
    cfg = ScoreConfig(penalty_lambda1=0.1, penalty_lambda2=0.2)
    r1 = reward("specific", bic=10.0, decouple=3.0, cfg=cfg)
    assert r1.total == pytest.approx(-10.0 + 0.1 * 3.0)
    r2 = reward("invariant", bic=10.0, decouple=3.0, cfg=cfg)
    assert r2.total == pytest.approx(-10.0 + 0.2 * 3.0)
