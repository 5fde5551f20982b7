"""Online engine tests: similarity measure, loop bookkeeping, modes."""

import numpy as np
import pytest

from streamdag.engine import EpisodeRecord, OnlineConfig, OnlineEngine, graph_similarity
from streamdag.errors import ConfigError, DimensionMismatchError, InsufficientDataError
from streamdag.io import StreamBatch, record_to_dict
from streamdag.scoring import ScoreConfig, bic_score
from streamdag.synth import SynthConfig, generate

from oracles import is_acyclic_dfs

_EPS = 1e-3


def _smooth(v):
    return (v + _EPS) / (1.0 + 2.0 * _EPS)


def _js_entropy(p, q):
    """JS divergence via the entropy identity H(M) - (H(P) + H(Q)) / 2."""
    def h(v):
        vec = np.array([v, 1.0 - v])
        return float(-(vec * np.log2(vec)).sum())
    return h((p + q) / 2.0) - 0.5 * h(p) - 0.5 * h(q)


def _similarity_oracle(g1, g2):
    d = g1.shape[0]
    cells = [(i, j) for i in range(d) for j in range(d) if i != j]
    js = [_js_entropy(_smooth(float(g1[i, j])), _smooth(float(g2[i, j])))
          for i, j in cells]
    return 1.0 - float(np.mean(js))


def _stream(xs, states=None):
    """Wrap row blocks into batches; states gives (t, l, transition) per block."""
    out = []
    for k, x in enumerate(xs):
        if states is None:
            out.append(StreamBatch(t=1, l=k + 1, transition=False, x=x))
        else:
            t, l, tr = states[k]
            out.append(StreamBatch(t=t, l=l, transition=tr, x=x))
    return out


def _easy_batches(n_batches, rows=30, seed=0):
    """2-variable stream with a strong 0 -> 1 signal."""
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(n_batches):
        x0 = rng.standard_normal(rows)
        x1 = 2.0 * x0 + 0.1 * rng.standard_normal(rows)
        xs.append(np.stack([x0, x1], axis=1))
    return _stream(xs)


def test_config_validation():
    with pytest.raises(ConfigError):
        OnlineConfig(mode="nope")
    with pytest.raises(ConfigError):
        OnlineConfig(workers=0)
    with pytest.raises(ConfigError):
        OnlineConfig(mode="marlin", workers=2)
    with pytest.raises(ConfigError):
        OnlineConfig(mode="marlin-s", workers=4)
    with pytest.raises(ConfigError):
        OnlineConfig(beta=1.5)
    with pytest.raises(ConfigError):
        OnlineConfig(xi_threshold=-0.1)
    with pytest.raises(ConfigError):
        OnlineConfig(episodes_per_batch=0)
    with pytest.raises(ConfigError):
        OnlineConfig(lr=0.0)
    with pytest.raises(ConfigError):
        OnlineConfig(gamma=1.5)
    OnlineConfig(mode="marlin-m", workers=1)    # single worker is allowed


def test_engine_rejects_bad_dimensions():
    with pytest.raises(ConfigError):
        OnlineEngine(d=1, cfg=OnlineConfig())
    with pytest.raises(ConfigError):
        OnlineEngine(d=2, cfg=OnlineConfig(mode="marlin-m", workers=7))


def test_similarity_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = (rng.random((5, 5)) < 0.4).astype(int)
        np.fill_diagonal(g, 0)
        assert graph_similarity(g, g) == 1.0


def test_similarity_matches_entropy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g1 = (rng.random((4, 4)) < 0.5).astype(int)
        g2 = (rng.random((4, 4)) < 0.5).astype(int)
        np.fill_diagonal(g1, 0)
        np.fill_diagonal(g2, 0)
        assert graph_similarity(g1, g2) == pytest.approx(_similarity_oracle(g1, g2), abs=1e-12)


def test_similarity_decreases_with_disagreement():
    d = 4
    base = np.zeros((d, d), dtype=int)
    vals = []
    cells = [(0, 1), (0, 2), (1, 2), (2, 3)]
    g = base.copy()
    vals.append(graph_similarity(base, g))
    for i, j in cells:
        g = g.copy()
        g[i, j] = 1
        vals.append(graph_similarity(base, g))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0
    assert vals[-1] > 0.0


def test_similarity_edge_cases():
    assert graph_similarity(np.zeros((1, 1)), np.zeros((1, 1))) == 1.0
    with pytest.raises(DimensionMismatchError):
        graph_similarity(np.zeros((2, 2)), np.zeros((3, 3)))
    # fully complementary graphs sit near zero
    g = np.zeros((3, 3), dtype=int)
    h = 1 - np.eye(3, dtype=int)
    assert graph_similarity(g, h) < 0.05


def test_first_batch_record_fields():
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=4, seed=1))
    rec = eng.process_batch(_easy_batches(1)[0])
    assert isinstance(rec, EpisodeRecord)
    assert rec.t == 1 and rec.l == 1
    assert rec.xi == 0.0
    assert not rec.converged
    assert rec.a_est.shape == (2, 2)
    assert rec.a_spec is not None and rec.a_inv is not None
    assert rec.wall_ms > 0.0


def test_emitted_graphs_are_acyclic():
    rng = np.random.default_rng(7)
    xs = [rng.standard_normal((25, 4)) for _ in range(4)]
    eng = OnlineEngine(d=4, cfg=OnlineConfig(episodes_per_batch=6, seed=2))
    for batch in _stream(xs):
        rec = eng.process_batch(batch)
        assert is_acyclic_dfs(rec.a_est)
        assert is_acyclic_dfs(rec.a_spec)
        assert is_acyclic_dfs(rec.a_inv)


def test_best_reward_is_negated_fit_score():
    cfg = OnlineConfig(episodes_per_batch=5, seed=3)
    eng = OnlineEngine(d=2, cfg=cfg)
    batch = _easy_batches(1, seed=5)[0]
    rec = eng.process_batch(batch)
    assert rec.best_reward == pytest.approx(-bic_score(rec.a_est, batch.x, cfg.score), rel=1e-12)
    # later batches of a state are scored against all of its rows so far
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=5, seed=3, xi_threshold=1.0))
    rng = np.random.default_rng(8)
    more = [rng.standard_normal((30, 2)) * [1.0, 3.0] for _ in range(3)]
    states = [(1, l, False) for l in range(2, 5)]
    eng.process_batch(batch)
    rows = [batch.x]
    for later in _stream(more, states):
        rec = eng.process_batch(later)
        rows.append(later.x)
        assert not rec.converged
        seen = np.concatenate(rows, axis=0)
        assert rec.best_reward == pytest.approx(-bic_score(rec.a_est, seen, cfg.score), rel=1e-9)
        assert rec.best_reward != pytest.approx(-bic_score(rec.a_est, later.x, cfg.score), rel=1e-6)
    assert eng.state_scorer.n == 120


def test_engine_determinism():
    batches = _easy_batches(3, seed=9)
    recs = []
    for _ in range(2):
        eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=6, seed=4))
        recs.append([eng.process_batch(b) for b in batches])
    for r1, r2 in zip(*recs):
        assert np.array_equal(r1.a_est, r2.a_est)
        assert np.array_equal(r1.a_spec, r2.a_spec)
        assert np.array_equal(r1.a_inv, r2.a_inv)
        assert r1.best_reward == r2.best_reward
        assert r1.xi == r2.xi


def test_single_agent_mode_has_no_invariant_output():
    eng = OnlineEngine(d=2, cfg=OnlineConfig(mode="marlin-s", episodes_per_batch=4, seed=0))
    rec = eng.process_batch(_easy_batches(1)[0])
    assert rec.a_inv is None
    assert rec.a_spec is not None


def test_multi_worker_mode_runs_and_is_deterministic():
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal((30, 5)) for _ in range(2)]
    recs = []
    for _ in range(2):
        eng = OnlineEngine(d=5, cfg=OnlineConfig(mode="marlin-m", workers=3,
                                                 episodes_per_batch=4, seed=8))
        recs.append([eng.process_batch(b) for b in _stream(xs)])
    for r1, r2 in zip(*recs):
        assert np.array_equal(r1.a_est, r2.a_est)
        assert r1.best_reward == r2.best_reward
        assert is_acyclic_dfs(r1.a_est)


def test_fused_mode_with_full_specific_weight_matches_single_agent():
    # beta=1 and a zero specific decoupling weight reduce the dual loop to
    # the single-agent loop: identical sampling streams, identical rewards.
    batches = _easy_batches(4, seed=2)
    score = ScoreConfig(penalty_lambda1=0.0)
    dual = OnlineEngine(d=2, cfg=OnlineConfig(mode="marlin", beta=1.0, score=score,
                                              episodes_per_batch=6, seed=11))
    solo = OnlineEngine(d=2, cfg=OnlineConfig(mode="marlin-s", score=score,
                                              episodes_per_batch=6, seed=11))
    for batch in batches:
        r_dual = dual.process_batch(batch)
        r_solo = solo.process_batch(batch)
        assert np.array_equal(r_dual.a_est, r_solo.a_est)
        assert np.array_equal(r_dual.a_spec, r_solo.a_spec)
        assert r_dual.best_reward == r_solo.best_reward


def test_transition_bookkeeping():
    rng = np.random.default_rng(6)
    xs1 = [rng.standard_normal((40, 3)) for _ in range(2)]
    xs2 = [5.0 + 2.0 * rng.standard_normal((40, 3)) for _ in range(2)]
    states = [(1, 1, False), (1, 2, False), (2, 1, True), (2, 2, False)]
    batches = _stream(xs1 + xs2, states)
    eng = OnlineEngine(d=3, cfg=OnlineConfig(episodes_per_batch=4, seed=5))
    recs = [eng.process_batch(b) for b in batches]
    assert recs[2].xi == 0.0                          # batch count reset on transition
    state1 = np.concatenate(xs1, axis=0)
    assert np.allclose(eng.prev_summary[:, 0], state1.mean(axis=0), atol=1e-9)
    assert np.allclose(eng.prev_summary[:, 1], state1.std(axis=0), atol=1e-9)
    assert np.array_equal(eng.prev_state_est, recs[1].a_est)
    # the state statistics restart with state 2: its records score its rows only
    cfg = eng.cfg.score
    assert not recs[3].converged
    assert eng.state_scorer.n == 80
    assert recs[2].best_reward == pytest.approx(-bic_score(recs[2].a_est, xs2[0], cfg), rel=1e-9)
    state2 = np.concatenate(xs2, axis=0)
    assert recs[3].best_reward == pytest.approx(-bic_score(recs[3].a_est, state2, cfg), rel=1e-9)
    eng.on_state_transition(3)
    assert eng.state_scorer is None


def test_short_first_batch_of_a_state_leaves_the_engine_unchanged():
    d = 10
    rng = np.random.default_rng(14)
    eng = OnlineEngine(d=d, cfg=OnlineConfig(episodes_per_batch=2, seed=0))
    eng.process_batch(StreamBatch(t=1, l=1, transition=False, x=rng.standard_normal((50, d))))
    scorer = eng.state_scorer
    agents = [eng.spec, eng.inv]
    params = [{k: p.data.copy() for k, p in a.params.params.items()} for a in agents]
    short = StreamBatch(t=2, l=1, transition=True, x=rng.standard_normal((5, d)))
    with pytest.raises(InsufficientDataError):
        eng.process_batch(short)
    assert (eng.t, eng.batch_in_state, eng._stat_count) == (1, 1, 50)
    assert eng.state_scorer is scorer
    for agent, before in zip(agents, params):
        for k, p in agent.params.params.items():
            np.testing.assert_array_equal(p.data, before[k])
    # within a state the rows so far count, so the same rows extend state 1
    rec = eng.process_batch(StreamBatch(t=1, l=2, transition=False, x=short.x))
    assert eng.state_scorer.n == 55 and is_acyclic_dfs(rec.a_est)


def test_transition_detected_from_state_index_without_flag():
    rng = np.random.default_rng(13)
    xs = [rng.standard_normal((30, 2)) for _ in range(2)]
    states = [(1, 1, False), (2, 1, False)]           # flag missing, t changes
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=4, seed=0))
    recs = [eng.process_batch(b) for b in _stream(xs, states)]
    assert recs[1].xi == 0.0
    assert eng.t == 2


def test_convergence_early_exit_freezes_estimate():
    batches = _easy_batches(5, seed=1)
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=6, seed=2,
                                             xi_threshold=0.0))
    recs = [eng.process_batch(b) for b in batches]
    assert not recs[0].converged                      # xi = 0 on the first batch
    assert recs[1].converged                          # any agreement clears threshold 0
    for rec in recs[2:]:
        assert rec.converged
        assert rec.xi == 1.0
        assert np.array_equal(rec.a_est, recs[1].a_est)
        assert rec.best_reward == recs[1].best_reward
    # a transition re-enables learning
    fresh = StreamBatch(t=2, l=1, transition=True, x=batches[0].x)
    rec = eng.process_batch(fresh)
    assert rec.xi == 0.0 and not rec.converged


def test_records_share_no_array_with_the_engine():
    """Overwriting every array of every record an engine hands out, on the
    learning and on the converged path, leaves its later records unchanged."""
    batches, _ = generate(SynthConfig(d=4, m=2, n_per_state=90, batch_size=30, seed=3))
    cfg = OnlineConfig(episodes_per_batch=4, seed=5, xi_threshold=0.0, timing=False)
    spoiled, twin = OnlineEngine(d=4, cfg=cfg), OnlineEngine(d=4, cfg=cfg)
    converged = 0
    for batch in batches:
        rec = spoiled.process_batch(batch)
        assert record_to_dict(rec) == record_to_dict(twin.process_batch(batch))
        converged += rec.converged and rec.xi == 1.0
        for a in (rec.a_est, rec.a_spec, rec.a_inv):
            a[...] = 1 - a
    assert converged == 2                             # the third batch of each state


def test_timing_flag_zeroes_wall_ms():
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=4, seed=0, timing=False))
    rec = eng.process_batch(_easy_batches(1)[0])
    assert rec.wall_ms == 0.0


def test_width_mismatch_raises():
    eng = OnlineEngine(d=3, cfg=OnlineConfig(episodes_per_batch=4, seed=0))
    with pytest.raises(DimensionMismatchError):
        eng.process_batch(StreamBatch(t=1, l=1, transition=False,
                                      x=np.zeros((10, 2))))


def test_run_yields_one_record_per_batch():
    batches = _easy_batches(3, seed=4)
    eng = OnlineEngine(d=2, cfg=OnlineConfig(episodes_per_batch=4, seed=1))
    recs = list(eng.run(batches))
    assert [(r.t, r.l) for r in recs] == [(1, 1), (1, 2), (1, 3)]
