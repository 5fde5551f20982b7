"""Structure and ranking metric tests."""

import numpy as np
import pytest

from streamdag.errors import ConfigError, DimensionMismatchError, InsufficientDataError
from streamdag.graphs import reachability
from streamdag.metrics import (
    backdoor_connected,
    final_records_per_state,
    ranking_metrics,
    structure_metrics,
    summarize_run,
)

from oracles import d_separated_paths, descendants_reference, sid_reference


def _random_dag(d, rng, p=0.4):
    upper = np.triu((rng.random((d, d)) < p).astype(np.int8), k=1)
    perm = rng.permutation(d)
    return upper[np.ix_(perm, perm)]


CHAIN3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8)


def test_shd_unit_cases():
    assert structure_metrics(CHAIN3, CHAIN3).shd == 0
    reversed_edge = CHAIN3.copy()
    reversed_edge[0, 1], reversed_edge[1, 0] = 0, 1
    assert structure_metrics(CHAIN3, reversed_edge).shd == 1
    extra = CHAIN3.copy()
    extra[0, 2] = 1
    assert structure_metrics(CHAIN3, extra).shd == 1
    missing = CHAIN3.copy()
    missing[1, 2] = 0
    assert structure_metrics(CHAIN3, missing).shd == 1


def test_shd_matches_cell_count_identity():
    # a reversal differs in two ordered cells but costs one operation
    rng = np.random.default_rng(0)
    for _ in range(100):
        g1 = _random_dag(6, rng)
        g2 = _random_dag(6, rng)
        cells = int((g1 != g2).sum())
        reversals = int(((g1 == 1) & (g2 == 0) & (g1.T == 0) & (g2.T == 1)).sum())
        assert structure_metrics(g1, g2).shd == cells - reversals


def test_shd_metric_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (_random_dag(5, rng) for _ in range(3))
        ab, ba = structure_metrics(a, b).shd, structure_metrics(b, a).shd
        assert ab == ba
        assert structure_metrics(a, c).shd <= ab + structure_metrics(b, c).shd
        assert structure_metrics(a, a).shd == 0


def test_shd_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        structure_metrics(np.zeros((2, 2)), np.zeros((3, 3)))


def test_auroc_unit_cases():
    off = ~np.eye(3, dtype=bool)
    assert structure_metrics(CHAIN3, CHAIN3).auroc == 1.0
    assert structure_metrics(CHAIN3, (off & (CHAIN3 == 0)).astype(np.int8)).auroc == 0.0
    assert structure_metrics(CHAIN3, np.zeros((3, 3), dtype=np.int8)).auroc == 0.5
    # hand-counted: 2 edges, 4 non-edges; one edge found and one non-edge
    # claimed gives tp = 1, tn = 3, so (1 * 4 + 3 * 2) / (2 * 2 * 4)
    one_of_each = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=np.int8)
    assert structure_metrics(CHAIN3, one_of_each).auroc == 0.625
    # a truth with no edge or no non-edge rates every estimate 0.5
    for truth in (np.zeros((3, 3), dtype=np.int8), off.astype(np.int8)):
        for est in (CHAIN3, np.zeros((3, 3), dtype=np.int8)):
            assert structure_metrics(truth, est).auroc == 0.5


def test_structure_metrics_perfect_estimate():
    rep = structure_metrics(CHAIN3, CHAIN3)
    assert rep.tpr == 1.0 and rep.fdr == 0.0 and rep.f1 == 1.0
    assert rep.auroc == 1.0
    assert rep.shd == 0 and rep.sid == 0


def test_structure_metrics_degenerate_conventions():
    empty = np.zeros((3, 3), dtype=np.int8)
    rep = structure_metrics(empty, empty)
    assert rep.tpr == 1.0      # no positives to miss
    assert rep.fdr == 0.0      # no predictions to be false
    assert rep.f1 == 1.0
    assert rep.auroc == 0.5    # degenerate label set
    rep = structure_metrics(CHAIN3, empty)
    assert rep.tpr == 0.0 and rep.fdr == 0.0 and rep.f1 == 0.0
    assert rep.shd == 2


def test_descendants_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = _random_dag(6, rng)
        for v in range(6):
            assert set(np.flatnonzero(reachability(g)[v])) == descendants_reference(g, v)


def test_d_separation_matches_path_oracle():
    """Row x of backdoor_connected is d-connection from x in g with x's out-edges cut."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        g = _random_dag(5, rng, p=0.45)
        z = rng.random((5, 5)) < 0.4
        np.fill_diagonal(z, False)
        connected = backdoor_connected(g, z)
        for x in range(5):
            cut = g.copy()
            cut[x, :] = 0
            z_set = set(int(v) for v in np.flatnonzero(z[x]))
            for y in set(range(5)) - z_set - {x}:
                assert (not connected[x, y]) == d_separated_paths(cut, x, y, z_set)


def test_sid_unit_cases():
    assert structure_metrics(CHAIN3, CHAIN3).sid == 0
    reversed_chain = CHAIN3.T.copy()
    assert structure_metrics(CHAIN3, reversed_chain).sid == 6   # every ordered pair is wrong
    two = np.array([[0, 1], [0, 0]], dtype=np.int8)
    assert structure_metrics(two, two.T.copy()).sid == 2
    empty = np.zeros((3, 3), dtype=np.int8)
    # only effect-to-cause pairs are wrong: a root needs no adjustment
    assert structure_metrics(CHAIN3, empty).sid == 3


def test_sid_identity_is_zero_on_random_dags():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = _random_dag(6, rng)
        assert structure_metrics(g, g).sid == 0


def test_sid_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = _random_dag(4, rng, p=0.5)
        h = _random_dag(4, rng, p=0.5)
        assert structure_metrics(g, h).sid == sid_reference(g, h)


@pytest.mark.parametrize("d", range(2, 8))
def test_sid_matches_exhaustive_oracle_on_every_kind_of_estimate(d):
    """Sparse and dense truths against empty, complete, identical, reversed,
    sparse and dense estimates."""
    rng = np.random.default_rng(50 + d)
    complete = np.triu(np.ones((d, d), dtype=np.int8), k=1)
    for p in (0.2, 0.7, 0.2, 0.7):
        g = _random_dag(d, rng, p=p)
        perm = rng.permutation(d)
        for h in (np.zeros_like(g), complete[np.ix_(perm, perm)], g, g.T.copy(),
                  _random_dag(d, rng, p=0.2), _random_dag(d, rng, p=0.7)):
            assert structure_metrics(g, h).sid == sid_reference(g, h)


def test_summarize_run_rates_every_state_as_a_single_pair():
    """The one stacked pass over all states gives each state's own report."""
    rng = np.random.default_rng(9)
    truths = [_random_dag(6, rng, p) for p in (0.2, 0.5, 0.8, 0.5)]
    estimates = [_random_dag(6, rng, p) for p in (0.5, 0.2, 0.5, 0.8)]
    results = [{"t": t, "l": 1, "a_est": e.tolist(), "wall_ms": 1.0}
               for t, e in enumerate(estimates, start=1)]
    summary = summarize_run(results, {"m": 4, "adjacencies": truths})
    for row, g, h in zip(summary["states"], truths, estimates, strict=True):
        assert row == {**structure_metrics(g, h).as_dict(), "atb_ms": 1.0}
        assert row["sid"] == sid_reference(g, h)


def test_ranking_unit_cases():
    rep = ranking_metrics([0, 1, 2], [0], [1, 3])
    assert rep.pr_at[1] == 1.0
    assert rep.mrr == 1.0
    rep = ranking_metrics([1, 0, 2], [0], [1, 2])
    assert rep.mrr == 0.5                       # true root at rank 2
    assert rep.pr_at[1] == 0.0
    assert rep.pr_at[2] == 1.0
    assert rep.ap_at[2] == 0.5


def test_ranking_multiple_roots():
    rep = ranking_metrics([2, 0, 1], [0, 1], [1, 2, 3])
    assert rep.pr_at[1] == 0.0
    assert rep.pr_at[2] == 0.5
    assert rep.pr_at[3] == 1.0
    assert rep.mrr == pytest.approx((1 / 2 + 1 / 3) / 2)
    assert rep.ap_at[3] == pytest.approx((0.0 + 0.5 + 1.0) / 3)


def test_ranking_k_beyond_length_saturates():
    rep = ranking_metrics([1, 0], [0], [5])
    assert rep.pr_at[5] == 1.0


def test_ranking_validation():
    with pytest.raises(DimensionMismatchError):
        ranking_metrics([0, 0, 1], [0], [1])
    with pytest.raises(InsufficientDataError):
        ranking_metrics([0, 1], [], [1])
    with pytest.raises(DimensionMismatchError):
        ranking_metrics([0, 1], [7], [1])
    for k_values in ([0], [-1], [1, 0, 3], []):
        with pytest.raises(ConfigError, match="need one or more K values, each >= 1"):
            ranking_metrics([0, 1, 2], [0], k_values)


def test_atb_and_final_records():
    records = [
        {"t": 1, "l": 1, "wall_ms": 10.0, "a_est": CHAIN3.tolist()},
        {"t": 1, "l": 2, "wall_ms": 30.0, "a_est": CHAIN3.tolist()},
        {"t": 2, "l": 1, "wall_ms": 5.0, "a_est": CHAIN3.tolist()},
    ]
    truth = {"m": 2, "adjacencies": [CHAIN3, CHAIN3]}
    summary = summarize_run(records, truth)
    assert [s["atb_ms"] for s in summary["states"]] == pytest.approx([20.0, 5.0])
    assert summary["average"]["atb_ms"] == pytest.approx(12.5)
    finals = final_records_per_state(records)
    assert finals[1]["l"] == 2 and finals[2]["l"] == 1


def test_summarize_run_perfect_results():
    truth = {"m": 2, "adjacencies": [CHAIN3, CHAIN3.copy()]}
    results = []
    for t in (1, 2):
        for l in (1, 2):
            results.append({"t": t, "l": l, "a_est": CHAIN3.tolist(),
                            "wall_ms": 4.0})
    summary = summarize_run(results, truth)
    assert [s["shd"] for s in summary["states"]] == [0, 0]
    assert summary["average"]["tpr"] == 1.0
    assert summary["average"]["atb_ms"] == 4.0
    with pytest.raises(InsufficientDataError):
        summarize_run([r for r in results if r["t"] == 1], truth)
