"""Structure and ranking metric tests."""

import numpy as np
import pytest

from streamdag.errors import DimensionMismatchError, InsufficientDataError
from streamdag.metrics import (
    atb,
    auroc_score,
    d_separated,
    descendants,
    final_records_per_state,
    ranking_metrics,
    shd,
    sid,
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
    assert shd(CHAIN3, CHAIN3) == 0
    reversed_edge = CHAIN3.copy()
    reversed_edge[0, 1], reversed_edge[1, 0] = 0, 1
    assert shd(CHAIN3, reversed_edge) == 1
    extra = CHAIN3.copy()
    extra[0, 2] = 1
    assert shd(CHAIN3, extra) == 1
    missing = CHAIN3.copy()
    missing[1, 2] = 0
    assert shd(CHAIN3, missing) == 1


def test_shd_matches_cell_count_identity():
    # a reversal differs in two ordered cells but costs one operation
    rng = np.random.default_rng(0)
    for _ in range(100):
        g1 = _random_dag(6, rng)
        g2 = _random_dag(6, rng)
        cells = int((g1 != g2).sum())
        reversals = int(((g1 == 1) & (g2 == 0) & (g1.T == 0) & (g2.T == 1)).sum())
        assert shd(g1, g2) == cells - reversals


def test_shd_metric_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (_random_dag(5, rng) for _ in range(3))
        assert shd(a, b) == shd(b, a)
        assert shd(a, c) <= shd(a, b) + shd(b, c)
        assert shd(a, a) == 0


def test_shd_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        shd(np.zeros((2, 2)), np.zeros((3, 3)))


def test_auroc_unit_cases():
    labels = np.array([1, 0, 1, 0])
    assert auroc_score(labels, np.array([0.9, 0.2, 0.8, 0.1])) == 1.0
    assert auroc_score(labels, np.array([0.1, 0.8, 0.2, 0.9])) == 0.0
    assert auroc_score(labels, np.zeros(4)) == 0.5
    # hand-counted U statistic: 3 of 4 positive/negative pairs correctly ordered
    assert auroc_score(labels, np.array([0.9, 0.8, 0.7, 0.1])) == 0.75
    assert auroc_score(np.ones(3), np.array([1.0, 2.0, 3.0])) == 0.5
    assert auroc_score(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.5


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
            assert set(np.flatnonzero(descendants(g, v))) == descendants_reference(g, v)


def test_d_separation_matches_path_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        g = _random_dag(5, rng, p=0.45)
        x, y = rng.choice(5, size=2, replace=False)
        z_mask = rng.random(5) < 0.4
        z_mask[x] = z_mask[y] = False
        z_set = set(int(v) for v in np.flatnonzero(z_mask))
        assert d_separated(g, int(x), int(y), z_mask) == d_separated_paths(g, int(x), int(y), z_set)


def test_sid_unit_cases():
    assert sid(CHAIN3, CHAIN3) == 0
    reversed_chain = CHAIN3.T.copy()
    assert sid(CHAIN3, reversed_chain) == 6     # every ordered pair is wrong
    two = np.array([[0, 1], [0, 0]], dtype=np.int8)
    assert sid(two, two.T.copy()) == 2
    empty = np.zeros((3, 3), dtype=np.int8)
    # only effect-to-cause pairs are wrong: a root needs no adjustment
    assert sid(CHAIN3, empty) == 3


def test_sid_identity_is_zero_on_random_dags():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = _random_dag(6, rng)
        assert sid(g, g) == 0


def test_sid_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = _random_dag(4, rng, p=0.5)
        h = _random_dag(4, rng, p=0.5)
        assert sid(g, h) == sid_reference(g, h)


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


def test_atb_and_final_records():
    records = [
        {"t": 1, "l": 1, "wall_ms": 10.0},
        {"t": 1, "l": 2, "wall_ms": 30.0},
        {"t": 2, "l": 1, "wall_ms": 5.0},
    ]
    assert atb(records) == pytest.approx(15.0)
    finals = final_records_per_state(records)
    assert finals[1]["l"] == 2 and finals[2]["l"] == 1
    with pytest.raises(InsufficientDataError):
        atb([])


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
