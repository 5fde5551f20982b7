"""Acceptance gate: twelve end-to-end criteria, one printed verdict line each.

Each test prints "criterion NN <name>: PASS|FAIL (<detail>)" before asserting,
so a full run (pytest tests/test_acceptance.py -s) reads as a checklist.
Expected values come from independent oracles (tests/oracles.py) or from
construction; engine-level thresholds are pinned here and never tuned to the
observed outcome.
"""

import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from streamdag.agents import Agent
from streamdag.engine import OnlineConfig, OnlineEngine
from streamdag.graphs import (
    action_to_dag,
    complement,
    dag_decompose,
    random_dag,
    topological_order,
)
from streamdag.io import StreamBatch, record_to_dict
from streamdag.metrics import ranking_metrics, structure_metrics
from streamdag.nn import (
    GaussianPolicy,
    GCNLayer,
    Linear,
    LSTMCell,
    ParamStore,
    Tensor,
    gcn_normalize,
)
from streamdag.rca import RwrConfig, anomaly_zscores, rank_root_causes
from streamdag.scoring import (
    bic_score,
    decouple_invariant,
    decouple_specific,
    reward,
)
from streamdag.synth import MechanismParams, SynthConfig, generate, sem_sample

from oracles import (
    bic_lstsq_reference,
    enumerate_dags,
    finite_diff_grad,
    is_acyclic_dfs,
    sid_reference,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 7 / 10 shared engine runs --------------------------------------

DESK_SEEDS = (0, 1, 2, 3, 4)
DESK_ENGINE = dict(episodes_per_batch=128, lr=0.01)


def _desk_stream(seed: int):
    cfg = SynthConfig(d=10, m=3, e=1.0, mechanism="LG", n_per_state=500,
                      batch_size=50, seed=seed)
    return generate(cfg)


@dataclass
class _DeskReport:
    tpr: float
    shd: int
    skipped: int          # batches the run skipped after early exit


def _final_state_report(mode: str, seed: int):
    batches, truth = _desk_stream(seed)
    eng = OnlineEngine(10, OnlineConfig(mode=mode, seed=seed, **DESK_ENGINE))
    records = [eng.process_batch(b) for b in batches]
    final = [r for r in records if r.t == 3][-1]
    rep = structure_metrics(truth.adjacencies[-1], final.a_est)
    skipped = sum(r.converged for r in records)
    return _DeskReport(tpr=rep.tpr, shd=rep.shd, skipped=skipped), truth


@pytest.fixture(scope="module")
def desk_runs():
    """5-seed desk-scale runs for both modes, shared by criteria 7 and 10."""
    out = {"marlin": [], "marlin-s": [], "truths": []}
    start = time.perf_counter()
    for seed in DESK_SEEDS:
        rep, truth = _final_state_report("marlin", seed)
        out["marlin"].append(rep)
        out["truths"].append(truth.adjacencies[-1])
    out["marlin_seconds"] = time.perf_counter() - start
    for seed in DESK_SEEDS:
        rep, _ = _final_state_report("marlin-s", seed)
        out["marlin-s"].append(rep)
    return out


# -- 1: acyclicity sweep -------------------------------------------------------

def test_criterion_01_acyclicity_sweep():
    """10^5 random actions per dimension always map to a DAG (nilpotency check).

    The actions are drawn, mapped and checked in stacks of 5,000; a stacked
    draw takes the same numbers from the generator as one draw per action.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    failures = 0
    total = 0
    for d in (2, 5, 10, 20):
        for _ in range(100_000 // 5_000):
            adj = action_to_dag(rng.standard_normal((5_000, d * (d + 1))))
            # independent check: A is acyclic iff A^d = 0 (no length-d walks).
            # In float64 the products go through BLAS.  The entries are
            # non-negative walk counts of at most 20^19, far below overflow,
            # and a sum of non-negative terms is 0 only if every term is, so
            # a zero stays exactly zero however the large counts round.
            walks = np.linalg.matrix_power(adj.astype(np.float64), d)
            failures += int(walks.any(axis=(1, 2)).sum())
            total += len(adj)
        # defense in depth: DFS oracle on a fresh subsample
        for _ in range(500):
            adj = action_to_dag(rng.standard_normal(d * (d + 1)))
            if not is_acyclic_dfs(adj):
                failures += 1
            total += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    assert _verdict(1, "acyclicity-sweep", ok,
                    f"{total - failures}/{total} acyclic, {elapsed:.1f}s")


# -- 2: surjectivity onto labeled DAGs at d=3 ----------------------------------

def test_criterion_02_surjectivity_d3():
    """Every labeled 3-node DAG is reachable by an (h, mask) construction."""
    dags = enumerate_dags(3)
    assert len(dags) == 25
    reached = set()
    exact = 0
    for adj in dags:
        order = topological_order(adj)
        h = np.zeros(3)
        for pos, node in enumerate(order):
            h[node] = 3.0 - pos          # parents get larger h than children
        logits = np.where(adj > 0, 1.0, -1.0)
        rebuilt = action_to_dag(np.concatenate([h, logits.reshape(-1)]))
        if np.array_equal(rebuilt, adj):
            exact += 1
        reached.add(rebuilt.tobytes())
    ok = exact == 25 and len(reached) == 25
    assert _verdict(2, "surjectivity-d3", ok,
                    f"{exact}/25 reconstructed, {len(reached)}/25 distinct")


# -- 3: decomposition oracle ---------------------------------------------------

def test_criterion_03_decomposition():
    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        adj = random_dag(d, float(rng.uniform(0.1, 0.7)), rng)
        perm, upper = dag_decompose(adj)
        if not np.array_equal(perm.T @ upper @ perm, adj):
            bad += 1
        if np.tril(upper).any():
            bad += 1
    assert _verdict(3, "decomposition-PtUP", bad == 0, f"{1000 - bad}/1000 exact")


# -- 4: BIC oracle equivalence -------------------------------------------------

def test_criterion_04_bic_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(40, 90))
        adj = random_dag(d, 0.4, rng)
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) * 0.7
        got = bic_score(adj, x)
        want = bic_lstsq_reference(adj, x)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    ok = worst < 1e-8
    assert _verdict(4, "bic-oracle", ok, f"worst rel err {worst:.2e}")


# -- 5: gradient checks --------------------------------------------------------

def _fd_ok(build_loss, arr, rtol=1e-5):
    leaf = Tensor(arr.copy(), requires_grad=True)
    build_loss(leaf).backward()
    fd = finite_diff_grad(lambda a: float(build_loss(Tensor(a)).data), arr.copy())
    denom = np.maximum(np.abs(fd), 1e-8)
    return float(np.max(np.abs(leaf.grad - fd) / denom))


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(15)
    errs = []

    def lstm_loss(t):
        store = ParamStore()
        cell = LSTMCell(store, "l", (), 3, 4, np.random.default_rng(20))
        cell.wx = t
        x = Tensor(rng0["x"])
        out, (h2, c2) = cell(x, (Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))))
        out2, _ = cell(out @ Tensor(rng0["proj"]), (h2, c2))
        return (out2.square() + c2.square()).sum()

    rng0 = {"x": rng.standard_normal((2, 3)),
            "proj": rng.standard_normal((4, 3)) * 0.5}
    errs.append(_fd_ok(lstm_loss, rng.standard_normal((3, 16)) * 0.5))

    adj = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    feats = rng.standard_normal((3, 4))

    def gcn_loss(t):
        store = ParamStore()
        layer = GCNLayer(store, "g", (), 4, 5, np.random.default_rng(21))
        layer.lin.w = t
        return layer(Tensor(feats), gcn_normalize(adj)).square().sum()

    errs.append(_fd_ok(gcn_loss, rng.standard_normal((4, 5)) * 0.5))

    action = rng.standard_normal(6)
    other_mean = rng.standard_normal(6) * 0.3
    other_lstd = rng.standard_normal(6) * 0.2
    errs.append(_fd_ok(lambda t: -GaussianPolicy(t, Tensor(other_lstd)).log_prob(action),
                       rng.standard_normal(6) * 0.3))
    errs.append(_fd_ok(lambda t: -GaussianPolicy(Tensor(other_mean), t).log_prob(action),
                       rng.standard_normal(6) * 0.2))

    pooled = rng.standard_normal((1, 6))
    target = 2.5

    def critic_loss(t):
        store = ParamStore()
        l1 = Linear(store, "c1", (), 6, 8, np.random.default_rng(22))
        l2 = Linear(store, "c2", (), 8, 1, np.random.default_rng(23))
        l1.w = t
        pred = l2(l1(Tensor(pooled)).tanh())
        return (pred - target).square().sum()

    errs.append(_fd_ok(critic_loss, rng.standard_normal((6, 8)) * 0.5))

    worst = max(errs)
    ok = worst < 1e-5
    assert _verdict(5, "gradient-checks", ok,
                    f"worst rel err {worst:.2e} over lstm/gcn/policy/critic")


# -- 6: reward arithmetic ------------------------------------------------------

def test_criterion_06_reward_arithmetic():
    a = np.array([[0, 1], [0, 0]], dtype=np.int8)   # 1 -> 2
    b = complement(a)                                # 2 -> 1
    checks = []
    # zero at targets: specific matches both complements, invariant matches
    # the partner complement and the previous-state estimate
    checks.append(decouple_specific(b, a, a) == 0.0)
    checks.append(decouple_invariant(b, a, b) == 0.0)
    # constructed d=2 mismatch cases evaluate to exactly 1
    checks.append(decouple_specific(a, a, b) == 1.0)
    checks.append(decouple_invariant(a, b, b) == 1.0)
    # reward composition: total = -bic + lambda * decouple
    checks.append(reward(3.0, 1.0, 1.0) == -2.0)
    checks.append(reward(3.0, 1.0, 0.0) == -3.0)
    checks.append(reward(1.0, 2.0, 0.5) == pytest.approx(0.0))
    ok = all(checks)
    assert _verdict(6, "reward-arithmetic", ok, f"{sum(checks)}/{len(checks)} exact")


# -- 7: end-to-end desk scale --------------------------------------------------

def _matched_density_dag(d: int, n_edges: int, rng) -> np.ndarray:
    iu = np.triu_indices(d, 1)
    pick = rng.choice(len(iu[0]), size=min(n_edges, len(iu[0])), replace=False)
    upper = np.zeros((d, d), dtype=np.int8)
    upper[iu[0][pick], iu[1][pick]] = 1
    perm = rng.permutation(d)
    return upper[np.ix_(perm, perm)]


def test_criterion_07_desk_scale(desk_runs):
    shds = [r.shd for r in desk_runs["marlin"]]
    tprs = [r.tpr for r in desk_runs["marlin"]]
    rng = np.random.default_rng(17)
    random_shds = []
    for truth in desk_runs["truths"]:
        for _ in range(100):
            rand = _matched_density_dag(10, int(truth.sum()), rng)
            random_shds.append(structure_metrics(truth, rand).shd)
    med_shd = float(np.median(shds))
    med_rand = float(np.median(random_shds))
    med_tpr = float(np.median(tprs))
    elapsed = desk_runs["marlin_seconds"]
    ok = med_shd < med_rand and med_tpr >= 0.7 and elapsed < 600.0
    per_seed = ", ".join(f"{r.tpr:.2f}/{r.shd}/{r.skipped}" for r in desk_runs["marlin"])
    assert _verdict(7, "desk-scale", ok,
                    f"median shd {med_shd:.0f} vs random {med_rand:.0f}, "
                    f"median tpr {med_tpr:.2f} (need >= 0.7), {elapsed:.0f}s; "
                    f"tpr/shd/skipped batches per seed: {per_seed}")


# -- 8: convergence early-exit -------------------------------------------------

def test_criterion_08_early_exit():
    rng = np.random.default_rng(18)
    adj = np.array([[0, 1], [0, 0]], dtype=np.int8)
    params = MechanismParams(mechanism="LG", lin=adj * 1.5, square=np.zeros((2, 2)),
                             noise_scale=np.ones(2))
    batches = [StreamBatch(t=1, l=l, x=sem_sample(adj, params, 50, rng),
                           transition=False)
               for l in range(1, 31)]
    eng = OnlineEngine(2, OnlineConfig(episodes_per_batch=64, seed=0))
    records = [eng.process_batch(b) for b in batches]
    train = [r.wall_ms for r in records if not r.converged]
    skipped = [r.wall_ms for r in records if r.converged]
    ok = bool(skipped) and bool(train)
    ratio = float(np.median(train) / np.median(skipped)) if ok else 0.0
    ok = ok and ratio >= 10.0
    assert _verdict(8, "early-exit", ok,
                    f"{len(skipped)}/{len(records)} batches skipped, "
                    f"wall ratio {ratio:.0f}x")


# -- 9: worker-mode consistency and speed --------------------------------------

def test_criterion_09_workers():
    cfg = SynthConfig(d=6, m=2, e=0.0, mechanism="LG", n_per_state=150,
                      batch_size=50, seed=9)
    batches, _ = generate(cfg)

    def run_records(mode, workers):
        eng = OnlineEngine(6, OnlineConfig(mode=mode, workers=workers,
                                           episodes_per_batch=32, seed=3,
                                           timing=False))
        return [json.dumps(record_to_dict(eng.process_batch(b)), sort_keys=True)
                for b in batches]

    identical = run_records("marlin", 1) == run_records("marlin-m", 1)

    cfg20 = SynthConfig(d=20, m=2, e=1.0, mechanism="LG", n_per_state=200,
                        batch_size=50, seed=19)
    batches20, _ = generate(cfg20)

    def mean_wall(mode, workers):
        eng = OnlineEngine(20, OnlineConfig(mode=mode, workers=workers,
                                            episodes_per_batch=64, seed=3))
        return float(np.mean([eng.process_batch(b).wall_ms for b in batches20]))

    # each side's wall is the median of 3 runs, taken in alternation so that
    # a slow spell of a shared host falls on both sides
    walls = [(mean_wall("marlin", 1), mean_wall("marlin-m", 4)) for _ in range(3)]
    wall1, wall4 = np.median(walls, axis=0)
    ok = identical and wall4 <= wall1
    assert _verdict(9, "worker-modes", ok,
                    f"byte-identical={identical}, wall w4 {wall4:.0f}ms "
                    f"vs marlin {wall1:.0f}ms")


# -- 10: ablation trend ---------------------------------------------------------

def test_criterion_10_ablation(desk_runs):
    med_full = float(np.median([r.shd for r in desk_runs["marlin"]]))
    med_single = float(np.median([r.shd for r in desk_runs["marlin-s"]]))
    ok = med_full <= med_single
    assert _verdict(10, "ablation-trend", ok,
                    f"marlin median shd {med_full:.0f} <= marlin-s {med_single:.0f}")


# -- 11: SID brute force ---------------------------------------------------------

def test_criterion_11_sid_bruteforce():
    dags = enumerate_dags(3)
    mismatches = 0
    for true in dags:
        for est in dags:
            if structure_metrics(true, est).sid != sid_reference(true, est):
                mismatches += 1
    ok = mismatches == 0
    assert _verdict(11, "sid-bruteforce", ok,
                    f"{len(dags) ** 2 - mismatches}/{len(dags) ** 2} pairs equal")


# -- 12: root-cause ranking sanity ----------------------------------------------

def test_criterion_12_rca_sanity():
    ranking = [0, 1, 2]
    top_first = ranking_metrics(ranking, [0], (1,))
    second = ranking_metrics(ranking, [1], (1,))
    unit_ok = top_first.pr_at[1] == 1.0 and top_first.mrr == 1.0 \
        and second.mrr == 0.5

    d = 6
    mrrs = []
    for seed in range(5):
        cfg = SynthConfig(d=d, m=2, e=0.0, mechanism="LG", n_per_state=400,
                          batch_size=50, seed=seed)
        _, truth = generate(cfg)
        adj = truth.adjacencies[-1]
        roots = [i for i in range(d)
                 if adj[:, i].sum() == 0 and adj[i, :].sum() > 0]
        assert roots, "stream draw has no root with descendants"
        root = roots[0]
        rng = np.random.default_rng(100 + seed)
        normal = sem_sample(adj, truth.params, 300, rng)
        scale = np.ones(d)
        scale[root] = math.sqrt(10.0)   # variance inflated 10x at the root
        fault = sem_sample(adj, dataclasses.replace(truth.params, noise_scale=scale), 100, rng)
        z = anomaly_zscores(normal, fault)
        ordering = [n for n, _ in rank_root_causes(adj, RwrConfig(anomaly_scores=z))]
        mrrs.append(ranking_metrics(ordering, [root], (1, 3)).mrr)
    med = float(np.median(mrrs))
    random_mrr = sum(1.0 / k for k in range(1, d + 1)) / d
    ok = unit_ok and med >= 0.5 and med > random_mrr
    assert _verdict(12, "rca-sanity", ok,
                    f"unit cases {'ok' if unit_ok else 'bad'}, median mrr "
                    f"{med:.2f} vs random {random_mrr:.2f}")
