"""Tests of the benchmark itself, at tiny size.

    python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run_bench

sys.path.insert(0, str(run_bench.SRC))

import streamdag  # noqa: E402
from streamdag.graphs import is_acyclic, random_dag  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
UNITS = {"0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}


@pytest.fixture(autouse=True)
def short_phases(monkeypatch):
    monkeypatch.setattr(run_bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run_bench, "EVAL_SHARE", 0.0)


def tiny(name: str) -> run_bench.Workload:
    w = run_bench.WORKLOADS[name]
    return dataclasses.replace(w, engine=dict(w.engine, episodes_per_batch=2))


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run_bench.WORKLOADS))
def test_every_metric_with_its_unit(name, trace, tmp_path):
    report = run_bench.run(tiny(name), seed=3, seconds=0.0, trace=bool(trace), work=tmp_path)
    result = report["result"]
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == run_bench.WORKLOADS[name].synth["m"] * (
        run_bench.WORKLOADS[name].synth["n_per_state"] // 50)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == UNITS[str(trace)]
    for entry in result["metrics"].values():
        assert np.isfinite(entry["value"])


def test_traced_run_gives_the_untraced_digest(tmp_path):
    plain = run_bench.run(tiny("steady"), seed=5, seconds=0.0, trace=False, work=tmp_path)
    traced = run_bench.run(tiny("steady"), seed=5, seconds=0.0, trace=True, work=tmp_path)
    assert plain["digest"] == traced["digest"]
    assert traced["result"]["correct"]


def test_desk_never_skips_and_counts_exactly(tmp_path):
    metrics = run_bench.run(tiny("desk"), seed=1, seconds=0.0, trace=True,
                            work=tmp_path)["result"]["metrics"]
    assert metrics["engine.skip_share"]["value"] == 0.0
    assert metrics["engine.episodes"]["value"] == 2
    assert metrics["scoring.node_rss.calls_per_score"]["value"] == 10
    assert float(metrics["nn.tensors_per_episode"]["value"]).is_integer()
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".batch_share"))
    assert shares == pytest.approx(1.0, abs=1e-6)


def test_planted_cyclic_estimate_is_a_failed_batch(tmp_path, monkeypatch):
    original = streamdag.OnlineEngine.process_batch

    def planted(engine, batch):
        rec = original(engine, batch)
        if (batch.t, batch.l) == (2, 3):
            rec.a_est = np.zeros_like(rec.a_est)
            rec.a_est[0, 1] = rec.a_est[1, 0] = 1
        return rec

    monkeypatch.setattr(streamdag.OnlineEngine, "process_batch", planted)
    report = run_bench.run(tiny("steady"), seed=0, seconds=0.0, trace=False, work=tmp_path)
    assert report["result"]["failed"] == 1
    assert report["result"]["attempted"] == 9
    assert not report["result"]["correct"]
    assert report["reported"]["failed_share"]["value"] == pytest.approx(1 / 9)
    assert "cyclic" in report["problems"][0]


def test_raising_batch_does_not_abort_the_run(tmp_path, monkeypatch):
    original = streamdag.OnlineEngine.process_batch

    def flaky(engine, batch):
        if (batch.t, batch.l) == (1, 2):
            raise RuntimeError("planted")
        return original(engine, batch)

    monkeypatch.setattr(streamdag.OnlineEngine, "process_batch", flaky)
    report = run_bench.run(tiny("steady"), seed=0, seconds=0.0, trace=True, work=tmp_path)
    assert report["result"]["attempted"] == 9
    assert report["result"]["failed"] == 1
    assert "planted" in report["problems"][0]


def test_is_dag_agrees_with_kahn():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 8))
        a = (rng.random((d, d)) < 0.3).astype(np.int8)
        assert run_bench.is_dag(a.tolist()) == is_acyclic(a)
        dag = random_dag(d, 0.5, rng)
        assert run_bench.is_dag(dag.tolist())


def test_tracer_restores_every_attribute():
    before = [owner.__dict__[attr] for owner, attr, _ in SPANS]
    tracer = Tracer()
    with tracer.installed():
        assert [owner.__dict__[attr] for owner, attr, _ in SPANS] != before
        with tracer.paused():
            assert [owner.__dict__[attr] for owner, attr, _ in SPANS] == before
    assert [owner.__dict__[attr] for owner, attr, _ in SPANS] == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run_bench.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "desk",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
