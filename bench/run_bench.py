#!/usr/bin/env python3
"""streamdag benchmark: one workload, one seed, one process.

    python3 bench/run_bench.py --workload desk --seed 0 --seconds 30 --trace 0

The run follows the CLI's order through the public API: synth.generate,
io.write_stream / io.read_stream, OnlineEngine.process_batch per batch (a
closed loop with one caller), io.write_results / io.read_results,
metrics.summarize_run, and rca.fault_window_scores + rca.rank_root_causes.
Streams are generated from --seed and processed one after another until
--seconds have passed; the first stream always runs to its end.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps each layer's
public functions (see tracer.py) and reports per-layer metrics instead.
Every line but the last is a human-readable report and a JSON report with
the workload's properties, the environment and the output digest; the last
line is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with BLAS threads free, run-to-run spread grows
# several-fold on a small machine while the outputs stay the same.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A shared host's speed can swing by up to 2x for seconds at a time, so the
# short measurements are spread over the run rather than taken in one window.
# Set-up is measured SETUP_REPEATS times at the start and again at the end.
SETUP_REPEATS = 3
# One evaluation takes 5-100 ms.  Each complete stream is evaluated right
# after it ends, for EVAL_SHARE of its processing time; the mean of all
# evaluations then follows the run's average speed.
EVAL_MIN_ROUNDS = 3
EVAL_MAX_ROUNDS = 500
EVAL_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    engine: dict


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "desk",
        synth=dict(d=10, m=3, e=1.0, mechanism="LG", er_expected_degree=4.0,
                   n_per_state=500, batch_size=50),
        engine=dict(mode="marlin", episodes_per_batch=128),
    ),
    Workload(
        "wide",
        synth=dict(d=20, m=2, e=1.0, mechanism="LG", er_expected_degree=4.0,
                   n_per_state=500, batch_size=50),
        engine=dict(mode="marlin-m", workers=4, episodes_per_batch=64),
    ),
    Workload(
        "steady",
        synth=dict(d=6, m=3, e=1.0, mechanism="LG", er_expected_degree=2.0,
                   n_per_state=150, batch_size=50),
        engine=dict(mode="marlin", episodes_per_batch=128, xi_threshold=0.8),
    ),
)}

# Fresh-process set-up: import, generate, write the stream, build the engine.
# The clock starts before anything is imported.
SETUP_CHILD = """\
import time
start = time.perf_counter()
import json, sys
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import streamdag
batches, truth = streamdag.generate(streamdag.SynthConfig(**spec["synth"]))
streamdag.write_stream(batches, spec["path"])
streamdag.OnlineEngine(spec["synth"]["d"], streamdag.OnlineConfig(**spec["engine"]))
print(time.perf_counter() - start)
"""


def stream_seed(seed: int, k: int) -> int:
    """Seed of the k-th stream of a run; the engine reuses it."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# -- correctness ----------------------------------------------------------------


def is_dag(a) -> bool:
    """Independent of streamdag.graphs: peel nodes without parents until none are left."""
    d = len(a)
    parents = [{i for i in range(d) if a[i][j]} for j in range(d)]
    alive = set(range(d))
    while alive:
        roots = {j for j in alive if not (parents[j] & alive)}
        if not roots:
            return False
        alive -= roots
    return True


def record_problem(rec, d: int) -> str | None:
    """Why a record is not a valid estimate, or None."""
    a = np.asarray(rec.a_est)
    if a.shape != (d, d):
        return f"a_est has shape {a.shape}, expected ({d}, {d})"
    if not np.isin(a, (0, 1)).all():
        return "a_est has entries other than 0 and 1"
    if not is_dag(a.tolist()):
        return "a_est is cyclic"
    if not np.isfinite(rec.best_reward):
        return f"best_reward is {rec.best_reward}"
    return None


def record_key(rec) -> str | None:
    """Canonical form of an EpisodeRecord with its wall time dropped."""
    if rec is None:
        return None
    from streamdag.io import record_to_dict
    doc = record_to_dict(rec)
    del doc["wall_ms"]
    return json.dumps(doc, sort_keys=True)


def call_engine(engine, batch):
    """(record, None), or (None, why) if process_batch raised: a failure is counted, not fatal."""
    try:
        return engine.process_batch(batch), None
    except Exception as exc:
        return None, f"process_batch raised {type(exc).__name__}: {exc}"


# -- one stream -------------------------------------------------------------------


@dataclass
class StreamRun:
    seed: int
    batches: list
    truth_doc: dict
    records: list = field(default_factory=list)     # (position, EpisodeRecord), valid or not
    latencies_s: list = field(default_factory=list)
    rows: int = 0
    window_s: float = 0.0
    complete: bool = False
    failed: set = field(default_factory=set)           # positions of failed batches
    problems: list = field(default_factory=list)
    stream_bytes: int = 0
    results_bytes: int = 0
    results_path: Path | None = None
    summary: dict | None = None                        # summarize_run of a complete stream
    eval_s: list = field(default_factory=list)         # time of each evaluation

    def fail(self, pos: int, problem: str):
        self.failed.add(pos)
        self.problems.append(f"stream {self.seed} {problem}")


class Runner:
    """Processes a workload's streams for a fixed time and checks every output."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path,
                 tracer=None):
        import streamdag
        from streamdag import io, metrics, rca, synth
        self.sd = streamdag
        # called through their modules, so that the tracer's wrappers see the calls
        self.io, self.metrics, self.rca, self.synth = io, metrics, rca, synth
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.streams: list[StreamRun] = []
        self.lockstep_s = [0.0, 0.0]               # untraced, traced
        self.lockstep_mismatch = 0

    def make_engine(self, seed: int):
        d = self.workload.synth["d"]
        cfg = self.sd.OnlineConfig(seed=seed, **self.workload.engine)
        if self.tracer is None:
            return self.sd.OnlineEngine(d, cfg)
        with self.tracer.paused():              # its tensors are not an episode's
            return self.sd.OnlineEngine(d, cfg)

    def prepare(self, k: int) -> tuple[StreamRun, Path]:
        seed = stream_seed(self.seed, k)
        batches, truth = self.synth.generate(self.sd.SynthConfig(seed=seed, **self.workload.synth))
        path = self.work / f"stream_{k}.jsonl"
        self.io.write_stream(batches, path)
        truth_path = self.work / f"truth_{k}.json"
        self.io.write_truth(truth, truth_path)
        run = StreamRun(seed=seed, batches=batches, truth_doc=self.io.read_truth(truth_path),
                        stream_bytes=path.stat().st_size)
        return run, path

    def run(self):
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            run, path = self.prepare(k)
            self.process_stream(run, path, deadline if k > 0 else None)
            self.streams.append(run)
            if run.complete:
                self.evaluate_stream(run)
            k += 1

    def process_stream(self, run: StreamRun, path: Path, deadline: float | None):
        d = self.workload.synth["d"]
        engine = self.make_engine(run.seed)
        # the traced run checks its wrappers against an untraced twin over the first state
        twin = self.make_engine(run.seed) if self.tracer is not None and not self.streams else None
        run.results_path = self.work / f"results_{len(self.streams)}.jsonl"
        clock = time.perf_counter
        with run.results_path.open("w") as out:
            start = clock()
            for pos, batch in enumerate(self.io.read_stream(path)):
                if twin is not None and batch.t > 1:
                    twin = None
                if twin is not None:
                    with self.tracer.paused():
                        t0 = clock()
                        twin_rec, _ = call_engine(twin, batch)
                        self.lockstep_s[0] += clock() - t0
                t0 = clock()
                rec, problem = call_engine(engine, batch)
                dt = clock() - t0
                run.latencies_s.append(dt)
                run.rows += batch.x.shape[0]
                if rec is not None:
                    problem = record_problem(rec, d)
                    run.records.append((pos, rec))
                    self.io.write_results([rec], out)
                if twin is not None:
                    self.lockstep_s[1] += dt
                    self.lockstep_mismatch += record_key(rec) != record_key(twin_rec)
                if problem is not None:
                    run.fail(pos, f"batch {batch.t}/{batch.l}: {problem}")
                if deadline is not None and clock() >= deadline:
                    break
            else:
                run.complete = True
            run.window_s = clock() - start
        run.results_bytes = run.results_path.stat().st_size
        self.check_round_trip(run)

    def check_round_trip(self, run: StreamRun):
        """read_results must give back each written record's t, l and a_est."""
        back = self.io.read_results(run.results_path)
        if len(back) != len(run.records):
            for pos, _ in run.records:
                run.fail(pos, f"wrote {len(run.records)} records, read back {len(back)}")
            return
        for (pos, rec), got in zip(run.records, back):
            if (got["t"], got["l"], got["a_est"]) != (rec.t, rec.l, rec.a_est.tolist()):
                run.fail(pos, f"batch {rec.t}/{rec.l}: results round trip changed the record")

    def evaluate(self, run: StreamRun) -> tuple[dict, float]:
        """Results round trip, summarize_run and root-cause ranking, timed together."""
        path = self.work / "eval.jsonl"
        m = run.truth_doc["m"]
        n = self.workload.synth["n_per_state"]
        start = time.perf_counter()
        self.io.write_results([rec for _, rec in run.records], path)
        results = self.io.read_results(path)
        summary = self.metrics.summarize_run(results, run.truth_doc)
        scores = self.rca.fault_window_scores(run.batches, m, 3 * n // 5, 4 * n // 5)
        final = [r for r in results if r["t"] == m][-1]
        self.rca.rank_root_causes(final["a_est"], self.sd.RwrConfig(anomaly_scores=scores))
        return summary, time.perf_counter() - start

    def evaluate_stream(self, run: StreamRun):
        """Evaluate a complete stream EVAL_MIN_ROUNDS times, and again until the
        evaluations took EVAL_SHARE of the stream's processing time."""
        while len(run.eval_s) < EVAL_MIN_ROUNDS or (
                sum(run.eval_s) < EVAL_SHARE * run.window_s
                and len(run.eval_s) < EVAL_MAX_ROUNDS):
            run.summary, dt = self.evaluate(run)
            run.eval_s.append(dt)

    # -- aggregates -------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(len(r.latencies_s) for r in self.streams)

    @property
    def failed(self) -> int:
        return sum(len(r.failed) for r in self.streams)

    def digest(self) -> str:
        """sha256 over the first stream's records with wall_ms dropped."""
        h = hashlib.sha256()
        for _, rec in self.streams[0].records:
            h.update(record_key(rec).encode())
            h.update(b"\n")
        return h.hexdigest()

    def properties(self) -> dict:
        edges, along = 0, 0
        for run in self.streams:
            for t, adj in enumerate(run.truth_doc["adjacencies"], start=1):
                x = np.concatenate([b.x for b in run.batches if b.t == t])
                var = x.var(axis=0)
                for i, j in zip(*np.nonzero(adj)):
                    edges += 1
                    along += var[j] > var[i]
        first = self.streams[0]
        return {
            "varsortability": along / edges if edges else float("nan"),
            "edges_per_state": edges / sum(len(r.truth_doc["adjacencies"]) for r in self.streams),
            "rows_per_stream": sum(b.x.shape[0] for b in first.batches),
            "batches_per_stream": len(first.batches),
            "streams": len(self.streams),
            "complete_streams": sum(r.complete for r in self.streams),
            "batches": self.attempted,
        }


# -- set-up -------------------------------------------------------------------------


def measure_setup(workload: Workload, seed: int, work: Path) -> list[float]:
    """Seconds per fresh-process set-up, SETUP_REPEATS times in a row."""
    spec = {"src": str(SRC), "path": str(work / "setup.jsonl"),
            "synth": dict(workload.synth, seed=stream_seed(seed, 0)),
            "engine": dict(workload.engine, seed=stream_seed(seed, 0))}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(spec)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# -- metrics --------------------------------------------------------------------------


def end_to_end(runner: Runner, setup_times: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, figures reported but kept out of the gated set)."""
    lat_ms = [1000.0 * t for r in runner.streams for t in r.latencies_s]
    rows = sum(r.rows for r in runner.streams)
    window = sum(r.window_s for r in runner.streams)
    complete = [r for r in runner.streams if r.complete]
    eval_times = [t for r in complete for t in r.eval_s]
    tprs = [r.summary["average"]["tpr"] for r in complete]
    shds = [r.summary["average"]["shd"] for r in complete]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "batch_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "batch_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "rows_per_s": (rows / window, "rows/s"),
        "eval_s": (statistics.mean(eval_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    reported = {
        "tpr": (statistics.median(tprs), "ratio"),
        "shd": (statistics.median(shds), "edges"),
        "latency_samples": (len(lat_ms), "count"),
        "quality_streams": (len(tprs), "count"),
    }
    return metrics, reported


def per_layer(runner: Runner) -> dict:
    tr = runner.tracer
    batches = tr.calls("engine.process_batch")
    learned = tr.calls("scoring.BatchScorer")          # a skipped batch builds no scorer
    episodes = learned * runner.workload.engine["episodes_per_batch"]
    batch_ms = tr.total_ms("engine.process_batch")
    score_calls = tr.calls("scoring.score")
    adam_calls = tr.calls("nn.adam_step")
    engine = runner.sd.OnlineEngine(runner.workload.synth["d"], runner.sd.OnlineConfig(
        seed=0, **runner.workload.engine))
    agents = [a for a in (engine.spec, engine.inv) if a is not None]
    complete = [r for r in runner.streams if r.complete]
    lockstep_untraced, lockstep_traced = runner.lockstep_s

    def share(ms: float) -> float:
        return ms / batch_ms if batch_ms else 0.0

    out = {
        "nn.backward.ms_per_call": (tr.ms_per_call("nn.backward"), "ms"),
        "nn.adam_step.ms_per_call": (tr.ms_per_call("nn.adam_step"), "ms"),
        "nn.tensors_per_episode": ((tr.tensors - tr.transition_tensors) / max(episodes, 1),
                                   "count"),
        "nn.params": (sum(p.data.size for a in agents for p in a.params.params.values()),
                      "count"),
        "nn.adam_step.bytes_computed": (tr.adam_bytes / max(adam_calls, 1), "bytes"),
        "agents.train_step.self_ms_per_call": (tr.ms_per_call("agents.train_step", True), "ms"),
        "agents.train_step.calls": (tr.calls("agents.train_step"), "count"),
    }
    for name in ("encode_specific", "encode_invariant", "propose"):
        out[f"agents.{name}.ms_per_call"] = (tr.ms_per_call(f"agents.{name}"), "ms")
        out[f"agents.{name}.calls"] = (tr.calls(f"agents.{name}"), "count")
    out.update({
        "scoring.BatchScorer.ms_per_call": (tr.ms_per_call("scoring.BatchScorer"), "ms"),
        "scoring.score.ms_per_call": (tr.ms_per_call("scoring.score"), "ms"),
        "scoring.node_rss.calls_per_score": (tr.node_rss_calls / max(score_calls, 1), "count"),
        "scoring.node_rss.distinct_share": (tr.node_rss_distinct / max(tr.node_rss_calls, 1),
                                            "ratio"),
        "scoring.score.distinct_share": (tr.score_distinct / max(score_calls, 1), "ratio"),
        "scoring.reward_terms.ms_per_episode": (tr.total_ms("scoring.reward_terms")
                                                / max(episodes, 1), "ms"),
        "graphs.action_to_dag.ms_per_call": (tr.ms_per_call("graphs.action_to_dag"), "ms"),
        "engine.self_ms_per_batch": (tr.self_ms("engine.process_batch") / max(batches, 1), "ms"),
        "engine.skip_share": (1.0 - learned / max(batches, 1), "ratio"),
        "engine.episodes": (episodes / max(batches, 1), "count"),
        "engine.skip.ms_per_call": (1000.0 * tr.skip_s / max(tr.skip_calls, 1), "ms"),
        "engine.graph_similarity.ms_per_call": (tr.ms_per_call("engine.graph_similarity"), "ms"),
        "engine.on_state_transition.ms_per_call": (tr.ms_per_call("engine.on_state_transition"),
                                                   "ms"),
        "io.read_stream.ms_per_batch": (tr.total_ms("io.read_stream")
                                        / max(tr.batches_read, 1), "ms"),
        "io.write_results.ms_per_record": (tr.total_ms("io.write_results")
                                           / max(tr.records_written, 1), "ms"),
        "io.read_results.ms": (tr.ms_per_call("io.read_results"), "ms"),
        "io.stream_bytes": (statistics.mean(r.stream_bytes for r in runner.streams), "bytes"),
        "io.results_bytes": (statistics.mean(r.results_bytes for r in complete), "bytes"),
        "synth.generate.ms": (tr.ms_per_call("synth.generate"), "ms"),
        "metrics.summarize_run.ms": (tr.ms_per_call("metrics.summarize_run"), "ms"),
        "rca.fault_window_scores.ms": (tr.ms_per_call("rca.fault_window_scores"), "ms"),
        "rca.rank_root_causes.ms": (tr.ms_per_call("rca.rank_root_causes"), "ms"),
        "trace.overhead_share": (lockstep_traced / lockstep_untraced - 1.0
                                 if lockstep_untraced else 0.0, "ratio"),
        "trace.attributed_share": (1.0 - share(tr.self_ms("engine.process_batch")), "ratio"),
    })
    # self-time shares of batch time; the process_batch span's own is engine.self,
    # and all of them add up to 1
    for span in ("nn.backward", "nn.adam_step", "agents.train_step", "agents.encode_specific",
                 "agents.encode_invariant", "agents.propose", "scoring.BatchScorer",
                 "scoring.score", "scoring.reward_terms", "graphs.action_to_dag",
                 "engine.graph_similarity", "engine.on_state_transition", "engine.process_batch"):
        name = "engine.self" if span == "engine.process_batch" else span
        out[f"{name}.batch_share"] = (share(tr.self_ms(span)), "ratio")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- entry point ------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the report, whose "result" is the contract line."""
    if trace:
        from tracer import Tracer
        setup_times = []
        runner = Runner(workload, seed, seconds, work, Tracer())
        with runner.tracer.installed():
            runner.run()
        metrics, reported = per_layer(runner), {}
    else:
        setup_times = measure_setup(workload, seed, work)
        runner = Runner(workload, seed, seconds, work)
        runner.run()
        setup_times += measure_setup(workload, seed, work)
        metrics, reported = end_to_end(runner, setup_times)
    reported["failed_share"] = (runner.failed / runner.attempted, "ratio")
    problems = [p for r in runner.streams for p in r.problems]
    if runner.lockstep_mismatch:
        problems.append(f"{runner.lockstep_mismatch} traced records differ from the "
                        "untraced twin's")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "digest": runner.digest(),
        "properties": runner.properties(),
        "environment": environment(),
        "setup_s_samples": setup_times,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "problems": problems[:20],
        "result": {
            "correct": not problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streamdag" / "__init__.py").is_file():
        print(f"error: streamdag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):       # other runs may still use it
            WORK.rmdir()
    result = report.pop("result")
    for name, entry in {**result["metrics"], **report["reported"]}.items():
        print(f"{args.workload:>7} {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
