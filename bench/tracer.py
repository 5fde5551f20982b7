"""Per-layer spans and counters, recorded from outside the program.

While installed, the tracer replaces public functions and methods of
streamdag's modules with timing wrappers; on removal it puts the originals
back.  Nothing under src/ knows about it.  Each wrapped call is a span.  A
span's self time is its duration minus the time of the spans it encloses,
so the self times of all spans inside one batch add up to the batch.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import streamdag.agents as agents
import streamdag.engine as engine
import streamdag.io as sdio
import streamdag.metrics as metrics
import streamdag.nn as nn
import streamdag.rca as rca
import streamdag.scoring as scoring
import streamdag.synth as synth

# (owner, attribute, span name).  Module-level functions are patched where
# they are looked up: engine.py and agents.py import them by name, and the
# benchmark calls io, synth, metrics and rca through their modules.
SPANS = (
    (engine.OnlineEngine, "process_batch", "engine.process_batch"),
    (engine.OnlineEngine, "on_state_transition", "engine.on_state_transition"),
    (engine, "graph_similarity", "engine.graph_similarity"),
    (engine, "action_to_dag", "graphs.action_to_dag"),
    (engine, "decouple_specific", "scoring.reward_terms"),
    (engine, "decouple_invariant", "scoring.reward_terms"),
    (engine, "reward", "scoring.reward_terms"),
    (scoring.BatchScorer, "__init__", "scoring.BatchScorer"),
    (scoring.BatchScorer, "score", "scoring.score"),
    (agents.Agent, "encode_specific", "agents.encode_specific"),
    (agents.Agent, "encode_invariant", "agents.encode_invariant"),
    (agents.Agent, "propose", "agents.propose"),
    (agents.Agent, "train_step", "agents.train_step"),
    (nn.Tensor, "backward", "nn.backward"),
    (agents, "adam_step", "nn.adam_step"),
    (sdio, "write_results", "io.write_results"),
    (sdio, "read_results", "io.read_results"),
    (synth, "generate", "synth.generate"),
    (metrics, "summarize_run", "metrics.summarize_run"),
    (rca, "fault_window_scores", "rca.fault_window_scores"),
    (rca, "rank_root_causes", "rca.rank_root_causes"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans, plus the counters that need a look at arguments."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self._open: list[float] = []          # child time of each open span
        self._saved: list = []
        self.tensors = 0                      # Tensor objects built
        self.transition_tensors = 0           # ... of which by state-transition resets
        self.adam_bytes = 0
        self.records_written = 0
        self.batches_read = 0
        self.skip_calls = 0                   # process_batch calls that built no scorer
        self.skip_s = 0.0
        self.node_rss_calls = 0
        self.node_rss_distinct = 0
        self.score_distinct = 0
        self._rss_keys: set = set()
        self._dag_keys: set = set()

    # -- spans ------------------------------------------------------------------

    def _close(self, name: str, start: float):
        dur = time.perf_counter() - start
        child = self._open.pop()
        stat = self.spans[name]
        stat.calls += 1
        stat.total_s += dur
        stat.self_s += dur - child
        if self._open:
            self._open[-1] += dur

    def _span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return wrapped

    def _span_iter(self, name: str, fn):
        """A generator function: each item handed out is one span."""
        def wrapped(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    item = next(items, None)
                finally:
                    self._close(name, start)
                if item is None:
                    return
                self.batches_read += 1
                yield item
        return wrapped

    # -- counters ---------------------------------------------------------------

    def _count_tensors(self, fn):
        def wrapped(tensor, *args, **kwargs):
            self.tensors += 1
            fn(tensor, *args, **kwargs)
        return wrapped

    def _count_transition_tensors(self, fn):
        def wrapped(*args, **kwargs):
            before = self.tensors
            try:
                return fn(*args, **kwargs)
            finally:
                self.transition_tensors += self.tensors - before
        return wrapped

    def _count_skips(self, fn):
        def wrapped(*args, **kwargs):
            scorers = self.spans["scoring.BatchScorer"].calls
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.spans["scoring.BatchScorer"].calls == scorers:
                    self.skip_calls += 1
                    self.skip_s += time.perf_counter() - start
        return wrapped

    def _count_node_rss(self, fn):
        def wrapped(scorer, node, parents):
            self.node_rss_calls += 1
            key = (node, np.asarray(parents).tobytes())
            if key not in self._rss_keys:
                self._rss_keys.add(key)
                self.node_rss_distinct += 1
            return fn(scorer, node, parents)
        return wrapped

    def _count_score(self, fn):
        def wrapped(scorer, adj):
            key = np.asarray(adj).tobytes()
            if key not in self._dag_keys:
                self._dag_keys.add(key)
                self.score_distinct += 1
            return fn(scorer, adj)
        return wrapped

    def _new_batch(self, fn):
        def wrapped(*args, **kwargs):
            # distinct counts are per batch, and each batch builds one scorer
            self._rss_keys.clear()
            self._dag_keys.clear()
            return fn(*args, **kwargs)
        return wrapped

    def _count_adam(self, fn):
        def wrapped(store, *args, **kwargs):
            # reads p, grad, m, v and writes p, m, v: seven float64 passes
            touched = sum(p.data.size for p in store.params.values() if p.grad is not None)
            self.adam_bytes += 7 * 8 * touched
            return fn(store, *args, **kwargs)
        return wrapped

    def _count_records(self, fn):
        def wrapped(*args, **kwargs):
            count = fn(*args, **kwargs)
            self.records_written += count
            return count
        return wrapped

    # -- install / remove -------------------------------------------------------

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _install(self):
        self._patch(nn.Tensor, "__init__", self._count_tensors)
        self._patch(engine.OnlineEngine, "on_state_transition", self._count_transition_tensors)
        self._patch(engine.OnlineEngine, "process_batch", self._count_skips)
        self._patch(scoring.BatchScorer, "node_rss", self._count_node_rss)
        self._patch(scoring.BatchScorer, "score", self._count_score)
        self._patch(scoring.BatchScorer, "__init__", self._new_batch)
        self._patch(agents, "adam_step", self._count_adam)
        self._patch(sdio, "write_results", self._count_records)
        self._patch(sdio, "read_stream", lambda fn: self._span_iter("io.read_stream", fn))
        for owner, attr, name in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._span(name, fn))

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    @contextmanager
    def paused(self):
        """Run the block on the original functions, recording nothing."""
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    # -- readout ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name].calls

    def total_ms(self, name: str) -> float:
        return 1000.0 * self.spans[name].total_s

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.spans[name].self_s

    def ms_per_call(self, name: str, self_time: bool = False) -> float:
        stat = self.spans[name]
        if stat.calls == 0:
            return 0.0
        return 1000.0 * (stat.self_s if self_time else stat.total_s) / stat.calls
