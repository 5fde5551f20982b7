"""Ingestion robustness: a batch either yields an estimate or leaves the engine
as it was.  Regression cases for overflowing and collinear columns, and a
property test over ragged, constant and extreme-scale streams."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamdag.cli import main
from streamdag.engine import OnlineConfig, OnlineEngine
from streamdag.errors import DataRangeError, StreamDagError
from streamdag.io import StreamBatch, write_stream

from oracles import is_acyclic_dfs


def _snapshot(eng):
    """What a rejected batch must leave as it was."""
    agents = [a for a in (eng.spec, eng.inv) if a is not None]
    carry = eng.spec.carry
    return {
        "t": eng.t,
        "state_scorer": id(eng.state_scorer),
        "last": eng._last,     # the record that early exit reads; replaced, never mutated
        "carry": [c.copy() for c in carry] + [eng.spec._pending_carry is None],
        "prev_summary": eng.prev_summary.copy(),
        "params": [(a.params.data.copy(), a.params.m.copy(), a.params.v.copy(),
                    a.params.step_count, a.baseline) for a in agents],
    }


def _assert_unchanged(before, after):
    for key in ("t", "state_scorer"):
        assert before[key] == after[key], key
    assert before["last"] is after["last"]
    for a, b in zip(before["carry"], after["carry"]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(before["prev_summary"], after["prev_summary"])
    for a, b in zip(before["params"], after["params"]):
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)


def _check(rec):
    assert rec.a_est.dtype == np.int8 and np.isin(rec.a_est, (0, 1)).all()
    assert is_acyclic_dfs(rec.a_est)
    assert np.isfinite(rec.best_reward)


@pytest.mark.parametrize("scale, message", [
    (1e200, "sums of squares and products overflow"),
    (np.nan, "batch 1/1 holds non-finite values"),
    (np.inf, "batch 1/1 holds non-finite values"),
], ids=["overflow", "nan", "inf"])
def test_overflowing_first_batch_is_rejected_before_learning(scale, message):
    rng = np.random.default_rng(0)
    eng = OnlineEngine(4, OnlineConfig(episodes_per_batch=4, seed=0))
    x = rng.standard_normal((30, 4))
    x[:, 1] *= scale
    before = _snapshot(eng)
    with pytest.raises(DataRangeError, match=message):
        eng.process_batch(StreamBatch(t=1, l=1, transition=False, x=x))
    _assert_unchanged(before, _snapshot(eng))
    for l in (1, 2):
        _check(eng.process_batch(StreamBatch(t=1, l=l, transition=False,
                                             x=rng.standard_normal((30, 4)))))


@pytest.mark.parametrize("value, message", [
    (2e155, "batch 1/3: the column sums of squares overflow"),
    (np.nan, "batch 1/3 holds non-finite values"),
    (-np.inf, "batch 1/3 holds non-finite values"),
], ids=["overflow", "nan", "inf"])
def test_overflowing_batch_on_the_early_exit_path_is_rejected(value, message):
    """A converged engine scores nothing, but it checks the batch as the
    learning path does: a row's square overflows, or one cell is not finite,
    so the batch is rejected."""
    rng = np.random.default_rng(1)
    eng = OnlineEngine(3, OnlineConfig(episodes_per_batch=4, seed=0, xi_threshold=0.0))
    for l in (1, 2):
        eng.process_batch(StreamBatch(t=1, l=l, transition=False, x=rng.standard_normal((30, 3))))
    assert eng._last.converged
    x = rng.standard_normal((30, 3))
    x[0, 1] = value
    before = _snapshot(eng)
    with pytest.raises(DataRangeError, match=message):
        eng.process_batch(StreamBatch(t=1, l=3, transition=False, x=x))
    _assert_unchanged(before, _snapshot(eng))
    for t, l in ((1, 3), (2, 1), (2, 2)):
        _check(eng.process_batch(StreamBatch(t=t, l=l, transition=l == 1,
                                             x=rng.standard_normal((30, 3)))))
    assert np.isfinite(eng.prev_summary).all()


def test_constant_columns_collinear_after_a_zero_batch_are_processed():
    """Two columns at 0 in a state's first batch and constant in its second
    are collinear at a scale where the ridge falls below rounding."""
    rng = np.random.default_rng(0)
    eng = OnlineEngine(4, OnlineConfig(episodes_per_batch=16, seed=0))
    first = rng.standard_normal((6, 4))
    first[:, 2:] = 0.0
    second = rng.standard_normal((4, 4))
    second[:, 2], second[:, 3] = 3345.0, 125001.0
    for l, x in enumerate((first, second, rng.standard_normal((30, 4))), start=1):
        _check(eng.process_batch(StreamBatch(t=1, l=l, transition=False, x=x)))


def test_run_reports_an_overflowing_stream_as_invalid_input(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 3))
    x[:, 0] *= 1e200
    stream = tmp_path / "s.jsonl"
    write_stream([StreamBatch(t=1, l=1, transition=False, x=x)], str(stream))
    assert main(["run", "--stream", str(stream), "--out", str(tmp_path / "r.jsonl"),
                 "--episodes", "2"]) == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "Warning" not in err


def _column(draw, z):
    """A column of standard normal draws z made plain, constant, or scaled by
    10^k for k in [-300, 300] with an offset."""
    kind = draw(st.sampled_from(["plain", "constant", "scaled"]), label="column")
    if kind == "constant":
        return np.full_like(z, draw(st.integers(-10**6, 10**6), label="constant"))
    if kind == "scaled":
        return z * 10.0 ** draw(st.integers(-300, 300), label="k") + draw(
            st.integers(-10**6, 10**6), label="offset")
    return z


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_batch_yields_an_estimate_or_leaves_the_engine_unchanged(data):
    d = data.draw(st.integers(2, 5), label="d")
    cfg = OnlineConfig(mode=data.draw(st.sampled_from(["marlin", "marlin-s"]), label="mode"),
                       xi_threshold=data.draw(st.sampled_from([0.0, 0.5, 0.98]), label="xi"),
                       episodes_per_batch=2, seed=0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    eng = OnlineEngine(d, cfg)
    t, l = 1, 0
    for _ in range(data.draw(st.integers(1, 6), label="batches")):
        transition = l > 0 and data.draw(st.booleans(), label="transition")
        batch_t, batch_l = (t + 1, 1) if transition else (t, l + 1)
        z = rng.standard_normal((data.draw(st.integers(1, 30), label="rows"), d))
        x = np.stack([_column(data.draw, z[:, j]) for j in range(d)], axis=1)
        before = _snapshot(eng)
        try:
            rec = eng.process_batch(StreamBatch(t=batch_t, l=batch_l,
                                                transition=transition, x=x))
        except StreamDagError:
            _assert_unchanged(before, _snapshot(eng))
            continue
        _check(rec)
        # the state's scorer feeds the next state's summary
        assert np.isfinite(eng.prev_summary).all()
        assert np.isfinite(eng.state_scorer.column_moments()).all()
        t, l = batch_t, batch_l
