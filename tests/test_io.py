"""Stream and results file format tests."""

import io
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from streamdag.engine import EpisodeRecord
from streamdag.errors import SchemaError
from streamdag.io import (
    _ENTRY_FIELDS,
    _RECORD_FIELDS,
    StreamBatch,
    matrix_to_lists,
    read_results,
    read_stream,
    read_truth,
    record_to_dict,
    write_results,
    write_stream,
    write_truth,
)
from streamdag.synth import SynthConfig, generate


def _batches():
    rng = np.random.default_rng(0)
    return [
        StreamBatch(t=1, l=1, transition=False, x=rng.standard_normal((3, 2))),
        StreamBatch(t=1, l=2, transition=False, x=rng.standard_normal((4, 2))),
        StreamBatch(t=2, l=1, transition=True, x=rng.standard_normal((3, 2))),
    ]


def _same(a: StreamBatch, b: StreamBatch) -> bool:
    return (a.t == b.t and a.l == b.l and a.transition == b.transition
            and np.array_equal(a.x, b.x))


def test_stream_batch_validation():
    with pytest.raises(SchemaError):
        StreamBatch(t=1, l=1, transition=False, x=np.zeros(3))
    with pytest.raises(SchemaError):
        StreamBatch(t=1, l=1, transition=False, x=np.zeros((0, 2)))


def test_jsonl_roundtrip_is_identity(tmp_path):
    path = tmp_path / "s.jsonl"
    batches = _batches()
    assert write_stream(batches, path) == 3
    back = list(read_stream(path))
    assert len(back) == 3
    assert all(_same(a, b) for a, b in zip(batches, back))
    # a second write is byte-identical
    path2 = tmp_path / "s2.jsonl"
    write_stream(batches, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_jsonl_roundtrip_on_generated_stream(tmp_path):
    batches, _ = generate(SynthConfig(d=3, m=2, n_per_state=40, batch_size=20, seed=1))
    path = tmp_path / "g.jsonl"
    write_stream(batches, path)
    back = list(read_stream(path))
    assert all(_same(a, b) for a, b in zip(batches, back))


def test_csv_roundtrip(tmp_path):
    """write_stream picks CSV from a .csv path, given as a Path or a str."""
    batches = _batches()
    for path in (tmp_path / "s.csv", f"{tmp_path}/t.csv"):
        assert write_stream(batches, path) == len(batches)
        assert Path(path).with_suffix(".meta.json").exists()   # default sidecar location
        back = list(read_stream(path))
        assert len(back) == len(batches) and all(_same(a, b) for a, b in zip(batches, back))


def test_csv_missing_sidecar(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(SchemaError):
        list(read_stream(path))


def test_csv_bad_row_range(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    sidecar = tmp_path / "s.meta.json"
    sidecar.write_text(json.dumps([{"t": 1, "l": 1, "transition": False,
                                    "start": 0, "stop": 5}]))
    with pytest.raises(SchemaError):
        list(read_stream(path))


_GOOD_ENTRY = {"t": 1, "l": 1, "transition": False, "start": 0, "stop": 2}


@pytest.mark.parametrize("cell,entry,fragment", [
    ("nan", {}, "finite number"),
    ("inf", {}, "finite number"),
    ("-inf", {}, "finite number"),
    ("abc", {}, "finite number"),
    ("", {}, "finite number"),
    ("5.0", {"t": "1"}, "t must be"),
    ("5.0", {"l": 0}, "l must be"),
    ("5.0", {"transition": 1}, "transition must be"),
    ("5.0", None, "must be a JSON object"),
    ("5.0", {"t": True}, "t must be"),
    ("5.0", {"start": False, "stop": True}, "start must be"),
    ("5.0", {"start": 1}, "invalid row range [1, 4): need 2 <= start"),
])
def test_csv_entries_get_the_jsonl_checks(tmp_path, cell, entry, fragment):
    """Entry 2 of the sidecar (rows 2-3) is bad; the error names it."""
    path = tmp_path / "s.csv"
    path.write_text(f"1.0,2.0\n3.0,4.0\n5.0,{cell}\n7.0,8.0\n")
    second = [3] if entry is None else {"t": 1, "l": 2, "transition": False,
                                        "start": 2, "stop": 4, **entry}
    (tmp_path / "s.meta.json").write_text(json.dumps([_GOOD_ENTRY, second]))
    with pytest.raises(SchemaError) as err:
        list(read_stream(path))
    assert "sidecar entry 2" in str(err.value)
    assert fragment in str(err.value)


def test_csv_ragged_rows_are_a_schema_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3.0\n")
    (tmp_path / "s.meta.json").write_text(json.dumps([_GOOD_ENTRY]))
    with pytest.raises(SchemaError):
        list(read_stream(path))


def test_csv_out_of_order_error_names_both_entries(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    meta = [{**_GOOD_ENTRY, "t": 2, "stop": 1}, {**_GOOD_ENTRY, "start": 1}]
    (tmp_path / "s.meta.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError) as err:
        list(read_stream(path))
    assert str(err.value).startswith("sidecar entry 2:")
    assert str(err.value).endswith("on sidecar entry 1")


def test_file_object_source_treated_as_jsonl():
    buf = io.StringIO('{"t": 1, "l": 1, "transition": false, "x": [[1.0, 2.0]]}\n')
    back = list(read_stream(buf))
    assert len(back) == 1 and back[0].x.shape == (1, 2)


def test_blank_lines_are_skipped():
    buf = io.StringIO('\n{"t": 1, "l": 1, "transition": false, "x": [[1.0, 2.0]]}\n\n')
    assert len(list(read_stream(buf))) == 1


@pytest.mark.parametrize("line,fragment", [
    ('not json', "invalid JSON"),
    ('[1, 2]', "must be a JSON object"),
    ('{"t": 1, "l": 1, "x": [[1.0]]}', "missing keys"),
    ('{"t": 0, "l": 1, "transition": false, "x": [[1.0]]}', "t must be"),
    ('{"t": 1, "l": "a", "transition": false, "x": [[1.0]]}', "l must be"),
    ('{"t": true, "l": true, "transition": false, "x": [[1.0, 2.0]]}', "t must be"),
    ('{"t": 1, "l": 1, "transition": 1, "x": [[1.0]]}', "transition must be"),
    ('{"t": 1, "l": 1, "transition": false, "x": []}', "non-empty rectangular matrix"),
    ('{"t": 1, "l": 1, "transition": false, "x": [[1.0], [1.0, 2.0]]}', "rectangular"),
    ('{"t": 1, "l": 1, "transition": false, "x": [["a"]]}', "numbers"),
    ('{"t": 1, "l": 1, "transition": false, "x": [[NaN]]}', "finite"),
    pytest.param('{"t": 1, "l": 1, "transition": false, "x": [["0.5", "1"], ["2", "3"]]}',
                 "x must be a non-empty rectangular matrix of finite numbers, got [['0.5', '1']",
                 id="x-string-cells"),
    pytest.param('{"t": 1, "l": 1, "transition": false, "x": [[true, 1.0], [false, 2.0]]}',
                 "x must be a non-empty rectangular matrix of finite numbers, got [[True, 1.0]",
                 id="x-bool-cell"),
    pytest.param('{"t": 1, "l": 1, "transition": false, "x": [[1%s, 1.0]]}' % ("0" * 400),
                 "x must be a non-empty rectangular matrix of finite numbers",
                 id="x-int-beyond-float-range"),
])
def test_schema_errors_carry_line_numbers(line, fragment):
    good = '{"t": 1, "l": 1, "transition": false, "x": [[1.0]]}'
    buf = io.StringIO(good + "\n" + line + "\n")
    with pytest.raises(SchemaError) as err:
        list(read_stream(buf))
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_out_of_order_error_names_both_lines():
    good = '{"t": 2, "l": 1, "transition": false, "x": [[1.0]]}'
    bad = '{"t": 1, "l": 9, "transition": false, "x": [[1.0]]}'
    buf = io.StringIO(good + "\n" + bad + "\n")
    with pytest.raises(SchemaError) as err:
        list(read_stream(buf))
    msg = str(err.value)
    assert "line 2" in msg and "line 1" in msg
    assert "(t=1, l=9)" in msg and "(t=2, l=1)" in msg


def test_width_drift_error():
    a = '{"t": 1, "l": 1, "transition": false, "x": [[1.0, 2.0]]}'
    b = '{"t": 1, "l": 2, "transition": false, "x": [[1.0, 2.0, 3.0]]}'
    buf = io.StringIO(a + "\n" + b + "\n")
    with pytest.raises(SchemaError) as err:
        list(read_stream(buf))
    assert "drifted" in str(err.value)


def _record(t, l):
    a = np.array([[0, 1], [0, 0]], dtype=np.int8)
    return EpisodeRecord(t=t, l=l, a_est=a, best_reward=-3.5, xi=0.25, wall_ms=1.5,
                         converged=False)


def test_results_roundtrip_and_flush():
    class FlushCounter(io.StringIO):
        flushes = 0

        def flush(self):
            FlushCounter.flushes += 1
            super().flush()

    buf = FlushCounter()
    count = write_results([_record(1, 1), _record(1, 2)], buf)
    assert count == 2
    assert FlushCounter.flushes >= 2            # one flush per record
    buf.seek(0)
    rows = read_results(buf)
    assert [r["l"] for r in rows] == [1, 2]
    assert rows[0] == {"t": 1, "l": 1, "a_est": [[0, 1], [0, 0]], "best_reward": -3.5,
                       "xi": 0.25, "wall_ms": 1.5, "converged": False}


def test_matrix_to_lists_gives_python_ints():
    want = [[0, 1], [0, 0]]
    for adj in (np.array(want, dtype=bool), np.array(want, dtype=np.int8), np.array(want, float)):
        out = matrix_to_lists(adj)
        assert out == want and {type(v) for row in out for v in row} == {int}


def test_results_validation():
    buf = io.StringIO('{"t": 1}\n')
    with pytest.raises(SchemaError) as err:
        read_results(buf)
    assert "missing key" in str(err.value)
    with pytest.raises(SchemaError):
        read_results(io.StringIO("nonsense\n"))
    with pytest.raises(SchemaError, match="line 2: result record must be a JSON object"):
        read_results(io.StringIO(json.dumps(record_to_dict(_record(1, 1))) + "\n5\n"))


def test_every_record_field_has_a_check():
    assert list(_RECORD_FIELDS) == [f.name for f in fields(EpisodeRecord)]
    assert [*_ENTRY_FIELDS, "x"] == [f.name for f in fields(StreamBatch)]


@pytest.mark.parametrize("field,value,fragment", [
    ("t", 0, "t must be an integer >= 1, got 0"),
    ("l", True, "l must be an integer >= 1, got True"),
    ("l", 1.0, "l must be an integer >= 1"),
    ("a_est", [[0, 1]], "a_est must be a square 0/1 matrix"),
    ("a_est", [], "a_est must be a square 0/1 matrix"),
    ("a_est", [[0, True], [0, 0]], "a_est must be a square 0/1 matrix"),
    ("a_est", [[0, 1.0], [0, 0]], "a_est must be a square 0/1 matrix"),
    ("a_est", [[0, -1], [0, 0]], "a_est must be a square 0/1 matrix"),
    ("a_est", [[0, 0, 0]] * 3, "a_est must be 2 x 2 as on line 1"),
    ("best_reward", float("nan"), "best_reward must be a finite number, got nan"),
    ("xi", float("inf"), "xi must be a finite number"),
    ("xi", None, "xi must be a finite number"),
    ("wall_ms", False, "wall_ms must be a finite number"),
    ("converged", 1, "converged must be a boolean, got 1"),
])
def test_results_field_values_are_checked(field, value, fragment):
    good = record_to_dict(_record(1, 1))
    text = json.dumps(good) + "\n" + json.dumps({**good, "l": 2, field: value}) + "\n"
    with pytest.raises(SchemaError, match=f"line 2: result record {fragment}"):
        read_results(io.StringIO(text))
    # an integer is a number
    assert read_results(io.StringIO(json.dumps({**good, "best_reward": 3})))[0]["best_reward"] == 3


@pytest.mark.parametrize("a_est", [[[0, 1], [1, 0]], [[0, 0], [0, 1]]], ids=["2-cycle", "self-loop"])
def test_cyclic_estimate_is_rejected_only_when_asked(a_est):
    good = record_to_dict(_record(1, 1))
    text = json.dumps(good) + "\n" + json.dumps({**good, "l": 2, "a_est": a_est}) + "\n"
    with pytest.raises(SchemaError, match="line 2: result record a_est has a directed cycle"):
        read_results(io.StringIO(text), acyclic=True)
    assert read_results(io.StringIO(text))[1]["a_est"] == a_est
    assert len(read_results(io.StringIO(json.dumps(good)), acyclic=True)) == 1


class _FlushCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def test_json_lines_bytes_and_one_flush_per_line():
    buf = _FlushCounter()
    x = np.array([[1.5, -2.0], [0.1, 3.0]])
    assert write_stream([StreamBatch(t=1, l=2, transition=True, x=x)] * 2, buf) == 2
    line = '{"l": 2, "t": 1, "transition": true, "x": [[1.5, -2.0], [0.1, 3.0]]}\n'
    assert buf.getvalue() == line * 2 and buf.flushes == 2
    buf = _FlushCounter()
    assert write_results([_record(1, 1)] * 3, buf) == 3
    line = ('{"a_est": [[0, 1], [0, 0]], "best_reward": -3.5, "converged": false, '
            '"l": 1, "t": 1, "wall_ms": 1.5, "xi": 0.25}\n')
    assert buf.getvalue() == line * 3 and buf.flushes == 3


def test_csv_stream_bytes(tmp_path):
    x = np.array([[1.5, -2.0], [0.1, 3.0]])
    batches = [StreamBatch(t=1, l=2, transition=True, x=x),
               StreamBatch(t=np.int64(2), l=np.int64(1), transition=np.bool_(False), x=x[:1])]
    assert write_stream(batches, tmp_path / "s.csv") == 2
    assert (tmp_path / "s.csv").read_text() == "1.5,-2.0\n0.1,3.0\n1.5,-2.0\n"
    assert (tmp_path / "s.meta.json").read_text() == (
        '[{"l": 2, "start": 0, "stop": 2, "t": 1, "transition": true}, '
        '{"l": 1, "start": 2, "stop": 3, "t": 2, "transition": false}]')


def test_truth_roundtrip(tmp_path):
    _, truth = generate(SynthConfig(d=3, m=2, n_per_state=20, batch_size=10, seed=2))
    path = tmp_path / "t.json"
    write_truth(truth, path)
    doc = read_truth(path)
    assert doc["d"] == 3 and doc["m"] == 2
    assert all(np.array_equal(a, b) for a, b in zip(doc["adjacencies"], truth.adjacencies))
    assert np.allclose(np.asarray(doc["weights"][1]), truth.weights_for(2))


def test_truth_validation(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("{}")
    with pytest.raises(SchemaError):
        read_truth(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        read_truth(path)
    path.write_text("5")
    with pytest.raises(SchemaError, match="truth file must be a JSON object"):
        read_truth(path)


@pytest.mark.parametrize("change,fragment", [
    ({"m": "x"}, "truth file m must be an integer >= 1, got 'x'"),
    ({"d": 2.5}, "truth file d must be an integer >= 1"),
    ({"adjacencies": {}}, "truth file adjacencies must be a list"),
    ({"m": 3}, "adjacencies must be m=3 3 x 3 0/1 matrices"),
    ({"d": 4}, "adjacencies must be m=2 4 x 4 0/1 matrices"),
    ({"adjacencies": [[[0, 2, 0], [0, 0, 0], [0, 0, 0]]] * 2}, "0/1 matrices"),
    ({"adjacencies": [[[0, 0, 0]] * 3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]},
     "truth file adjacency of state 2 has a directed cycle"),
    ({"adjacencies": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0]] * 3]},
     "truth file adjacency of state 1 has a directed cycle"),
])
def test_truth_field_values_are_checked(tmp_path, change, fragment):
    _, truth = generate(SynthConfig(d=3, m=2, n_per_state=20, batch_size=10, seed=2))
    path = tmp_path / "t.json"
    write_truth(truth, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(SchemaError, match=re.escape(fragment)):
        read_truth(path)
