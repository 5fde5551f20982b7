"""Stream and results file format tests."""

import io
import json

import numpy as np
import pytest

from streamdag.engine import EpisodeRecord
from streamdag.errors import SchemaError
from streamdag.io import (
    StreamBatch,
    read_results,
    read_stream,
    read_truth,
    record_to_dict,
    write_csv_stream,
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
    path = tmp_path / "s.csv"
    batches = _batches()
    write_csv_stream(batches, path)
    assert (tmp_path / "s.meta.json").exists()   # default sidecar location
    back = list(read_stream(path))
    assert all(_same(a, b) for a, b in zip(batches, back))


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
    ('{"t": 1, "l": 1, "transition": false, "x": []}', "non-empty list"),
    ('{"t": 1, "l": 1, "transition": false, "x": [[1.0], [1.0, 2.0]]}', "rectangular"),
    ('{"t": 1, "l": 1, "transition": false, "x": [["a"]]}', "numbers"),
    ('{"t": 1, "l": 1, "transition": false, "x": [[NaN]]}', "finite"),
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
    return EpisodeRecord(t=t, l=l, a_est=a, a_spec=a, a_inv=None, best_reward=-3.5,
                         xi=0.25, wall_ms=1.5, converged=False)


def test_results_roundtrip_and_flush(tmp_path):
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
    assert rows[0]["a_est"] == [[0, 1], [0, 0]]
    assert rows[0]["a_inv"] is None
    # dict input writes the same bytes as record input
    path1, path2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_results([_record(1, 1)], path1)
    write_results([record_to_dict(_record(1, 1))], path2)
    assert path1.read_bytes() == path2.read_bytes()


def test_results_validation():
    buf = io.StringIO('{"t": 1}\n')
    with pytest.raises(SchemaError) as err:
        read_results(buf)
    assert "missing key" in str(err.value)
    with pytest.raises(SchemaError):
        read_results(io.StringIO("nonsense\n"))


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
