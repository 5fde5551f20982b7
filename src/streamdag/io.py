"""Stream and result file formats.

Streams are JSON Lines, one batch per line:

    {"t": 1, "l": 1, "transition": true, "x": [[...], ...]}

or, at a path ending in .csv, a plain CSV of rows plus a sidecar JSON list
of entries, each giving a batch's (t, l, transition) and its CSV rows
[start, stop), checked as strictly as JSONL; no range starts before the
previous one stops.  The path's suffix picks the format for writing as for
reading (_is_csv).  Both readers yield each batch with its place in the
file, and one check (_in_order) rejects, in either format, a column count
that drifts or a (t, l) that does not increase.
Results are JSON Lines of per-batch estimates (EpisodeRecord), flushed per
line so downstream consumers can follow a run in progress.

Each document's fields are declared once, in one table per document
(_ENTRY_FIELDS, _SIDECAR_FIELDS, _RECORD_FIELDS, _TRUTH_FIELDS) of field
kinds: a kind holds its test, the text naming what it wants, and its JSON
form.  _object checks a document read against its table, and _json_form
builds a stream entry or a results record from it.  Every JSON file goes
through one codec: _json parses, read_json reads a document, _json_lines
and _write_json_lines read and write JSON Lines.  The truth reader, and
the results reader when asked, reject a graph with a directed cycle, found
by _cyclic over all of a file's graphs as one stack.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path, PurePath

import numpy as np

from .errors import SchemaError
from .graphs import is_acyclic


@dataclass
class StreamBatch:
    t: int
    l: int
    transition: bool
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise SchemaError(f"batch {self.t}/{self.l}: x must be a non-empty 2-d matrix")


@dataclass
class EpisodeRecord:
    """Per-batch output of the engine.

    a_est is the estimate and best_reward the negated BIC of a_est on the
    state's rows so far (on a converged record: up to the state's last
    learning batch).  xi is the similarity between the fused DAGs of the
    best episodes of this and the state's previous learning batch: 0 on a
    state's first batch, 1 on a converged record, and otherwise
    1 - 0.98861 * flipped / (d(d-1)) for the count of off-diagonal cells
    that flipped (engine.graph_similarity).  So xi > xi_threshold means
    fewer than (1 - xi_threshold) * d(d-1) / 0.98861 cells flipped.  The
    agents' own DAGs stay in the engine (OnlineEngine.best_dags).
    """

    t: int
    l: int
    a_est: np.ndarray
    best_reward: float
    xi: float
    wall_ms: float
    converged: bool


def _is_adjacency(v, d: int | None = None) -> bool:
    """True iff v is a non-empty square nested list of 0/1 ints, d x d if d is given."""
    if not isinstance(v, list) or not v or (d is not None and len(v) != d):
        return False
    if not all(isinstance(row, list) and len(row) == len(v) for row in v):
        return False
    cells = list(chain.from_iterable(v))
    return set(map(type, cells)) == {int} and set(cells) <= {0, 1}


def matrix_to_lists(adj: np.ndarray) -> list[list[int]]:
    """Row-major nested lists of 0/1 ints, the JSON form of an adjacency."""
    return np.asarray(adj).astype(int).tolist()


# Field kinds: (test, what it wants, JSON form) per key; None leaves a value to its reader.
_INDEX = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
          "an integer >= 0", int)
_COUNT = (lambda v: _INDEX[0](v) and v >= 1, "an integer >= 1", int)
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
           "a finite number", float)
_BOOL = (lambda v: isinstance(v, bool), "a boolean", bool)
_ADJACENCY = (_is_adjacency, "a square 0/1 matrix", matrix_to_lists)
# A batch's place in the stream: the StreamBatch fields on a JSONL line or a
# CSV sidecar entry, where start and stop bound the batch's CSV rows.
_ENTRY_FIELDS = {"t": _COUNT, "l": _COUNT, "transition": _BOOL}
_SIDECAR_FIELDS = {**_ENTRY_FIELDS, "start": _INDEX, "stop": _INDEX}
# Each EpisodeRecord field on a results line.
_RECORD_FIELDS = {"t": _COUNT, "l": _COUNT, "a_est": _ADJACENCY, "best_reward": _NUMBER,
                  "xi": _NUMBER, "wall_ms": _NUMBER, "converged": _BOOL}
_TRUTH_FIELDS = {"d": _COUNT, "m": _COUNT, "mechanism": None,
                 "adjacencies": (lambda v: isinstance(v, list), "a list", list)}


def _json_form(obj, kinds: dict) -> dict:
    """Each attribute of obj that `kinds` names, in its kind's JSON form."""
    return {key: kind[2](getattr(obj, key)) for key, kind in kinds.items()}


def _object(obj, kinds: dict, what: str, where: int | str | None = None) -> dict:
    """obj, checked to be a JSON object that holds every key in `kinds`,
    each value passing its kind's test."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object", where)
    missing = kinds.keys() - obj.keys()
    if missing:
        raise SchemaError(f"{what} missing keys {sorted(missing)}", where)
    for key, kind in kinds.items():
        if kind is not None and not kind[0](obj[key]):
            raise SchemaError(f"{what} {key} must be {kind[1]}, got {reprlib.repr(obj[key])}",
                              where)
    return obj


def _parse_batch(obj: dict, line_no: int) -> StreamBatch:
    _object(obj, {**_ENTRY_FIELDS, "x": None}, "batch", line_no)
    x = obj["x"]
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise SchemaError("x must be a non-empty list of rows", line_no)
    width = len(x[0])
    if width < 1 or any(len(r) != width for r in x):
        raise SchemaError("x rows must be non-empty and rectangular", line_no)
    try:
        mat = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError("x entries must be numbers", line_no) from None
    if not np.isfinite(mat).all():
        raise SchemaError("x entries must be finite", line_no)
    return StreamBatch(**{key: obj[key] for key in _ENTRY_FIELDS}, x=mat)


@contextmanager
def _open(target, mode: str):
    """Yield `target` if it is already a file object, else open the path in `mode`."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with Path(target).open(mode) as fh:
            yield fh


def _json(text: str, where: int | str | None = None):
    """The JSON value of `text`; SchemaError at `where` if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", where) from None


def read_json(path, label: str):
    """The one JSON document in the file at `path`, named `label` in errors."""
    return _json(Path(path).read_text(), label)


def _json_lines(source):
    """(value, line number) of each non-blank line of a JSONL path or file object."""
    with _open(source, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if raw.strip():
                yield _json(raw, line_no), line_no


def _write_json_lines(docs, target) -> int:
    """Each doc as one sorted-key JSON line, flushed per line; returns the count."""
    count = 0
    with _open(target, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")
            fh.flush()
            count += 1
    return count


def _cell(text: str) -> float:
    """A CSV cell as a float, nan if it is not a number (rejected per entry)."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def _iter_csv(path: Path, sidecar: Path):
    """(batch, sidecar entry label) of each sidecar entry's CSV rows."""
    if not sidecar.exists():
        raise SchemaError(f"sidecar metadata file not found: {sidecar}")
    meta = read_json(sidecar, "sidecar")
    if not isinstance(meta, list) or not meta:
        raise SchemaError("sidecar must be a non-empty list of row-range entries")
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2, converters=_cell)
    except ValueError as exc:
        raise SchemaError(f"CSV rows must be rectangular: {exc}") from None
    prev_stop = 0
    for entry_no, entry in enumerate(meta, start=1):
        where = f"sidecar entry {entry_no}"
        _object(entry, _SIDECAR_FIELDS, "batch", where)
        start, stop = entry["start"], entry["stop"]
        if not prev_stop <= start < stop <= rows.shape[0]:
            raise SchemaError(f"invalid row range [{start}, {stop}): need "
                              f"{prev_stop} <= start < stop <= {rows.shape[0]}", where)
        prev_stop = stop
        if not np.isfinite(rows[start:stop]).all():
            raise SchemaError(f"cells in rows [{start}, {stop}) must be finite numbers", where)
        yield StreamBatch(**{key: entry[key] for key in _ENTRY_FIELDS}, x=rows[start:stop]), where


def _in_order(located):
    """The batches of (batch, where) pairs, each checked against the one
    before it: the same column count and a strictly later (t, l)."""
    prev = prev_where = None
    for batch, where in located:
        if prev is not None and batch.x.shape[1] != prev.x.shape[1]:
            raise SchemaError(
                f"column count drifted from {prev.x.shape[1]} to {batch.x.shape[1]}", where)
        if prev is not None and (batch.t, batch.l) <= (prev.t, prev.l):
            label = f"line {prev_where}" if isinstance(prev_where, int) else prev_where
            raise SchemaError(f"batch (t={batch.t}, l={batch.l}) is out of order after "
                              f"(t={prev.t}, l={prev.l}) on {label}", where)
        prev, prev_where = batch, where
        yield batch


def _is_csv(target) -> bool:
    """True iff target is a path ending in .csv: the one rule that picks a stream's format."""
    return isinstance(target, (str, PurePath)) and PurePath(target).suffix == ".csv"


def read_stream(source, sidecar=None):
    """Lazily yield validated StreamBatch values from JSONL, CSV, or a file object."""
    if _is_csv(source):
        side = Path(source).with_suffix(".meta.json") if sidecar is None else Path(sidecar)
        located = _iter_csv(Path(source), side)
    else:
        located = ((_parse_batch(obj, n), n) for obj, n in _json_lines(source))
    yield from _in_order(located)


def write_stream(batches, path) -> int:
    """Write batches as JSON Lines, or to a .csv path as CSV rows plus the
    sidecar <name>.meta.json, where read_stream looks by default; returns
    the number written."""
    if not _is_csv(path):
        return _write_json_lines(({**_json_form(batch, _ENTRY_FIELDS),
                                   "x": np.asarray(batch.x, dtype=float).tolist()}
                                  for batch in batches), path)
    path = Path(path)
    meta = []
    with path.open("w") as fh:
        for batch in batches:
            x = np.asarray(batch.x)
            for r in x:
                fh.write(",".join(repr(float(v)) for v in r))
                fh.write("\n")
            start = meta[-1]["stop"] if meta else 0
            meta.append({**_json_form(batch, _ENTRY_FIELDS), "start": start,
                         "stop": start + x.shape[0]})
    path.with_suffix(".meta.json").write_text(json.dumps(meta, sort_keys=True))
    return len(meta)


def record_to_dict(record: EpisodeRecord) -> dict:
    """JSON-ready form of one per-batch estimate record."""
    return _json_form(record, _RECORD_FIELDS)


def write_results(records, path) -> int:
    """One JSON line per EpisodeRecord, flushed per line; returns the count."""
    return _write_json_lines(map(record_to_dict, records), path)


def _cyclic(adjs) -> np.ndarray:
    """Indices of the graphs with a directed cycle in a non-empty list of
    d x d nested lists of 0/1 ints, checked as one stack."""
    cells = bytes(chain.from_iterable(chain.from_iterable(adjs)))   # half the time of np.array
    stack = np.frombuffer(cells, dtype=np.uint8).reshape(len(adjs), len(adjs[0]), -1)
    return np.flatnonzero(~is_acyclic(stack))


def read_results(path, *, acyclic: bool = False) -> list[dict]:
    """Parse a results file back into dicts (adjacencies as nested lists),
    each line checked field by field and every a_est of one size.

    With acyclic=True every a_est must also be a DAG, as eval and rca need
    (SID and the root-cause walk take DAGs).  By default a cyclic estimate
    reads back as written, so that a caller can count it as a bad record.
    """
    records, lines = [], []
    for obj, n in _json_lines(path):
        records.append(_object(obj, _RECORD_FIELDS, "result record", n))
        lines.append(n)
    adjs = [rec["a_est"] for rec in records]
    for adj, n in zip(adjs, lines):
        if len(adj) != len(adjs[0]):
            d = len(adjs[0])
            raise SchemaError(f"result record a_est must be {d} x {d} as on line {lines[0]}", n)
    if acyclic and adjs and (cyclic := _cyclic(adjs)).size:
        raise SchemaError("result record a_est has a directed cycle", lines[cyclic[0]])
    return records


def write_truth(truth, path):
    """Ground truth as one JSON document of per-state matrices and weights."""
    doc = {
        "d": int(truth.adjacencies[0].shape[0]),
        "m": len(truth.adjacencies),
        "mechanism": truth.config.mechanism,
        "adjacencies": [matrix_to_lists(g) for g in truth.adjacencies],
        "weights": [np.asarray(truth.weights_for(t), dtype=float).tolist()
                    for t in range(1, len(truth.adjacencies) + 1)],
        "seed": int(truth.config.seed),
        "e": float(truth.config.e),
        "n_per_state": int(truth.config.n_per_state),
        "batch_size": int(truth.config.batch_size),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def read_truth(path) -> dict:
    """The ground-truth document, with m acyclic d x d 0/1 adjacencies as int8 arrays."""
    doc = _object(read_json(path, "truth file"), _TRUTH_FIELDS, "truth file")
    d, m, adjs = doc["d"], doc["m"], doc["adjacencies"]
    if len(adjs) != m or not all(_is_adjacency(g, d) for g in adjs):
        raise SchemaError(f"truth file adjacencies must be m={m} {d} x {d} 0/1 matrices")
    cyclic = _cyclic(adjs)
    if cyclic.size:
        raise SchemaError(f"truth file adjacency of state {cyclic[0] + 1} has a directed cycle")
    doc["adjacencies"] = [np.asarray(g, dtype=np.int8) for g in adjs]
    return doc
