"""Stream and result file formats.

Streams are JSON Lines, one batch per line:

    {"t": 1, "l": 1, "transition": true, "x": [[...], ...]}

or alternatively a plain CSV of rows plus a sidecar JSON file mapping row
ranges to (t, l), checked as strictly as JSONL.  Results are JSON Lines of
per-batch estimates, flushed per line so downstream consumers can follow a
run in progress.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .graphs import matrix_to_lists


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


def _check_entry(obj, keys: set, where: int | str) -> tuple[int, int, bool]:
    """(t, l, transition) of a JSONL line or CSV sidecar entry `where`, checked."""
    if not isinstance(obj, dict):
        raise SchemaError("batch must be a JSON object", where)
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)}", where)
    t, l, transition = obj["t"], obj["l"], obj["transition"]
    for name, v in (("t", t), ("l", l)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise SchemaError(f"{name} must be an integer >= 1, got {v!r}", where)
    if not isinstance(transition, bool):
        raise SchemaError(f"transition must be a boolean, got {transition!r}", where)
    return t, l, transition


def _parse_batch(obj: dict, line_no: int) -> StreamBatch:
    t, l, transition = _check_entry(obj, {"t", "l", "transition", "x"}, line_no)
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
    return StreamBatch(t=t, l=l, transition=transition, x=mat)


def _check_order(batch: StreamBatch, prev: tuple | None, where: int | str, prev_where: str):
    if prev is not None and (batch.t, batch.l) <= prev:
        raise SchemaError(
            f"batch (t={batch.t}, l={batch.l}) is out of order after "
            f"(t={prev[0]}, l={prev[1]}) on {prev_where}",
            where,
        )


def _iter_jsonl(lines) -> "iter":
    prev = None
    prev_where = ""
    width = None
    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", line_no) from None
        batch = _parse_batch(obj, line_no)
        if width is None:
            width = batch.x.shape[1]
        elif batch.x.shape[1] != width:
            raise SchemaError(
                f"column count drifted from {width} to {batch.x.shape[1]}", line_no
            )
        _check_order(batch, prev, line_no, prev_where)
        prev = (batch.t, batch.l)
        prev_where = f"line {line_no}"
        yield batch


def _cell(text: str) -> float:
    """A CSV cell as a float, nan if it is not a number (rejected per entry)."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def _iter_csv(path: Path, sidecar: Path):
    if not sidecar.exists():
        raise SchemaError(f"sidecar metadata file not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"sidecar is not valid JSON: {exc.msg}") from None
    if not isinstance(meta, list) or not meta:
        raise SchemaError("sidecar must be a non-empty list of row-range entries")
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2, converters=_cell)
    except ValueError as exc:
        raise SchemaError(f"CSV rows must be rectangular: {exc}") from None
    prev = None
    prev_where = ""
    for entry_no, entry in enumerate(meta, start=1):
        where = f"sidecar entry {entry_no}"
        t, l, transition = _check_entry(entry, {"t", "l", "transition", "start", "stop"}, where)
        start, stop = entry["start"], entry["stop"]
        if not (isinstance(start, int) and isinstance(stop, int)
                and 0 <= start < stop <= rows.shape[0]):
            raise SchemaError(f"invalid row range [{start}, {stop})", where)
        if not np.isfinite(rows[start:stop]).all():
            raise SchemaError(f"cells in rows [{start}, {stop}) must be finite numbers", where)
        batch = StreamBatch(t=t, l=l, transition=transition, x=rows[start:stop])
        _check_order(batch, prev, where, prev_where)
        prev = (batch.t, batch.l)
        prev_where = where
        yield batch


def read_stream(source, sidecar=None):
    """Lazily yield validated StreamBatch values from JSONL, CSV, or a file object."""
    if hasattr(source, "read"):
        yield from _iter_jsonl(source)
        return
    path = Path(source)
    if path.suffix == ".csv":
        side = Path(sidecar) if sidecar is not None else path.with_suffix(".meta.json")
        yield from _iter_csv(path, side)
        return
    with path.open() as fh:
        yield from _iter_jsonl(fh)


@contextmanager
def _open(target, mode: str):
    """Yield `target` if it is already a file object, else open the path in `mode`."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with Path(target).open(mode) as fh:
            yield fh


def write_stream(batches, path) -> int:
    """Write batches as JSON Lines; returns the number written."""
    count = 0
    with _open(path, "w") as fh:
        for batch in batches:
            fh.write(json.dumps({
                "t": int(batch.t),
                "l": int(batch.l),
                "transition": bool(batch.transition),
                "x": [[float(v) for v in row] for row in np.asarray(batch.x)],
            }, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def write_csv_stream(batches, path) -> int:
    """CSV + sidecar alternative to write_stream; the sidecar is the CSV path
    with suffix .meta.json, where read_stream looks by default."""
    path = Path(path)
    meta = []
    row = 0
    count = 0
    with path.open("w") as fh:
        for batch in batches:
            x = np.asarray(batch.x)
            for r in x:
                fh.write(",".join(repr(float(v)) for v in r))
                fh.write("\n")
            meta.append({"t": int(batch.t), "l": int(batch.l),
                         "transition": bool(batch.transition),
                         "start": row, "stop": row + x.shape[0]})
            row += x.shape[0]
            count += 1
    path.with_suffix(".meta.json").write_text(json.dumps(meta, sort_keys=True))
    return count


def record_to_dict(record) -> dict:
    """JSON-ready form of one per-batch estimate record."""
    return {
        "t": int(record.t),
        "l": int(record.l),
        "a_est": matrix_to_lists(record.a_est),
        "a_spec": None if record.a_spec is None else matrix_to_lists(record.a_spec),
        "a_inv": None if record.a_inv is None else matrix_to_lists(record.a_inv),
        "best_reward": float(record.best_reward),
        "xi": float(record.xi),
        "wall_ms": float(record.wall_ms),
        "converged": bool(record.converged),
    }


def write_results(records, path) -> int:
    """One JSON line per record, flushed per line; returns the count.

    Accepts per-batch record objects or dicts already in JSON-ready form.
    """
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            if not isinstance(record, dict):
                record = record_to_dict(record)
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
            fh.flush()
            count += 1
    return count


def read_results(path) -> list[dict]:
    """Parse a results file back into dicts (adjacencies as nested lists)."""
    out = []
    with _open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line_no) from None
            for key in ("t", "l", "a_est", "best_reward", "xi", "wall_ms", "converged"):
                if key not in obj:
                    raise SchemaError(f"result record missing key {key!r}", line_no)
            out.append(obj)
    return out


def write_truth(truth, path):
    """Ground truth as one JSON document of per-state matrices and weights."""
    doc = {
        "d": int(truth.adjacencies[0].shape[0]),
        "m": len(truth.adjacencies),
        "mechanism": truth.mechanism,
        "adjacencies": [matrix_to_lists(g) for g in truth.adjacencies],
        "weights": [[[float(v) for v in row] for row in truth.weights_for(t)]
                    for t in range(1, len(truth.adjacencies) + 1)],
        "seed": int(truth.config.seed),
        "e": float(truth.config.e),
        "n_per_state": int(truth.config.n_per_state),
        "batch_size": int(truth.config.batch_size),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def read_truth(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"truth file is not valid JSON: {exc.msg}") from None
    for key in ("d", "m", "mechanism", "adjacencies"):
        if key not in doc:
            raise SchemaError(f"truth file missing key {key!r}")
    doc["adjacencies"] = [np.asarray(g, dtype=np.int8) for g in doc["adjacencies"]]
    return doc
