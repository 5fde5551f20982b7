"""Command-line interface.

Subcommands:
  synth  generate a synthetic stream plus its ground-truth file
  run    learn graphs online from a stream, writing one result line per batch
  eval   score a results file against ground truth, per state and averaged
  rca    rank root-cause candidates for a fault window of one state

Every flag can also be supplied through a JSON object passed via --config;
explicit command-line flags take precedence over config-file values.
Exit codes: 0 success, 1 invalid input or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .engine import MODES, OnlineConfig, OnlineEngine
from .errors import (
    ConfigError,
    DataRangeError,
    DimensionMismatchError,
    InvalidActionError,
    SchemaError,
    StreamDagError,
)
from .io import (
    read_results,
    read_stream,
    read_truth,
    write_csv_stream,
    write_results,
    write_stream,
    write_truth,
)
from .metrics import METRIC_COLUMNS, ranking_metrics, summarize_run
from .rca import RwrConfig, fault_window_scores, rank_root_causes
from .scoring import BACKENDS, ScoreConfig
from .synth import MECHANISMS, SynthConfig, generate

# Untyped flags take a str; these also take the list their parser accepts.
_LIST_FLAGS = ("rows", "k", "roots")


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> tuple[_Parser, dict[str, dict]]:
    parser = _Parser(prog="streamdag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    flags: dict[str, dict] = {}     # command -> dest -> (default, type, choices)

    def flag(p, name, *, typ=None, choices=None, default=None, helptext=""):
        dest = name.lstrip("-").replace("-", "_")
        if typ is bool:
            p.add_argument(name, dest=dest, action="store_const", const=True,
                           default=None, help=helptext)
        else:
            p.add_argument(name, dest=dest, type=typ, choices=choices,
                           default=None, help=helptext)
        flags[p.prog.split()[-1]][dest] = (default, typ, choices)

    def command(name, helptext):
        p = sub.add_parser(name, help=helptext)
        flags[name] = {}
        p.add_argument("--config", default=None,
                       help="JSON file supplying values for any flag of this command")
        return p

    p = command("synth", "generate a synthetic stream and ground truth")
    flag(p, "--d", typ=int, default=None, helptext="number of variables (required)")
    flag(p, "--m", typ=int, default=2, helptext="number of system states")
    flag(p, "--e", typ=float, default=0.0,
         helptext="percent of spurious edges injected into each non-final state")
    flag(p, "--mechanism", choices=sorted(MECHANISMS), default="LG")
    flag(p, "--degree", typ=float, default=4.0, helptext="expected node degree of the final DAG")
    flag(p, "--n-per-state", typ=int, default=500)
    flag(p, "--batch-size", typ=int, default=50)
    flag(p, "--seed", typ=int, default=0)
    flag(p, "--noise-scale", typ=float, default=1.0)
    flag(p, "--out", default="stream.jsonl", helptext="stream output path, or - for stdout")
    flag(p, "--truth", default="truth.json", helptext="ground-truth output path")
    flag(p, "--csv", typ=bool, default=False, helptext="write CSV + sidecar instead of JSONL")

    p = command("run", "learn graphs online from a stream")
    flag(p, "--stream", default="-", helptext="stream path, or - for stdin")
    flag(p, "--sidecar", default=None, helptext="row-range metadata for CSV streams")
    flag(p, "--out", default="-", helptext="results path, or - for stdout")
    flag(p, "--mode", choices=sorted(MODES), default="marlin")
    flag(p, "--workers", typ=int, default=1)
    flag(p, "--beta", typ=float, default=0.5, helptext="fusion weight on the state-specific action")
    flag(p, "--lambda1", typ=float, default=0.1, helptext="decoupling weight, state-specific reward")
    flag(p, "--lambda2", typ=float, default=0.1, helptext="decoupling weight, state-invariant reward")
    flag(p, "--gamma", typ=float, default=0.99, helptext="baseline smoothing factor")
    flag(p, "--xi-threshold", typ=float, default=0.98, helptext="convergence early-exit threshold")
    flag(p, "--episodes", typ=int, default=64, helptext="training episodes per batch")
    flag(p, "--seed", typ=int, default=0)
    flag(p, "--score", choices=sorted(BACKENDS), default="linear", helptext="regression family for the fit score")
    flag(p, "--lr", typ=float, default=0.01)
    flag(p, "--no-timing", typ=bool, default=False, helptext="write wall_ms as 0.0 for byte-stable output")

    p = command("eval", "score results against ground truth")
    flag(p, "--results", default=None, helptext="results file from `run` (required)")
    flag(p, "--truth", default=None, helptext="ground-truth file from `synth` (required)")
    flag(p, "--json", default=None, helptext="also write the report as JSON to this path")

    p = command("rca", "rank root causes for a fault window")
    flag(p, "--results", default=None, helptext="results file from `run` (required)")
    flag(p, "--stream", default=None, helptext="stream file containing the fault (required)")
    flag(p, "--sidecar", default=None)
    flag(p, "--state", typ=int, default=None, helptext="state index containing the fault (required)")
    flag(p, "--rows", default=None, helptext="fault row range within the state, START:STOP (required)")
    flag(p, "--restart", typ=float, default=0.3, helptext="restart probability of the walk")
    flag(p, "--roots", default=None, helptext="comma-separated true root nodes; enables ranking metrics")
    flag(p, "--k", default="1,3,5", helptext="comma-separated K values for PR@K and AP@K")
    flag(p, "--json", default=None, helptext="also write the rank list as JSON to this path")

    return parser, flags


def _merge_config(args: argparse.Namespace, flags: dict) -> dict:
    """Resolve flag values: explicit CLI > config file > built-in default."""
    overrides = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc.msg}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(flags)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():     # argparse's type and choices never saw these
            _, typ, choices = flags[key]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            text = isinstance(value, str) or (key in _LIST_FLAGS and isinstance(value, list))
            fits = {bool: isinstance(value, bool), int: number and isinstance(value, int),
                    float: number, None: text}[typ]
            if not fits or (choices is not None and value not in choices):
                raise ConfigError(f"config key {key!r} does not fit its flag: {value!r}")
        overrides = doc
    resolved = {}
    for key, (default, _, _) in flags.items():
        value = getattr(args, key)
        if value is None:
            value = overrides.get(key, default)
        resolved[key] = value
    return resolved


def _require(opts: dict, *names: str):
    for name in names:
        if opts[name] is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _cmd_synth(opts: dict) -> int:
    _require(opts, "d")
    cfg = SynthConfig(d=opts["d"], m=opts["m"], e=opts["e"], mechanism=opts["mechanism"],
                      er_expected_degree=opts["degree"], n_per_state=opts["n_per_state"],
                      batch_size=opts["batch_size"], seed=opts["seed"],
                      noise_scale=opts["noise_scale"])
    batches, truth = generate(cfg)
    out = opts["out"]
    if opts["csv"]:
        if out == "-":
            raise ConfigError("--csv needs a file path for the sidecar, not -")
        if not str(out).endswith(".csv"):
            out = str(Path(out).with_suffix(".csv"))
        count = write_csv_stream(batches, out)
    else:
        sink = sys.stdout if out == "-" else out
        count = write_stream(batches, sink)
    write_truth(truth, opts["truth"])
    print(f"wrote {count} batches to {out}; truth to {opts['truth']}", file=sys.stderr)
    return 0


def _cmd_run(opts: dict) -> int:
    score = ScoreConfig(backend=opts["score"], penalty_lambda1=opts["lambda1"],
                        penalty_lambda2=opts["lambda2"])
    cfg = OnlineConfig(beta=opts["beta"], xi_threshold=opts["xi_threshold"],
                       episodes_per_batch=opts["episodes"], mode=opts["mode"],
                       workers=opts["workers"], seed=opts["seed"], score=score,
                       lr=opts["lr"], gamma=opts["gamma"], timing=not opts["no_timing"])
    source = sys.stdin if opts["stream"] == "-" else opts["stream"]
    batches = read_stream(source, sidecar=opts["sidecar"])
    first = next(iter(batches), None)
    if first is None:
        raise SchemaError("stream is empty")
    engine = OnlineEngine(d=first.x.shape[1], cfg=cfg)
    records = engine.run(chain([first], batches))
    sink = sys.stdout if opts["out"] == "-" else opts["out"]
    count = write_results(records, sink)
    print(f"processed {count} batches", file=sys.stderr)
    return 0


def _format_report_table(summary: dict) -> str:
    rows = []
    for i, state in enumerate(summary["states"], start=1):
        rows.append((str(i), state))
    rows.append(("avg", summary["average"]))
    header = f"{'state':>5}" + "".join(f"{c:>9}" for c in METRIC_COLUMNS)
    lines = [header]
    for label, rep in rows:
        cells = []
        for c in METRIC_COLUMNS:
            v = rep[c]
            if c in ("shd", "sid") and float(v).is_integer():
                cells.append(f"{int(v):>9d}")
            elif c == "atb_ms":
                cells.append(f"{v:>9.2f}")
            else:
                cells.append(f"{v:>9.3f}")
        lines.append(f"{label:>5}" + "".join(cells))
    return "\n".join(lines)


def _cmd_eval(opts: dict) -> int:
    _require(opts, "results", "truth")
    results = read_results(opts["results"])
    truth = read_truth(opts["truth"])
    summary = summarize_run(results, truth)
    print(_format_report_table(summary))
    if opts["json"] is not None:
        Path(opts["json"]).write_text(json.dumps(summary, sort_keys=True))
    return 0


def _parse_int_list(text, flagname: str) -> list[int]:
    parts = text if isinstance(text, list) else str(text).split(",")
    try:
        return [int(part) for part in parts if part != ""]
    except (TypeError, ValueError):
        raise ConfigError(f"--{flagname} expects comma-separated integers, got {text!r}") from None


def _parse_rows(value) -> tuple[int, int]:
    parts = value if isinstance(value, list) else str(value).split(":")
    if len(parts) != 2:
        raise ConfigError(f"--rows expects START:STOP, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except (TypeError, ValueError):
        raise ConfigError(f"--rows expects integer bounds, got {value!r}") from None


def _cmd_rca(opts: dict) -> int:
    _require(opts, "results", "stream", "state", "rows")
    row_start, row_stop = _parse_rows(opts["rows"])
    state = opts["state"]
    finals = [r for r in read_results(opts["results"]) if r["t"] == state]
    if not finals:
        raise ConfigError(f"results contain no records for state {state}")
    a_est = np.asarray(max(finals, key=lambda r: r["l"])["a_est"], dtype=np.int8)
    batches = list(read_stream(opts["stream"], sidecar=opts["sidecar"]))
    scores = fault_window_scores(batches, state, row_start, row_stop)
    ranked = rank_root_causes(a_est, RwrConfig(anomaly_scores=scores,
                                               restart_prob=opts["restart"]))
    doc = {
        "state": state,
        "rows": [row_start, row_stop],
        "anomaly_scores": [float(v) for v in scores],
        "ranking": [[node, score] for node, score in ranked],
    }
    if opts["roots"] is not None:
        roots = _parse_int_list(opts["roots"], "roots")
        ks = _parse_int_list(opts["k"], "k")
        report = ranking_metrics([node for node, _ in ranked], roots, ks)
        doc["metrics"] = report.as_dict()
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    if opts["json"] is not None:
        Path(opts["json"]).write_text(text)
    return 0


_COMMANDS = {"synth": _cmd_synth, "run": _cmd_run, "eval": _cmd_eval, "rca": _cmd_rca}


def main(argv=None) -> int:
    parser, flags = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        opts = _merge_config(args, flags[args.command])
        return _COMMANDS[args.command](opts)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, SchemaError, DimensionMismatchError, InvalidActionError,
            DataRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except StreamDagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface unexpected failures as runtime errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
