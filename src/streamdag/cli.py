"""Command-line interface.

Subcommands:
  synth  generate a synthetic stream plus its ground-truth file
  run    learn graphs online from a stream, writing one result line per batch
  eval   score a results file against ground truth, per state and averaged
  rca    rank root-cause candidates for a fault window of one state

Every flag can also be supplied through a JSON object passed via --config,
each value of its flag's type (for an untyped flag, the text it would take
on the command line); explicit command-line flags take precedence over
config-file values.
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
from .errors import ConfigError, SchemaError, StreamDagError
from .io import (
    read_json,
    read_results,
    read_stream,
    read_truth,
    write_results,
    write_stream,
    write_truth,
)
from .metrics import METRIC_COLUMNS, final_records_per_state, ranking_metrics, summarize_run
from .rca import RwrConfig, fault_window_scores, rank_root_causes
from .synth import MECHANISMS, SynthConfig, generate

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict]]:
    parser = argparse.ArgumentParser(prog="streamdag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    flags: dict[str, dict] = {}     # command -> dest -> (default, type, choices)

    def flag(p, name, *, typ=None, choices=None, default=None, helptext=""):
        dest = name.lstrip("-").replace("-", "_")
        kind = dict(action="store_const", const=True) if typ is bool else dict(type=typ, choices=choices)
        p.add_argument(name, dest=dest, default=None, help=helptext, **kind)
        flags[p.prog.split()[-1]][dest] = (default, typ, choices)

    def command(name, helptext):
        p = sub.add_parser(name, help=helptext)
        flags[name] = {}
        p.add_argument("--config", default=None,
                       help="JSON file supplying values for any flag of this command")
        return p

    p = command("synth", "generate a synthetic stream and ground truth")
    flag(p, "--d", typ=int, default=None, helptext="number of variables (required)")
    flag(p, "--m", typ=int, default=SynthConfig.m, helptext="number of system states")
    flag(p, "--e", typ=float, default=SynthConfig.e,
         helptext="percent of spurious edges injected into each non-final state")
    flag(p, "--mechanism", choices=sorted(MECHANISMS), default=SynthConfig.mechanism)
    flag(p, "--degree", typ=float, default=SynthConfig.er_expected_degree,
         helptext="expected node degree of the final DAG")
    flag(p, "--n-per-state", typ=int, default=SynthConfig.n_per_state)
    flag(p, "--batch-size", typ=int, default=SynthConfig.batch_size)
    flag(p, "--seed", typ=int, default=SynthConfig.seed)
    flag(p, "--noise-scale", typ=float, default=SynthConfig.noise_scale)
    flag(p, "--out", default="stream.jsonl",
         helptext="stream output path (CSV + sidecar if it ends in .csv), or - for stdout")
    flag(p, "--truth", default="truth.json", helptext="ground-truth output path")

    p = command("run", "learn graphs online from a stream")
    flag(p, "--stream", default="-", helptext="stream path, or - for stdin")
    flag(p, "--sidecar", default=None, helptext="row-range metadata for CSV streams")
    flag(p, "--out", default="-", helptext="results path, or - for stdout")
    flag(p, "--mode", choices=sorted(MODES), default=OnlineConfig.mode)
    flag(p, "--workers", typ=int, default=OnlineConfig.workers)
    flag(p, "--beta", typ=float, default=OnlineConfig.beta,
         helptext="fusion weight on the state-specific action")
    flag(p, "--lambda1", typ=float, default=OnlineConfig.penalty_lambda1,
         helptext="decoupling weight, state-specific reward")
    flag(p, "--lambda2", typ=float, default=OnlineConfig.penalty_lambda2,
         helptext="decoupling weight, state-invariant reward")
    flag(p, "--gamma", typ=float, default=OnlineConfig.gamma, helptext="baseline smoothing factor")
    flag(p, "--xi-threshold", typ=float, default=OnlineConfig.xi_threshold,
         helptext="early exit once xi exceeds it, i.e. once fewer than "
                  "(1 - xi_threshold) * d(d-1) / 0.98861 edge cells flip between batches")
    flag(p, "--episodes", typ=int, default=OnlineConfig.episodes_per_batch,
         helptext="training episodes per batch")
    flag(p, "--seed", typ=int, default=OnlineConfig.seed)
    flag(p, "--lr", typ=float, default=OnlineConfig.lr)
    flag(p, "--no-timing", typ=bool, default=not OnlineConfig.timing,
         helptext="write wall_ms as 0.0 for byte-stable output")

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
    flag(p, "--restart", typ=float, default=RwrConfig.restart_prob,
         helptext="restart probability of the walk")
    flag(p, "--roots", default=None, helptext="comma-separated true root nodes; enables ranking metrics")
    flag(p, "--k", default="1,3,5", helptext="comma-separated K values for PR@K and AP@K")
    flag(p, "--json", default=None, helptext="also write the rank list as JSON to this path")

    return parser, flags


def _merge_config(args: argparse.Namespace, flags: dict) -> dict:
    """Resolve flag values: explicit CLI > config file > built-in default."""
    overrides = {}
    if args.config is not None:
        doc = read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(flags)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():     # argparse's type and choices never saw these
            _, typ, choices = flags[key]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            fits = {bool: isinstance(value, bool), int: number and isinstance(value, int),
                    float: number, None: isinstance(value, str)}[typ]
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
    count = write_stream(batches, sys.stdout if out == "-" else out)
    write_truth(truth, opts["truth"])
    print(f"wrote {count} batches to {out}; truth to {opts['truth']}", file=sys.stderr)
    return 0


def _cmd_run(opts: dict) -> int:
    cfg = OnlineConfig(beta=opts["beta"], xi_threshold=opts["xi_threshold"],
                       episodes_per_batch=opts["episodes"], mode=opts["mode"],
                       workers=opts["workers"], seed=opts["seed"],
                       penalty_lambda1=opts["lambda1"], penalty_lambda2=opts["lambda2"],
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
    results = read_results(opts["results"], acyclic=True)
    truth = read_truth(opts["truth"])
    summary = summarize_run(results, truth)
    print(_format_report_table(summary))
    if opts["json"] is not None:
        Path(opts["json"]).write_text(json.dumps(summary, sort_keys=True))
    return 0


def _parse_int_list(text: str, flagname: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"--{flagname} expects comma-separated integers, got {text!r}") from None


def _parse_rows(value: str) -> tuple[int, int]:
    parts = value.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--rows expects START:STOP, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"--rows expects integer bounds, got {value!r}") from None


def _cmd_rca(opts: dict) -> int:
    _require(opts, "results", "stream", "state", "rows")
    row_start, row_stop = _parse_rows(opts["rows"])
    state = opts["state"]
    final = final_records_per_state(read_results(opts["results"], acyclic=True)).get(state)
    if final is None:
        raise ConfigError(f"results contain no records for state {state}")
    a_est = np.asarray(final["a_est"], dtype=np.int8)
    batches = list(read_stream(opts["stream"], sidecar=opts["sidecar"]))
    scores = fault_window_scores(batches, state, row_start, row_stop)
    ranked = rank_root_causes(a_est, RwrConfig(anomaly_scores=scores,
                                               restart_prob=opts["restart"]))
    doc = {
        "state": state,
        "rows": [row_start, row_stop],
        "anomaly_scores": np.asarray(scores, dtype=float).tolist(),
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
    except SystemExit as exc:         # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code == 2 else int(exc.code or 0)
    except StreamDagError as exc:     # every one is invalid input or configuration
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:          # OSError or an unexpected failure: a runtime one
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
