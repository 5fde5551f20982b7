"""Command-line interface tests (in-process)."""

import io
import json
from fractions import Fraction

import numpy as np
import pytest

from streamdag.cli import main
from streamdag.engine import OnlineConfig, OnlineEngine
from streamdag.io import (
    EpisodeRecord,
    StreamBatch,
    read_results,
    read_stream,
    read_truth,
    write_results,
    write_stream,
    write_truth,
)
from streamdag.synth import SynthConfig, generate


def _synth_args(tmp_path, seed=7, **over):
    args = {"d": 4, "m": 2, "e": 0.0, "n-per-state": 60, "batch-size": 30, "seed": seed}
    args.update(over)
    out = [f"--{k}={v}" for k, v in args.items()]
    return ["synth", *out, "--out", str(tmp_path / "s.jsonl"),
            "--truth", str(tmp_path / "t.json")]


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert main(_synth_args(a)) == 0
    assert main(_synth_args(b)) == 0
    assert (a / "s.jsonl").read_bytes() == (b / "s.jsonl").read_bytes()
    assert (a / "t.json").read_bytes() == (b / "t.json").read_bytes()


def test_synth_requires_d(tmp_path, capsys):
    assert main(["synth", "--m", "2"]) == 1
    assert "--d is required" in capsys.readouterr().err


def test_run_modes_byte_identical(tmp_path):
    assert main(_synth_args(tmp_path)) == 0
    stream = str(tmp_path / "s.jsonl")
    common = ["--stream", stream, "--episodes", "6", "--seed", "3", "--no-timing"]
    assert main(["run", *common, "--mode", "marlin",
                 "--out", str(tmp_path / "r1.jsonl")]) == 0
    assert main(["run", *common, "--mode", "marlin-m", "--workers", "1",
                 "--out", str(tmp_path / "r2.jsonl")]) == 0
    assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()


def test_run_results_carry_only_the_estimate(tmp_path):
    assert main(_synth_args(tmp_path)) == 0
    out = tmp_path / "r.jsonl"
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert sorted(json.loads(line)) == sorted(
            ["t", "l", "a_est", "best_reward", "xi", "wall_ms", "converged"])


def test_synth_stdout_pipes_into_run(tmp_path, capsys, monkeypatch):
    args = ["synth", "--d=3", "--m=2", "--e=0.0", "--n-per-state=40",
            "--batch-size=20", "--seed=5", "--out", "-",
            "--truth", str(tmp_path / "t.json")]
    assert main(args) == 0
    stream_text = capsys.readouterr().out
    assert stream_text.count("\n") == 4
    monkeypatch.setattr("sys.stdin", io.StringIO(stream_text))
    assert main(["run", "--stream", "-", "--episodes", "4",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    assert len(read_results(tmp_path / "r.jsonl")) == 4


def test_run_then_eval_pipeline(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "6",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    rows = read_results(tmp_path / "r.jsonl")
    assert len(rows) == 4
    capsys.readouterr()
    assert main(["eval", "--results", str(tmp_path / "r.jsonl"),
                 "--truth", str(tmp_path / "t.json"),
                 "--json", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "state" in out and "shd" in out and "avg" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"states", "average"}
    assert len(report["states"]) == 2


def test_eval_auroc_rates_the_emitted_estimate(tmp_path, capsys):
    assert main(_synth_args(tmp_path, seed=11)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "4",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert lines and all("edge_scores" not in json.loads(line) for line in lines)
    assert main(["eval", "--results", str(tmp_path / "r.jsonl"),
                 "--truth", str(tmp_path / "t.json"),
                 "--json", str(tmp_path / "report.json")]) == 0
    truth = read_truth(tmp_path / "t.json")
    finals = {row["t"]: row for row in read_results(tmp_path / "r.jsonl")}
    off = ~np.eye(4, dtype=bool)
    states = json.loads((tmp_path / "report.json").read_text())["states"]
    assert len(states) == 2
    for t, state in enumerate(states, start=1):
        est = np.asarray(finals[t]["a_est"])[off] == 1
        edge = np.asarray(truth["adjacencies"][t - 1])[off] == 1
        # (TPR + TNR) / 2 in exact arithmetic, rounded once
        tpr = Fraction(int((edge & est).sum()), int(edge.sum()))
        tnr = Fraction(int((~edge & ~est).sum()), int((~edge).sum()))
        assert state["auroc"] == float((tpr + tnr) / 2)


def test_eval_perfect_results_shows_zero_shd(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    truth = read_truth(tmp_path / "t.json")
    rows = [EpisodeRecord(t=t, l=2, a_est=truth["adjacencies"][t - 1], best_reward=0.0,
                          xi=1.0, wall_ms=1.0, converged=True) for t in (1, 2)]
    write_results(rows, tmp_path / "perfect.jsonl")
    assert main(["eval", "--results", str(tmp_path / "perfect.jsonl"),
                 "--truth", str(tmp_path / "t.json")]) == 0
    table = capsys.readouterr().out.splitlines()
    for line in table[1:]:
        cols = line.split()
        assert cols[5] == "0"                   # shd column
        assert cols[1] == "1.000"               # tpr column


def test_config_file_merge_and_precedence(tmp_path):
    assert main(_synth_args(tmp_path)) == 0
    stream = str(tmp_path / "s.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 5, "seed": 11, "no_timing": True}))
    r1, r2, r3 = (str(tmp_path / f"r{i}.jsonl") for i in (1, 2, 3))
    assert main(["run", "--stream", stream, "--config", str(cfg), "--out", r1]) == 0
    assert main(["run", "--stream", stream, "--episodes", "5", "--seed", "11",
                 "--no-timing", "--out", r2]) == 0
    assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()
    # explicit flag beats the config value
    assert main(["run", "--stream", stream, "--config", str(cfg), "--seed", "12",
                 "--out", r3]) == 0
    assert (tmp_path / "r1.jsonl").read_bytes() != (tmp_path / "r3.jsonl").read_bytes()


def test_flag_defaults_are_the_library_defaults(tmp_path):
    """With only the required flags, synth and run write what the library's
    default configurations give."""
    stream, truth = tmp_path / "s.jsonl", tmp_path / "t.json"
    assert main(["synth", "--d", "4", "--n-per-state", "100", "--out", str(stream),
                 "--truth", str(truth)]) == 0
    batches, want_truth = generate(SynthConfig(d=4, n_per_state=100))
    write_stream(batches, tmp_path / "want_s.jsonl")
    write_truth(want_truth, tmp_path / "want_t.json")
    assert stream.read_bytes() == (tmp_path / "want_s.jsonl").read_bytes()
    assert truth.read_bytes() == (tmp_path / "want_t.json").read_bytes()
    assert main(["run", "--stream", str(stream), "--no-timing",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    write_results(OnlineEngine(4, OnlineConfig(timing=False)).run(batches),
                  tmp_path / "want_r.jsonl")
    assert (tmp_path / "r.jsonl").read_bytes() == (tmp_path / "want_r.jsonl").read_bytes()


def test_unknown_flag_exits_1(capsys):
    assert main(["run", "--definitely-not-a-flag"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_bad_choice_exits_1(capsys):
    assert main(["run", "--mode", "turbo"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodez": 3}))
    assert main(["run", "--stream", "x", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc", [
    ("synth", {"d": "4"}),
    ("synth", {"m": "2"}),
    ("synth", {"seed": 1.5}),
    ("synth", {"batch_size": True}),
    ("run", {"episodes": "2"}),
    ("run", {"workers": 2.0, "mode": "marlin-m"}),
    ("run", {"beta": True}),
    ("run", {"no_timing": "yes"}),
    ("run", {"out": 5, "episodes": 2}),
])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, command, doc):
    """Each value would pass as a command-line flag's text; in a config file
    it must already have the flag's type."""
    if command == "synth":
        args = ["synth", "--out", str(tmp_path / "s.jsonl"), "--truth", str(tmp_path / "t.json")]
        base = {"d": 4, "n_per_state": 60, "batch_size": 30}
    else:
        assert main(_synth_args(tmp_path)) == 0
        args = ["run", "--stream", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "r.jsonl")]
        base = {"episodes": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **doc}))
    capsys.readouterr()
    assert main([*args, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(next(iter(doc))) in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["run", "--stream", str(tmp_path / "nope.jsonl")]) == 2


def test_invalid_engine_config_exits_1(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"),
                 "--mode", "marlin", "--workers", "3"]) == 1
    assert "single worker" in capsys.readouterr().err
    # a non-finite rate is rejected before any record is written
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--lr=inf",
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    assert capsys.readouterr().err == "error: lr must be in (0, inf), got inf\n"
    assert not (tmp_path / "r.jsonl").exists()
    # so is a negative or non-finite decoupling weight
    for flag, name in (("--lambda1", "penalty_lambda1"), ("--lambda2", "penalty_lambda2")):
        for value in ("-1", "nan", "inf"):
            assert main(["run", "--stream", str(tmp_path / "s.jsonl"), flag, value,
                         "--out", str(tmp_path / "r.jsonl")]) == 1
            assert capsys.readouterr().err == (f"error: {name} must be in [0, inf), "
                                               f"got {float(value)!r}\n")
            assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("route", ["synth flag", "run flag", "synth config", "run config"])
def test_negative_seed_exits_1(tmp_path, capsys, route):
    """A negative seed is invalid configuration, whether it comes as a flag
    or through a config file."""
    command, how = route.split()
    if command == "synth":
        args = _synth_args(tmp_path)
        args.remove("--seed=7")
    else:
        assert main(_synth_args(tmp_path)) == 0
        args = ["run", "--stream", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "r.jsonl")]
    if how == "flag":
        args += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}))
        args += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(args) == 1
    want = "-1" if how == "flag" else "-3"
    assert capsys.readouterr().err == f"error: seed must be in [0, inf), got {want}\n"
    assert not (tmp_path / ("s.jsonl" if command == "synth" else "r.jsonl")).exists()


def test_run_flags_reach_the_engine(tmp_path):
    """Every learning setting of run, at a value other than its default,
    gives what the engine writes with the matching OnlineConfig."""
    assert main(_synth_args(tmp_path)) == 0
    stream, out = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    assert main(["run", "--stream", str(stream), "--lambda1", "0.3",
                 "--lambda2", "0.05", "--beta", "0.7", "--gamma", "0.9", "--lr", "0.02",
                 "--xi-threshold", "0.9", "--no-timing", "--out", str(out)]) == 0
    cfg = OnlineConfig(penalty_lambda1=0.3, penalty_lambda2=0.05,
                       beta=0.7, gamma=0.9, lr=0.02, xi_threshold=0.9, timing=False)
    batches = list(read_stream(stream))
    write_results(OnlineEngine(4, cfg).run(batches), tmp_path / "want.jsonl")
    assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    write_results(OnlineEngine(4, OnlineConfig(timing=False)).run(batches),
                  tmp_path / "default.jsonl")
    assert out.read_bytes() != (tmp_path / "default.jsonl").read_bytes()


@pytest.mark.parametrize("flag,fragment", [
    ("--e=inf", "e must be in [0, inf), got inf"),
    ("--e=nan", "e must be in [0, inf), got nan"),
    ("--noise-scale=inf", "noise_scale must be in (0, inf), got inf"),
])
def test_non_finite_synth_setting_exits_1(tmp_path, capsys, flag, fragment):
    assert main([*_synth_args(tmp_path), flag]) == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


def test_noise_edges_without_room_exit_1(tmp_path, capsys):
    """At d=2 state 1 already holds the one edge a 2-node DAG allows."""
    assert main(_synth_args(tmp_path, d=2, e=1.0)) == 1
    assert capsys.readouterr().err == ("error: state 1 has room for 0 more acyclic edges, "
                                       "not the 1 noise edges asked for\n")
    assert not (tmp_path / "s.jsonl").exists()


def test_malformed_results_truth_or_config_exits_1(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    five = tmp_path / "five.json"
    five.write_text("5\n")
    results, truth = ["--results", str(tmp_path / "r.jsonl")], ["--truth", str(tmp_path / "t.json")]
    capsys.readouterr()
    assert main(["eval", "--results", str(five), *truth]) == 1
    assert "line 1: result record must be a JSON object" in capsys.readouterr().err
    assert main(["eval", *results, "--truth", str(five)]) == 1
    assert "truth file must be a JSON object" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad")
    assert main(["eval", *results, *truth, "--config", str(cfg)]) == 1
    assert "config file: invalid JSON" in capsys.readouterr().err
    cfg.write_text("[1]")
    assert main(["eval", *results, *truth, "--config", str(cfg)]) == 1
    assert "config file must hold a JSON object" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["run", "--stream", str(empty)]) == 1
    assert "stream is empty" in capsys.readouterr().err
    rca = ["rca", *results, "--stream", str(tmp_path / "s.jsonl"), "--rows", "30:60"]
    assert main([*rca, "--state", "2", "--roots", "x"]) == 1
    assert "--roots expects comma-separated integers, got 'x'" in capsys.readouterr().err
    assert main([*rca, "--state", "5"]) == 1
    assert "results contain no records for state 5" in capsys.readouterr().err


_BAD_FIELDS = {
    "a_est-x": ("a_est", "x", "a_est must be a square 0/1 matrix, got 'x'"),
    "a_est-cell-2": ("a_est", [[0, 2, 0, 0]] + [[0] * 4] * 3, "a_est must be a square 0/1 matrix"),
    "wall_ms-fast": ("wall_ms", "fast", "wall_ms must be a finite number, got 'fast'"),
    "t-string": ("t", "1", "t must be an integer >= 1, got '1'"),
    "best_reward-beyond-float-range": ("best_reward", 10**400,
                                       "best_reward must be a finite number, got 1000"),
    "a_est-2-cycle": ("a_est", [[0, 1, 0, 0], [1, 0, 0, 0]] + [[0] * 4] * 2,
                      "a_est has a directed cycle"),
}


@pytest.mark.parametrize("command", ["eval", "rca"])
@pytest.mark.parametrize("field,value,fragment", _BAD_FIELDS.values(), ids=_BAD_FIELDS)
def test_malformed_result_field_exits_1(tmp_path, capsys, command, field, value, fragment):
    """The last line, state 2's final record, carries one bad value."""
    assert main(_synth_args(tmp_path)) == 0
    results = tmp_path / "r.jsonl"
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--out", str(results)]) == 0
    lines = [json.loads(line) for line in results.read_text().splitlines()]
    lines[-1][field] = value
    results.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    argv = {"eval": ["eval", "--truth", str(tmp_path / "t.json")],
            "rca": ["rca", "--stream", str(tmp_path / "s.jsonl"), "--state", "2",
                    "--rows", "30:60"]}[command]
    assert main([*argv, "--results", str(results)]) == 1
    assert f"line 4: result record {fragment}" in capsys.readouterr().err


def test_stream_cell_beyond_float_range_or_not_a_number_exits_1(tmp_path, capsys):
    """A JSON integer too large for a float is invalid input, as 1e400 is;
    so is a string or a boolean cell."""
    for cell in ("1" + "0" * 400, "1e400", '"0.5"', "true"):
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"t": 1, "l": 1, "transition": false, "x": [[%s, 1.0], [2.0, 3.0]]}\n'
                          % cell)
        assert main(["run", "--stream", str(stream), "--episodes", "2",
                     "--out", str(tmp_path / "r.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 1: batch x must be a non-empty rectangular matrix of finite numbers")


@pytest.mark.parametrize("command,key", [("run", "lr"), ("synth", "noise_scale")])
def test_config_setting_beyond_float_range_exits_1(tmp_path, capsys, command, key):
    """An integer past float range lies inside (0, inf) as Python compares
    it, but no float holds it."""
    if command == "synth":
        args = ["synth", "--d", "4", "--out", str(tmp_path / "s.jsonl"),
                "--truth", str(tmp_path / "t.json")]
    else:
        assert main(_synth_args(tmp_path)) == 0
        args = ["run", "--stream", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "r.jsonl")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 10**400}))
    capsys.readouterr()
    assert main([*args, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be in ")


def test_eval_of_a_state_the_truth_lacks_exits_1(tmp_path, capsys):
    """Results of a 3-state run do not rate against a 2-state truth."""
    assert main(_synth_args(tmp_path, m=3)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--no-timing", "--out", str(tmp_path / "r.jsonl")]) == 0
    (tmp_path / "two").mkdir()
    assert main(_synth_args(tmp_path / "two")) == 0
    capsys.readouterr()
    assert main(["eval", "--results", str(tmp_path / "r.jsonl"),
                 "--truth", str(tmp_path / "two" / "t.json")]) == 1
    assert capsys.readouterr().err == ("error: results hold state 3, but the truth has 2 "
                                       "states\n")


def test_malformed_truth_field_exits_1(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    doc = {**json.loads((tmp_path / "t.json").read_text()), "m": "x"}
    (tmp_path / "t.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--results", str(tmp_path / "r.jsonl"),
                 "--truth", str(tmp_path / "t.json")]) == 1
    assert "truth file m must be an integer >= 1, got 'x'" in capsys.readouterr().err


def test_cyclic_truth_exits_1(tmp_path, capsys):
    """A 2-cycle planted in state 1 of a d=5 truth: SID is defined on DAGs only."""
    assert main(_synth_args(tmp_path, d=5)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    doc["adjacencies"][0][3][4] = doc["adjacencies"][0][4][3] = 1
    (tmp_path / "t.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--results", str(tmp_path / "r.jsonl"),
                 "--truth", str(tmp_path / "t.json")]) == 1
    assert "truth file adjacency of state 1 has a directed cycle" in capsys.readouterr().err


def test_csv_route_gives_the_jsonl_route_results(tmp_path, capsys):
    synth = ["synth", "--d=4", "--m=2", "--n-per-state=60", "--batch-size=30", "--seed=3"]
    assert main([*synth, "--out", str(tmp_path / "j.jsonl"),
                 "--truth", str(tmp_path / "tj.json")]) == 0
    # an out path ending in .csv gets CSV rows and the sidecar beside it
    assert main([*synth, "--out", str(tmp_path / "s.csv"),
                 "--truth", str(tmp_path / "tc.json")]) == 0
    assert (tmp_path / "s.csv").exists() and (tmp_path / "s.meta.json").exists()
    assert (tmp_path / "tc.json").read_bytes() == (tmp_path / "tj.json").read_bytes()
    run = ["run", "--episodes", "4", "--seed", "3", "--no-timing"]
    assert main([*run, "--stream", str(tmp_path / "j.jsonl"),
                 "--out", str(tmp_path / "rj.jsonl")]) == 0
    assert main([*run, "--stream", str(tmp_path / "s.csv"),
                 "--out", str(tmp_path / "rc.jsonl")]) == 0
    assert (tmp_path / "rc.jsonl").read_bytes() == (tmp_path / "rj.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["eval", "--results", str(tmp_path / "rc.jsonl"),
                 "--truth", str(tmp_path / "tc.json")]) == 0
    assert "avg" in capsys.readouterr().out
    (tmp_path / "s.meta.json").write_text("[]")
    assert main([*run, "--stream", str(tmp_path / "s.csv")]) == 1
    assert "sidecar must be a non-empty list" in capsys.readouterr().err


def test_sidecar_for_a_jsonl_stream_exits_1(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--sidecar",
                 str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert capsys.readouterr().err.endswith(
        "error: a sidecar applies to a .csv stream path only\n")
    assert not (tmp_path / "r.jsonl").exists()


def test_csv_flag_and_config_key_are_gone(tmp_path, capsys):
    """The out path's suffix picks the stream format; no flag or key does."""
    synth = ["synth", "--d=3", "--n-per-state=40", "--batch-size=20",
             "--out", str(tmp_path / "s.csv"), "--truth", str(tmp_path / "t.json")]
    assert main([*synth, "--csv"]) == 1
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"csv": True}))
    assert main([*synth, "--config", str(cfg)]) == 1
    assert "unknown config keys: ['csv']" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_score_flag_and_config_key_are_gone(tmp_path, capsys):
    """Linear BIC is the one score; no flag or key picks another."""
    assert main(_synth_args(tmp_path)) == 0
    run = ["run", "--stream", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "r.jsonl")]
    capsys.readouterr()
    assert main([*run, "--score", "linear"]) == 1
    assert "unrecognized arguments: --score linear" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"score": "linear"}))
    assert main([*run, "--config", str(cfg)]) == 1
    assert "unknown config keys: ['score']" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("key,value", [("k", [1, 3]), ("roots", [0])])
def test_config_list_for_a_text_flag_exits_1(tmp_path, capsys, key, value):
    """A config value for --k or --roots is the flag's own text, never a list."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["rca", "--results", "r", "--stream", "s", "--state", "1",
                 "--config", str(cfg)]) == 1
    assert f"config key {key!r} does not fit its flag" in capsys.readouterr().err


def test_too_little_data_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    stream, out = tmp_path / "short.jsonl", tmp_path / "short_r.jsonl"
    write_stream([StreamBatch(t=1, l=1, transition=False, x=rng.standard_normal((20, 4))),
                  StreamBatch(t=2, l=1, transition=True, x=rng.standard_normal((3, 4)))],
                 stream)
    assert main(["run", "--stream", str(stream), "--episodes", "2", "--out", str(out)]) == 1
    assert "rows" in capsys.readouterr().err
    assert [r["t"] for r in read_results(out)] == [1]       # the first state's line is kept
    assert main(_synth_args(tmp_path)) == 0
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "2",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    doc = {**json.loads((tmp_path / "t.json").read_text()), "m": 3}
    doc["adjacencies"].append(doc["adjacencies"][-1])
    (tmp_path / "t3.json").write_text(json.dumps(doc))
    results = ["--results", str(tmp_path / "r.jsonl")]
    window = ["rca", *results, "--stream", str(tmp_path / "s.jsonl"), "--state", "1"]
    capsys.readouterr()
    for argv, fragment in [
        (["eval", *results, "--truth", str(tmp_path / "t3.json")], "no records for state 3"),
        ([*window, "--rows", "1:5"], "at least 2 rows"),
        ([*window, "--rows", "30:40", "--roots", ""], "root set is empty"),
    ]:
        assert main(argv) == 1
        assert fragment in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_rca_subcommand_end_to_end(tmp_path, capsys):
    # two-state stream; fault injected into the second half of state 2
    batches, truth = generate(SynthConfig(d=4, m=2, e=0.0, n_per_state=80,
                                          batch_size=40, seed=5))
    roots = [int(np.flatnonzero(truth.adjacencies[1].sum(axis=0) == 0)[0])]
    for b in batches:
        if b.t == 2 and b.l == 2:
            b.x[:, roots[0]] *= 10.0
    write_stream(batches, tmp_path / "s.jsonl")
    assert main(["run", "--stream", str(tmp_path / "s.jsonl"), "--episodes", "8",
                 "--out", str(tmp_path / "r.jsonl")]) == 0
    capsys.readouterr()
    code = main(["rca", "--results", str(tmp_path / "r.jsonl"),
                 "--stream", str(tmp_path / "s.jsonl"), "--state", "2",
                 "--rows", "40:80", "--roots", ",".join(map(str, roots)),
                 "--json", str(tmp_path / "rca.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state"] == 2
    assert sorted(node for node, _ in doc["ranking"]) == [0, 1, 2, 3]
    assert set(doc["metrics"]) == {"pr_at", "ap_at", "mrr"}
    assert json.loads((tmp_path / "rca.json").read_text()) == doc
    for k in ("0", "-1", "1,0,3", ""):
        assert main(["rca", "--results", str(tmp_path / "r.jsonl"),
                     "--stream", str(tmp_path / "s.jsonl"), "--state", "2",
                     "--rows", "40:80", "--roots", "0", f"--k={k}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: need one or more K values" in captured.err


def test_rca_requires_window_flags(capsys):
    assert main(["rca", "--results", "r", "--stream", "s"]) == 1
    assert "required" in capsys.readouterr().err


def test_rca_bad_rows_format(tmp_path, capsys):
    assert main(["rca", "--results", "r", "--stream", "s", "--state", "1",
                 "--rows", "abc"]) == 1
    assert "START:STOP" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": ["a", "b"]}))
    assert main(["rca", "--results", "r", "--stream", "s", "--state", "1",
                 "--config", str(cfg)]) == 1
    assert "does not fit its flag" in capsys.readouterr().err
