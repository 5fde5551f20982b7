"""Command-line interface tests (in-process)."""

import io
import json

import numpy as np
import pytest

from streamdag.cli import main
from streamdag.io import read_results, read_truth, write_results, write_stream
from streamdag.metrics import auroc_score
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


def test_synth_csv_rejects_stdout(tmp_path, capsys):
    assert main(["synth", "--d=3", "--n-per-state=40", "--batch-size=20",
                 "--csv", "--out", "-",
                 "--truth", str(tmp_path / "t.json")]) == 1
    assert "sidecar" in capsys.readouterr().err


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
        est = np.asarray(finals[t]["a_est"])
        assert state["auroc"] == auroc_score(truth["adjacencies"][t - 1][off], est[off])


def test_eval_perfect_results_shows_zero_shd(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    truth = read_truth(tmp_path / "t.json")
    rows = []
    for t in (1, 2):
        rows.append({"t": t, "l": 2, "a_est": truth["adjacencies"][t - 1].tolist(),
                     "a_spec": None, "a_inv": None, "best_reward": 0.0, "xi": 1.0,
                     "wall_ms": 1.0, "converged": True})
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
    ("synth", {"csv": 1}),
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
    assert "integer bounds" in capsys.readouterr().err
