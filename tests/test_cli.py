"""CLI: subcommand wiring, artifacts on disk, exit codes."""

import argparse
import dataclasses
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from loopseq import cli, report
from loopseq import train as train_mod
from loopseq.cli import build_parser, main
from loopseq.data import CANONICAL, synth_sine_task, write_ts
from loopseq.errors import DataError
from loopseq.report import ExperimentPlan, read_results
from loopseq.reshape import reshape_forward
from loopseq.train import TrainConfig
from loopseq.verify import AuditReport, CheckResult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parser_lists_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"train", "grid", "verify", "reshape-stats", "report"}


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--dataset",
            "synth",
            "--pattern",
            "2,1",
            "--hidden",
            "6",
            "--state",
            "4",
            "--max-epochs",
            "1",
            "--batch-size",
            "128",
            "--lr",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    run = json.loads((out / "run.json").read_text())
    assert run["epochs_run"] == 1
    assert (out / "run.log.jsonl").exists()
    assert "best_val=" in capsys.readouterr().out


def test_grid_single_cell(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(
        [
            "grid",
            "--dataset",
            "synth",
            "--pattern",
            "2,1",
            "--hidden",
            "6",
            "--state",
            "4",
            "--max-epochs",
            "1",
            "--batch-size",
            "128",
            "--lrs",
            "0.01",
            "--seeds",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    grid = json.loads((out / "grid.json").read_text())
    assert grid["chosen_lr"] == 0.01
    assert "chosen lr=0.01" in capsys.readouterr().out


def test_grid_single_cell_failed_run_exits_1(tmp_path, capsys, monkeypatch):
    # every run raises: each failure is reported, and no grid.json is written
    def failing_run(config, dataset, **kwargs):
        raise DataError(f"planted failure at seed {config.seed}")

    monkeypatch.setattr(train_mod, "train_one", failing_run)
    out = tmp_path / "grid"
    assert main(["grid", "--lrs", "0.01", "--seeds", "0,1", "--max-epochs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failed: lr=0.01 seed=0: DataError" in err and "failed: lr=0.01 seed=1: DataError" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["grid", "train"])
def test_corpus_too_small_to_split_exits_2_before_any_run(tmp_path, capsys, caplog, monkeypatch, command):
    tiny = synth_sine_task(n=3, steps=8)
    base = tmp_path / "EthanolConcentration"
    base.mkdir()
    write_ts(base / "EthanolConcentration_TRAIN.ts", tiny.subset(np.arange(2)), "EthanolConcentration")
    write_ts(base / "EthanolConcentration_TEST.ts", tiny.subset(np.arange(2, 3)), "EthanolConcentration")

    def no_training(*args, **kwargs):
        raise AssertionError("training started on a corpus too small to split")

    monkeypatch.setattr(cli, "train_one", no_training)
    monkeypatch.setattr(train_mod, "train_one", no_training)
    argv = [command, "--dataset", "Ethanol", "--data-dir", str(tmp_path), "--max-epochs", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset 'Ethanol': need at least 4 examples to split, got 3")
    assert "Traceback" not in err and not [r for r in caplog.records if r.exc_info]


def test_grid_plan_file(tmp_path, capsys):
    plan = {
        "datasets": ["synth"],
        "archs": ["LRU"],
        "patterns": ["AAAAAA", "ABCDEF"],
        "supervisions": ["final"],
        "lrs": [0.01],
        "seeds": [0],
        "out_dir": str(tmp_path / "res"),
        "max_epochs": 1,
        "batch_size": 128,
        "hidden": 6,
        "state": 4,
        "synth": {"n": 60, "steps": 12, "width": 2, "n_classes": 2, "noise": 0.1, "seed": 0},
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["grid", "--plan", str(plan_path)]) == 0
    assert (tmp_path / "res" / "results.csv").exists()
    assert (tmp_path / "res" / "results.md").exists()


def test_reshape_stats_canonical_instances(capsys, tmp_path):
    out = tmp_path / "stats.csv"
    code = main(["reshape-stats", "--dataset", "all", "--concentration", "8", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert len(lines) == 7  # header + six corpora
    assert any("Ethanol\t1751\t2" in ln and "\t438\t" in ln for ln in lines)
    assert any("Heartbeat\t405\t61" in ln and "\t3089\t" in ln for ln in lines)
    assert out.exists() and out.read_text().count("\n") == 7


def test_reshape_stats_rows_and_pad_are_what_a_run_feeds(capsys, tmp_path):
    """The table's rows and pad are the shape `reshape_forward` returns, at c = 1 too."""
    import csv

    out = tmp_path / "stats.csv"
    assert main(["reshape-stats", "--dataset", "all", "--concentration", "1,8,16", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        table = {(r["dataset"], int(r["concentration"])): r for r in csv.DictReader(fh)}
    assert len(table) == 3 * len(CANONICAL)
    for name, meta in CANONICAL.items():
        T, w = meta["steps"], meta["width"]
        for c in (1, 8, 16):
            y = reshape_forward(np.zeros((T, w)), c)
            row = table[(name, c)]
            assert int(row["rows"]) == y.shape[0], (name, c)
            assert int(row["pad"]) == y.size - T * w, (name, c)


def test_reshape_stats_unknown_dataset():
    assert main(["reshape-stats", "--dataset", "Nope"]) == 2


def test_report_roundtrip(tmp_path, capsys):
    import csv

    from loopseq.report import CSV_COLUMNS

    res = tmp_path / "res"
    res.mkdir()
    row = {
        "dataset": "synth",
        "arch": "LRU",
        "pattern": "ABCDEF",
        "supervision": "final",
        "concentration": "1",
        "mean_acc": "0.750000",
        "std_acc": "0.010000",
        "n_params": "100",
        "seconds": "1.0",
        "lr": "0.001",
        "seed_accs": "0.74;0.75;0.76",
        "diverged_seeds": "",
        "error": "",
    }
    with open(res / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(row)
    assert main(["report", "--results", str(res)]) == 0
    assert "75.00" in (res / "results.md").read_text()
    assert main(["report", "--results", str(tmp_path / "nowhere")]) == 2


def test_report_renders_old_format_csv(tmp_path):
    # a results.csv written before the `error` column replaced the config hash
    res = tmp_path / "res"
    res.mkdir()
    (res / "results.csv").write_text(
        "dataset,arch,pattern,supervision,concentration,mean_acc,std_acc,n_params,seconds,lr,"
        "seed_accs,diverged_seeds,config_hash\n"
        "synth,LRU,ABCDEF,final,1,0.700000,0.010000,100,1.00,0.001,0.69;0.71,,abcd1234\n"
        "synth,LRU,AAAAAA,final,1,0.750000,0.010000,100,1.00,0.001,0.74;0.76,,0123abcd\n"
    )
    assert main(["report", "--results", str(res)]) == 0
    assert "| synth | LRU | 70.00 ± 1.00 | **75.00 ± 1.00** |" in (res / "results.md").read_text()


def test_grid_plan_with_failed_cells_exits_1(tmp_path, capsys):
    # at lr = 100 every LRU run diverges while LinOSS trains on
    plan = {
        "datasets": ["synth"],
        "archs": ["LRU", "LinOSS"],
        "patterns": ["AAAAAA", "ABCDEF"],
        "supervisions": ["final"],
        "lrs": [100.0],
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "res"),
        "max_epochs": 2,
        "batch_size": 16,
        "hidden": 6,
        "state": 4,
        "synth": {"n": 60, "steps": 12, "width": 2, "n_classes": 2, "noise": 0.1, "seed": 0},
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["grid", "--plan", str(plan_path)]) == 1
    rows = read_results(tmp_path / "res")
    assert [(r["arch"], r["pattern"]) for r in rows] == [
        ("LRU", "AAAAAA"), ("LRU", "ABCDEF"), ("LinOSS", "AAAAAA"), ("LinOSS", "ABCDEF")
    ]
    for row in rows[:2]:
        assert row["error"].startswith("AggregationError: every run in the grid diverged")
        assert row["mean_acc"] == ""
    for row in rows[2:]:
        assert row["error"] == "" and 0.0 <= float(row["mean_acc"]) <= 1.0
    assert "| synth | LRU | failed | failed |" in (tmp_path / "res" / "results.md").read_text()
    err = capsys.readouterr().err
    assert "failed: synth/LRU/AAAAAA/final/c1: AggregationError" in err
    assert "failed: synth/LRU/ABCDEF/final/c1" in err and "LinOSS" not in err


def test_missing_dataset_is_actionable(tmp_path, capsys):
    code = main(
        ["train", "--dataset", "Heartbeat", "--data-dir", str(tmp_path), "--max-epochs", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "Heartbeat.zip" in err and "timeseriesclassification.com" in err


def _stub_run_all(monkeypatch, results):
    """Replace the audit suite with a canned report; returns the recorded `fast` flags."""
    calls = []

    def run_all(fast=False):
        calls.append(fast)
        return AuditReport(results)

    monkeypatch.setattr(cli, "run_all", run_all)
    return calls


def test_verify_fast_passes(tmp_path, capsys, monkeypatch):
    # the suite itself runs once, in tests/test_verify.py; this checks the wiring
    calls = _stub_run_all(monkeypatch, [CheckResult("unit/ok", True, 0.0, 0.01, {})])
    out = tmp_path / "audit.json"
    code = main(["verify", "--fast", "--out", str(out)])
    assert code == 0
    assert calls == [True]
    assert json.loads(out.read_text())["passed"] is True
    text = capsys.readouterr().out
    assert "1/1 checks passed" in text and "[PASS] unit/ok" in text


def test_verify_failure_exits_1(capsys, monkeypatch):
    ok = CheckResult("unit/ok", True, 0.0, 0.01, {})
    bad = CheckResult("unit/bad", False, 2.0, 0.01, {})
    calls = _stub_run_all(monkeypatch, [ok, bad])
    assert main(["verify"]) == 1
    assert calls == [False]
    text = capsys.readouterr().out
    assert "[FAIL] unit/bad" in text and "(1 FAILED)" in text


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "--pattern", "6,x", "--max-epochs", "1"], "pattern pair"),
        (["grid", "--lrs", ""], "--lrs"),
        (["grid", "--seeds", ""], "--seeds"),
        (["grid", "--seeds", "0,x"], "--seeds"),
        (["grid", "--seeds", "0,1,0"], "--seeds repeats a value"),
        (["grid", "--lrs", "0.01,1e-2"], "--lrs repeats a value"),
        (["reshape-stats", "--concentration", ""], "--concentration"),
        (["reshape-stats", "--concentration", "1.5"], "--concentration"),
        (["train", "--clip-norm", "-1", "--max-epochs", "1"], "clip_norm"),
        (["train", "--clip-norm", "nan", "--max-epochs", "1"], "clip_norm"),
        (["grid", "--clip-norm", "inf", "--max-epochs", "1"], "clip_norm"),
        (["train", "--hidden", "0", "--max-epochs", "1"], "hidden must be >= 1, got 0"),
        (["train", "--state", "-1", "--max-epochs", "1"], "state must be >= 1, got -1"),
        (["grid", "--workers", "0", "--max-epochs", "1"], "--workers must be >= 1"),
        (["grid", "--workers", "-1", "--max-epochs", "1"], "--workers must be >= 1"),
        (["grid", "--arch", "Foo", "--max-epochs", "1"], "unknown arch 'Foo'"),
        (["grid", "--concentration", "0", "--max-epochs", "1"], "concentration must be >= 1"),
        (["grid", "--seeds=-1", "--max-epochs", "1"], "seed must be >= 0, got -1"),
        (["train", "--seed=-1", "--max-epochs", "1"], "seed must be >= 0, got -1"),
        (["grid", "--max-epochs", "0"], "--max-epochs must be >= 1 for a grid, got 0"),
        (["train", "--supervision", "x", "--max-epochs", "1"], "unknown supervision 'x'"),
    ],
    ids=[
        "pattern-not-int",
        "empty-lrs",
        "empty-seeds",
        "seed-not-int",
        "repeated-seeds",
        "repeated-lrs",
        "empty-factors",
        "factor-not-int",
        "negative-clip-norm",
        "nan-clip-norm",
        "inf-clip-norm",
        "zero-hidden",
        "negative-state",
        "zero-workers",
        "negative-workers",
        "unknown-arch",
        "zero-concentration",
        "negative-grid-seed",
        "negative-train-seed",
        "zero-grid-epochs",
        "unknown-supervision",
    ],
)
def test_bad_input_exits_2(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_grid_whose_every_run_diverged_exits_1(tmp_path, capsys, monkeypatch):
    # once an exit 2, the code of a refusal before any run, though every run had trained
    monkeypatch.setattr(report, "synth_sine_task", functools.partial(synth_sine_task, n=8, steps=10))
    out = tmp_path / "grid"
    argv = ["grid", "--lrs", "1e308", "--seeds", "0", "--max-epochs", "1", "--hidden", "4", "--state", "4"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failed: AggregationError: every run in the grid diverged" in err
    assert not out.exists()


def test_run_flag_defaults_are_train_config_defaults():
    parser = build_parser()
    default = TrainConfig()
    for command in ("train", "grid"):
        args = parser.parse_args([command])
        for f in dataclasses.fields(TrainConfig):
            if hasattr(args, f.name):  # grid sweeps lr and seed with --lrs and --seeds
                assert getattr(args, f.name) == getattr(default, f.name), (command, f.name)
    assert cli._config_from(parser.parse_args(["train"])) == default
    plan = ExperimentPlan(
        datasets=["synth"], archs=["LRU"], patterns=["AA"], supervisions=["final"], lrs=[0.01], seeds=[0], out_dir="out"
    )
    for f in dataclasses.fields(TrainConfig):
        if hasattr(plan, f.name):
            assert getattr(plan, f.name) == getattr(default, f.name), f.name


@pytest.mark.parametrize(
    "content,message",
    [
        ("{not json", "cannot read plan"),
        ("[1, 2]", "JSON object"),
        (dict(seeds=3), "'seeds' must be a list"),
        (dict(concentrations=2), "'concentrations' must be a list"),
        (dict(lrs="0.1"), "'lrs' must be a list"),
        (dict(archs="LRU"), "'archs' must be a list"),
        (dict(seeds=[0, "1"]), "'seeds' must be a list of integers"),
        (dict(regime="auto"), "unknown plan fields: ['regime']"),
        (dict(batch_size="32"), "batch_size must be an integer, got '32'"),
        (dict(patience=False), "patience must be an integer, got False"),
        (dict(out_dir=3), "plan field 'out_dir' must be a string, got 3"),
        (dict(synth=[1]), "plan field 'synth' must be an object, got [1]"),
        (dict(synth={"bogus": 1}), "unknown synth keys ['bogus']"),
        (dict(seeds=[0, 0]), "plan field 'seeds' must be non-empty without repeats, got [0, 0]"),
        (dict(patterns=["AAAAAA", "6,1"]), "plan field 'patterns' names one pattern twice"),
        (dict(hidden=0), "hidden must be >= 1, got 0"),
        (dict(state=-1), "state must be >= 1, got -1"),
        (dict(seeds=[-1]), "seed must be >= 0, got -1"),
        (dict(synth={"n": "46"}), "synth 'n' must be an integer >= 1, got '46'"),
        (dict(synth={"noise": "x"}), "synth 'noise' must be a number >= 0.0, got 'x'"),
        (dict(synth={"n": 2}), "synth 'n': need at least 4 examples to split, got 2"),
        (dict(synth={"n_classes": 1}), "synth 'n_classes' must be an integer >= 2, got 1"),
        (dict(synth={"width": 0}), "synth 'width' must be an integer >= 1, got 0"),
        (dict(synth={"steps": 0}), "synth 'steps' must be an integer >= 1, got 0"),
        (dict(max_epochs=0), "plan field 'max_epochs' must be >= 1, got 0"),
    ],
    ids=[
        "not-json",
        "not-object",
        "seeds-int",
        "concentrations-int",
        "lrs-string",
        "archs-string",
        "seeds-string-element",
        "regime-field",
        "batch-size-string",
        "patience-bool",
        "out-dir-int",
        "synth-list",
        "synth-unknown-key",
        "seeds-repeated",
        "patterns-same-pattern",
        "hidden-zero",
        "state-negative",
        "seeds-negative",
        "synth-n-string",
        "synth-noise-string",
        "synth-n-too-small",
        "synth-one-class",
        "synth-zero-width",
        "synth-zero-steps",
        "zero-epochs",
    ],
)
def test_bad_plan_file_exits_2(tmp_path, capsys, content, message):
    if isinstance(content, dict):
        plan = {
            "datasets": ["synth"],
            "archs": ["LRU"],
            "patterns": ["AAAAAA"],
            "supervisions": ["final"],
            "lrs": [0.01],
            "seeds": [0],
            "out_dir": str(tmp_path / "res"),
            "max_epochs": 1,
            **content,
        }
        content = json.dumps(plan)
    path = tmp_path / "plan.json"
    path.write_text(content)
    assert main(["grid", "--plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("where", ["file", "under-file"])
@pytest.mark.parametrize("command", ["plan", "grid", "train", "verify", "reshape-stats"])
def test_unusable_out_dir_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker if where == "file" else blocker / "res"

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    monkeypatch.setattr(cli, "train_one", no_work)
    monkeypatch.setattr(train_mod, "train_one", no_work)
    monkeypatch.setattr(cli, "run_all", no_work)
    monkeypatch.setattr(cli, "reshape_law", no_work)
    tiny = ["--max-epochs", "1", "--hidden", "4", "--state", "4", "--pattern", "2,1"]
    if command == "plan":
        plan = {
            "datasets": ["synth"], "archs": ["LRU"], "patterns": ["AA"], "supervisions": ["final"],
            "lrs": [0.01], "seeds": [0], "out_dir": str(out), "max_epochs": 1, "hidden": 4, "state": 4,
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        argv = ["grid", "--plan", str(path)]
    elif command in ("verify", "reshape-stats"):  # each writes one file, whose directory is `out`
        argv = [command, "--out", str(out / "a.out")]
    else:
        argv = [command, *tiny, "--out", str(out)] + (["--lrs", "0.01", "--seeds", "0"] if command == "grid" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "as an output directory" in err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["verify", "reshape-stats"])
def test_out_file_that_is_a_directory_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output file was checked")

    monkeypatch.setattr(cli, "run_all", no_work)
    monkeypatch.setattr(cli, "reshape_law", no_work)
    assert main([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "it is a directory" in err


def test_out_file_directory_is_made(tmp_path, capsys):
    out = tmp_path / "new" / "stats.csv"
    assert main(["reshape-stats", "--dataset", "Heartbeat", "--concentration", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("dataset,steps,width,concentration")


# --- the README documents exactly what the code accepts ------------------------------


def test_readme_lists_the_cell_flags():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"share the cell flags `([^`]*)`", text).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_cell_flags(parser)
    registered = {o for a in parser._actions for o in a.option_strings}
    assert sorted(sentence.split()) == sorted(registered)


def test_readme_lists_the_plan_fields():
    text = README.read_text()
    block = re.search(r"Required fields:\s*```jsonc\n(.*?)```", text, re.S).group(1)
    required = set(re.findall(r'^\s*"(\w+)":', block, re.M))
    paragraph = re.search(r"Optional fields with defaults:(.*?)Unknown fields", text, re.S).group(1)
    optional = set(re.findall(r"`([a-z_]+)`", paragraph))
    assert not required & optional
    assert required | optional == {f.name for f in dataclasses.fields(ExperimentPlan)}
