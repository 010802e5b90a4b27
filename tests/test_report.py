"""Plans, result tables, and markdown rendering marks."""

import csv
import dataclasses
import json
import logging

import numpy as np
import pytest
from scipy import stats

from loopseq.errors import ConfigError
from loopseq.report import (
    CSV_COLUMNS,
    ExperimentPlan,
    load_plan,
    read_results,
    render_markdown,
    render_report,
    run_plan,
)


def _plan(**kw) -> ExperimentPlan:
    base = dict(
        datasets=["synth"],
        archs=["LRU"],
        patterns=["AAAAAA", "ABABAB", "ABCABC", "ABCDEF"],
        supervisions=["final", "block"],
        concentrations=[1],
        lrs=[1e-3, 3e-3],
        seeds=[0, 1, 2],
        out_dir="unused",
    )
    base.update(kw)
    return ExperimentPlan(**base)


def _row(pattern, supervision, mean, std=0.03, dataset="synth", arch="LRU", conc=1, accs=None):
    accs = accs if accs is not None else [mean - std, mean, mean + std]
    return {
        "dataset": dataset,
        "arch": arch,
        "pattern": pattern,
        "supervision": supervision,
        "concentration": str(conc),
        "mean_acc": f"{mean:.6f}",
        "std_acc": f"{std:.6f}",
        "n_params": "1234",
        "seconds": "1.00",
        "lr": "0.001",
        "seed_accs": ";".join(f"{a:.6f}" for a in accs),
        "diverged_seeds": "",
        "error": "",
    }


# --- plan shape -----------------------------------------------------------------------


def test_plan_cell_count_matches_table_layout():
    # 3 shared patterns x 2 supervisions + baseline(final only) = 7
    cells = _plan().cells()
    assert len(cells) == 7
    baseline = [c for c in cells if c.pattern == "ABCDEF"]
    assert len(baseline) == 1 and baseline[0].supervision == "final"


def test_plan_concentration_sweep_multiplies_cells():
    cells = _plan(concentrations=[8, 16], patterns=["AAAAAA"], supervisions=["final"]).cells()
    assert len(cells) == 2
    assert {c.concentration for c in cells} == {8, 16}


@pytest.mark.parametrize(
    "kw",
    [
        dict(datasets=[]),
        dict(archs=[]),
        dict(patterns=[]),
        dict(lrs=[]),
        dict(seeds=[]),
        dict(datasets=["NotAset"]),
        dict(archs=["S4"]),
        dict(patterns=["ABBA"]),
        dict(supervisions=["middle"]),
        dict(concentrations=[0]),
        dict(lrs=[-1e-3]),
        dict(seeds=[0, 0]),
        dict(archs=["LRU", "LRU"]),
        dict(lrs=[1e-3, 0.001]),
        dict(patterns=["AAAAAA", "6,1"]),
        dict(lrs=[float("nan")]),
        dict(batch_size="32"),
        dict(max_epochs=True),
        dict(out_dir=None),
        dict(data_dir=1),
        dict(synth=[]),
        dict(synth={"bogus": 1}),
        dict(patterns=["ABCDEF"], supervisions=["block"]),  # zero cells
    ],
)
def test_plan_validation_rejects(kw):
    with pytest.raises(ConfigError):
        _plan(**kw)


def test_empty_plan_writes_nothing(tmp_path):
    out = tmp_path / "results"
    with pytest.raises(ConfigError):
        _plan(datasets=[], out_dir=str(out))
    assert not out.exists()


def test_load_plan_example_file():
    plan = load_plan("configs/plan_example.json")
    assert len(plan.cells()) == 7
    assert plan.synth["n"] == 512


def test_load_plan_without_concentrations_takes_the_declared_default(tmp_path):
    raw = dict(datasets=["synth"], archs=["LRU"], patterns=["AAAAAA"], supervisions=["final"], lrs=[1e-3], seeds=[0])
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**raw, "out_dir": "out"}))
    (declared,) = [f for f in dataclasses.fields(ExperimentPlan) if f.name == "concentrations"]
    assert load_plan(path).concentrations == declared.default_factory() == [1]


def test_depth_4_plan_runs_its_own_baseline_final_only():
    cells = _plan(patterns=["AAAA", "ABAB", "ABCD"]).cells()
    assert [(c.pattern, c.supervision) for c in cells] == [
        ("AAAA", "final"), ("AAAA", "block"), ("ABAB", "final"), ("ABAB", "block"), ("ABCD", "final")
    ]


def test_load_plan_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"datasets": ["synth"], "bogus": 1}))
    with pytest.raises(ConfigError, match="unknown plan fields"):
        load_plan(path)
    path.write_text(json.dumps({"datasets": ["synth"]}))
    with pytest.raises(ConfigError, match="missing required"):
        load_plan(path)


# --- running a tiny plan -----------------------------------------------------------------


def _tiny_plan(out_dir, **kw) -> ExperimentPlan:
    base = dict(
        patterns=["AAAAAA", "ABCDEF"],
        supervisions=["final"],
        lrs=[1e-2],
        seeds=[0],
        out_dir=str(out_dir),
        max_epochs=1,
        batch_size=128,
        hidden=6,
        state=4,
        synth={"n": 60, "steps": 12, "width": 2, "n_classes": 2, "noise": 0.1, "seed": 0},
    )
    base.update(kw)
    return _plan(**base)


def test_run_plan_writes_csv_and_markdown(tmp_path):
    csv_path = run_plan(_tiny_plan(tmp_path / "res"))
    rows = read_results(csv_path.parent)
    assert len(rows) == 2
    assert list(rows[0]) == CSV_COLUMNS
    for row in rows:
        assert row["error"] == ""
        assert row["seed_accs"].count(";") == 0  # one seed
        assert 0.0 <= float(row["mean_acc"]) <= 1.0
    md = (csv_path.parent / "results.md").read_text()
    assert "baseline ABCDEF" in md and "AAAAAA·final" in md


def test_plan_parallel_matches_serial(tmp_path):
    kw = dict(archs=["LRU", "S5"], supervisions=["final", "block"], lrs=[1e-2, 3e-3], seeds=[0, 1])
    serial = run_plan(_tiny_plan(tmp_path / "serial", **kw))
    parallel = run_plan(_tiny_plan(tmp_path / "parallel", **kw), workers=2)
    rows = [read_results(path.parent) for path in (serial, parallel)]
    for row in rows[0] + rows[1]:
        del row["seconds"]
    assert len(rows[0]) == 6 and rows[0] == rows[1]
    assert all(row["error"] == "" for row in rows[0])


# --- rendering marks ---------------------------------------------------------------------


def test_bold_when_mean_beats_baseline():
    rows = [
        _row("ABCDEF", "final", 0.7419, 0.0467),
        _row("AAAAAA", "final", 0.7516, 0.0390),
    ]
    md = render_markdown(rows)
    assert "**75.16 ± 3.90**" in md
    assert "74.19 ± 4.67" in md and "**74.19" not in md


def test_underline_when_equal_at_two_decimals():
    rows = [
        _row("ABCDEF", "final", 0.7419, 0.0467),
        _row("AAAAAA", "block", 0.74191, 0.0338),  # same 74.19 after rounding
    ]
    md = render_markdown(rows)
    assert "<u>74.19 ± 3.38</u>" in md


def test_plain_when_below_baseline():
    rows = [
        _row("ABCDEF", "final", 0.7419),
        _row("ABABAB", "final", 0.7129),
    ]
    md = render_markdown(rows)
    assert "71.29" in md and "**71.29" not in md and "<u>71.29" not in md


def test_missing_baseline_warns_and_renders_unmarked(caplog):
    rows = [_row("AAAAAA", "final", 0.9)]
    with caplog.at_level(logging.WARNING):
        md = render_markdown(rows)
    assert "no baseline" in caplog.text
    assert "90.00" in md and "**90.00" not in md


def test_depth_4_table_marks_against_abcd_without_warning(caplog):
    rows = [
        _row("ABCD", "final", 0.70),
        _row("AAAA", "final", 0.75),
        _row("ABAB", "block", 0.70001),  # 70.00 after rounding
        _row("ABAB", "final", 0.65),
    ]
    with caplog.at_level(logging.WARNING):
        md = render_markdown(rows)
    assert "no baseline" not in caplog.text
    assert "| dataset | arch | baseline ABCD | AAAA·final | ABAB·block | ABAB·final |" in md
    assert "| synth | LRU | 70.00 ± 3.00 | **75.00 ± 3.00** | <u>70.00 ± 3.00</u> | 65.00 ± 3.00 |" in md


def test_mixed_depths_mark_each_variant_against_its_own_depth(caplog):
    rows = [
        _row("ABCDEF", "final", 0.80),
        _row("AAAAAA", "final", 0.75),  # below its baseline, above depth 4's
        _row("ABCD", "final", 0.70),
        _row("AAAA", "final", 0.75),
        _row("AAAAAAAAAAAAAAAAAAAAAAAAAAA", "final", 0.50),  # depth 27: no letter baseline exists
    ]
    with caplog.at_level(logging.WARNING):
        md = render_markdown(rows, stderr_aware=True)
    assert caplog.text.count("no baseline") == 1 and "27,27" in caplog.text
    header, _, line = md.splitlines()[2:5]
    assert header == (
        "| dataset | arch | baseline ABCD | AAAA·final | baseline ABCDEF | AAAAAA·final "
        "| baseline 27,27 | AAAAAAAAAAAAAAAAAAAAAAAAAAA·final "
        "| p(AAAA·final) | p(AAAAAA·final) | p(AAAAAAAAAAAAAAAAAAAAAAAAAAA·final) |"
    )
    cells = line.strip("| ").split(" | ")
    assert cells[2:8] == ["70.00 ± 3.00", "**75.00 ± 3.00**", "80.00 ± 3.00", "75.00 ± 3.00", "—", "50.00 ± 3.00"]
    assert cells[8] != "—" and cells[9] != "—" and cells[10] == "—"  # no p-value without a baseline


def test_failed_cell_renders_failed():
    failed = {**_row("AAAAAA", "block", 0.0), "mean_acc": "", "std_acc": "", "error": "AggregationError: x"}
    md = render_markdown([_row("ABCDEF", "final", 0.70), _row("AAAAAA", "final", 0.75), failed])
    assert "| synth | LRU | 70.00 ± 3.00 | failed | **75.00 ± 3.00** |" in md


def test_failed_baseline_renders_row_unmarked(caplog):
    failed = {**_row("ABCDEF", "final", 0.0), "mean_acc": "", "std_acc": "", "error": "BrokenProcessPool: x"}
    with caplog.at_level(logging.WARNING):
        md = render_markdown([failed, _row("AAAAAA", "final", 0.9)], stderr_aware=True)
    assert "no baseline" in caplog.text
    assert "| synth | LRU | failed | 90.00 ± 3.00 | — |" in md


def test_render_is_idempotent(tmp_path):
    rows = [_row("ABCDEF", "final", 0.74), _row("AAAAAA", "final", 0.76)]
    res = tmp_path / "res"
    res.mkdir()
    with open(res / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    first = render_report(res).read_text()
    second = render_report(res).read_text()
    assert first == second


def test_stderr_aware_adds_welch_column():
    base_accs = [0.70, 0.72, 0.74]
    cell_accs = [0.80, 0.82, 0.84]
    rows = [
        _row("ABCDEF", "final", float(np.mean(base_accs)), accs=base_accs),
        _row("AAAAAA", "final", float(np.mean(cell_accs)), accs=cell_accs),
    ]
    md = render_markdown(rows, stderr_aware=True)
    assert "p(AAAAAA·final)" in md
    expected = stats.ttest_ind(cell_accs, base_accs, equal_var=False).pvalue
    assert f"{expected:.3f}" in md
    # without the flag the column is absent
    assert "p(AAAAAA·final)" not in render_markdown(rows)


def test_render_groups_by_concentration():
    rows = [
        _row("ABCDEF", "final", 0.74, conc=8),
        _row("AAAAAA", "final", 0.76, conc=8),
        _row("ABCDEF", "final", 0.70, conc=16),
        _row("AAAAAA", "final", 0.69, conc=16),
    ]
    md = render_markdown(rows)
    assert "## concentration c=8" in md and "## concentration c=16" in md
    assert md.index("c=8") < md.index("c=16")


def test_render_rejects_empty():
    with pytest.raises(ConfigError):
        render_markdown([])
