"""The benchmark's workloads: seeded inputs, one timed call, output checks.

Each workload is built from an input variant (the benchmark seed modulo the
number of variants) inside a scratch directory.  Building it is the worker's
set-up; `call` is the timed call; `check` turns the call's outputs into one
(name, ok, reason) entry per operation.

Per-epoch train losses are compared with reference values recorded by
perfbench/make_references.py, within a relative RTOL = 1e-10.  That admits a
reordered reduction: running the scan as the sequential oracle instead of the
tree sweep moved the stored losses by at most 2.5e-14 relative.  It fails a
wrong gradient: an off-by-one state in the scan adjoint moved every
synth-grid cell by at least 4e-7 and worms-long by 1.3e-5, and scaling that
adjoint by 1.001 (which Adam's normalised step nearly cancels) still moved
worms-long by 6e-9.  All were measured on mutated copies of the code.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from loopseq import data, report, train, verify
from loopseq.blocks import ARCHS
from tracer import run_key

RTOL = 1e-10
REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check_run(run, ref, epochs: int, steps: int) -> tuple[bool, str]:
    """Fixed work (epochs, steps, no divergence) and losses within RTOL of the reference."""
    result = run.result
    if result.diverged:
        return False, "diverged"
    if result.epochs_run != epochs or run.steps != steps:
        return False, f"ran {result.epochs_run} epochs / {run.steps} steps, expected {epochs} / {steps}"
    if ref is None:
        return False, "no reference losses for this input variant"
    got = [result.initial_loss, *result.train_losses]
    if len(got) != len(ref) or not np.allclose(got, ref, rtol=RTOL, atol=0.0):
        return False, f"losses {got} differ from reference {ref} beyond rtol {RTOL}"
    return True, ""


class SynthGrid:
    """`report.run_plan` over 24 cells of the synthetic sine task, serially."""

    name = "synth-grid"
    root_layer = "report"
    epochs = 2  # one step per epoch: split_sizes(46) = (32, 7, 7) and B = 32

    def __init__(self, variant: int, workdir: Path):
        self.variant = variant
        self.plan = report.ExperimentPlan(
            datasets=["synth"],
            archs=list(ARCHS),
            patterns=["AAAAAA", "ABCDEF"],
            supervisions=["final", "block"],
            concentrations=[1, 4],
            lrs=[1e-3],
            seeds=[0],
            out_dir=str(workdir / "plan"),
            batch_size=32,
            max_epochs=self.epochs,
            patience=self.epochs,  # early stopping never ends a run
            hidden=16,
            state=16,
            synth=dict(n=46, steps=100, width=2, n_classes=2, seed=variant),
        )

    def call(self):
        return report.run_plan(self.plan)

    def check(self, csv_path, runs, refs: dict) -> list:
        refs = refs.get(self.name, {}).get(str(self.variant), {})
        with open(csv_path, newline="") as fh:
            rows = {
                f"{r['arch']}/{r['pattern']}/{r['supervision']}/c{r['concentration']}": r
                for r in csv.DictReader(fh)
            }
        by_key: dict[str, list] = {}
        for run in runs:
            by_key.setdefault(run_key(run.config), []).append(run)
        ops = []
        for cell in self.plan.cells():
            key = f"{cell.arch}/{cell.pattern}/{cell.supervision}/c{cell.concentration}"
            row, cell_runs = rows.get(key), by_key.get(key, [])
            if row is None:
                ops.append((key, False, "no results.csv row"))
            elif row["diverged_seeds"]:
                ops.append((key, False, f"diverged seeds {row['diverged_seeds']}"))
            elif len(cell_runs) != 1:
                ops.append((key, False, f"{len(cell_runs)} train runs, expected 1"))
            else:
                ok, why = check_run(cell_runs[0], refs.get(key), self.epochs, self.epochs)
                ops.append((key, ok, why))
        if len(rows) != len(ops):
            ops.append(("results.csv", False, f"{len(rows)} rows for {len(ops)} cells"))
        return ops


class WormsLong:
    """One epoch of `train.train_one` on a Worms-shaped corpus parsed from `.ts`."""

    name = "worms-long"
    root_layer = "train"
    n_examples = 4  # split_sizes(4) = (2, 1, 1): the smallest split with val and test

    def __init__(self, variant: int, workdir: Path):
        self.variant = variant
        meta = data.CANONICAL["Worms"]
        self.source = data.synth_sine_task(
            n=self.n_examples,
            steps=meta["steps"],
            width=meta["width"],
            n_classes=meta["classes"],
            seed=variant,
        )
        archive = meta["archive"]
        folder = workdir / archive
        folder.mkdir(parents=True)
        half = self.n_examples // 2
        data.write_ts(folder / f"{archive}_TRAIN.ts", self.source.subset(np.arange(half)), archive)
        data.write_ts(
            folder / f"{archive}_TEST.ts", self.source.subset(np.arange(half, self.n_examples)), archive
        )
        t0 = time.perf_counter()
        self.dataset = data.load_named("Worms", workdir)
        self.load_s = time.perf_counter() - t0
        self.n_train = data.split_sizes(self.n_examples)[0]
        self.config = train.TrainConfig(
            arch="LRU",
            pattern="AAAAAA",
            supervision="final",
            lr=1e-3,
            seed=0,
            batch_size=1,
            max_epochs=1,
            patience=1,
            hidden=64,
            state=64,
        )

    def call(self):
        return train.train_one(self.config, self.dataset)

    def check(self, result, runs, refs: dict) -> list:
        refs = refs.get(self.name, {}).get(str(self.variant), {})
        key = run_key(self.config)
        same = np.array_equal(self.dataset.series, self.source.series) and np.array_equal(
            self.dataset.labels, self.source.labels
        )
        if not same:
            return [(key, False, "parsed .ts corpus differs from the generated one")]
        if len(runs) != 1:
            return [(key, False, f"{len(runs)} train runs, expected 1")]
        steps = self.n_train // self.config.batch_size
        return [(key, *check_run(runs[0], refs.get(key), 1, steps))]


class AuditFast:
    """`verify.run_all(fast=True)`: the audit suite fixes its own inputs."""

    name = "audit-fast"
    root_layer = "verify"
    n_checks = 34

    def __init__(self, variant: int, workdir: Path):
        self.variant = variant

    def call(self):
        return verify.run_all(fast=True)

    def check(self, audit, runs, refs: dict) -> list:
        ops = [(r.name, r.passed, "" if r.passed else json.dumps(r.detail)) for r in audit.results]
        if len(ops) != self.n_checks:
            return [(f"check {i}", False, f"{len(ops)} checks ran, expected {self.n_checks}")
                    for i in range(self.n_checks)]
        if not audit.passed:
            ops.append(("report", False, "AuditReport.passed is false"))
        return ops


WORKLOADS = {w.name: w for w in (SynthGrid, WormsLong, AuditFast)}
