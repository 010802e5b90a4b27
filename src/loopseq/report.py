"""Experiment plans, result tables, and their CSV/markdown renderings.

A plan is a declarative JSON document describing a cross product of
datasets, architectures, sharing patterns, supervision modes, and
concentration factors; every cell runs a learning-rate x seed grid.
A stack of depth L is compared with the plain stack of the same depth,
its baseline: the all-unique pattern (ABCDEF at L = 6, ABCD at L = 4).
The baseline pairs only with final-step supervision, so a plan over
all four depth-6 patterns and both supervisions yields 7 cells per
dataset/arch/concentration, baseline included.

Every lr x seed run of every cell is one job on one runner
(`train.run_jobs`), so a run that fails costs only its own cell.
Results are written as one CSV row per cell (including the per-seed
test accuracies) plus a markdown table with each depth's baseline
column before that depth's variants.
A cell whose run raised, whose worker died, or whose every lr diverged
gets a row with its `error` filled and no results, and renders as `failed`.  In
the markdown, a cell is **bold** when its mean beats its depth's baseline mean
at the reported precision (2 decimals) and <u>underlined</u> when equal
at that precision.  Rendering is a pure function of the CSV, so
re-running the report on unchanged results is idempotent.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from .data import CANONICAL, Dataset, load_named, split_sizes, synth_sine_task
from .errors import AggregationError, ConfigError, DataError
from .stack import SUPERVISIONS, parse_pattern, pattern_string
from .train import TrainConfig, grid_and_seeds, run_jobs

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanCell:
    dataset: str
    arch: str
    pattern: str
    supervision: str
    concentration: int


CSV_COLUMNS = [f.name for f in dataclasses.fields(PlanCell)] + [
    "mean_acc", "std_acc", "n_params", "seconds", "lr", "seed_accs", "diverged_seeds", "error"
]

# what a plan field of each annotation admits: its values' type, and that type's name
# in errors (an `int` field is checked by the TrainConfig of every run)
_ADMITS = {
    "list[str]": (str, "a list of strings"),
    "list[int]": (int, "a list of integers"),
    "list[float]": ((int, float), "a list of numbers"),
    "str": (str, "a string"),
    "dict": (dict, "an object"),
}
# list fields whose values come from a closed set that no TrainConfig checks
# (a supervision paired only with the all-unique pattern builds no run)
_CHOICES = {"datasets": ["synth", *sorted(CANONICAL)], "supervisions": list(SUPERVISIONS)}
# synth keys: the least value each takes ("noise" is any finite number, the rest integers)
_SYNTH_MIN = {"n": 1, "steps": 1, "width": 1, "n_classes": 2, "noise": 0.0, "seed": 0}


def _baseline(depth: int) -> str:
    """The all-unique pattern of `depth`, the plain stack a shared one of that depth
    is compared with; past 26 blocks it has no letter form, so no plan runs it."""
    return pattern_string(depth, depth) if depth <= 26 else f"{depth},{depth}"


@dataclass
class ExperimentPlan:
    datasets: list[str]
    archs: list[str]
    patterns: list[str]
    supervisions: list[str]
    lrs: list[float]
    seeds: list[int]
    out_dir: str
    concentrations: list[int] = field(default_factory=lambda: [1])
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    hidden: int = TrainConfig.hidden
    state: int = TrainConfig.state
    data_dir: str = "data"
    synth: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type not in _ADMITS:
                continue
            kind, label = _ADMITS[f.type]
            value, is_list = getattr(self, f.name), f.type.startswith("list")
            items = value if is_list else [value]
            if not isinstance(items, list) or any(isinstance(v, bool) or not isinstance(v, kind) for v in items):
                raise ConfigError(f"plan field {f.name!r} must be {label}, got {value!r}")
            if not is_list:
                continue
            if not value or len(set(value)) < len(value):
                raise ConfigError(f"plan field {f.name!r} must be non-empty without repeats, got {value!r}")
            unknown = [v for v in value if v not in _CHOICES.get(f.name, value)]
            if unknown:
                raise ConfigError(f"unknown {f.name} {unknown}; expected some of {_CHOICES[f.name]}")
        unknown = sorted(set(self.synth) - set(_SYNTH_MIN))
        if unknown:
            raise ConfigError(f"unknown synth keys {unknown}; expected some of {sorted(_SYNTH_MIN)}")
        for key, value in self.synth.items():
            kind, label = ((int, float), "a number") if key == "noise" else (int, "an integer")
            low = _SYNTH_MIN[key]
            if isinstance(value, bool) or not isinstance(value, kind) or not low <= value < float("inf"):
                raise ConfigError(f"synth {key!r} must be {label} >= {low}, got {value!r}")
        if len({parse_pattern(p) for p in self.patterns}) < len(self.patterns):
            raise ConfigError(f"plan field 'patterns' names one pattern twice: {self.patterns!r}")
        cells = self.cells()
        if not cells:
            raise ConfigError("plan resolves to zero cells; nothing to run")
        for cell in cells:  # TrainConfig checks the types and values of every run
            _configs(cell, self)
        check_grid_epochs(self.max_epochs, "plan field 'max_epochs'")

    def cells(self) -> list[PlanCell]:
        """Cross product, except each depth's all-unique baseline runs final-only."""
        out = []
        for ds in self.datasets:
            for arch in self.archs:
                for c in self.concentrations:
                    for pattern in self.patterns:
                        stack = parse_pattern(pattern)
                        canonical = pattern_string(stack.depth, stack.n_unique)
                        for sup in self.supervisions:
                            if canonical == _baseline(stack.depth) and sup != "final":
                                continue
                            out.append(PlanCell(ds, arch, canonical, sup, c))
        return out


def check_grid_epochs(max_epochs: int, name: str, scope: str = "") -> None:
    """Refuse a grid whose runs may have no epoch: it selects lrs on validation accuracy."""
    if max_epochs < 1:
        raise ConfigError(
            f"{name} must be >= 1{scope}, got {max_epochs}: "
            "a run with no epoch has no validation accuracy to select an lr on"
        )


def load_plan(path) -> ExperimentPlan:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read plan {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"plan {path} must be a JSON object, got {type(raw).__name__}")
    fields = dataclasses.fields(ExperimentPlan)
    extra = set(raw) - {f.name for f in fields}
    if extra:
        raise ConfigError(f"unknown plan fields: {sorted(extra)}")
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"plan is missing required fields: {sorted(missing)}")
    return ExperimentPlan(**raw)


# --- running -----------------------------------------------------------------------


def check_out_dir(path) -> Path:
    """`path`, refused before any run unless it is a writable directory or can be made one."""
    out_dir = probe = Path(path)
    while not probe.exists():  # its nearest existing ancestor must take the new directory
        probe = probe.parent
    if not probe.is_dir() or not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError(
            f"cannot use {str(path)!r} as an output directory: {str(probe)!r} is not a writable directory"
        )
    return out_dir


def resolve_dataset(name: str, data_dir: str, synth: dict) -> Dataset:
    """The named dataset, refused when it has too few examples to split.

    `synth` holds the keyword arguments of `synth_sine_task`.
    """
    ds = synth_sine_task(**synth) if name == "synth" else load_named(name, data_dir)
    try:
        split_sizes(ds.n)
    except DataError as exc:
        where = "synth 'n'" if name == "synth" else f"dataset {name!r}"
        raise DataError(f"{where}: {exc}") from None
    return ds


def _configs(cell: PlanCell, plan: ExperimentPlan) -> list[TrainConfig]:
    """The cell's runs, lr-major; each other run field is read by name from the cell or the plan."""
    given = {**vars(plan), **vars(cell)}
    base = TrainConfig(**{f.name: given[f.name] for f in dataclasses.fields(TrainConfig) if f.name in given})
    return [base.replace(lr=lr, seed=seed) for lr in plan.lrs for seed in plan.seeds]


def _cell_row(cell: PlanCell, outcomes: list) -> dict:
    row = dataclasses.asdict(cell)
    errors = [o for o in outcomes if isinstance(o, str)]
    if errors:
        return {**row, "error": errors[0]}
    try:
        grid = grid_and_seeds(outcomes)
    except AggregationError as exc:
        return {**row, "error": f"AggregationError: {exc}"}
    return {
        **row,
        "mean_acc": f"{grid.mean_test_acc:.6f}",
        "std_acc": f"{grid.std_test_acc:.6f}",
        "n_params": outcomes[0].n_params,
        "seconds": f"{sum(r.elapsed_seconds for r in outcomes):.2f}",
        "lr": grid.chosen_lr,
        "seed_accs": ";".join(f"{a:.6f}" for a in grid.seed_test_accs),
        "diverged_seeds": ";".join(str(s) for s in grid.diverged_seeds),
        "error": "",
    }


def run_plan(plan: ExperimentPlan, workers: int | None = None) -> Path:
    """Run every cell's lr x seed runs as one job list, and write
    results.csv + results.md in out_dir, failed cells included."""
    cells = plan.cells()
    # resolve every dataset before any training starts, so a missing
    # file aborts the whole plan up front
    datasets = {name: resolve_dataset(name, plan.data_dir, plan.synth) for name in plan.datasets}
    out_dir = check_out_dir(plan.out_dir)
    jobs = [(config, datasets[cell.dataset]) for cell in cells for config in _configs(cell, plan)]
    outcomes = run_jobs(jobs, workers)
    n = len(plan.lrs) * len(plan.seeds)
    rows = [_cell_row(cell, outcomes[i * n : (i + 1) * n]) for i, cell in enumerate(cells)]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    render_report(out_dir)
    return csv_path


# --- rendering -----------------------------------------------------------------------


def read_results(results_dir) -> list[dict]:
    path = Path(results_dir) / "results.csv"
    if not path.exists():
        raise ConfigError(f"no results.csv under {results_dir}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _variant_key(row: dict) -> tuple[str, str]:
    return (row["pattern"], row["supervision"])


def _fmt_percent(row: dict) -> tuple[float, str]:
    mean = round(100.0 * float(row["mean_acc"]), 2)
    std = round(100.0 * float(row["std_acc"]), 2)
    return mean, f"{mean:.2f} ± {std:.2f}"


def _welch_p(row: dict, base_row: dict) -> str:
    a = [float(v) for v in row["seed_accs"].split(";") if v]
    b = [float(v) for v in base_row["seed_accs"].split(";") if v]
    if len(a) < 2 or len(b) < 2:
        return "n/a"
    from scipy import stats

    return f"{stats.ttest_ind(a, b, equal_var=False).pvalue:.3f}"


def render_markdown(rows: list[dict], stderr_aware: bool = False) -> str:
    """Markdown table per concentration: for each depth, its baseline column first, then its variants.

    A row's pattern is the canonical letter form `run_plan` writes, so its
    length is its depth, and its baseline is the all-unique pattern of
    that depth.  Bold marks a mean strictly above the baseline at 2
    decimals, underline marks equality at 2 decimals.  A row with an
    `error` renders as `failed`; without a finished baseline a depth's
    cells render unmarked with a warning.  Rows from before the `error`
    column render as finished.
    """
    if not rows:
        raise ConfigError("no result rows to render")
    lines: list[str] = []
    concentrations = sorted({int(r["concentration"]) for r in rows})
    for conc in concentrations:
        sub = [r for r in rows if int(r["concentration"]) == conc]
        variants: dict[int, list[tuple[str, str]]] = {}  # depth -> its variants, baseline excluded
        for row in sub:
            key = _variant_key(row)
            keys = variants.setdefault(len(key[0]), [])
            if key[0] != _baseline(len(key[0])) and key not in keys:
                keys.append(key)
        depths = sorted(variants)
        header = ["dataset", "arch"]
        for depth in depths:
            variants[depth].sort()
            header += [f"baseline {_baseline(depth)}"] + [f"{p}·{s}" for p, s in variants[depth]]
        if stderr_aware:
            header += [f"p({p}·{s})" for depth in depths for p, s in variants[depth]]
        lines.append(f"## concentration c={conc}")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        groups: dict[tuple[str, str], dict] = {}
        for row in sub:
            groups.setdefault((row["dataset"], row["arch"]), {})[_variant_key(row)] = row
        for (dataset, arch), cells in sorted(groups.items()):
            cols = [dataset, arch]
            pvals = []
            for depth in depths:
                base_row = cells.get((_baseline(depth), "final"))
                base_mean, base_text = None, "—"
                if base_row is not None and base_row.get("error"):
                    base_row, base_text = None, "failed"
                if base_row is None:
                    log.warning(
                        "no baseline (%s/final) result for %s/%s at c=%d; cells rendered unmarked",
                        _baseline(depth),
                        dataset,
                        arch,
                        conc,
                    )
                else:
                    base_mean, base_text = _fmt_percent(base_row)
                cols.append(base_text)
                for key in variants[depth]:
                    row = cells.get(key)
                    if row is None or row.get("error"):
                        cols.append("—" if row is None else "failed")
                        pvals.append("—")
                        continue
                    mean, text = _fmt_percent(row)
                    if base_mean is not None and mean > base_mean:
                        text = f"**{text}**"
                    elif base_mean is not None and mean == base_mean:
                        text = f"<u>{text}</u>"
                    cols.append(text)
                    pvals.append(_welch_p(row, base_row) if stderr_aware and base_row is not None else "—")
            if stderr_aware:
                cols += pvals
            lines.append("| " + " | ".join(cols) + " |")
        lines.append("")
    return "\n".join(lines)


def render_report(results_dir, stderr_aware: bool = False) -> Path:
    rows = read_results(results_dir)
    text = render_markdown(rows, stderr_aware=stderr_aware)
    md_path = Path(results_dir) / "results.md"
    md_path.write_text(text)
    return md_path
