"""Experiment plans, result tables, and their CSV/markdown renderings.

A plan is a declarative JSON document describing a cross product of
datasets, architectures, sharing patterns, supervision modes, and
concentration factors; every cell runs a learning-rate x seed grid.
The baseline pattern (all blocks unique, e.g. ABCDEF) pairs only with
final-step supervision, so a plan over all four patterns and both
supervisions yields 7 cells per dataset/arch/concentration, baseline
included.

Results are written as one CSV row per cell (including the per-seed
test accuracies and a short config hash for reruns) plus a markdown
table with the baseline column first.  In the markdown, a cell is
**bold** when its mean beats the baseline mean at the reported
precision (2 decimals) and <u>underlined</u> when equal at that
precision.  Rendering is a pure function of the CSV, so re-running the
report on unchanged results is idempotent.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .blocks import ARCHS
from .data import CANONICAL, Dataset, load_named, synth_sine_task
from .errors import ConfigError
from .stack import SUPERVISIONS, parse_pattern, pattern_string
from .train import TrainConfig, grid_and_seeds

log = logging.getLogger(__name__)

_BASELINE_PATTERN = pattern_string(6, 6)  # all blocks unique

CSV_COLUMNS = [
    "dataset",
    "arch",
    "pattern",
    "supervision",
    "concentration",
    "mean_acc",
    "std_acc",
    "n_params",
    "seconds",
    "lr",
    "seed_accs",
    "diverged_seeds",
    "config_hash",
]


@dataclass(frozen=True)
class PlanCell:
    dataset: str
    arch: str
    pattern: str
    supervision: str
    concentration: int


# list-valued plan fields: the type of their elements, and its name in errors
_LIST_FIELDS = {
    "datasets": (str, "string"),
    "archs": (str, "string"),
    "patterns": (str, "string"),
    "supervisions": (str, "string"),
    "concentrations": (int, "integer"),
    "lrs": ((int, float), "number"),
    "seeds": (int, "integer"),
}


@dataclass
class ExperimentPlan:
    datasets: list[str]
    archs: list[str]
    patterns: list[str]
    supervisions: list[str]
    concentrations: list[int]
    lrs: list[float]
    seeds: list[int]
    out_dir: str
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    hidden: int = 64
    state: int = 64
    data_dir: str = "data"
    synth: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, (kind, label) in _LIST_FIELDS.items():
            values = getattr(self, name)
            if not isinstance(values, list) or any(
                isinstance(v, bool) or not isinstance(v, kind) for v in values
            ):
                raise ConfigError(f"plan field {name!r} must be a list of {label}s, got {values!r}")
            if not values:
                raise ConfigError(f"plan field {name!r} must be non-empty")
        for ds in self.datasets:
            if ds != "synth" and ds not in CANONICAL:
                raise ConfigError(
                    f"unknown dataset {ds!r}; expected 'synth' or one of {sorted(CANONICAL)}"
                )
        for arch in self.archs:
            if arch not in ARCHS:
                raise ConfigError(f"unknown arch {arch!r}; expected one of {ARCHS}")
        for pattern in self.patterns:
            parse_pattern(pattern)
        for sup in self.supervisions:
            if sup not in SUPERVISIONS:
                raise ConfigError(f"unknown supervision {sup!r}; expected one of {SUPERVISIONS}")
        for c in self.concentrations:
            if c < 1:
                raise ConfigError(f"concentrations must be positive integers, got {c!r}")
        if any(lr <= 0 for lr in self.lrs):
            raise ConfigError("lrs must be positive")

    def cells(self) -> list[PlanCell]:
        """Cross product, except the all-unique baseline runs final-only."""
        out = []
        for ds in self.datasets:
            for arch in self.archs:
                for c in self.concentrations:
                    for pattern in self.patterns:
                        depth, n_unique = parse_pattern(pattern)
                        canonical = pattern_string(depth, n_unique)
                        for sup in self.supervisions:
                            if n_unique == depth and sup != "final":
                                continue
                            out.append(PlanCell(ds, arch, canonical, sup, c))
        return out


def load_plan(path) -> ExperimentPlan:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read plan {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"plan {path} must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentPlan)}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown plan fields: {sorted(extra)}")
    missing = {"datasets", "archs", "patterns", "supervisions", "lrs", "seeds", "out_dir"} - set(
        raw
    )
    if missing:
        raise ConfigError(f"plan is missing required fields: {sorted(missing)}")
    raw.setdefault("concentrations", [1])
    return ExperimentPlan(**raw)


# --- running -----------------------------------------------------------------------


def resolve_dataset(name: str, plan: ExperimentPlan) -> Dataset:
    if name == "synth":
        return synth_sine_task(**plan.synth)
    return load_named(name, plan.data_dir)


def cell_hash(cell: PlanCell, plan: ExperimentPlan) -> str:
    payload = {
        **dataclasses.asdict(cell),
        "lrs": plan.lrs,
        "seeds": plan.seeds,
        "batch_size": plan.batch_size,
        "max_epochs": plan.max_epochs,
        "patience": plan.patience,
        "hidden": plan.hidden,
        "state": plan.state,
        "synth": plan.synth,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def _run_cell(args) -> dict:
    cell, plan, dataset = args
    base = TrainConfig(
        arch=cell.arch,
        pattern=cell.pattern,
        supervision=cell.supervision,
        concentration=cell.concentration,
        batch_size=plan.batch_size,
        max_epochs=plan.max_epochs,
        patience=plan.patience,
        hidden=plan.hidden,
        state=plan.state,
    )
    t0 = time.perf_counter()
    grid = grid_and_seeds(dataset, base, lrs=plan.lrs, seeds=plan.seeds)
    n_params = next(r.n_params for runs in grid.runs.values() for r in runs)
    return {
        "dataset": cell.dataset,
        "arch": cell.arch,
        "pattern": cell.pattern,
        "supervision": cell.supervision,
        "concentration": cell.concentration,
        "mean_acc": f"{grid.mean_test_acc:.6f}",
        "std_acc": f"{grid.std_test_acc:.6f}",
        "n_params": n_params,
        "seconds": f"{time.perf_counter() - t0:.2f}",
        "lr": grid.chosen_lr,
        "seed_accs": ";".join(f"{a:.6f}" for a in grid.seed_test_accs),
        "diverged_seeds": ";".join(str(s) for s in grid.diverged_seeds),
        "config_hash": cell_hash(cell, plan),
    }


def run_plan(plan: ExperimentPlan, workers: int | None = None) -> Path:
    """Execute every cell and write results.csv + results.md in out_dir."""
    cells = plan.cells()
    if not cells:
        raise ConfigError("plan resolves to zero cells; nothing to run")
    # resolve every dataset before any training starts, so a missing
    # file aborts the whole plan up front
    datasets = {name: resolve_dataset(name, plan) for name in plan.datasets}

    jobs = [(cell, plan, datasets[cell.dataset]) for cell in cells]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, jobs))
    else:
        rows = [_run_cell(j) for j in jobs]

    out_dir = Path(plan.out_dir)
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
    """Markdown table per concentration: baseline column first, then variants.

    Bold marks a mean strictly above the baseline at 2 decimals,
    underline marks equality at 2 decimals; without a baseline row the
    group renders unmarked with a warning.
    """
    if not rows:
        raise ConfigError("no result rows to render")
    lines: list[str] = []
    concentrations = sorted({int(r["concentration"]) for r in rows})
    for conc in concentrations:
        sub = [r for r in rows if int(r["concentration"]) == conc]
        variants: list[tuple[str, str]] = []
        for row in sub:
            key = _variant_key(row)
            if key[0] != _BASELINE_PATTERN and key not in variants:
                variants.append(key)
        variants.sort()
        header = ["dataset", "arch", f"baseline {_BASELINE_PATTERN}"] + [
            f"{p}·{s}" for p, s in variants
        ]
        if stderr_aware:
            header += [f"p({p}·{s})" for p, s in variants]
        lines.append(f"## concentration c={conc}")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        groups: dict[tuple[str, str], dict] = {}
        for row in sub:
            groups.setdefault((row["dataset"], row["arch"]), {})[_variant_key(row)] = row
        for (dataset, arch), cells in sorted(groups.items()):
            base_row = cells.get((_BASELINE_PATTERN, "final"))
            if base_row is None:
                log.warning(
                    "no baseline (%s/final) row for %s/%s at c=%d; cells rendered unmarked",
                    _BASELINE_PATTERN,
                    dataset,
                    arch,
                    conc,
                )
                base_text = "—"
                base_mean = None
            else:
                base_mean, base_text = _fmt_percent(base_row)
            cols = [dataset, arch, base_text]
            pvals = []
            for key in variants:
                row = cells.get(key)
                if row is None:
                    cols.append("—")
                    pvals.append("—")
                    continue
                mean, text = _fmt_percent(row)
                if base_mean is not None and mean > base_mean:
                    text = f"**{text}**"
                elif base_mean is not None and mean == base_mean:
                    text = f"<u>{text}</u>"
                cols.append(text)
                pvals.append(_welch_p(row, base_row) if base_row is not None else "—")
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
