"""Command-line entry point.

Subcommands:

* ``train``         — one training run (one config, one seed)
* ``grid``          — a learning-rate x seed grid for one cell, or a
                      full plan file of cells (``--plan``)
* ``verify``        — run the audit suite and report pass/fail
* ``reshape-stats`` — print the sequence-reshaping law for the
                      canonical corpus shapes
* ``report``        — re-render markdown from a results directory

Results are CSV/JSON/markdown files; logs go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .blocks import ARCHS
from .data import CANONICAL
from .errors import AggregationError, ConfigError, LoopseqError
from .report import check_grid_epochs, check_out_dir, load_plan, read_results, render_report, resolve_dataset, run_plan
from .reshape import reshape_law
from .stack import SUPERVISIONS
from .train import TrainConfig, grid_and_seeds, run_jobs, train_one
from .verify import run_all


_HELP = {
    "arch": "one of " + ", ".join(ARCHS),
    "pattern": "block-sharing pattern, e.g. ABCABC or '6,3'",
    "supervision": "one of " + ", ".join(SUPERVISIONS),
    "clip_norm": "global gradient-norm clip; 0 disables",
}


def _add_run_flags(p: argparse.ArgumentParser, names) -> None:
    """One flag per named TrainConfig field, parsed as the type of its default."""
    for f in dataclasses.fields(TrainConfig):
        if f.name in names:
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=type(f.default), default=f.default, help=_HELP.get(f.name))


def _add_cell_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="synth", help="'synth' or a canonical corpus name")
    _add_run_flags(p, {f.name for f in dataclasses.fields(TrainConfig)} - {"lr", "seed"})
    p.add_argument("--data-dir", default="data")


def _config_from(args, **axes) -> TrainConfig:
    """The run the parsed flags name; `axes` give the lr and seed of a grid's run."""
    given = {**vars(args), **axes, "clip_norm": None if args.clip_norm == 0 else args.clip_norm}
    return TrainConfig(**{f.name: given[f.name] for f in dataclasses.fields(TrainConfig)})


def _cmd_train(args) -> int:
    config = _config_from(args)
    dataset = resolve_dataset(args.dataset, args.data_dir, {})
    out_dir = check_out_dir(args.out) if args.out else None
    log_path = None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path = out_dir / "run.log.jsonl"
    result = train_one(config, dataset, log_path=log_path)
    if out_dir:
        with open(out_dir / "run.json", "w") as fh:
            json.dump(dataclasses.asdict(result), fh, indent=2)
            fh.write("\n")
    status = "diverged" if result.diverged else "ok"
    print(
        f"{args.dataset}/{args.arch}/{args.pattern}/{args.supervision} "
        f"lr={args.lr} seed={args.seed}: {status}, epochs={result.epochs_run}, "
        f"best_val={result.best_val_acc:.4f} test_at_best={result.test_acc_at_best:.4f} "
        f"params={result.n_params}"
    )
    return 0


def _parse_list(flag: str, text: str, kind: type) -> list:
    """A non-empty comma-separated list of distinct `kind` values from one flag."""
    try:
        values = [kind(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated {kind.__name__} values, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    if len(set(values)) < len(values):
        raise ConfigError(f"{flag} repeats a value: {text!r}")
    return values


def _cmd_grid(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if args.plan:
        csv_path = run_plan(load_plan(args.plan), workers=args.workers)
        print(f"wrote {csv_path} and {csv_path.with_name('results.md')}")
        failed = [r for r in read_results(csv_path.parent) if r["error"]]
        for r in failed:
            cell = f"{r['dataset']}/{r['arch']}/{r['pattern']}/{r['supervision']}/c{r['concentration']}"
            print(f"failed: {cell}: {r['error']}", file=sys.stderr)
        return 1 if failed else 0
    check_grid_epochs(args.max_epochs, "--max-epochs", " for a grid")
    lrs = _parse_list("--lrs", args.lrs, float)
    seeds = _parse_list("--seeds", args.seeds, int)
    configs = [_config_from(args, lr=lr, seed=seed) for lr in lrs for seed in seeds]
    dataset = resolve_dataset(args.dataset, args.data_dir, {})
    out_dir = check_out_dir(args.out) if args.out else None
    runs = run_jobs([(config, dataset) for config in configs], workers=args.workers)
    failed = [(config, r) for config, r in zip(configs, runs) if isinstance(r, str)]
    for config, error in failed:
        print(f"failed: lr={config.lr} seed={config.seed}: {error}", file=sys.stderr)
    if failed:
        return 1
    try:
        grid = grid_and_seeds(runs)
    except AggregationError as exc:
        print(f"failed: AggregationError: {exc}", file=sys.stderr)
        return 1
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "grid.json", "w") as fh:
            json.dump(dataclasses.asdict(grid), fh, indent=2)
            fh.write("\n")
    print(
        f"chosen lr={grid.chosen_lr}: test acc {grid.mean_test_acc:.4f} ± {grid.std_test_acc:.4f} "
        f"over seeds {grid.seeds}"
        + (f" (diverged: {grid.diverged_seeds})" if grid.diverged_seeds else "")
    )
    return 0


def _check_out_file(path) -> None:
    """Refuse an output file before any work unless its directory passes
    `check_out_dir`, the rule of `train --out`; that directory is made."""
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {str(path)!r}: it is a directory")
    check_out_dir(Path(path).parent).mkdir(parents=True, exist_ok=True)


def _cmd_verify(args) -> int:
    if args.out:
        _check_out_file(args.out)
    report = run_all(fast=args.fast)
    print(report.to_text())
    if args.out:
        report.write_json(args.out)
    return 0 if report.passed else 1


def _cmd_reshape_stats(args) -> int:
    if args.out:
        _check_out_file(args.out)
    names = list(CANONICAL) if args.dataset == "all" else [args.dataset]
    for name in names:
        if name not in CANONICAL:
            raise LoopseqError(f"unknown dataset {name!r}; expected 'all' or one of {sorted(CANONICAL)}")
    factors = _parse_list("--concentration", args.concentration, int)
    rows = []
    for name in names:
        meta = CANONICAL[name]
        for c in factors:
            regime, n_rows, pad = reshape_law(meta["steps"], meta["width"], c)
            rows.append(
                {
                    "dataset": name,
                    "steps": meta["steps"],
                    "width": meta["width"],
                    "concentration": c,
                    "regime": regime,
                    "rows": n_rows,
                    "pad": pad,
                }
            )
    header = list(rows[0])
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(row[k]) for k in header))
    if args.out:
        import csv as _csv

        with open(args.out, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _cmd_report(args) -> int:
    path = render_report(args.results, stderr_aware=args.stderr_aware)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="one training run")
    _add_cell_flags(p_train)
    _add_run_flags(p_train, {"lr", "seed"})
    p_train.add_argument("--out", default=None, help="directory for run.json and run.log.jsonl")
    p_train.set_defaults(fn=_cmd_train)

    p_grid = sub.add_parser("grid", help="lr x seed grid, or a full plan file")
    _add_cell_flags(p_grid)
    p_grid.add_argument("--lrs", default="0.001,0.003", help="comma-separated learning rates")
    p_grid.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p_grid.add_argument("--plan", default=None, help="JSON plan file; overrides the cell flags")
    p_grid.add_argument("--workers", type=int, default=None, help="worker processes; parallelises across every lr x seed run of every cell")
    p_grid.add_argument("--out", default=None, help="directory for grid.json")
    p_grid.set_defaults(fn=_cmd_grid)

    p_verify = sub.add_parser("verify", help="run the audit suite")
    p_verify.add_argument("--fast", action="store_true", help="smaller containment batches, and each gradient tensor checked along one random direction instead of every coordinate")
    p_verify.add_argument("--out", default=None, help="write the JSON audit report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_stats = sub.add_parser("reshape-stats", help="sequence-reshaping law per corpus shape")
    p_stats.add_argument("--dataset", default="all")
    p_stats.add_argument("--concentration", default="1,8,16", help="comma-separated factors")
    p_stats.add_argument("--out", default=None, help="optional CSV output path")
    p_stats.set_defaults(fn=_cmd_reshape_stats)

    p_report = sub.add_parser("report", help="re-render markdown from results.csv")
    p_report.add_argument("--results", required=True, help="directory containing results.csv")
    p_report.add_argument(
        "--stderr-aware",
        action="store_true",
        help="add a Welch-test p-value column (diagnostic only)",
    )
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LoopseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
