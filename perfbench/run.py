"""loopseq benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload synth-grid --seed 3 --seconds 30 --trace 0

Run from the repository root.  Every unit of work runs in a fresh worker
process (perfbench/worker.py), one at a time, with one BLAS thread, so a
worker the kernel kills or one that raises costs only its own operations.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json:
  * setup_s: worker process start to its first timed call (imports, input
    generation, `.ts` writing and parsing), median over every worker of
    the run, including extra set-up-only workers;
  * run_s: wall time of the workload's timed call, median over units;
  * peak_rss_mib: maximum RSS of each unit's worker, median over units.
Units repeat while the next one is expected to end within --seconds; the
first always runs.

--trace 1 runs one untraced unit and one traced unit (perfbench/tracer.py)
and prints the per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only when every operation
passed its output check; without the loopseq sources the command exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a seed picks one of this many input variants; each has stored reference losses
VARIANTS = 16
# the whole command must end within 180 s; stop starting work well before
DEADLINE_S = 165.0

# operations per unit (plan cells, train runs, audit checks) and the number of
# extra set-up-only workers per run
WORKLOADS = {
    "synth-grid": {"ops": 24, "extra_setups": 4},
    "worms-long": {"ops": 1, "extra_setups": 2},
    "audit-fast": {"ops": 34, "extra_setups": 4},
}
ARCHS = ("LRU", "S5", "LinOSS", "LrcSSM")  # loopseq.blocks.ARCHS; this process never imports loopseq


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # workers never write byte-code, so the first run in a checkout imports
    # the same way as every later one
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn_worker(
    workload: str, variant: int, mode: str, workdir: Path, timeout: float, extra=()
) -> dict:
    """Run one worker to completion; return its report plus exit status and peak RSS."""
    unit_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=workdir))
    result_path = unit_dir / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--variant", str(variant),
        "--mode", mode,
        "--workdir", str(unit_dir),
        "--result", str(result_path),
        *extra,
    ]
    log_path = unit_dir / "worker.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=worker_env())
        status, usage, killed = _wait(proc, spawned + max(timeout, 1.0))
    report = {"mode": mode, "spawned": spawned, "exit": status, "timed_out": killed}
    report["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    if status == 0 and result_path.exists():
        report.update(json.loads(result_path.read_text()))
        report["setup_s"] = report["ready"] - spawned
    else:
        tail = log_path.read_text().splitlines()[-15:]
        report["log_tail"] = tail
        print(f"worker {mode} for {workload} failed with exit status {status}", file=sys.stderr)
        for line in tail:
            print(f"  | {line}", file=sys.stderr)
    return report


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the worker with wait4 (for its rusage), killing it at the deadline."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            killed = True
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed


def median(values):
    return statistics.median(values) if values else None


def count_ops(workers: list[dict], expected: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  A unit's worker that died fails all its
    operations; a set-up-only worker that died fails one."""
    attempted = failed = 0
    reasons = []
    for w in workers:
        if w["exit"] == 0:
            ops = w.get("ops", [])
            attempted += len(ops)
            for name, ok, why in ops:
                if not ok:
                    failed += 1
                    reasons.append(f"{name}: {why}")
            continue
        n = 1 if w["mode"] == "setup" else expected
        attempted += n
        failed += n
        why = "killed at the deadline" if w["timed_out"] else f"exit status {w['exit']}"
        reasons.append(f"{w['mode']} worker: {why}")
    return attempted, failed, reasons


def measure(args, variant: int, workdir: Path, started: float, spans: Path) -> list[dict]:
    """Spawn the run's workers one at a time and return their reports."""
    remaining = lambda: DEADLINE_S - (time.monotonic() - started)
    spawn = lambda mode, *extra: spawn_worker(args.workload, variant, mode, workdir, remaining(), extra)
    if args.trace:
        return [spawn("run"), spawn("trace", "--spans", str(spans))]
    workers = [spawn("setup") for _ in range(WORKLOADS[args.workload]["extra_setups"])]
    t0 = time.monotonic()
    while True:
        before = time.monotonic()
        workers.append(spawn("run"))
        last = time.monotonic() - before
        if time.monotonic() - t0 + last > args.seconds or last > remaining():
            return workers


def trace_metrics(workers: list[dict]) -> dict:
    plain, traced = workers
    if "layers" not in traced:
        return {}
    metrics = dict(traced["layers"])
    if "run_s" in plain:
        metrics["trace.untraced_run_s"] = plain["run_s"]
        metrics["trace.overhead_s"] = traced["layers"]["trace.run_s"] - plain["run_s"]
        for arch in ARCHS:
            metrics[f"train_s.{arch}"] = plain["train_s"].get(arch, 0.0)
        metrics["train_examples_per_s"] = plain["train_examples_per_s"]
    return metrics


def summary_rows(workers: list[dict], attempted: int, failed: int) -> list[tuple]:
    """The end-to-end figures of the untraced workers, by name, value and unit."""
    ran = [u for u in workers if u["mode"] == "run" and "run_s" in u]
    rows = [
        ("setup_s", median([u["setup_s"] for u in workers if "setup_s" in u]), "s"),
        ("run_s", median([u["run_s"] for u in ran]), "s"),
        ("train_examples_per_s", median([u["train_examples_per_s"] for u in ran]), "1/s"),
    ]
    for arch in ARCHS:
        rows.append((f"train_s.{arch}", median([u["train_s"][arch] for u in ran if arch in u["train_s"]]), "s"))
    rows.append(("peak_rss_mib", median([u["peak_rss_mib"] for u in ran]), "MiB"))
    rows.append(("failed_frac", failed / attempted if attempted else None, "ratio"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "loopseq" / "__init__.py").is_file():
        print(f"loopseq sources not found under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    variant = args.seed % VARIANTS
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workers = measure(args, variant, Path(tmp), started, out_dir / f"{stem}-spans.jsonl.gz")

    if not any(w["exit"] == 0 for w in workers):
        print("no worker completed; no result", file=sys.stderr)
        return 1
    attempted, failed, reasons = count_ops(workers, WORKLOADS[args.workload]["ops"])

    env = next((w["env"] for w in workers if "env" in w), {})
    print(f"workload {args.workload}  seed {args.seed} (input variant {variant})  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    rows = summary_rows(workers, attempted, failed)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>12} {unit}")
    for reason in reasons:
        print(f"  FAILED {reason}")

    metrics = trace_metrics(workers) if args.trace else {name: value for name, value, _ in rows}
    # a metric is missing only when its worker failed, which makes the run incorrect
    out_metrics = {m["name"]: {"value": metrics.get(m["name"]) or 0.0, "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name in sorted(out_metrics):
            print(f"  {name:<28} {out_metrics[name]['value']:>14.6g} {out_metrics[name]['unit']}")

    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "metrics": out_metrics,
        "workers": workers,
    }
    result_file = out_dir / f"{stem}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"result file {result_file}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
