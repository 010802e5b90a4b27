"""One benchmark worker process: set up one workload and, unless only set-up
is measured, run its timed call once and check the outputs.

    python3 perfbench/worker.py --workload worms-long --variant 3 --mode run \
        --workdir DIR --result DIR/result.json

Modes: `setup` stops after set-up; `run` adds the timed call with only the
light probes installed; `trace` adds the spans and writes them to --spans.
The report (JSON) records when set-up ended on the system-wide monotonic
clock, so the parent can measure set-up from the moment it spawned us.
"""

from __future__ import annotations

import argparse
import ctypes
from contextlib import nullcontext
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# refuse allocations beyond this instead of pushing the machine out of memory
MEMORY_CAP_BYTES = 6 << 30


def mem_total_kib() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library NumPy has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kib": mem_total_kib(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans (.jsonl.gz)")
    args = parser.parse_args()

    cap = min(MEMORY_CAP_BYTES, int(0.8 * (mem_total_kib() or 0) * 1024) or MEMORY_CAP_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import workloads
    from tracer import Probe, Tracer

    workload = workloads.WORKLOADS[args.workload](args.variant, Path(args.workdir))
    report = {"ready": time.monotonic(), "env": {**environment(), "variant": args.variant}}
    if args.mode != "setup":
        probe = Probe()
        probe.install()
        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.root(workload.root_layer) if tracer is not None else nullcontext():
            output = workload.call()
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
        probe.restore()

        report["run_s"] = run_s
        report.update(probe.summary())
        report["ops"] = workload.check(output, probe.runs, workloads.load_references())
        if tracer is not None:
            report["layers"] = {**tracer.metrics(run_s), "data.load_s": getattr(workload, "load_s", 0.0)}
            if args.spans:
                tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
