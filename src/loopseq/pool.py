"""Independent jobs, each a module-level function and its arguments, run
in-process or on one process pool."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pooled(jobs: list[tuple], workers: int, lost) -> list:
    """`[fn(*args) for fn, args in jobs]`, on `min(workers, len(jobs))` processes.

    With at most one process the jobs run in-process and no child starts.
    A worker process that dies breaks the pool: each job not yet finished
    then gives `lost(args, exc)` for its `BrokenProcessPool`, and the jobs
    that finished keep their results.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*args) for fn, args in jobs]
    results = []
    # the default start method (fork on Linux) reuses this process's imports; spawn re-imports each
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for fn, args in jobs]
        for (_, args), future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(lost(args, exc))
    return results
