"""Independent jobs, each a module-level function and its arguments, run
in-process or on one process pool; and one call run beside other work in a
forked child."""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The (get, set) thread-count calls of the OpenBLAS bundled with NumPy's wheel
    (`numpy.libs`), or None for any other BLAS build."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            handle = ctypes.CDLL(str(lib))  # the copy NumPy has loaded already
            get, put = handle.scipy_openblas_get_num_threads64_, handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _one_blas_thread() -> int | None:
    """Limit this process's BLAS to one thread and return the count it had, or
    return None and change nothing when the BLAS build is unknown."""
    calls = _openblas()
    if calls is None:
        return None
    threads = calls[0]()
    calls[1](1)
    return threads


def run_pooled(jobs: list[tuple], workers: int, lost) -> list:
    """`[fn(*args) for fn, args in jobs]`, on `min(workers, len(jobs))` processes.

    With at most one process the jobs run in-process and no child starts.
    Each worker runs one BLAS thread, where the build allows setting it
    (`_one_blas_thread`): OpenBLAS starts one per core, so two workers would
    otherwise run four threads on two cores.  A worker process that dies
    breaks the pool: each job not yet finished then gives `lost(args, exc)`
    for its `BrokenProcessPool`, and the jobs that finished keep their
    results.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*args) for fn, args in jobs]
    results = []
    # the default start method (fork on Linux) reuses this process's imports; spawn re-imports each
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(fn, *args) for fn, args in jobs]
        for (_, args), future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(lost(args, exc))
    return results


def _child(out, fn, args: tuple):
    """The forked child's whole life: fn(*args), its result or exception pickled
    to the file `out`, then `os._exit`, so nothing of the parent's (its
    `finally` blocks, exit handlers, buffered output) runs twice."""
    code = 1
    try:
        try:
            outcome = (True, fn(*args))
        except BaseException as exc:
            outcome = (False, exc)
        out.write(pickle.dumps(outcome))
        out.close()
        code = 0
    finally:
        os._exit(code)


def _ended(fn, status: int) -> RuntimeError:
    """The error for a child that ended with wait status `status` before sending fn's result."""
    if os.WIFSIGNALED(status):
        why = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        why = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return RuntimeError(f"the forked child running {getattr(fn, '__name__', fn)} {why} before its result")


@contextmanager
def beside(fn, args: tuple, fork: bool = True):
    """Run `fn(*args)` beside the with-block, which gets a join: a call that returns
    fn's result, or raises the exception fn raised.

    With `fork`, two or more usable CPUs, NumPy's own OpenBLAS, and outside a
    pool worker (a pool fills the CPUs already), fn runs in a forked child.
    The fork is a snapshot of this process, so fn sees its arguments as they
    were at the `with`, whatever the block then changes.  BLAS runs one
    thread in both processes until the join, which restores this process's
    count.  The child's result comes back pickled over a pipe; a child that
    ends without one makes the join raise, naming its signal or exit status.
    Leaving the block kills and reaps a child not yet joined.  Otherwise fn
    runs at the `with`, in-process.
    """
    threads = _one_blas_thread() if fork and usable_cpus() > 1 and multiprocessing.parent_process() is None else None
    if threads is None:
        value = fn(*args)
        yield lambda: value
        return
    restore = _openblas()[1]
    read, write = os.pipe()
    reader, writer = open(read, "rb"), open(write, "wb")
    outcome, pid = [], 0

    def join():
        nonlocal pid
        if not outcome:
            data = reader.read()  # end of file once the child has ended, however it ended
            status = os.waitpid(pid, 0)[1]
            pid = 0
            restore(threads)
            outcome.append(pickle.loads(data) if data else (False, _ended(fn, status)))
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    try:
        pid = os.fork()
        if not pid:
            _child(writer, fn, args)
        writer.close()  # the child's copy is now the only writer
        yield join
    finally:
        writer.close()
        reader.close()
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        restore(threads)
