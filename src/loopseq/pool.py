"""Independent jobs, each a module-level function and its arguments, run
in-process or on one process pool; and one call run beside other work in a
forked child."""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from pathlib import Path

# every child this module starts is a fork, whatever the default start method:
# it reuses this process's imports and state, which spawn or forkserver re-import
_FORK = multiprocessing.get_context("fork")


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


@contextmanager
def one_blas_thread():
    """One BLAS thread in the with-block (`_one_blas_thread`), and the count this
    process had restored after it."""
    threads = _one_blas_thread()
    try:
        yield
    finally:
        if threads is not None:
            _openblas()[1](threads)


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
    with ProcessPoolExecutor(max_workers=workers, mp_context=_FORK, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(fn, *args) for fn, args in jobs]
        for (_, args), future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(lost(args, exc))
    return results


def _child(send, fn, args: tuple) -> None:
    """A `beside` child's whole life: fn(*args), then its result or exception sent."""
    try:
        outcome = True, fn(*args)
    except BaseException as exc:
        outcome = False, exc
    send.send(outcome)


@contextmanager
def beside(fn, args: tuple, fork: bool = True):
    """Run `fn(*args)` beside the with-block, which gets a join: a call that returns
    fn's result, or raises the exception fn raised.

    With `fork`, two or more usable CPUs, NumPy's own OpenBLAS, and outside
    any child this module starts (a pool fills the CPUs already, and a child
    forks no further), fn runs in a forked child (`_FORK`).  The fork is a
    snapshot of this process, so fn sees its arguments as they were at the
    `with`, whatever the block then changes, and runs this process's BLAS
    thread count (`train_one` holds one for its whole run).  The child's
    result comes back over a one-way pipe; a child that ends without all of
    it makes the join raise, naming its signal or exit status.  Leaving the
    block kills and reaps a child not yet joined.  Otherwise fn runs at the
    `with`, in-process.
    """
    if not (fork and usable_cpus() > 1 and _openblas() is not None and multiprocessing.parent_process() is None):
        value = fn(*args)
        yield lambda: value
        return
    recv, send = _FORK.Pipe(duplex=False)
    child = _FORK.Process(target=_child, args=(send, fn, args))
    outcome = []

    def join():
        if not outcome:
            with suppress(EOFError, OSError):  # the pipe ended before the whole result
                outcome.append(recv.recv())
            child.join()
            if not outcome:
                code = child.exitcode
                why = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
                error = f"the forked child running {getattr(fn, '__name__', fn)} {why} before its result"
                outcome.append((False, RuntimeError(error)))
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    try:
        child.start()
        send.close()  # the child's copy is now the only writer
        yield join
    finally:
        send.close()
        recv.close()
        if child.pid:
            child.kill()
            child.join()
        child.close()
