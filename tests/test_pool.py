"""Work beside work: evaluations in a forked child, and pool workers' BLAS threads.

`train_one` runs its initial loss beside epoch 0's steps, and each epoch's
test accuracy beside its validation accuracy, in a forked child
(`pool.beside`) once an evaluation's work reaches `train._FORK_WORK`.  The
tests force that on (threshold 0) and off (no threshold reached) and hold
the forked runs to the in-process ones bit for bit.
"""

import atexit
import math
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from loopseq import pool, report, train, verify
from loopseq.data import synth_sine_task
from loopseq.stack import build_stack
from loopseq.train import TrainConfig, train_one

needs_openblas = pytest.mark.skipif(pool._openblas() is None, reason="NumPy's bundled OpenBLAS is not loaded")

ARCHS = ("LRU", "S5", "LinOSS", "LrcSSM")
NEVER = 1 << 62  # a threshold no evaluation reaches


def _config(**kw) -> TrainConfig:
    base = dict(pattern="ABAB", supervision="block", lr=1e-2, batch_size=8, max_epochs=1, hidden=8, state=8)
    return TrainConfig(**{**base, **kw})


def _data():
    return synth_sine_task(n=24, steps=12, width=2, n_classes=2, noise=0.1, seed=0)


def _key(res) -> tuple:
    hexes = lambda xs: [float.hex(x) for x in xs]
    return (
        float.hex(res.initial_loss),
        hexes(res.train_losses),
        hexes(res.val_accs),
        hexes(res.test_accs),
        res.best_epoch,
        float.hex(res.best_val_acc),
        float.hex(res.test_acc_at_best),
        res.diverged,
        res.epochs_run,
        res.n_params,
    )


def _blas_threads() -> int:
    return pool._openblas()[0]()


@pytest.fixture
def forks(monkeypatch):
    """Every evaluation forks; yields the list of forks this process made.  After the
    test, this process has no child left, running or unreaped."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(train, "_FORK_WORK", 0)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_openblas
@pytest.mark.parametrize(
    "arch,epochs,hidden",
    [pytest.param(arch, 1, 8, id=f"{arch}-1") for arch in ARCHS]
    + [pytest.param("LRU", 2, 8, id="LRU-2"), pytest.param("LRU", 2, 60, id="LRU-2-H60")],
)
def test_forked_evaluations_keep_the_run_bits(arch, epochs, hidden, forks, monkeypatch, tmp_path):
    """The caller runs two BLAS threads, and at H = 60 a step's products take
    other bits at one thread and at two: the run computes on one thread, forked
    or not, and hands the caller back its two."""
    config, data = _config(arch=arch, max_epochs=epochs), _data()
    if hidden != 8:
        config, data = config.replace(hidden=hidden, state=hidden // 2), synth_sine_task(n=24, steps=100, width=2)
    threads = _blas_threads()
    pool._openblas()[1](2)
    try:
        forked = train_one(config, data, log_path=tmp_path / "forked.jsonl")
        assert _blas_threads() == 2
        assert len(forks) == 1 + epochs  # the initial loss, then each epoch's test accuracy
        monkeypatch.setattr(train, "_FORK_WORK", NEVER)
        serial = train_one(config, data, log_path=tmp_path / "serial.jsonl")
        assert _blas_threads() == 2
    finally:
        pool._openblas()[1](threads)
    assert len(forks) == 1 + epochs
    assert _key(forked) == _key(serial)
    assert forked.epochs_run == epochs and not forked.diverged
    assert (tmp_path / "forked.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


@needs_openblas
@pytest.mark.parametrize("threshold", [0, NEVER])
def test_a_non_finite_initial_loss_leaves_the_model_as_it_was(threshold, forks, monkeypatch, tmp_path):
    """A non-finite initial loss is read after epoch 0's steps, forked or not, and
    those steps are undone: the run is diverged with no epoch scored, and the
    caller's model is byte for byte the one it passed."""
    monkeypatch.setattr(train, "_FORK_WORK", threshold)
    config, data = _config(), _data()
    train_set = train.prepare_splits(data, config)[0]
    model = build_stack("LRU", config.stack(), width=train_set.width, n_classes=2, hidden=8, state=8,
                        rng=np.random.default_rng(0))
    before = [p.data.tobytes() for _, p in model.parameters()]
    steps = []
    adam_step = train.adam_step
    monkeypatch.setattr(train, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
    monkeypatch.setattr(train, "full_loss", lambda model, ds: math.nan)
    path = tmp_path / "run.jsonl"
    res = train_one(config, data, model=model, log_path=path)
    assert math.isnan(res.initial_loss) and res.diverged
    assert res.epochs_run == 0 and res.train_losses == res.val_accs == res.test_accs == []
    assert res.best_epoch == -1 and math.isnan(res.best_val_acc) and math.isnan(res.test_acc_at_best)
    assert len(steps) == 2  # epoch 0 stepped before the loss was read
    assert [p.data.tobytes() for _, p in model.parameters()] == before
    assert len(path.read_text().splitlines()) == 2  # the config and the final line


@needs_openblas
def test_a_child_that_raises_raises_in_the_parent(forks, monkeypatch):
    parent = os.getpid()

    def broken(model, ds):
        raise ValueError(f"broken in {'the child' if os.getpid() != parent else 'the parent'}")

    monkeypatch.setattr(train, "full_loss", broken)
    with pytest.raises(ValueError, match="broken in the child"):
        train_one(_config(), _data())
    assert len(forks) == 1


@needs_openblas
def test_a_killed_child_raises_naming_its_signal(forks, monkeypatch):
    parent = os.getpid()
    accuracy = train.accuracy

    def killed(model, ds):  # the test accuracy, in the child
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return accuracy(model, ds)

    monkeypatch.setattr(train, "accuracy", killed)
    with pytest.raises(RuntimeError, match="running killed was killed by SIGKILL"):
        train_one(_config(), _data())
    assert len(forks) == 2


def _big_result(mark):
    mark.touch()
    return bytes(8 << 20)  # far more than a pipe holds: the child blocks in its write


@needs_openblas
def test_a_child_killed_with_its_result_in_the_pipe_raises_naming_its_signal(forks, tmp_path):
    mark = tmp_path / "returning"
    with pool.beside(_big_result, (mark,)) as join:
        deadline = time.monotonic() + 60
        while not mark.exists():
            assert time.monotonic() < deadline, "the child never reached its return"
            time.sleep(0.01)
        time.sleep(0.2)  # part of the result is in the pipe
        os.kill(forks[-1], signal.SIGKILL)
        with pytest.raises(RuntimeError, match="running _big_result was killed by SIGKILL before its result"):
            join()
    assert len(forks) == 1


@needs_openblas
def test_a_child_runs_none_of_the_parents_exit_handlers(forks, tmp_path):
    mark = tmp_path / "exit handler ran"
    handler = mark.touch
    atexit.register(handler)
    try:
        with pool.beside(os.getpid, ()) as join:
            assert join() != os.getpid()
    finally:
        atexit.unregister(handler)
    assert len(forks) == 1
    assert not mark.exists()


@needs_openblas
def test_output_the_parent_had_not_flushed_appears_once(forks, capfd, monkeypatch):
    out = open(os.dup(1), "w", buffering=1 << 16)
    monkeypatch.setattr(sys, "stdout", out)
    print("written before the fork")
    with pool.beside(os.getpid, ()) as join:
        join()
    out.close()
    assert len(forks) == 1
    assert capfd.readouterr().out.count("written before the fork") == 1


def _beside_in_a_child() -> bool:
    """Whether a `beside` call in a `beside` child ran its fn in that child."""
    with pool.beside(os.getpid, ()) as join:
        return join() == os.getpid()


@needs_openblas
def test_beside_in_a_beside_child_runs_in_process(forks):
    with pool.beside(_beside_in_a_child, ()) as join:
        assert join() is True
    assert len(forks) == 1


_SET_AFTER_IMPORT = None


def _read_set_after_import():
    return _SET_AFTER_IMPORT


@needs_openblas
def test_children_fork_whatever_the_default_start_method(forks, monkeypatch):
    """Both kinds of child are forks of this process, so they read what it set
    after import, even where the default start method re-imports."""
    monkeypatch.setitem(globals(), "_SET_AFTER_IMPORT", "set by the parent")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        got = pool.run_pooled([(_read_set_after_import, ())] * 2, 2, lambda args, exc: f"lost: {exc}")
        with pool.beside(_read_set_after_import, ()) as join:
            got.append(join())
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert got == ["set by the parent"] * 3


@needs_openblas
def test_an_error_in_the_step_loop_kills_and_reaps_the_child(forks, monkeypatch):
    parent = os.getpid()
    full_loss = train.full_loss

    def slow(model, ds):
        if os.getpid() != parent:
            time.sleep(120)
        return full_loss(model, ds)

    def step(*args):
        raise KeyError("a step failed")

    monkeypatch.setattr(train, "full_loss", slow)
    monkeypatch.setattr(train, "adam_step", step)
    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="a step failed"):
        train_one(_config(), _data())
    assert time.perf_counter() - t0 < 60  # killed, not waited for
    assert len(forks) == 1


@needs_openblas
def test_beside_child_runs_the_callers_blas_threads(monkeypatch):
    """The child inherits the caller's BLAS thread count, and `beside` leaves the
    caller's count as it was, joined or not."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    threads = _blas_threads()
    pool._openblas()[1](2)
    try:
        with pool.beside(_blas_threads, ()) as join:
            assert _blas_threads() == 2
            assert join() == 2
            assert _blas_threads() == 2
        with pytest.raises(ZeroDivisionError):
            with pool.beside(_blas_threads, ()):
                1 / 0
        assert _blas_threads() == 2
    finally:
        pool._openblas()[1](threads)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_openblas
def test_pool_workers_run_one_blas_thread():
    threads = _blas_threads()
    pool._openblas()[1](2)
    try:
        got = pool.run_pooled([(_blas_threads, ()), (_blas_threads, ())], 2, lambda args, exc: exc)
        assert got == [1, 1]
        assert _blas_threads() == 2  # the caller keeps its count
    finally:
        pool._openblas()[1](threads)


def test_an_unknown_blas_build_runs_in_process(monkeypatch):
    monkeypatch.setattr(pool, "_openblas", lambda: None)
    monkeypatch.setattr(train, "_FORK_WORK", 0)

    def no_fork():
        raise AssertionError("forked with an unknown BLAS build")

    monkeypatch.setattr(os, "fork", no_fork)
    assert pool._one_blas_thread() is None
    assert train_one(_config(), _data()).epochs_run == 1


def _train_in_a_worker(config, data) -> tuple:
    """`train_one` in a pool worker with every evaluation above the fork threshold and
    `os.fork` refusing: a worker must still evaluate in-process."""

    def no_fork():
        raise AssertionError("a pool worker forked")

    train._FORK_WORK = 0
    os.fork = no_fork
    return _key(train_one(config, data))


def test_small_work_never_forks(monkeypatch, tmp_path):
    """The synth-grid and audit shapes stay under the fork threshold, and a pool
    worker never forks, whatever the work."""
    config, data = _config(max_epochs=2), _data()
    in_process = _key(train_one(config, data))
    lost = lambda args, exc: f"lost: {exc}"
    assert pool.run_pooled([(_train_in_a_worker, (config, data))] * 2, 2, lost) == [in_process] * 2

    def no_fork():
        raise AssertionError("forked below the fork threshold")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)  # its checks run in-process
    assert verify.run_all(fast=True).passed
    plan = report.ExperimentPlan(
        datasets=["synth"],
        archs=list(ARCHS),
        patterns=["AAAAAA", "ABCDEF"],
        supervisions=["final"],
        concentrations=[1, 4],
        lrs=[1e-3],
        seeds=[0],
        out_dir=str(tmp_path / "plan"),
        batch_size=32,
        max_epochs=2,
        patience=2,
        hidden=16,
        state=16,
        synth=dict(n=46, steps=100, width=2, n_classes=2, seed=0),
    )
    rows = report.run_plan(plan).read_text().splitlines()
    assert len(rows) == 1 + 16
