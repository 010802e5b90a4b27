"""Training harness: Adam, gradient clipping, early stopping, lr selection.

Everything is deterministic given the config: the split, the parameter
init, and the per-epoch shuffles each draw from independent child
streams of the config seed, and a run computes on one BLAS thread, so two
runs of the same config produce bit-identical curves, forked evaluations
or not.

Per run we record the pre-update loss over the full train portion
(`initial_loss`), per-epoch mean minibatch loss, validation/test
accuracy per epoch, and the test accuracy at the best-validation epoch.
The training steps and the evaluations (`full_loss`, `accuracy`) run the
stack's one streamed pass over chunks of time steps, the steps under a
tape and the evaluations without one; an evaluation keeps nothing for a
backward, so its memory follows a chunk rather than the series length.
Where an evaluation is large enough to be worth a fork, the initial
loss runs beside epoch 0's steps and each epoch's test accuracy beside
its validation accuracy, in a forked child (`pool.beside`), on the
parameters as they were when it started.
Non-finite losses, gradients, parameters or evaluation logits mark the
run diverged and end it; the epoch in which that happens is not scored.

A run, one (config, dataset) job, is the unit of work: `run_jobs` trains
a list of them in-process or on one process pool, and `grid_and_seeds`
selects the learning rate from one cell's finished lr x seed runs,
skipping diverged runs and reporting them.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import ARCHS
from .data import Dataset, apply_reshape, normalize, split_dataset
from .errors import AggregationError, ConfigError
from .pool import beside, one_blas_thread, run_pooled
from .stack import StackConfig, StackModel, build_stack, eval_loss, parse_pattern, predict_logits, stack_loss

_EVAL_BATCH = 256
# an evaluation runs in a forked child (`_beside`) from this much work on: examples
# x time steps x block applications x hidden size.  A fork and join take 3-6 ms
# at 80-230 MiB of RSS (one BLAS thread), and an evaluation takes 40-90 ns per
# unit of work, so one of this size takes 0.17-0.38 s, over 30 forks and joins.
# The largest synth, audit or test-suite evaluation (criterion 7's 358-example
# train split) is 0.82 of it; a Worms-length example at H = 64 is 1.6 of it
_FORK_WORK = 1 << 22

log = logging.getLogger(__name__)

# each TrainConfig annotation: the types its values may have (never a bool), and their name in errors
_FIELD_KINDS = {
    "str": (str, "a string"),
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "float | None": ((numbers.Real, type(None)), "a real number or None"),
}
# the least value of each integer TrainConfig field
_LEAST = {"concentration": 1, "seed": 0, "batch_size": 1, "max_epochs": 0, "patience": 0, "hidden": 1, "state": 1}


@dataclass(frozen=True)
class TrainConfig:
    arch: str = "LRU"
    pattern: str = "AAAAAA"
    supervision: str = "final"
    concentration: int = 1
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    clip_norm: float | None = 1.0
    hidden: int = 64
    state: int = 64

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, label = _FIELD_KINDS[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {label}, got {value!r}")
            if f.type == "int" and value < _LEAST[f.name]:
                raise ConfigError(f"{f.name} must be >= {_LEAST[f.name]}, got {value}")
        self.stack()  # refuses a malformed pattern or an unknown supervision
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}; expected one of {list(ARCHS)}")
        if not 0 < self.lr < float("inf"):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.clip_norm is not None and not 0 < self.clip_norm < float("inf"):
            raise ConfigError(f"clip_norm must be positive and finite or None, got {self.clip_norm}")

    def stack(self) -> StackConfig:
        """The shape of the stack this run trains: its pattern under its supervision."""
        return parse_pattern(self.pattern, self.supervision)

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)


# --- optimizer --------------------------------------------------------------------


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: list, grads: dict) -> None:
    """One in-place update; `params` is [(name, tensor)], grads maps tensor -> Tensor.

    With bias correction the first step reduces to
    theta -= lr * g / (|g| + eps), which the tests pin down exactly.
    """
    state.step += 1
    t = state.step
    b1, b2 = _BETA1, _BETA2
    # bias-corrected step size, folding the corrections into the scalars
    correction = np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    for name, p in params:
        g = grads[p].data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= state.lr * correction * m / (np.sqrt(v) + _EPS * np.sqrt(1.0 - b2**t))


def clip_global_norm(grads: list, max_norm: float) -> float:
    """Scale the `Tensor` gradients in place so their joint L2 norm is at most `max_norm`,
    summing their squares in list order (`train_one` lists them in parameter order)."""
    total = 0.0
    arrays = [g.data for g in grads]
    for g in arrays:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in arrays:
            g *= scale
    return norm


# --- single runs -------------------------------------------------------------------


@dataclass
class RunResult:
    config: TrainConfig
    n_params: int
    initial_loss: float
    train_losses: list[float]
    val_accs: list[float]
    test_accs: list[float]
    best_epoch: int
    best_val_acc: float
    test_acc_at_best: float
    diverged: bool
    epochs_run: int
    elapsed_seconds: float


def prepare_splits(ds: Dataset, config: TrainConfig) -> list[Dataset]:
    """The train, validation and test sets: seeded split, train-statistics
    normalization, then reshaping."""
    parts = normalize(ds, split_dataset(ds, config.seed))
    for i, part in enumerate(parts):  # each split is freed once a padded copy replaces it
        parts[i] = apply_reshape(part, config.concentration)
    return parts


def full_loss(model: StackModel, ds: Dataset) -> float:
    """Mean loss over a whole dataset, streamed without recording gradients."""
    total, n = 0.0, ds.n
    for lo in range(0, n, _EVAL_BATCH):
        batch = slice(lo, lo + _EVAL_BATCH)  # a view: the batch's input is not copied
        total += eval_loss(model, ds.series[batch], ds.labels[batch]) * len(ds.labels[batch])
    return total / n


def accuracy(model: StackModel, ds: Dataset) -> float:
    """Fraction of examples whose argmax logit is the label; NaN when any logit is non-finite."""
    hits, n = 0, ds.n
    for lo in range(0, n, _EVAL_BATCH):
        batch = slice(lo, lo + _EVAL_BATCH)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logits = predict_logits(model, ds.series[batch])
        if not np.isfinite(logits).all():
            return float("nan")
        hits += int((logits.argmax(axis=-1) == ds.labels[batch]).sum())
    return hits / n


def _beside(fn, model: StackModel, ds: Dataset):
    """`pool.beside(fn, (model, ds))`, forking only when the evaluation's work reaches `_FORK_WORK`."""
    work = ds.n * ds.steps * model.config.depth * model.encoder.weight.shape[1]
    return beside(fn, (model, ds), fork=work >= _FORK_WORK)


def train_one(
    config: TrainConfig,
    dataset: Dataset,
    model: StackModel | None = None,
    log_path=None,
) -> RunResult:
    """Train one model on one seeded split of `dataset`.

    `model` overrides the seeded init (the split and shuffles still
    follow the config seed), which lets callers compare differently
    expressed but numerically identical stacks under the same data
    order.
    """
    t0 = time.perf_counter()
    train_set, val_set, test_set = prepare_splits(dataset, config)
    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    if model is None:
        model = build_stack(
            config.arch,
            config.stack(),
            width=train_set.width,
            n_classes=dataset.n_classes,
            hidden=config.hidden,
            state=config.state,
            rng=np.random.default_rng(init_seq),
        )
    shuffle_rng = np.random.default_rng(shuffle_seq)
    params = model.parameters()
    opt = AdamState(lr=config.lr)

    def log_line(record: dict, mode: str = "a") -> None:
        # each line is written and flushed as it is known, so a killed run keeps its epochs
        if log_path is not None:
            with open(log_path, mode) as fh:
                fh.write(json.dumps(record) + "\n")

    log_line({"config": dataclasses.asdict(config)}, "w")

    train_losses: list[float] = []
    val_accs: list[float] = []
    test_accs: list[float] = []
    best_val, best_epoch, best_test = -1.0, -1, float("nan")
    diverged = False
    bad = 0
    at_start = [p.data.copy() for _, p in params]

    # one BLAS thread for the whole run, which a forked evaluation inherits: a
    # product's bits can depend on the thread count, so no step takes the caller's
    with one_blas_thread(), _beside(full_loss, model, train_set) as initial:
        for epoch in range(config.max_epochs):
            perm = shuffle_rng.permutation(train_set.n)
            epoch_loss, seen = 0.0, 0
            for lo in range(0, train_set.n, config.batch_size):
                idx = perm[lo : lo + config.batch_size]
                # divergence is detected by the finite checks below, so the
                # intermediate overflow warnings on the way there are noise
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"), ad.Tape():
                    loss = stack_loss(model, train_set.series[idx], train_set.labels[idx])
                    grads = ad.backward(loss, [p for _, p in params])
                value = float(loss.data)
                if not np.isfinite(value) or any(
                    not np.isfinite(g.data).all() for g in grads.values()
                ):
                    diverged = True
                    break
                if config.clip_norm is not None:
                    clip_global_norm([grads[p] for _, p in params], config.clip_norm)
                adam_step(opt, params, grads)
                if any(not np.isfinite(p.data).all() for _, p in params):
                    diverged = True
                    break
                epoch_loss += value * len(idx)
                seen += len(idx)
            if epoch == 0 and not np.isfinite(initial()):
                # the model had diverged before its first step, which ran beside the
                # initial loss: the run is unscored, and its steps are undone
                for (_, p), data in zip(params, at_start):
                    p.data[...] = data
                diverged = True
            if diverged:
                break
            # finite parameters can still overflow to non-finite logits
            with _beside(accuracy, model, test_set) as test:
                val_acc = accuracy(model, val_set)
                test_acc = test()
            if not np.isfinite(val_acc + test_acc):
                diverged = True
                break
            train_losses.append(epoch_loss / seen)
            val_accs.append(val_acc)
            test_accs.append(test_acc)
            log_line({"epoch": epoch, "train_loss": train_losses[-1], "val_acc": val_acc, "test_acc": test_acc})
            if val_accs[-1] > best_val:
                best_val, best_epoch, best_test = val_accs[-1], epoch, test_accs[-1]
                bad = 0
            else:
                bad += 1
                if bad > config.patience:
                    break
        initial_loss = initial()
    diverged = diverged or not np.isfinite(initial_loss)

    elapsed = time.perf_counter() - t0
    result = RunResult(
        config=config,
        n_params=model.n_params(),
        initial_loss=initial_loss,
        train_losses=train_losses,
        val_accs=val_accs,
        test_accs=test_accs,
        best_epoch=best_epoch,
        best_val_acc=best_val if best_epoch >= 0 else float("nan"),
        test_acc_at_best=best_test,
        diverged=diverged,
        epochs_run=len(train_losses),
        elapsed_seconds=elapsed,
    )
    final = ("best_epoch", "best_val_acc", "test_acc_at_best", "diverged")
    log_line({"final": {k: getattr(result, k) for k in final}})
    return result


# --- runs and grids -----------------------------------------------------------------


def _attempt(job: tuple[TrainConfig, Dataset]) -> RunResult | str:
    """`train_one(*job)`, or the text of the exception it raised, logged with its traceback."""
    try:
        return train_one(*job)
    except Exception as exc:
        log.exception("run %s failed", job[0])
        return f"{type(exc).__name__}: {exc}"


def run_jobs(jobs: list[tuple[TrainConfig, Dataset]], workers: int | None = None) -> list:
    """Train every (config, dataset) job, in-process or on up to `workers` processes.

    Each job gives its `RunResult` or the text of the exception it raised,
    so a failed run costs only itself. A worker process that dies breaks
    the pool: every run not yet finished then reports `BrokenProcessPool`.
    """
    lost = lambda args, exc: f"BrokenProcessPool: {exc}"
    return run_pooled([(_attempt, (job,)) for job in jobs], workers or 1, lost)


@dataclass
class GridResult:
    chosen_lr: float
    lr_val_means: dict[float, float]
    seed_test_accs: list[float]  # at the chosen lr, valid seeds only
    seeds: list[int]
    diverged_seeds: list[int]  # at the chosen lr
    mean_test_acc: float
    std_test_acc: float  # population std (ddof=0)


def grid_and_seeds(runs: list[RunResult]) -> GridResult:
    """Pick the lr with the best mean validation accuracy over its
    non-diverged runs, and report the per-seed test accuracies at that lr.

    `runs` are one cell's finished lr x seed runs; each run's lr and seed
    are read from its config, and lrs and seeds keep the order of `runs`.
    """
    by_lr: dict[float, list[RunResult]] = {}
    for run in runs:
        by_lr.setdefault(run.config.lr, []).append(run)
    lr_val_means: dict[float, float] = {}
    for lr, lr_runs in by_lr.items():
        valid = [r.best_val_acc for r in lr_runs if not r.diverged]
        lr_val_means[lr] = float(np.mean(valid)) if valid else float("nan")
    usable = [lr for lr in by_lr if np.isfinite(lr_val_means[lr])]
    if not usable:
        raise AggregationError("every run in the grid diverged; nothing to select")
    chosen = max(usable, key=lambda lr: lr_val_means[lr])

    chosen_runs = by_lr[chosen]
    test_accs = [r.test_acc_at_best for r in chosen_runs if not r.diverged]
    return GridResult(
        chosen_lr=chosen,
        lr_val_means=lr_val_means,
        seed_test_accs=test_accs,
        seeds=[r.config.seed for r in chosen_runs],
        diverged_seeds=[r.config.seed for r in chosen_runs if r.diverged],
        mean_test_acc=float(np.mean(test_accs)),
        std_test_acc=float(np.std(test_accs, ddof=0)),
    )
