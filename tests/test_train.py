"""Training harness: optimizer math, determinism, early stop, divergence, runs, grids."""

import json
import os

import numpy as np
import pytest

from loopseq import autodiff as ad
from loopseq import train as train_mod
from loopseq.autodiff import Tensor
from loopseq.data import synth_sine_task
from loopseq.errors import AggregationError, ConfigError, DataError
from loopseq.stack import StackConfig, build_stack, embed_periodic
from loopseq.train import (
    AdamState,
    GridResult,
    RunResult,
    TrainConfig,
    adam_step,
    clip_global_norm,
    full_loss,
    grid_and_seeds,
    prepare_splits,
    run_jobs,
    train_one,
)


def _tiny_config(**kw) -> TrainConfig:
    base = dict(
        arch="LRU",
        pattern="2,1",
        supervision="final",
        concentration=1,
        lr=1e-2,
        seed=0,
        batch_size=16,
        max_epochs=2,
        patience=20,
        hidden=6,
        state=4,
    )
    base.update(kw)
    return TrainConfig(**base)


def _tiny_data(n=48, steps=16, seed=0, noise=0.1):
    return synth_sine_task(n=n, steps=steps, width=2, n_classes=2, noise=noise, seed=seed)


# --- Adam --------------------------------------------------------------------------


def test_adam_first_step_closed_form():
    # with bias correction the first update is exactly -lr * g / (|g| + eps)
    theta = ad.param(np.array([1.0, -2.0, 0.5]))
    g = np.array([0.3, -4.0, 1e-12])
    state = AdamState(lr=0.07)
    adam_step(state, [("theta", theta)], {theta: Tensor(g)})
    expected = np.array([1.0, -2.0, 0.5]) - 0.07 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(theta.data, expected, rtol=1e-12, atol=0)


def test_adam_matches_reference_implementation():
    # independent oracle: the textbook m-hat / v-hat form
    rng = np.random.default_rng(0)
    theta = ad.param(rng.standard_normal(5))
    ref = theta.data.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    state = AdamState(lr=lr)
    for t in range(1, 30):
        g = rng.standard_normal(5)
        adam_step(state, [("theta", theta)], {theta: Tensor(g.copy())})
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(theta.data, ref, rtol=1e-12, atol=1e-14)


def test_adam_minimizes_quadratic_bowl():
    target = np.array([3.0, -1.5, 0.25, 8.0])
    theta = ad.param(np.zeros(4))
    state = AdamState(lr=0.05)
    for _ in range(2000):
        g = 2.0 * (theta.data - target)
        adam_step(state, [("theta", theta)], {theta: Tensor(g)})
        if np.max(np.abs(theta.data - target)) < 1e-8:
            break
    assert np.max(np.abs(theta.data - target)) < 1e-6


def test_clip_global_norm():
    a, b = Tensor(np.array([3.0, 0.0])), Tensor(np.array([0.0, 4.0]))
    grads = {"a": a, "b": b}
    norm = clip_global_norm(grads, 2.5)
    assert norm == pytest.approx(5.0)
    joint = np.sqrt(np.sum(a.data**2) + np.sum(b.data**2))
    assert joint == pytest.approx(2.5)
    # under the threshold nothing moves
    c = Tensor(np.array([0.1, 0.1]))
    before = c.data.copy()
    clip_global_norm({"c": c}, 2.5)
    np.testing.assert_array_equal(c.data, before)



def test_clip_global_norm_scales_a_sum_gradient_in_place():
    """`sum_`'s adjoint is a read-only broadcast view; `backward` hands out a writable copy."""
    p = ad.param(np.zeros((4, 3)))
    with ad.Tape():
        grads = ad.backward(p.sum(), [p])
    norm = clip_global_norm(grads, 1.0)
    assert norm == np.sqrt(12.0)
    np.testing.assert_array_equal(grads[p].data, np.full((4, 3), 1.0 / np.sqrt(12.0)))


@pytest.mark.parametrize("view", [False, True], ids=["same-array", "reshaped-view"])
def test_clip_global_norm_scales_leaves_that_shared_a_cotangent_once(view):
    """`add` hands one cotangent to both parents (a reshape's adjoint, a view of it),
    so `backward` must copy the second before `clip_global_norm` scales both in place."""
    p, q = ad.param(np.zeros((3, 1) if view else 3)), ad.param(np.zeros(3))
    with ad.Tape():
        x = ad.reshape(p, (3,)) if view else p
        grads = ad.backward(((x + q) * 2.0).sum(), [p, q])
    assert not np.shares_memory(grads[p].data, grads[q].data)
    assert clip_global_norm(grads, 1.0) == np.sqrt(24.0)
    scaled = 2.0 * (1.0 / np.sqrt(24.0))  # 0.408; scaling one array twice gave 0.0833
    np.testing.assert_array_equal(grads[p].data.reshape(3), np.full(3, scaled))
    np.testing.assert_array_equal(grads[q].data, np.full(3, scaled))


# --- single runs ---------------------------------------------------------------------


def test_train_one_shapes_and_ranges():
    res = train_one(_tiny_config(), _tiny_data())
    assert res.epochs_run == 2
    assert len(res.train_losses) == len(res.val_accs) == len(res.test_accs) == 2
    assert np.isfinite(res.initial_loss)
    assert all(0.0 <= a <= 1.0 for a in res.val_accs + res.test_accs)
    assert res.n_params > 0
    assert not res.diverged
    assert 0 <= res.best_epoch < 2


def test_train_one_bit_identical_across_runs():
    a = train_one(_tiny_config(), _tiny_data())
    b = train_one(_tiny_config(), _tiny_data())
    assert a.train_losses == b.train_losses
    assert a.val_accs == b.val_accs and a.test_accs == b.test_accs
    assert a.initial_loss == b.initial_loss


def test_train_one_seed_changes_run():
    a = train_one(_tiny_config(seed=0), _tiny_data())
    b = train_one(_tiny_config(seed=1), _tiny_data())
    assert a.initial_loss != b.initial_loss


def test_initial_loss_is_pre_update():
    # max_epochs=0 performs no updates, so initial_loss is the loss at init
    cfg = _tiny_config(max_epochs=0)
    data = _tiny_data()
    res = train_one(cfg, data)
    assert res.epochs_run == 0 and res.train_losses == []
    again = train_one(cfg, data)
    assert res.initial_loss == again.initial_loss


def test_patience_zero_stops_after_first_non_improvement():
    # an effectively frozen model keeps validation accuracy constant, so
    # epoch 0 sets the best and epoch 1 triggers the stop
    res = train_one(_tiny_config(lr=1e-12, max_epochs=50, patience=0), _tiny_data())
    assert res.epochs_run == 2
    assert res.best_epoch == 0


def test_divergent_lr_flags_and_aborts():
    res = train_one(_tiny_config(lr=1e5, max_epochs=30, clip_norm=None), _tiny_data())
    assert res.diverged
    assert res.epochs_run == 0 and res.train_losses == []
    assert np.isfinite(res.initial_loss)


def test_overflowing_update_is_diverged_and_unscored():
    """lr = 1e308 leaves every parameter finite but the logits NaN; an
    all-NaN row's argmax is 0, which must not score as an accuracy."""
    res = train_one(TrainConfig(lr=1e308, max_epochs=1, hidden=4, state=4), synth_sine_task(n=8, steps=10))
    assert res.diverged
    assert res.epochs_run == 0 and res.val_accs == [] and res.test_accs == []
    assert np.isnan(res.best_val_acc)


def test_update_to_a_non_finite_parameter_is_diverged(monkeypatch):
    """A step that leaves a parameter infinite ends the run at that step,
    even where the logits stay finite (LRU's exp(-exp(inf)) is 0)."""
    real = train_mod.adam_step

    def step(state, params, grads):
        real(state, params, grads)
        dict(params)["blocks.0.nu_log"].data[0] = np.inf

    monkeypatch.setattr(train_mod, "adam_step", step)
    res = train_one(_tiny_config(max_epochs=1, batch_size=64), _tiny_data())
    assert res.diverged
    assert res.epochs_run == 0 and res.val_accs == []


def test_training_improves_on_separable_task():
    data = synth_sine_task(n=120, steps=32, width=2, n_classes=2, noise=0.05, seed=3)
    cfg = _tiny_config(hidden=12, state=12, max_epochs=15, lr=1e-2, batch_size=32)
    res = train_one(cfg, data)
    assert res.best_val_acc >= 0.7
    assert res.train_losses[-1] < res.initial_loss


def test_model_override_and_embedding_keep_initial_loss():
    data = _tiny_data()
    cfg = _tiny_config(max_epochs=0, pattern="AAAAAA", hidden=6, state=4)
    train_set, _, _ = prepare_splits(data, cfg)
    model = build_stack(
        "LRU",
        StackConfig(depth=6, n_unique=1),
        width=train_set.width,
        n_classes=data.n_classes,
        hidden=6,
        state=4,
        rng=7,
    )
    tied = train_one(cfg, data, model=model)
    untied = train_one(cfg.replace(pattern="ABCDEF"), data, model=embed_periodic(model, 6))
    assert tied.initial_loss == untied.initial_loss  # bitwise


def test_full_loss_matches_direct_computation():
    from loopseq.stack import stack_loss

    data = _tiny_data(n=20)
    cfg = _tiny_config()
    train_set, val_set, _ = prepare_splits(data, cfg)
    model = build_stack(
        "LRU",
        StackConfig(depth=2, n_unique=1),
        width=train_set.width,
        n_classes=2,
        hidden=6,
        state=4,
        rng=0,
    )
    direct = float(stack_loss(model, val_set.series, val_set.labels).data)
    assert full_loss(model, val_set) == pytest.approx(direct, rel=1e-12)


def test_run_log_is_json_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    res = train_one(_tiny_config(), _tiny_data(), log_path=path)
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert len(lines) == res.epochs_run + 2  # config header + epochs + summary
    assert lines[0]["config"]["arch"] == "LRU"
    assert lines[1]["epoch"] == 0
    assert lines[-1]["final"]["best_epoch"] == res.best_epoch


def test_run_log_streams_each_epoch_as_it_is_scored(tmp_path, monkeypatch):
    """The log holds the config line and every scored epoch while the run goes on:
    read from inside the third epoch's evaluation, it equals the first three lines
    of an uninterrupted run's log, and the finished file equals that log."""
    config, data = _tiny_config(max_epochs=4), _tiny_data()
    whole = tmp_path / "whole.jsonl"
    train_one(config, data, log_path=whole)
    path = tmp_path / "streamed.jsonl"
    seen, calls = [], []
    accuracy = train_mod.accuracy

    def probe(model, ds):
        calls.append(ds)
        if len(calls) == 5:  # epoch 2's validation accuracy: two epochs scored
            seen.append(path.read_text())
        return accuracy(model, ds)

    monkeypatch.setattr(train_mod, "accuracy", probe)
    train_one(config, data, log_path=path)
    assert seen == ["".join(whole.read_text().splitlines(keepends=True)[:3])]
    assert path.read_bytes() == whole.read_bytes()


def test_prepare_splits_applies_concentration():
    data = _tiny_data(n=40, steps=16)  # width 2
    train_set, val_set, test_set = prepare_splits(data, _tiny_config(concentration=4))
    assert train_set.width == 4
    assert train_set.steps == 8  # ceil(16 * 2 / 4)
    sizes = (train_set.n, val_set.n, test_set.n)
    assert sum(sizes) == 40 and sizes[1] == sizes[2] == 6


def test_train_one_rejects_corpus_too_small_to_split():
    # three examples would split (3, 0, 0): no validation or test accuracy to take
    with pytest.raises(DataError, match="at least 4"):
        train_one(_tiny_config(), _tiny_data(n=3))


@pytest.mark.parametrize(
    "kw",
    [
        dict(pattern="ABBA"),
        dict(lr=0.0),
        dict(lr=-1e-3),
        dict(patience=-1),
        dict(clip_norm=0.0),
        dict(batch_size=0),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(clip_norm=-1.0),
        dict(clip_norm=float("nan")),
        dict(clip_norm=float("inf")),
        dict(hidden=0),
        dict(state=-1),
        dict(arch="Foo"),
        dict(supervision="none"),
        dict(concentration=0),
        dict(seed=-1),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        _tiny_config(**kw)


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_size", 2.5),
        ("hidden", True),
        ("concentration", 2.0),
        ("max_epochs", 1.5),
        ("seed", 1.5),
        ("lr", "0.1"),
        ("patience", None),
    ],
)
def test_config_refuses_a_value_of_the_wrong_type(field, value):
    # each once reached train_one, or raised a bare TypeError from a comparison
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        _tiny_config(**{field: value})


def test_config_takes_numpy_numbers():
    config = _tiny_config(seed=np.int64(1), hidden=np.int32(6), lr=np.float64(1e-2), clip_norm=None)
    assert config == _tiny_config(seed=1, hidden=6, lr=1e-2, clip_norm=None)


# --- runs and grids ---------------------------------------------------------------


class _KillsWorker:
    """Unpickling this ends the process that unpickles it."""

    def __reduce__(self):
        return (os._exit, (1,))


def test_run_jobs_returns_the_text_of_a_failed_run():
    data = _tiny_data()
    config = _tiny_config(max_epochs=1)
    outcomes = run_jobs([(config, data), (config, _tiny_data(n=3))])
    assert isinstance(outcomes[0], RunResult)
    assert outcomes[1].startswith("DataError: ")


def test_run_jobs_survives_a_killed_worker():
    data = _tiny_data(n=32, steps=12)
    config = _tiny_config(max_epochs=1)
    serial = train_one(config, data)
    outcomes = run_jobs([(config, data), (config, _KillsWorker())], workers=2)
    assert len(outcomes) == 2
    assert outcomes[1].startswith("BrokenProcessPool")
    # a run that finished before the worker died keeps its result
    if isinstance(outcomes[0], RunResult):
        assert outcomes[0].train_losses == serial.train_losses
    else:
        assert outcomes[0].startswith("BrokenProcessPool")


def _run(lr, seed, val, test, diverged=False) -> RunResult:
    return RunResult(
        config=_tiny_config(lr=lr, seed=seed),
        n_params=1,
        initial_loss=1.0,
        train_losses=[],
        val_accs=[val],
        test_accs=[test],
        best_epoch=-1 if diverged else 0,
        best_val_acc=float("nan") if diverged else val,
        test_acc_at_best=float("nan") if diverged else test,
        diverged=diverged,
        epochs_run=0 if diverged else 1,
        elapsed_seconds=0.0,
    )


def test_grid_selects_from_the_runs_it_is_given():
    runs = [
        _run(1e-3, 3, 0.6, 0.5),
        _run(1e-3, 7, 0.8, 0.7),
        _run(1e-2, 3, 0.9, 0.9),
        _run(1e-2, 7, 0.0, 0.0, diverged=True),
    ]
    grid = grid_and_seeds(runs)
    assert isinstance(grid, GridResult)
    assert grid.chosen_lr == 1e-2  # 0.9 over its one valid seed beats 0.7
    assert grid.lr_val_means == {1e-3: pytest.approx(0.7), 1e-2: 0.9}
    assert grid.seeds == [3, 7] and grid.diverged_seeds == [7]
    assert grid.seed_test_accs == [0.9]
    assert grid.mean_test_acc == 0.9 and grid.std_test_acc == 0.0


def test_grid_selects_best_lr_and_skips_divergent():
    data = _tiny_data()
    base = _tiny_config(max_epochs=1, clip_norm=None)
    runs = [train_one(base.replace(lr=lr, seed=seed), data) for lr in (1e-3, 1e5) for seed in (0, 1)]
    grid = grid_and_seeds(runs)
    assert grid.chosen_lr == 1e-3
    assert np.isnan(grid.lr_val_means[1e5])
    assert len(grid.seed_test_accs) == 2
    assert grid.diverged_seeds == []
    assert grid.mean_test_acc == pytest.approx(np.mean(grid.seed_test_accs))
    assert grid.std_test_acc == pytest.approx(np.std(grid.seed_test_accs, ddof=0))


def test_grid_all_divergent_raises():
    data = _tiny_data()
    base = _tiny_config(max_epochs=1, clip_norm=None)
    runs = [train_one(base.replace(lr=lr, seed=0), data) for lr in (1e5, 1e6)]
    with pytest.raises(AggregationError, match="diverged"):
        grid_and_seeds(runs)
