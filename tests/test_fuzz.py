"""Fuzzing the run boundary: a plan file or `grid`/`train` argv ends in one of three outcomes.

Each example is a tiny valid run (synth n <= 12, T <= 12, H, P <= 4, at most
2 epochs) with up to two fields replaced by near-valid values: wrong types,
bools, zero and negative numbers, nan/inf, repeats and unknown names.  The
outcome must be exit 0, exit 1 with `failed:` lines, or exit 2 with an
`error:` line before any run starts.  No traceback may reach stderr, and an
exit 0 never rests on a run that kept non-finite parameters.
"""

import functools
import io
import json
import logging
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseq import cli, report
from loopseq import train as train_mod
from loopseq.blocks import ARCHS
from loopseq.cli import main
from loopseq.data import synth_sine_task

_NAN, _INF = float("nan"), float("inf")
_PATTERNS = ["A", "AA", "AB", "2,1", "ABC", "3,1"]  # "AA" and "2,1" name one pattern
_LRS = [1e-2, 1e308, 0.1]  # at 1e308 every run diverges
# plan values near a field's boundary
_ODD = st.sampled_from([0, -1, 1.5, 2.0, True, False, None, "1", "S4", "ABBA", "6,x", _NAN, _INF, -_INF])
# flag values near a flag's boundary
_ODD_TEXT = st.sampled_from(
    ["0", "-1", "1.5", "2.0", "nan", "inf", "-inf", "x", "", "True", "1,1", "0,0", "S4", "middle", "ABBA", "6,x"]
)
# plan fields a near-valid plan may lack; the rest keep every run tiny
_DROPPABLE = ["datasets", "archs", "patterns", "supervisions", "concentrations", "lrs", "seeds", "out_dir"]


def _near(value) -> st.SearchStrategy:
    """Values near a valid plan value."""
    if isinstance(value, dict):
        keys = st.sampled_from([*value, "bogus"])
        return st.one_of(_ODD, st.just([]), st.builds(lambda k, v: {**value, k: v}, keys, _ODD))
    if isinstance(value, list):
        return st.one_of(
            _ODD, st.just([]), st.just(value[0]), st.just(value + value[:1]), _ODD.map(lambda v: [*value, v])
        )
    return _ODD


def _some(values, max_size=2) -> st.SearchStrategy:
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size, unique=True)


@st.composite
def _changes(draw, names) -> list:
    """No name for one example in four, else one or two names to change."""
    if not draw(st.integers(0, 3)):
        return []
    return draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))


@st.composite
def _plans(draw) -> dict:
    plan = {
        "datasets": ["synth"],
        "archs": draw(_some(list(ARCHS))),
        "patterns": draw(_some(_PATTERNS)),
        "supervisions": draw(_some(["final", "block"])),
        "concentrations": draw(_some([1, 2, 3], max_size=1)),
        "lrs": draw(_some(_LRS)),
        "seeds": draw(_some([0, 1, 2])),
        "out_dir": "res",
        "batch_size": draw(st.integers(1, 8)),
        "max_epochs": draw(st.integers(1, 2)),
        "patience": draw(st.integers(0, 2)),
        "hidden": draw(st.integers(1, 4)),
        "state": draw(st.integers(1, 4)),
        "synth": {
            "n": draw(st.integers(4, 12)),
            "steps": draw(st.integers(1, 12)),
            "width": draw(st.integers(1, 3)),
            "n_classes": draw(st.integers(2, 3)),
            "noise": 0.1,
            "seed": 0,
        },
    }
    for name in draw(_changes([*plan, "regime"])):
        if name == "regime":
            plan[name] = "auto"  # an unknown field
        elif name in _DROPPABLE and draw(st.booleans()):
            del plan[name]
        else:
            plan[name] = draw(_near(plan[name]))
    return plan


@st.composite
def _argvs(draw) -> tuple[list, int, int]:
    """A `train` or `grid` argv, and the n and T of the synth task it runs on."""
    command = draw(st.sampled_from(["train", "grid"]))
    flags = {
        "--arch": draw(st.sampled_from(list(ARCHS))),
        "--pattern": draw(st.sampled_from(_PATTERNS)),
        "--supervision": draw(st.sampled_from(["final", "block"])),
        "--concentration": str(draw(st.integers(1, 3))),
        "--batch-size": str(draw(st.integers(1, 8))),
        "--max-epochs": str(draw(st.integers(1, 2))),
        "--patience": str(draw(st.integers(0, 2))),
        "--clip-norm": draw(st.sampled_from(["1.0", "0", "0.5"])),
        "--hidden": str(draw(st.integers(1, 4))),
        "--state": str(draw(st.integers(1, 4))),
    }
    if command == "train":
        flags["--lr"] = repr(draw(st.sampled_from(_LRS)))
        flags["--seed"] = str(draw(st.integers(0, 2)))
    else:
        flags["--lrs"] = ",".join(map(repr, draw(_some(_LRS))))
        flags["--seeds"] = ",".join(map(str, draw(_some([0, 1, 2]))))
        flags["--workers"] = "1"
    for flag in draw(_changes([*flags, "--dataset"])):
        flags[flag] = draw(_ODD_TEXT)
    argv = [command, *(part for item in flags.items() for part in item)]
    return argv, draw(st.integers(3, 12)), draw(st.integers(1, 12))


def _outcome(argv: list, n: int, steps: int) -> tuple[int, str, list, list]:
    """Exit code and stderr of the CLI on `argv`, with every run it started
    and the (result, model) of every run it finished."""
    started, finished, models = [], [], []
    real_train, real_build = train_mod.train_one, train_mod.build_stack

    def build_stack(*args, **kwargs):
        models.append(real_build(*args, **kwargs))
        return models[-1]

    def train_one(*args, **kwargs):
        started.append(args)
        result = real_train(*args, **kwargs)
        finished.append((result, models[-1]))
        return result

    err = io.StringIO()
    handler = logging.StreamHandler(err)  # where the CLI's logging writes: a failed run's traceback
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), redirect_stderr(err):
            mp.setattr(train_mod, "train_one", train_one)
            mp.setattr(cli, "train_one", train_one)
            mp.setattr(train_mod, "build_stack", build_stack)
            mp.setattr(report, "synth_sine_task", functools.partial(synth_sine_task, n=n, steps=steps))
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
    finally:
        root.removeHandler(handler)
    return code, err.getvalue(), started, finished


def _check(code, err, started, finished) -> None:
    assert "Traceback" not in err, err
    if code == 0:
        for result, model in finished:  # lr selection skips only the runs marked diverged
            if not result.diverged:
                assert all(np.isfinite(t.data).all() for t in model.param_tensors()), result.config
    elif code == 1:
        assert re.search(r"^failed: ", err, re.M), err
    else:
        assert code == 2, (code, err)
        assert re.search(r"^(loopseq \S+: )?error: ", err, re.M), err
        assert not started, err


@settings(max_examples=200, deadline=None)
@given(plan=_plans())
def test_any_plan_file_ends_in_a_defined_outcome(plan):
    with tempfile.TemporaryDirectory() as tmp:
        if plan.get("out_dir") == "res":
            plan["out_dir"] = str(Path(tmp) / "res")
        path = Path(tmp) / "plan.json"
        path.write_text(json.dumps(plan))
        outcome = _outcome(["grid", "--plan", str(path)], 12, 12)
    _check(*outcome)


@settings(max_examples=200, deadline=None)
@given(drawn=_argvs())
def test_any_grid_or_train_argv_ends_in_a_defined_outcome(drawn):
    argv, n, steps = drawn
    with tempfile.TemporaryDirectory() as tmp:
        outcome = _outcome([*argv, "--out", str(Path(tmp) / "res")], n, steps)
    _check(*outcome)
