"""The benchmark's probes still find every name they patch in the package.

`perfbench/tracer.py` wraps package functions where their callers look
them up; a rename or deletion there would otherwise surface only as a
failed benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_install_and_restore_every_patched_name():
    for cls, expected in ((tracer.Probe, 2), (tracer.Tracer, 29)):
        patches = cls()
        patches.install()
        saved = list(patches._saved)
        try:
            assert len(saved) == expected
            for module, attr, orig in saved:
                assert getattr(module, attr) is not orig, f"{module.__name__}.{attr} not wrapped"
        finally:
            patches.restore()
        assert not patches._saved
        for module, attr, orig in saved:
            assert getattr(module, attr) is orig, f"{module.__name__}.{attr} not restored"


def test_traced_tiny_train_counts():
    """Run two tiny trainings under the tracer so a patched function whose
    call shape changes fails here, not only in the benchmark."""
    from time import perf_counter

    from loopseq import train
    from loopseq.data import synth_sine_task

    ds = synth_sine_task(n=8, steps=10)
    base = train.TrainConfig(concentration=2, batch_size=4, max_epochs=1, hidden=4, state=4)
    patches = tracer.Tracer()
    patches.install()
    try:
        t0 = perf_counter()
        with patches.root("train"):
            for arch in ("LRU", "LinOSS"):
                train.train_one(base.replace(arch=arch), ds)
        metrics = patches.metrics(perf_counter() - t0)
    finally:
        patches.restore()
    # 8 examples split 6/1/1: per run one full-loss pass, two steps and two accuracy passes;
    # every depth-6 forward runs one scan per block, and every backward two: the rebuild
    # of each block's states and the reverse scan
    assert metrics["train.steps"] == 4
    assert metrics["stack.loss_calls"] == 6
    assert metrics["stack.predict_calls"] == 4
    assert metrics["reshape.calls"] == 6  # c = 2: each run reshapes its three splits
    assert metrics["scan.calls.cdiag"] == metrics["scan.calls.mat2"] == 54
