"""Acceptance gate: the package's nine headline guarantees.

Each test covers one guarantee at its stated tolerance and runtime
budget and prints exactly one CRITERION line (visible with ``-v -s`` or
in failure output).  Criterion 9 is a report-only spot check on real
data; it skips with fetch instructions when the corpus files are not
on disk and never gates the suite.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from loopseq.data import CANONICAL, load_named, synth_sine_task
from loopseq.pool import usable_cpus
from loopseq.reshape import reshape_forward, reshape_law
from loopseq.scan import ScanElement, scan_linear, scan_sequential
from loopseq.stack import (
    StackConfig,
    build_stack,
    embed_periodic,
    verify_gradient_aggregation,
)
from loopseq.train import TrainConfig, grid_and_seeds, run_jobs, train_one
from loopseq.verify import audit_containment, audit_gradients, audit_param_linear
from reshape_oracle import reshape_inverse

SYNTH = synth_sine_task(n=512, steps=100, width=2, n_classes=2, noise=0.1, seed=0)


def _criterion(number: int, description: str, budget_seconds: float, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        print(
            f"CRITERION {number} ({description}): FAIL — {exc} [{elapsed:.1f}s]",
            flush=True,
        )
        raise
    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION {number} ({description}): PASS — {detail} "
        f"[{elapsed:.1f}s / budget {budget_seconds:.0f}s]",
        flush=True,
    )
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds budget {budget_seconds}s"


def test_criterion_1_containment_bit_identity():
    def run():
        results = audit_containment(seeds=5, n_inputs=100)
        bad = [r for r in results if not r.passed]
        assert not bad, "; ".join(r.line() for r in bad)
        return "4 archs x 5 seeds x 100 inputs bit-identical along 1->2->6 and 1->3->6; 2->3 rejected"

    _criterion(1, "containment bit-identity", 120, run)


def test_criterion_2_gradient_finite_differences(audit_results):
    def run():
        results = audit_gradients()
        audit_results["gradients"] = results
        assert len(results) == 4 * 2 * 3 + 1
        bad = [r for r in results if not r.passed]
        assert not bad, "; ".join(r.line() for r in bad)
        detector = [r for r in results if r.name == "gradients/detector"][0]
        assert detector.max_error > 1.0  # it measured the planted sign flip
        fd = [r for r in results if r.name.startswith("gradients/fd/")]
        assert len(fd) == 16
        worst = max(r.max_error for r in fd)
        return f"16 arch x supervision x pattern configs, full coordinate sweeps, max rel err {worst:.2e} < 1e-4"

    _criterion(2, "gradient correctness vs central differences", 180, run)


def test_criterion_3_gradient_aggregation():
    def run():
        worst = 0.0
        for arch in ("LRU", "S5", "LinOSS", "LrcSSM"):
            for supervision in ("final", "block"):
                model = build_stack(
                    arch,
                    StackConfig(depth=6, n_unique=2, supervision=supervision),
                    width=3,
                    n_classes=3,
                    hidden=4,
                    state=4,
                    rng=2,
                )
                rng = np.random.default_rng(3)
                x = rng.standard_normal((4, 12, 3))
                labels = rng.integers(0, 3, 4)
                report = verify_gradient_aggregation(model, x, labels)
                assert report.loss_match, f"{arch}/{supervision}: loss mismatch"
                assert not report.all_zero, f"{arch}/{supervision}: degenerate all-zero gradients"
                assert report.max_rel_error < 1e-10, (
                    f"{arch}/{supervision}: {report.max_rel_error:.2e} >= 1e-10"
                )
                worst = max(worst, report.max_rel_error)
        return f"tied grads equal summed untied copies, max rel err {worst:.2e} < 1e-10"

    _criterion(3, "gradient aggregation under sharing", 60, run)


def test_criterion_4_scan_equivalence():
    def run():
        worst = 0.0
        rng = np.random.default_rng(0)
        for T in (400, 1751, 17984):
            for kind in ("diag", "cdiag", "mat2"):
                n = 4
                if kind == "diag":
                    a = rng.uniform(0.5, 0.999, (T, n)) * rng.choice([-1.0, 1.0], (T, n))
                    b = rng.standard_normal((T, n))
                elif kind == "cdiag":
                    mag = rng.uniform(0.5, 0.999, (T, n))
                    ang = rng.uniform(0, 2 * np.pi, (T, n))
                    a = np.stack([mag * np.cos(ang), mag * np.sin(ang)], axis=-1)
                    b = rng.standard_normal((T, n, 2))
                else:
                    a = rng.standard_normal((T, n, 2, 2))
                    norms = np.linalg.norm(a, ord=2, axis=(-2, -1), keepdims=True)
                    a *= rng.uniform(0.5, 0.999, (T, n, 1, 1)) / norms
                    b = rng.standard_normal((T, n, 2))
                elem = ScanElement(a=a, b=b, kind=kind)
                err = float(np.max(np.abs(scan_linear(elem) - scan_sequential(elem))))
                worst = max(worst, err)
                assert err < 1e-8, f"{kind} T={T}: {err:.2e} >= 1e-8"
        return f"diag/cdiag/mat2 at T in (400, 1751, 17984), max abs err {worst:.2e} < 1e-8"

    _criterion(4, "scan kernel equals sequential oracle", 60, run)


def test_criterion_5_reshape_laws():
    def run():
        rng = np.random.default_rng(0)
        for meta in CANONICAL.values():
            T, w = meta["steps"], meta["width"]
            for c in (1, 8, 16):
                _, law_rows, pad_count = reshape_law(T, w, c)
                x = rng.standard_normal((T, w))
                y = reshape_forward(x, c)
                if c == 1:
                    # c=1 recovers the input without modification
                    assert y is x, f"c=1 not byte-identical at {(T, w)}"
                    assert pad_count == 0
                else:
                    rows = -(-T * w // c)
                    assert y.shape == (rows, c), f"shape law broken at {(T, w, c)}"
                    assert pad_count == rows * c - T * w
                    assert 0 <= pad_count < c
                assert y.shape[0] == law_rows, f"row count disagrees with the law at {(T, w, c)}"
                back = reshape_inverse(y, T, w, c)
                assert np.array_equal(back, x), f"round-trip broken at {(T, w, c)}"
        assert reshape_forward(np.zeros((1751, 2)), 8).shape == (438, 8)
        assert reshape_law(1751, 2, 8)[1] == 438
        assert reshape_forward(np.zeros((405, 61)), 8).shape == (3089, 8)
        assert reshape_law(405, 61, 8)[1] == 3089
        return "shape/pad laws for 6 corpus shapes x c in (1,8,16); (1751,2,8)->(438,8); (405,61,8)->(3089,8)"

    _criterion(5, "sequence reshaping laws", 10, run)


def test_criterion_6_parameter_accounting():
    def run():
        results = audit_param_linear()
        bad = [r for r in results if not r.passed]
        assert not bad, "; ".join(r.line() for r in bad)
        lru = next(r for r in results if r.name == "params/LRU")
        ratio = lru.detail["Heartbeat"]["ratio"]
        return (
            f"count(m) exactly affine for 4 archs x 6 corpus shapes; "
            f"all-unique/fully-shared ratios within [4.5, 6.0] (LRU wide-corpus ratio {ratio})"
        )

    _criterion(6, "parameter count affine in unique blocks", 10, run)


def test_criterion_7_synth_training_sanity():
    def run():
        archs = ("LRU", "S5", "LinOSS", "LrcSSM")
        configs = [
            TrainConfig(
                arch=arch,
                pattern="AAAAAA",
                supervision="final",
                lr=1e-3,
                seed=0,
                max_epochs=50,
                patience=5,
                hidden=16,
                state=16,
            )
            for arch in archs
        ]
        # each arch's 50-epoch run, then its 2-epoch rerun, all eight on one pool
        jobs = [(c, SYNTH) for cfg in configs for c in (cfg, cfg.replace(max_epochs=2))]
        outcomes = run_jobs(jobs, workers=usable_cpus())
        notes = []
        for arch, res, rerun in zip(archs, outcomes[::2], outcomes[1::2]):
            assert not isinstance(res, str) and not isinstance(rerun, str), f"{arch}: {res} / {rerun}"
            assert not res.diverged, f"{arch} diverged"
            best = max(res.test_accs)
            reached = next(i for i, a in enumerate(res.test_accs) if a >= 0.95)
            assert best >= 0.95, f"{arch}: best test acc {best:.4f} < 0.95 within 50 epochs"
            arch_elapsed = res.elapsed_seconds
            assert arch_elapsed < 300, f"{arch}: {arch_elapsed:.0f}s exceeds 5 min budget"
            # determinism per seed: a re-run reproduces the curves bitwise
            assert rerun.initial_loss == res.initial_loss
            assert rerun.train_losses == res.train_losses[:2]
            notes.append(f"{arch} 95% at epoch {reached} ({arch_elapsed:.0f}s)")
        return "; ".join(notes)

    _criterion(7, "synthetic-task training sanity", 1260, run)


def test_criterion_8_tied_init_epoch0_equality():
    def run():
        cfg = TrainConfig(
            arch="LRU",
            pattern="AAAAAA",
            supervision="final",
            lr=1e-3,
            seed=0,
            max_epochs=0,
            hidden=16,
            state=16,
        )
        shared = build_stack(
            "LRU",
            StackConfig(depth=6, n_unique=1),
            width=2,
            n_classes=2,
            hidden=16,
            state=16,
            rng=0,
        )
        tied = train_one(cfg, SYNTH, model=shared)
        untied = train_one(
            cfg.replace(pattern="ABCDEF"), SYNTH, model=embed_periodic(shared, 6)
        )
        diff = abs(tied.initial_loss - untied.initial_loss)
        assert diff < 1e-12, f"epoch-0 loss difference {diff:.2e} >= 1e-12"
        return (
            f"six-copy init reproduces the fully-shared epoch-0 loss, |diff| = {diff:.1e} < 1e-12"
        )

    _criterion(8, "tied-init epoch-0 loss equality", 120, run)


def test_criterion_9_real_data_spot_check():
    data_dir = os.environ.get("LOOPSEQ_DATA_DIR", "data")
    heartbeat = Path(data_dir) / "Heartbeat" / "Heartbeat_TRAIN.ts"
    if not heartbeat.exists():
        pytest.skip(
            "non-gating spot check skipped: corpus files not found; fetch "
            "https://www.timeseriesclassification.com/aeon-toolkit/Heartbeat.zip "
            f"and unzip into {data_dir}/ (or set LOOPSEQ_DATA_DIR)"
        )

    def run():
        dataset = load_named("Heartbeat", data_dir)
        means = {}
        for pattern in ("AAAAAA", "ABCDEF"):
            base = TrainConfig(
                arch="LRU",
                pattern=pattern,
                supervision="final",
                max_epochs=30,
                patience=5,
                hidden=16,
                state=16,
            )
            jobs = [(base.replace(lr=lr, seed=seed), dataset) for lr in (1e-3, 3e-3) for seed in (0, 1, 2)]
            grid = grid_and_seeds(run_jobs(jobs))
            means[pattern] = 100.0 * grid.mean_test_acc
        gap = means["AAAAAA"] - means["ABCDEF"]
        verdict = "within" if abs(gap) <= 5.0 else "outside"
        return (
            f"fully-shared {means['AAAAAA']:.2f} vs all-unique {means['ABCDEF']:.2f} "
            f"(gap {gap:+.2f} points, {verdict} +-5; report-only, non-gating)"
        )

    _criterion(9, "real-data spot check (report only)", 3600, run)
