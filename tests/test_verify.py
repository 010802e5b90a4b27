"""Audit suite: the checks pass on the real code and fail on planted defects."""

import json
import os

import numpy as np
import pytest

import loopseq.autodiff as ad
from loopseq import cli, pool, stack, verify
from loopseq.verify import (
    AuditReport,
    CheckResult,
    _timed,
    audit_containment,
    audit_gradients,
    audit_param_linear,
    run_all,
)


def _key(result: CheckResult) -> tuple:
    return result.name, result.passed, float.hex(result.max_error), result.detail


def test_fast_bundle_all_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    report = run_all(fast=True)
    assert report.passed, report.to_text()
    text = report.to_text()
    assert text.count("[PASS]") == len(report.results)
    assert "FAIL" not in text.replace("FAILED", "")
    path = tmp_path / "audit.json"
    report.write_json(path)
    back = json.loads(path.read_text())
    assert back["passed"] is True
    assert len(back["results"]) == len(report.results)

    def no_pool(*args, **kwargs):
        raise AssertionError("a child process started on one usable CPU")

    # on one usable CPU the same checks run in-process, with the pooled results bit for bit
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    serial = run_all(fast=True)
    assert [_key(r) for r in serial.results] == [_key(r) for r in report.results]


class _KillsWorker:
    """Unpickling this ends the process that unpickles it."""

    def __reduce__(self):
        return (os._exit, (1,))


def test_a_check_lost_with_its_worker_fails(tmp_path, monkeypatch, capsys):
    healthy = [(f"unit/detector{i}", verify._gradient_detector, True) for i in range(3)]
    want = [_key(verify._timed(*job)) for job in healthy]
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_containment_jobs", lambda **sizes: healthy)
    monkeypatch.setattr(verify, "_param_jobs", lambda: [])
    killer = ("unit/killed", verify._gradient_detector, _KillsWorker())
    monkeypatch.setattr(verify, "_gradient_jobs", lambda fast: [killer])
    out = tmp_path / "audit.json"
    assert cli.main(["verify", "--fast", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    *before, killed = report["results"]
    assert killed["name"] == "unit/killed" and not killed["passed"]
    assert killed["detail"]["error"].startswith("BrokenProcessPool")
    assert "[FAIL] unit/killed" in capsys.readouterr().out
    # a worker takes its next job only after sending its last result, so
    # at least one healthy check finished first, and it keeps its result
    kept = [(r["name"], r["passed"], float.hex(r["max_error"]), r["detail"]) for r in before]
    assert any(k == w for k, w in zip(kept, want))
    for k, w, r in zip(kept, want, before):
        assert k == w or r["detail"]["error"].startswith("BrokenProcessPool")


def test_containment_small_config_passes():
    results = audit_containment(seeds=2, n_inputs=6, steps=10, hidden=8, state=8)
    names = [r.name for r in results]
    assert sum(n.startswith("containment/") for n in names) == len(names)
    assert "containment/guards" in names
    for r in results:
        assert r.passed, r.line()
    # bit-equality means literal zero error on the equality checks
    for r in results:
        if r.name != "containment/guards":
            assert r.max_error == 0.0


def test_param_audit_exact_affine_and_band():
    results = audit_param_linear()
    assert len(results) == 4
    for r in results:
        assert r.passed, r.line()
        assert r.max_error == 0.0
    by_name = {r.name: r for r in results}
    heartbeat = by_name["params/LRU"].detail["Heartbeat"]
    assert heartbeat["counts"] == {1: 29122, 2: 54146, 3: 79170, 6: 154242}
    assert heartbeat["ratio"] == pytest.approx(154242 / 29122, abs=1e-4)


def test_gradient_audits_pass(audit_results):
    results = audit_results.get("gradients") or audit_gradients()
    assert len(results) == 4 * 2 * 3 + 1
    for r in results:
        assert r.passed, r.line()
    detector = [r for r in results if r.name == "gradients/detector"][0]
    assert detector.max_error > 1.0  # it measured the planted sign flip


def test_fast_gradient_audit_has_teeth(monkeypatch):
    # one usable CPU: the checks run in this process, where the patches and counters live
    monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
    # scan `da` off by 0.1%: every arch's recurrence factor gets a wrong gradient
    true_backward = ad._scan.scan_backward

    def skewed_backward(elem, states, g):
        da, db = true_backward(elem, states, g)
        return da * 1.001, db

    monkeypatch.setattr(ad._scan, "scan_backward", skewed_backward)
    calls = []
    make_loss = verify.prefix_reuse_loss

    def counted_loss(*args):
        loss = make_loss(*args)
        return lambda: calls.append(1) or loss()

    monkeypatch.setattr(verify, "prefix_reuse_loss", counted_loss)
    blocks = []
    block_forward = stack.block_forward
    monkeypatch.setattr(stack, "block_forward", lambda p, h: blocks.append(1) or block_forward(p, h))
    results = audit_gradients(fast=True)
    fd = [r for r in results if r.name.startswith("gradients/fd/")]
    assert len(fd) == 16
    # one taped loss plus two per parameter tensor in each check: the
    # directional estimator, not a coordinate sweep, ran
    assert len(calls) == 1544
    # each perturbed loss restarts at the first block whose tensors moved: 5880
    # block applications, 9264 without reuse; the aggregation checks run none,
    # their losses being the training step's node
    assert len(blocks) == 5880
    assert any(not r.passed for r in fd)
    assert all(r.detail["coords"] == "1 direction/tensor" for r in fd)
    detector = [r for r in results if r.name == "gradients/detector"][0]
    assert detector.max_error > 1.0


def test_crashing_check_reports_failure():
    def boom():
        raise ValueError("planted")

    result = _timed("unit/crash", boom)
    assert not result.passed
    assert result.max_error == float("inf")
    assert "planted" in result.detail["error"]
    assert "[FAIL]" in result.line()


def test_report_counts_failures():
    ok = CheckResult("a", True, 0.0, 0.01, {})
    bad = CheckResult("b", False, 2.0, 0.01, {})
    report = AuditReport([ok, ok, bad])
    assert not report.passed
    text = report.to_text()
    assert "2/3 checks passed" in text and "(1 FAILED)" in text


def test_containment_has_teeth():
    # the guards check carries the sensitivity probe: its measured error
    # is the logit change from a 1e-9 parameter nudge, which must be nonzero
    guards = [r for r in audit_containment(seeds=1, n_inputs=4, steps=8) if "guards" in r.name][0]
    assert guards.passed and guards.max_error > 0.0


def test_check_result_line_format():
    r = CheckResult("x/y", True, 1.25e-9, 0.5, {})
    line = r.line()
    assert line.startswith("[PASS] x/y")
    assert "1.250e-09" in line and "0.50s" in line
