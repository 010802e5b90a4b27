"""Executable audits of the package's core identities.

Three families of checks, each returning structured results:

* containment — a depth-L stack with m unique blocks, re-expressed with
  m' unique blocks (m | m' | L), must produce bit-identical logits on
  random inputs, across architectures and seeds.  The audit also proves
  the check has teeth: a 1e-9 parameter perturbation must break the
  equality, and incompatible re-expressions (2 -> 3) must be rejected.
* parameter accounting — trainable-parameter counts must be exactly
  affine in the number of unique blocks, count(m) = shared + m * per,
  and the full-depth/fully-shared ratio must stay within [4.5, 6.0].
* gradients — analytic gradients must match central finite differences
  on small stacks for every architecture, supervision mode, and sharing
  extreme; and tied-parameter gradients must equal the sum over an
  untied clone's positions.  The full audit differences every coordinate;
  the fast one differences each parameter tensor along one random unit
  direction (two loss evaluations per tensor), and its sign-flip detector
  runs that same directional estimator.  Each perturbed loss re-runs the
  stack only from the first block whose tensors moved
  (`stack.prefix_reuse_loss`), with the same bits as a full forward.

Each check is a job, a module-level function and its arguments, with its
own fixed seeds. The jobs run on one process per usable CPU, in-process
when there is one, with the same results in the same order either way.
`run_all` bundles every job into one report for the CLI.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import finite_difference_check, param
from .blocks import ARCHS
from .data import CANONICAL
from .errors import ConfigError
from .pool import run_pooled, usable_cpus
from .stack import (
    StackConfig,
    build_stack,
    embed_periodic,
    predict_logits,
    prefix_reuse_loss,
    stack_loss,  # noqa: F401  perfbench/tracer.py patches this name
    verify_gradient_aggregation,
)

_RATIO_BAND = (4.5, 6.0)
_TOL_FD = 1e-4  # relative error of analytic vs central-difference gradients
_TOL_AGG = 1e-10  # relative error of tied vs summed untied gradients


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    elapsed_seconds: float
    detail: dict

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}  max_error={self.max_error:.3e}  ({self.elapsed_seconds:.2f}s)"


@dataclass
class AuditReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [r.line() for r in self.results]
        n_bad = sum(not r.passed for r in self.results)
        lines.append(
            f"{len(self.results) - n_bad}/{len(self.results)} checks passed"
            + ("" if n_bad == 0 else f"  ({n_bad} FAILED)")
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "results": [dataclasses.asdict(r) for r in self.results],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def _timed(name: str, fn, *args) -> CheckResult:
    t0 = time.perf_counter()
    try:
        max_error, passed, detail = fn(*args)
    except Exception as exc:  # an audit that crashes is a failing audit
        return CheckResult(
            name=name,
            passed=False,
            max_error=float("inf"),
            elapsed_seconds=time.perf_counter() - t0,
            detail={"error": f"{type(exc).__name__}: {exc}"},
        )
    return CheckResult(
        name=name,
        passed=bool(passed),
        max_error=float(max_error),
        elapsed_seconds=time.perf_counter() - t0,
        detail=detail,
    )


def _run(jobs: list[tuple]) -> list[CheckResult]:
    """`_timed(*job)` for each (name, check, *args) job, in the order of `jobs`.

    The checks run on one process per usable CPU, the finite-difference
    ones (most of the time) first; with one usable CPU they run in-process.
    A check lost with its worker process fails.
    """
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][1] is not _grad_one)
    lost = lambda job, exc: CheckResult(job[0], False, float("inf"), 0.0, {"error": f"BrokenProcessPool: {exc}"})
    outcomes = run_pooled([(_timed, jobs[i]) for i in order], usable_cpus(), lost)
    return [out for _, out in sorted(zip(order, outcomes))]


# --- containment ---------------------------------------------------------------------


def _containment_one(arch: str, seeds: int, n_inputs: int, steps: int, hidden: int, state: int):
    width = 3
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        base = build_stack(
            arch,
            StackConfig(depth=6, n_unique=1),
            width=width,
            n_classes=4,
            hidden=hidden,
            state=state,
            rng=seed,
        )
        x = rng.standard_normal((n_inputs, steps, width))
        want = predict_logits(base, x)
        # two chains and the direct hop must all be bit-identical
        via2 = embed_periodic(embed_periodic(base, 2), 6)
        via3 = embed_periodic(embed_periodic(base, 3), 6)
        direct = embed_periodic(base, 6)
        for model in (via2, via3, direct):
            got = predict_logits(model, x)
            diff = float(np.max(np.abs(got - want)))
            worst = max(worst, diff)
            cases += 1
            if not np.array_equal(got, want):
                return worst, False, {"seed": seed, "cases": cases}
    return worst, True, {"seeds": seeds, "cases": cases, "inputs_per_seed": n_inputs}


def _containment_guards(hidden: int, state: int):
    base = build_stack(
        "LRU",
        StackConfig(depth=6, n_unique=2),
        width=3,
        n_classes=3,
        hidden=hidden,
        state=state,
        rng=0,
    )
    try:
        embed_periodic(base, 3)
        return float("inf"), False, {"error": "2 -> 3 re-expression was not rejected"}
    except ConfigError:
        pass
    # sensitivity: a 1e-9 nudge to one block parameter must change the logits
    x = np.random.default_rng(1).standard_normal((8, 12, 3))
    want = predict_logits(base, x)
    nudged = embed_periodic(base, 2)
    nudged.blocks[0].glu_value_w.data[0, 0] += 1e-9
    got = predict_logits(nudged, x)
    diff = float(np.max(np.abs(got - want)))
    return diff, diff > 0.0, {"note": "perturbation must break bit-equality"}


def _containment_jobs(seeds=5, n_inputs=100, steps=24, hidden=16, state=16) -> list[tuple]:
    sizes = (seeds, n_inputs, steps, hidden, state)
    jobs = [(f"containment/{arch}", _containment_one, arch, *sizes) for arch in ARCHS]
    return jobs + [("containment/guards", _containment_guards, hidden, state)]


def audit_containment(**sizes) -> list[CheckResult]:
    """The containment checks; `sizes` override `_containment_jobs`'s defaults."""
    return _run(_containment_jobs(**sizes))


# --- parameter accounting ---------------------------------------------------------------


def _count(arch: str, m: int, width: int, n_classes: int) -> int:
    # at the default hidden = state = 64, the size the ratio band is for
    model = build_stack(
        arch, StackConfig(depth=6, n_unique=m), width, n_classes, hidden=64, state=64, rng=0
    )
    return model.n_params()


def _params_one(arch: str):
    worst = 0
    rows = {}
    for name, meta in CANONICAL.items():
        counts = {m: _count(arch, m, meta["width"], meta["classes"]) for m in (1, 2, 3, 6)}
        per_block = counts[2] - counts[1]
        shared = counts[1] - per_block
        for m, c in counts.items():
            worst = max(worst, abs(c - (shared + m * per_block)))
        ratio = counts[6] / counts[1]
        rows[name] = {"counts": counts, "ratio": round(ratio, 4)}
        if not (_RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]):
            return float(worst), False, {"corpus": name, "ratio": ratio}
    return float(worst), worst == 0, rows


def _param_jobs() -> list[tuple]:
    return [(f"params/{arch}", _params_one, arch) for arch in ARCHS]


def audit_param_linear() -> list[CheckResult]:
    return _run(_param_jobs())


# --- gradients ----------------------------------------------------------------------------


def _grad_one(arch: str, supervision: str, n_unique: int, fast: bool):
    width, n_classes, steps = 3, 3, 16
    model = build_stack(
        arch,
        StackConfig(depth=6, n_unique=n_unique, supervision=supervision),
        width=width,
        n_classes=n_classes,
        hidden=4,
        state=4,
        rng=0,
    )
    # evaluate at a generic point: the symmetric init leaves some
    # directional derivatives near 1e-8, below what central
    # differences can resolve against the relative-error floor
    jitter = np.random.default_rng(99)
    for _, p in model.parameters():
        p.data += 0.5 * jitter.standard_normal(p.data.shape)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, steps, width))
    labels = rng.integers(0, n_classes, 4)
    err = finite_difference_check(
        prefix_reuse_loss(model, x, labels),
        model.param_tensors(),
        rng=np.random.default_rng(11) if fast else None,  # None: every coordinate
    )
    coords = "1 direction/tensor" if fast else "all"
    return err, err < _TOL_FD, {"tol": _TOL_FD, "pattern_uniques": n_unique, "coords": coords}


def _aggregation_one(arch: str, supervision: str):
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
    ok = bool(report.loss_match) and not report.all_zero and report.max_rel_error < _TOL_AGG
    return report.max_rel_error, ok, {
        "loss_match": bool(report.loss_match),
        "all_zero": bool(report.all_zero),
        "tol": _TOL_AGG,
    }


def _gradient_detector(fast: bool):
    """The FD estimator the audit uses must itself flag a wrong gradient (sign flip)."""
    p = param(np.array([0.7, -0.3]))

    def wrong_loss():
        # -x masquerading as x: analytic gradient has the wrong sign
        return (p.detach() * 2.0 - p).sum()

    rng = np.random.default_rng(11) if fast else None
    err = finite_difference_check(wrong_loss, [p], rng=rng)
    return err, err > 1.0, {"note": "detector must reject a sign-flipped gradient"}


def _gradient_jobs(fast: bool) -> list[tuple]:
    jobs = []
    for arch in ARCHS:
        for supervision in ("final", "block"):
            for n_unique in (1, 6):
                name = f"gradients/fd/{arch}/{supervision}/m{n_unique}"
                jobs.append((name, _grad_one, arch, supervision, n_unique, fast))
            jobs.append((f"gradients/aggregation/{arch}/{supervision}", _aggregation_one, arch, supervision))
    return jobs + [("gradients/detector", _gradient_detector, fast)]


def audit_gradients(fast: bool = False) -> list[CheckResult]:
    return _run(_gradient_jobs(fast))


# --- bundle ---------------------------------------------------------------------------------


def run_all(fast: bool = False) -> AuditReport:
    """Every audit, as one set of jobs.

    `fast` trims the containment batches and checks each gradient tensor
    along one random direction instead of coordinate by coordinate.
    """
    small = dict(seeds=2, n_inputs=8, steps=12) if fast else {}
    return AuditReport(_run(_containment_jobs(**small) + _param_jobs() + _gradient_jobs(fast)))
