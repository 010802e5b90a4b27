"""Probes and spans installed around calls into loopseq's public functions.

Nothing inside the package changes: each wrapper replaces a function on the
module where its caller looks the name up (`stack.block_forward`, not
`blocks.block_forward`, because `stack` imports it by name) and is removed
again afterwards.

`Probe` is installed in every mode.  It costs one call per train run and per
optimiser step: the wall time of each `train_one` and the steps it took.

`Tracer` is installed only in the traced run.  It keeps spans (name, tag,
start, end, parent) in memory, writes them out at the end, and reduces them
to per-layer metrics.  A span's self time is its duration minus its
children's; every span belongs to the layer named before the first dot, and
the timed call itself is the root span, so the nine `<layer>.self_s` values
add up to the traced run time.  tracemalloc runs only inside train steps and
evaluations of the traced run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from loopseq import autodiff, data, report, scan, stack, train, verify
from loopseq.blocks import ARCHS
from loopseq.scan import KINDS

LAYERS = ("scan", "autodiff", "blocks", "stack", "reshape", "data", "train", "verify", "report")
MIB = float(1 << 20)


class _Patches:
    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


@dataclass
class Run:
    config: train.TrainConfig
    result: train.RunResult
    steps: int
    seconds: float
    examples: int


def run_key(config) -> str:
    return f"{config.arch}/{config.pattern}/{config.supervision}/c{config.concentration}"


class Probe(_Patches):
    """Wall time, steps and examples of every `train_one` call."""

    def __init__(self):
        super().__init__()
        self.runs: list[Run] = []
        self._steps = 0

    def install(self):
        def adam_step(orig):
            def wrapper(*args, **kw):
                self._steps += 1
                return orig(*args, **kw)

            return wrapper

        def train_one(orig):
            def wrapper(config, dataset, *args, **kw):
                self._steps = 0
                t0 = perf_counter()
                result = orig(config, dataset, *args, **kw)
                seconds = perf_counter() - t0
                n_train = data.split_sizes(dataset.n)[0]
                self.runs.append(Run(config, result, self._steps, seconds, result.epochs_run * n_train))
                return result

            return wrapper

        self.replace(train, "adam_step", adam_step)
        self.replace(train, "train_one", train_one)

    def summary(self) -> dict:
        train_s: dict[str, float] = {}
        for run in self.runs:
            train_s[run.config.arch] = train_s.get(run.config.arch, 0.0) + run.seconds
        wall = sum(r.seconds for r in self.runs)
        examples = sum(r.examples for r in self.runs)
        return {
            "train_s": train_s,
            "train_examples": examples,
            "train_examples_per_s": examples / wall if wall > 0 else 0.0,
            "runs": [
                {
                    "key": run_key(r.config),
                    "seconds": r.seconds,
                    "epochs": r.result.epochs_run,
                    "steps": r.steps,
                    "examples": r.examples,
                    "losses": [r.result.initial_loss, *r.result.train_losses],
                }
                for r in self.runs
            ],
        }


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, tag, start, end, parent index]
        self.open: list[int] = []
        self.counts: dict[str, float] = {}
        self.step_s: list[float] = []
        self.step_peak_mib = 0.0
        self.eval_peak_mib = 0.0
        self.eval_examples = 0
        self._step_t0 = None

    # --- span bookkeeping -------------------------------------------------------

    def _enter(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        self.spans.append([name, tag, perf_counter(), 0.0, self.open[-1] if self.open else -1])
        self.open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.open.pop()

    def _parent(self) -> str:
        return self.spans[self.open[-1]][0] if self.open else ""

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _span(self, name, tag=None, before=None, after=None):
        """Wrapper factory: one span per call, with optional hooks."""

        def make(orig):
            def wrapper(*args, **kw):
                label = tag(*args, **kw) if tag else ""
                if before:
                    before(label, *args, **kw)
                idx = self._enter(name, label)
                try:
                    out = orig(*args, **kw)
                finally:
                    self._exit(idx)
                if after:
                    after(label, out, *args, **kw)
                return out

            return wrapper

        return make

    @contextmanager
    def root(self, layer: str):
        """The timed call's own span; its self time belongs to `layer`."""
        idx = self._enter(f"{layer}.root")
        try:
            yield
        finally:
            self._exit(idx)

    # --- memory windows -----------------------------------------------------------

    @staticmethod
    def _mem_begin():
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        tracemalloc.start()

    @staticmethod
    def _mem_end() -> float:
        peak = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
        return peak

    # --- hooks ----------------------------------------------------------------------

    def _scan_fwd(self, orig):
        def wrapper(elem):
            if self._parent() == "scan.bwd":  # the reverse recurrence is backward work
                return orig(elem)
            idx = self._enter("scan.fwd", elem.kind)
            try:
                out = orig(elem)
            finally:
                self._exit(idx)
            self._scan_counts(elem, elem.a.nbytes + elem.b.nbytes + out.nbytes)
            return out

        return wrapper

    def _scan_bwd(self, orig):
        def wrapper(elem, states, g):
            idx = self._enter("scan.bwd", elem.kind)
            try:
                da, db = orig(elem, states, g)
            finally:
                self._exit(idx)
            moved = elem.a.nbytes + states.nbytes + g.nbytes + da.nbytes + db.nbytes
            self._scan_counts(elem, moved)
            return da, db

        return wrapper

    def _scan_counts(self, elem, nbytes: int) -> None:
        kind = elem.kind
        self._count(f"scan.calls.{kind}")
        self._count(f"scan.elems.{kind}", elem.b.size // (1 if kind == "diag" else 2))
        self._count(f"scan.bytes.{kind}", nbytes)

    def _step_begin(self, label, *args, **kw):
        if self._parent() == "train.train_one":  # the training step's forward pass
            self._step_t0 = perf_counter()
            self._mem_begin()

    def _step_end(self, label, out, *args, **kw):
        if self._step_t0 is not None:
            self.step_s.append(perf_counter() - self._step_t0)
            self.step_peak_mib = max(self.step_peak_mib, self._mem_end())
            self._step_t0 = None

    def _eval_begin(self, label, model, ds, *args, **kw):
        self._mem_begin()
        self.eval_examples += ds.n

    def _eval_end(self, label, out, *args, **kw):
        self.eval_peak_mib = max(self.eval_peak_mib, self._mem_end())

    def _train_one_end(self, label, out, *args, **kw):
        if self._step_t0 is not None:  # a diverged step never reaches the optimiser
            self._mem_end()
            self._step_t0 = None

    def install(self):
        counted = lambda key: (lambda label, *a, **k: self._count(key))
        tape_nodes = lambda label, loss, *a, **k: self._count(
            "autodiff.tape_nodes", len(loss._tape.nodes) if loss._tape is not None else 0
        )
        block_arch = lambda p, h: type(p).arch
        arch_of = lambda config, *a, **k: config.arch
        rules = [
            (scan, "scan_linear", self._scan_fwd),
            (scan, "scan_backward", self._scan_bwd),
            (autodiff, "backward", self._span("autodiff.backward", before=tape_nodes)),
            (stack, "backward", self._span("autodiff.backward", before=tape_nodes)),
            (verify, "finite_difference_check", self._span("autodiff.fd")),
            (stack, "block_forward", self._span("blocks.forward", tag=block_arch)),
            (train, "stack_loss", self._span("stack.loss", before=self._step_begin)),
            (verify, "stack_loss", self._span("stack.loss")),
            (train, "predict_logits", self._span("stack.predict")),
            (verify, "predict_logits", self._span("stack.predict")),
            (train, "build_stack", self._span("stack.build")),
            (verify, "build_stack", self._span("stack.build")),
            (verify, "embed_periodic", self._span("stack.embed")),
            (verify, "verify_gradient_aggregation", self._span("stack.aggregation")),
            (data, "reshape_forward", self._span("reshape.forward", before=counted("reshape.calls"))),
            (report, "synth_sine_task", self._span("data.synth")),
            (train, "split_dataset", self._span("data.split")),
            (train, "normalize", self._span("data.normalize")),
            (train, "apply_reshape", self._span("data.apply_reshape")),
            (train, "prepare_splits", self._span("train.prepare")),
            (train, "full_loss", self._span("train.eval", before=self._eval_begin, after=self._eval_end)),
            (train, "accuracy", self._span("train.eval", before=self._eval_begin, after=self._eval_end)),
            (train, "clip_global_norm", self._span("train.optim")),
            (train, "adam_step", self._span("train.optim", after=self._step_end)),
            (train, "train_one", self._span("train.train_one", tag=arch_of, after=self._train_one_end)),
            (report, "grid_and_seeds", self._span("train.grid_and_seeds", before=counted("report.cells"))),
            (verify, "audit_containment", self._span("verify.containment")),
            (verify, "audit_param_linear", self._span("verify.params")),
            (verify, "audit_gradients", self._span("verify.gradients")),
        ]
        for module, attr, make in rules:
            self.replace(module, attr, make)

    # --- reduction ------------------------------------------------------------------

    def metrics(self, run_s: float) -> dict:
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * n
        owner = [""] * n  # arch of the enclosing train_one, if any
        for i, (name, tag, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
            owner[i] = tag if name == "train.train_one" else (owner[parent] if parent >= 0 else "")
        self_s = [d - c for d, c in zip(dur, child)]

        total: dict[str, float] = {}  # inclusive time per (name[, tag])
        own: dict[str, float] = {}  # self time per (name[, tag]) and per layer
        scan_by_arch: dict[str, float] = {}
        for i, (name, tag, *_rest) in enumerate(self.spans):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                total[key] = total.get(key, 0.0) + dur[i]
                own[key] = own.get(key, 0.0) + self_s[i]
            layer = name.split(".", 1)[0]
            own[layer] = own.get(layer, 0.0) + self_s[i]
            if layer == "scan" and owner[i]:
                scan_by_arch[owner[i]] = scan_by_arch.get(owner[i], 0.0) + dur[i]
            if name == "blocks.forward":
                self._count(f"blocks.calls.{tag}")
            elif name == "stack.loss":
                self._count("stack.loss_calls")
            elif name == "stack.predict":
                self._count("stack.predict_calls")

        out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
        for kind in KINDS:
            out[f"scan.fwd_s.{kind}"] = own.get(f"scan.fwd.{kind}", 0.0)
            out[f"scan.bwd_s.{kind}"] = own.get(f"scan.bwd.{kind}", 0.0)
            for what in ("calls", "elems", "bytes"):
                out[f"scan.{what}.{kind}"] = self.counts.get(f"scan.{what}.{kind}", 0.0)
        for arch in ARCHS:
            out[f"blocks.self_s.{arch}"] = own.get(f"blocks.forward.{arch}", 0.0)
            out[f"blocks.calls.{arch}"] = self.counts.get(f"blocks.calls.{arch}", 0.0)
            traced = total.get(f"train.train_one.{arch}", 0.0)
            out[f"scan.share.{arch}"] = scan_by_arch.get(arch, 0.0) / traced if traced else 0.0
        steps = sorted(self.step_s)
        if len(steps) >= 2:
            deciles = statistics.quantiles(steps, n=10, method="inclusive")
            p50, p90 = statistics.median(steps), deciles[8]
        else:
            p50 = p90 = steps[0] if steps else 0.0
        eval_s = total.get("train.eval", 0.0)
        out.update(
            {
                "autodiff.backward_self_s": own.get("autodiff.backward", 0.0),
                "autodiff.tape_nodes": self.counts.get("autodiff.tape_nodes", 0.0),
                "autodiff.fd_s": total.get("autodiff.fd", 0.0),
                "stack.loss_calls": self.counts.get("stack.loss_calls", 0.0),
                "stack.predict_calls": self.counts.get("stack.predict_calls", 0.0),
                "train.steps": float(len(steps)),
                "train.step_s_p50": p50,
                "train.step_s_p90": p90,
                "train.optim_s": total.get("train.optim", 0.0),
                "train.eval_s": eval_s,
                "train.eval_examples_per_s": self.eval_examples / eval_s if eval_s else 0.0,
                "train.prepare_s": total.get("train.prepare", 0.0),
                "train.step_peak_mib": self.step_peak_mib,
                "train.eval_peak_mib": self.eval_peak_mib,
                "data.synth_s": total.get("data.synth", 0.0),
                "reshape.forward_s": total.get("reshape.forward", 0.0),
                "reshape.calls": self.counts.get("reshape.calls", 0.0),
                "verify.containment_s": total.get("verify.containment", 0.0),
                "verify.params_s": total.get("verify.params", 0.0),
                "verify.aggregation_s": total.get("stack.aggregation", 0.0),
                "report.cells": self.counts.get("report.cells", 0.0),
                "trace.run_s": run_s,
                "trace.spans": float(n),
                "trace.attributed_frac": sum(own.get(layer, 0.0) for layer in LAYERS) / run_s,
            }
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, tag, start and end (s from the root), parent."""
        base = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, tag, start, end, parent in self.spans:
                fh.write(json.dumps([name, tag, round(start - base, 7), round(end - base, 7), parent]) + "\n")
