"""Sequence-classification laboratory for diagonal state-space blocks
under depth-recurrent parameter sharing.

The package provides: a linear-recurrence scan with exact adjoints, a
small reverse-mode tape over float64 arrays, four recurrent block
architectures behind one interface, depth-stacked models whose blocks
can be shared in repeating patterns, sequence reshaping by a
concentration factor, dataset handling, a deterministic training
harness, an audit suite for the package's core identities, and a CLI.
"""

from .autodiff import Tape, Tensor, backward, finite_difference_check, param
from .blocks import ARCHS, block_forward, count_params, init_block
from .data import (
    CANONICAL,
    Dataset,
    denormalize,
    load_named,
    load_ts,
    normalize,
    read_cache,
    split_dataset,
    synth_sine_task,
    write_cache,
    write_ts,
)
from .errors import (
    AggregationError,
    ConfigError,
    ContractError,
    DataError,
    DtypeError,
    EmptySequenceError,
    LoopseqError,
    NumericError,
    ParseError,
    ShapeError,
    VerificationError,
)
from .report import ExperimentPlan, load_plan, render_markdown, render_report, run_plan
from .reshape import ReshapeSpec, choose_regime, make_spec, reshape_forward, reshape_inverse
from .scan import ScanElement, scan_backward, scan_linear, scan_sequential
from .stack import (
    SUPERVISIONS,
    StackConfig,
    StackModel,
    build_stack,
    embed_periodic,
    load_checkpoint,
    parse_pattern,
    pattern_string,
    predict_logits,
    save_checkpoint,
    stack_forward,
    stack_loss,
    verify_gradient_aggregation,
)
from .train import RunResult, TrainConfig, grid_and_seeds, train_one
from .verify import AuditReport, CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ARCHS",
    "CANONICAL",
    "SUPERVISIONS",
    "AggregationError",
    "AuditReport",
    "CheckResult",
    "ConfigError",
    "ContractError",
    "DataError",
    "Dataset",
    "DtypeError",
    "EmptySequenceError",
    "ExperimentPlan",
    "LoopseqError",
    "NumericError",
    "ParseError",
    "ReshapeSpec",
    "RunResult",
    "ScanElement",
    "ShapeError",
    "StackConfig",
    "StackModel",
    "Tape",
    "Tensor",
    "TrainConfig",
    "VerificationError",
    "backward",
    "block_forward",
    "build_stack",
    "choose_regime",
    "count_params",
    "denormalize",
    "embed_periodic",
    "finite_difference_check",
    "grid_and_seeds",
    "init_block",
    "load_checkpoint",
    "load_named",
    "load_plan",
    "load_ts",
    "make_spec",
    "normalize",
    "param",
    "parse_pattern",
    "pattern_string",
    "predict_logits",
    "read_cache",
    "render_markdown",
    "render_report",
    "reshape_forward",
    "reshape_inverse",
    "run_all",
    "run_plan",
    "save_checkpoint",
    "scan_backward",
    "scan_linear",
    "scan_sequential",
    "split_dataset",
    "stack_forward",
    "stack_loss",
    "synth_sine_task",
    "train_one",
    "verify_gradient_aggregation",
    "write_cache",
    "write_ts",
]
