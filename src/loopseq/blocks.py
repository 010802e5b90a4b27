"""Sequence blocks: each arch is a scan factor; one apply runs the tail.

Hidden states are time-major: the encoder turns a [..., T, w] batch into
[T, ..., H], the head mean-pools over axis 0, and every block maps
[T, ..., H] -> [T, ..., H] as

    u = layer_norm(h_in)
    (kind, a, b) = factor(params, u)
    h_out = h_in + glu(scan(a, b, kind) @ c + d * u)

The four archs differ only in their factor (the scan kind, the transition
factor a and the forcing b) and in their readout weights c.  Each block
application is one tape node, `autodiff.ssm_block`: the layer norm, the
forcing u @ w under a shared factor (LRU, S5, LinOSS) or LrcSSM's gate and
drive, the scan, the readout, the feedthrough d * u, the GLU mixer (linear
value gated by a sigmoid-linear gate) and the residual add.  `_STATES`
gives each arch's part of it, the scan kind and the tensors the forcing
and factor are made from; the parameter-side nodes that make those
tensors and the readout are recorded before the block's node, and the
norm gain and bias [H], the feedthrough and the GLU weights are its own
parents.  The node
keeps no time-sized array for the backward: its adjoint rebuilds u and
the states and recomputes the readout, the value and the gate.  No
dropout anywhere.  The factors:

    lru     complex diagonal x_t = lambda * x_{t-1} + gamma * (B u_t),
            |lambda| = exp(-exp(nu_log)) initialized in the ring
            [0.9, 0.999], gamma = sqrt(1 - |lambda|^2), y = Re(C x)

    s5      complex diagonal MIMO discretized by zero-order hold with a
            learnable per-channel timescale: abar = exp(dt * Lambda),
            bbar u = ((abar - 1) / Lambda) * (B u), y = Re(C x)

    linoss  forced harmonic oscillator y'' = -A y + B u discretized
            implicitly; the per-channel state (z, y) evolves under the
            2x2 transition S * [[1, -dt*A], [dt, 1]] with
            S = 1/(1 + dt^2 A), spectral radius <= 1 for A >= 0

    lrcssm  input-dependent real diagonal a_t = sigmoid(W_a u_t + b_a)
            with drive b_t = (1 - a_t) * tanh(W_b u_t + b_b), which keeps
            |x_t| <= 1 regardless of sequence length

Complex parameters are stored as separate (re, im) real tensors, so
they contribute two real parameters per complex scalar to the counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, param
from .errors import ConfigError, ShapeError

_NORM_EPS = 1e-6


# --- parameter containers -------------------------------------------------------


@dataclass
class EncoderParams:
    """Linear lift from input width to the hidden size."""

    weight: Tensor  # [c, H]
    bias: Tensor  # [H]


@dataclass
class HeadParams:
    """Mean-pool over time, then a linear map to the label logits."""

    weight: Tensor  # [H, n_classes]
    bias: Tensor  # [n_classes]


@dataclass
class _CommonBlock:
    norm_gain: Tensor
    norm_bias: Tensor
    glu_value_w: Tensor
    glu_value_b: Tensor
    glu_gate_w: Tensor
    glu_gate_b: Tensor
    feedthrough: Tensor  # d, per hidden channel


@dataclass
class LRUParams(_CommonBlock):
    nu_log: Tensor  # [P]; |lambda| = exp(-exp(nu_log))
    theta: Tensor  # [P]; phase
    b_re: Tensor  # [H, P]
    b_im: Tensor
    c_re: Tensor  # [P, H]
    c_im: Tensor

    arch = "LRU"


@dataclass
class S5Params(_CommonBlock):
    re_log: Tensor  # [P]; Re(Lambda) = -exp(re_log)
    im: Tensor  # [P]; Im(Lambda)
    log_dt: Tensor  # [P]; per-channel timescale
    b_re: Tensor
    b_im: Tensor
    c_re: Tensor
    c_im: Tensor

    arch = "S5"


@dataclass
class LinOSSParams(_CommonBlock):
    a_hat: Tensor  # [P]; frequency A = relu(a_hat)
    dt_hat: Tensor  # [P]; step dt = sigmoid(dt_hat)
    b_w: Tensor  # [H, P]
    c_w: Tensor  # [P, H]

    arch = "LinOSS"


@dataclass
class LrcSSMParams(_CommonBlock):
    gate_w: Tensor  # [H, P]
    gate_b: Tensor  # [P]
    drive_w: Tensor  # [H, P]
    drive_b: Tensor  # [P]
    c_w: Tensor  # [P, H]

    arch = "LrcSSM"


BlockParams = LRUParams | S5Params | LinOSSParams | LrcSSMParams


def named_tensors(obj) -> Iterator[tuple[str, Tensor]]:
    """Declared parameter tensors of a params dataclass, in field order."""
    for f in dataclasses.fields(obj):
        yield f.name, getattr(obj, f.name)


def count_params(*objs) -> int:
    """Total number of scalar parameters across the given containers."""
    return sum(t.size for obj in objs for _, t in named_tensors(obj))


def clone_params(obj):
    """Deep copy with bit-identical values; copies stay independent leaves."""
    kw = {f.name: param(getattr(obj, f.name).data.copy()) for f in dataclasses.fields(obj)}
    return type(obj)(**kw)


# --- initialization --------------------------------------------------------------


def _common_init(hidden: int, rng: np.random.Generator) -> dict:
    return dict(
        norm_gain=param(np.ones(hidden)),
        norm_bias=param(np.zeros(hidden)),
        glu_value_w=param(rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)),
        glu_value_b=param(np.zeros(hidden)),
        glu_gate_w=param(rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)),
        glu_gate_b=param(np.zeros(hidden)),
        feedthrough=param(rng.standard_normal(hidden)),
    )


def init_block(arch: str, hidden: int, state: int, rng: np.random.Generator) -> BlockParams:
    """Fresh block parameters; draws happen in a fixed order per arch."""
    if arch not in ARCHS:
        raise ConfigError(f"unknown arch {arch!r}; expected one of {ARCHS}")
    common = _common_init(hidden, rng)
    cplx_in = lambda: param(rng.standard_normal((hidden, state)) / np.sqrt(2.0 * hidden))
    cplx_out = lambda: param(rng.standard_normal((state, hidden)) / np.sqrt(2.0 * state))
    if arch == "LRU":
        r_min, r_max = 0.9, 0.999
        u = rng.uniform(0.0, 1.0, state)
        mag = np.sqrt(u * (r_max**2 - r_min**2) + r_min**2)
        return LRUParams(
            **common,
            nu_log=param(np.log(-np.log(mag))),
            theta=param(rng.uniform(0.0, 2.0 * np.pi, state)),
            b_re=cplx_in(),
            b_im=cplx_in(),
            c_re=cplx_out(),
            c_im=cplx_out(),
        )
    if arch == "S5":
        return S5Params(
            **common,
            re_log=param(np.full(state, np.log(0.5))),
            im=param(np.pi * np.arange(state, dtype=np.float64)),
            log_dt=param(rng.uniform(np.log(1e-3), np.log(1e-1), state)),
            b_re=cplx_in(),
            b_im=cplx_in(),
            c_re=cplx_out(),
            c_im=cplx_out(),
        )
    if arch == "LinOSS":
        return LinOSSParams(
            **common,
            a_hat=param(rng.uniform(0.0, 1.0, state)),
            dt_hat=param(rng.uniform(-1.0, 1.0, state)),
            b_w=param(rng.standard_normal((hidden, state)) / np.sqrt(hidden)),
            c_w=param(rng.standard_normal((state, hidden)) / np.sqrt(state)),
        )
    return LrcSSMParams(
        **common,
        gate_w=param(rng.standard_normal((hidden, state)) / np.sqrt(hidden)),
        gate_b=param(np.zeros(state)),
        drive_w=param(rng.standard_normal((hidden, state)) / np.sqrt(hidden)),
        drive_b=param(np.zeros(state)),
        c_w=param(rng.standard_normal((state, hidden)) / np.sqrt(state)),
    )


def init_encoder(width: int, hidden: int, rng: np.random.Generator) -> EncoderParams:
    return EncoderParams(
        weight=param(rng.standard_normal((width, hidden)) / np.sqrt(width)),
        bias=param(np.zeros(hidden)),
    )


def init_head(hidden: int, n_classes: int, rng: np.random.Generator) -> HeadParams:
    return HeadParams(
        weight=param(rng.standard_normal((hidden, n_classes)) / np.sqrt(hidden)),
        bias=param(np.zeros(n_classes)),
    )


# --- forward passes ---------------------------------------------------------------
#
# The complex and oscillator factors carry a trailing pair axis, (re, im) or
# (z, y), in their forcing and readout: the forcing is one real matmul over
# interleaved columns, [..., H] @ [H, 2P], and the readout takes
# Re(C x) = x_re @ c_re - x_im @ c_im as [..., 2P] @ [2P, H].


def _lru_states(p: LRUParams):
    mag = ad.exp(-ad.exp(p.nu_log))
    lam = ad.stack([mag * ad.cos(p.theta), mag * ad.sin(p.theta)], axis=-1)
    gamma = ad.sqrt(1.0 - mag * mag)
    return "cdiag", ad.stack([gamma * p.b_re, gamma * p.b_im], axis=-1), lam


def _s5_states(p: S5Params):
    lam_re = -ad.exp(p.re_log)
    dt = ad.exp(p.log_dt)
    zi = dt * p.im
    decay = ad.exp(dt * lam_re)
    abar_re, abar_im = decay * ad.cos(zi), decay * ad.sin(zi)
    # bcoef = (abar - 1) / Lambda, then bcoef * B, in real arithmetic
    num_re = abar_re - 1.0
    d = lam_re * lam_re + p.im * p.im
    bc_re = (num_re * lam_re + abar_im * p.im) / d
    bc_im = (abar_im * lam_re - num_re * p.im) / d
    w = ad.stack([bc_re * p.b_re - bc_im * p.b_im, bc_re * p.b_im + bc_im * p.b_re], axis=-1)
    return "cdiag", w, ad.stack([abar_re, abar_im], axis=-1)


def _linoss_states(p: LinOSSParams):
    freq = ad.relu(p.a_hat)
    dt = ad.sigmoid(p.dt_hat)
    dt2 = dt * dt
    s = 1.0 / (1.0 + dt2 * freq)
    ds = dt * s
    # M = S [[1, -dt A], [dt, 1]], since 1 - dt^2 A S = S; no cancellation
    m = ad.stack([ad.stack([s, -(ds * freq)], axis=-1), ad.stack([ds, s], axis=-1)], axis=-2)
    return "mat2", ad.stack([ds * p.b_w, dt2 * s * p.b_w], axis=-1), m


def _lrcssm_states(p: LrcSSMParams):
    return "diag", p.drive_w, p.drive_b, p.gate_w, p.gate_b


_STATES = {
    LRUParams: _lru_states,
    S5Params: _s5_states,
    LinOSSParams: _linoss_states,
    LrcSSMParams: _lrcssm_states,
}
ARCHS = tuple(cls.arch for cls in _STATES)


def _readout(p: BlockParams) -> Tensor:
    """Readout weights [n, H] matching the states: Re(C x) = x_re @ c_re - x_im @ c_im
    over (re, im) pairs, and only the y of each (z, y) oscillator state."""
    if isinstance(p, LrcSSMParams):
        return p.c_w
    if isinstance(p, LinOSSParams):
        pairs = ad.stack([Tensor(np.zeros(p.c_w.shape)), p.c_w], axis=1)
    else:
        pairs = ad.stack([p.c_re, -p.c_im], axis=1)
    state, _, hidden = pairs.shape
    return ad.reshape(pairs, (2 * state, hidden))


def block_operands(p: BlockParams) -> tuple:
    """`ad.ssm_block`'s operands after h for block p (and `ad.BlockRows`' after H)."""
    return (
        p.norm_gain, p.norm_bias, _NORM_EPS, _STATES[type(p)](p), _readout(p), p.feedthrough,
        p.glu_value_w, p.glu_value_b, p.glu_gate_w, p.glu_gate_b,
    )


def block_forward(p: BlockParams, h: Tensor) -> Tensor:
    """Pre-norm, the arch's factor and scan, then the tail, as one node; preserves [T, ..., H]."""
    return ad.ssm_block(h, *block_operands(p))


def check_batch(p: EncoderParams, x: Tensor) -> None:
    """Refuse an input that is not an [N, T, w] batch for encoder p, naming its shape."""
    if x.ndim != 3 or x.shape[-1] != p.weight.shape[0]:
        raise ShapeError(f"input must be an [N, T, {p.weight.shape[0]}] batch, got shape {x.shape}")


def encoder_forward(p: EncoderParams, x: Tensor) -> Tensor:
    """The input batch x [N, T, w] lifted to time-major hidden states [T, N, H].

    `affine` gets a view with time moved to axis 0, so the tape keeps no
    copy of the input; x is data, and no gradient flows back into it. Any
    other shape is refused before any product, naming the shape passed.
    """
    check_batch(p, x)
    return ad.affine(Tensor(np.moveaxis(x.data, -2, 0)), p.weight, p.bias)


def head_forward(p: HeadParams, h: Tensor) -> Tensor:
    """Logits [..., C] from hidden states [T, ..., H] mean-pooled over time."""
    return head_from_sum(p, ad.sum_(h, axis=0), h.shape[0])


def head_from_sum(p: HeadParams, total, steps: int) -> Tensor:
    """Logits [..., C] from the time sum [..., H] of `steps` hidden states: `ad.mean_`'s
    scaling, then the linear map."""
    return ad.affine(ad.mul(total, 1.0 / steps), p.weight, p.bias)
