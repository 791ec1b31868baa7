"""Causal TCN classifier for 3-class frame labeling (silence / one / overlap).

The network is a stack of dilated causal 1-D convolutions over a feature
sequence: per-frame layer norm, a 1x1 bottleneck projection, ``blocks``
repeats of ``layers_per_block`` dilated conv layers (dilation doubling per
layer) with a residual connection around each block, then a linear 1x1
projection to class logits. There is no temporal downsampling, so one logit
row comes out per input frame.

Everything runs on the float64 autodiff graph, so a scalar loss computed
from ``tcn_forward`` output can be swept backward through every parameter
with ``arrayvad.autodiff.grad``.

Convolutions are expressed as shifted matmuls over a left-padded sequence:
tap ``j`` of a kernel reads the input ``(kernel-1-j) * dilation`` frames in
the past, so frame ``t`` of the output never sees frames after ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .autodiff import (
    Tensor,
    as_tensor,
    concat,
    getitem,
    parameter,
    relu,
    tmean,
    tsqrt,
)
from .errors import ArgumentError, NumericError, check_size, from_config
from .segeval import N_CLASSES

_NORM_EPS = 1e-5


@dataclass(frozen=True)
class TcnConfig:
    """Shape of the classifier.

    ``input_dim`` is the per-frame feature width the net expects. Dilation
    of layer ``l`` inside a block is ``2**l``. The output width is always
    ``segeval.N_CLASSES``.
    """

    input_dim: int
    bottleneck: int = 64
    hidden: int = 128
    layers_per_block: int = 5
    blocks: int = 3
    kernel: int = 3

    def __post_init__(self):
        for name in ("input_dim", "bottleneck", "hidden", "layers_per_block",
                     "blocks", "kernel"):
            if int(getattr(self, name)) < 1:
                raise ArgumentError(f"{name} must be >= 1")
        width = max(self.bottleneck, self.hidden)
        n_layers = self.blocks * self.layers_per_block
        check_size(self.input_dim * self.bottleneck
                   + n_layers * self.kernel * width * self.hidden,
                   "the TCN's weights")
        # The widest dilation pads (kernel - 1) * 2**(layers_per_block - 1)
        # frames; past 2**64 frames the check fails either way.
        dilation = 2 ** min(self.layers_per_block - 1, 64)
        check_size((self.kernel - 1) * dilation * width,
                   "the TCN's causal padding")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d)


def receptive_field(cfg: TcnConfig) -> int:
    """Frames of past context that can influence one output frame."""
    per_block = sum((cfg.kernel - 1) * 2 ** l
                    for l in range(cfg.layers_per_block))
    return 1 + cfg.blocks * per_block


@dataclass
class ModelParams:
    """Named parameter tensors plus the config and seed that produced them."""

    tensors: Dict[str, Tensor]
    config: TcnConfig
    seed: int


def _conv_layer_names(cfg):
    for bi in range(cfg.blocks):
        for li in range(cfg.layers_per_block):
            cin = cfg.bottleneck if (bi == 0 and li == 0) else cfg.hidden
            yield bi, li, cin


def tcn_init(cfg: TcnConfig, seed: int) -> ModelParams:
    """Deterministic init: uniform +-1/sqrt(fan_in), norm gain 1 / bias 0."""
    rng = np.random.default_rng(int(seed))

    def uniform(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return parameter(rng.uniform(-bound, bound, size=shape))

    tensors: Dict[str, Tensor] = {}
    tensors["norm/gain"] = parameter(np.ones(cfg.input_dim))
    tensors["norm/bias"] = parameter(np.zeros(cfg.input_dim))
    tensors["bottleneck/w"] = uniform(cfg.input_dim,
                                      (cfg.input_dim, cfg.bottleneck))
    tensors["bottleneck/b"] = uniform(cfg.input_dim, (cfg.bottleneck,))
    for bi, li, cin in _conv_layer_names(cfg):
        fan = cfg.kernel * cin
        tensors[f"block{bi}/conv{li}/w"] = uniform(
            fan, (cfg.kernel, cin, cfg.hidden))
        tensors[f"block{bi}/conv{li}/b"] = uniform(fan, (cfg.hidden,))
    if cfg.bottleneck != cfg.hidden:
        tensors["block0/res/w"] = uniform(cfg.bottleneck,
                                          (cfg.bottleneck, cfg.hidden))
    tensors["out/w"] = uniform(cfg.hidden, (cfg.hidden, N_CLASSES))
    tensors["out/b"] = uniform(cfg.hidden, (N_CLASSES,))
    return ModelParams(tensors=tensors, config=cfg, seed=int(seed))


def layer_norm(x, gain, bias):
    """Per-frame normalization over the feature axis, differentiable."""
    x = as_tensor(x)
    mu = tmean(x, axis=1, keepdims=True)
    centered = x - mu
    var = tmean(centered * centered, axis=1, keepdims=True)
    return centered / tsqrt(var + _NORM_EPS) * gain + bias


def causal_conv1d(x, w, b, dilation):
    """Dilated causal conv over time: (T, Cin) x (k, Cin, Cout) -> (T, Cout).

    The input is left-padded with (k-1)*dilation zero frames so tap j reads
    (k-1-j)*dilation frames into the past and the last tap reads the current
    frame.
    """
    k, cin, _ = w.shape
    t = x.shape[0]
    pad = (k - 1) * int(dilation)
    if pad:
        x = concat([Tensor(np.zeros((pad, cin))), x], axis=0)
    out = None
    for j in range(k):
        lo = j * int(dilation)
        tap = getitem(x, slice(lo, lo + t)) @ getitem(w, j)
        out = tap if out is None else out + tap
    return out + b


def tcn_forward(params: ModelParams, x) -> Tensor:
    """Logits (T, N_CLASSES) for a feature sequence (T, input_dim)."""
    cfg = params.config
    x = as_tensor(x)
    if x.ndim != 2:
        raise ArgumentError("expected a 2-D (frames, features) input")
    if x.shape[1] != cfg.input_dim:
        raise ArgumentError(
            f"feature width {x.shape[1]} does not match input_dim "
            f"{cfg.input_dim}")
    if x.shape[0] < 1:
        raise ArgumentError("need at least one frame")
    t = params.tensors
    h = layer_norm(x, t["norm/gain"], t["norm/bias"])
    h = relu(h @ t["bottleneck/w"] + t["bottleneck/b"])
    for bi in range(cfg.blocks):
        skip = h
        for li in range(cfg.layers_per_block):
            h = relu(causal_conv1d(h, t[f"block{bi}/conv{li}/w"],
                                   t[f"block{bi}/conv{li}/b"], 2 ** li))
        res_key = f"block{bi}/res/w"
        if bi == 0 and res_key in t.keys():
            skip = skip @ t[res_key]
        h = h + skip
    return h @ t["out/w"] + t["out/b"]


def posteriors(logits) -> np.ndarray:
    """Rowwise stable softmax of logits, as a plain (T, N_CLASSES) array.

    Inference-side helper; the training losses work on logits directly.
    """
    data = logits.data if isinstance(logits, Tensor) else np.asarray(
        logits, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NumericError("non-finite logits")
    shifted = data - data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def decisions(probs) -> np.ndarray:
    """Argmax class per frame; ties resolve toward the lower class index."""
    probs = np.asarray(probs, dtype=np.float64)
    return np.argmax(probs, axis=-1).astype(np.int64)
