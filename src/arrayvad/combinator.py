"""Self-attention channel combinators.

A combinator looks at per-channel time-frequency features and produces one
combination weight per (channel, frame), normalized over channels with a
softmax so the weights form a convex combination. Every variant then takes
the same weighted channel sum, sum_c w_c * X_c, as one batched matmul:

* real combination: real weights times real per-channel values (STFT
  magnitudes, or the real and imaginary analytic bank outputs side by
  side), ``combine_real_graph``;
* complex combination: complex weights w = w_re + j*w_im times the complex
  STFT, ``combine_mag_phase_graph``. The frontend packs its two weight
  columns into (w_re, w_im), so the per-bin work is the product alone;
* concatenated single-bank combination: one attention bank over both
  representation parts concatenated along the feature axis. The bank's
  value map has a single column; its first half scores the first part and
  its second half the second part, so one shared attention map yields both
  weight columns while keeping the parameter count of exactly one bank at
  the doubled width (strictly below two separate banks).

This module holds the attention initialisation, the tape building blocks
(``weights_graph``, ``combine_real_graph``, ``combine_mag_phase_graph``,
``mvn_graph``) and the numpy containers ``CombinationWeights`` and
``CombinedSpectrogram``. Each frontend assembles the building blocks in its
``_combine`` step; the same step serves training, inference and, under
``autodiff.no_grad``, ``Frontend.combined`` (constants fold away when
nothing is learnable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ArgumentError

def attention_init(feat_dim, attn_dim, seed=0):
    """Uniform [-1/sqrt(feat_dim), +1/sqrt(feat_dim)] maps, zero biases."""
    if feat_dim < 1 or attn_dim < 1:
        raise ArgumentError("feat_dim and attn_dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feat_dim)
    return {
        "wq": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wk": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wv": rng.uniform(-bound, bound, size=(feat_dim, 1)),
        "bq": np.zeros(attn_dim),
        "bk": np.zeros(attn_dim),
        "bv": np.zeros(1),
    }


@dataclass(frozen=True)
class CombinationWeights:
    """Per (channel, frame) combination weights.

    kind "real": float64 (C, T), each frame's column on the simplex.
    kind "complex": complex128 (C, T); magnitudes lie on the simplex and the
    phase carries the learned correction term.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ArgumentError("weights must be (channels, frames)")
        if self.kind == "real":
            v = v.astype(np.float64)
            if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
                raise ArgumentError("real weights must lie in [0, 1]")
        elif self.kind == "complex":
            v = v.astype(np.complex128)
        else:
            raise ArgumentError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "values", v)

    @property
    def n_channels(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class CombinedSpectrogram:
    """Channel-combined representation plus the weights that built it.

    kind selects the downstream feature path: "sacc"/"mvdr" hold real
    magnitudes, "ecsacc"/"icsacc" hold complex spectra, "analytic" holds
    complex filterbank outputs whose real/imag parts are the features.
    """

    values: np.ndarray
    kind: str
    weights: CombinationWeights = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ArgumentError("combined values must be (frames, bins)")
        object.__setattr__(self, "values", v)


# -- tape-level building blocks ----------------------------------------------


def weights_graph(feats_tc, p, value_split=None):
    """Full weight computation on the tape; returns (T, C, cols).

    feats_tc: Tensor (T, C, feat_dim). p: dict of Tensors (wq, wk, wv, bq,
    bk, bv). Per frame: q, k, v are linear maps of the frame's channel
    feature matrix; attention rows are softmax(q k^T / sqrt(attn_dim)); the
    scores att @ v pass through a second softmax over channels. With
    value_split=None the value head has one column; with value_split=K the
    first K feature columns are scored by the first K value rows and the
    rest by the remaining rows, giving two columns.

    The logits take one of two forms, chosen by shape. Per frame, with X
    the (C, feat_dim) features, q k^T is X M X^T + 1 u^T X^T plus terms
    constant along each row, where M = wq wk^T and u = wk bq; the row
    softmax ignores those terms. When feat_dim <= 2 * attn_dim (default
    sacc, ecsacc, analytic) the logits are that bilinear form, at about
    half the Q/K form's FLOPs; otherwise (icsacc's 2K features, attn_dim 8)
    the Q/K form is up to 16x cheaper and is kept. M and u are tape nodes,
    recomputed on every call, so wq, wk and bq get gradients in both forms.
    bk only adds row constants, so its gradient is zero; the bilinear form
    leaves it off the tape and ``autodiff.grad`` gives exact zeros. It
    stays in the parameters and the checkpoint format.
    """
    feat_dim, attn_dim = p["wq"].shape
    if feat_dim <= 2 * attn_dim:
        wk_t = ad.transpose(p["wk"], (1, 0))
        u = ad.reshape(p["bq"], (1, attn_dim)) @ wk_t
        q = feats_tc @ (p["wq"] @ wk_t) + u
        k = feats_tc
    else:
        q = feats_tc @ p["wq"] + p["bq"]
        k = feats_tc @ p["wk"] + p["bk"]
    logits = (q @ ad.transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(attn_dim))
    att = ad.softmax(logits, axis=-1)
    if value_split is None:
        v = feats_tc @ p["wv"] + p["bv"]
    else:
        split = int(value_split)
        v_mag = feats_tc[:, :, :split] @ p["wv"][:split] + p["bv"]
        v_phase = feats_tc[:, :, split:] @ p["wv"][split:] + p["bv"]
        v = ad.concat([v_mag, v_phase], axis=-1)
    return ad.softmax(att @ v, axis=1)


def combine_real_graph(w_tc1, values_tc):
    """Weighted channel sum: (T, C, 1) weights x (T, C, K) values -> (T, K),
    as the batched product (T, 1, C) @ (T, C, K)."""
    n_frames, _, width = values_tc.shape
    return (ad.transpose(w_tc1, (0, 2, 1)) @ values_tc).reshape(n_frames, width)


def combine_mag_phase_graph(w_re, w_im, re_tc, im_tc):
    """Complex weighted channel sum, sum_c (w_re + j*w_im) * (re + j*im).

    w_re, w_im: (T, C, 1); re_tc, im_tc: (T, C, K). One (T, 2, C) @
    (T, C, 2K) product gives the four real channel sums; returns the (re, im)
    pair of (T, K) tensors. It serves both ``parts`` layouts; the name stays
    because ``perfbench`` traces the combination under it.
    """
    width = re_tc.shape[-1]
    w = ad.transpose(ad.concat([w_re, w_im], axis=-1), (0, 2, 1))
    p = w @ ad.concat([re_tc, im_tc], axis=-1)
    re = p[:, 0, :width] - p[:, 1, width:]
    im = p[:, 0, width:] + p[:, 1, :width]
    return re, im


def mvn_graph(x):
    """Tape version of per-bin mean/variance normalization over axis 0."""
    n = x.shape[0]
    mean = x.sum(axis=0, keepdims=True) * (1.0 / n)
    centered = x - mean
    var = (centered * centered).sum(axis=0, keepdims=True) * (1.0 / n)
    return centered / (var.sqrt() + 1e-6)
