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

A bank holds only what can change an output: the query, key and value maps
``wq``, ``wk``, ``wv`` and the query bias ``bq``. A key bias would add
one constant to every logit of a row, which the row softmax drops; a value
bias would add the same amount to every channel's score (each attention row
sums to 1), which the channel softmax drops.

This module holds the attention initialisation and the tape building blocks
(``weights_graph``, ``combine_real_graph``, ``combine_mag_phase_graph``,
``mvn_graph``). Each frontend assembles them in its ``_combine`` step; the
same step serves training, inference and, under ``autodiff.no_grad``,
``Frontend.combined`` (constants fold away when nothing is learnable).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ArgumentError


def attention_init(feat_dim, attn_dim, seed=0):
    """Uniform [-1/sqrt(feat_dim), +1/sqrt(feat_dim)] maps, zero query bias."""
    if feat_dim < 1 or attn_dim < 1:
        raise ArgumentError("feat_dim and attn_dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feat_dim)
    return {
        "wq": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wk": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wv": rng.uniform(-bound, bound, size=(feat_dim, 1)),
        "bq": np.zeros(attn_dim),
    }


# -- tape-level building blocks ----------------------------------------------


def weights_graph(feats_tc, p, value_split=None):
    """Full weight computation on the tape; returns (T, C, cols).

    feats_tc: Tensor (T, C, feat_dim). p: dict of Tensors (wq, wk, wv, bq).
    Per frame: q = X wq + bq, k = X wk and v = X wv, with X the frame's
    (C, feat_dim) channel features; attention rows are
    softmax(q k^T / sqrt(attn_dim)); the scores att @ v pass through a
    second softmax over channels. With value_split=None the value head has
    one column; with value_split=K the first K feature columns are scored
    by the first K value rows and the rest by the remaining rows, giving
    two columns.

    The logits take one of two forms, chosen by shape. Per frame, q k^T is
    X M X^T + 1 u^T X^T, where M = wq wk^T and u = wk bq. When
    feat_dim <= 2 * attn_dim (default sacc, ecsacc, analytic) the logits
    are that bilinear form, at about half the Q/K form's FLOPs; otherwise
    (icsacc's 2K features, attn_dim 8) the Q/K form is up to 16x cheaper
    and is kept. M and u are tape nodes, recomputed on every call, so wq,
    wk and bq get gradients in both forms.
    """
    feat_dim, attn_dim = p["wq"].shape
    if feat_dim <= 2 * attn_dim:
        wk_t = ad.transpose(p["wk"], (1, 0))
        u = ad.reshape(p["bq"], (1, attn_dim)) @ wk_t
        q = feats_tc @ (p["wq"] @ wk_t) + u
        k = feats_tc
    else:
        q = feats_tc @ p["wq"] + p["bq"]
        k = feats_tc @ p["wk"]
    logits = (q @ ad.transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(attn_dim))
    att = ad.softmax(logits, axis=-1)
    if value_split is None:
        v = feats_tc @ p["wv"]
    else:
        split = int(value_split)
        v_mag = feats_tc[:, :, :split] @ p["wv"][:split]
        v_phase = feats_tc[:, :, split:] @ p["wv"][split:]
        v = ad.concat([v_mag, v_phase], axis=-1)
    return ad.softmax(att @ v, axis=1)


def combine_real_graph(w_tc1, values_tc):
    """Weighted channel sum: (T, C, 1) weights x (T, C, K) values -> (T, K),
    as the batched product (T, 1, C) @ (T, C, K)."""
    n_frames, _, width = values_tc.shape
    return (ad.transpose(w_tc1, (0, 2, 1)) @ values_tc).reshape(n_frames, width)


def combine_mag_phase_graph(w_re, w_im, reim_tc):
    """Complex weighted channel sum, sum_c (w_re + j*w_im) * (re + j*im).

    w_re, w_im: (T, C, 1); reim_tc: (T, C, 2K), the real parts of the
    spectrum in the first K columns and the imaginary parts in the last K.
    One (T, 2, C) @ (T, C, 2K) product gives the four real channel sums;
    returns the (re, im) pair of (T, K) tensors. It serves both ``parts``
    layouts; the name stays because ``perfbench`` traces the combination
    under it.
    """
    width = reim_tc.shape[-1] // 2
    w = ad.transpose(ad.concat([w_re, w_im], axis=-1), (0, 2, 1))
    p = w @ reim_tc
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
