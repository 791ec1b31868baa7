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

Channel subsets share one attention pass. Every projection (X wq, X wk,
X wv, or X M in the bilinear form) reads one channel's features alone, so
the attention of a subset S of the channels is the full attention with
both softmaxes restricted to S. ``weights_graph`` takes a (P, C) boolean
channel mask, one row per subset (a path), and returns (T, P, C, cols)
weights that are exactly 0 outside each path's subset; the combination
ops take that path axis and give every path's channel sum from one
batched product. Training's reference and masked duplicates, and the keep
sets of ``maskeval``, are such paths.

This module holds the attention initialisation and the tape building blocks
(``weights_graph``, ``combine_real_graph``, ``combine_mag_phase_graph``,
``mvn_graph``). Each frontend assembles them in its ``_combine`` step; the
same step serves training, inference and, under ``autodiff.no_grad``,
``Frontend.combined`` (constants fold away when nothing is learnable).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ArgumentError, check_size


def attention_init(feat_dim, attn_dim, seed=0):
    """Uniform [-1/sqrt(feat_dim), +1/sqrt(feat_dim)] maps, zero query bias."""
    if feat_dim < 1 or attn_dim < 1:
        raise ArgumentError("feat_dim and attn_dim must be >= 1")
    check_size(feat_dim * attn_dim,
               f"a ({feat_dim}, {attn_dim}) attention map")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feat_dim)
    return {
        "wq": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wk": rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        "wv": rng.uniform(-bound, bound, size=(feat_dim, 1)),
        "bq": np.zeros(attn_dim),
    }


# -- tape-level building blocks ----------------------------------------------


def weights_graph(feats_tc, p, value_split=None, mask=None):
    """Full weight computation on the tape; returns (T, C, cols), or
    (T, P, C, cols) with a mask.

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

    mask: optional (P, C) boolean array, one row per channel subset S (a
    path), each keeping at least one channel. Every projection depends on
    one channel's features alone, so the attention of the features of S
    alone is this one's restricted to S: its logits are the S x S block of
    the full logits, and its row and channel softmaxes are the full ones
    with -inf outside S. So X wq (or X M), X wk and X wv run once for all
    paths and only the two softmaxes run per path. Path p's weights are
    exactly 0 on the channels outside its subset.
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
    if value_split is None:
        v = feats_tc @ p["wv"]
    else:
        split = int(value_split)
        v_mag = feats_tc[:, :, :split] @ p["wv"][:split]
        v_phase = feats_tc[:, :, split:] @ p["wv"][split:]
        v = ad.concat([v_mag, v_phase], axis=-1)
    if mask is None:
        return ad.softmax(ad.softmax(logits, axis=-1) @ v, axis=1)
    n_frames, n_ch, cols = v.shape
    off = _mask_offsets(mask, n_ch)
    n_paths = off.shape[0]
    logits = ad.reshape(logits, (n_frames, 1, n_ch, n_ch)) + off[:, None, :]
    att = ad.reshape(ad.softmax(logits, axis=-1),
                     (n_frames, n_paths * n_ch, n_ch))
    scores = ad.reshape(att @ v, (n_frames, n_paths, n_ch, cols))
    return ad.softmax(scores + off[:, :, None], axis=2)


def _mask_offsets(mask, n_ch):
    """(P, C) logit offsets of a channel mask: 0 on kept channels, -inf on
    the others."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 2 or mask.shape[1] != n_ch:
        raise ArgumentError(
            f"channel mask must be a (paths, {n_ch}) boolean array, got "
            f"{mask.dtype} {mask.shape}")
    if not mask.any(axis=1).all():
        raise ArgumentError("every channel mask row must keep a channel")
    return np.where(mask, 0.0, -np.inf)


def _paths_by_channel(w, n_frames, n_ch):
    """(T, [P,] C, cols) weights as the (T, cols * P, C) left operand of a
    channel sum, column by column: rows [0, P) hold the first column of
    every path, rows [P, 2P) the second."""
    axes = (0, w.ndim - 1) + tuple(range(1, w.ndim - 1))
    return ad.reshape(ad.transpose(w, axes), (n_frames, -1, n_ch))


def combine_real_graph(w, values_tc):
    """Weighted channel sum: (T, C, 1) weights x (T, C, K) values -> (T, K),
    as the batched product (T, 1, C) @ (T, C, K); with a path axis,
    (T, P, C, 1) weights give (T, P, K) from one (T, P, C) @ (T, C, K)."""
    n_frames, n_ch, width = values_tc.shape
    out = _paths_by_channel(w, n_frames, n_ch) @ values_tc
    return out.reshape(w.shape[:-2] + (width,))


def combine_mag_phase_graph(w_re, w_im, reim_tc):
    """Complex weighted channel sum, sum_c (w_re + j*w_im) * (re + j*im).

    w_re, w_im: (T, C, 1), or (T, P, C, 1) with a path axis; reim_tc:
    (T, C, 2K), the real parts of the spectrum in the first K columns and
    the imaginary parts in the last K. One (T, 2P, C) @ (T, C, 2K) product
    gives the four real channel sums of every path; returns the (re, im)
    pair of (T, K) tensors, or (T, P, K) with a path axis. It serves both
    ``parts`` layouts; the name stays because ``perfbench`` traces the
    combination under it.
    """
    n_frames, n_ch, two_k = reim_tc.shape
    width = two_k // 2
    w = _paths_by_channel(ad.concat([w_re, w_im], axis=-1), n_frames, n_ch)
    n_paths = w.shape[1] // 2
    p = w @ reim_tc
    re = p[:, :n_paths, :width] - p[:, n_paths:, width:]
    im = p[:, :n_paths, width:] + p[:, n_paths:, :width]
    out_shape = w_re.shape[:-2] + (width,)
    return re.reshape(out_shape), im.reshape(out_shape)


def mvn_graph(x):
    """Tape version of per-bin mean/variance normalization over axis 0."""
    n = x.shape[0]
    mean = x.sum(axis=0, keepdims=True) * (1.0 / n)
    centered = x - mean
    var = (centered * centered).sum(axis=0, keepdims=True) * (1.0 / n)
    return centered / (var.sqrt() + 1e-6)
