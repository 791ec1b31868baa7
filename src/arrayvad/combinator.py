"""Self-attention channel combinators.

A combinator looks at per-channel time-frequency features and produces one
combination weight per (channel, frame), normalized over channels with a
softmax so the weights form a convex combination. Variants:

* magnitude combination: real weights applied to per-channel magnitudes and
  summed over channels;
* magnitude/phase combination: two weight sets from separate attention banks
  (one per representation part) form a complex per-channel weight
  w = w_mag * exp(j * 2*pi * w_phase) that multiplies the complex
  spectrogram before the channel sum;
* concatenated single-bank combination: one attention bank over the
  magnitude and phase features concatenated along the feature axis. The
  bank's value map has a single column; its first half scores the magnitude
  features and its second half the phase features, so one shared attention
  map yields both weight sets while keeping the parameter count of exactly
  one bank at the doubled width (strictly below two separate banks).

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

TWO_PI = 2.0 * np.pi

VALID_KINDS = ("sacc", "mvdr", "ecsacc", "icsacc", "analytic")


@dataclass(frozen=True)
class AttentionParams:
    """One attention bank: query/key maps to attn_dim, a one-column value map.

    Shapes: wq, wk (feat_dim, attn_dim); wv (feat_dim, 1); bq, bk (attn_dim,);
    bv (1,).
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray

    def __post_init__(self):
        wq = np.asarray(self.wq, dtype=np.float64)
        wk = np.asarray(self.wk, dtype=np.float64)
        wv = np.asarray(self.wv, dtype=np.float64)
        if wq.ndim != 2 or wk.shape != wq.shape:
            raise ArgumentError("wq and wk must be matching (feat_dim, attn_dim) matrices")
        if wv.shape != (wq.shape[0], 1):
            raise ArgumentError("wv must be (feat_dim, 1)")
        bq = np.asarray(self.bq, dtype=np.float64)
        bk = np.asarray(self.bk, dtype=np.float64)
        bv = np.asarray(self.bv, dtype=np.float64)
        if bq.shape != (wq.shape[1],) or bk.shape != (wq.shape[1],):
            raise ArgumentError("bq and bk must be (attn_dim,)")
        if bv.shape != (1,):
            raise ArgumentError("bv must be (1,)")
        for name, arr in (("wq", wq), ("wk", wk), ("wv", wv), ("bq", bq), ("bk", bk), ("bv", bv)):
            object.__setattr__(self, name, arr)

    @property
    def feat_dim(self):
        return self.wq.shape[0]

    @property
    def attn_dim(self):
        return self.wq.shape[1]

    @property
    def n_params(self):
        return (
            self.wq.size + self.wk.size + self.wv.size
            + self.bq.size + self.bk.size + self.bv.size
        )

    def as_arrays(self):
        return {
            "wq": self.wq,
            "wk": self.wk,
            "wv": self.wv,
            "bq": self.bq,
            "bk": self.bk,
            "bv": self.bv,
        }


def attention_init(feat_dim, attn_dim, seed=0):
    """Uniform [-1/sqrt(feat_dim), +1/sqrt(feat_dim)] maps, zero biases."""
    if feat_dim < 1 or attn_dim < 1:
        raise ArgumentError("feat_dim and attn_dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(feat_dim)
    return AttentionParams(
        wq=rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        wk=rng.uniform(-bound, bound, size=(feat_dim, attn_dim)),
        wv=rng.uniform(-bound, bound, size=(feat_dim, 1)),
        bq=np.zeros(attn_dim),
        bk=np.zeros(attn_dim),
        bv=np.zeros(1),
    )


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
    sample_rate: int
    hop_s: float
    weights: CombinationWeights = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ArgumentError("combined values must be (frames, bins)")
        if self.kind not in VALID_KINDS:
            raise ArgumentError(f"unknown combined kind {self.kind!r}")
        object.__setattr__(self, "values", v)


# -- tape-level building blocks ----------------------------------------------


def attention_scores_graph(feats_tc, p, value_split=None):
    """Raw attention scores before the channel softmax.

    feats_tc: Tensor (T, C, feat_dim). p: dict of Tensors (wq, wk, wv, bq,
    bk, bv). With value_split=None the value head has one column; with
    value_split=K the first K feature columns are scored by the first K
    value rows and the rest by the remaining rows, giving two columns.
    Returns (T, C, cols).
    """
    attn_dim = p["wq"].shape[1]
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
    return att @ v


def channel_softmax_graph(scores):
    """Normalize scores over the channel axis; (T, C, cols) -> same shape."""
    return ad.softmax(scores, axis=1)


def weights_graph(feats_tc, p, value_split=None):
    """Full weight computation on the tape; returns (T, C, cols).

    Per frame: q, k, v are linear maps of the frame's channel feature
    matrix; attention rows are softmax(q k^T / sqrt(attn_dim)); the scores
    att @ v pass through a second softmax over channels.
    """
    return channel_softmax_graph(attention_scores_graph(feats_tc, p, value_split))


def combine_real_graph(w_tc1, values_tc):
    """Convex channel combination: (T,C,1) weights x (T,C,K) -> (T,K)."""
    return (w_tc1 * values_tc).sum(axis=1)


def combine_mag_phase_graph(w_mag, w_phase, mag_tc, angle_tc):
    """Complex combination from magnitude/phase weight pairs.

    w_mag, w_phase: (T,C,1); mag_tc, angle_tc: (T,C,K) constants or nodes.
    Returns (re, im) tensors of shape (T,K) for
    sum_c (w_mag * mag) * exp(j * (2*pi*w_phase + angle)).
    """
    m = w_mag * mag_tc
    phi = w_phase * TWO_PI + angle_tc
    re = (m * phi.cos()).sum(axis=1)
    im = (m * phi.sin()).sum(axis=1)
    return re, im


def mvn_graph(x, time_axis=0):
    """Tape version of per-bin mean/variance normalization over time."""
    n = x.shape[time_axis]
    mean = x.sum(axis=time_axis, keepdims=True) * (1.0 / n)
    centered = x - mean
    var = (centered * centered).sum(axis=time_axis, keepdims=True) * (1.0 / n)
    return centered / (var.sqrt() + 1e-6)
