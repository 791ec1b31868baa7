"""Losses, channel-masked duplicates, Adam, and the training loop.

The training objective is a weighted sum of a frame cross-entropy on the
reference path (all channels) and a channel-count invariance term that
pulls the frontend features of random channel subsets of the same segment
(the masked duplicates) toward the reference features. The masking RNG is
a self-contained xorshift64* stream (documented below) so duplicate
construction is bit-reproducible across platforms and independent of
numpy's generator internals. A duplicate is a row of a channel mask, not a
copy of samples.

A training step analyses and normalises each cropped item once
(``frontend.analyse``, then ``frontend.normalise``). With the invariance
term, the reference features and every masked duplicate's features come
from one ``frontend.window_features`` call on those normalised parts with a
channel mask: row 0 keeps every channel (the reference), row p the channels
duplicate p kept (``make_masked_duplicates``). Analysis, normalisation and
the attention projections work on each channel alone, so they run once per
item and only the masked softmaxes, the channel sum and mel/log run per
path. Each path's features equal those of the kept channels' own samples
to within rounding (about 1e-15 relative); without the invariance term no
mask is passed and the step is the plain reference path. The invariance
term needs frontend weights to train, so a frontend without any (``mvdr``)
refuses it.

Masking stream
--------------
For duplicate ``p`` of step ``step`` under seed ``s``, the generator state
is ``splitmix64(splitmix64(splitmix64(s) ^ step) ^ p)`` (zero remaps to a
fixed odd constant). Draws then follow xorshift64*:

    x ^= x >> 12;  x ^= (x << 25) mod 2^64;  x ^= x >> 27
    output = (x * 2685821657736338717) mod 2^64

Bounded draws use rejection sampling, so every value in the requested
range is exactly equally likely.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor, tsqrt, tsum
from .errors import ArgumentError, NumericError
from .seqmodel import ModelParams, decisions, posteriors, tcn_forward
from .segeval import FrameLabels, osd_metrics
# mask_channels is unused here; perfbench/tracing.py wraps it under this name.
from .signal_io import (MultichannelSignal, channel_mask, mask_channels,
                        slice_segment)
from .spectral import FRAME_RATE

_MASK64 = (1 << 64) - 1
_XS_MULT = 2685821657736338717
_EPS_NORM = 1e-12
_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class InvariantConfig:
    """Channel-masking setup: duplicate count, loss trade-off, RNG seed."""

    p: int = 2
    lam: float = 0.7
    min_keep: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError("duplicate count p must be >= 1")
        if not (0.0 <= self.lam <= 1.0):
            raise ArgumentError("lambda must lie in [0, 1]")
        if self.min_keep < 2:
            raise ArgumentError("min_keep must be >= 2")

    @classmethod
    def from_dict(cls, d):
        return cls(p=int(d.get("p", 2)), lam=float(d.get("lambda", 0.7)),
                   min_keep=int(d.get("min_keep", 2)),
                   rng_seed=int(d.get("rng_seed", 0)))


@dataclass(frozen=True)
class TrainConfig:
    """Loop shape. Defaults are full-scale; desk runs shrink them.

    segment_s is the training-window length: items longer than it are
    cropped to a random window of that length on each draw.
    """

    batch_size: int = 64
    steps_per_epoch: int = 2000
    segment_s: float = 2.0
    lr: float = 1e-3
    patience: int = 5
    max_epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if (self.batch_size < 1 or self.steps_per_epoch < 1
                or self.patience < 1 or self.max_epochs < 1):
            raise ArgumentError("counts in TrainConfig must be >= 1")
        if self.segment_s <= 0 or self.lr <= 0:
            raise ArgumentError("segment_s and lr must be positive")

    @classmethod
    def from_dict(cls, d):
        known = {"batch_size": int, "steps_per_epoch": int,
                 "segment_s": float, "lr": float, "patience": int,
                 "max_epochs": int, "seed": int}
        kwargs = {k: known[k](v) for k, v in d.items() if k in known}
        unknown = set(d) - set(known)
        if unknown:
            raise ArgumentError(f"unknown TrainConfig keys: {sorted(unknown)}")
        return cls(**kwargs)


# -- losses -------------------------------------------------------------------


def cross_entropy(logits, labels) -> Tensor:
    """Mean over frames of -log softmax(logits)[label].

    Log-sum-exp is stabilized by subtracting the detached rowwise max, so
    huge logits stay finite without disturbing the gradient.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ArgumentError("logits must be (frames, classes)")
    y = labels.labels if isinstance(labels, FrameLabels) else \
        np.asarray(labels, dtype=np.int64)
    n_frames, width = logits.shape
    if y.ndim != 1 or y.size != n_frames:
        raise ArgumentError(
            f"labels length {y.size} does not match {n_frames} frames")
    if y.min() < 0 or y.max() >= width:
        raise ArgumentError("labels out of class range")
    shift = logits.data.max(axis=1, keepdims=True)
    lse = ad.tlog(ad.texp(logits - shift).sum(axis=1)) + shift[:, 0]
    picked = ad.getitem(logits, (np.arange(n_frames), y))
    return (lse - picked).mean()


def invariant_loss(x_ref, masked_feats) -> Tensor:
    """Channel-count invariance penalty between reference and masked features.

    Mean over duplicates of
    ||X_ref - X_p||_F / ((||X_ref||_F + eps) * (||X_p||_F + eps)).
    The eps guard on each norm keeps zero feature maps finite.
    """
    x_ref = as_tensor(x_ref)
    if not masked_feats:
        raise ArgumentError("need at least one masked feature map")
    ref_norm = tsqrt(tsum(x_ref * x_ref)) + _EPS_NORM
    total = None
    for xp in masked_feats:
        xp = as_tensor(xp)
        if xp.shape != x_ref.shape:
            raise ArgumentError(
                f"masked features {xp.shape} do not match reference "
                f"{x_ref.shape}")
        dup_norm = tsqrt(tsum(xp * xp)) + _EPS_NORM
        diff = x_ref - xp
        term = tsqrt(tsum(diff * diff)) / (ref_norm * dup_norm)
        total = term if total is None else total + term
    return total * (1.0 / len(masked_feats))


def dual_loss(ce, inv, lam):
    """lam * ce + (1 - lam) * inv, with lam validated into [0, 1]."""
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ArgumentError("lambda must lie in [0, 1]")
    return ce * lam + inv * (1.0 - lam)


# -- masking RNG --------------------------------------------------------------


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stream_state(seed, step, p):
    state = _splitmix64(_splitmix64(_splitmix64(seed & _MASK64) ^ (step & _MASK64)) ^ (p & _MASK64))
    return state if state != 0 else 0x9E3779B97F4A7C15


class Xorshift64Star:
    """The documented masking generator; see the module docstring."""

    def __init__(self, state):
        state = int(state) & _MASK64
        if state == 0:
            raise ArgumentError("xorshift64* state must be nonzero")
        self._state = state

    def next_u64(self):
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS_MULT) & _MASK64

    def below(self, n):
        """Uniform integer in [0, n) by rejection."""
        if n < 1:
            raise ArgumentError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def duplicate_stream(cfg: InvariantConfig, step, p) -> Xorshift64Star:
    return Xorshift64Star(_stream_state(cfg.rng_seed, step, p))


def make_masked_duplicates(signal: MultichannelSignal, cfg: InvariantConfig,
                           step=0) -> np.ndarray:
    """(P, C) boolean channel mask of ``signal``: row p keeps the channels
    of duplicate p.

    Per duplicate: the kept-channel count is uniform on
    {min_keep, ..., C}, then a uniform subset of that size survives. Each
    (step, p) pair owns an independent deterministic stream.
    """
    n_ch = signal.n_channels
    if n_ch < 2:
        raise ArgumentError("channel masking needs at least 2 channels")
    if cfg.min_keep > n_ch:
        raise ArgumentError(
            f"min_keep {cfg.min_keep} exceeds channel count {n_ch}")
    rows = []
    for p in range(cfg.p):
        rng = duplicate_stream(cfg, step, p)
        n_keep = cfg.min_keep + rng.below(n_ch - cfg.min_keep + 1)
        pool = list(signal.channel_ids)
        for i in range(n_keep):
            j = i + rng.below(n_ch - i)
            pool[i], pool[j] = pool[j], pool[i]
        rows.append(channel_mask(signal, pool[:n_keep]))
    return np.stack(rows)


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(params, grads, state: AdamState, lr) -> AdamState:
    """One in-place Adam update (b1=0.9, b2=0.999, eps=1e-8 after the sqrt)."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
    state.t += 1
    c1 = 1.0 - _ADAM_B1 ** state.t
    c2 = 1.0 - _ADAM_B2 ** state.t
    for name, tensor in params.items():
        g = grads[name]
        state.m[name] = _ADAM_B1 * state.m[name] + (1.0 - _ADAM_B1) * g
        state.v[name] = _ADAM_B2 * state.v[name] + (1.0 - _ADAM_B2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return state


# -- loop ---------------------------------------------------------------------


@dataclass
class TrainResult:
    """Best-validation model plus the full metrics history."""

    frontend: object
    model: ModelParams
    history: List[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_f1: float = float("-inf")


def _aligned_labels(labels, n_frames):
    """The first ``n_frames`` labels; a shorter label array is an error."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size < n_frames:
        raise ArgumentError(
            f"segment provides {labels.size} labels for {n_frames} feature "
            f"frames")
    return labels[:n_frames]


def _crop_item(item, segment_s, rng):
    """Random fixed-length training window of an item.

    Items at or below segment_s pass through whole (and consume no random
    draw); longer ones are cropped to segment_s starting on a frame of the
    ``FRAME_RATE`` grid, so the label slice stays exact.
    """
    labels = np.asarray(item.labels.labels, dtype=np.int64)
    seg_frames = int(round(segment_s * FRAME_RATE))
    if item.signal.duration_s <= segment_s or labels.size <= seg_frames:
        return item.signal, labels
    sr = item.signal.sample_rate
    count = int(round(segment_s * sr))
    hi = min(labels.size - seg_frames,
             int((item.signal.n_samples - count) * FRAME_RATE / sr))
    if hi < 1:
        return item.signal, labels
    start_frame = int(rng.integers(0, hi + 1))
    while int(round(start_frame / FRAME_RATE * sr)) + count > item.signal.n_samples:
        start_frame -= 1  # guards rounding when sr is not a rate multiple
    window = slice_segment(item.signal, start_frame / FRAME_RATE, segment_s)
    return window, labels[start_frame:start_frame + seg_frames]


def _validation_f1(frontend, model, items):
    """OSD F1 over all validation frames with argmax decisions."""
    refs, hyps = [], []
    with ad.no_grad():
        for item in items:
            feats = frontend.features(item.signal)
            logits = tcn_forward(model, feats)
            hyp = decisions(posteriors(logits))
            refs.append(_aligned_labels(item.labels.labels, hyp.size))
            hyps.append(hyp)
    ref = FrameLabels(np.concatenate(refs))
    hyp = FrameLabels(np.concatenate(hyps))
    return osd_metrics(ref, hyp).f1


def _duplicate_mask(duplicates):
    """(1 + P, C) channel mask: row 0 keeps every channel (the reference
    path), row p the channels that duplicate p kept."""
    return np.vstack([np.ones((1, duplicates.shape[1]), dtype=bool),
                      duplicates])


def _mean(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def _log_record(result, log, record):
    """Append ``record`` to the history and, with a log file, write and
    flush it at once, so the log keeps every record up to a failure."""
    result.history.append(record)
    if log is not None:
        log.write(json.dumps(record, sort_keys=True) + "\n")
        log.flush()


def train(frontend, model: ModelParams, train_items, val_items,
          tcfg: TrainConfig, icfg: Optional[InvariantConfig] = None,
          log_path=None) -> TrainResult:
    """Optimize frontend+model on labeled segments; keep the best-F1 state.

    Per step: sample a batch, crop each item to a segment_s window when it
    is longer, run the frontend and classifier per segment, average the
    cross-entropy (reference path only), optionally add the invariance term
    over channel-masked duplicates, backprop once, update with Adam. Each
    segment is analysed and normalised once; the reference and its
    duplicates take their features from one masked ``window_features``
    call on those parts (``_duplicate_mask``). Per epoch: validation OSD
    F1; stop after ``patience`` epochs without a new best and restore the
    best snapshot before returning. Each history record goes to
    ``log_path`` (NDJSON) as soon as it exists.
    With lam = 1 the duplicate branch is skipped outright, which leaves
    gradients identical to a plain cross-entropy run.
    """
    train_items = list(train_items)
    val_items = list(val_items)
    if not train_items:
        raise ArgumentError("training dataset is empty")
    if not val_items:
        raise ArgumentError("validation dataset is empty")

    use_inv = icfg is not None and icfg.lam < 1.0
    if use_inv and not frontend.params:
        raise ArgumentError(
            f"the invariance term trains frontend weights, and the "
            f"{frontend.kind} frontend has none")
    all_params = {"frontend/" + k: t for k, t in frontend.params.items()}
    all_params.update({"model/" + k: t for k, t in model.tensors.items()})
    state = AdamState.for_params(all_params)
    rng = np.random.default_rng(tcfg.seed)

    result = TrainResult(frontend=frontend, model=model)
    log_file = (contextlib.nullcontext() if log_path is None
                else open(log_path, "w", encoding="utf-8"))
    with log_file as log:
        best_snapshot = None
        stale_epochs = 0
        step = 0
        for epoch in range(tcfg.max_epochs):
            for _ in range(tcfg.steps_per_epoch):
                batch = rng.integers(0, len(train_items), size=tcfg.batch_size)
                for tensor in all_params.values():
                    tensor.grad = None
                ce_terms, inv_terms = [], []
                for offset, item_index in enumerate(batch):
                    item = train_items[int(item_index)]
                    signal, frame_labels = _crop_item(item, tcfg.segment_s, rng)
                    inputs = frontend.normalise(frontend.analyse(signal))
                    if use_inv:
                        dups = make_masked_duplicates(
                            signal, icfg,
                            step=step * tcfg.batch_size + offset)
                        paths = frontend.window_features(
                            inputs, _duplicate_mask(dups))
                        feats = paths[:, 0]
                        inv_terms.append(invariant_loss(feats, [
                            paths[:, p] for p in range(1, len(dups) + 1)]))
                    else:
                        feats = frontend.window_features(inputs)
                    logits = tcn_forward(model, feats)
                    ce_terms.append(cross_entropy(
                        logits, _aligned_labels(frame_labels, logits.shape[0])))
                ce_mean = _mean(ce_terms)
                if use_inv:
                    inv_mean = _mean(inv_terms)
                    loss = dual_loss(ce_mean, inv_mean, icfg.lam)
                else:
                    loss = ce_mean
                try:
                    grads = ad.grad(loss, all_params)
                except NumericError as exc:
                    raise NumericError(
                        f"training diverged at step {step}: {exc}") from exc
                adam_step(all_params, grads, state, tcfg.lr)
                record = {"step": step, "epoch": epoch,
                          "ce": float(ce_mean.data), "loss": float(loss.data)}
                if use_inv:
                    record["inv"] = float(inv_mean.data)
                _log_record(result, log, record)
                step += 1

            f1 = _validation_f1(frontend, model, val_items)
            _log_record(result, log, {"epoch": epoch, "val_osd_f1": f1})
            if f1 > result.best_f1:
                result.best_f1 = f1
                result.best_epoch = epoch
                best_snapshot = (frontend.state_arrays(), model.state_arrays())
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= tcfg.patience:
                    break

    if best_snapshot is not None:
        fe_state, model_state = best_snapshot
        frontend.load_state(fe_state)
        for name, tensor in model.tensors.items():
            tensor.data[...] = model_state[name]

    return result
