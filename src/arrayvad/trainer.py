"""Losses, channel-masked duplicates, Adam, and the training loop.

The training objective is a weighted sum of a frame cross-entropy on the
reference path (all channels) and a channel-count invariance term that
pulls the frontend features of random channel subsets of the same segment
(the masked duplicates) toward the reference features. The masking RNG is
a self-contained xorshift64* stream (documented below) so duplicate
construction is bit-reproducible across platforms and independent of
numpy's generator internals. A duplicate is a row of a channel mask, not a
copy of samples.

A training step takes each cropped item's features from one
``frontend.features`` call, which analyses and normalises the item once.
With the invariance term, that call takes a channel mask and returns the
reference features and every masked duplicate's features together: row 0
keeps every channel (the reference), row p the channels duplicate p kept
(``make_masked_duplicates``). Analysis, normalisation and the attention
projections work on each channel alone, so they run once per item and only
the masked softmaxes, the channel sum and mel/log run per path. Each
path's features equal those of the kept channels' own samples to within
rounding (about 1e-15 relative); without the invariance term no mask is
passed and the step is the plain reference path. The invariance
term needs frontend weights to train, so a frontend without any (``mvdr``)
refuses it.

A step is one ``_step`` call. Each batch item in turn runs its forward pass
and one ``autodiff.grad`` sweep of its share of the batch mean loss, which
hand back floats and numpy gradients; the step sums the items' gradients.
Only ``_item_step``'s locals reach an item's graph, so the graph and its
forward values are freed before the next item's forward pass starts, and
the sweep frees each op node's gradient once it has passed it on. Training
memory is one item's tape, whatever the batch size.

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
from typing import ClassVar, Dict, List, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor, tsqrt, tsum
from .checkpoint import named_tensors
from .errors import ArgumentError, NumericError, Seed, check_size, from_config
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

    # A config dict spells ``lam`` as ``lambda``, a Python keyword.
    config_keys: ClassVar[dict] = {"lam": "lambda"}

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError("duplicate count p must be >= 1")
        if not (0.0 <= self.lam <= 1.0):
            raise ArgumentError("lambda must lie in [0, 1]")
        if self.min_keep < 2:
            raise ArgumentError("min_keep must be >= 2")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d)


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
    seed: Seed = 0

    def __post_init__(self):
        if (self.batch_size < 1 or self.steps_per_epoch < 1
                or self.patience < 1 or self.max_epochs < 1):
            raise ArgumentError("counts in TrainConfig must be >= 1")
        if self.segment_s <= 0 or self.lr <= 0:
            raise ArgumentError("segment_s and lr must be positive")
        check_size(self.batch_size, f"a batch of batch_size {self.batch_size}")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d)


# -- losses -------------------------------------------------------------------


def _mean(terms):
    """Sum of ``terms`` left to right, times 1 / their count."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


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
    terms = []
    for xp in masked_feats:
        xp = as_tensor(xp)
        if xp.shape != x_ref.shape:
            raise ArgumentError(
                f"masked features {xp.shape} do not match reference "
                f"{x_ref.shape}")
        dup_norm = tsqrt(tsum(xp * xp)) + _EPS_NORM
        diff = x_ref - xp
        terms.append(tsqrt(tsum(diff * diff)) / (ref_norm * dup_norm))
    return _mean(terms)


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
    """One in-place Adam update (b1=0.9, b2=0.999, eps=1e-8 after the sqrt).

    The moments and the parameter are updated in place (``out=``), with two
    scratch arrays per tensor. Each formula keeps its operation order:

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
    state.t += 1
    c1 = 1.0 - _ADAM_B1 ** state.t
    c2 = 1.0 - _ADAM_B2 ** state.t
    for name, tensor in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        a, b = np.empty_like(m), np.empty_like(m)
        np.multiply(_ADAM_B1, m, out=m)
        np.add(m, np.multiply(1.0 - _ADAM_B1, g, out=a), out=m)
        np.multiply(_ADAM_B2, v, out=v)
        np.multiply(np.multiply(1.0 - _ADAM_B2, g, out=a), g, out=a)
        np.add(v, a, out=v)
        np.multiply(lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), _ADAM_EPS, out=b)
        np.subtract(tensor.data, np.divide(a, b, out=a), out=tensor.data)
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
    # Clamped to the item before rounding, so a huge float stays finite; a
    # longer segment passes the item through whole either way.
    seg_frames = int(round(min(segment_s * FRAME_RATE, labels.size)))
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


def _log_record(result, log, record):
    """Append ``record`` to the history and, with a log file, write and
    flush it at once, so the log keeps every record up to a failure."""
    result.history.append(record)
    if log is not None:
        log.write(json.dumps(record, sort_keys=True) + "\n")
        log.flush()


def _item_step(frontend, model, params, item, segment_s, icfg, rng, stream,
               share):
    """Forward pass and ``autodiff.grad`` sweep of one batch item.

    Crops the item with ``rng``; with ``icfg`` it draws the item's masked
    duplicates from ``stream`` and takes the reference and duplicate
    features from one masked ``frontend.features`` call. Sweeps
    ``dual_loss(ce, inv, lam) * share`` (``ce * share`` without ``icfg``).
    Returns ``ce`` and ``inv`` as floats (``inv`` None without ``icfg``)
    and the gradients by name, so the item's graph dies when it returns.
    """
    signal, frame_labels = _crop_item(item, segment_s, rng)
    inv = None
    if icfg is not None:
        dups = make_masked_duplicates(signal, icfg, step=stream)
        paths = frontend.features(signal, mask=_duplicate_mask(dups))
        feats = paths[:, 0]
        inv = invariant_loss(feats, [
            paths[:, p] for p in range(1, len(dups) + 1)])
    else:
        feats = frontend.features(signal)
    logits = tcn_forward(model, feats)
    ce = cross_entropy(logits, _aligned_labels(frame_labels, logits.shape[0]))
    loss = ce if icfg is None else dual_loss(ce, inv, icfg.lam)
    grads = ad.grad(loss * share, params)
    return float(ce.data), None if inv is None else float(inv.data), grads


def _step(frontend, model, params, items, segment_s, icfg, rng, step):
    """Forward and backward pass of one training step over ``items``.

    Each item runs its forward pass and its own sweep (``_item_step``,
    duplicate stream ``step * len(items) + offset``) before the next
    item's forward pass starts, so a step holds one item's graph at a time.
    An item sweeps its share of the batch mean loss, ``1 / len(items)`` of
    its ``dual_loss(ce, inv, lam)``; ``lam * mean(ce) + (1 - lam) *
    mean(inv)`` is the sum of those shares, so the sum of the items'
    gradients is the gradient of the batch mean loss. Returns the losses
    as plain floats, ``{"ce", "loss"}`` plus ``"inv"`` with ``icfg``, the
    means of the items' values in item order, and the numpy gradient of
    every tensor of ``params`` by name. Nothing returned is a ``Tensor``.

    A NumericError names the step and the batch item, both counted from 0,
    and leaves no gradient to apply.
    """
    share = 1.0 / len(items)
    ce_terms, inv_terms = [], []
    grads = None
    for offset, item in enumerate(items):
        try:
            ce, inv, item_grads = _item_step(
                frontend, model, params, item, segment_s, icfg, rng,
                step * len(items) + offset, share)
        except NumericError as exc:
            raise NumericError(
                f"training diverged at step {step}, batch item {offset} of "
                f"{len(items)}: {exc}") from exc
        ce_terms.append(ce)
        inv_terms.append(inv)
        if grads is not None:
            # Each sweep returns fresh arrays; adding the running sum into
            # the newest keeps the parameters' ``grad`` fields the returned
            # arrays, as after one sweep.
            for name, g in grads.items():
                item_grads[name] += g
        grads = item_grads
    losses = {"ce": _mean(ce_terms)}
    if icfg is None:
        losses["loss"] = losses["ce"]
    else:
        losses["inv"] = _mean(inv_terms)
        losses["loss"] = dual_loss(losses["ce"], losses["inv"], icfg.lam)
    return losses, grads


def _check_step_size(frontend, items, segment_s, icfg):
    """ArgumentError when the widest tensor of a step with masked
    duplicates, about frames x (1 + p) x max(K, C^2), is over
    ``MAX_ELEMENTS``: each path's combined rows are K wide and its attention
    logits C x C. Frames are counted from the cropped length with one spare,
    an upper bound. Runs before any duplicate is drawn."""
    n_frames = n_ch = 0
    for item in items:
        sig = item.signal
        n = int(round(min(segment_s * sig.sample_rate, sig.n_samples)))
        n_frames = max(n_frames, n // frontend.frame_hop + 1)
        n_ch = max(n_ch, sig.n_channels)
    width = max(frontend.stft_cfg.n_bins, frontend.feature_dim, n_ch * n_ch)
    check_size(n_frames * (1 + icfg.p) * width,
               f"a step's {1 + icfg.p} paths (invariant p {icfg.p}) of "
               f"{n_frames} frames")


def train(frontend, model: ModelParams, train_items, val_items,
          tcfg: TrainConfig, icfg: Optional[InvariantConfig] = None,
          log_path=None) -> TrainResult:
    """Optimize frontend+model on labeled segments; keep the best-F1 state.

    Per step (``_step``): sample a batch, crop each item to a segment_s
    window when it is longer, run the frontend and classifier per segment;
    the loss is the batch mean cross-entropy (reference path only),
    optionally mixed with the mean invariance term over channel-masked
    duplicates. Each item backpropagates its share of that loss before the
    next item's forward pass, and the summed gradients update with Adam.
    Each segment is analysed and normalised once; the reference and its
    duplicates take their features from one masked ``frontend.features``
    call (``_duplicate_mask``). An item's graph lives only inside
    ``_item_step``, which hands back plain floats and numpy gradients, so
    memory holds one item's tape at a time. Per epoch:
    validation OSD F1; stop after ``patience`` epochs without a new best
    and restore the best snapshot before returning. The trained tensors,
    Adam's keys and the snapshot are those of
    ``checkpoint.named_tensors(frontend, model)``. Each history record
    goes to ``log_path`` (NDJSON) as soon as it exists.
    With lam = 1 the duplicate branch is skipped outright, which leaves
    gradients identical to a plain cross-entropy run.
    """
    train_items = list(train_items)
    val_items = list(val_items)
    if not train_items:
        raise ArgumentError("training dataset is empty")
    if not val_items:
        raise ArgumentError("validation dataset is empty")

    if icfg is not None and icfg.lam >= 1.0:
        icfg = None
    if icfg is not None:
        if not frontend.params:
            raise ArgumentError(
                f"the invariance term trains frontend weights, and the "
                f"{frontend.kind} frontend has none")
        _check_step_size(frontend, train_items, tcfg.segment_s, icfg)
    all_params = named_tensors(frontend, model)
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
                losses, grads = _step(
                    frontend, model, all_params,
                    [train_items[int(i)] for i in batch], tcfg.segment_s,
                    icfg, rng, step)
                adam_step(all_params, grads, state, tcfg.lr)
                _log_record(result, log,
                            {"step": step, "epoch": epoch, **losses})
                step += 1

            f1 = _validation_f1(frontend, model, val_items)
            _log_record(result, log, {"epoch": epoch, "val_osd_f1": f1})
            if f1 > result.best_f1:
                result.best_f1 = f1
                result.best_epoch = epoch
                best_snapshot = {name: t.data.copy()
                                 for name, t in all_params.items()}
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= tcfg.patience:
                    break

    if best_snapshot is not None:
        for name, tensor in all_params.items():
            tensor.data[...] = best_snapshot[name]

    return result
