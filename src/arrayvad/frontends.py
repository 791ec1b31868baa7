"""Trainable feature frontends: signal in, (T, F) feature graph out.

Each frontend owns its learnable tensors and knows how to build the
differentiable path from a multichannel signal to the per-frame feature
matrix the sequence model consumes. The heavy fixed preprocessing (STFT,
normalization of attention inputs, mel matrix) enters the graph as
constants; only the combination weights (and, for the analytic bank, the
filter impulse responses) carry gradients.

``features`` is two steps. ``analyse`` is the per-frame step: work that
depends on one analysis frame's samples only, that is the STFT with its
magnitude, log-magnitude and angle (or real/imaginary parts), or the
analytic bank outputs with their log-magnitude. ``window_features`` is the
per-window step: whatever looks across the frames of the window (MVN of the
attention inputs, attention, MVDR statistics) plus channel combination and
mel/log. Every analysed part is (T, C, K), one row per frame of the
``spectral.FRAME_RATE`` grid that the STFT and the analytic bank share, so
frames shared by overlapping windows can be analysed once (``FrameCache``)
while the per-window step, and so the output, stays exactly as without reuse.
Analysis is per channel too, so ``channel_rows`` of one analysis gives a
channel-masked copy's parts, as training's masked duplicates use them.

The combination is one method per kind, ``_combine``: attention inputs,
weights and the weighted channel sum, returning the combined values and the
weight tensors. The channel sum is one op for every trainable kind: real
weights times real values (``combine_real_graph``: magnitudes for ``sacc``,
the bank's real and imaginary outputs side by side for ``analytic``), or
complex weights w_re + j*w_im times the complex STFT
(``combine_mag_phase_graph``, both ``parts`` layouts). The ``ecsacc`` and
``icsacc`` kinds pack their two weight columns into (w_re, w_im) on the
(T, C, 1) weights only: a*cos(2*pi*b), a*sin(2*pi*b) for ``mag_phase``,
(a, b) for ``real_imag``. Both combination ops keep their names here
because ``perfbench`` traces them where this module imports them.

``window_features`` is ``_combine`` followed by mel/log (``analytic`` uses
its combined row as it is). ``combined`` runs the same ``_combine`` under
``autodiff.no_grad`` and returns the values and per-channel weights as numpy
(a ``CombinedSpectrogram``), so the weights the ``beampattern`` command
analyses are the ones the graph applies.

``make_frontend`` builds any variant from a JSON-able config dict; the
same dict comes back from ``config()`` so checkpoints can rebuild the
exact frontend before loading weights.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .beamform import ArrayGeometry, cdr_mask, mvdr
from .combinator import (
    CombinationWeights,
    CombinedSpectrogram,
    attention_init,
    combine_mag_phase_graph,
    combine_real_graph,
    mvn_graph,
    weights_graph,
)
from .errors import ArgumentError, config_int
from .signal_io import MultichannelSignal
from .spectral import (
    LOG_EPS,
    ComplexSpectrogram,
    StftConfig,
    frame_count,
    frame_signal,
    hilbert_basis,
    log_compress,
    mel_filterbank,
    mvn,
    stft,
)

FRONTEND_KINDS = ("sacc", "analytic", "ecsacc", "icsacc", "mvdr")

TWO_PI = 2.0 * np.pi

_ATTN_NAMES = ("wq", "wk", "wv", "bq", "bk", "bv")


def _attn_tensors(feat_dim, attn_dim, seed, prefix=""):
    init = attention_init(feat_dim, attn_dim, seed)
    return {prefix + name: ad.parameter(arr) for name, arr in init.items()}


def _subparams(params, prefix):
    return {name: params[prefix + name] for name in _ATTN_NAMES}


class Frontend:
    """Base: config plumbing shared by every variant."""

    kind = None

    def __init__(self, sample_rate, n_mels, attn_dim, seed):
        self.sample_rate = config_int(sample_rate, "sample_rate")
        self.n_mels = config_int(n_mels, "n_mels")
        self.attn_dim = config_int(attn_dim, "attn_dim")
        self.seed = config_int(seed, "seed")
        self.stft_cfg = StftConfig()
        self.params = {}

    # -- weights in/out -------------------------------------------------------

    def state_arrays(self):
        return {name: np.array(t.data) for name, t in self.params.items()}

    def load_state(self, arrays):
        missing = set(self.params) - set(arrays)
        if missing:
            raise ArgumentError(f"missing frontend tensors: {sorted(missing)}")
        for name, tensor in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ArgumentError(
                    f"shape mismatch for {name}: {arr.shape} vs "
                    f"{tensor.data.shape}")
            tensor.data[...] = arr

    def n_parameters(self):
        return sum(t.data.size for t in self.params.values())

    # -- shared helpers -------------------------------------------------------

    def _check_signal(self, signal: MultichannelSignal):
        if signal.sample_rate != self.sample_rate:
            raise ArgumentError(
                f"frontend built for {self.sample_rate} Hz, signal is "
                f"{signal.sample_rate} Hz")

    def _stft(self, signal):
        """STFT values of ``signal``, frame-major (T, C, K)."""
        self._check_signal(signal)
        return np.transpose(stft(signal).values, (1, 0, 2))

    @property
    def frame_len(self):
        """Samples per analysis frame."""
        return self.stft_cfg.win_samples(self.sample_rate)

    @property
    def frame_hop(self):
        """Samples between the starts of consecutive analysis frames: the
        STFT hop of 1 / FRAME_RATE s, which every kind uses."""
        return self.stft_cfg.hop_samples(self.sample_rate)

    def features(self, signal, cache=None) -> ad.Tensor:
        """(T, F) features of ``signal``: ``window_features(analyse(signal))``.

        With a ``FrameCache``, frames the previous window analysed are taken
        from it instead of being analysed again; the result is the same.
        Each kind binds ``features = Frontend.features`` in its own class,
        so tracing (``perfbench``) can wrap and time the kinds apart.
        """
        frames = self.analyse(signal) if cache is None else cache.frames(signal)
        return self.window_features(frames)

    def combined(self, signal) -> CombinedSpectrogram:
        """Channel-combined values of ``signal`` and the weights that built
        them, as numpy: ``_combine(analyse(signal))`` off the tape.

        A (re, im) pair of combined values becomes one complex array.
        """
        with ad.no_grad():
            values, weights = self._combine(self.analyse(signal))
        if weights is not None:
            weights = self._combination_weights(weights)
        return CombinedSpectrogram(self._combined_values(values), self.kind,
                                   weights=weights)

    def _combined_values(self, values):
        """``_combine`` values as numpy; a (re, im) pair becomes complex."""
        if isinstance(values, tuple):
            return values[0].data + 1j * values[1].data
        return _values(values)

    def _combination_weights(self, w):
        """(T, C, 1) weight tensor -> real (C, T) ``CombinationWeights``."""
        return CombinationWeights(w.data[:, :, 0].T, kind="real")

    def _mel_tensor(self):
        return ad.Tensor(mel_filterbank(self.n_mels, self.stft_cfg.n_bins,
                                        self.sample_rate))

    def _logmel(self, combined_mag):
        return ad.tlog(combined_mag @ self._mel_tensor() + LOG_EPS)

    def config(self):
        return {
            "kind": self.kind,
            "sample_rate": self.sample_rate,
            "n_mels": self.n_mels,
            "attn_dim": self.attn_dim,
        }

    # subclasses: analyse(), _combine(), window_features(), feature_dim


class SaccStftFrontend(Frontend):
    """Real simplex weights over per-channel STFT magnitudes, then log-mel."""

    kind = "sacc"
    features = Frontend.features

    def __init__(self, sample_rate=16000, n_mels=64, attn_dim=256, seed=0):
        super().__init__(sample_rate, n_mels, attn_dim, seed)
        self.params = _attn_tensors(self.stft_cfg.n_bins, self.attn_dim, self.seed)

    @property
    def feature_dim(self):
        return self.n_mels

    def analyse(self, signal):
        """(magnitude, log-magnitude), each (T, C, K)."""
        mag = np.abs(self._stft(signal))
        return mag, log_compress(mag)

    def _combine(self, frames):
        """(T, K) combined magnitude and the (T, C, 1) weights."""
        mag, log_mag = frames
        w = weights_graph(ad.Tensor(mvn(log_mag)), self.params)
        return combine_real_graph(w, ad.Tensor(mag)), w

    def window_features(self, frames) -> ad.Tensor:
        combined, _ = self._combine(frames)
        return self._logmel(combined)


class AnalyticSaccFrontend(Frontend):
    """Learned analytic FIR bank replacing the STFT; features are the
    real/imag parts of the weighted channel combination. The bank hops by
    ``frame_hop``, the STFT hop, so it yields one frame per 10 ms too."""

    kind = "analytic"
    features = Frontend.features

    def __init__(self, sample_rate=16000, n_filters=32, kernel_len=400,
                 attn_dim=256, seed=0):
        super().__init__(sample_rate, n_mels=1, attn_dim=attn_dim, seed=seed)
        self.n_filters = config_int(n_filters, "n_filters")
        self.kernel_len = config_int(kernel_len, "kernel_len")
        if self.kernel_len < 2 or self.kernel_len % 2 or self.n_filters < 1:
            raise ArgumentError("kernel_len must be even and >= 2, n_filters >= 1")
        rng = np.random.default_rng(self.seed)
        bound = 1.0 / np.sqrt(self.kernel_len)
        self.params = _attn_tensors(self.n_filters, self.attn_dim, self.seed)
        self.params["real_ir"] = ad.parameter(
            rng.uniform(-bound, bound, size=(self.n_filters, self.kernel_len)))
        self._basis_t = hilbert_basis(self.kernel_len).T

    @property
    def feature_dim(self):
        return 2 * self.n_filters

    @property
    def frame_len(self):
        return self.kernel_len

    def _bank_outputs(self, signal):
        """(T, C, n_filters) real and imaginary graph nodes."""
        self._check_signal(signal)
        frames = frame_signal(signal.samples, self.kernel_len, self.frame_hop)
        ft = ad.Tensor(np.transpose(frames, (1, 0, 2)))
        real_ir = self.params["real_ir"]
        imag_ir = real_ir @ ad.Tensor(self._basis_t)
        # The filters go in as a (1, L, F) stack: a 3-D operand keeps one
        # (C, L) @ (L, F) product per frame, where a 2-D one would fold all
        # frames into one GEMM whose rounding depends on the frame count. So
        # a frame's outputs are the same whether ``FrameCache`` analyses it
        # alone or within a whole window.
        stack = (1, self.kernel_len, self.n_filters)
        re = ft @ ad.transpose(real_ir, (1, 0)).reshape(stack)
        im = ft @ ad.transpose(imag_ir, (1, 0)).reshape(stack)
        return re, im

    def analyse(self, signal):
        """(real, imaginary, log-magnitude) bank outputs, each (T, C, F)."""
        re, im = self._bank_outputs(signal)
        return re, im, ad.tlog(ad.complex_abs(re, im) + LOG_EPS)

    def _combine(self, frames):
        """(T, 2F) combined [real | imaginary] bank outputs and the
        (T, C, 1) weights."""
        re, im, log_mag = frames
        w = weights_graph(mvn_graph(ad.as_tensor(log_mag)), self.params)
        return combine_real_graph(w, ad.concat([re, im], axis=-1)), w

    def window_features(self, frames) -> ad.Tensor:
        row, _ = self._combine(frames)
        return row

    def _combined_values(self, row):
        """The combined [real | imaginary] row as complex (T, F) values."""
        f = self.n_filters
        return row.data[:, :f] + 1j * row.data[:, f:]

    def config(self):
        return {
            "kind": self.kind,
            "sample_rate": self.sample_rate,
            "n_filters": self.n_filters,
            "kernel_len": self.kernel_len,
            "attn_dim": self.attn_dim,
        }


def _analyse_parts(values, parts):
    """Per-frame parts of complex STFT values: the real and imaginary parts
    the combination multiplies, then for ``mag_phase`` the log-magnitude and
    angle the attention reads."""
    if parts == "mag_phase":
        return (values.real, values.imag, log_compress(np.abs(values)),
                np.angle(values))
    return values.real, values.imag


def _attention_inputs(frames, parts):
    """Numpy attention inputs of the two representation parts, (T, C, K)."""
    first, second = frames[2:] if parts == "mag_phase" else frames
    return mvn(first), mvn(second)


class _ComplexSaccFrontend(Frontend):
    """What ``ecsacc`` and ``icsacc`` share: STFT parts in either layout, a
    complex channel combination from two weight columns, log-mel of the
    combined magnitude."""

    def __init__(self, sample_rate, n_mels, attn_dim, seed, parts):
        super().__init__(sample_rate, n_mels, attn_dim, seed)
        if parts not in ("mag_phase", "real_imag"):
            raise ArgumentError(f"unknown parts layout {parts!r}")
        self.parts = parts

    @property
    def feature_dim(self):
        return self.n_mels

    def analyse(self, signal):
        return _analyse_parts(self._stft(signal), self.parts)

    def window_features(self, frames) -> ad.Tensor:
        (re, im), _ = self._combine(frames)
        return self._logmel(ad.complex_abs(re, im))

    def _complex_sum(self, a, b, frames):
        """Complex channel sum from the two (T, C, 1) weight columns (a, b).

        The columns become w = w_re + j*w_im: a*exp(j*2*pi*b) for
        ``mag_phase``, a + j*b for ``real_imag``. Returns the (T, K) re/im
        of sum_c w_c * X_c and the (w_re, w_im) pair.
        """
        if self.parts == "mag_phase":
            phase = b * TWO_PI
            w_re, w_im = a * phase.cos(), a * phase.sin()
        else:
            w_re, w_im = a, b
        re, im = (ad.Tensor(part) for part in frames[:2])
        return combine_mag_phase_graph(w_re, w_im, re, im), (w_re, w_im)

    def _combination_weights(self, w):
        """(w_re, w_im) weight pair -> complex (C, T) ``CombinationWeights``."""
        w_re, w_im = (part.data[:, :, 0].T for part in w)
        return CombinationWeights(w_re + 1j * w_im, kind="complex")

    def config(self):
        out = super().config()
        out["parts"] = self.parts
        return out


class EcSaccFrontend(_ComplexSaccFrontend):
    """Two attention banks (magnitude and phase parts), complex combination,
    then log-mel of the combined magnitude."""

    kind = "ecsacc"
    features = Frontend.features

    def __init__(self, sample_rate=16000, n_mels=64, attn_dim=256, seed=0,
                 parts="mag_phase"):
        super().__init__(sample_rate, n_mels, attn_dim, seed, parts)
        k = self.stft_cfg.n_bins
        self.params = {}
        self.params.update(_attn_tensors(k, self.attn_dim, self.seed, "mag/"))
        self.params.update(_attn_tensors(k, self.attn_dim, self.seed + 1, "phase/"))

    def _combine(self, frames):
        """(T, K) re/im of the combination and the (w_re, w_im) weights."""
        first, second = _attention_inputs(frames, self.parts)
        w1 = weights_graph(ad.Tensor(first), _subparams(self.params, "mag/"))
        w2 = weights_graph(ad.Tensor(second), _subparams(self.params, "phase/"))
        return self._complex_sum(w1, w2, frames)


class IcSaccFrontend(_ComplexSaccFrontend):
    """One attention bank over the feature-axis concatenation of both parts;
    a split value head emits the magnitude and phase weight columns."""

    kind = "icsacc"
    features = Frontend.features

    def __init__(self, sample_rate=16000, n_mels=64, attn_dim=256, seed=0,
                 parts="mag_phase"):
        super().__init__(sample_rate, n_mels, attn_dim, seed, parts)
        self.params = _attn_tensors(2 * self.stft_cfg.n_bins, self.attn_dim,
                                    self.seed)

    def _combine(self, frames):
        """(T, K) re/im of the combination and the (w_re, w_im) weights
        packed from the two columns of the split value head."""
        first, second = _attention_inputs(frames, self.parts)
        feats = np.concatenate([first, second], axis=-1)
        w = weights_graph(ad.Tensor(feats), self.params,
                          value_split=self.stft_cfg.n_bins)
        return self._complex_sum(w[:, :, :1], w[:, :, 1:], frames)


class MvdrFrontend(Frontend):
    """Fixed (non-trainable) beamforming front end: CDR speech mask, MVDR
    filter from the masked covariances, log-mel of the beamformed magnitude."""

    kind = "mvdr"
    features = Frontend.features

    def __init__(self, geometry: ArrayGeometry, sample_rate=16000, n_mels=64):
        super().__init__(sample_rate, n_mels, attn_dim=1, seed=0)
        if not isinstance(geometry, ArrayGeometry):
            raise ArgumentError("mvdr frontend needs an ArrayGeometry")
        self.geometry = geometry
        self.params = {}

    @property
    def feature_dim(self):
        return self.n_mels

    def analyse(self, signal):
        """(STFT values,), (T, C, K) complex; MVDR statistics are per window."""
        return (self._stft(signal),)

    def _combine(self, frames):
        """(T, K) beamformed magnitude; a fixed beamformer has no
        per-channel weights, so the weights are None."""
        spec = ComplexSpectrogram(np.transpose(frames[0], (1, 0, 2)),
                                  self.sample_rate)
        return np.abs(mvdr(spec, cdr_mask(spec, self.geometry)).values), None

    def window_features(self, frames) -> ad.Tensor:
        mag, _ = self._combine(frames)
        return self._logmel(ad.Tensor(mag))

    def config(self):
        return {
            "kind": self.kind,
            "sample_rate": self.sample_rate,
            "n_mels": self.n_mels,
            "geometry": self.geometry.to_dict(),
        }


def _values(part):
    return part.data if isinstance(part, ad.Tensor) else part


def channel_rows(frames, signal: MultichannelSignal,
                 duplicate: MultichannelSignal):
    """The channel rows of ``analyse(signal)`` parts that ``duplicate`` kept.

    ``duplicate`` is a ``mask_channels`` copy of ``signal``; its channels map
    to row positions of ``signal`` in the duplicate's own (ascending id)
    order, so ``window_features`` of the result equals ``features`` of the
    duplicate. Numpy parts are indexed; tape parts (the analytic bank
    outputs) go through ``autodiff.getitem`` so the gradient reaches them.
    """
    row = {cid: i for i, cid in enumerate(signal.channel_ids)}
    key = (slice(None), np.array([row[cid] for cid in duplicate.channel_ids]))
    return tuple(ad.getitem(part, key) if isinstance(part, ad.Tensor)
                 else part[key] for part in frames)


class FrameCache:
    """Analysed frames of the previous window, reused by the next one.

    Sliding-window inference runs windows that overlap by most of their
    length. ``frames(window)`` gives the same parts as
    ``frontend.analyse(window)``, but carries over the frames the previous
    window already analysed and runs only the others through ``analyse``.
    A window off the previous window's frame grid (a tail window aligned to
    the signal end, or every window when the hop is not a multiple of the
    frame hop) is analysed in full.

    Overlap is found by content: the window continues the previous one from
    the first previous frame whose samples equal its own first frame, if
    every sample the two share is equal too. A frame depends only on its
    own samples, so reuse never changes a value, whatever order the windows
    come in. The cache holds one window: its samples (a reference, not a
    copy) and its analysed frames; frames before the window's start are
    dropped. It keeps values only, so use it under ``autodiff.no_grad``.
    """

    def __init__(self, frontend):
        self.frontend = frontend
        self._samples = None
        self._frames = None

    def _first_shared_frame(self, samples):
        """Index of the previous window's frame that ``samples`` starts on."""
        prev = self._samples
        if prev is None or prev.shape[0] != samples.shape[0]:
            return None
        fe = self.frontend
        # Candidates from the first channel; the overlap check covers all.
        heads = frame_signal(prev[:1], fe.frame_len, fe.frame_hop)[0]
        same_head = (heads == samples[0, :fe.frame_len]).all(axis=1)
        for first in np.flatnonzero(same_head):
            lo = first * fe.frame_hop
            n = min(prev.shape[1] - lo, samples.shape[1])
            if np.array_equal(prev[:, lo:lo + n], samples[:, :n]):
                return int(first)
        return None

    def frames(self, window: MultichannelSignal):
        """The parts of ``frontend.analyse(window)``, as numpy arrays."""
        fe = self.frontend
        n_frames = frame_count(window.n_samples, fe.frame_len, fe.frame_hop)
        first = self._first_shared_frame(window.samples)
        if first is None:
            parts = [_values(p) for p in fe.analyse(window)]
        else:
            parts = [p[first:first + n_frames] for p in self._frames]
            n_kept = parts[0].shape[0]
            if n_kept < n_frames:
                lo = n_kept * fe.frame_hop
                hi = (n_frames - 1) * fe.frame_hop + fe.frame_len
                rest = MultichannelSignal(window.samples[:, lo:hi],
                                          window.sample_rate, window.channel_ids)
                parts = [np.concatenate([kept, _values(new)])
                         for kept, new in zip(parts, fe.analyse(rest))]
        self._samples, self._frames = window.samples, parts
        return tuple(parts)


def make_frontend(config: dict, seed=None) -> Frontend:
    """Build a frontend from its config dict.

    ``seed`` overrides the config's seed when given; cfgs saved by
    ``config()`` omit the seed, so pass one for fresh inits and rely on
    ``load_state`` when restoring trained weights.
    """
    if not isinstance(config, dict):
        raise ArgumentError("frontend config must be a dict")
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in FRONTEND_KINDS:
        raise ArgumentError(
            f"unknown frontend kind {kind!r}; expected one of {FRONTEND_KINDS}")
    if seed is not None:
        cfg["seed"] = config_int(seed, "seed")
    try:
        if kind == "sacc":
            return SaccStftFrontend(**cfg)
        if kind == "analytic":
            return AnalyticSaccFrontend(**cfg)
        if kind == "ecsacc":
            return EcSaccFrontend(**cfg)
        if kind == "icsacc":
            return IcSaccFrontend(**cfg)
        geom = cfg.pop("geometry", None)
        if isinstance(geom, dict):
            geom = ArrayGeometry.from_dict(geom)
        if geom is None:
            raise ArgumentError("mvdr frontend config needs a geometry")
        cfg.pop("seed", None)
        return MvdrFrontend(geom, **cfg)
    except TypeError as exc:
        raise ArgumentError(f"bad frontend config: {exc}") from exc
