"""Trainable feature frontends: signal in, (T, F) feature graph out.

Each frontend owns its learnable tensors and knows how to build the
differentiable path from a multichannel signal to the per-frame feature
matrix the sequence model consumes. The heavy fixed preprocessing (STFT,
normalization of attention inputs, mel matrix) enters the graph as
constants; only the combination weights (and, for the analytic bank, the
filter impulse responses) carry gradients.

``features`` is three steps, and inference, validation, training and
``FrameCache`` all run them: ``window_features(normalise(analyse(signal)))``.
``analyse`` is the per-frame step: work that depends on one analysis frame's
samples only, that is the STFT with its magnitude, log-magnitude and angle
(or real/imaginary parts), or the analytic bank outputs with their
log-magnitude. ``normalise`` is the per-window, per-channel step: MVN of the
attention inputs over the window's frames (``mvn``, or ``mvn_graph`` on the
tape for ``analytic``). ``window_features`` is the cross-channel step:
attention, MVDR statistics, channel combination and mel/log.

Every part is (T, C, K), one row per frame of the ``spectral.FRAME_RATE``
grid that the STFT and the analytic bank share, and C-contiguous
(frame-major), so the stacked-row GEMMs of the attention read it without a
copy. Frames shared by overlapping windows of one recording can be
analysed once (``FrameCache``, which finds them from each window's start
sample) while the per-window steps, and so the output, stay exactly as
without reuse. Both ``analyse`` and ``normalise`` work on each channel
alone, so the normalised parts of a signal hold those of every channel
subset of it: ``window_features(inputs, mask)`` with a (P, C) boolean
channel mask gives a (T, P, F) stack whose path p equals the features of
the channels mask row p keeps. For the attention kinds, only the two
softmaxes, the channel sum and mel/log run per path
(``combinator.weights_graph``); ``mvdr`` beamforms each path alone.
Training's reference and masked duplicates and every ``maskeval`` keep set
share one analysis, one normalisation and one set of projections that way.

The combination is one method per kind, ``_combine``: attention inputs,
weights and the weighted channel sum, returning the combined values and the
weight tensors. The channel sum is one op for every trainable kind: real
weights times real values (``combine_real_graph``: magnitudes for ``sacc``,
the bank's real and imaginary outputs side by side for ``analytic``), or
complex weights w_re + j*w_im times the complex STFT
(``combine_mag_phase_graph``, both ``parts`` layouts). The ``ecsacc`` and
``icsacc`` kinds pack their two weight columns into (w_re, w_im) on the
(T, [P,] C, 1) weights only: a*cos(2*pi*b), a*sin(2*pi*b) for
``mag_phase``, (a, b) for ``real_imag``; their STFT part is the real and
imaginary parts side by side, (T, C, 2K), as the combination multiplies
them. Both combination ops keep their names here because ``perfbench``
traces them where this module imports them.

``window_features`` is ``_combine`` followed by mel/log (``analytic`` uses
its combined row as it is); with a mask, the combination is one
(T, P, C) @ (T, C, K) product and mel/log one GEMM over the T * P rows.
``mvdr`` takes the mask too, with the mask's width the geometry's
microphone count: path p beamforms the STFT rows mask row p keeps on their
own, and the CDR mask takes those microphones' spacings, so every keep set
shares one analysis. ``combined`` runs the same ``_combine`` of the
normalised parts under ``autodiff.no_grad`` and returns the values and the
per-channel weights as plain numpy arrays, so the weights the
``beampattern`` command analyses are the ones the graph applies.

A kind is built from its config dataclass, each field and default written
once: ``FrontendConfig`` for every kind, mixins for mel bands and
attention, and each kind's own fields. ``make_frontend`` builds any kind
from a JSON-able config dict, whose ``kind`` picks the class in one table
(and ``FRONTEND_KINDS``); ``config()`` is that dict without the seed, so
``checkpoint.load_model`` can rebuild the exact frontend and then write
the saved weights into its ``params`` through ``checkpoint.named_tensors``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import autodiff as ad
from .beamform import ArrayGeometry, cdr_mask, mvdr
from .combinator import (
    attention_init,
    combine_mag_phase_graph,
    combine_real_graph,
    mvn_graph,
    weights_graph,
)
from .errors import (ArgumentError, ConfigError, Seed, check_size,
                     config_key, config_value, from_config)
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

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, kw_only=True)
class FrontendConfig:
    sample_rate: int = 16000
    seed: Seed = 0


@dataclass(frozen=True, kw_only=True)
class _MelConfig(FrontendConfig):
    n_mels: int = 64

    def __post_init__(self):
        check_size(self.n_mels * StftConfig().n_bins,
                   f"a {self.n_mels}-band mel filterbank")


@dataclass(frozen=True, kw_only=True)
class _AttentionConfig(FrontendConfig):
    attn_dim: int = 256


@dataclass(frozen=True, kw_only=True)
class SaccConfig(_MelConfig, _AttentionConfig):
    """``sacc``."""


@dataclass(frozen=True, kw_only=True)
class ComplexSaccConfig(SaccConfig):
    parts: Literal["mag_phase", "real_imag"] = "mag_phase"


@dataclass(frozen=True, kw_only=True)
class AnalyticConfig(_AttentionConfig):
    n_filters: int = 32
    kernel_len: int = 400


@dataclass(frozen=True, kw_only=True)
class MvdrConfig(_MelConfig):
    geometry: ArrayGeometry


def _attn_tensors(feat_dim, attn_dim, seed, prefix=""):
    init = attention_init(feat_dim, attn_dim, seed)
    return {prefix + name: ad.parameter(arr) for name, arr in init.items()}


def _subparams(params, prefix):
    """The tensors of ``params`` under ``prefix``, with the prefix cut off."""
    return {name[len(prefix):]: t for name, t in params.items()
            if name.startswith(prefix)}


class Frontend:
    """Base: config plumbing shared by every variant. The fields of ``cfg``,
    a ``config_class``, are attributes of the frontend too."""

    kind = None
    config_class = FrontendConfig

    def __init__(self, cfg):
        if type(cfg) is not self.config_class:
            raise ArgumentError(
                f"expected a {self.config_class.__name__}, got {cfg!r}")
        self.cfg = cfg
        vars(self).update(vars(cfg))
        self.stft_cfg = StftConfig()
        self.params = {}

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
    def feature_dim(self):
        """Width F of a feature row: ``n_mels`` for the log-mel kinds."""
        return self.n_mels

    @property
    def frame_len(self):
        """Samples per analysis frame."""
        return self.stft_cfg.win_samples(self.sample_rate)

    @property
    def frame_hop(self):
        """Samples between the starts of consecutive analysis frames: the
        STFT hop of 1 / FRAME_RATE s, which every kind uses."""
        return self.stft_cfg.hop_samples(self.sample_rate)

    def features(self, signal, cache=None, mask=None) -> ad.Tensor:
        """(T, F) features of ``signal``:
        ``window_features(normalise(analyse(signal)), mask)``.

        With a ``FrameCache``, frames the previous window analysed are taken
        from it instead of being analysed again; the result is the same.
        With a (P, C) boolean channel mask the result is a (T, P, F) stack:
        path p holds the features of the channels that mask row p keeps.
        Each kind binds ``features = Frontend.features`` in its own class,
        so tracing (``perfbench``) can wrap and time the kinds apart.
        """
        frames = self.analyse(signal) if cache is None else cache.frames(signal)
        return self.window_features(self.normalise(frames), mask)

    def combined(self, signal):
        """``(values, weights)`` of ``_combine(normalise(analyse(signal)))``
        off the tape, as numpy: the (T, K) channel combination and the (C, T)
        weights that built it (None for ``mvdr``). Real weights lie on the
        simplex; a (re, im) pair of values or weights becomes complex.
        """
        with ad.no_grad():
            values, weights = self._combine(self.normalise(self.analyse(signal)))
        if weights is not None:
            weights = _values(weights)[:, :, 0].T
        return self._combined_values(values), weights

    def _combined_values(self, values):
        return _values(values)

    def _mel_tensor(self):
        return ad.Tensor(mel_filterbank(self.n_mels, self.stft_cfg.n_bins,
                                        self.sample_rate))

    def _logmel(self, combined_mag):
        """Log-mel of (T, K) magnitudes, or of a (T, P, K) stack as one GEMM
        over its T * P rows."""
        return ad.tlog(combined_mag @ self._mel_tensor() + LOG_EPS)

    def config(self):
        """``kind`` and every config field but ``seed``, the ``mvdr``
        geometry as its dict: ``make_frontend`` rebuilds the frontend from
        it."""
        out = {"kind": self.kind, **dataclasses.asdict(self.cfg)}
        del out["seed"]
        return out

    # subclasses: analyse(), normalise(), _combine(), window_features()


class SaccStftFrontend(Frontend):
    """Real simplex weights over per-channel STFT magnitudes, then log-mel."""

    kind = "sacc"
    config_class = SaccConfig
    features = Frontend.features

    def __init__(self, cfg):
        super().__init__(cfg)
        self.params = _attn_tensors(self.stft_cfg.n_bins, self.attn_dim, self.seed)

    def analyse(self, signal):
        """(magnitude, log-magnitude), each (T, C, K)."""
        mag = np.abs(self._stft(signal))
        return mag, log_compress(mag)

    def normalise(self, frames):
        """(magnitude, MVN of the log-magnitude)."""
        mag, log_mag = frames
        return mag, mvn(log_mag)

    def _combine(self, inputs, mask=None):
        """(T, K) combined magnitude and the (T, C, 1) weights; (T, P, K)
        and (T, P, C, 1) with a mask."""
        mag, attn_in = inputs
        w = weights_graph(ad.Tensor(attn_in), self.params, mask=mask)
        return combine_real_graph(w, ad.Tensor(mag)), w

    def window_features(self, inputs, mask=None) -> ad.Tensor:
        combined, _ = self._combine(inputs, mask)
        return self._logmel(combined)


class AnalyticSaccFrontend(Frontend):
    """Learned analytic FIR bank replacing the STFT; features are the
    real/imag parts of the weighted channel combination. The bank hops by
    ``frame_hop``, the STFT hop, so it yields one frame per 10 ms too.
    Kernels are at most 100 ms long (``sample_rate // 10`` taps), four times
    the STFT window: the bank materialises an (L, L) Hilbert operator."""

    kind = "analytic"
    config_class = AnalyticConfig
    features = Frontend.features

    def __init__(self, cfg):
        super().__init__(cfg)
        max_len = self.sample_rate // 10
        if (self.kernel_len < 2 or self.kernel_len % 2
                or self.kernel_len > max_len or self.n_filters < 1):
            raise ArgumentError(
                f"kernel_len must be even, >= 2 and <= {max_len} (100 ms), "
                "n_filters >= 1")
        check_size(self.n_filters * self.kernel_len,
                   f"a bank of {self.n_filters} filters")
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

    def normalise(self, frames):
        """(real, imaginary, MVN of the log-magnitude), on the tape."""
        re, im, log_mag = frames
        return re, im, mvn_graph(ad.as_tensor(log_mag))

    def _combine(self, inputs, mask=None):
        """(T, 2F) combined [real | imaginary] bank outputs and the
        (T, C, 1) weights; (T, P, 2F) and (T, P, C, 1) with a mask."""
        re, im, attn_in = inputs
        w = weights_graph(attn_in, self.params, mask=mask)
        return combine_real_graph(w, ad.concat([re, im], axis=-1)), w

    def window_features(self, inputs, mask=None) -> ad.Tensor:
        row, _ = self._combine(inputs, mask)
        return row

    def _combined_values(self, row):
        """The combined [real | imaginary] row as complex (T, F) values."""
        f = self.n_filters
        return row.data[:, :f] + 1j * row.data[:, f:]


class _ComplexSaccFrontend(Frontend):
    """What ``ecsacc`` and ``icsacc`` share: STFT parts in either layout, a
    complex channel combination from two weight columns, log-mel of the
    combined magnitude."""

    config_class = ComplexSaccConfig

    def analyse(self, signal):
        """The STFT's real and imaginary parts side by side, (T, C, 2K), as
        the combination multiplies them; for ``mag_phase`` also the
        log-magnitude and angle the attention reads, each (T, C, K)."""
        values = self._stft(signal)
        reim = np.concatenate([values.real, values.imag], axis=-1)
        if self.parts == "mag_phase":
            return reim, log_compress(np.abs(values)), np.angle(values)
        return (reim,)

    def _normalised_parts(self, frames):
        """MVN of the two representation parts the attention reads: the
        log-magnitude and angle for ``mag_phase``, the real and imaginary
        parts for ``real_imag``."""
        if self.parts == "mag_phase":
            first, second = frames[1:]
        else:
            first, second = np.split(frames[0], 2, axis=-1)
        return mvn(first), mvn(second)

    def window_features(self, inputs, mask=None) -> ad.Tensor:
        (re, im), _ = self._combine(inputs, mask)
        return self._logmel(ad.complex_abs(re, im))

    def _complex_sum(self, a, b, inputs):
        """Complex channel sum from the two (T, [P,] C, 1) weight columns
        (a, b).

        The columns become w = w_re + j*w_im: a*exp(j*2*pi*b) for
        ``mag_phase``, a + j*b for ``real_imag``. Returns the (T, [P,] K)
        re/im of sum_c w_c * X_c and the (w_re, w_im) pair.
        """
        if self.parts == "mag_phase":
            phase = b * TWO_PI
            w_re, w_im = a * phase.cos(), a * phase.sin()
        else:
            w_re, w_im = a, b
        reim = ad.Tensor(inputs[0])
        return combine_mag_phase_graph(w_re, w_im, reim), (w_re, w_im)


class EcSaccFrontend(_ComplexSaccFrontend):
    """Two attention banks (magnitude and phase parts), complex combination,
    then log-mel of the combined magnitude."""

    kind = "ecsacc"
    features = Frontend.features

    def __init__(self, cfg):
        super().__init__(cfg)
        k = self.stft_cfg.n_bins
        self.params = {}
        self.params.update(_attn_tensors(k, self.attn_dim, self.seed, "mag/"))
        self.params.update(_attn_tensors(k, self.attn_dim, self.seed + 1, "phase/"))

    def normalise(self, frames):
        """([real | imaginary], first attention input, second one)."""
        return frames[:1] + self._normalised_parts(frames)

    def _combine(self, inputs, mask=None):
        """(T, [P,] K) re/im of the combination and the (w_re, w_im)
        weights."""
        first, second = inputs[1:]
        w1 = weights_graph(ad.Tensor(first), _subparams(self.params, "mag/"),
                           mask=mask)
        w2 = weights_graph(ad.Tensor(second),
                           _subparams(self.params, "phase/"), mask=mask)
        return self._complex_sum(w1, w2, inputs)


class IcSaccFrontend(_ComplexSaccFrontend):
    """One attention bank over the feature-axis concatenation of both parts;
    a split value head emits the magnitude and phase weight columns."""

    kind = "icsacc"
    features = Frontend.features

    def __init__(self, cfg):
        super().__init__(cfg)
        self.params = _attn_tensors(2 * self.stft_cfg.n_bins, self.attn_dim,
                                    self.seed)

    def normalise(self, frames):
        """([real | imaginary], both attention inputs side by side), each
        (T, C, 2K)."""
        return frames[:1] + (np.concatenate(self._normalised_parts(frames),
                                            axis=-1),)

    def _combine(self, inputs, mask=None):
        """(T, [P,] K) re/im of the combination and the (w_re, w_im) weights
        packed from the two columns of the split value head."""
        w = weights_graph(ad.Tensor(inputs[1]), self.params,
                          value_split=self.stft_cfg.n_bins, mask=mask)
        return self._complex_sum(w[..., :1], w[..., 1:], inputs)


class MvdrFrontend(Frontend):
    """Fixed (non-trainable) beamforming front end: CDR speech mask, MVDR
    filter from the masked covariances, log-mel of the beamformed magnitude.
    A fixed beamformer has no weights, so ``seed`` has nothing to draw."""

    kind = "mvdr"
    config_class = MvdrConfig
    features = Frontend.features

    def analyse(self, signal):
        """(STFT values,), (T, C, K) complex; MVDR statistics are per window."""
        return (self._stft(signal),)

    def normalise(self, frames):
        """The frames as they are: the CDR mask and MVDR statistics look
        across channels, so no step here is per channel."""
        return frames

    def _combine(self, inputs, mask=None):
        """(T, K) beamformed magnitude of every microphone, or with a (P, C)
        channel mask the (T, P, K) stack whose path p beamforms the
        microphones mask row p keeps on their own: its CDR mask takes their
        spacings and its MVDR solve their covariances. A fixed beamformer
        has no per-channel weights, so the weights are None."""
        values = inputs[0]
        if mask is None:
            subsets = [(values, None)]
        else:
            if mask.shape[1] != self.geometry.n_mics:
                raise ArgumentError(
                    f"channel mask has {mask.shape[1]} channels, the mvdr "
                    f"geometry {self.geometry.n_mics} microphones")
            subsets = [(values[:, row], np.flatnonzero(row)) for row in mask]
        mags = []
        for kept, mic_ids in subsets:
            spec = ComplexSpectrogram(np.transpose(kept, (1, 0, 2)),
                                      self.sample_rate)
            speech = cdr_mask(spec, self.geometry, mic_ids)
            mags.append(np.abs(mvdr(spec, speech).values))
        return (mags[0] if mask is None else np.stack(mags, axis=1)), None

    def window_features(self, inputs, mask=None) -> ad.Tensor:
        """Log-mel of the beamformed magnitude; (T, P, F) with a mask."""
        mag, _ = self._combine(inputs, mask)
        return self._logmel(ad.Tensor(mag))


def _values(part):
    """``part`` as numpy; a (re, im) pair of tensors becomes complex."""
    if isinstance(part, tuple):
        return part[0].data + 1j * part[1].data
    return part.data if isinstance(part, ad.Tensor) else part


_FRONTEND_CLASSES = {cls.kind: cls for cls in (
    SaccStftFrontend, AnalyticSaccFrontend, EcSaccFrontend, IcSaccFrontend,
    MvdrFrontend)}
FRONTEND_KINDS = tuple(_FRONTEND_CLASSES)


class FrameCache:
    """Analysed frames of the previous window, reused by the next one.

    Sliding-window inference runs windows that overlap by most of their
    length. ``frames(window)`` gives the same parts as
    ``frontend.analyse(window)``, but carries over the frames the previous
    window already analysed and runs only the others through ``analyse``.

    Reuse goes by position: all windows must come from one recording
    (``cli._infer_labels`` builds one cache per recording), and
    ``window.start`` says where each lies in it. A window that starts a
    whole number of frame hops inside the previous window's frames, with as
    many channels, reuses them from there on; a frame depends only on its
    own samples, so they are what its own analysis gives. Any other window
    (before the previous one or past its frames, or off its frame grid, as
    a tail window aligned to the recording's end may be) is analysed in
    full. The cache holds one window's start and analysed frames and no
    samples. It keeps values only, so use it under ``autodiff.no_grad``.
    """

    def __init__(self, frontend):
        self.frontend = frontend
        self._start, self._frames = 0, None

    def frames(self, window: MultichannelSignal):
        """The parts of ``frontend.analyse(window)``, as numpy arrays."""
        fe = self.frontend
        n_frames = frame_count(window.n_samples, fe.frame_len, fe.frame_hop)
        first, off_grid = divmod(window.start - self._start, fe.frame_hop)
        prev = self._frames
        if (prev is None or off_grid or not 0 <= first < len(prev[0])
                or prev[0].shape[1] != window.n_channels):
            parts = [_values(p) for p in fe.analyse(window)]
        else:
            parts = [p[first:first + n_frames] for p in prev]
            n_kept = len(parts[0])
            if n_kept < n_frames:
                lo = n_kept * fe.frame_hop
                hi = (n_frames - 1) * fe.frame_hop + fe.frame_len
                parts = [np.concatenate([kept, _values(new)]) for kept, new
                         in zip(parts, fe.analyse(window.read(lo, hi - lo)))]
        self._start, self._frames = window.start, parts
        return tuple(parts)


def frontend_config(config: dict, seed=None):
    """The checked config dataclass of the frontend config dict ``config``:
    ``kind`` picks the kind and the other keys are fields of its config.
    ``seed`` replaces the config's seed when given."""
    cfg = dict(config_value(config, dict))
    if "kind" not in cfg:
        raise ConfigError("missing required frontend keys: ['kind']")
    with config_key("kind"):
        kind = config_value(cfg.pop("kind"), Literal[FRONTEND_KINDS])
    if seed is not None:
        cfg["seed"] = seed
    return from_config(_FRONTEND_CLASSES[kind].config_class, cfg)


def make_frontend(config: dict, seed=None) -> Frontend:
    """The frontend of a config dict (see ``frontend_config``). Configs
    saved by ``config()`` omit the seed, so pass one for fresh inits;
    ``checkpoint.load_model`` overwrites the fresh ``params``."""
    cfg = frontend_config(config, seed)
    return _FRONTEND_CLASSES[config["kind"]](cfg)
