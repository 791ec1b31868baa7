"""Spectral analysis front end pieces.

Covers the fixed STFT path (framing, periodic Hann window, mel projection,
log compression, per-bin mean/variance normalization), the Hilbert basis
that gives the learnable analytic filterbank of
``frontends.AnalyticSaccFrontend`` its imaginary impulse responses.

``FRAME_RATE`` is the one frame grid of the package: the STFT hop, the
analytic bank's hop, the 3-class label grid (``segeval``), the sliding
inference offsets and the training crops all derive from it. The STFT
geometry is fixed too: a 25 ms periodic Hann window (``WIN_S``) and a
512-point FFT (``FFT_SIZE``), so every spectrogram has 257 bins.

Framing is left aligned with no center padding: frame t covers samples
[t*hop, t*hop + win), and the frame count is floor((N - win) / hop) + 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, NumericError, RangeError
from .signal_io import MultichannelSignal

FRAME_RATE = 100  # analysis frames and labels per second
WIN_S = 0.025  # STFT window (periodic Hann), seconds
FFT_SIZE = 512  # STFT points, so 257 one-sided bins
LOG_EPS = 1e-8
MVN_EPS = 1e-6


class StftConfig:
    """The STFT geometry in samples at a given signal rate."""

    def win_samples(self, rate):
        return int(round(WIN_S * rate))

    def hop_samples(self, rate):
        return int(round(1.0 / FRAME_RATE * rate))

    @property
    def n_bins(self):
        return FFT_SIZE // 2 + 1


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided STFT-like representation, values (C, T, K) complex128."""

    values: np.ndarray
    sample_rate: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 3:
            raise ArgumentError(f"values must be (C, T, K), got ndim={v.ndim}")
        if not np.isfinite(v).all():
            raise NumericError("spectrogram contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def n_channels(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]

    @property
    def n_bins(self):
        return self.values.shape[2]


def frame_count(n_samples, win, hop):
    if n_samples < win:
        raise RangeError(f"signal of {n_samples} samples is shorter than one window ({win})")
    return (n_samples - win) // hop + 1


def frame_signal(samples, win, hop):
    """Strided view (C, T, win) over (C, N) samples; no copies."""
    if samples.ndim != 2:
        raise ArgumentError("expected (channels, samples)")
    frame_count(samples.shape[1], win, hop)  # validates length
    view = sliding_window_view(samples, win, axis=1)
    return view[:, ::hop, :]


def stft(signal: MultichannelSignal) -> ComplexSpectrogram:
    """One-sided Hann STFT of each channel, (C, T, K), K = FFT_SIZE/2 + 1."""
    cfg = StftConfig()
    rate = signal.sample_rate
    win = cfg.win_samples(rate)
    if FFT_SIZE < win:
        raise ArgumentError(f"a {win}-sample window ({rate} Hz) exceeds the FFT size")
    frames = frame_signal(signal.samples, win, cfg.hop_samples(rate))
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)  # periodic
    return ComplexSpectrogram(np.fft.rfft(frames * hann, n=FFT_SIZE), rate)


# -- mel projection -----------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels, n_bins, rate):
    """(n_bins, n_mels) triangular weights, peak 1, not area normalized.

    Triangles are spaced evenly on the mel axis from 0 Hz to rate/2 and
    evaluated at the bin center frequencies of a one-sided spectrum.
    """
    if n_mels < 1:
        raise ArgumentError("n_mels must be >= 1")
    if n_mels > n_bins:
        raise ArgumentError(f"n_mels={n_mels} exceeds the number of bins ({n_bins})")
    edges = mel_to_hz(np.linspace(0.0, float(hz_to_mel(rate / 2.0)), n_mels + 2))
    freqs = np.linspace(0.0, rate / 2.0, n_bins)
    weights = np.zeros((n_bins, n_mels))
    for i in range(n_mels):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - freqs) / max(hi - center, 1e-12)
        weights[:, i] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return weights


def mel_project(mag, n_mels, rate):
    """Project magnitudes (..., K) onto n_mels triangular filters."""
    mag = np.asarray(mag, dtype=np.float64)
    weights = mel_filterbank(int(n_mels), mag.shape[-1], int(rate))
    return mag @ weights


def log_compress(x):
    """log(x + 1e-8); inputs must be nonnegative."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ArgumentError("log_compress expects nonnegative input")
    return np.log(x + LOG_EPS)


def mvn(x):
    """Mean/variance normalize each bin across time, axis 0 of (T, ...).

    Population statistics; the denominator is std + 1e-6 so constant bins
    map to zeros. One pass: the centered values are computed once and
    squared once, with numpy's own ``mean``/``var`` arithmetic (an
    ``add.reduce`` divided by the count), so the result is bitwise that of
    ``(x - x.mean(0)) / (x.std(0) + 1e-6)``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centered = x - np.add.reduce(x, axis=0, keepdims=True) / n
    var = np.add.reduce(np.square(centered), axis=0, keepdims=True) / n
    centered /= np.sqrt(var) + MVN_EPS
    return centered


# -- analytic-signal basis ----------------------------------------------------


@functools.lru_cache(maxsize=8)
def hilbert_basis(kernel_len):
    """(L, L) matrix H with H @ h = imaginary part of the analytic signal.

    Built by pushing the identity through the spectral construction: zero
    the negative-frequency half, keep DC and Nyquist, double the positive
    half, inverse transform, take the imaginary part. Materializing the
    operator keeps the training-time transpose trivially available.
    """
    if kernel_len % 2 != 0:
        raise ArgumentError("analytic kernels must have even length")
    u = np.zeros(kernel_len)
    u[0] = 1.0
    u[1 : kernel_len // 2] = 2.0
    u[kernel_len // 2] = 1.0
    spectrum = np.fft.fft(np.eye(kernel_len), axis=0)
    analytic = np.fft.ifft(u[:, None] * spectrum, axis=0)
    return np.ascontiguousarray(analytic.imag)
