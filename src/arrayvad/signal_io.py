"""Multichannel waveform container plus WAV I/O, channel masking and slicing.

Conventions: samples live in a (channels, samples) float64 array in [-1, 1]
nominal range. Channel identities survive masking, so downstream code can
always name channels by their original index in the recording.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from .errors import ArgumentError, FormatError, RangeError, UnsupportedCodecError

MAX_CHANNELS = 64

_PCM16_SCALE = 32768.0
_PCM32_SCALE = 2147483648.0


@dataclass(frozen=True)
class MultichannelSignal:
    """A synchronized block of audio channels.

    samples: (C, N) float64.
    sample_rate: Hz.
    channel_ids: the original index of each row; stays stable under masking.
    """

    samples: np.ndarray
    sample_rate: int
    channel_ids: tuple = field(default=None)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 2:
            raise ArgumentError(f"samples must be 2D (channels, samples), got ndim={s.ndim}")
        if s.shape[0] < 1 or s.shape[0] > MAX_CHANNELS:
            raise ArgumentError(f"channel count must be in [1, {MAX_CHANNELS}], got {s.shape[0]}")
        if int(self.sample_rate) <= 0:
            raise ArgumentError(f"sample_rate must be positive, got {self.sample_rate}")
        ids = self.channel_ids
        if ids is None:
            ids = tuple(range(s.shape[0]))
        else:
            ids = tuple(int(i) for i in ids)
        if len(ids) != s.shape[0] or len(set(ids)) != len(ids):
            raise ArgumentError("channel_ids must be distinct and match the channel count")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        object.__setattr__(self, "channel_ids", ids)

    @property
    def n_channels(self):
        return self.samples.shape[0]

    @property
    def n_samples(self):
        return self.samples.shape[1]

    @property
    def duration_s(self):
        return self.samples.shape[1] / self.sample_rate


def read_wav(path) -> MultichannelSignal:
    """Read a RIFF WAV file into float64 [-1, 1].

    PCM16 decodes as sample/32768, PCM24/32 as sample/2**31, IEEE float is
    taken as-is. Other encodings raise UnsupportedCodecError; broken files
    raise FormatError, and so does a file whose data ends before the length
    its header declares (scipy would return the part it read, with a
    ``WavFileWarning``). Other ``WavFileWarning``s stay warnings.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely",
                                    wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except wavfile.WavFileWarning as exc:
        raise FormatError(f"truncated WAV file: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"not a readable WAV file: {exc}") from exc
    except Exception as exc:  # struct errors, truncation
        raise FormatError(f"malformed WAV file: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / _PCM32_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise UnsupportedCodecError(f"unsupported WAV sample format: {data.dtype}")
    if samples.ndim == 1:
        samples = samples[None, :]
    else:
        samples = samples.T
    if samples.shape[0] > MAX_CHANNELS:
        raise FormatError(f"too many channels ({samples.shape[0]} > {MAX_CHANNELS})")
    return MultichannelSignal(samples, int(rate))


def write_wav(signal: MultichannelSignal, path):
    """Write a 16-bit PCM WAV file.

    Samples clip to [-1, 1] and round to the nearest step of 1/32768.
    """
    if not np.isfinite(signal.samples).all():
        raise ArgumentError("refusing to write non-finite samples")
    data = signal.samples.T
    if data.shape[1] == 1:
        data = data[:, 0]
    ints = np.round(np.clip(data, -1.0, 1.0) * _PCM16_SCALE)
    out = np.clip(ints, -32768, 32767).astype(np.int16)
    wavfile.write(path, signal.sample_rate, out)


def _checked_keep(signal: MultichannelSignal, keep):
    """``keep`` as a list of ints; ArgumentError when it is empty, repeats
    an id or names one that ``signal`` does not hold."""
    keep = [int(k) for k in keep]
    if len(keep) == 0:
        raise ArgumentError("keep must name at least one channel")
    if len(set(keep)) != len(keep):
        raise ArgumentError("keep contains duplicate channel ids")
    missing = [k for k in keep if k not in signal.channel_ids]
    if missing:
        raise ArgumentError(f"channel ids not present: {missing}")
    return keep


def channel_mask(signal: MultichannelSignal, keep) -> np.ndarray:
    """(C,) boolean row mask of ``signal``: True on the channels whose
    original ids ``keep`` names. Refuses ``keep`` as ``mask_channels``
    does."""
    return np.isin(signal.channel_ids, _checked_keep(signal, keep))


def mask_channels(signal: MultichannelSignal, keep) -> MultichannelSignal:
    """Keep only the channels named in ``keep`` (original channel ids).

    The kept rows stay in ascending original-id order, so masking is
    idempotent and order-insensitive in ``keep``.
    """
    order = sorted(_checked_keep(signal, keep))
    present = {cid: row for row, cid in enumerate(signal.channel_ids)}
    rows = [present[k] for k in order]
    return MultichannelSignal(
        signal.samples[rows], signal.sample_rate, channel_ids=tuple(order)
    )


def slice_segment(signal: MultichannelSignal, start_s, duration_s) -> MultichannelSignal:
    """Cut [start_s, start_s + duration_s) with sample indices from round().

    Raises RangeError when the window leaves the recording.
    """
    if duration_s <= 0:
        raise ArgumentError(f"duration_s must be positive, got {duration_s}")
    if start_s < 0:
        raise RangeError(f"start_s must be >= 0, got {start_s}")
    start = int(round(start_s * signal.sample_rate))
    count = int(round(duration_s * signal.sample_rate))
    if start + count > signal.n_samples:
        raise RangeError(
            f"segment [{start_s}, {start_s + duration_s}) ends past the signal "
            f"({signal.n_samples / signal.sample_rate:.3f} s)"
        )
    return MultichannelSignal(
        signal.samples[:, start : start + count],
        signal.sample_rate,
        channel_ids=signal.channel_ids,
    )
