"""Multichannel waveform container plus WAV I/O, channel masking and slicing.

Conventions: samples live in a (channels, samples) float64 array in [-1, 1]
nominal range. Channel identities survive masking, so downstream code can
always name channels by their original index in the recording.

WAV files are read through one reader, ``WavReader``: it parses the header
once and reads any range of sample frames from the file on demand, so a
caller that works window by window (``segeval.sliding_infer`` through
``slice_segment``) holds one window in memory, not the recording.
``read_wav`` is the reader's whole range.

``write_wav`` writes the canonical 44-byte RIFF/fmt/data header of a
PCM16 file and then the little-endian samples, the bytes scipy's
``wavfile.write`` gives the same int16 data. Neither direction imports
scipy.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, FormatError, RangeError, UnsupportedCodecError

MAX_CHANNELS = 64

_PCM16_SCALE = 32768.0
_PCM32_SCALE = 2147483648.0
# Largest value of a RIFF size field: the data of a plain RIFF file and
# its 36 header bytes after the size field must fit in it.
_RIFF_MAX = 0xFFFFFFFF


class WavFileWarning(UserWarning):
    """A WAV file holds something the reader skips, such as an unknown
    chunk before the data."""


@dataclass(frozen=True)
class MultichannelSignal:
    """A synchronized block of audio channels.

    samples: (C, N) float64.
    sample_rate: Hz.
    channel_ids: the original index of each row; stays stable under masking.
    start: the index of the first sample in the recording it was read from
        (0 for a whole recording); cuts add it up, masking keeps it.
    """

    samples: np.ndarray
    sample_rate: int
    channel_ids: tuple = field(default=None)
    start: int = 0

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
        if self.start < 0:
            raise ArgumentError(f"start must be >= 0, got {self.start}")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        object.__setattr__(self, "channel_ids", ids)
        object.__setattr__(self, "start", int(self.start))

    @property
    def n_channels(self):
        return self.samples.shape[0]

    @property
    def n_samples(self):
        return self.samples.shape[1]

    @property
    def duration_s(self):
        return self.samples.shape[1] / self.sample_rate

    def read(self, start, count) -> "MultichannelSignal":
        """Samples [start, start + count) as a view, the call
        ``WavReader.read`` answers from its file."""
        return MultichannelSignal(self.samples[:, start:start + count],
                                  self.sample_rate, self.channel_ids,
                                  self.start + start)


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Last 12 bytes of a WAVE_FORMAT_EXTENSIBLE sub-format GUID whose first
# four bytes are a plain format tag, by byte order.
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
# Chunks skipped without a warning; any other chunk before the data is
# skipped with a ``WavFileWarning``.
_QUIET_CHUNKS = (b"fact", b"LIST", b"JUNK", b"Fake")


def _take(fh, n, what):
    data = fh.read(n)
    if len(data) < n:
        raise FormatError(f"not a readable WAV file: it ends inside the {what}")
    return data


def _sample_format(fmt, order):
    """(channels, rate, bytes per sample, numpy dtype, scale or None) from
    the fmt chunk's bytes."""
    if len(fmt) < 16:
        raise FormatError(f"not a readable WAV file: fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(
        order + "HHIIHH", fmt[:16])
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack(order + "H", fmt[16:18])[0] < 22:
            raise FormatError("not a readable WAV file: short extensible fmt chunk")
        guid = fmt[24:40]
        if guid[4:] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", guid[:4])[0]
    if not 1 <= channels <= MAX_CHANNELS:
        raise FormatError(f"WAV channel count must be in [1, {MAX_CHANNELS}], "
                          f"got {channels}")
    if rate < 1:
        raise FormatError("WAV sample rate must be positive")
    width = block_align // channels
    if width < 1 or width * channels != block_align:
        raise FormatError(f"WAV block align {block_align} does not hold "
                          f"{channels} whole samples")
    if tag == _WAVE_FORMAT_PCM:
        if byte_rate != rate * block_align:
            raise FormatError(f"WAV header is invalid: byte rate {byte_rate} is "
                              f"not rate {rate} x block align {block_align}")
        if bits <= 8 or width not in (2, 3, 4):
            raise UnsupportedCodecError(
                f"unsupported WAV sample format: {bits}-bit PCM in "
                f"{width}-byte samples")
        # 24-bit samples are read as bytes into 32-bit containers
        dtype = np.dtype(f"{order}i{4 if width == 3 else width}")
        scale = _PCM16_SCALE if width == 2 else _PCM32_SCALE
        return channels, rate, width, dtype, scale
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits not in (32, 64) or width not in (4, 8):
            raise UnsupportedCodecError(
                f"unsupported WAV sample format: {bits}-bit float in "
                f"{width}-byte samples")
        return channels, rate, width, np.dtype(f"{order}f{width}"), None
    raise UnsupportedCodecError(f"unsupported WAV encoding: format tag {tag:#06x}")


def _left_justified_pcm24(raw, dtype):
    """Packed 24-bit samples as the top three bytes of 32-bit integers of
    ``dtype``, so that sample/2**31 is their value in [-1, 1)."""
    quad = np.zeros((raw.size // 3, 4), dtype=np.uint8)
    if dtype.byteorder == ">":
        quad[:, :3] = raw.reshape(-1, 3)
    else:
        quad[:, 1:] = raw.reshape(-1, 3)
    return quad.view(dtype)


class WavReader:
    """A RIFF (or RIFX, RF64) WAV file, read a range of sample frames at a
    time.

    The header is parsed once, on construction: encoding, channel count,
    rate, where the data starts and how many frames it holds. ``read(start,
    count)`` reads frames [start, start + count) with one ``np.fromfile``
    and nothing else of the file, so memory follows the range, not the
    recording. The reader has the ``sample_rate``, ``n_channels``,
    ``n_samples``, ``duration_s`` and ``channel_ids`` of the signal it
    holds, and ``slice_segment`` cuts it as it cuts a ``MultichannelSignal``.

    PCM16 decodes as sample/32768, PCM24/32 as sample/2**31 (24-bit samples
    left-justified in 32 bits), IEEE float is taken as-is. Other encodings
    raise UnsupportedCodecError; broken headers raise FormatError, and so
    does a data chunk that ends before the length its header declares,
    before any sample is read. A float sample that is NaN or infinite is a
    FormatError too, naming the file and the frames read. A chunk other
    than fmt, data, fact, LIST, JUNK or Fake before the data is skipped
    with a ``WavFileWarning``.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            riff = _take(fh, 12, "RIFF header")
            kind = riff[:4]
            if kind not in (b"RIFF", b"RIFX", b"RF64") or riff[8:] != b"WAVE":
                raise FormatError("not a readable WAV file: no RIFF WAVE header")
            order = ">" if kind == b"RIFX" else "<"
            rf64_size = None
            if kind == b"RF64":
                ds64_id, ds64_size, _, rf64_size = struct.unpack(
                    "<4sIQQ", _take(fh, 24, "ds64 chunk"))
                if ds64_id != b"ds64" or ds64_size < 16:
                    raise FormatError("not a readable WAV file: bad ds64 chunk")
                fh.seek(ds64_size - 16 + ds64_size % 2, os.SEEK_CUR)
            fmt = None
            while True:
                chunk, size = struct.unpack(order + "4sI",
                                            _take(fh, 8, "chunk list"))
                if chunk == b"data":
                    break
                skip = size + size % 2  # a chunk of odd size has a pad byte
                if chunk == b"fmt ":
                    head = fh.read(min(size, 40))
                    fmt = _sample_format(head, order)
                    skip -= len(head)
                elif chunk not in _QUIET_CHUNKS:
                    warnings.warn(f"WAV chunk {chunk!r} not understood, "
                                  "skipping it", WavFileWarning,
                                  stacklevel=2)
                fh.seek(skip, os.SEEK_CUR)
            if fmt is None:
                raise FormatError("not a readable WAV file: no fmt chunk "
                                  "before the data")
            self._offset = fh.tell()
            file_size = os.fstat(fh.fileno()).st_size
        if rf64_size is not None:
            size = rf64_size
        (self.n_channels, self.sample_rate, self._width, self._dtype,
         self._scale) = fmt
        block_align = self._width * self.n_channels
        if size % block_align:
            raise FormatError(f"WAV data chunk of {size} bytes is not a whole "
                              f"number of {block_align}-byte frames")
        if self._offset + size > file_size:
            raise FormatError(
                f"truncated WAV file: the data chunk declares {size} bytes, "
                f"the file holds {file_size - self._offset}")
        self.n_samples = size // block_align
        self.channel_ids = tuple(range(self.n_channels))

    @property
    def duration_s(self):
        return self.n_samples / self.sample_rate

    def read(self, start=0, count=None) -> MultichannelSignal:
        """Frames [start, start + count) as float64 (C, count); the rest of
        the file from ``start`` when ``count`` is None."""
        if count is None:
            count = self.n_samples - start
        if start < 0 or count < 0 or start + count > self.n_samples:
            raise RangeError(f"frames [{start}, {start + count}) are outside "
                             f"the recording's {self.n_samples}")
        items = count * self.n_channels * (3 if self._width == 3 else 1)
        data = np.fromfile(
            self.path, dtype=np.uint8 if self._width == 3 else self._dtype,
            count=items, offset=self._offset + start * self._width * self.n_channels)
        if data.size < items:
            raise FormatError(f"truncated WAV file: {self.path} ends inside "
                              f"frames [{start}, {start + count})")
        if self._width == 3:
            data = _left_justified_pcm24(data, self._dtype)
        samples = data.reshape(count, self.n_channels).astype(np.float64,
                                                              copy=False)
        if self._scale is not None:
            samples /= self._scale
        elif not np.isfinite(samples).all():
            raise FormatError(f"{self.path} holds a non-finite sample in "
                              f"frames [{start}, {start + count})")
        return MultichannelSignal(samples.T, self.sample_rate, start=start)


def read_wav(path) -> MultichannelSignal:
    """The whole of a WAV file as float64 [-1, 1]: ``WavReader(path).read()``,
    with its conversions and errors."""
    return WavReader(path).read()


def _pcm16_header(n_channels, sample_rate, n_frames):
    """The 44-byte RIFF header of a PCM16 WAV file of ``n_frames`` frames.

    ArgumentError when the data would not fit the 32-bit size fields (scipy
    switches to RF64 there) or the byte rate would not fit its field.
    """
    block_align = 2 * n_channels
    data_bytes = block_align * n_frames
    if 36 + data_bytes > _RIFF_MAX:
        raise ArgumentError(f"refusing to write {data_bytes} bytes of samples: "
                            f"a WAV file holds at most {_RIFF_MAX - 36}")
    if block_align * sample_rate > _RIFF_MAX:
        raise ArgumentError(f"sample rate {sample_rate} is too high for a "
                            f"{n_channels}-channel PCM16 WAV file")
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data_bytes, b"WAVE",
                       b"fmt ", 16, _WAVE_FORMAT_PCM, n_channels, sample_rate,
                       block_align * sample_rate, block_align, 16,
                       b"data", data_bytes)


def write_wav(signal: MultichannelSignal, path):
    """Write a 16-bit PCM WAV file.

    Samples clip to [-1, 1] and round to the nearest step of 1/32768.
    Non-finite samples, and data a RIFF header cannot describe, raise
    ArgumentError before the file is opened.
    """
    if not np.isfinite(signal.samples).all():
        raise ArgumentError("refusing to write non-finite samples")
    header = _pcm16_header(signal.n_channels, signal.sample_rate,
                           signal.n_samples)
    ints = np.round(np.clip(signal.samples.T, -1.0, 1.0) * _PCM16_SCALE)
    out = np.clip(ints, -32768, 32767).astype("<i2", order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(out.data)


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
    return MultichannelSignal(signal.samples[rows], signal.sample_rate,
                              tuple(order), signal.start)


def slice_segment(signal, start_s, duration_s) -> MultichannelSignal:
    """Cut [start_s, start_s + duration_s) with sample indices from round().

    ``signal`` is a ``MultichannelSignal`` (the cut is a view of its
    samples) or a ``WavReader`` (the cut's samples are read from the file,
    and no others). Raises RangeError when the window leaves the recording.
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
    return signal.read(start, count)
