"""WAV round trips, channel masking and segment slicing."""

import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from arrayvad.errors import ArgumentError, FormatError, RangeError, UnsupportedCodecError
from arrayvad.signal_io import (
    MultichannelSignal,
    WavFileWarning,
    WavReader,
    _pcm16_header,
    mask_channels,
    read_wav,
    slice_segment,
    write_wav,
)

RNG = np.random.default_rng(7)


def make_signal(c=4, n=1600, rate=16000, scale=0.5):
    return MultichannelSignal(scale * RNG.standard_normal((c, n)).clip(-1, 1), rate)


def test_pcm16_round_trip_within_one_lsb(tmp_path):
    sig = make_signal()
    path = tmp_path / "a.wav"
    write_wav(sig, path)
    back = read_wav(path)
    assert back.sample_rate == sig.sample_rate
    assert back.samples.shape == sig.samples.shape
    assert np.max(np.abs(back.samples - sig.samples)) <= 2.0**-15


def test_float32_round_trip_bit_exact(tmp_path):
    data = RNG.standard_normal((3, 500)).astype(np.float32)
    path = tmp_path / "f.wav"
    wavfile.write(path, 16000, data.T)
    back = read_wav(path)
    assert np.array_equal(back.samples, data.astype(np.float64))


def test_mono_keeps_2d_layout(tmp_path):
    sig = MultichannelSignal(np.zeros((1, 100)), 8000)
    path = tmp_path / "m.wav"
    write_wav(sig, path)
    back = read_wav(path)
    assert back.samples.shape == (1, 100)


def test_full_scale_encodes_without_wraparound(tmp_path):
    sig = MultichannelSignal(np.array([[-1.0, 1.0, 0.999999]]), 16000)
    path = tmp_path / "fs.wav"
    write_wav(sig, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - sig.samples)) <= 2.0**-15


def test_malformed_file_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFxxxxWAVEfmt garbage")
    with pytest.raises(FormatError):
        read_wav(path)


def truncated_pcm16(tmp_path, channels=4, keep_frames=1000):
    """A PCM16 WAV of 3 s whose data is cut on a sample-frame boundary."""
    path = tmp_path / "whole.wav"
    write_wav(make_signal(c=channels, n=48000), path)
    raw = path.read_bytes()
    data_start = raw.index(b"data") + 8
    cut = tmp_path / "cut.wav"
    cut.write_bytes(raw[:data_start + keep_frames * 2 * channels])
    return cut


def test_truncated_wav_raises_format_error(tmp_path):
    with pytest.raises(FormatError, match="truncated"):
        read_wav(truncated_pcm16(tmp_path))


def test_reader_refuses_a_truncated_file_before_reading_samples(tmp_path,
                                                                monkeypatch):
    path = truncated_pcm16(tmp_path)

    def no_sample_reads(*args, **kwargs):
        raise AssertionError("samples read before the header was checked")

    monkeypatch.setattr(np, "fromfile", no_sample_reads)
    with pytest.raises(FormatError, match="truncated"):
        WavReader(path)


def _scipy_decoded(path):
    """The samples as ``read_wav`` decoded them through scipy: the oracle
    for the reader's conversions."""
    _, data = wavfile.read(path)
    scale = 1.0
    if data.dtype.kind == "i":
        scale = {2: 32768.0, 4: 2.0 ** 31}[data.itemsize]
    samples = data.astype(np.float64) / scale
    return samples.T if samples.ndim == 2 else samples[None, :]


def _write_pcm24(path, ints):
    """A 24-bit PCM WAV of (N, C) ints in [-2**23, 2**23)."""
    u = ints.astype(np.int64) & 0xFFFFFF
    packed = np.stack([u & 0xFF, u >> 8 & 0xFF, u >> 16], axis=-1)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(ints.shape[1])
        fh.setsampwidth(3)
        fh.setframerate(16000)
        fh.writeframes(packed.astype(np.uint8).tobytes())


N_FRAMES = 4007
WAV_WRITERS = {
    "pcm16": lambda p, r: wavfile.write(p, 16000, r.integers(
        -2 ** 15, 2 ** 15, size=(N_FRAMES, 3)).astype(np.int16)),
    "pcm24": lambda p, r: _write_pcm24(p, r.integers(
        -2 ** 23, 2 ** 23, size=(N_FRAMES, 3))),
    "pcm32": lambda p, r: wavfile.write(p, 16000, r.integers(
        -2 ** 31, 2 ** 31, size=(N_FRAMES, 3)).astype(np.int32)),
    "float32": lambda p, r: wavfile.write(
        p, 16000, r.standard_normal((N_FRAMES, 3)).astype(np.float32)),
    "float64": lambda p, r: wavfile.write(
        p, 16000, r.standard_normal((N_FRAMES, 3))),
}


@pytest.mark.parametrize("encoding", sorted(WAV_WRITERS))
def test_reader_windows_equal_cuts_of_the_whole_file(tmp_path, encoding):
    path = tmp_path / f"{encoding}.wav"
    WAV_WRITERS[encoding](path, np.random.default_rng(3))
    whole = read_wav(path)
    assert np.array_equal(whole.samples, _scipy_decoded(path))
    reader = WavReader(path)
    assert (reader.sample_rate, reader.n_channels, reader.n_samples,
            reader.channel_ids) == (16000, 3, N_FRAMES, (0, 1, 2))
    win = 1600
    # first window, one in the middle, and the tail aligned to the end
    for start in (0, 1203, N_FRAMES - win):
        got = slice_segment(reader, start / 16000, win / 16000)
        want = slice_segment(whole, start / 16000, win / 16000)
        assert got.start == want.start == start
        assert got.channel_ids == want.channel_ids
        assert np.array_equal(got.samples, want.samples)
        assert got.samples.strides == want.samples.strides
    with pytest.raises(RangeError):
        reader.read(N_FRAMES - win + 1, win)


def _handmade_pcm16(kind, data):
    """Bytes of a PCM16 WAV holding the (N, C) int16 ``data``: a RIFF, a
    big-endian RIFX or an RF64 file (sizes in its ds64 chunk)."""
    order = ">" if kind == b"RIFX" else "<"
    n, c = data.shape
    payload = data.astype(order + "i2").tobytes()
    fmt = struct.pack(order + "4sIHHIIHH", b"fmt ", 16, 1, c, 16000,
                      16000 * 2 * c, 2 * c, 16)
    if kind == b"RF64":
        total = 4 + 36 + len(fmt) + 8 + len(payload)
        ds64 = struct.pack("<4sIQQQI", b"ds64", 28, total, len(payload), n, 0)
        return (b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + fmt
                + struct.pack("<4sI", b"data", 0xFFFFFFFF) + payload)
    return (kind + struct.pack(order + "I", 4 + len(fmt) + 8 + len(payload))
            + b"WAVE" + fmt + struct.pack(order + "4sI", b"data", len(payload))
            + payload)


@pytest.mark.parametrize("kind", [b"RIFF", b"RIFX", b"RF64"])
def test_riff_rifx_and_rf64_headers(tmp_path, kind):
    data = np.random.default_rng(4).integers(-2 ** 15, 2 ** 15, size=(300, 2))
    path = tmp_path / "h.wav"
    path.write_bytes(_handmade_pcm16(kind, data.astype(np.int16)))
    got = read_wav(path).samples
    assert np.array_equal(got, data.T / 32768.0)
    assert np.array_equal(got, _scipy_decoded(path))


def test_other_wav_warnings_stay_warnings(tmp_path):
    # An unknown chunk before the data: the reader skips it with a warning.
    path = tmp_path / "a.wav"
    sig = make_signal(c=2, n=100)
    write_wav(sig, path)
    raw = path.read_bytes()
    at = raw.index(b"data")
    chunk = b"abcd" + struct.pack("<I", 4) + bytes(4)
    riff_size = struct.unpack("<I", raw[4:8])[0] + len(chunk)
    path.write_bytes(raw[:4] + struct.pack("<I", riff_size) + raw[8:at]
                     + chunk + raw[at:])
    with pytest.warns(WavFileWarning):
        back = read_wav(path)
    assert back.samples.shape == (2, 100)


@pytest.mark.parametrize("encoding", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_samples_are_format_errors(tmp_path, encoding, bad):
    data = RNG.standard_normal((300, 2)).astype(encoding)
    data[250, 1] = bad
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, data)
    reader = WavReader(path)
    assert np.array_equal(reader.read(0, 250).samples, data[:250].T)
    with pytest.raises(FormatError, match=r"bad\.wav .*frames \[200, 260\)"):
        reader.read(200, 60)
    with pytest.raises(FormatError, match="non-finite"):
        read_wav(path)


def _scipy_written(path, rate, samples):
    """``samples`` as scipy writes them to PCM16 after ``write_wav``'s
    rounding and clipping: the oracle for the writer's bytes."""
    data = samples.T if samples.shape[0] > 1 else samples[0]
    ints = np.round(np.clip(data, -1.0, 1.0) * 32768.0)
    wavfile.write(path, rate, np.clip(ints, -32768, 32767).astype(np.int16))
    return path.read_bytes()


@pytest.mark.parametrize("channels", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 1001])
@pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000])
def test_writer_bytes_equal_scipy(tmp_path, channels, n, rate):
    samples = 1.5 * RNG.standard_normal((channels, n))
    extremes = [-7.0, -1.0, -1.0 + 2.0**-16, -0.0, 2.0**-16, 1.0 - 2.0**-16,
                1.0, 7.0]
    flat = samples.reshape(-1)
    flat[:len(extremes)] = extremes[:flat.size]
    write_wav(MultichannelSignal(samples, rate), tmp_path / "ours.wav")
    assert (tmp_path / "ours.wav").read_bytes() == _scipy_written(
        tmp_path / "scipy.wav", rate, samples)


def test_writer_refuses_what_a_riff_header_cannot_hold():
    header = _pcm16_header(8, 16000, 123)
    assert len(header) == 44
    assert struct.unpack("<I", header[4:8])[0] == 36 + 16 * 123
    # the largest data whose file size still fits the 32-bit RIFF field
    frames = (0xFFFFFFFF - 36) // 16
    assert struct.unpack("<I", _pcm16_header(8, 16000, frames)[40:])[0] == \
        16 * frames
    with pytest.raises(ArgumentError, match="at most"):
        _pcm16_header(8, 16000, frames + 1)
    with pytest.raises(ArgumentError, match="sample rate"):
        _pcm16_header(8, 2 ** 28, 1)


def test_unsupported_codec(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, np.zeros(64, dtype=np.uint8))
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)


def test_nonfinite_write_rejected(tmp_path):
    sig = MultichannelSignal(np.array([[0.0, np.nan]]), 16000)
    with pytest.raises(ArgumentError):
        write_wav(sig, tmp_path / "nan.wav")


def test_signal_validation():
    with pytest.raises(ArgumentError):
        MultichannelSignal(np.zeros(10), 16000)
    with pytest.raises(ArgumentError):
        MultichannelSignal(np.zeros((2, 10)), 0)
    with pytest.raises(ArgumentError):
        MultichannelSignal(np.zeros((2, 10)), 16000, channel_ids=(0, 0))
    with pytest.raises(ArgumentError):
        MultichannelSignal(np.zeros((65, 4)), 16000)
    with pytest.raises(ArgumentError):
        MultichannelSignal(np.zeros((2, 10)), 16000, start=-1)


def test_mask_keeps_original_ids_in_ascending_order():
    sig = make_signal(c=6)
    kept = mask_channels(sig, [5, 1, 3])
    assert kept.channel_ids == (1, 3, 5)
    assert np.array_equal(kept.samples, sig.samples[[1, 3, 5]])


def test_mask_is_idempotent_and_composable():
    sig = make_signal(c=8)
    once = mask_channels(sig, [0, 2, 5, 7])
    twice = mask_channels(once, [0, 2, 5, 7])
    assert np.array_equal(once.samples, twice.samples)
    assert once.channel_ids == twice.channel_ids
    sub = mask_channels(once, [2, 7])
    assert sub.channel_ids == (2, 7)
    assert np.array_equal(sub.samples, sig.samples[[2, 7]])


def test_mask_missing_or_empty_rejected():
    sig = make_signal(c=4)
    with pytest.raises(ArgumentError):
        mask_channels(sig, [0, 9])
    with pytest.raises(ArgumentError):
        mask_channels(sig, [])
    with pytest.raises(ArgumentError):
        mask_channels(sig, [1, 1])


def test_slice_sample_alignment():
    n = 2 * 16000
    sig = MultichannelSignal(np.arange(n, dtype=np.float64)[None, :] / n, 16000)
    cut = slice_segment(sig, 1.0, 0.5)
    assert cut.n_samples == 8000
    assert cut.samples[0, 0] == sig.samples[0, 16000]
    # a cut of a cut starts where the two offsets add up to
    assert cut.start == 16000 and cut.read(100, 10).start == 16100


def test_slice_out_of_range():
    sig = make_signal(n=16000)
    with pytest.raises(RangeError):
        slice_segment(sig, 0.9, 0.2)
    with pytest.raises(RangeError):
        slice_segment(sig, -0.1, 0.2)
    with pytest.raises(ArgumentError):
        slice_segment(sig, 0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    keep=st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    start=st.integers(min_value=0, max_value=10),
    dur=st.integers(min_value=1, max_value=6),
)
def test_mask_and_slice_commute(keep, start, dur):
    rng = np.random.default_rng(11)
    sig = MultichannelSignal(rng.standard_normal((6, 1600)), 100)
    if start + dur > 16:
        return
    a = slice_segment(mask_channels(sig, keep), start / 10.0, dur / 10.0)
    b = mask_channels(slice_segment(sig, start / 10.0, dur / 10.0), keep)
    assert a.start == b.start == start * 10
    assert a.channel_ids == b.channel_ids
    assert np.array_equal(a.samples, b.samples)
