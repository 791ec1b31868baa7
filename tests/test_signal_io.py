"""WAV round trips, channel masking and segment slicing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from arrayvad.errors import ArgumentError, FormatError, RangeError, UnsupportedCodecError
from arrayvad.signal_io import (
    MultichannelSignal,
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


def test_other_wav_warnings_stay_warnings(tmp_path):
    # An unknown chunk before the data: scipy skips it with a warning.
    path = tmp_path / "a.wav"
    sig = make_signal(c=2, n=100)
    write_wav(sig, path)
    raw = path.read_bytes()
    at = raw.index(b"data")
    chunk = b"abcd" + struct.pack("<I", 4) + bytes(4)
    riff_size = struct.unpack("<I", raw[4:8])[0] + len(chunk)
    path.write_bytes(raw[:4] + struct.pack("<I", riff_size) + raw[8:at]
                     + chunk + raw[at:])
    with pytest.warns(wavfile.WavFileWarning):
        back = read_wav(path)
    assert back.samples.shape == (2, 100)


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
    assert a.channel_ids == b.channel_ids
    assert np.array_equal(a.samples, b.samples)
