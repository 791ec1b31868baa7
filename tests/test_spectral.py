"""STFT framing, mel projection, normalization and analytic filterbank
tests. Expected values come from direct per-frame numpy
computations written independently of the module under test."""

import numpy as np
import pytest

from arrayvad.errors import ArgumentError, RangeError
from arrayvad.frontends import AnalyticSaccFrontend
from arrayvad.signal_io import MultichannelSignal
from arrayvad.spectral import (
    ComplexSpectrogram,
    StftConfig,
    frame_count,
    frame_signal,
    hilbert_basis,
    hz_to_mel,
    log_compress,
    mel_filterbank,
    mel_project,
    mel_to_hz,
    mvn,
    stft,
)

RNG = np.random.default_rng(21)
CFG = StftConfig()


def make_signal(c=2, seconds=2.0, rate=16000):
    n = int(seconds * rate)
    return MultichannelSignal(0.1 * RNG.standard_normal((c, n)), rate)


def test_frame_count_two_seconds_at_16k():
    sig = make_signal(c=3)
    spec = stft(sig)
    assert spec.values.shape == (3, 198, 257)
    assert frame_count(32000, 400, 160) == 198


def test_frame_count_exact_fit_and_short_signal():
    assert frame_count(400, 400, 160) == 1
    assert frame_count(559, 400, 160) == 1
    assert frame_count(560, 400, 160) == 2
    with pytest.raises(RangeError):
        frame_count(399, 400, 160)


def test_stft_matches_naive_per_frame_dft():
    sig = make_signal(c=1, seconds=0.1)
    spec = stft(sig)
    x = sig.samples[0]
    win = 400
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    for t in range(spec.n_frames):
        frame = x[t * 160 : t * 160 + win] * hann
        want = np.fft.rfft(frame, n=512)
        assert np.allclose(spec.values[0, t], want, atol=1e-12)


@pytest.mark.parametrize("rate", [8000, 16000])
@pytest.mark.parametrize("seconds", [0.03, 0.25, 1.0137])
def test_stft_bitwise_equals_rfft_of_windowed_frames(rate, seconds):
    rng = np.random.default_rng(int(seconds * rate))
    sig = MultichannelSignal(rng.normal(size=(3, int(seconds * rate))), rate)
    win = int(round(0.025 * rate))
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    frames = frame_signal(sig.samples, win, rate // 100)
    values = stft(sig).values
    assert np.array_equal(values, np.fft.rfft(frames * hann, n=512))
    # (C, T, K) view of frame-major memory: the (T, C, K) layout is free
    assert values.transpose(1, 0, 2).flags.c_contiguous


def test_stft_integer_hop_delay_shifts_frames():
    sig = make_signal(c=1)
    delayed = np.concatenate([np.zeros((1, 160)), sig.samples], axis=1)
    spec = stft(sig)
    spec_d = stft(MultichannelSignal(delayed, 16000))
    assert np.allclose(spec_d.values[0, 1:, :], spec.values[0, : spec_d.n_frames - 1, :])


def test_pure_tone_peaks_at_nearest_bin():
    rate = 16000
    freq = 1000.0  # bin 32 exactly (1000 / 31.25)
    n = np.arange(rate)
    sig = MultichannelSignal(np.sin(2 * np.pi * freq * n / rate)[None, :], rate)
    spec = stft(sig)
    mag = np.abs(spec.values[0]).mean(axis=0)
    assert np.argmax(mag) == 32


def test_parseval_with_hann_window():
    # Every frame: the one-sided 512-point spectrum carries the energy of
    # the 400 periodic-Hann-windowed samples (zero padding adds none).
    sig = make_signal(c=1, seconds=0.1)
    spec = stft(sig)
    x = sig.samples[0]
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)
    for t in range(spec.n_frames):
        y = spec.values[0, t]
        total = (np.abs(y[0]) ** 2 + np.abs(y[-1]) ** 2
                 + 2 * np.sum(np.abs(y[1:-1]) ** 2)) / 512
        want = np.sum((x[t * 160 : t * 160 + 400] * hann) ** 2)
        assert abs(total - want) < 1e-12 * max(want, 1.0)


def test_stft_rejects_undersized_fft():
    # At 48 kHz the 25 ms window is 1,200 samples, more than the FFT size.
    with pytest.raises(ArgumentError):
        stft(make_signal(seconds=0.1, rate=48000))


def test_spectrogram_rejects_nonfinite():
    from arrayvad.errors import NumericError

    bad = np.zeros((1, 2, 3), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        ComplexSpectrogram(bad, 16000)


# -- mel ----------------------------------------------------------------------


def test_htk_mel_formula_points():
    assert hz_to_mel(0.0) == 0.0
    assert np.isclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0))
    assert np.isclose(mel_to_hz(hz_to_mel(1234.5)), 1234.5)


def test_mel_constant_input_all_filters_positive():
    out = mel_project(np.ones((4, 257)), 64, 16000)
    assert out.shape == (4, 64)
    assert np.all(out > 0)


def test_mel_impulse_hits_at_most_two_filters():
    mag = np.zeros((1, 257))
    mag[0, 80] = 1.0
    out = mel_project(mag, 64, 16000)
    assert 1 <= np.count_nonzero(out) <= 2


def test_mel_filters_peak_one_and_unnormalized():
    w = mel_filterbank(64, 257, 16000)
    assert w.shape == (257, 64)
    assert w.max() <= 1.0 + 1e-12
    # unnormalized triangles: wide high-frequency filters weigh more in sum
    assert w[:, -1].sum() > w[:, 0].sum()


def test_mel_too_many_filters_rejected():
    with pytest.raises(ArgumentError):
        mel_project(np.ones((2, 17)), 64, 16000)


def test_log_compress_values_and_errors():
    out = log_compress(np.array([1.0]))
    assert abs(out[0] - np.log1p(1e-8)) < 1e-16
    assert abs(out[0]) < 1e-7
    assert log_compress(np.zeros(3))[0] == np.log(1e-8)
    with pytest.raises(ArgumentError):
        log_compress(np.array([-0.1]))


# -- mvn ----------------------------------------------------------------------


def test_mvn_zero_mean_unit_std():
    x = RNG.standard_normal((500, 3, 7)) * 4.0 + 2.0
    out = mvn(x)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-4)


def test_mvn_affine_invariance_per_bin():
    x = RNG.standard_normal((300, 2, 5))
    gains = RNG.uniform(0.5, 2.0, size=(1, 2, 5))
    offsets = RNG.uniform(-3.0, 3.0, size=(1, 2, 5))
    assert np.allclose(mvn(gains * x + offsets), mvn(x), atol=1e-4)


def test_mvn_constant_bin_maps_to_zero():
    x = np.full((50, 1, 2), 3.7)
    # std is ~0 so the epsilon denominator takes over; rounding in the mean
    # leaves residues around 1e-9, not exact zeros
    assert np.allclose(mvn(x), 0.0, atol=1e-8)


@pytest.mark.parametrize("case", ["3d", "2d", "strided", "constant-bin"])
def test_mvn_bitwise_equals_two_pass_formula(case):
    x = RNG.standard_normal((97, 3, 7)) * 3.0 + 1.5
    if case == "2d":
        x = x[:, 0, :]
    elif case == "strided":
        x = np.transpose(RNG.standard_normal((7, 97, 3)), (1, 2, 0))
    elif case == "constant-bin":
        x[:, 1, 2] = 3.7
    want = (x - x.mean(0)) / (x.std(0) + 1e-6)
    assert np.array_equal(mvn(x), want)


def test_mvn_2d_defaults_to_time_rows():
    x = RNG.standard_normal((100, 4)) + 5.0
    out = mvn(x)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)


# -- analytic filterbank ------------------------------------------------------


def test_hilbert_spectrum_is_one_sided():
    ir = RNG.standard_normal((5, 64))
    analytic = ir + 1j * (ir @ hilbert_basis(64).T)
    spec = np.fft.fft(analytic, axis=-1)
    neg = spec[:, 33:]  # strictly negative frequencies for L=64
    total = np.sum(np.abs(spec) ** 2)
    assert np.sum(np.abs(neg) ** 2) / total < 1e-6
    assert np.max(np.abs(neg)) < 1e-9 * np.max(np.abs(spec))


def test_hilbert_of_cos_is_sin():
    rate = 16000
    length = 400
    n = np.arange(length)
    f0 = 1000.0
    window = 0.5 - 0.5 * np.cos(2 * np.pi * n / length)
    real = np.cos(2 * np.pi * f0 * n / rate) * window
    imag = (real[None, :] @ hilbert_basis(length).T)[0]
    want = np.sin(2 * np.pi * f0 * n / rate) * window
    peak = np.max(np.abs(want))
    assert np.max(np.abs(imag - want)) < 1e-2 * peak


def test_hilbert_basis_matches_direct_fft_path():
    h = RNG.standard_normal(32)
    via_matrix = hilbert_basis(32) @ h
    spectrum = np.fft.fft(h)
    u = np.zeros(32)
    u[0] = 1.0
    u[1:16] = 2.0
    u[16] = 1.0
    direct = np.fft.ifft(u * spectrum).imag
    assert np.allclose(via_matrix, direct, atol=1e-12)


def test_hilbert_rejects_odd_length():
    with pytest.raises(ArgumentError):
        hilbert_basis(33)


def test_analytic_apply_matches_naive_correlation():
    fe = AnalyticSaccFrontend(n_filters=3, kernel_len=16, seed=5)
    sig = MultichannelSignal(RNG.standard_normal((2, 500)), 16000)
    re, im, log_mag = (part.data for part in fe.analyse(sig))
    t_expect = (500 - 16) // 160 + 1  # 10 ms hop at 16 kHz
    assert re.shape == im.shape == log_mag.shape == (t_expect, 2, 3)
    real_ir = fe.params["real_ir"].data
    imag_ir = real_ir @ hilbert_basis(16).T
    for c in range(2):
        for t in range(t_expect):
            seg = sig.samples[c, t * 160 : t * 160 + 16]
            for f in range(3):
                want = np.dot(seg, real_ir[f]) + 1j * np.dot(seg, imag_ir[f])
                assert np.isclose(re[t, c, f] + 1j * im[t, c, f], want,
                                  atol=1e-12)
                assert np.isclose(log_mag[t, c, f], np.log(abs(want) + 1e-8),
                                  atol=1e-12)


@pytest.mark.parametrize("rate", [16000, 8000])
def test_analytic_frame_grid_matches_stft(rate):
    # With a kernel as long as the STFT window, the bank and the STFT frame
    # a signal alike at any rate: one frame per 10 ms.
    fe = AnalyticSaccFrontend(sample_rate=rate, n_filters=4,
                              kernel_len=CFG.win_samples(rate), seed=1)
    sig = make_signal(c=2, rate=rate)
    out = fe.analyse(sig)[0]
    spec = stft(sig)
    assert out.shape[0] == spec.n_frames == 198


def test_analytic_init_bounds_and_determinism():
    def real_ir(seed):
        fe = AnalyticSaccFrontend(n_filters=8, kernel_len=64, seed=seed)
        return fe.params["real_ir"].data

    a, b, c = real_ir(3), real_ir(3), real_ir(4)
    bound = 1.0 / 8.0
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) <= bound


def test_analytic_apply_rate_mismatch():
    fe = AnalyticSaccFrontend(n_filters=2, kernel_len=16)
    sig = MultichannelSignal(np.zeros((1, 64)), 8000)
    with pytest.raises(ArgumentError):
        fe.analyse(sig)
