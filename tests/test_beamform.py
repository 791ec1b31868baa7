"""Beamforming, masking and localization tests.

Synthetic scenes are built directly in the STFT domain with phase ramps, so
ground truth (source direction, per-channel SNR) is known exactly.
"""

import math

import numpy as np
import pytest

from arrayvad.beamform import (
    ArrayGeometry,
    MvdrResult,
    aliasing_limit_hz,
    cdr_from_coherence,
    cdr_mask,
    diffuse_coherence,
    mvdr,
    mvdr_filters,
    narrowband_beampattern,
    plane_wave_delays,
    srp_phat,
    steering_weights,
    time_avg_beampattern,
)
from arrayvad.errors import AliasingError, ArgumentError
from arrayvad.spectral import ComplexSpectrogram

RATE = 16000


def make_geom(n_mics=8, radius=0.1):
    return ArrayGeometry.uniform_circular(n_mics, radius)


def plane_wave_spec(geom, azimuth, rng, n_frames=40, n_bins=129, rate=RATE,
                    active=None):
    """Multichannel STFT of a far-field plane wave with random spectrum.

    active: optional boolean (K,) selector; inactive bins are zero.
    """
    freqs = np.linspace(0.0, rate / 2.0, n_bins)
    tau = plane_wave_delays(geom, azimuth)
    s = rng.normal(size=(n_frames, n_bins)) + 1j * rng.normal(size=(n_frames, n_bins))
    if active is not None:
        s = s * active[None, :]
    ramps = np.exp(-2j * np.pi * freqs[None, None, :] * tau[:, None, None])
    return s[None, :, :] * ramps


def as_spec(values, rate=RATE):
    return ComplexSpectrogram(values=values, sample_rate=rate)


# -- geometry -----------------------------------------------------------------


def test_uca_positions_on_circle():
    geom = make_geom(6, 0.05)
    pos = geom.positions
    assert pos.shape == (6, 3)
    assert np.allclose(np.linalg.norm(pos, axis=1), 0.05)
    assert np.allclose(pos[:, 2], 0.0)
    assert np.allclose(np.arctan2(pos[1, 1], pos[1, 0]), 2 * np.pi / 6)


def test_geometry_dict_roundtrip():
    geom = make_geom()
    again = ArrayGeometry.from_dict(geom.to_dict())
    assert again == geom


def test_geometry_validation():
    with pytest.raises(ArgumentError):
        ArrayGeometry(n_mics=1, radius=0.0)
    with pytest.raises(ArgumentError):
        ArrayGeometry(n_mics=2.5, radius=0.1)
    with pytest.raises(ArgumentError):
        ArrayGeometry.uniform_circular(0, 0.1)


def test_plane_wave_delays_offset_and_span():
    geom = make_geom()
    tau = plane_wave_delays(geom, 0.0)
    assert tau.min() == 0.0
    # the wavefront crosses the aperture in at most one diameter of travel
    assert tau.max() <= 2 * geom.radius / geom.speed_of_sound + 1e-15
    # microphone 0 faces azimuth 0, so it is hit first
    assert tau[0] == pytest.approx(0.0, abs=1e-18)


def test_aliasing_limit_matches_direct_evaluation():
    geom = make_geom(8, 0.1)
    expected = 8 * 343.0 / (4.0 * math.pi * 0.1)
    assert aliasing_limit_hz(geom) == pytest.approx(expected, abs=1e-9)
    assert 2183.3 < aliasing_limit_hz(geom) < 2183.7


# -- narrowband patterns ------------------------------------------------------


def test_delay_and_sum_steering_unit_response():
    geom = make_geom()
    rng = np.random.default_rng(7)
    grid = np.deg2rad(np.arange(360.0))
    for _ in range(8):
        theta0_deg = int(rng.integers(0, 360))
        theta0 = math.radians(theta0_deg)
        freq = float(rng.uniform(200.0, aliasing_limit_hz(geom) - 1.0))
        w = steering_weights(geom, theta0, freq)
        pattern = narrowband_beampattern(w, geom, freq, grid)
        assert abs(pattern[theta0_deg]) == pytest.approx(1.0, abs=1e-9)
        assert int(np.argmax(np.abs(pattern))) == theta0_deg


def test_single_sensor_is_omnidirectional():
    geom = make_geom()
    w = np.zeros(8, dtype=complex)
    w[0] = 1.0
    pattern = narrowband_beampattern(w, geom, 1000.0, np.linspace(0, 2 * np.pi, 91))
    assert np.allclose(np.abs(pattern), 1.0, atol=1e-12)


def test_uniform_weights_low_frequency_limit():
    geom = make_geom()
    w = np.full(8, 1.0 / 8.0, dtype=complex)
    pattern = narrowband_beampattern(w, geom, 1e-4, np.linspace(0, 2 * np.pi, 45))
    assert np.allclose(pattern, 1.0, atol=1e-9)


def test_beampattern_linearity():
    geom = make_geom()
    rng = np.random.default_rng(3)
    grid = np.linspace(0, 2 * np.pi, 73)
    w1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    w2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = narrowband_beampattern(a * w1 + b * w2, geom, 900.0, grid)
    rhs = (a * narrowband_beampattern(w1, geom, 900.0, grid)
           + b * narrowband_beampattern(w2, geom, 900.0, grid))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_rotational_symmetry_by_mic_increment():
    # rolling the weights by one microphone while shifting the grid by the
    # microphone angle increment leaves the magnitude response unchanged
    geom = make_geom()
    rng = np.random.default_rng(11)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    inc = 2 * np.pi / 8
    grid = np.linspace(0, 2 * np.pi, 53)
    base = narrowband_beampattern(w, geom, 1200.0, grid)
    rolled = narrowband_beampattern(np.roll(w, 1), geom, 1200.0, grid + inc)
    assert np.allclose(np.abs(rolled), np.abs(base), atol=1e-9)


def test_aliasing_rejection():
    geom = make_geom()
    limit = aliasing_limit_hz(geom)
    grid = np.array([0.0, 1.0])
    w = np.full(8, 1.0 / 8.0, dtype=complex)
    with pytest.raises(AliasingError):
        narrowband_beampattern(w, geom, limit, grid)
    with pytest.raises(AliasingError):
        narrowband_beampattern(w, geom, limit + 500.0, grid)
    with pytest.raises(ArgumentError):
        narrowband_beampattern(w, geom, 0.0, grid)
    with pytest.raises(ArgumentError):
        narrowband_beampattern(w[:5], geom, 500.0, grid)


# -- broadband and time-averaged patterns -------------------------------------


def test_broadband_delay_and_sum_ridge():
    geom = make_geom()
    theta0_deg = 250
    thetas = np.deg2rad(np.arange(360.0))
    # steering phases depend on frequency; use per-frequency matched weights
    for freq in (500.0, 1000.0, 1500.0, 2000.0):
        w = steering_weights(geom, math.radians(theta0_deg), freq)
        response = narrowband_beampattern(w, geom, freq, thetas)
        assert int(np.argmax(np.abs(response))) == theta0_deg


def test_time_avg_constant_weights_equal_narrowband():
    geom = make_geom()
    rng = np.random.default_rng(13)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    stacked = np.repeat(w[:, None], 5, axis=1)
    grid = np.linspace(0, 2 * np.pi, 37)
    avg = time_avg_beampattern(stacked, geom, 600.0, grid)
    assert np.allclose(avg, narrowband_beampattern(w, geom, 600.0, grid), atol=1e-12)


def test_time_avg_alternating_weights_cancel():
    geom = make_geom()
    rng = np.random.default_rng(17)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    stacked = np.stack([w, -w, w, -w], axis=1)
    avg = time_avg_beampattern(stacked, geom, 600.0, np.linspace(0, 2 * np.pi, 19))
    assert np.allclose(avg, 0.0, atol=1e-12)


# -- CDR masking --------------------------------------------------------------


def test_cdr_estimator_hand_values():
    # zero diffuse coherence, real observed coherence 0.5:
    # (0 - 0.25 - 0.5) / (0.25 - 1) = 1.0
    assert cdr_from_coherence(np.array(0.5 + 0j), 0.0) == pytest.approx(1.0)
    # full diffuse coherence but uncorrelated observation:
    # (0 - 0 - 1) / (0 - 1) = 1.0
    assert cdr_from_coherence(np.array(0.0 + 0j), 1.0) == pytest.approx(1.0)
    # observation matching the diffuse model exactly gives zero
    assert cdr_from_coherence(np.array(0.6 + 0j), 0.6) == pytest.approx(0.0)
    # fully coherent observation saturates
    coherent = np.exp(0.3j)
    assert cdr_from_coherence(coherent, 0.4) > 1e6
    # near-diffuse observation: num = 0.855 - 0.81 - sqrt(0.0025), den = -0.19
    assert cdr_from_coherence(np.array(0.9 + 0j), 0.95) == pytest.approx(0.005 / 0.19)


def test_diffuse_coherence_is_sinc():
    freqs = np.array([0.0, 500.0, 857.5])
    out = diffuse_coherence(freqs, 0.2, 343.0)
    assert out[0] == pytest.approx(1.0)
    # np.sinc is the normalized form sin(pi x)/(pi x)
    x = 2 * 500.0 * 0.2 / 343.0
    assert out[1] == pytest.approx(np.sin(np.pi * x) / (np.pi * x))
    assert abs(out[2]) < 1e-12  # first zero at v / (2 d)


def test_cdr_mask_coherent_plane_wave():
    geom = make_geom()
    rng = np.random.default_rng(23)
    spec = as_spec(plane_wave_spec(geom, math.radians(70.0), rng, n_frames=60))
    mask = cdr_mask(spec, geom)
    assert mask.shape == (60, 129)
    # every oscillating bin reads as fully coherent; the zero-frequency bin
    # cannot be distinguished from diffuse noise and is excluded
    assert mask[:, 1:].min() >= 0.99
    assert mask.max() <= 1.0


def test_cdr_mask_white_noise_mean():
    geom = make_geom()
    means = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(8, 1000, 257)) + 1j * rng.normal(size=(8, 1000, 257))
        mask = cdr_mask(as_spec(values), geom)
        means.append(mask.mean())
    assert np.mean(means) <= 0.2


def test_cdr_mask_single_frame_defined():
    geom = make_geom()
    rng = np.random.default_rng(31)
    values = rng.normal(size=(8, 1, 65)) + 1j * rng.normal(size=(8, 1, 65))
    mask = cdr_mask(as_spec(values), geom)
    assert mask.shape == (1, 65)
    assert np.isfinite(mask).all()
    assert ((mask >= 0) & (mask <= 1)).all()


def test_cdr_mask_argument_errors():
    geom = make_geom()
    rng = np.random.default_rng(37)
    values = rng.normal(size=(8, 4, 33)) + 1j * rng.normal(size=(8, 4, 33))
    spec = as_spec(values)
    with pytest.raises(ArgumentError):
        cdr_mask(spec, make_geom(n_mics=4))
    single = as_spec(values[:1])
    with pytest.raises(ArgumentError):
        cdr_mask(single, ArrayGeometry.uniform_circular(1, 0.1))


# -- MVDR ---------------------------------------------------------------------


def test_mvdr_filters_identity_noise_is_uniform():
    n_ch = 6
    phi_n = np.repeat(np.eye(n_ch, dtype=complex)[None], 3, axis=0)
    steering = np.ones((3, n_ch), dtype=complex)
    h = mvdr_filters(phi_n, steering)
    assert np.allclose(h, 1.0 / n_ch, atol=1e-12)


def test_mvdr_distortionless_and_snr_gain():
    geom = make_geom()
    rng = np.random.default_rng(41)
    sig = plane_wave_spec(geom, math.radians(120.0), rng, n_frames=120, n_bins=129)
    noise = rng.normal(size=sig.shape) + 1j * rng.normal(size=sig.shape)
    noise *= np.sqrt((np.abs(sig) ** 2).mean() / (np.abs(noise) ** 2).mean())
    spec = as_spec(sig + noise)
    mask = cdr_mask(spec, geom)
    result = mvdr(spec, mask)
    assert isinstance(result, MvdrResult)
    assert result.values.shape == (120, 129)

    constraint = np.einsum("kc,kc->k", np.conj(result.filters), result.steering)
    assert np.allclose(constraint, 1.0, atol=1e-6)

    out_sig = np.einsum("kc,ctk->tk", np.conj(result.filters), sig)
    out_noise = np.einsum("kc,ctk->tk", np.conj(result.filters), noise)
    snr_out = (np.abs(out_sig) ** 2).sum() / (np.abs(out_noise) ** 2).sum()
    per_ch = (np.abs(sig) ** 2).sum(axis=(1, 2)) / (np.abs(noise) ** 2).sum(axis=(1, 2))
    assert snr_out > per_ch.max()


def test_mvdr_argument_errors():
    geom = make_geom()
    rng = np.random.default_rng(43)
    values = rng.normal(size=(8, 5, 33)) + 1j * rng.normal(size=(8, 5, 33))
    spec = as_spec(values)
    with pytest.raises(ArgumentError):
        mvdr(spec, np.ones((4, 33)))
    single = as_spec(values[:1])
    with pytest.raises(ArgumentError):
        mvdr(single, np.ones((5, 33)))


# -- SRP-PHAT -----------------------------------------------------------------


def test_srp_localizes_plane_wave():
    geom = make_geom()
    rng = np.random.default_rng(47)
    spec = as_spec(plane_wave_spec(geom, math.radians(40.0), rng,
                                   n_frames=30, n_bins=257))
    out = srp_phat(spec, geom)
    assert out.power.shape == (360,)
    assert (out.power >= 0).all()
    assert out.peak_index == int(np.argmax(out.power))
    peak_deg = np.rad2deg(out.azimuths[out.peak_index])
    err = abs((peak_deg - 40.0 + 180.0) % 360.0 - 180.0)
    assert err <= 1.0


def test_srp_two_sources_two_maxima():
    # the talkers alternate in time, and a 16-microphone ring keeps the map
    # sharp enough that neither peak is dragged by the other's backlobe
    geom = make_geom(n_mics=16)
    rng = np.random.default_rng(53)
    a = plane_wave_spec(geom, math.radians(40.0), rng, n_frames=80, n_bins=257)
    b = plane_wave_spec(geom, math.radians(220.0), rng, n_frames=80, n_bins=257)
    out = srp_phat(as_spec(np.concatenate([a, b], axis=1)), geom)
    first = out.peak_index
    shield = np.minimum(np.abs(np.arange(360) - first), 360 - np.abs(np.arange(360) - first))
    second = int(np.argmax(np.where(shield > 10, out.power, -np.inf)))
    found = sorted([first, second])
    for target, got in zip([40, 220], found):
        err = abs((got - target + 180) % 360 - 180)
        assert err <= 1.0


def test_srp_white_noise_is_flat():
    geom = make_geom()
    maps = []
    for seed in (61, 67, 71):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(8, 40, 257)) + 1j * rng.normal(size=(8, 40, 257))
        maps.append(srp_phat(as_spec(values), geom).power)
    avg = np.mean(maps, axis=0)
    assert avg.max() <= 2.0 * np.median(avg)


def test_srp_band_and_channel_errors():
    geom = make_geom()
    rng = np.random.default_rng(73)
    values = rng.normal(size=(8, 10, 257)) + 1j * rng.normal(size=(8, 10, 257))
    spec = as_spec(values)
    with pytest.raises(ArgumentError):
        srp_phat(spec, geom, band=(7000.0, 6000.0))
    with pytest.raises(ArgumentError):
        srp_phat(spec, make_geom(n_mics=4))
    out = srp_phat(spec, geom, n_angles=72)
    assert out.power.shape == (72,)
