"""Scene synthesis tests: geometry oracles, exact SNR, schedule labeling."""

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.signal import correlate, lfilter

from arrayvad.arraysim import (
    CLASS_PRIOR,
    SceneSpec,
    SourceSpec,
    ToySegment,
    _ar2,
    _delay_multichannel,
    _scene_segments,
    _toy_scene,
    _unit_rms,
    synth_scene,
    toy_dataset,
)
from arrayvad.beamform import ArrayGeometry, plane_wave_delays
from arrayvad.errors import MAX_ELEMENTS, ArgumentError
from arrayvad.segeval import labels_from_segments

RATE = 16000


def make_geom(n_mics=8, radius=0.1):
    return ArrayGeometry.uniform_circular(n_mics, radius)


def base_scene(**kw):
    defaults = dict(
        geometry=make_geom(),
        duration_s=2.0,
        sources=(SourceSpec(azimuth=math.radians(50.0), onset=0.2, duration=1.5,
                            level_db=-20.0),),
        noise="none",
        seed=7,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


# -- delays -------------------------------------------------------------------


def test_delays_cosine_law_against_mic_zero():
    geom = make_geom()
    theta = geom.mic_angles[0]
    tau = plane_wave_delays(geom, theta)
    assert tau[0] == pytest.approx(0.0, abs=1e-18)
    scale = geom.radius / geom.speed_of_sound
    for c in range(8):
        expected = scale * (math.cos(theta - geom.mic_angles[0])
                            - math.cos(theta - geom.mic_angles[c]))
        assert tau[c] - tau[0] == pytest.approx(expected, abs=1e-12)


def test_delays_diametric_spread():
    geom = make_geom(8, 0.1)
    tau = plane_wave_delays(geom, geom.mic_angles[0] + math.pi)
    spread = tau.max() - tau.min()
    assert spread == pytest.approx(2 * 0.1 / 343.0, abs=1e-12)
    assert spread == pytest.approx(5.83e-4, abs=1e-6)


def test_delays_rotation_invariance():
    # Turning the source by one microphone step, 2*pi/n, rolls the delays
    # by one channel.
    geom = make_geom(6, 0.07)
    base = plane_wave_delays(geom, 1.1)
    moved = plane_wave_delays(geom, 1.1 + 2 * math.pi / 6)
    assert np.allclose(np.roll(base, 1), moved, atol=1e-15)


def test_fractional_delay_integer_shift_oracle():
    rng = np.random.default_rng(3)
    # band-limit the probe so sinc interpolation at integer lags is exact
    spec = np.fft.rfft(rng.normal(size=4000))
    spec[1200:] = 0.0
    x = np.fft.irfft(spec, 4000)
    for k in (1, 7, 10):
        y = _delay_multichannel(x, [k / RATE], RATE)[0]
        assert np.allclose(y[k:], x[:-k], atol=1e-9)
        assert np.allclose(y[:k], 0.0, atol=1e-9)
    assert np.allclose(_delay_multichannel(x, [0.0], RATE)[0], x, atol=1e-12)
    with pytest.raises(ArgumentError):
        _delay_multichannel(x, [-1e-4], RATE)


# -- scene rendering ----------------------------------------------------------


def test_cross_correlation_lags_match_geometry():
    scene = base_scene()
    signal, _ = synth_scene(scene)
    tau = plane_wave_delays(scene.geometry, scene.sources[0].azimuth)
    ref = signal.samples[0]
    n = ref.size
    for c in range(1, 8):
        corr = correlate(signal.samples[c], ref, mode="full", method="fft")
        lag = int(np.argmax(corr)) - (n - 1)
        expected = (tau[c] - tau[0]) * RATE
        assert abs(lag - expected) <= 1.0


def test_per_channel_rms_is_flat():
    signal, _ = synth_scene(base_scene())
    rms_db = 10.0 * np.log10((signal.samples ** 2).mean(axis=1))
    assert rms_db.max() - rms_db.min() < 0.1


def test_zero_sources_white_noise_labels_silent():
    scene = base_scene(sources=(), noise="white", snr_db=10.0)
    signal, segs = synth_scene(scene)
    assert len(segs) == 0
    labels = labels_from_segments(segs, scene.duration_s)
    assert (labels.labels == 0).all()
    assert (signal.samples ** 2).mean() > 0


def test_overlap_schedule_gives_class_two_on_intersection():
    scene = base_scene(sources=(
        SourceSpec(azimuth=0.5, onset=0.2, duration=1.0, level_db=-20.0),
        SourceSpec(azimuth=2.5, onset=0.7, duration=1.0, level_db=-20.0),
    ))
    _, segs = synth_scene(scene)
    labels = labels_from_segments(segs, 2.0).labels
    assert (labels[:20] == 0).all()
    assert (labels[20:70] == 1).all()
    assert (labels[70:120] == 2).all()
    assert (labels[120:170] == 1).all()
    assert (labels[170:] == 0).all()


@pytest.mark.parametrize("kind", ["white", "diffuse-approx"])
def test_realized_snr_matches_spec(kind):
    clean_scene = base_scene(seed=11)
    noisy_scene = base_scene(seed=11, noise=kind, snr_db=10.0)
    clean, _ = synth_scene(clean_scene)
    noisy, _ = synth_scene(noisy_scene)
    noise_part = noisy.samples - clean.samples
    snr = 10.0 * np.log10((clean.samples ** 2).sum() / (noise_part ** 2).sum())
    assert snr == pytest.approx(10.0, abs=0.2)


def test_scene_is_deterministic_per_seed():
    a, _ = synth_scene(base_scene(seed=21))
    b, _ = synth_scene(base_scene(seed=21))
    c, _ = synth_scene(base_scene(seed=22))
    assert (a.samples == b.samples).all()
    assert not (a.samples == c.samples).all()


def test_ar2_source_renders():
    scene = base_scene(sources=(
        SourceSpec(azimuth=1.0, onset=0.1, duration=1.0, tag="ar2", level_db=-20.0),
    ))
    signal, segs = synth_scene(scene)
    seg = segs.segments[0]
    assert seg.onset == pytest.approx(0.1)
    active = signal.samples[0][2000:17000]
    quiet = signal.samples[0][:1500]
    assert (active ** 2).mean() > 100 * max((quiet ** 2).mean(), 1e-20)


def _ar2_by_lfilter(rng, n, rate):
    """The AR(2) source with scipy's all-pole filter: the oracle for the
    plain recursion in ``_ar2``."""
    f0 = rng.uniform(300.0, 800.0)
    theta = 2.0 * np.pi * f0 / rate
    a1, a2 = 2.0 * 0.97 * np.cos(theta), -0.97 * 0.97
    return _unit_rms(lfilter([1.0], [1.0, -a1, -a2], rng.normal(size=n)))


@pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000])
def test_ar2_recursion_equals_lfilter_bitwise(rate):
    lengths = np.random.default_rng(rate).integers(4, 20000, size=100)
    for seed, n in enumerate([1, 2, 3, *lengths]):
        ours = _ar2(np.random.default_rng((seed, rate)), int(n), rate)
        oracle = _ar2_by_lfilter(np.random.default_rng((seed, rate)), int(n), rate)
        assert ours.dtype == oracle.dtype and ours.shape == oracle.shape
        assert ours.tobytes() == oracle.tobytes(), (seed, n)


def test_scene_size_is_bounded():
    # microphones x samples at the limit is accepted, one sample more is not
    rate = 1 << 10
    at_limit = base_scene(geometry=make_geom(n_mics=64), sample_rate=rate,
                          duration_s=MAX_ELEMENTS / 64 / rate)
    assert at_limit.geometry.n_mics * at_limit.n_samples == MAX_ELEMENTS
    with pytest.raises(ArgumentError, match="microphones x samples"):
        base_scene(geometry=make_geom(n_mics=64), sample_rate=rate,
                   duration_s=(MAX_ELEMENTS / 64 + 1) / rate)
    with pytest.raises(ArgumentError, match="microphones x samples"):
        base_scene(geometry=make_geom(n_mics=10 ** 9))


def test_scene_spec_validation():
    with pytest.raises(ArgumentError):
        SourceSpec(azimuth=-0.1, onset=0.0, duration=1.0)
    with pytest.raises(ArgumentError):
        SourceSpec(azimuth=7.0, onset=0.0, duration=1.0)
    with pytest.raises(ArgumentError):
        SourceSpec(azimuth=1.0, onset=0.0, duration=1.0, tag="sine")
    with pytest.raises(ArgumentError):
        base_scene(noise="pink")
    with pytest.raises(ArgumentError):
        base_scene(noise="white", snr_db=float("inf"))
    with pytest.raises(ArgumentError):
        base_scene(sources=(SourceSpec(azimuth=0.1, onset=3.0, duration=0.5),))
    for duration in (0.0, float("nan"), float("inf")):
        with pytest.raises(ArgumentError):
            base_scene(duration_s=duration)


def test_scene_spec_json_roundtrip():
    scene = base_scene(noise="diffuse-approx", snr_db=5.0)
    blob = json.dumps(asdict(scene))
    again = SceneSpec.from_dict(json.loads(blob))
    assert again == scene


def test_scene_spec_from_dict_takes_field_defaults_and_names_unknown_keys():
    geom = ArrayGeometry(4, 0.05)
    spec = SceneSpec.from_dict({
        "geometry": {"n_mics": 4, "radius": 0.05}, "duration_s": 1,
        "sources": [{"azimuth": 1, "onset": 0, "duration": 1}]})
    assert spec == SceneSpec(geometry=geom, duration_s=1.0, sources=(
        SourceSpec(azimuth=1.0, onset=0.0, duration=1.0),))
    assert type(spec.duration_s) is float
    assert type(spec.sources[0].azimuth) is float
    bad = {"geometry": {"n_mics": 4, "radius": 0.05}, "duration_s": 1.0}
    for where, extra in (("SceneSpec", {"snr": 5.0}),
                         ("ArrayGeometry", {"geometry": {
                             "n_mics": 4, "radius": 0.05, "speed": 340.0}}),
                         ("SourceSpec", {"sources": [{
                             "azimuth": 1.0, "onset": 0.0, "duration": 1.0,
                             "gain": 2.0}]})):
        with pytest.raises(ArgumentError, match=f"unknown {where} keys"):
            SceneSpec.from_dict({**bad, **extra})


# -- toy dataset --------------------------------------------------------------


def test_toy_stream_is_reproducible():
    template = base_scene(sources=(), noise="white", snr_db=15.0)
    first = list(toy_dataset(template, 3, seed=5))
    second = list(toy_dataset(template, 3, seed=5))
    other = list(toy_dataset(template, 3, seed=6))
    for a, b in zip(first, second):
        assert (a.labels.labels == b.labels.labels).all()
        assert (a.signal.samples == b.signal.samples).all()
    assert any(not (a.labels.labels == c.labels.labels).all()
               for a, c in zip(first, other))


def test_toy_slice_reproducible_alone():
    # Item seeds hash (seed, index), so item 5 of any stream is the scene
    # _toy_scene builds for index 5 on its own.
    template = base_scene(sources=(), noise="white", snr_db=15.0)
    stream = toy_dataset(template, 10, seed=9)
    sixth = next(itertools.islice(stream, 5, 6))
    assert sixth.scene == _toy_scene(template, 9, 5)
    assert sixth.segments == _scene_segments(sixth.scene)


def test_toy_class_histogram_near_prior():
    template = base_scene(sources=(), noise="white", snr_db=15.0)
    counts = np.zeros(3)
    for index in range(1000):
        scene = _toy_scene(template, 13, index)
        labels = labels_from_segments(_scene_segments(scene), scene.duration_s)
        counts += np.bincount(labels.labels, minlength=3)
    fractions = counts / counts.sum()
    for got, want in zip(fractions, CLASS_PRIOR):
        assert abs(got - want) <= 0.05


def test_toy_labels_match_own_segments():
    # The three schedule blocks land on the 10 ms grid, so the segments of
    # a toy scene label it as at most three runs, one per class.
    template = base_scene(sources=(), noise="white", snr_db=15.0)
    for index in range(5):
        scene = _toy_scene(template, 17, index)
        labels = labels_from_segments(_scene_segments(scene), scene.duration_s)
        runs = [k for k, _ in itertools.groupby(labels.labels)]
        assert len(labels) == 200
        assert len(runs) == len(set(runs)) <= 3


def test_toy_rendered_items_have_audio():
    template = base_scene(sources=(), noise="white", snr_db=15.0)
    items = list(toy_dataset(template, 2, seed=19))
    for item in items:
        assert isinstance(item, ToySegment)
        assert item.signal.n_channels == 8
        assert item.signal.n_samples == 32000
        assert len(item.labels) == 200
        assert np.isfinite(item.signal.samples).all()
    with pytest.raises(ArgumentError):
        list(toy_dataset(base_scene(), 0, seed=1))
