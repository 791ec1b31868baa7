"""Synthetic circular-array scenes with exact ground truth.

Far-field anechoic model: each source is a mono waveform delayed per
microphone by the plane-wave geometry and summed; there is no gain
difference across channels, so per-channel RMS is flat by construction.
Fractional delays are applied as a phase ramp on the zero-padded FFT of the
whole track. The padding exceeds the largest delay, so the circular shift
moves only zeros back to the front and no block boundary exists anywhere.

Sources are synthetic: band-limited modulated noise, or AR(2)-filtered
noise with a single speech-like resonance. The AR(2) recursion runs as a
plain loop in the operation order of scipy's direct-form-II-transposed
``lfilter``, so it renders the same bits without importing scipy. Noise is
none, spatially white, or a diffuse-field approximation (36 independent
plane waves from uniform azimuths). Noise level is set exactly against the
clean source sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamform import ArrayGeometry, plane_wave_delays
from .errors import ArgumentError, Seed, check_size, from_config
from .segeval import FrameLabels, Segment, SegmentSet, labels_from_segments
from .signal_io import MultichannelSignal
from .spectral import FRAME_RATE

SOURCE_TAGS = ("bandnoise", "ar2")
NOISE_KINDS = ("none", "white", "diffuse-approx")
RAMP_S = 0.005
_DIFFUSE_WAVES = 36
_PAD = 2048


@dataclass(frozen=True)
class SourceSpec:
    """One far-field source: where, when, what and how loud."""

    azimuth: float
    onset: float
    duration: float
    tag: str = "bandnoise"
    level_db: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.azimuth < 2.0 * math.pi):
            raise ArgumentError(f"azimuth must lie in [0, 2*pi), got {self.azimuth}")
        if self.onset < 0:
            raise ArgumentError("source onset must be >= 0")
        if self.duration <= 0:
            raise ArgumentError("source duration must be positive")
        if self.tag not in SOURCE_TAGS:
            raise ArgumentError(f"unknown source tag {self.tag!r}, know {SOURCE_TAGS}")
        if not np.isfinite(self.level_db):
            raise ArgumentError("source level must be finite")


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic scene; rendering is pure given this."""

    geometry: ArrayGeometry
    duration_s: float
    sources: tuple[SourceSpec, ...] = ()
    noise: str = "none"
    snr_db: float = 20.0
    sample_rate: int = 16000
    seed: Seed = 0

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ArgumentError("scene duration must be positive and finite")
        if self.noise not in NOISE_KINDS:
            raise ArgumentError(f"unknown noise kind {self.noise!r}, know {NOISE_KINDS}")
        if self.noise != "none" and not np.isfinite(self.snr_db):
            raise ArgumentError("snr_db must be finite when noise is enabled")
        if self.sample_rate <= 0:
            raise ArgumentError("sample_rate must be positive")
        check_size(self.geometry.n_mics * self.n_samples,
                   "the scene (microphones x samples)")
        sources = tuple(self.sources)
        for src in sources:
            if src.onset >= self.duration_s:
                raise ArgumentError(
                    f"source onset {src.onset} s lies past the scene end "
                    f"({self.duration_s} s)"
                )
        object.__setattr__(self, "sources", sources)

    @property
    def n_samples(self):
        return int(round(self.duration_s * self.sample_rate))

    @classmethod
    def from_dict(cls, d):
        """The spec of a config dict; ``dataclasses.asdict`` is the inverse."""
        return from_config(cls, d)


# -- source waveforms ---------------------------------------------------------


def _unit_rms(x):
    rms = np.sqrt((x ** 2).mean())
    return x / rms if rms > 0 else x


def _bandnoise(rng, n, rate):
    """White noise band-limited to 200-3800 Hz with a slow random
    amplitude modulation, loosely energy-fluctuating like speech."""
    spec = np.fft.rfft(rng.normal(size=n))
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spec[(freqs < 200.0) | (freqs > 3800.0)] = 0.0
    x = np.fft.irfft(spec, n)
    mod_hz = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / rate
    env = 1.0 + 0.6 * np.sin(2.0 * np.pi * mod_hz * t + phase)
    return _unit_rms(x * env)


def _ar2(rng, n, rate):
    """AR(2) resonance: a pole pair near the unit circle at a random
    formant-like frequency, driven by white noise."""
    f0 = rng.uniform(300.0, 800.0)
    rho = 0.97
    theta = 2.0 * np.pi * f0 / rate
    a1, a2 = float(2.0 * rho * np.cos(theta)), -rho * rho
    # y[n] = x[n] + (a2 y[n-2] + a1 y[n-1]), summed in this order, is
    # lfilter([1], [1, -a1, -a2], x) bit for bit; the list is overwritten
    # in place, which is faster than appending to a new one.
    y = rng.normal(size=n).tolist()
    y1 = y2 = 0.0
    for i, xn in enumerate(y):
        y1, y2 = xn + (a2 * y2 + a1 * y1), y1
        y[i] = y1
    return _unit_rms(np.array(y))


_SOURCE_FNS = {"bandnoise": _bandnoise, "ar2": _ar2}


def _apply_ramps(x, rate):
    ramp_n = min(int(round(RAMP_S * rate)), x.size // 2)
    if ramp_n > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_n) / ramp_n))
        x[:ramp_n] *= ramp
        x[-ramp_n:] *= ramp[::-1]
    return x


def _delay_multichannel(track, delays, rate):
    """All per-channel delayed copies of one track, shape (C, len(track)).

    One forward FFT serves every channel; the phase ramps differ. The pad
    length bounds the delay: content can only move into the padding, never
    wrap around, so the result is free of boundary artifacts.
    """
    delays = np.asarray(delays, dtype=np.float64)
    if (delays < 0).any():
        raise ArgumentError("delays must be nonnegative")
    if (delays * rate).max() > _PAD:
        raise ArgumentError("delay exceeds the supported maximum")
    n = track.size
    padded = n + _PAD
    spec = np.fft.rfft(track, padded)
    freqs = np.fft.rfftfreq(padded, d=1.0 / rate)
    ramps = np.exp(-2j * np.pi * freqs[None, :] * delays[:, None])
    return np.fft.irfft(spec[None, :] * ramps, padded, axis=1)[:, :n]


# -- scene rendering ----------------------------------------------------------


def _render_source(spec: SceneSpec, index, clean):
    src = spec.sources[index]
    rate = spec.sample_rate
    n = clean.shape[1]
    rng = np.random.default_rng((spec.seed, 1, index))
    start = int(round(src.onset * rate))
    length = min(int(round(src.duration * rate)), n - start)
    if length <= 0:
        return
    wave = _SOURCE_FNS[src.tag](rng, length, rate)
    wave = _apply_ramps(wave, rate) * (10.0 ** (src.level_db / 20.0))
    track = np.zeros(n)
    track[start:start + length] = wave
    delays = plane_wave_delays(spec.geometry, src.azimuth)
    clean += _delay_multichannel(track, delays, rate)


def _render_noise(spec: SceneSpec, shape):
    rng = np.random.default_rng((spec.seed, 2))
    if spec.noise == "white":
        return rng.normal(size=shape)
    # diffuse approximation: many independent plane waves
    noise = np.zeros(shape)
    n = shape[1]
    for w in range(_DIFFUSE_WAVES):
        azimuth = 2.0 * np.pi * w / _DIFFUSE_WAVES
        track = rng.normal(size=n)
        delays = plane_wave_delays(spec.geometry, azimuth)
        noise += _delay_multichannel(track, delays, spec.sample_rate)
    return noise


def synth_scene(spec: SceneSpec):
    """Render a scene to (MultichannelSignal, SegmentSet ground truth).

    Deterministic per spec.seed. Noise is scaled so the realized SNR against
    the clean source sum matches spec.snr_db exactly; with no sources the
    noise is left at unit RMS. The mixture is rescaled only if it would
    clip, which moves absolute level but neither SNR nor ground truth.
    """
    rate = spec.sample_rate
    n = spec.n_samples
    n_ch = spec.geometry.n_mics
    clean = np.zeros((n_ch, n))
    for index in range(len(spec.sources)):
        _render_source(spec, index, clean)
    mixture = clean
    if spec.noise != "none":
        noise = _render_noise(spec, (n_ch, n))
        p_clean = (clean ** 2).mean()
        p_noise = (noise ** 2).mean()
        if p_clean > 0 and p_noise > 0:
            noise *= np.sqrt(p_clean / (p_noise * 10.0 ** (spec.snr_db / 10.0)))
        elif p_noise > 0:
            noise /= np.sqrt(p_noise)
        mixture = clean + noise
    peak = np.abs(mixture).max()
    if peak > 0.99:
        mixture = mixture * (0.99 / peak)
    return MultichannelSignal(mixture, rate), _scene_segments(spec)


def _scene_segments(spec: SceneSpec) -> SegmentSet:
    """Ground truth of a scene: one segment per source, cut at the scene end."""
    return SegmentSet(tuple(
        Segment(file_id="scene", onset=src.onset,
                duration=min(src.duration, spec.duration_s - src.onset),
                speaker=f"src{index}")
        for index, src in enumerate(spec.sources)
    ))


# -- toy dataset --------------------------------------------------------------


@dataclass(frozen=True)
class ToySegment:
    """One training example: audio, ground-truth segments, frame labels."""

    signal: MultichannelSignal
    segments: SegmentSet
    labels: FrameLabels
    scene: SceneSpec


CLASS_PRIOR = (0.3, 0.4, 0.3)  # silence, one speaker, overlap


def _scene_seed(master_seed, index):
    return int(np.random.SeedSequence((int(master_seed), int(index))).generate_state(1)[0])


def _toy_scene(template: SceneSpec, master_seed, index):
    """Randomized 3-block schedule: silence, single talker, both talkers.

    Block lengths jitter around the class prior and land on the 10 ms label
    grid; block order is shuffled. Two sources realize the schedule, so the
    frame classes are exactly 0/1/2 on the three blocks.
    """
    rng = np.random.default_rng((int(master_seed), 3, int(index)))
    total = template.duration_s
    grid = 1.0 / FRAME_RATE
    jitter = rng.uniform(0.6, 1.4, size=3)
    fracs = np.asarray(CLASS_PRIOR) * jitter
    fracs /= fracs.sum()
    d0 = round(fracs[0] * total / grid) * grid
    d1 = round(fracs[1] * total / grid) * grid
    durations = [d0, d1, max(total - d0 - d1, 0.0)]
    order = rng.permutation(3)
    azimuths = rng.uniform(0.0, 2.0 * np.pi, size=2)
    single_source = int(rng.integers(0, 2))
    spans = [[], []]  # per source: list of (onset, duration)
    cursor = 0.0
    for block in order:
        dur = durations[block]
        if dur > grid / 2:
            if block == 1:
                spans[single_source].append((cursor, dur))
            elif block == 2:
                spans[0].append((cursor, dur))
                spans[1].append((cursor, dur))
        cursor += dur
    sources = []
    for s in range(2):
        tag = SOURCE_TAGS[int(rng.integers(0, len(SOURCE_TAGS)))]
        for onset, dur in spans[s]:
            onset = min(onset, total - grid)
            sources.append(SourceSpec(azimuth=float(azimuths[s]), onset=onset,
                                      duration=dur, tag=tag))
    return SceneSpec(
        geometry=template.geometry,
        duration_s=total,
        sources=tuple(sources),
        noise=template.noise,
        snr_db=template.snr_db,
        sample_rate=template.sample_rate,
        seed=_scene_seed(master_seed, index),
    )


def toy_dataset(template: SceneSpec, n_segments, seed):
    """Yield rendered ToySegment items, i.i.d. given (template, seed).

    Per-item seeds are hashed from (seed, index), so any slice of the stream
    is reproducible on its own. Each item's schedule comes from
    ``_toy_scene`` and its ground truth from ``_scene_segments``.
    """
    if n_segments < 1:
        raise ArgumentError("n_segments must be >= 1")
    for index in range(n_segments):
        scene = _toy_scene(template, seed, index)
        signal, segments = synth_scene(scene)
        labels = labels_from_segments(segments, scene.duration_s)
        yield ToySegment(signal=signal, segments=segments, labels=labels, scene=scene)
