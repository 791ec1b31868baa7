"""Synthetic circular-array scenes with exact ground truth.

Far-field anechoic model: each source is a mono waveform delayed per
microphone by the plane-wave geometry and summed; there is no gain
difference across channels, so per-channel RMS is flat by construction.
Fractional delays are applied as a phase ramp on the zero-padded FFT of the
whole track. The padding exceeds the largest delay, so the circular shift
moves only zeros back to the front and no block boundary exists anywhere.

Sources are synthetic: band-limited modulated noise, or AR(2)-filtered
noise with a single speech-like resonance. Noise is none, spatially white,
or a diffuse-field approximation (36 independent plane waves from uniform
azimuths). Noise level is set exactly against the clean source sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .beamform import ArrayGeometry, plane_wave_delays
from .errors import ArgumentError
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

    def to_dict(self):
        return {"azimuth": self.azimuth, "onset": self.onset,
                "duration": self.duration, "tag": self.tag,
                "level_db": self.level_db}

    @classmethod
    def from_dict(cls, d):
        return cls(azimuth=float(d["azimuth"]), onset=float(d["onset"]),
                   duration=float(d["duration"]), tag=d.get("tag", "bandnoise"),
                   level_db=float(d.get("level_db", 0.0)))


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic scene; rendering is pure given this."""

    geometry: ArrayGeometry
    duration_s: float
    sources: tuple = field(default_factory=tuple)
    noise: str = "none"
    snr_db: float = 20.0
    sample_rate: int = 16000
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ArgumentError("scene duration must be positive")
        if self.noise not in NOISE_KINDS:
            raise ArgumentError(f"unknown noise kind {self.noise!r}, know {NOISE_KINDS}")
        if self.noise != "none" and not np.isfinite(self.snr_db):
            raise ArgumentError("snr_db must be finite when noise is enabled")
        if self.sample_rate <= 0:
            raise ArgumentError("sample_rate must be positive")
        sources = tuple(self.sources)
        for src in sources:
            if src.onset >= self.duration_s:
                raise ArgumentError(
                    f"source onset {src.onset} s lies past the scene end "
                    f"({self.duration_s} s)"
                )
        object.__setattr__(self, "sources", sources)

    def to_dict(self):
        return {
            "geometry": self.geometry.to_dict(),
            "duration_s": self.duration_s,
            "sources": [s.to_dict() for s in self.sources],
            "noise": self.noise,
            "snr_db": self.snr_db,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            geometry=ArrayGeometry.from_dict(d["geometry"]),
            duration_s=float(d["duration_s"]),
            sources=tuple(SourceSpec.from_dict(s) for s in d.get("sources", ())),
            noise=d.get("noise", "none"),
            snr_db=float(d.get("snr_db", 20.0)),
            sample_rate=int(d.get("sample_rate", 16000)),
            seed=int(d.get("seed", 0)),
        )


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
    a1, a2 = 2.0 * rho * np.cos(theta), -rho * rho
    x = lfilter([1.0], [1.0, -a1, -a2], rng.normal(size=n))
    return _unit_rms(x)


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
    n = int(round(spec.duration_s * rate))
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


def toy_dataset(template: SceneSpec, n_segments, seed, render_audio=True):
    """Yield ToySegment items, i.i.d. given (template, seed).

    Per-item seeds are hashed from (seed, index), so any slice of the stream
    is reproducible on its own. With render_audio=False the signal field is
    None; schedule statistics remain identical, which keeps label histogram
    checks cheap.
    """
    if n_segments < 1:
        raise ArgumentError("n_segments must be >= 1")
    for index in range(n_segments):
        scene = _toy_scene(template, seed, index)
        if render_audio:
            signal, segments = synth_scene(scene)
        else:
            signal, segments = None, _scene_segments(scene)
        labels = labels_from_segments(segments, scene.duration_s)
        yield ToySegment(signal=signal, segments=segments, labels=labels, scene=scene)
