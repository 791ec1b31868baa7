"""Array geometry, beampatterns and fixed/adaptive beamforming baselines.

Conventions: a uniform circular array of C microphones lies in the z=0
plane, microphone c at angle psi_c = 2*pi*c / C from the x axis. Far-field
sources are described by azimuth theta. A plane wave from theta reaches
microphone c advanced by (r/v) * cos(theta - psi_c) relative to the array
center, so the narrowband response of weights w at frequency f is

    B(theta) = sum_c w_c * exp(j * w_bar * cos(theta - psi_c)),
    w_bar = 2 * pi * r * f / v.

Spatial aliasing for the circular layout sets in around
f_sup = C * v / (4 * pi * r); requests at or above that limit are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ArgumentError, NumericError, config_int
from .spectral import ComplexSpectrogram

DIAGONAL_LOADING = 1e-6

# Forgetting factor for the coherence recursion, about half a second at a
# 10 ms hop. The coherence magnitude of independent noise under exponential
# averaging is biased by roughly sqrt((1-a)/(1+a)); 0.98 keeps that bias
# near 0.1 so diffuse regions of the mask stay close to zero. Faster
# constants (0.6-0.7) push the white-noise mask mean above 0.4, which
# defeats the noise-covariance weighting.
FORGETTING = 0.98

_COHERENCE_FLOOR = 1e-12
_CDR_DENOM_FLOOR = 1e-10


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform circular microphone array: ``n_mics`` microphones evenly
    spaced on a circle of ``radius`` meters, microphone c at angle
    2*pi*c / n_mics radians; speed_of_sound in m/s.
    """

    n_mics: int
    radius: float
    speed_of_sound: float = 343.0

    def __post_init__(self):
        object.__setattr__(self, "n_mics", config_int(self.n_mics, "n_mics"))
        if self.n_mics < 1:
            raise ArgumentError("n_mics must be >= 1")
        if self.radius <= 0:
            raise ArgumentError("radius must be positive")
        if self.speed_of_sound <= 0:
            raise ArgumentError("speed_of_sound must be positive")

    @classmethod
    def uniform_circular(cls, n_mics, radius, speed_of_sound=343.0):
        return cls(n_mics, radius, speed_of_sound)

    @property
    def mic_angles(self):
        """Microphone angles in radians, counterclockwise from the x axis."""
        return tuple(2.0 * np.pi * c / self.n_mics for c in range(self.n_mics))

    @property
    def positions(self):
        """(C, 3) microphone coordinates in the z=0 plane."""
        a = np.asarray(self.mic_angles)
        return np.stack(
            [self.radius * np.cos(a), self.radius * np.sin(a), np.zeros_like(a)], axis=1
        )

    def to_dict(self):
        return {
            "n_mics": self.n_mics,
            "radius": self.radius,
            "speed_of_sound": self.speed_of_sound,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["n_mics"], float(d["radius"]),
                   float(d.get("speed_of_sound", 343.0)))


def aliasing_limit_hz(geom: ArrayGeometry) -> float:
    """Upper usable frequency C * v / (4 * pi * r) for the circular layout."""
    return geom.n_mics * geom.speed_of_sound / (4.0 * np.pi * geom.radius)


def plane_wave_delays(geom: ArrayGeometry, azimuth) -> np.ndarray:
    """Per-microphone delays (seconds) of a far-field plane wave, offset so
    the earliest microphone sits at delay 0."""
    angles = np.asarray(geom.mic_angles)
    tau = -(geom.radius / geom.speed_of_sound) * np.cos(azimuth - angles)
    return tau - tau.min()


def steering_weights(geom: ArrayGeometry, azimuth, freq) -> np.ndarray:
    """Delay-and-sum weights phased for a plane wave from ``azimuth``."""
    w_bar = 2.0 * np.pi * geom.radius * freq / geom.speed_of_sound
    angles = np.asarray(geom.mic_angles)
    return np.exp(-1j * w_bar * np.cos(azimuth - angles)) / geom.n_mics


def _check_freq(geom, freq):
    if freq <= 0:
        raise ArgumentError(f"frequency must be positive, got {freq}")
    limit = aliasing_limit_hz(geom)
    if freq >= limit:
        raise AliasingError(
            f"frequency {freq:.1f} Hz is at or above the aliasing limit ({limit:.1f} Hz)"
        )


def _steering_phases(geom, freq, thetas):
    """(Theta, C) plane-wave phase factors exp(j*w_bar*cos(theta - psi))."""
    w_bar = 2.0 * np.pi * geom.radius * freq / geom.speed_of_sound
    angles = np.asarray(geom.mic_angles)
    return np.exp(1j * w_bar * np.cos(thetas[:, None] - angles[None, :]))


def narrowband_beampattern(weights, geom: ArrayGeometry, freq,
                           thetas) -> np.ndarray:
    """Complex response of one weight vector, shape (len(thetas),)."""
    _check_freq(geom, freq)
    w = np.asarray(weights, dtype=np.complex128)
    if w.shape != (geom.n_mics,):
        raise ArgumentError(
            f"weights must be a length-{geom.n_mics} vector, got shape {w.shape}"
        )
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    return _steering_phases(geom, freq, thetas) @ w


def time_avg_beampattern(weights, geom: ArrayGeometry, freq,
                         thetas) -> np.ndarray:
    """Complex responses of per-frame weights (C, T), averaged over frames."""
    _check_freq(geom, freq)
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != geom.n_mics:
        raise ArgumentError(f"weights must be (C, T) with C={geom.n_mics}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    responses = _steering_phases(geom, freq, thetas) @ w  # (Theta, T)
    return responses.mean(axis=1)


# -- coherent-to-diffuse ratio masking ----------------------------------------


def _mic_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _bin_freqs(spec: ComplexSpectrogram):
    # one-sided layout: bin k sits at k * (rate/2) / (K - 1)
    return np.linspace(0.0, spec.sample_rate / 2.0, spec.n_bins)


def diffuse_coherence(freqs, distance, speed_of_sound=343.0) -> np.ndarray:
    """Spherically isotropic diffuse-field coherence sinc(2 f d / v)."""
    return np.sinc(2.0 * np.asarray(freqs) * distance / speed_of_sound)


def pairwise_coherence(spec: ComplexSpectrogram):
    """Recursively smoothed complex coherence for every microphone pair.

    Auto and cross spectra follow P(t) = a*P(t-1) + (1-a)*x(t) with
    a = FORGETTING, seeded with the first frame. Returns (pairs, coherence)
    with coherence of shape (n_pairs, T, K).
    """
    y = spec.values
    n_ch, n_frames, n_bins = y.shape
    pairs = _mic_pairs(n_ch)
    ii = np.array([i for i, _ in pairs])
    jj = np.array([j for _, j in pairs])
    auto = np.abs(y[:, 0, :]) ** 2
    cross = y[ii, 0] * np.conj(y[jj, 0])
    coh = np.empty((len(pairs), n_frames, n_bins), dtype=np.complex128)
    a = FORGETTING
    for t in range(n_frames):
        if t > 0:
            auto = a * auto + (1 - a) * np.abs(y[:, t, :]) ** 2
            cross = a * cross + (1 - a) * (y[ii, t] * np.conj(y[jj, t]))
        coh[:, t] = cross / (np.sqrt(auto[ii] * auto[jj]) + _COHERENCE_FLOOR)
    return pairs, coh


def cdr_from_coherence(coh_x, coh_n) -> np.ndarray:
    """Coherent-to-diffuse power ratio from observed and noise-model coherence.

    Estimator that needs no source direction, only the diffuse-field
    coherence. It is nonnegative by construction (the discriminant dominates
    the linear part of the numerator); the final floor only guards rounding.
    """
    gn = np.asarray(coh_n, dtype=np.float64)
    re = np.asarray(coh_x).real
    mag2 = np.abs(coh_x) ** 2
    inner = gn * gn * re * re - gn * gn * mag2 + gn * gn - 2.0 * gn * re + mag2
    num = gn * re - mag2 - np.sqrt(np.maximum(inner, 0.0))
    den = np.minimum(mag2 - 1.0, -_CDR_DENOM_FLOOR)
    return np.maximum(num / den, 0.0)


def cdr_mask(spec: ComplexSpectrogram, geom: ArrayGeometry,
             channel_ids=None) -> np.ndarray:
    """Speech-presence mask m = CDR / (CDR + 1) in [0, 1], shape (T, K).

    CDR is estimated per microphone pair from recursively smoothed
    coherence against the diffuse model for that pair's spacing, then
    averaged over pairs. ``channel_ids`` names the microphone of ``geom``
    behind each row of ``spec`` (a recording masked to some channels);
    by default the rows are every microphone in order.
    """
    if channel_ids is None:
        channel_ids = range(geom.n_mics)
    if len(channel_ids) != spec.n_channels:
        raise ArgumentError("geometry and spectrogram disagree on channel count")
    channel_ids = list(channel_ids)
    if not all(0 <= c < geom.n_mics for c in channel_ids):
        raise ArgumentError(f"channel ids {channel_ids} name microphones "
                            f"outside the {geom.n_mics}-mic geometry")
    if spec.n_channels < 2:
        raise ArgumentError("CDR masking needs at least two microphones")
    pairs, coh = pairwise_coherence(spec)
    freqs = _bin_freqs(spec)
    positions = geom.positions[channel_ids]
    cdr_sum = np.zeros((spec.n_frames, spec.n_bins))
    for p, (i, j) in enumerate(pairs):
        dist = float(np.linalg.norm(positions[i] - positions[j]))
        gn = diffuse_coherence(freqs, dist, geom.speed_of_sound)
        cdr_sum += cdr_from_coherence(coh[p], gn[None, :])
    cdr = cdr_sum / len(pairs)
    return np.clip(cdr / (cdr + 1.0), 0.0, 1.0)


# -- MVDR ---------------------------------------------------------------------


@dataclass(frozen=True)
class MvdrResult:
    """Beamformed STFT plus the quantities used to build it."""

    values: np.ndarray        # (T, K) complex
    mask: np.ndarray          # (T, K) speech-presence mask
    steering: np.ndarray      # (K, C) unit-norm steering vectors
    filters: np.ndarray       # (K, C) beamforming filters


def _masked_covariance(y, mask):
    """(K, C, C) covariance with per-(t,k) weights; y is (C, T, K)."""
    weighted = y * mask[None, :, :]
    cov = np.einsum("ctk,dtk->kcd", weighted, np.conj(y))
    denom = mask.sum(axis=0)[:, None, None] + 1e-12
    return cov / denom


def mvdr_filters(phi_n, steering) -> np.ndarray:
    """h = Phi_n^-1 d / (d^H Phi_n^-1 d) for stacked (K, C, C) and (K, C).

    The normalization makes h^H d = 1 per bin by construction.
    """
    phi_n = np.asarray(phi_n, dtype=np.complex128)
    steering = np.asarray(steering, dtype=np.complex128)
    try:
        solved = np.linalg.solve(phi_n, steering[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"noise covariance is singular: {exc}") from exc
    scale = np.einsum("...c,...c->...", np.conj(steering), solved)
    if np.any(np.abs(scale) < 1e-300):
        raise NumericError("MVDR normalization collapsed; covariance is degenerate")
    return solved / scale[..., None]


def mvdr(spec: ComplexSpectrogram, mask) -> MvdrResult:
    """Distortionless beamformer steered from mask-weighted statistics.

    Per bin: the mask-weighted covariance supplies the steering vector via
    its principal eigenvector; the (1-mask)-weighted covariance, diagonally
    loaded by 1e-6 * trace / C, is inverted against it. The filters satisfy
    h^H d = 1, so the steered component passes undistorted.
    """
    if spec.n_channels < 2:
        raise ArgumentError("MVDR needs at least two microphones")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (spec.n_frames, spec.n_bins):
        raise ArgumentError("mask shape must be (T, K)")
    y = spec.values
    n_ch = spec.n_channels
    phi_s = _masked_covariance(y, mask)
    phi_n = _masked_covariance(y, 1.0 - mask)
    trace = np.einsum("kcc->k", phi_n).real
    loading = DIAGONAL_LOADING * trace / n_ch
    phi_n = phi_n + loading[:, None, None] * np.eye(n_ch)[None, :, :]
    try:
        _, vecs = np.linalg.eigh(phi_s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"steering eigendecomposition failed: {exc}") from exc
    steering = vecs[:, :, -1]  # largest eigenvalue, unit norm
    filters = mvdr_filters(phi_n, steering)
    out = np.einsum("kc,ctk->tk", np.conj(filters), y)
    if not np.isfinite(out).all():
        raise NumericError("MVDR produced non-finite output")
    return MvdrResult(values=out, mask=mask, steering=steering, filters=filters)


# -- SRP-PHAT -----------------------------------------------------------------


@dataclass(frozen=True)
class SrpMap:
    """Steered-response energy over candidate azimuths."""

    azimuths: np.ndarray   # (Theta,) radians
    power: np.ndarray      # (Theta,) unnormalized, nonnegative
    peak_index: int


def srp_phat(spec: ComplexSpectrogram, geom: ArrayGeometry, candidate_radius=2.0,
             n_angles=360, band=None) -> SrpMap:
    """Steered-response power with phase-transform weighting.

    Candidates sit on a circle of ``candidate_radius`` meters in the array
    plane, one per degree by default. Each STFT cell is reduced to its
    phase, cross spectra are summed over frames, and the map is

        P(theta) = sum_{t,k} |sum_c (Y_c/|Y_c|) * exp(j*2*pi*f_k*tau_c(theta))|^2

    restricted to the frequency band (default 300 Hz up to the aliasing
    limit). Expanding the square turns the frame sum into precomputed pair
    cross-sums plus a theta-independent baseline, which keeps the map
    nonnegative without an extra pass over frames.
    """
    if geom.n_mics != spec.n_channels:
        raise ArgumentError("geometry and spectrogram disagree on channel count")
    if geom.n_mics < 2:
        raise ArgumentError("SRP needs at least two microphones")
    freqs = _bin_freqs(spec)
    if band is None:
        band = (300.0, aliasing_limit_hz(geom))
    lo, hi = band
    keep = (freqs >= lo) & (freqs < hi)
    if not np.any(keep):
        raise ArgumentError(f"no frequency bins inside the band [{lo}, {hi}) Hz")
    y = spec.values[:, :, keep]
    norm = y / (np.abs(y) + _COHERENCE_FLOOR)
    f_sel = freqs[keep]
    pairs = _mic_pairs(geom.n_mics)
    summed = np.stack([
        (norm[i] * np.conj(norm[j])).sum(axis=0) for i, j in pairs
    ])  # (P, Kb)
    baseline = float((np.abs(norm) ** 2).sum())

    azimuths = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    points = candidate_radius * np.stack(
        [np.cos(azimuths), np.sin(azimuths), np.zeros_like(azimuths)], axis=1
    )
    dists = np.linalg.norm(points[:, None, :] - geom.positions[None, :, :], axis=2)
    taus = dists / geom.speed_of_sound  # (Theta, C)
    cross = np.zeros(n_angles)
    for p, (i, j) in enumerate(pairs):
        dtau = taus[:, i] - taus[:, j]  # (Theta,)
        phase = np.exp(2j * np.pi * f_sel[None, :] * dtau[:, None])
        cross += np.real(phase @ summed[p])
    power = np.maximum(baseline + 2.0 * cross, 0.0)
    return SrpMap(azimuths=azimuths, power=power, peak_index=int(np.argmax(power)))
