"""Segment files, frame labeling, sliding-window inference and metrics.

The label convention is three classes on the ``spectral.FRAME_RATE`` grid
(one label per 10 ms analysis frame): 0 silence, 1 one active speaker, 2 two
or more. A frame is judged at its center instant (t + 0.5) / FRAME_RATE
against half-open segments [onset, onset + duration).

Metric conventions, stated once because they change absolute values: the
false-alarm and miss rates are BOTH normalized by the total number of
reference speech frames, so the segmentation error rate is exactly their
sum. Overlap detection is scored framewise on class 2 with standard
precision/recall/F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ParseError, RangeError, UndefinedMetricError
from .signal_io import MultichannelSignal, slice_segment
from .spectral import FRAME_RATE

N_CLASSES = 3
MAX_LABEL_FRAMES = 24 * 3600 * FRAME_RATE


@dataclass(frozen=True)
class Segment:
    file_id: str
    onset: float
    duration: float
    speaker: str

    def __post_init__(self):
        if not np.isfinite(self.onset):
            raise ArgumentError(f"segment onset must be finite, got {self.onset}")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ArgumentError(f"segment duration must be positive, got {self.duration}")

    @property
    def end(self):
        return self.onset + self.duration


@dataclass(frozen=True)
class SegmentSet:
    """A collection of speaker segments; overlap between speakers is fine."""

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    def __len__(self):
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def speakers(self):
        seen = []
        for seg in self.segments:
            if seg.speaker not in seen:
                seen.append(seg.speaker)
        return seen


@dataclass(frozen=True)
class FrameLabels:
    """Per-frame classes in {0,1,2}, optionally with the posteriors behind them."""

    labels: np.ndarray
    posteriors: np.ndarray = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ArgumentError("labels must be one-dimensional")
        if labels.size and not np.isin(labels, (0, 1, 2)).all():
            raise ArgumentError("labels must take values in {0, 1, 2}")
        object.__setattr__(self, "labels", labels)
        if self.posteriors is not None:
            post = np.asarray(self.posteriors, dtype=np.float64)
            if post.shape != (labels.size, N_CLASSES):
                raise ArgumentError("posteriors must be (n_frames, 3)")
            object.__setattr__(self, "posteriors", post)

    def __len__(self):
        return self.labels.size


# -- RTTM ---------------------------------------------------------------------


def parse_rttm(path) -> SegmentSet:
    """Read SPEAKER records from an RTTM file.

    Lines whose first field is not SPEAKER are ignored. A SPEAKER line has
    ten whitespace-delimited fields; fields 4 and 5 are onset and duration.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"RTTM file is not UTF-8 text: {exc}") from exc
    segments = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "SPEAKER":
            continue
        if len(fields) != 10:
            raise ParseError(
                f"SPEAKER record has {len(fields)} fields, expected 10", line=lineno
            )
        try:
            onset = float(fields[3])
            duration = float(fields[4])
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", line=lineno) from exc
        try:
            segments.append(
                Segment(file_id=fields[1], onset=onset, duration=duration,
                        speaker=fields[7])
            )
        except ArgumentError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return SegmentSet(tuple(segments))


def write_rttm(segs: SegmentSet, path):
    """Write SPEAKER records, onset and duration with 3 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segs:
            fh.write(
                f"SPEAKER {seg.file_id} 1 {seg.onset:.3f} {seg.duration:.3f} "
                f"<NA> <NA> {seg.speaker} <NA> <NA>\n"
            )


# -- labels <-> segments ------------------------------------------------------


def labels_from_segments(segs: SegmentSet, duration_s) -> FrameLabels:
    """Frame classes from a segment set: min(2, active speaker count).

    A speaker is active at a frame when the frame center falls inside any of
    that speaker's segments, so adjacent pieces of a split segment behave
    exactly like the original. The span ``duration_s`` must lie in
    [0, 24 h] (``MAX_LABEL_FRAMES``), else RangeError.
    """
    if not 0 <= duration_s * FRAME_RATE <= MAX_LABEL_FRAMES:
        raise RangeError(f"label span of {duration_s} s is not in [0, 24 h]")
    n_frames = int(round(duration_s * FRAME_RATE))
    centers = (np.arange(n_frames) + 0.5) / FRAME_RATE
    count = np.zeros(n_frames, dtype=np.int64)
    for speaker in segs.speakers():
        active = np.zeros(n_frames, dtype=bool)
        for seg in segs:
            if seg.speaker != speaker:
                continue
            active |= (centers >= seg.onset) & (centers < seg.end)
        count += active
    labels = np.minimum(count, 2)
    return FrameLabels(labels=labels)


def segments_from_labels(labels: FrameLabels, file_id) -> SegmentSet:
    """Hypothesis segments: spk1 spans class >= 1, spk2 spans class 2.

    The two-speaker encoding makes min(2, active count) of the result
    reproduce the input classes.
    """
    segs = []
    for speaker, active in (("spk1", labels.labels >= 1), ("spk2", labels.labels == 2)):
        padded = np.concatenate([[False], active, [False]])
        starts = np.flatnonzero(padded[1:] & ~padded[:-1])
        ends = np.flatnonzero(~padded[1:] & padded[:-1])
        for s, e in zip(starts, ends):
            segs.append(Segment(file_id=file_id, onset=s / FRAME_RATE,
                                duration=(e - s) / FRAME_RATE, speaker=speaker))
    segs.sort(key=lambda seg: (seg.onset, seg.speaker))
    return SegmentSet(tuple(segs))


# -- sliding-window inference -------------------------------------------------


def sliding_infer(posterior_fn, signal: MultichannelSignal, win_s=2.0,
                  hop_s=0.5):
    """Run a window-level posterior function over a long signal.

    posterior_fn maps a MultichannelSignal window to (frames, 3) posteriors
    on the FRAME_RATE grid, or to a (P, frames, 3) stack of P paths (for
    example P channel subsets of the window). Windows advance by hop_s; a
    final window aligned to the signal end covers any tail. Overlapping
    frames average their posteriors (arithmetic mean over the windows that
    cover them); classes are the argmax, ties resolved toward the lower
    class. Returns FrameLabels, or a list of P FrameLabels for stacks; each
    path is averaged exactly as it would be alone.
    """
    if win_s <= 0 or hop_s <= 0:
        raise ArgumentError("window and hop must be positive")
    rate = signal.sample_rate
    win_n = min(int(round(win_s * rate)), signal.n_samples)
    hop_n = max(int(round(hop_s * rate)), 1)
    last_start = signal.n_samples - win_n
    starts = list(range(0, last_start + 1, hop_n))
    if starts[-1] < last_start:
        starts.append(last_start)  # tail window aligned to the signal end
    duration = signal.n_samples / rate
    n_frames = int(round(duration * FRAME_RATE))
    acc = None
    cover = np.zeros(n_frames)
    for start_n in starts:
        window = slice_segment(signal, start_n / rate, win_n / rate)
        post = np.asarray(posterior_fn(window), dtype=np.float64)
        if (post.ndim not in (2, 3) or post.shape[-1] != N_CLASSES
                or acc is not None and post.shape[:-2] != acc.shape[:-2]):
            raise ArgumentError(
                "posterior_fn must return (frames, 3), or (paths, frames, 3) "
                "with the same paths for every window")
        if acc is None:
            acc = np.zeros(post.shape[:-2] + (n_frames, N_CLASSES))
        offset = int(round(start_n / rate * FRAME_RATE))
        frames = min(post.shape[-2], n_frames - offset)
        acc[..., offset:offset + frames, :] += post[..., :frames, :]
        cover[offset:offset + frames] += 1.0
    covered = cover > 0
    acc[..., covered, :] /= cover[covered, None]
    # an uncovered tail counts as silence
    acc[..., ~covered, :] = np.array([1.0, 0.0, 0.0])
    labels = np.argmax(acc, axis=-1)  # argmax takes the first (lowest) on ties
    if acc.ndim == 3:
        return [FrameLabels(labels=lab, posteriors=post)
                for lab, post in zip(labels, acc)]
    return FrameLabels(labels=labels, posteriors=acc)


# -- metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class VadMetrics:
    false_alarm: float
    miss: float
    error_rate: float


@dataclass(frozen=True)
class OsdMetrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def _check_aligned(ref: FrameLabels, hyp: FrameLabels):
    if len(ref) != len(hyp):
        raise ArgumentError(f"length mismatch: ref {len(ref)} vs hyp {len(hyp)}")


def vad_metrics(ref: FrameLabels, hyp: FrameLabels) -> VadMetrics:
    """False alarm, miss and their sum, in percent.

    Both rates share the same denominator: the number of reference speech
    frames. That makes the summed error rate exactly FA + Miss.
    """
    _check_aligned(ref, hyp)
    ref_speech = ref.labels >= 1
    hyp_speech = hyp.labels >= 1
    n_speech = int(ref_speech.sum())
    if n_speech == 0:
        raise UndefinedMetricError("reference contains no speech frames")
    fa = 100.0 * float((hyp_speech & ~ref_speech).sum()) / n_speech
    miss = 100.0 * float((~hyp_speech & ref_speech).sum()) / n_speech
    return VadMetrics(false_alarm=fa, miss=miss, error_rate=fa + miss)


def osd_metrics(ref: FrameLabels, hyp: FrameLabels) -> OsdMetrics:
    """Framewise precision/recall/F1 on the overlap class, in percent.

    Degenerate denominators (no overlap predicted, or none in the
    reference) score 0 and set the flag instead of raising.
    """
    _check_aligned(ref, hyp)
    ref_pos = ref.labels == 2
    hyp_pos = hyp.labels == 2
    tp = float((ref_pos & hyp_pos).sum())
    fp = float((~ref_pos & hyp_pos).sum())
    fn = float((ref_pos & ~hyp_pos).sum())
    degenerate = (tp + fp) == 0 or (tp + fn) == 0
    precision = 100.0 * tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = 100.0 * tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return OsdMetrics(precision=precision, recall=recall, f1=f1, degenerate=degenerate)
