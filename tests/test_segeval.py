"""Segment I/O, labeling, sliding inference and metric tests."""

import numpy as np
import pytest

from arrayvad.errors import (ArgumentError, ParseError, RangeError,
                             UndefinedMetricError)
from arrayvad.segeval import (
    FrameLabels,
    OsdMetrics,
    Segment,
    SegmentSet,
    VadMetrics,
    MAX_LABEL_FRAMES,
    labels_from_segments,
    osd_metrics,
    parse_rttm,
    segments_from_labels,
    sliding_infer,
    vad_metrics,
    write_rttm,
)
from arrayvad.signal_io import MultichannelSignal


def labels_of(seq):
    return FrameLabels(labels=np.asarray(seq, dtype=np.int64))


# -- RTTM ---------------------------------------------------------------------


def test_parse_speaker_line(tmp_path):
    path = tmp_path / "ref.rttm"
    path.write_text("SPEAKER f 1 0.50 1.25 <NA> <NA> spkA <NA> <NA>\n")
    segs = parse_rttm(path)
    assert len(segs) == 1
    seg = segs.segments[0]
    assert seg.file_id == "f"
    assert seg.onset == pytest.approx(0.50)
    assert seg.duration == pytest.approx(1.25)
    assert seg.speaker == "spkA"


def test_parse_skips_non_speaker_lines(tmp_path):
    path = tmp_path / "ref.rttm"
    path.write_text(
        "SPKR-INFO f 1 <NA> <NA> <NA> unknown spkA <NA> <NA>\n"
        "\n"
        "SPEAKER f 1 1.00 2.00 <NA> <NA> spkB <NA> <NA>\n"
    )
    segs = parse_rttm(path)
    assert [s.speaker for s in segs] == ["spkB"]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.rttm"
    path.write_text("")
    assert len(parse_rttm(path)) == 0


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.rttm"
    path.write_text(
        "SPEAKER f 1 0.00 1.00 <NA> <NA> spkA <NA> <NA>\n"
        "SPEAKER f 1 zero 1.00 <NA> <NA> spkA <NA> <NA>\n"
    )
    with pytest.raises(ParseError) as info:
        parse_rttm(path)
    assert info.value.line == 2
    path.write_text("SPEAKER f 1 0.00 1.00 <NA> spkA <NA> <NA>\n")
    with pytest.raises(ParseError) as info:
        parse_rttm(path)
    assert info.value.line == 1
    # negative duration is caught at parse time too
    path.write_text("SPEAKER f 1 0.00 -1.00 <NA> <NA> spkA <NA> <NA>\n")
    with pytest.raises(ParseError):
        parse_rttm(path)


def test_write_parse_roundtrip(tmp_path):
    segs = SegmentSet((
        Segment("meet", 0.125, 1.5, "spk1"),
        Segment("meet", 0.75, 2.25, "spk2"),
    ))
    path = tmp_path / "out.rttm"
    write_rttm(segs, path)
    again = parse_rttm(path)
    assert len(again) == 2
    for a, b in zip(segs, again):
        assert a.file_id == b.file_id
        assert a.speaker == b.speaker
        assert b.onset == pytest.approx(a.onset, abs=5e-4)
        assert b.duration == pytest.approx(a.duration, abs=5e-4)


# -- labels_from_segments -----------------------------------------------------


def test_one_speaker_first_second():
    segs = SegmentSet((Segment("f", 0.0, 1.0, "a"),))
    out = labels_from_segments(segs, duration_s=2.0)
    assert len(out) == 200
    assert (out.labels[:100] == 1).all()
    assert (out.labels[100:] == 0).all()


def test_two_speakers_overlap_block():
    segs = SegmentSet((
        Segment("f", 0.0, 1.0, "a"),
        Segment("f", 0.5, 0.5, "b"),
    ))
    out = labels_from_segments(segs, 2.0)
    assert (out.labels[:50] == 1).all()
    assert (out.labels[50:100] == 2).all()
    assert (out.labels[100:] == 0).all()


def test_three_speakers_cap_at_two():
    segs = SegmentSet(tuple(Segment("f", 0.0, 1.0, s) for s in "abc"))
    out = labels_from_segments(segs, 1.0)
    assert (out.labels == 2).all()


def test_labels_invariant_to_order_and_splitting():
    base = SegmentSet((
        Segment("f", 0.2, 1.1, "a"),
        Segment("f", 0.9, 0.7, "b"),
    ))
    split = SegmentSet((
        Segment("f", 0.9, 0.7, "b"),
        Segment("f", 0.7, 0.6, "a"),
        Segment("f", 0.2, 0.5, "a"),
    ))
    lab_base = labels_from_segments(base, 2.0)
    lab_split = labels_from_segments(split, 2.0)
    assert (lab_base.labels == lab_split.labels).all()


def test_same_speaker_overlap_counts_once():
    segs = SegmentSet((
        Segment("f", 0.0, 1.0, "a"),
        Segment("f", 0.5, 1.0, "a"),
    ))
    out = labels_from_segments(segs, 2.0)
    assert out.labels.max() == 1


def test_segments_past_duration_are_clipped():
    segs = SegmentSet((Segment("f", 1.5, 5.0, "a"),))
    out = labels_from_segments(segs, 2.0)
    assert (out.labels[:150] == 0).all()
    assert (out.labels[150:] == 1).all()


@pytest.mark.parametrize("duration_s", [
    1e12, float("inf"), float("nan"), -1.0, MAX_LABEL_FRAMES / 100 + 0.01])
def test_label_spans_that_are_not_finite_or_over_a_day_are_refused(duration_s):
    # 1e12 s would ask for 728 TiB of frame centres; inf used to overflow.
    segs = SegmentSet((Segment("f", 0.0, 1.0, "a"),))
    with pytest.raises(RangeError, match="label span"):
        labels_from_segments(segs, duration_s)


def test_spans_from_zero_to_a_day_are_labelled():
    assert MAX_LABEL_FRAMES == 8_640_000
    segs = SegmentSet((Segment("f", 0.0, 1.0, "a"),))
    assert len(labels_from_segments(segs, 0.0)) == 0
    day = labels_from_segments(segs, 24 * 3600.0)
    assert len(day) == MAX_LABEL_FRAMES
    assert day.labels[:100].all() and not day.labels[100:].any()


# -- segments_from_labels -----------------------------------------------------


def test_hypothesis_segments_roundtrip():
    rng = np.random.default_rng(5)
    labels = labels_of(rng.integers(0, 3, size=400))
    segs = segments_from_labels(labels, "hyp")
    back = labels_from_segments(segs, 4.0)
    assert (back.labels == labels.labels).all()
    assert set(s.speaker for s in segs) <= {"spk1", "spk2"}


def test_hypothesis_segment_encoding():
    labels = labels_of([0, 1, 1, 2, 2, 1, 0, 0])
    segs = segments_from_labels(labels, "f")
    spk1 = [(s.onset, s.duration) for s in segs if s.speaker == "spk1"]
    spk2 = [(s.onset, s.duration) for s in segs if s.speaker == "spk2"]
    assert spk1 == [(pytest.approx(0.01), pytest.approx(0.05))]
    assert spk2 == [(pytest.approx(0.03), pytest.approx(0.02))]


# -- sliding_infer ------------------------------------------------------------


def silent_signal(duration_s, rate=16000, channels=2):
    n = int(round(duration_s * rate))
    return MultichannelSignal(np.zeros((channels, n)), rate)


def test_sliding_constant_posteriors():
    const = np.array([0.2, 0.5, 0.3])

    def fn(window):
        frames = int(round(window.n_samples / window.sample_rate * 100))
        return np.tile(const, (frames, 1))

    out = sliding_infer(fn, silent_signal(5.0))
    assert len(out) == 500
    assert np.allclose(out.posteriors, const, atol=1e-12)
    assert (out.labels == 1).all()


def test_sliding_single_window_for_short_signal():
    calls = []

    def fn(window):
        calls.append(window.n_samples)
        frames = int(round(window.n_samples / window.sample_rate * 100))
        post = np.zeros((frames, 3))
        post[:, 2] = 1.0
        return post

    out = sliding_infer(fn, silent_signal(2.0))
    assert len(calls) == 1
    assert calls[0] == 32000
    assert (out.labels == 2).all()

    out = sliding_infer(fn, silent_signal(1.2))
    assert len(calls) == 2 and calls[1] == 19200
    assert len(out) == 120


def test_sliding_average_and_tie_break():
    # 3 s signal, 2 s window, 1 s hop: windows [0,2) and [1,3) overlap on
    # [1,2). The first window votes class 2 with 0.9, the second with 0.1;
    # the overlap averages to 0.5 for both class 0 and class 2 and the tie
    # must fall to the lower class.
    votes = iter([0.9, 0.1])

    def fn(window):
        p2 = next(votes)
        frames = int(round(window.n_samples / window.sample_rate * 100))
        post = np.zeros((frames, 3))
        post[:, 2] = p2
        post[:, 0] = 1.0 - p2
        return post

    out = sliding_infer(fn, silent_signal(3.0), win_s=2.0, hop_s=1.0)
    assert np.allclose(out.posteriors[100:200, 2], 0.5)
    assert np.allclose(out.posteriors[100:200, 0], 0.5)
    assert (out.labels[:100] == 2).all()
    assert (out.labels[100:200] == 0).all()  # tie resolved downward
    assert (out.labels[200:] == 0).all()


def test_sliding_shift_by_one_hop():
    # content-driven posteriors: a frame is "speech" when its samples are
    # loud; prepending one hop of silence must shift interior labels by
    # exactly the hop's frame count
    rate = 16000
    rng = np.random.default_rng(11)
    burst = (rng.uniform(size=rate * 4) > 0.5).astype(float)
    burst *= np.repeat(rng.integers(0, 2, size=40), rate // 10)  # 100 ms gating
    sig = MultichannelSignal(np.stack([burst, burst]), rate)
    padded = MultichannelSignal(
        np.concatenate([np.zeros((2, 8000)), sig.samples], axis=1), rate
    )

    def fn(window):
        x = window.samples[0]
        frames = int(round(window.n_samples / window.sample_rate * 100))
        chunk = x[: frames * 160].reshape(frames, 160)
        loud = (chunk ** 2).mean(axis=1) > 0.1
        post = np.zeros((frames, 3))
        post[loud, 1] = 1.0
        post[~loud, 0] = 1.0
        return post

    base = sliding_infer(fn, sig)
    shifted = sliding_infer(fn, padded)
    # one hop = 0.5 s = 50 frames; exclude one window length at both ends
    assert (shifted.labels[250:-250] == base.labels[200:-300]).all()


def test_sliding_rejects_bad_posterior_shape():
    def fn(window):
        return np.zeros((10, 2))

    with pytest.raises(ArgumentError):
        sliding_infer(fn, silent_signal(2.0))


# -- VAD metrics --------------------------------------------------------------


def test_vad_identity_is_zero():
    ref = labels_of([0, 1, 2, 1, 0, 0, 1])
    out = vad_metrics(ref, ref)
    assert out == VadMetrics(0.0, 0.0, 0.0)


def test_vad_hand_count():
    ref = labels_of([1] * 100 + [0] * 100)
    hyp = labels_of([1] * 75 + [0] * 125)
    out = vad_metrics(ref, hyp)
    assert out.false_alarm == pytest.approx(0.0)
    assert out.miss == pytest.approx(25.0)
    assert out.error_rate == pytest.approx(25.0)


def test_vad_sum_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ref = labels_of(rng.integers(0, 3, size=300))
        hyp = labels_of(rng.integers(0, 3, size=300))
        if not (ref.labels >= 1).any():
            continue
        out = vad_metrics(ref, hyp)
        assert out.error_rate == pytest.approx(out.false_alarm + out.miss, abs=1e-9)


def test_vad_ignores_class_distinction():
    ref = labels_of([0, 1, 2, 2, 1])
    hyp_a = labels_of([0, 1, 1, 1, 1])
    hyp_b = labels_of([0, 2, 2, 2, 2])
    assert vad_metrics(ref, hyp_a) == vad_metrics(ref, hyp_b)


def test_vad_errors():
    silence = labels_of([0, 0, 0])
    with pytest.raises(UndefinedMetricError):
        vad_metrics(silence, silence)
    with pytest.raises(ArgumentError):
        vad_metrics(labels_of([1, 1]), labels_of([1, 1, 1]))


# -- OSD metrics --------------------------------------------------------------


def test_osd_identity_is_perfect():
    ref = labels_of([0, 1, 2, 2, 0])
    out = osd_metrics(ref, ref)
    assert out == OsdMetrics(100.0, 100.0, 100.0, degenerate=False)


def test_osd_seventy_seventy():
    ref = labels_of([2] * 70 + [2] * 30 + [0] * 30 + [0] * 70)
    hyp = labels_of([2] * 70 + [0] * 30 + [2] * 30 + [0] * 70)
    out = osd_metrics(ref, hyp)
    assert out.precision == pytest.approx(70.0)
    assert out.recall == pytest.approx(70.0)
    assert out.f1 == pytest.approx(70.0)


def test_osd_no_predictions_is_degenerate_zero():
    ref = labels_of([2, 2, 0, 0])
    hyp = labels_of([1, 1, 0, 0])
    out = osd_metrics(ref, hyp)
    assert out.recall == 0.0
    assert out.f1 == 0.0
    assert out.degenerate


def test_osd_no_reference_overlap_is_degenerate():
    ref = labels_of([1, 1, 0, 0])
    hyp = labels_of([2, 0, 0, 0])
    out = osd_metrics(ref, hyp)
    assert out.precision == 0.0
    assert out.f1 == 0.0
    assert out.degenerate
