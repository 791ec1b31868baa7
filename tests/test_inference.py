"""Sliding-window inference: the tape-free, frame-reusing path must give
exactly the posteriors of a plain per-window loop with the tape on."""

import json
import os
import subprocess
import sys
import wave
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrayvad import cli
from arrayvad.autodiff import Tensor
from arrayvad.beamform import ArrayGeometry
from arrayvad.checkpoint import save_model
from arrayvad.errors import ArgumentError
from arrayvad.frontends import FrameCache, make_frontend
from arrayvad.segeval import labels_from_segments, parse_rttm, sliding_infer
from arrayvad.seqmodel import TcnConfig, posteriors, tcn_forward, tcn_init
from arrayvad.signal_io import (MultichannelSignal, WavReader, channel_mask,
                                mask_channels, read_wav, write_wav)
from arrayvad.spectral import frame_count

from helpers import naive_maskeval, naive_mvdr_features

RATE = 16000

FRONTEND_CONFIGS = [
    {"kind": "sacc", "attn_dim": 8, "n_mels": 16},
    {"kind": "analytic", "attn_dim": 8, "n_filters": 6},
    {"kind": "ecsacc", "attn_dim": 8, "n_mels": 16, "parts": "mag_phase"},
    {"kind": "ecsacc", "attn_dim": 8, "n_mels": 16, "parts": "real_imag"},
    {"kind": "icsacc", "attn_dim": 8, "n_mels": 16, "parts": "mag_phase"},
    {"kind": "icsacc", "attn_dim": 8, "n_mels": 16, "parts": "real_imag"},
    {"kind": "mvdr", "n_mels": 16},
]

# 0.05 s and 0.1 s are whole numbers of 10 ms STFT hops; the others are not.
HOPS_S = [0.05, 0.1, 0.0625, 0.033]


def _frontend(cfg, n_channels):
    cfg = dict(cfg)
    if cfg["kind"] == "mvdr":
        cfg["geometry"] = asdict(ArrayGeometry.uniform_circular(n_channels, 0.1))
    return make_frontend(cfg, seed=5)


def _model(frontend):
    cfg = TcnConfig(input_dim=frontend.feature_dim, bottleneck=6, hidden=6,
                    layers_per_block=2, blocks=2)
    return tcn_init(cfg, seed=6)


def _signal(n_channels, n_samples, seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n_samples)
    data = np.stack([np.roll(base, 3 * c) + 0.3 * rng.normal(size=n_samples)
                     for c in range(n_channels)])
    return MultichannelSignal(0.1 * data, RATE)


def _reference(frontend, model, signal, win_s, hop_s):
    def posterior_fn(window):
        return posteriors(tcn_forward(model, frontend.features(window).data))

    return sliding_infer(posterior_fn, signal, win_s=win_s, hop_s=hop_s)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=st.sampled_from(FRONTEND_CONFIGS),
       n_channels=st.integers(2, 4),
       n_samples=st.integers(2000, 14000),
       win_s=st.sampled_from([0.25, 0.4]),
       hop_s=st.sampled_from(HOPS_S),
       keep_mask=st.integers(1, 15),
       seed=st.integers(0, 2 ** 32 - 1))
def test_infer_labels_bitwise_equal_to_plain_window_loop(
        cfg, n_channels, n_samples, win_s, hop_s, keep_mask, seed):
    # Lengths below win_s give one window; most lengths are not a multiple
    # of the 160-sample hop, so the tail window is off the frame grid.
    signal = _signal(n_channels, n_samples, seed)
    keep = [c for c in range(n_channels) if keep_mask >> c & 1]
    if cfg["kind"] != "mvdr" and keep:
        signal = mask_channels(signal, keep)
    frontend = _frontend(cfg, n_channels)
    model = _model(frontend)
    want = _reference(frontend, model, signal, win_s, hop_s)
    got = cli._infer_labels(frontend, model, signal,
                            {"win_s": win_s, "hop_s": hop_s})
    assert np.array_equal(got.posteriors, want.posteriors)
    assert np.array_equal(got.labels, want.labels)


@pytest.mark.parametrize("cfg", [FRONTEND_CONFIGS[0], FRONTEND_CONFIGS[1]],
                         ids=["sacc", "analytic"])
@pytest.mark.parametrize("hop_n,on_grid", [(800, True), (1000, False)])
def test_frame_cache_holds_one_window_and_analyses_new_frames_only(
        cfg, hop_n, on_grid):
    signal = _signal(3, RATE + 77, seed=1)
    frontend = _frontend(cfg, 3)
    win_n = 4000
    per_window = frame_count(win_n, frontend.frame_len, frontend.frame_hop)
    analysed = []
    analyse = frontend.analyse

    def counting_analyse(sig):
        analysed.append(frame_count(sig.n_samples, frontend.frame_len,
                                    frontend.frame_hop))
        return analyse(sig)

    frontend.analyse = counting_analyse
    cache = FrameCache(frontend)
    n_windows = 0

    def posterior_fn(window):
        nonlocal n_windows
        n_windows += 1
        frames = cache.frames(window)
        for part in frames + tuple(cache._frames):
            assert part.shape[0] == per_window
        return np.zeros((1, 3))

    sliding_infer(posterior_fn, signal, win_s=win_n / RATE, hop_s=hop_n / RATE)
    assert n_windows == (17 if on_grid else 14)
    if on_grid:
        # The tail window (77 samples past the grid) is analysed in full.
        new_per_window = hop_n // frontend.frame_hop
        want = per_window + (n_windows - 2) * new_per_window + per_window
    else:
        want = n_windows * per_window
    assert sum(analysed) == want


# (start sample, kept channels) of each window, in the order they run: 4000
# samples long (23 frames), so a start of 800 is 5 frame hops in. The
# backward order first steps back by more than a window.
WINDOW_ORDERS = {
    "forward": [(0, None), (800, None), (1600, None)],
    "backward": [(4800, None), (800, None), (0, None)],
    "repeated": [(800, None), (800, None), (1600, None)],
    "jump-past": [(0, None), (4800, None), (5600, None)],
    "channel-count": [(0, None), (800, [0, 2]), (1600, None)],
}
# Frames each order analyses: 23 per window analysed in full, 5 for a window
# one 800-sample hop past the previous one, 0 for a repeat.
WINDOW_ORDER_ANALYSED = {"forward": 23 + 5 + 5, "backward": 3 * 23,
                         "repeated": 23 + 0 + 5, "jump-past": 23 + 23 + 5,
                         "channel-count": 3 * 23}


@pytest.mark.parametrize("order", sorted(WINDOW_ORDERS))
@pytest.mark.parametrize("cfg", [FRONTEND_CONFIGS[0], FRONTEND_CONFIGS[1]],
                         ids=["sacc", "analytic"])
def test_frame_cache_equals_analyse_in_any_window_order(cfg, order):
    # Reuse goes by window.start: a window before, on or past the previous
    # one, or with other channels, still gets exactly its own analysis.
    signal = _signal(3, RATE, seed=4)
    frontend = _frontend(cfg, 3)
    analyse = frontend.analyse
    analysed = []

    def counting_analyse(sig):
        analysed.append(frame_count(sig.n_samples, frontend.frame_len,
                                    frontend.frame_hop))
        return analyse(sig)

    frontend.analyse = counting_analyse
    cache = FrameCache(frontend)
    for start, keep in WINDOW_ORDERS[order]:
        window = signal.read(start, 4000)
        if keep is not None:
            window = mask_channels(window, keep)
        got = cache.frames(window)
        want = [part.data if isinstance(part, Tensor) else part
                for part in analyse(window)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert sum(analysed) == WINDOW_ORDER_ANALYSED[order]


@pytest.mark.parametrize("first, count", [(0, 1), (3, 2), (5, 17), (20, 9)])
def test_analytic_frames_do_not_depend_on_how_many_are_analysed(first, count):
    # FrameCache relies on this: a frame analysed with few others equals the
    # same frame analysed within a whole window (default-size bank).
    frontend = make_frontend({"kind": "analytic"}, seed=5)
    signal = _signal(4, 8000, seed=3)
    whole = frontend.analyse(signal)
    hop, size = frontend.frame_hop, frontend.frame_len
    lo = first * hop
    part = MultichannelSignal(
        signal.samples[:, lo:lo + (count - 1) * hop + size], RATE)
    for got, want in zip(frontend.analyse(part), whole):
        assert np.array_equal(got.data, want.data[first:first + count])


def test_infer_labels_records_no_tape(monkeypatch):
    seen = []

    def spy(logits):
        seen.append(logits.requires_grad)
        return posteriors(logits)

    monkeypatch.setattr(cli, "posteriors", spy)
    frontend = _frontend(FRONTEND_CONFIGS[0], 2)
    signal = _signal(2, 6000, seed=2)
    cli._infer_labels(frontend, _model(frontend), signal,
                      {"win_s": 0.25, "hop_s": 0.1})
    assert len(seen) == 3 and not any(seen)
    assert frontend.features(signal).requires_grad


CONFIG_IDS = ["sacc", "analytic", "ecsacc", "ecsacc-real_imag", "icsacc",
              "icsacc-real_imag", "mvdr"]


@pytest.mark.parametrize("cfg", FRONTEND_CONFIGS, ids=CONFIG_IDS)
def test_maskeval_rows_equal_per_keep_set_loop(cfg, tmp_path, capsys):
    # One sliding pass with a channel mask serves every keep set; rows match
    # a loop that analyses each keep set's masked signal window by window
    # (for mvdr, with a beamformer built apart from the frontend).
    write_wav(_signal(4, 9000, seed=7), tmp_path / "scene.wav")
    signal = read_wav(tmp_path / "scene.wav")
    (tmp_path / "ref.rttm").write_text(
        "SPEAKER f 1 0.05 0.30 <NA> <NA> a <NA> <NA>\n"
        "SPEAKER f 1 0.20 0.25 <NA> <NA> b <NA> <NA>\n")
    ref = labels_from_segments(parse_rttm(tmp_path / "ref.rttm"),
                               signal.duration_s)
    frontend = _frontend(cfg, 4)
    model = _model(frontend)
    save_model(tmp_path / "model.ckpt", frontend, model)
    window = {"win_s": 0.25, "hop_s": 0.1}
    keep_sets = [[0, 1, 2, 3], [1, 3], [0, 2, 3], [2]]
    if cfg["kind"] == "mvdr":
        keep_sets = keep_sets[:3]  # a beamformer needs two microphones
    (tmp_path / "maskeval.json").write_text(
        json.dumps({"keep_sets": keep_sets, **window}))
    assert cli.main(["maskeval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--wav", str(tmp_path / "scene.wav"),
                     "--ref", str(tmp_path / "ref.rttm"),
                     "--config", str(tmp_path / "maskeval.json"),
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "out" / "maskeval.json").read_text())["rows"]
    want_rows, want_posts = naive_maskeval(frontend, model, signal, ref,
                                           keep_sets, **window)
    assert rows == want_rows
    mask = np.stack([channel_mask(signal, keep) for keep in keep_sets])
    got = cli._infer_labels(frontend, model, signal, window, mask=mask)
    for labels, want in zip(got, want_posts):
        assert np.max(np.abs(labels.posteriors - want)) <= 1e-12


def test_mvdr_masked_paths_equal_each_keep_sets_own_beamformer():
    # Path p beamforms the STFT rows mask row p keeps on their own, as
    # STFT, CDR mask, MVDR and log-mel of the masked signal would. Mel/log
    # runs as one GEMM over the T * P rows, which a BLAS may round apart
    # from a T-row GEMM, so the check allows 1e-12 relative.
    frontend = _frontend(FRONTEND_CONFIGS[-1], 4)
    signal = _signal(4, 6000, seed=1)
    keep_sets = [[0, 1, 2, 3], [1, 3], [0, 2, 3]]
    mask = np.stack([channel_mask(signal, keep) for keep in keep_sets])
    paths = frontend.features(signal, mask=mask).data
    assert paths.shape[1] == len(keep_sets)
    for p, keep in enumerate(keep_sets):
        want = naive_mvdr_features(mask_channels(signal, keep),
                                   frontend.geometry, frontend.n_mels)
        assert np.max(np.abs(paths[:, p] - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ArgumentError):  # one mask column per microphone
        frontend.features(signal, mask=mask[:, :3])


def test_sliding_infer_averages_each_path_as_alone():
    signal = _signal(2, 7000, seed=4)
    rng = np.random.default_rng(9)
    stacks = {}

    def stacked_fn(window):
        post = rng.dirichlet(np.ones(3), size=(3, 25))
        stacks[len(stacks)] = post
        return post

    got = sliding_infer(stacked_fn, signal, win_s=0.25, hop_s=0.1)
    for p in range(3):
        calls = iter(range(len(stacks)))
        want = sliding_infer(lambda window: stacks[next(calls)][p], signal,
                             win_s=0.25, hop_s=0.1)
        assert np.array_equal(got[p].posteriors, want.posteriors)
        assert np.array_equal(got[p].labels, want.labels)


@pytest.mark.parametrize("cfg", FRONTEND_CONFIGS, ids=CONFIG_IDS)
def test_infer_from_the_file_equals_infer_from_the_whole_signal(cfg, tmp_path):
    write_wav(_signal(3, 7777, seed=8), tmp_path / "scene.wav")
    frontend = _frontend(cfg, 3)
    model = _model(frontend)
    window = {"win_s": 0.25, "hop_s": 0.1}
    got = cli._infer_labels(frontend, model, WavReader(tmp_path / "scene.wav"),
                            window)
    want = cli._infer_labels(frontend, model, read_wav(tmp_path / "scene.wav"),
                             window)
    assert np.array_equal(got.posteriors, want.posteriors)


def _write_noise_wav(path, seconds, n_channels=8, rate=RATE):
    """PCM16 noise written a second at a time, so the test holds no
    recording in memory either."""
    rng = np.random.default_rng(0)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(n_channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        for _ in range(seconds):
            block = rng.integers(-3000, 3000, size=(rate, n_channels))
            fh.writeframes(block.astype("<i2").tobytes())


_PEAK_RSS_OF_INFER = """\
import resource, sys
from arrayvad.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def test_infer_peak_memory_does_not_grow_with_the_recording(tmp_path):
    # Each window is read from the file when it runs, so a recording four
    # times longer needs no more memory; reading it whole needed about
    # 1 MB per second of 8-mic audio.
    frontend = make_frontend({"kind": "sacc", "attn_dim": 8}, seed=1)
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=16,
                               hidden=16, layers_per_block=2, blocks=2), seed=2)
    save_model(tmp_path / "model.ckpt", frontend, model)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    peak_kb = {}
    for seconds in (60, 240):
        wav = tmp_path / f"noise{seconds}.wav"
        _write_noise_wav(wav, seconds)
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_OF_INFER, "infer",
             "--checkpoint", str(tmp_path / "model.ckpt"), "--wav", str(wav),
             "--out", str(tmp_path / f"out{seconds}")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        peak_kb[seconds] = int(proc.stdout.strip().splitlines()[-1])
        wav.unlink()
    assert (peak_kb[240] - peak_kb[60]) / 1024 < 10.0, peak_kb
