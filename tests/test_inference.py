"""Sliding-window inference: the tape-free, frame-reusing path must give
exactly the posteriors of a plain per-window loop with the tape on."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrayvad import cli
from arrayvad.beamform import ArrayGeometry
from arrayvad.frontends import FrameCache, make_frontend
from arrayvad.segeval import sliding_infer
from arrayvad.seqmodel import TcnConfig, posteriors, tcn_forward, tcn_init
from arrayvad.signal_io import MultichannelSignal, mask_channels
from arrayvad.spectral import frame_count

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
        cfg["geometry"] = ArrayGeometry.uniform_circular(n_channels, 0.1).to_dict()
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
