"""Frontend tests: ``features`` and ``combined`` must agree with naive
per-frame references built from the frontend's own parameters."""

import numpy as np
import pytest

from arrayvad.autodiff import backward, grad, tsum
from arrayvad.beamform import ArrayGeometry
from arrayvad.errors import ArgumentError
from arrayvad.frontends import (
    AnalyticSaccFrontend,
    EcSaccFrontend,
    IcSaccFrontend,
    MvdrConfig,
    MvdrFrontend,
    SaccStftFrontend,
    make_frontend,
)
from arrayvad.signal_io import MultichannelSignal
from arrayvad.spectral import frame_signal, hilbert_basis, mel_filterbank, stft

from helpers import naive_ecsacc, naive_icsacc, naive_mvn, naive_sacc, naive_weights

RATE = 16000


def make_signal(channels=3, seconds=0.5, seed=0, correlated=True):
    rng = np.random.default_rng(seed)
    n = int(seconds * RATE)
    if correlated:
        base = rng.normal(size=n)
        data = np.stack([np.roll(base, c) + 0.05 * rng.normal(size=n)
                         for c in range(channels)])
    else:
        data = rng.normal(size=(channels, n))
    return MultichannelSignal(0.1 * data, RATE)


def small_frontend(kind, **kw):
    defaults = dict(attn_dim=8, seed=3)
    defaults.update(kw)
    return make_frontend({"kind": kind, **defaults})


TRAINABLE = ["sacc", "ecsacc", "icsacc"]


def bank(fe, prefix=""):
    """One attention bank of ``fe`` as a dict of numpy arrays."""
    return {name: fe.params[prefix + name].data
            for name in ("wq", "wk", "wv", "bq")}


def naive_stft_reference(fe, sig):
    """Combined values, (C, T) weights and log-mel features of an STFT
    frontend, from the naive per-frame loops."""
    values = stft(sig).values
    if fe.kind == "sacc":
        out, w = naive_sacc(values, bank(fe))
    elif fe.kind == "ecsacc":
        out, w = naive_ecsacc(values, bank(fe, "mag/"), bank(fe, "phase/"),
                              fe.parts)
    else:
        out, w = naive_icsacc(values, bank(fe), fe.parts)
    mel = mel_filterbank(fe.n_mels, values.shape[2], RATE)
    return out, w, np.log(np.abs(out) @ mel + 1e-8)


@pytest.mark.parametrize("kind, parts", [
    pytest.param("sacc", None, id="sacc"),
    pytest.param("ecsacc", "mag_phase", id="ecsacc"),
    pytest.param("icsacc", "mag_phase", id="icsacc"),
    pytest.param("ecsacc", "real_imag", id="ecsacc-real_imag"),
    pytest.param("icsacc", "real_imag", id="icsacc-real_imag"),
])
def test_graph_features_match_numpy_path(kind, parts):
    fe = small_frontend(kind, **({} if parts is None else {"parts": parts}))
    sig = make_signal()
    graph = fe.features(sig)
    comb_values, comb_weights = fe.combined(sig)
    values, weights, feats = naive_stft_reference(fe, sig)
    assert graph.shape == feats.shape == (48, 64)
    assert graph.requires_grad
    assert np.max(np.abs(graph.data - feats)) < 1e-12
    assert np.max(np.abs(comb_values - values)) < 1e-12
    assert np.max(np.abs(comb_weights - weights)) < 1e-12
    assert np.iscomplexobj(comb_weights) == (kind != "sacc")


def test_analytic_graph_matches_numpy_path():
    fe = small_frontend("analytic", n_filters=6, kernel_len=64)
    sig = make_signal(seconds=0.25)
    graph = fe.features(sig)
    comb_values, comb_weights = fe.combined(sig)
    real_ir = fe.params["real_ir"].data
    frames = frame_signal(sig.samples, 64, 160)  # 10 ms hop at 16 kHz
    bank_out = (frames @ real_ir.T
                + 1j * (frames @ (real_ir @ hilbert_basis(64).T).T))
    w = naive_weights(naive_mvn(np.log(np.abs(bank_out) + 1e-8)), bank(fe))
    values = sum(w[c][:, None] * bank_out[c] for c in range(w.shape[0]))
    assert graph.shape == (values.shape[0], 12)
    assert graph.shape[1] == fe.feature_dim == 12
    assert np.max(np.abs(graph.data - np.concatenate(
        [values.real, values.imag], axis=-1))) < 1e-12
    assert np.max(np.abs(comb_values - values)) < 1e-12
    assert not np.iscomplexobj(comb_weights)
    assert np.max(np.abs(comb_weights - w)) < 1e-12


@pytest.mark.parametrize("kind, kw", [
    pytest.param("sacc", {}, id="sacc"),
    pytest.param("sacc", {"attn_dim": 129}, id="sacc-bilinear"),
    pytest.param("ecsacc", {}, id="ecsacc"),
    pytest.param("ecsacc", {"attn_dim": 129}, id="ecsacc-bilinear"),
    pytest.param("icsacc", {}, id="icsacc"),
    pytest.param("analytic", {"n_filters": 4, "kernel_len": 32}, id="analytic"),
])
def test_gradient_reaches_every_parameter(kind, kw):
    fe = small_frontend(kind, **kw)
    sig = make_signal(seconds=0.2, correlated=False)
    feats = fe.features(sig)
    rng = np.random.default_rng(1)
    grads = grad(tsum(feats * rng.normal(size=feats.shape)), fe.params)
    for name, g in grads.items():
        tensor = fe.params[name]
        assert g.shape == tensor.shape and np.isfinite(g).all(), name
        assert np.abs(g).max() > 0, name


def test_channel_permutation_leaves_features_unchanged():
    fe = small_frontend("sacc")
    sig = make_signal(channels=4)
    base = fe.features(sig).data
    perm = MultichannelSignal(sig.samples[[2, 0, 3, 1]], RATE)
    swapped = fe.features(perm).data
    assert np.allclose(base, swapped, atol=1e-9)


def test_analytic_real_ir_gradient_matches_fd():
    fe = small_frontend("analytic", n_filters=2, kernel_len=8, attn_dim=4)
    sig = make_signal(channels=2, seconds=0.05, correlated=False)
    rng = np.random.default_rng(2)
    probe = rng.normal(size=((sig.n_samples - 8) // 160 + 1, 4))

    def loss_value():
        return float(tsum(fe.features(sig) * probe).data)

    feats = fe.features(sig)
    loss = tsum(feats * probe)
    backward(loss)
    got = fe.params["real_ir"].grad.copy()
    ir = fe.params["real_ir"].data
    h = 1e-5
    for index in [(0, 0), (0, 5), (1, 3), (1, 7)]:
        kept = ir[index]
        ir[index] = kept + h
        hi = loss_value()
        ir[index] = kept - h
        lo = loss_value()
        ir[index] = kept
        fd = (hi - lo) / (2 * h)
        assert abs(got[index] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_mvdr_frontend_is_fixed_and_sane():
    geom = ArrayGeometry.uniform_circular(3, 0.05)
    fe = MvdrFrontend(MvdrConfig(geometry=geom))
    assert fe.params == {}
    sig = make_signal(channels=3)
    feats = fe.features(sig)
    assert feats.shape == (48, 64)
    assert not feats.requires_grad
    assert np.isfinite(feats.data).all()


def test_config_roundtrip_rebuilds_identical_frontend():
    for fe in (small_frontend("sacc"),
               small_frontend("ecsacc"),
               small_frontend("icsacc"),
               small_frontend("analytic", n_filters=4, kernel_len=32),
               MvdrFrontend(MvdrConfig(
                   geometry=ArrayGeometry.uniform_circular(4, 0.1)))):
        # fe was built with seed 3, so the rebuilt params are its own
        clone = make_frontend(fe.config(), seed=3)
        assert clone.config() == fe.config()
        assert clone.feature_dim == fe.feature_dim
        assert set(clone.params) == set(fe.params)
        for name, t in fe.params.items():
            assert np.array_equal(clone.params[name].data, t.data), name


def test_make_frontend_rejects_nonsense():
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "wavelet"})
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "sacc", "n_heads": 4})
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "mvdr"})
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "ecsacc", "parts": "polar"})
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "analytic", "kernel_len": 33})
    with pytest.raises(ArgumentError):
        make_frontend("sacc")


@pytest.mark.parametrize("rate", [8000, 16000])
def test_analytic_kernels_longer_than_100_ms_are_rejected(rate):
    # The bank materialises an (L, L) Hilbert operator; 100000 taps would
    # ask for 74.5 GiB.
    fe = make_frontend({"kind": "analytic", "sample_rate": rate,
                        "kernel_len": rate // 10, "n_filters": 1})
    assert fe.kernel_len == rate // 10
    for kernel_len in (rate // 10 + 2, 100000):
        with pytest.raises(ArgumentError, match="kernel_len"):
            make_frontend({"kind": "analytic", "sample_rate": rate,
                           "kernel_len": kernel_len})


def test_analytic_stride_is_rejected():
    # The bank hops by the STFT hop; no config may set a hop of its own.
    with pytest.raises(ArgumentError, match="stride"):
        make_frontend({"kind": "analytic", "stride": 160})


@pytest.mark.parametrize("kind", TRAINABLE + ["analytic"])
def test_whole_float_config_values_build_the_int_frontend(kind):
    # JSON writers may emit 3.0 for 3, so an integer field takes it; it
    # must build what 3 builds.
    fe = make_frontend({"kind": kind, "attn_dim": 4, "seed": 3})
    clone = make_frontend({"kind": kind, "attn_dim": 4.0, "seed": 3.0})
    assert clone.config() == fe.config()
    assert set(clone.params) == set(fe.params)
    for name, t in fe.params.items():
        assert np.array_equal(clone.params[name].data, t.data), name
    with pytest.raises(ArgumentError):
        make_frontend({"kind": kind, "attn_dim": 4.5})


def test_sample_rate_mismatch_rejected():
    for fe in (small_frontend("sacc"),
               small_frontend("analytic", n_filters=2, kernel_len=16)):
        with pytest.raises(ArgumentError):
            fe.features(MultichannelSignal(np.zeros((2, 8000)), 8000))


def test_ecsacc_bank_inits_differ():
    fe = small_frontend("ecsacc")
    assert not np.allclose(fe.params["mag/wq"].data,
                           fe.params["phase/wq"].data)
