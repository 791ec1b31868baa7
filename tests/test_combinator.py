"""Combinator tests. The reference implementations in ``helpers`` are
deliberately naive per-frame loops with their own softmax, mean and std
code, so the vectorized tape path is checked against an independent route."""

import numpy as np
import pytest

from arrayvad import autodiff as ad
from arrayvad.combinator import (
    attention_init,
    combine_mag_phase_graph,
    combine_real_graph,
    weights_graph,
)
from arrayvad.errors import ArgumentError
from arrayvad.frontends import make_frontend
from arrayvad.signal_io import MultichannelSignal
from arrayvad.spectral import mel_project, stft

from helpers import (
    naive_ecsacc,
    naive_icsacc,
    naive_mvn,
    naive_weights,
    numeric_gradient,
    relative_error,
)

RATE = 16000


def random_values(c=4, t=6, k=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((c, t, k)) + 1j * rng.standard_normal((c, t, k))


def random_feats(c=4, t=6, k=9, seed=0):
    return np.random.default_rng(seed).standard_normal((c, t, k))


def random_signal(c=3, n=1600, seed=0):
    rng = np.random.default_rng(seed)
    return MultichannelSignal(0.1 * rng.standard_normal((c, n)), RATE)


def graph_weights(feats, p, value_split=None):
    """``weights_graph`` on (C, T, K) features; returns (T, C, cols)."""
    tensors = {name: ad.Tensor(arr) for name, arr in p.items()}
    feats_tc = ad.Tensor(np.transpose(feats, (1, 0, 2)))
    return weights_graph(feats_tc, tensors, value_split).data


def n_params(p):
    return sum(arr.size for arr in p.values())


def spectrum_tc(values):
    """(T, C, 2K) [real | imaginary] parts of complex (C, T, K) values."""
    return ad.Tensor(np.transpose(
        np.concatenate([values.real, values.imag], axis=-1), (1, 0, 2)))


def packed_weights(first, second):
    """(w_re, w_im) of a (magnitude, phase) weight column pair,
    a*cos(2*pi*b) and a*sin(2*pi*b), as the frontends pack them."""
    phase = 2.0 * np.pi * second
    return ad.Tensor(first * np.cos(phase)), ad.Tensor(first * np.sin(phase))


def real_weights(feats, p):
    """(C, T) real weights of (C, T, K) features."""
    return graph_weights(feats, p)[:, :, 0].T


def combine_real(w, mag):
    """``combine_real_graph`` of (C, T) weights and (C, T, K) values."""
    return combine_real_graph(ad.Tensor(w.T[:, :, None]),
                              ad.Tensor(np.transpose(mag, (1, 0, 2)))).data


def test_weights_graph_matches_naive_reference():
    feats = random_feats(c=5, t=7, k=11, seed=3)
    p = attention_init(11, 6, seed=4)
    got = real_weights(feats, p)
    want = naive_weights(feats, p)
    assert np.max(np.abs(got - want)) < 1e-12


def biased_init(feat_dim, attn_dim, seed):
    """``attention_init`` maps with a nonzero query bias."""
    p = attention_init(feat_dim, attn_dim, seed=seed)
    rng = np.random.default_rng(seed + 100)
    p["bq"] = rng.uniform(-0.5, 0.5, size=p["bq"].shape)
    return p


# (feat_dim, attn_dim) on both sides of feat_dim <= 2 * attn_dim, where
# ``weights_graph`` switches from the Q/K logits to the bilinear form.
LOGIT_FORMS = [
    pytest.param(11, 6, id="bilinear"),
    pytest.param(12, 6, id="bilinear-boundary"),
    pytest.param(13, 6, id="qk-boundary"),
    pytest.param(20, 4, id="qk"),
]


@pytest.mark.parametrize("feat_dim, attn_dim", LOGIT_FORMS)
def test_both_logit_forms_match_naive_reference(feat_dim, attn_dim):
    feats = random_feats(c=5, t=7, k=feat_dim, seed=feat_dim)
    p = biased_init(feat_dim, attn_dim, seed=attn_dim)
    assert np.max(np.abs(real_weights(feats, p) - naive_weights(feats, p))) < 1e-12


@pytest.mark.parametrize("feat_dim, attn_dim", LOGIT_FORMS)
def test_both_logit_forms_match_naive_split_value_head(feat_dim, attn_dim):
    # icsacc's layout: one bank over [first | second], two value columns.
    k = feat_dim // 2
    values = random_values(c=4, t=6, k=k, seed=feat_dim)
    p = biased_init(2 * k, attn_dim, seed=attn_dim)
    _, want = naive_icsacc(values, p, parts="real_imag")
    feats = np.concatenate([naive_mvn(values.real), naive_mvn(values.imag)],
                           axis=-1)
    got = graph_weights(feats, p, value_split=k)
    assert np.max(np.abs(got[:, :, 0].T - want.real)) < 1e-12
    assert np.max(np.abs(got[:, :, 1].T - want.imag)) < 1e-12


def test_weights_on_simplex_over_many_inputs():
    p = attention_init(9, 5, seed=8)
    for seed in range(20):
        feats = random_feats(c=6, t=4, k=9, seed=seed) * 10.0
        w = real_weights(feats, p)
        assert np.all(w >= 0) and np.all(w <= 1)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_identical_channels_give_uniform_weights():
    one = random_feats(c=1, t=5, k=7, seed=1)
    feats = np.repeat(one, 6, axis=0)
    w = real_weights(feats, attention_init(7, 4, seed=2))
    assert np.allclose(w, 1.0 / 6.0, atol=1e-12)


def test_weights_permute_with_channels_and_sum_is_invariant():
    feats = random_feats(c=6, t=5, k=8, seed=10)
    mag = np.abs(random_feats(c=6, t=5, k=8, seed=11))
    p = attention_init(8, 4, seed=12)
    perm = np.array([3, 0, 5, 1, 4, 2])
    w = real_weights(feats, p)
    w_perm = real_weights(feats[perm], p)
    assert np.allclose(w_perm, w[perm], atol=1e-12)
    a = combine_real(w, mag)
    b = combine_real(w_perm, mag[perm])
    assert np.allclose(a, b, atol=1e-12)


def test_dropping_duplicate_channels_keeps_combination():
    base = random_feats(c=3, t=4, k=6, seed=20)
    mag = np.abs(base) + 0.1
    dup = np.concatenate([base, base], axis=0)
    dup_mag = np.concatenate([mag, mag], axis=0)
    p = attention_init(6, 3, seed=21)
    full = combine_real(real_weights(dup, p), dup_mag)
    kept = combine_real(real_weights(base, p), mag)
    assert np.allclose(full, kept, atol=1e-6)


def test_combined_magnitude_stays_within_channel_envelope():
    feats = random_feats(c=5, t=6, k=7, seed=30)
    mag = np.abs(random_feats(c=5, t=6, k=7, seed=31))
    out = combine_real(real_weights(feats, attention_init(7, 4, seed=32)), mag)
    assert np.all(out <= mag.max(axis=0) + 1e-12)
    assert np.all(out >= mag.min(axis=0) - 1e-12)


def test_attention_width_mismatch_rejected():
    fe = make_frontend({"kind": "sacc", "attn_dim": 4}, seed=0)
    wide = attention_init(fe.stft_cfg.n_bins + 1, 4, seed=1)
    with pytest.raises(ArgumentError):
        fe.load_state(wide)


# -- EcSACC -------------------------------------------------------------------


def test_ecsacc_matches_naive_reference():
    values = random_values(c=4, t=5, k=8, seed=40)
    pm = attention_init(8, 4, seed=41)
    pp = attention_init(8, 4, seed=42)
    w_mag = graph_weights(naive_mvn(np.log(np.abs(values) + 1e-8)), pm)
    w_phase = graph_weights(naive_mvn(np.angle(values)), pp)
    re, im = combine_mag_phase_graph(*packed_weights(w_mag, w_phase),
                                     spectrum_tc(values))
    want, w = naive_ecsacc(values, pm, pp)
    assert np.max(np.abs(re.data + 1j * im.data - want)) < 1e-12
    assert np.allclose(w_mag[:, :, 0].T, np.abs(w), atol=1e-12)


def test_ecsacc_single_channel_reproduces_input():
    fe = make_frontend({"kind": "ecsacc", "attn_dim": 4}, seed=51)
    sig = random_signal(c=1, seed=50)
    values, _ = fe.combined(sig)
    spec = stft(sig).values
    assert np.max(np.abs(values - spec[0])) < 1e-12


def test_ecsacc_weight_magnitudes_on_simplex():
    fe = make_frontend({"kind": "ecsacc", "attn_dim": 3}, seed=61)
    _, weights = fe.combined(random_signal(c=5, seed=60))
    assert np.iscomplexobj(weights)
    assert np.allclose(np.abs(weights).sum(axis=0), 1.0, atol=1e-12)


def test_ecsacc_real_imag_parts_variant():
    fe = make_frontend({"kind": "ecsacc", "attn_dim": 3,
                        "parts": "real_imag"}, seed=71)
    sig = random_signal(c=3, seed=70)
    values, weights = fe.combined(sig)
    assert values.shape == (stft(sig).n_frames, 257)
    assert np.allclose(weights.real.sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(ArgumentError):
        make_frontend({"kind": "ecsacc", "parts": "nope"}, seed=71)


# -- IcSACC -------------------------------------------------------------------


def test_icsacc_matches_naive_reference():
    values = random_values(c=4, t=5, k=6, seed=80)
    p = attention_init(12, 5, seed=81)
    feats = np.concatenate([naive_mvn(np.log(np.abs(values) + 1e-8)),
                            naive_mvn(np.angle(values))], axis=-1)
    w = graph_weights(feats, p, value_split=6)
    re, im = combine_mag_phase_graph(*packed_weights(w[:, :, :1], w[:, :, 1:]),
                                     spectrum_tc(values))
    want, _ = naive_icsacc(values, p)
    assert np.max(np.abs(re.data + 1j * im.data - want)) < 1e-12


def test_icsacc_single_channel_reproduces_input():
    fe = make_frontend({"kind": "icsacc", "attn_dim": 4}, seed=91)
    sig = random_signal(c=1, seed=90)
    values, _ = fe.combined(sig)
    spec = stft(sig).values
    assert np.max(np.abs(values - spec[0])) < 1e-12


def test_icsacc_parameter_count_below_two_banks():
    for k, d in ((9, 4), (257, 256), (17, 8)):
        single = n_params(attention_init(2 * k, d, seed=1))
        bank = n_params(attention_init(k, d, seed=1))
        assert single == 4 * k * d + 2 * k + d
        assert single < 2 * bank
        assert 2 * bank - single == d


def test_icsacc_rejects_wrong_width():
    # the single bank reads both parts side by side: 2 * n_bins wide
    fe = make_frontend({"kind": "icsacc", "attn_dim": 3}, seed=95)
    narrow = attention_init(fe.stft_cfg.n_bins, 3, seed=96)
    with pytest.raises(ArgumentError):
        fe.load_state(narrow)


# -- SACC and features --------------------------------------------------------


def test_sacc_weights_give_convex_magnitude_combination():
    fe = make_frontend({"kind": "sacc", "attn_dim": 4}, seed=101)
    sig = random_signal(c=5, seed=100)
    values, weights = fe.combined(sig)
    mag = np.abs(stft(sig).values)
    assert not np.iscomplexobj(values) and not np.iscomplexobj(weights)
    assert np.all(values <= mag.max(axis=0) + 1e-12)
    assert np.all(values >= mag.min(axis=0) - 1e-12)
    assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-12)


def test_frontend_features_real_path_is_log_mel():
    fe = make_frontend({"kind": "sacc", "n_mels": 8, "attn_dim": 4}, seed=111)
    sig = random_signal(c=3, seed=110)
    feats = fe.features(sig).data
    values, _ = fe.combined(sig)
    assert feats.shape == (values.shape[0], 8)
    assert np.all(np.isfinite(feats))
    want = np.log(mel_project(values, 8, RATE) + 1e-8)
    assert np.allclose(feats, want, rtol=0, atol=1e-12)


def test_frontend_features_complex_path_takes_magnitude():
    fe = make_frontend({"kind": "ecsacc", "n_mels": 6, "attn_dim": 4},
                       seed=121)
    sig = random_signal(c=2, seed=120)
    feats = fe.features(sig).data
    values, _ = fe.combined(sig)
    assert np.iscomplexobj(values)
    assert feats.shape == (values.shape[0], 6)
    want = np.log(mel_project(np.abs(values), 6, RATE) + 1e-8)
    assert np.allclose(feats, want, rtol=0, atol=1e-12)


def test_frontend_features_analytic_path_concatenates_parts():
    fe = make_frontend({"kind": "analytic", "n_filters": 5, "kernel_len": 16,
                        "attn_dim": 4}, seed=7)
    sig = random_signal(c=2, n=800, seed=112)
    feats = fe.features(sig).data
    vals, _ = fe.combined(sig)
    assert feats.shape == (vals.shape[0], 10)
    assert np.array_equal(feats[:, :5], vals.real)
    assert np.array_equal(feats[:, 5:], vals.imag)


# -- gradients through the weight graph ---------------------------------------


def test_attention_gradients_match_finite_differences():
    feats = np.transpose(random_feats(c=3, t=4, k=5, seed=130), (1, 0, 2))
    probe = np.random.default_rng(131).standard_normal((4, 3, 1))
    init = attention_init(5, 4, seed=132)
    arrays = {k: v.copy() for k, v in init.items()}

    def loss_fn(arrs):
        p = {k: ad.parameter(v) for k, v in arrs.items()}
        w = weights_graph(ad.Tensor(feats), p)
        return (w * ad.Tensor(probe)).sum()

    params = {k: ad.parameter(v) for k, v in arrays.items()}
    w = weights_graph(ad.Tensor(feats), params)
    loss = (w * ad.Tensor(probe)).sum()
    got = ad.grad(loss, params)
    want = numeric_gradient(lambda arrs: float(loss_fn(arrs).data), arrays, h=1e-5)
    for name in arrays:
        # floor 1e-6 keeps finite-difference noise on near-zero gradient
        # entries out of the ratio
        assert relative_error(got[name], want[name], floor=1e-6) < 1e-4, name


@pytest.mark.parametrize("feat_dim", [
    pytest.param(5, id="bilinear"),
    pytest.param(9, id="qk"),
])
def test_biased_attention_gradients_match_finite_differences(feat_dim):
    feats = np.transpose(random_feats(c=3, t=4, k=feat_dim, seed=140), (1, 0, 2))
    probe = np.random.default_rng(141).standard_normal((4, 3, 1))
    arrays = biased_init(feat_dim, 4, seed=142)

    def loss_of(arrs):
        p = {k: ad.parameter(v) for k, v in arrs.items()}
        return p, (weights_graph(ad.Tensor(feats), p) * ad.Tensor(probe)).sum()

    params, loss = loss_of(arrays)
    got = ad.grad(loss, params)
    want = numeric_gradient(lambda arrs: float(loss_of(arrs)[1].data), arrays,
                            h=1e-5)
    assert set(arrays) == {"wq", "wk", "wv", "bq"}
    for name in arrays:
        assert relative_error(got[name], want[name], floor=1e-6) < 1e-4, name


# -- channel masks ------------------------------------------------------------

# One row per path: all channels, a pair, a triple, one channel.
MASK = np.array([[True, True, True, True, True],
                 [False, True, False, True, False],
                 [True, False, True, False, True],
                 [False, False, True, False, False]])


@pytest.mark.parametrize("feat_dim, attn_dim", LOGIT_FORMS)
@pytest.mark.parametrize("value_split", [None, 3], ids=["one-column", "split"])
def test_masked_weights_equal_weights_of_each_channel_subset(
        feat_dim, attn_dim, value_split):
    feats = random_feats(c=5, t=7, k=feat_dim, seed=feat_dim)
    p = biased_init(feat_dim, attn_dim, seed=attn_dim)
    tensors = {name: ad.Tensor(arr) for name, arr in p.items()}
    feats_tc = ad.Tensor(np.transpose(feats, (1, 0, 2)))
    got = weights_graph(feats_tc, tensors, value_split, mask=MASK).data
    assert got.shape == (7, len(MASK), 5, 1 if value_split is None else 2)
    for path, keep in enumerate(MASK):
        want = graph_weights(feats[keep], p, value_split)
        assert np.max(np.abs(got[:, path][:, keep] - want)) < 1e-12
        assert np.all(got[:, path][:, ~keep] == 0.0)
    assert np.all(got[:, -1][:, MASK[-1]] == 1.0)


def test_masked_combination_is_one_product_per_path():
    values = random_values(c=5, t=6, k=4, seed=150)
    rng = np.random.default_rng(151)
    w = rng.uniform(size=(6, len(MASK), 5, 1)) * MASK[None, :, :, None]
    mag = ad.Tensor(np.transpose(np.abs(values), (1, 0, 2)))
    got = combine_real_graph(ad.Tensor(w), mag).data
    reim = spectrum_tc(values)
    w_im = ad.Tensor(w[::-1].copy())
    re, im = combine_mag_phase_graph(ad.Tensor(w), w_im, reim)
    assert got.shape == re.shape == im.shape == (6, len(MASK), 4)
    for path in range(len(MASK)):
        one = combine_real_graph(ad.Tensor(w[:, path]), mag).data
        assert np.max(np.abs(got[:, path] - one)) < 1e-12
        one_re, one_im = combine_mag_phase_graph(
            ad.Tensor(w[:, path]), ad.Tensor(w_im.data[:, path]), reim)
        assert np.max(np.abs(re.data[:, path] - one_re.data)) < 1e-12
        assert np.max(np.abs(im.data[:, path] - one_im.data)) < 1e-12


@pytest.mark.parametrize("feat_dim", [
    pytest.param(5, id="bilinear"),
    pytest.param(9, id="qk"),
])
def test_masked_attention_gradients_match_finite_differences(feat_dim):
    feats = np.transpose(random_feats(c=5, t=4, k=feat_dim, seed=160),
                         (1, 0, 2))
    probe = np.random.default_rng(161).standard_normal((4, len(MASK), 5, 1))
    arrays = biased_init(feat_dim, 4, seed=162)

    def loss_of(arrs):
        p = {k: ad.parameter(v) for k, v in arrs.items()}
        w = weights_graph(ad.Tensor(feats), p, mask=MASK)
        return p, (w * ad.Tensor(probe)).sum()

    params, loss = loss_of(arrays)
    got = ad.grad(loss, params)
    want = numeric_gradient(lambda arrs: float(loss_of(arrs)[1].data), arrays,
                            h=1e-5)
    for name in arrays:
        assert relative_error(got[name], want[name], floor=1e-6) < 1e-4, name


@pytest.mark.parametrize("mask", [
    pytest.param(MASK[:, :4], id="wrong-width"),
    pytest.param(MASK[0], id="one-dimensional"),
    pytest.param(MASK.astype(int), id="not-boolean"),
    pytest.param(np.vstack([MASK, np.zeros(5, dtype=bool)]), id="empty-row"),
])
def test_bad_channel_masks_are_rejected(mask):
    feats = ad.Tensor(np.transpose(random_feats(c=5, t=3, k=6), (1, 0, 2)))
    p = {name: ad.Tensor(arr) for name, arr in attention_init(6, 4).items()}
    with pytest.raises(ArgumentError):
        weights_graph(feats, p, mask=mask)
