"""Trainer tests: loss oracles, masking stream, Adam, loop behavior."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from arrayvad import autodiff as ad
from arrayvad.arraysim import SceneSpec, toy_dataset
from arrayvad.autodiff import Tensor, backward, parameter, tsum
from arrayvad.beamform import ArrayGeometry
from arrayvad.checkpoint import named_tensors
from arrayvad.errors import ArgumentError, NumericError
from arrayvad.frontends import FrameCache, make_frontend
from arrayvad.seqmodel import TcnConfig, tcn_forward, tcn_init
from arrayvad.signal_io import (MultichannelSignal, channel_mask,
                                mask_channels, slice_segment)
from arrayvad.segeval import FrameLabels
from arrayvad.trainer import (
    AdamState,
    InvariantConfig,
    TrainConfig,
    Xorshift64Star,
    _aligned_labels,
    _crop_item,
    _duplicate_mask,
    _mean,
    _step,
    adam_step,
    cross_entropy,
    dual_loss,
    duplicate_stream,
    invariant_loss,
    make_masked_duplicates,
    train,
)

from helpers import naive_dual_steps

# -- cross entropy ------------------------------------------------------------


def test_cross_entropy_confident_and_uniform():
    y = np.array([0, 1, 2, 1])
    confident = np.full((4, 3), -10.0)
    confident[np.arange(4), y] = 10.0
    assert float(cross_entropy(Tensor(confident), y).data) <= 1e-8
    uniform = np.zeros((4, 3))
    assert float(cross_entropy(Tensor(uniform), y).data) == pytest.approx(
        math.log(3.0), abs=1e-12)


def test_cross_entropy_matches_naive_formula():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 3)) * 3.0
    y = rng.integers(0, 3, size=6)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.log(p[np.arange(6), y]).mean()
    got = float(cross_entropy(Tensor(logits), y).data)
    assert got == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_stable_for_huge_logits():
    logits = np.array([[1000.0, 0.0, -1000.0]])
    value = float(cross_entropy(Tensor(logits), np.array([0])).data)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(1)
    logits = parameter(rng.normal(size=(5, 3)))
    y = np.array([2, 0, 1, 1, 2])
    backward(cross_entropy(logits, y))
    got = logits.grad.copy()
    h = 1e-5
    for index in [(0, 0), (1, 2), (3, 1), (4, 2)]:
        kept = logits.data[index]
        logits.data[index] = kept + h
        hi = float(cross_entropy(logits, y).data)
        logits.data[index] = kept - h
        lo = float(cross_entropy(logits, y).data)
        logits.data[index] = kept
        fd = (hi - lo) / (2 * h)
        assert abs(got[index] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_cross_entropy_validation():
    with pytest.raises(ArgumentError):
        cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1]))
    with pytest.raises(ArgumentError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ArgumentError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))


# -- invariant loss -----------------------------------------------------------


def test_invariant_loss_null_and_positive():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 4)))
    same = [Tensor(x.data.copy()), Tensor(x.data.copy())]
    assert float(invariant_loss(x, same).data) == pytest.approx(0.0, abs=1e-12)
    bumped = [Tensor(x.data + 0.1), Tensor(x.data.copy())]
    assert float(invariant_loss(x, bumped).data) > 0


def test_invariant_loss_zero_map_guard():
    x = Tensor(np.eye(2))
    value = float(invariant_loss(x, [Tensor(np.zeros((2, 2)))]).data)
    assert np.isfinite(value)
    # numerator sqrt(2), denominator (sqrt(2)+eps)*eps -> about 1e12
    assert value == pytest.approx(1e12, rel=1e-6)


def test_invariant_loss_matches_direct_reevaluation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 5))
    dups = [0.3 * x, x + rng.normal(size=x.shape)]
    got = float(invariant_loss(Tensor(x), [Tensor(d) for d in dups]).data)
    eps = 1e-12
    ref_n = np.linalg.norm(x) + eps
    expected = np.mean([
        np.linalg.norm(x - d) / (ref_n * (np.linalg.norm(d) + eps))
        for d in dups])
    assert got == pytest.approx(expected, rel=1e-12)


def test_invariant_loss_validation():
    x = Tensor(np.zeros((3, 3)))
    with pytest.raises(ArgumentError):
        invariant_loss(x, [])
    with pytest.raises(ArgumentError):
        invariant_loss(x, [Tensor(np.zeros((2, 3)))])


# -- dual loss ----------------------------------------------------------------


def test_dual_loss_cases():
    assert dual_loss(1.0, 0.2, 1.0) == 1.0
    assert dual_loss(1.0, 0.2, 0.0) == 0.2
    assert dual_loss(1.0, 0.2, 0.7) == pytest.approx(0.76, abs=1e-12)
    ce, inv = Tensor(np.array(2.0)), Tensor(np.array(0.5))
    assert float(dual_loss(ce, inv, 0.5).data) == pytest.approx(1.25)
    with pytest.raises(ArgumentError):
        dual_loss(1.0, 0.2, 1.5)
    with pytest.raises(ArgumentError):
        dual_loss(1.0, 0.2, -0.1)


# -- masking stream -----------------------------------------------------------


def _xorshift_oracle(state, count):
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & ((1 << 64) - 1)
        state ^= state >> 27
        out.append((state * 2685821657736338717) & ((1 << 64) - 1))
    return out


def test_xorshift_matches_reference_recurrence():
    for seed_state in (1, 42, 2**63 + 11):
        gen = Xorshift64Star(seed_state)
        got = [gen.next_u64() for _ in range(5)]
        assert got == _xorshift_oracle(seed_state, 5)
    with pytest.raises(ArgumentError):
        Xorshift64Star(0)


def test_bounded_draws_cover_range_uniformly():
    gen = Xorshift64Star(7)
    draws = [gen.below(7) for _ in range(7000)]
    counts = np.bincount(draws, minlength=7)
    assert counts.min() > 0
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    # df=6; 22.46 is the 0.1% point, so a sound generator almost never trips
    assert chi2 < 22.46


def make_wide_signal(channels=8, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return MultichannelSignal(0.1 * rng.normal(size=(channels, n)), 16000)


def _drawn_subsets(sig, cfg, step):
    """Each duplicate's kept channel ids, drawn from its own stream: a
    uniform count, then a partial Fisher-Yates shuffle of the ids."""
    n_ch = sig.n_channels
    subsets = []
    for p in range(cfg.p):
        rng = duplicate_stream(cfg, step, p)
        n_keep = cfg.min_keep + rng.below(n_ch - cfg.min_keep + 1)
        pool = list(sig.channel_ids)
        for i in range(n_keep):
            j = i + rng.below(n_ch - i)
            pool[i], pool[j] = pool[j], pool[i]
        subsets.append(set(pool[:n_keep]))
    return subsets


def test_masked_duplicates_basics():
    sig = make_wide_signal()
    cfg = InvariantConfig(p=2, rng_seed=5)
    # rows mark channels by id, so they follow ids out of row order too
    for channel_ids in (None, (3, 7, 0, 5, 1, 6, 2, 4)):
        sig = MultichannelSignal(sig.samples, sig.sample_rate, channel_ids)
        ids = np.asarray(sig.channel_ids)
        dups = make_masked_duplicates(sig, cfg, step=0)
        assert dups.shape == (2, 8) and dups.dtype == bool
        for row, kept in zip(dups, _drawn_subsets(sig, cfg, 0)):
            assert 2 <= row.sum() <= 8
            assert set(ids[row].tolist()) == kept
    again = make_masked_duplicates(sig, cfg, step=0)
    assert np.array_equal(dups, again)
    other = make_masked_duplicates(sig, cfg, step=1)
    assert not np.array_equal(dups, other)


def test_masked_duplicates_two_channels_keep_both():
    sig = make_wide_signal(channels=2)
    for step in range(20):
        assert make_masked_duplicates(sig, InvariantConfig(p=2), step).all()


def test_masked_duplicate_count_distribution_uniform():
    sig = make_wide_signal()
    cfg = InvariantConfig(p=1, rng_seed=11)
    counts = np.zeros(9, dtype=int)
    for step in range(10000):
        counts[make_masked_duplicates(sig, cfg, step)[0].sum()] += 1
    observed = counts[2:9]
    expected = 10000.0 / 7.0
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert observed.min() > 0
    assert chi2 < 22.46


def test_masked_duplicates_validation():
    sig = make_wide_signal(channels=1)
    with pytest.raises(ArgumentError):
        make_masked_duplicates(sig, InvariantConfig())
    with pytest.raises(ArgumentError):
        make_masked_duplicates(make_wide_signal(channels=3),
                               InvariantConfig(min_keep=4))
    with pytest.raises(ArgumentError):
        InvariantConfig(p=0)
    with pytest.raises(ArgumentError):
        InvariantConfig(lam=1.2)


def test_invariant_config_dict_spells_lam_as_lambda():
    assert InvariantConfig.from_dict({}) == InvariantConfig()
    assert InvariantConfig.from_dict({"lambda": 0.5, "p": 3.0}) == \
        InvariantConfig(p=3, lam=0.5)
    with pytest.raises(ArgumentError, match="'lam'"):
        InvariantConfig.from_dict({"lam": 0.5})


# -- Adam ---------------------------------------------------------------------


def make_params(values):
    return {name: parameter(np.array(val, dtype=np.float64))
            for name, val in values.items()}


def test_adam_zero_grad_keeps_params():
    params = make_params({"w": [1.0, -2.0]})
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert (params["w"].data == [1.0, -2.0]).all()
    assert state.t == 1


def test_adam_first_step_closed_form():
    g = np.array([0.3, -2.0, 1e-4])
    params = make_params({"w": [0.0, 0.0, 0.0]})
    state = AdamState.for_params(params)
    adam_step(params, {"w": g.copy()}, state, lr=1e-3)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"].data, expected, atol=1e-9)


def test_adam_constant_grad_step_bound():
    params = make_params({"w": [0.0]})
    state = AdamState.for_params(params)
    g = {"w": np.array([0.4])}
    prev = params["w"].data.copy()
    for _ in range(50):
        adam_step(params, g, state, lr=1e-2)
        delta = abs(params["w"].data[0] - prev[0])
        assert delta <= 1e-2 * 1.05
        prev = params["w"].data.copy()


def test_adam_in_place_equals_the_formula_bitwise():
    # The formula as written before the update moved into ``out=`` arrays.
    rng = np.random.default_rng(21)
    shapes = {"w": (5, 3), "b": (4,), "s": ()}
    params = make_params({k: rng.normal(size=s) for k, s in shapes.items()})
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = AdamState.for_params(params)
    moments = [state.m[k] for k in shapes] + [state.v[k] for k in shapes]
    for t in range(1, 8):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)
                 for k, s in shapes.items()}
        held = {k: g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, lr=3e-3)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for k, g in held.items():
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            want[k] -= 3e-3 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
            assert (params[k].data == want[k]).all(), (t, k)
            assert (state.m[k] == m[k]).all() and (state.v[k] == v[k]).all()
            assert (grads[k] == g).all()  # the gradients are not scratch
    # the moments were updated in the arrays ``for_params`` made
    assert all(a is b for a, b in zip(
        moments, [state.m[k] for k in shapes] + [state.v[k] for k in shapes]))


def test_adam_rejects_nonfinite():
    params = make_params({"w": [0.0]})
    state = AdamState.for_params(params)
    with pytest.raises(NumericError):
        adam_step(params, {"w": np.array([np.nan])}, state, lr=1e-3)


# -- training loop ------------------------------------------------------------


def toy_items(n_items, seed, duration=0.64):
    template = SceneSpec(
        geometry=ArrayGeometry.uniform_circular(2, 0.05),
        duration_s=duration,
        sources=(),
        noise="white",
        snr_db=15.0,
        seed=0,
    )
    return list(toy_dataset(template, n_items, seed=seed))


def tiny_setup(fe_seed=3, model_seed=4):
    frontend = make_frontend({"kind": "sacc", "attn_dim": 4, "seed": fe_seed})
    cfg = TcnConfig(input_dim=frontend.feature_dim, bottleneck=8, hidden=8,
                    layers_per_block=2, blocks=1)
    return frontend, tcn_init(cfg, seed=model_seed)


def test_train_runs_and_logs(tmp_path):
    frontend, model = tiny_setup()
    items = toy_items(6, seed=1)
    tcfg = TrainConfig(batch_size=2, steps_per_epoch=3, max_epochs=2,
                       patience=5, seed=0)
    log = tmp_path / "log.ndjson"
    result = train(frontend, model, items[:4], items[4:], tcfg,
                   icfg=InvariantConfig(p=2, lam=0.7, rng_seed=1),
                   log_path=log)
    step_records = [r for r in result.history if "step" in r]
    epoch_records = [r for r in result.history if "val_osd_f1" in r]
    assert len(step_records) == 6
    assert len(epoch_records) == 2
    for r in step_records:
        assert set(r) == {"step", "epoch", "ce", "inv", "loss"}
        assert np.isfinite(r["loss"])
    assert result.best_epoch >= 0
    lines = log.read_text().strip().split("\n")
    assert [json.loads(line) for line in lines] == result.history


def test_train_log_keeps_records_up_to_a_failure(tmp_path, monkeypatch):
    frontend, model = tiny_setup()
    items = toy_items(4, seed=1)
    tcfg = TrainConfig(batch_size=1, steps_per_epoch=4, max_epochs=1,
                       patience=5, seed=0)
    real_grad = ad.grad
    calls = []

    def failing_grad(loss, params):
        calls.append(None)
        if len(calls) == 3:
            raise NumericError("injected failure")
        return real_grad(loss, params)

    monkeypatch.setattr(ad, "grad", failing_grad)
    log = tmp_path / "log.ndjson"
    with pytest.raises(NumericError, match="step 2"):
        train(frontend, model, items[:3], items[3:], tcfg, log_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1]


def test_train_is_deterministic():
    runs = []
    for _ in range(2):
        frontend, model = tiny_setup()
        items = toy_items(5, seed=2)
        tcfg = TrainConfig(batch_size=2, steps_per_epoch=2, max_epochs=1,
                           patience=2, seed=7)
        result = train(frontend, model, items[:3], items[3:], tcfg,
                       icfg=InvariantConfig(p=2, lam=0.5, rng_seed=3))
        runs.append((result.history,
                     model.tensors["out/w"].data.copy()))
    assert runs[0][0] == runs[1][0]
    assert (runs[0][1] == runs[1][1]).all()


def test_lambda_one_equals_pure_ce():
    outputs = []
    for icfg in (None, InvariantConfig(p=2, lam=1.0, rng_seed=5)):
        frontend, model = tiny_setup()
        items = toy_items(4, seed=3)
        tcfg = TrainConfig(batch_size=2, steps_per_epoch=2, max_epochs=1,
                           patience=2, seed=1)
        train(frontend, model, items[:3], items[3:], tcfg, icfg=icfg)
        outputs.append({name: t.data.copy()
                        for name, t in model.tensors.items()})
    for name in outputs[0]:
        assert (outputs[0][name] == outputs[1][name]).all(), name


# -- one analysis per item -----------------------------------------------------


def analyse_once_frontend(kind, attn_dim, **kw):
    if kind == "analytic":
        kw = {"n_filters": 32, "kernel_len": 64, **kw}
    return make_frontend({"kind": kind, "attn_dim": attn_dim, "seed": 3, **kw})


def six_channel_signal(seconds=0.5, channel_ids=None):
    rng = np.random.default_rng(12)
    n = int(seconds * 16000)
    base = rng.normal(size=n)
    data = np.stack([np.roll(base, 3 * c) + 0.1 * rng.normal(size=n)
                     for c in range(6)])
    return MultichannelSignal(0.1 * data, 16000, channel_ids=channel_ids)


# attn_dim 8 takes the Q/K logits and 256 the bilinear form for every kind
# but icsacc, whose 514 attention inputs need attn_dim 257 for the latter.
ANALYSE_ONCE_CASES = [
    pytest.param(kind, kw, attn_dim, id=f"{name}-{attn_dim}")
    for name, kind, kw in [
        ("sacc", "sacc", {}),
        ("analytic", "analytic", {}),
        ("ecsacc", "ecsacc", {"parts": "mag_phase"}),
        ("ecsacc-real_imag", "ecsacc", {"parts": "real_imag"}),
        ("icsacc", "icsacc", {"parts": "mag_phase"}),
        ("icsacc-real_imag", "icsacc", {"parts": "real_imag"}),
    ]
    for attn_dim in ((8, 256, 257) if kind == "icsacc" else (8, 256))
]

KEEP_SETS = [(0, 1), (1, 3, 4), (0, 2, 3, 5), (1, 2, 3, 4, 5),
             (0, 1, 2, 3, 4, 5), (4,)]


def keep_mask(sig, keep_sets):
    return np.stack([channel_mask(sig, keep) for keep in keep_sets])


def assert_close(got, want, rtol=1e-12):
    """Within ``rtol`` of the largest magnitude of ``want``."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("kind, kw, attn_dim", ANALYSE_ONCE_CASES)
def test_channel_rows_of_one_analysis_equal_masked_features(kind, kw,
                                                            attn_dim):
    # One analysis of all channels and a channel mask give every keep set,
    # a one-channel set included, the features of its own masked signal;
    # the masked softmaxes add zeros in another order, so not bit for bit.
    # RuntimeWarnings are errors in this suite, so an -inf - -inf fails it.
    fe = analyse_once_frontend(kind, attn_dim, **kw)
    sig = six_channel_signal()
    inputs = fe.normalise(fe.analyse(sig))
    paths = fe.window_features(inputs, keep_mask(sig, KEEP_SETS))
    assert paths.shape[1] == len(KEEP_SETS)
    for p, keep in enumerate(KEEP_SETS):
        want = fe.features(mask_channels(sig, keep)).data
        assert_close(paths.data[:, p], want)


def test_channel_rows_follow_the_duplicate_channel_order():
    # Channel ids out of row order: the mask marks rows by id, so each
    # duplicate's path still sees the channels it kept.
    fe = analyse_once_frontend("sacc", 8)
    sig = six_channel_signal(channel_ids=(4, 0, 5, 2, 1, 3))
    inputs = fe.normalise(fe.analyse(sig))
    ids = np.asarray(sig.channel_ids)
    for step in range(4):
        dups = make_masked_duplicates(sig, InvariantConfig(p=2), step)
        paths = fe.window_features(inputs, dups)
        for p, row in enumerate(dups):
            want = fe.features(mask_channels(sig, ids[row])).data
            assert_close(paths.data[:, p], want)


def _values(part):
    return part.data if isinstance(part, Tensor) else part


@pytest.mark.parametrize("kind, kw, attn_dim", ANALYSE_ONCE_CASES)
def test_normalise_commutes_with_channel_rows(kind, kw, attn_dim):
    # MVN is per channel over the frames, so the normalised inputs of a
    # channel subset are rows of the full signal's: what lets one
    # normalisation serve every masked path
    fe = analyse_once_frontend(kind, attn_dim, **kw)
    sig = six_channel_signal()
    frames = fe.analyse(sig)
    inputs = fe.normalise(frames)
    for keep in KEEP_SETS:
        rows = np.array(keep)
        want = fe.normalise(tuple(
            ad.getitem(part, (slice(None), rows)) if isinstance(part, Tensor)
            else part[:, rows] for part in frames))
        assert len(inputs) == len(want)
        for g, w in zip(inputs, want):
            assert np.array_equal(_values(g)[:, rows], _values(w)), keep


@pytest.mark.parametrize("kind, kw, attn_dim", ANALYSE_ONCE_CASES)
def test_masked_weights_are_zero_outside_each_keep_set(kind, kw, attn_dim):
    fe = analyse_once_frontend(kind, attn_dim, **kw)
    sig = six_channel_signal()
    mask = keep_mask(sig, KEEP_SETS)
    _, weights = fe._combine(fe.normalise(fe.analyse(sig)), mask)
    for w in weights if isinstance(weights, tuple) else (weights,):
        assert w.shape[1:3] == mask.shape
        assert np.all(w.data[:, ~mask] == 0.0)
        assert np.all(np.isfinite(w.data))
    if kind in ("sacc", "analytic"):
        assert np.allclose(weights.data.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(weights.data[:, -1, 4] == 1.0)  # the one-channel set


@pytest.mark.parametrize("kind, kw, attn_dim", ANALYSE_ONCE_CASES)
def test_analysed_normalised_and_channel_row_parts_are_contiguous(kind, kw,
                                                                 attn_dim):
    fe = analyse_once_frontend(kind, attn_dim, **kw)
    sig = six_channel_signal()
    frames = fe.analyse(sig)
    inputs = fe.normalise(frames)
    paths = fe.window_features(inputs, keep_mask(sig, KEEP_SETS))
    for stage, parts in [("analyse", frames), ("normalise", inputs),
                         ("masked paths", (paths,))]:
        for i, part in enumerate(parts):
            assert _values(part).flags.c_contiguous, (stage, i)


def test_rows_matmul_operands_reshape_without_a_copy(monkeypatch):
    # ``_rows_matmul`` folds (..., K) rows into one GEMM operand; a strided
    # operand would be copied there in the forward and again in backward.
    # Every frontend path (features, combined, duplicates, backward and
    # sliding windows through FrameCache) hands it operands whose rows are a
    # view.
    seen = []
    rows_matmul = ad._rows_matmul

    def checked(a, b):
        seen.append(np.shares_memory(a.data.reshape(-1, a.shape[-1]), a.data))
        return rows_matmul(a, b)

    monkeypatch.setattr(ad, "_rows_matmul", checked)
    items = six_mic_items(4, seed=6)
    tcfg = TrainConfig(batch_size=1, steps_per_epoch=1, max_epochs=1,
                       patience=1, segment_s=0.64, seed=5)
    for kind, kw in [("sacc", {}), ("analytic", {}),
                     ("ecsacc", {"parts": "mag_phase"}),
                     ("ecsacc", {"parts": "real_imag"}),
                     ("icsacc", {"parts": "mag_phase"}),
                     ("icsacc", {"parts": "real_imag"})]:
        for attn_dim in (8, 256):
            fe = analyse_once_frontend(kind, attn_dim, **kw)
            cfg = TcnConfig(input_dim=fe.feature_dim, bottleneck=8, hidden=8,
                            layers_per_block=2, blocks=1)
            train(fe, tcn_init(cfg, seed=4), items[:3], items[3:], tcfg,
                  DUAL_ICFG)
            signal = items[3].signal
            fe.combined(signal)
            cache = FrameCache(fe)
            with ad.no_grad():
                for start_s in (0.0, 0.1):
                    fe.features(slice_segment(signal, start_s, 0.5), cache)
    assert seen and all(seen)


def six_mic_items(n_items, seed):
    template = SceneSpec(geometry=ArrayGeometry.uniform_circular(6, 0.1),
                         duration_s=0.84, noise="white", snr_db=15.0)
    return list(toy_dataset(template, n_items, seed=seed))


def analyse_once_setup(kind, kw):
    fe = analyse_once_frontend(kind, 8, **kw)
    cfg = TcnConfig(input_dim=fe.feature_dim, bottleneck=8, hidden=8,
                    layers_per_block=2, blocks=1)
    return fe, tcn_init(cfg, seed=4)


DUAL_TCFG = TrainConfig(batch_size=2, steps_per_epoch=3, max_epochs=1,
                        patience=1, segment_s=0.64, seed=5)
DUAL_ICFG = InvariantConfig(p=2, lam=0.7, rng_seed=9)


@pytest.mark.parametrize("kind, kw", [
    pytest.param("sacc", {}, id="sacc"),
    pytest.param("analytic", {}, id="analytic"),
    pytest.param("ecsacc", {"parts": "mag_phase"}, id="ecsacc"),
    pytest.param("icsacc", {"parts": "real_imag"}, id="icsacc-real_imag"),
])
def test_dual_history_equals_per_duplicate_loop(kind, kw):
    # The masked paths sum the softmaxes' zeros in another order than a
    # duplicate's own features do (about 5e-16 relative), so the histories
    # agree to 1e-12, not bit for bit.
    items = six_mic_items(4, seed=6)
    result = train(*analyse_once_setup(kind, kw), items[:3], items[3:],
                   DUAL_TCFG, DUAL_ICFG)
    got = [r for r in result.history if "step" in r]
    want = naive_dual_steps(*analyse_once_setup(kind, kw), items[:3],
                            DUAL_TCFG, DUAL_ICFG)
    assert [sorted(r) for r in got] == [sorted(r) for r in want]
    assert [(r["step"], r["epoch"]) for r in got] == [
        (r["step"], r["epoch"]) for r in want]
    for g, w in zip(got, want):
        for name in ("ce", "loss", "inv"):
            assert abs(g[name] - w[name]) <= 1e-12 * abs(w[name]), name


def test_dual_step_analyses_each_item_once(monkeypatch):
    fe, model = analyse_once_setup("sacc", {})
    calls = []
    analyse = fe.analyse

    def counted(signal):
        calls.append(signal.n_channels)
        return analyse(signal)

    monkeypatch.setattr(fe, "analyse", counted)
    items = six_mic_items(4, seed=6)
    train(fe, model, items[:3], items[3:], DUAL_TCFG, DUAL_ICFG)
    # one analysis of all six channels per cropped item and step, plus one
    # per validation item; no duplicate is analysed on its own
    assert calls == [6] * (DUAL_TCFG.steps_per_epoch * DUAL_TCFG.batch_size + 1)


def _holds_tensor(value):
    if isinstance(value, Tensor):
        return True
    if isinstance(value, dict):
        return any(_holds_tensor(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_tensor(v) for v in value)
    return False


@pytest.mark.parametrize("icfg", [None, DUAL_ICFG], ids=["ce", "dual"])
def test_step_returns_floats_and_numpy_gradients_only(icfg):
    fe, model = analyse_once_setup("ecsacc", {"parts": "mag_phase"})
    params = named_tensors(fe, model)
    items = six_mic_items(2, seed=6)
    out = _step(fe, model, params, items, 0.64, icfg,
                np.random.default_rng(0), step=0)
    assert not _holds_tensor(out)
    losses, grads = out
    assert set(losses) == ({"ce", "loss"} if icfg is None
                           else {"ce", "inv", "loss"})
    assert all(type(v) is float for v in losses.values())
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert type(g) is np.ndarray and g.shape == params[name].shape


def _one_graph_step(frontend, model, params, items, segment_s, icfg, rng,
                    step):
    """``_step``'s oracle: the whole batch's forward pass, the batch mean
    loss and one ``autodiff.grad`` sweep of it."""
    ce_terms, inv_terms = [], []
    for offset, item in enumerate(items):
        signal, labels = _crop_item(item, segment_s, rng)
        if icfg is not None:
            dups = make_masked_duplicates(
                signal, icfg, step=step * len(items) + offset)
            paths = frontend.features(signal, mask=_duplicate_mask(dups))
            feats = paths[:, 0]
            inv_terms.append(invariant_loss(feats, [
                paths[:, p] for p in range(1, len(dups) + 1)]))
        else:
            feats = frontend.features(signal)
        logits = tcn_forward(model, feats)
        ce_terms.append(cross_entropy(
            logits, _aligned_labels(labels, logits.shape[0])))
    ce_mean = _mean(ce_terms)
    losses = {"ce": float(ce_mean.data)}
    loss = ce_mean
    if icfg is not None:
        inv_mean = _mean(inv_terms)
        loss = dual_loss(ce_mean, inv_mean, icfg.lam)
        losses["inv"] = float(inv_mean.data)
    losses["loss"] = float(loss.data)
    return losses, ad.grad(loss, params)


@pytest.mark.parametrize("icfg", [None, DUAL_ICFG], ids=["ce", "dual"])
@pytest.mark.parametrize("kind, kw", [
    pytest.param("sacc", {}, id="sacc"),
    pytest.param("analytic", {}, id="analytic"),
    pytest.param("ecsacc", {"parts": "mag_phase"}, id="ecsacc"),
    pytest.param("icsacc", {"parts": "mag_phase"}, id="icsacc"),
])
def test_per_item_sweeps_equal_one_batch_graph(kind, kw, icfg):
    items = six_mic_items(3, seed=8)
    got_fe, got_model = analyse_once_setup(kind, kw)
    want_fe, want_model = analyse_once_setup(kind, kw)
    want_params = named_tensors(want_fe, want_model)
    # a stale gradient on a parameter must not leak into either result
    for p in named_tensors(got_fe, got_model).values():
        p.grad = np.full(p.shape, 7.0)
    got_losses, got = _step(got_fe, got_model,
                            named_tensors(got_fe, got_model), items, 0.64,
                            icfg, np.random.default_rng(2), step=1)
    want_losses, want = _one_graph_step(want_fe, want_model, want_params,
                                        items, 0.64, icfg,
                                        np.random.default_rng(2), step=1)
    assert got_losses == want_losses  # bit for bit
    assert set(got) == set(want)
    for name, w in want.items():
        scale = np.max(np.abs(w))
        assert np.max(np.abs(got[name] - w)) <= 1e-12 * scale, name


def test_a_diverging_batch_item_is_named_and_updates_nothing(monkeypatch):
    frontend, model = tiny_setup()
    items = toy_items(4, seed=1)
    tcfg = TrainConfig(batch_size=2, steps_per_epoch=5, max_epochs=1,
                       patience=5, seed=0)
    params = named_tensors(frontend, model)
    real_grad = ad.grad
    calls, before = [], {}

    def failing_grad(loss, grad_params):
        calls.append(None)
        if len(calls) == 2 * 3 + 2:  # the second item of step 3
            before.update({k: p.data.copy() for k, p in params.items()})
            raise NumericError("injected failure")
        return real_grad(loss, grad_params)

    monkeypatch.setattr(ad, "grad", failing_grad)
    with pytest.raises(NumericError,
                       match=r"training diverged at step 3, batch item 1 of "
                             r"2: injected failure"):
        train(frontend, model, items[:3], items[3:], tcfg)
    assert set(before) == set(params)
    for name, p in params.items():
        assert (p.data == before[name]).all(), name


def _train_peak_bytes(steps, batch=2):
    """tracemalloc peak of an ecsacc dual ``train`` above the memory traced
    when it starts, at the acceptance-criterion-8 config: 8 mics, attn_dim
    8, TCN 16/16 with 2 x 2 layers, batch ``batch`` (2 there), 0.64 s
    segments."""
    template = SceneSpec(geometry=ArrayGeometry.uniform_circular(8, 0.1),
                         duration_s=0.64, noise="white", snr_db=15.0)
    items = list(toy_dataset(template, 5, seed=3))
    fe = make_frontend({"kind": "ecsacc", "attn_dim": 8, "seed": 1})
    model = tcn_init(TcnConfig(input_dim=fe.feature_dim, bottleneck=16,
                               hidden=16, layers_per_block=2, blocks=2),
                     seed=2)
    tcfg = TrainConfig(batch_size=batch, steps_per_epoch=steps, max_epochs=1,
                       patience=1, lr=3e-3, segment_s=0.64, seed=17)
    icfg = InvariantConfig(p=2, lam=0.7, min_keep=2, rng_seed=17)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(fe, model, items[:4], items[4:], tcfg, icfg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_training_memory_holds_one_step_graph():
    # A step's graph dies with the step, so later steps peak where the
    # first does; a graph kept into the next step's forward pass reads
    # about 1.25x here.
    assert _train_peak_bytes(4) <= 1.05 * _train_peak_bytes(1)


def test_step_memory_does_not_grow_with_batch_size():
    # Each item's graph dies before the next item's forward pass, so a
    # step peaks at one item's graph whatever the batch; one graph over the
    # whole batch read about 3.2x here.
    assert _train_peak_bytes(1, batch=4) <= 1.3 * _train_peak_bytes(1, batch=1)


def test_train_rejects_empty_datasets():
    frontend, model = tiny_setup()
    items = toy_items(2, seed=4)
    tcfg = TrainConfig(batch_size=1, steps_per_epoch=1, max_epochs=1,
                       patience=1, seed=0)
    with pytest.raises(ArgumentError):
        train(frontend, model, [], items, tcfg)
    with pytest.raises(ArgumentError):
        train(frontend, model, items, [], tcfg)


def test_train_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(batch_size=0)
    with pytest.raises(ArgumentError):
        TrainConfig(lr=0.0)
    with pytest.raises(ArgumentError):
        TrainConfig.from_dict({"batch_size": 2, "warmup": 5})
    with pytest.raises(ArgumentError, match="batch_size"):
        TrainConfig(batch_size=10 ** 12)


def test_train_refuses_a_duplicate_count_too_large_before_drawing(
        monkeypatch):
    frontend, model = tiny_setup()
    items = toy_items(2, seed=4)
    tcfg = TrainConfig(batch_size=1, steps_per_epoch=1, max_epochs=1,
                       patience=1, segment_s=0.64, seed=0)

    def no_draws(*args, **kwargs):
        raise AssertionError("duplicates drawn before the size check")

    monkeypatch.setattr("arrayvad.trainer.make_masked_duplicates", no_draws)
    with pytest.raises(ArgumentError, match="invariant p"):
        train(frontend, model, items[:1], items[1:], tcfg,
              InvariantConfig(p=10 ** 15))


# -- segment cropping ---------------------------------------------------------


class _Item:
    """Just the two fields _crop_item reads."""

    def __init__(self, signal, labels):
        self.signal = signal
        self.labels = labels


def position_coded_item(duration, rate=16000):
    # Sample value k * 2**-16 encodes position k exactly in float64, so a
    # crop's start can be read back off its first sample.
    n = int(round(duration * rate))
    samples = np.tile(np.arange(n, dtype=np.float64) * 2.0 ** -16, (2, 1))
    labels = np.arange(int(round(duration * 100)), dtype=np.int64) % 3
    return _Item(MultichannelSignal(samples, rate), FrameLabels(labels))


def test_crop_item_label_alignment():
    item = position_coded_item(1.28)
    rng = np.random.default_rng(7)
    for _ in range(10):
        window, labels = _crop_item(item, 0.64, rng)
        assert window.n_samples == int(round(0.64 * 16000))
        assert labels.size == 64
        start_sample = int(round(window.samples[0, 0] * 2.0 ** 16))
        assert start_sample % 160 == 0, "crop must start on a label frame"
        start_frame = start_sample // 160
        assert (labels == item.labels.labels[start_frame:start_frame + 64]).all()
        expect = (np.arange(window.n_samples) + start_sample) * 2.0 ** -16
        assert (window.samples[0] == expect).all()


def test_crop_item_passthrough_consumes_no_rng():
    item = position_coded_item(0.64)
    rng = np.random.default_rng(3)
    state_before = rng.bit_generator.state
    window, labels = _crop_item(item, 0.64, rng)
    assert window is item.signal
    assert labels.size == 64
    assert rng.bit_generator.state == state_before


def test_crop_item_start_spans_range():
    item = position_coded_item(1.28)
    rng = np.random.default_rng(11)
    starts = set()
    for _ in range(200):
        window, _ = _crop_item(item, 0.64, rng)
        starts.add(int(round(window.samples[0, 0] * 2.0 ** 16)) // 160)
    assert len(starts) > 10
    assert min(starts) >= 0
    assert max(starts) <= 64  # 128 label frames minus the 64-frame window


def test_train_crops_long_items_deterministically():
    histories = []
    for _ in range(2):
        frontend, model = tiny_setup()
        items = toy_items(4, seed=6, duration=1.28)
        tcfg = TrainConfig(batch_size=2, steps_per_epoch=2, max_epochs=1,
                           patience=1, segment_s=0.64, seed=5)
        result = train(frontend, model, items[:3], items[3:], tcfg)
        assert all(math.isfinite(rec["loss"])
                   for rec in result.history if "loss" in rec)
        histories.append(result.history)
    assert histories[0] == histories[1]
