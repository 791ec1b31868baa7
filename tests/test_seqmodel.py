"""TCN classifier tests: init determinism, causality, gradient agreement."""

import numpy as np
import pytest

from arrayvad.autodiff import Tensor, backward, grad, softmax, tsum
from arrayvad.errors import ArgumentError, NumericError
from arrayvad.seqmodel import (
    TcnConfig,
    causal_conv1d,
    decisions,
    posteriors,
    receptive_field,
    tcn_forward,
    tcn_init,
)

TINY = TcnConfig(input_dim=5, bottleneck=4, hidden=6, layers_per_block=2,
                 blocks=2, kernel=2)


def test_config_validation():
    with pytest.raises(ArgumentError):
        TcnConfig(input_dim=64, blocks=0)
    with pytest.raises(ArgumentError):
        TcnConfig(input_dim=0)
    with pytest.raises(ArgumentError):
        TcnConfig(input_dim=64, kernel=0)
    cfg = TcnConfig(input_dim=64)
    assert TcnConfig.from_dict(cfg.to_dict()) == cfg
    # Older checkpoints name the class count; only the fixed 3 is read.
    assert TcnConfig.from_dict({**cfg.to_dict(), "n_classes": 3}) == cfg
    with pytest.raises(ArgumentError):
        TcnConfig.from_dict({**cfg.to_dict(), "n_classes": 4})


def test_init_is_deterministic():
    a = tcn_init(TINY, seed=3)
    b = tcn_init(TINY, seed=3)
    c = tcn_init(TINY, seed=4)
    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert a.tensors[name].data.tobytes() == b.tensors[name].data.tobytes()
    assert any(a.tensors[n].data.tobytes() != c.tensors[n].data.tobytes()
               for n in a.tensors if "norm" not in n)


def test_init_bounds_and_norm_identity():
    p = tcn_init(TINY, seed=0)
    assert (p.tensors["norm/gain"].data == 1.0).all()
    assert (p.tensors["norm/bias"].data == 0.0).all()
    w = p.tensors["block0/conv1/w"]
    bound = 1.0 / np.sqrt(TINY.kernel * TINY.hidden)
    assert np.abs(w.data).max() <= bound


def test_parameter_count_formula_matches_enumeration():
    assert tcn_init(TcnConfig(input_dim=64), 0).n_parameters() == 727491


def test_forward_shape_and_determinism():
    params = tcn_init(TINY, seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(11, 5))
    a = tcn_forward(params, x)
    b = tcn_forward(params, x)
    assert a.shape == (11, 3)
    assert a.data.tobytes() == b.data.tobytes()


def test_forward_single_frame_and_errors():
    params = tcn_init(TINY, seed=5)
    out = tcn_forward(params, np.zeros((1, 5)))
    assert out.shape == (1, 3)
    assert np.isfinite(out.data).all()
    with pytest.raises(ArgumentError):
        tcn_forward(params, np.zeros((4, 6)))
    with pytest.raises(ArgumentError):
        tcn_forward(params, np.zeros(5))


def test_causality_by_perturbation():
    params = tcn_init(TINY, seed=7)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    base = tcn_forward(params, x).data
    bumped = x.copy()
    bumped[12, 0] += 5.0
    out = tcn_forward(params, bumped).data
    assert (out[:12] == base[:12]).all()
    assert np.abs(out[12:] - base[12:]).max() > 0


def test_receptive_field_by_perturbation():
    # kernel 2, dilations 1+2+4 per... two layers per block here: 1+2 = 3
    # per block, two blocks -> field of 7 frames including the current one.
    assert receptive_field(TINY) == 7
    assert receptive_field(TcnConfig(input_dim=64)) == 187
    params = tcn_init(TINY, seed=2)
    # push every ReLU into its active half so the probe sees the full
    # structural field instead of whatever paths happen to be alive
    for name, tensor in params.tensors.items():
        if name.endswith("/b") and name != "out/b":
            tensor.data[:] = 5.0
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 5))
    base = tcn_forward(params, x).data
    bumped = x.copy()
    # single feature: a whole-frame constant would vanish in the layer norm
    bumped[6, 2] += 1e-3
    out = tcn_forward(params, bumped).data
    changed = np.flatnonzero(np.abs(out - base).max(axis=1) > 0)
    assert changed.min() == 6
    assert changed.max() == 6 + receptive_field(TINY) - 1


def test_conv_taps_read_the_past():
    # identity check against a hand conv: k=2, dilation 2, one channel
    w = Tensor(np.array([[[2.0]], [[3.0]]]), requires_grad=False)
    b = Tensor(np.zeros(1))
    x = Tensor(np.arange(1.0, 6.0).reshape(5, 1))
    y = causal_conv1d(x, w, b, dilation=2).data[:, 0]
    expected = 3.0 * np.arange(1.0, 6.0)
    expected[2:] += 2.0 * np.arange(1.0, 4.0)
    assert np.allclose(y, expected)


def test_posteriors_contracts():
    assert np.allclose(posteriors(np.zeros((2, 3))), 1.0 / 3.0)
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(20, 3)) * 4.0
    p = posteriors(logits)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (np.argmax(p, axis=1) == np.argmax(logits, axis=1)).all()
    shifted = posteriors(logits + 7.3)
    assert np.allclose(p, shifted, atol=1e-12)
    big = posteriors(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(big).all()
    with pytest.raises(NumericError):
        posteriors(np.array([[np.nan, 0.0, 0.0]]))


def test_scores_and_decisions():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.5, 0.4], [0.2, 0.2, 0.6]])
    assert decisions(probs).tolist() == [0, 1, 2]
    # exact tie goes to the lower class
    assert decisions(np.array([[0.4, 0.4, 0.2]])).tolist() == [0]


def test_quadratic_loss_gradient_exact():
    params = tcn_init(TINY, seed=11)
    w = params.tensors["out/w"]
    loss = tsum(w * w)
    grads = grad(loss, params.tensors)
    assert np.allclose(grads["out/w"], 2.0 * w.data, atol=0)
    # untouched parameters come back as explicit zeros
    assert (grads["block1/conv0/w"] == 0).all()
    assert grads["block1/conv0/w"].shape == params.tensors["block1/conv0/w"].shape


def test_detached_branch_has_zero_gradient():
    params = tcn_init(TINY, seed=12)
    w = params.tensors["out/b"]
    detached = Tensor(w.data.copy())
    loss = tsum(detached * detached) + tsum(w)
    backward(loss)
    assert np.allclose(w.grad, 1.0)
    assert detached.grad is None


def _fd_gradient(params, x, target, name, index, h=1e-5):
    t = params.tensors[name]
    kept = t.data[index]
    t.data[index] = kept + h
    hi = _probe_loss(params, x, target)
    t.data[index] = kept - h
    lo = _probe_loss(params, x, target)
    t.data[index] = kept
    return (hi - lo) / (2.0 * h)


def _probe_loss(params, x, target):
    logits = tcn_forward(params, x)
    p = softmax(logits, axis=-1)
    return float(tsum(p * target).data)


def test_gradients_match_central_differences():
    params = tcn_init(TINY, seed=13)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(9, 5))
    target = rng.normal(size=(9, 3))
    logits = tcn_forward(params, x)
    loss = tsum(softmax(logits, axis=-1) * target)
    grads = grad(loss, params.tensors)
    checked = 0
    for name, tensor in params.tensors.items():
        flat = tensor.data.size
        for k in range(0, flat, max(1, flat // 4)):
            index = np.unravel_index(k, tensor.data.shape)
            fd = _fd_gradient(params, x, target, name, index)
            got = grads[name][index]
            assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), (name, index)
            checked += 1
    assert checked >= 40
