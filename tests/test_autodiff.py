"""Gradient checks for the autodiff engine against central finite
differences, plus contract tests for the backward pass itself."""

import numpy as np
import pytest

from arrayvad import autodiff as ad
from arrayvad.errors import ArgumentError, NumericError

from helpers import numeric_gradient, relative_error

RNG = np.random.default_rng(1234)
TOL = 1e-5


def check_op(build, shapes, h=1e-6, tol=TOL, positive=False):
    """Gradient-check a scalar-valued graph builder.

    build: callable taking a dict name -> Tensor, returning a scalar Tensor.
    shapes: dict name -> shape for the leaf parameters.
    """
    arrays = {}
    for name, shape in shapes.items():
        a = RNG.normal(size=shape)
        if positive:
            a = np.abs(a) + 0.5
        arrays[name] = a

    params = {k: ad.parameter(v) for k, v in arrays.items()}
    loss = build(params)
    got = ad.grad(loss, params)

    def fn(arrs):
        ps = {k: ad.Tensor(v) for k, v in arrs.items()}
        return float(build(ps).data)

    # The numeric path needs requires_grad tensors too, so ops do not fold.
    def fn2(arrs):
        ps = {k: ad.parameter(v) for k, v in arrs.items()}
        return float(build(ps).data)

    want = numeric_gradient(fn2, arrays, h=h)
    for name in shapes:
        assert relative_error(got[name], want[name]) < tol, name
    # Constant-folded forward agrees with the recorded forward.
    assert fn(arrays) == pytest.approx(float(loss.data), rel=0, abs=0)


def test_add_mul_broadcast():
    check_op(
        lambda p: (p["a"] * p["b"] + p["c"]).sum(),
        {"a": (3, 4), "b": (4,), "c": (3, 1)},
    )


def test_sub_div():
    check_op(
        lambda p: (p["a"] / (p["b"] * p["b"] + 1.0) - p["b"]).sum(),
        {"a": (2, 5), "b": (2, 5)},
    )


def test_power_and_neg():
    check_op(lambda p: ((-p["a"]) ** 3).sum(), {"a": (4, 3)}, positive=True)


def test_matmul_plain():
    check_op(lambda p: (p["a"] @ p["b"]).sum(), {"a": (3, 4), "b": (4, 2)})


def test_matmul_batched_broadcast():
    check_op(
        lambda p: (p["a"] @ p["b"]).sum(),
        {"a": (5, 3, 4), "b": (4, 2)},
    )


def test_matmul_batched_both():
    check_op(
        lambda p: (p["a"] @ p["b"]).sum(),
        {"a": (5, 3, 4), "b": (5, 4, 2)},
    )


def test_reshape_transpose_concat():
    def build(p):
        x = p["a"].transpose(1, 0).reshape(2, 6)
        y = ad.concat([x, p["b"]], axis=1)
        return (y * y).sum()

    check_op(build, {"a": (4, 3), "b": (2, 3)})


def test_getitem_slice_and_fancy():
    def build(p):
        head = p["a"][1:3]
        picked = p["a"][(np.array([0, 2, 3]), np.array([1, 1, 0]))]
        return head.sum() + (picked * picked).sum()

    check_op(build, {"a": (4, 3)})


def test_sum_mean_axes():
    check_op(
        lambda p: (p["a"].sum(axis=0) * p["a"].mean(axis=1, keepdims=True).sum(axis=0)).sum()
        + p["a"].sum(axis=1, keepdims=True).mean(),
        {"a": (4, 5)},
    )


def test_log_exp_sqrt():
    check_op(
        lambda p: (p["a"].log() + p["a"].exp() + p["a"].sqrt()).sum(),
        {"a": (3, 3)},
        positive=True,
    )


def test_trig():
    check_op(lambda p: (p["a"].cos() * p["a"].sin()).sum(), {"a": (6,)})


def test_relu():
    # Keep entries away from the kink so finite differences are clean.
    arrays = {"a": RNG.normal(size=(5, 5))}
    arrays["a"][np.abs(arrays["a"]) < 1e-3] = 0.5
    params = {"a": ad.parameter(arrays["a"])}
    loss = (params["a"].relu() * 2.0).sum()
    got = ad.grad(loss, params)
    want = numeric_gradient(
        lambda arrs: float((ad.parameter(arrs["a"]).relu() * 2.0).sum().data), arrays
    )
    assert relative_error(got["a"], want["a"]) < TOL


def test_softmax_rows():
    check_op(
        lambda p: (ad.softmax(p["a"], axis=-1) * p["b"]).sum(),
        {"a": (4, 6), "b": (4, 6)},
    )


def test_softmax_other_axis():
    check_op(
        lambda p: (ad.softmax(p["a"], axis=1) * p["b"]).sum(),
        {"a": (3, 5, 2), "b": (3, 5, 2)},
    )


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(7, 9)) * 50.0
    y = ad.softmax(ad.Tensor(x), axis=-1).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert (y >= 0).all()


def test_atan2_gradients():
    check_op(
        lambda p: ad.atan2(p["y"], p["x"]).sum(),
        {"y": (5,), "x": (5,)},
        positive=True,
    )


def test_atan2_zero_origin_subgradient():
    y = ad.parameter(np.zeros(3))
    x = ad.parameter(np.zeros(3))
    out = ad.atan2(y, x).sum()
    g = ad.grad(out, {"y": y, "x": x})
    assert np.all(g["y"] == 0) and np.all(g["x"] == 0)


def test_complex_abs_matches_hypot_and_grad():
    check_op(
        lambda p: ad.complex_abs(p["re"], p["im"]).sum(),
        {"re": (4, 3), "im": (4, 3)},
        positive=True,
    )
    re = ad.parameter(np.zeros(2))
    im = ad.parameter(np.zeros(2))
    g = ad.grad(ad.complex_abs(re, im).sum(), {"re": re, "im": im})
    assert np.all(g["re"] == 0) and np.all(g["im"] == 0)


def test_complex_mul_matches_numpy():
    a = RNG.normal(size=(3,)) + 1j * RNG.normal(size=(3,))
    b = RNG.normal(size=(3,)) + 1j * RNG.normal(size=(3,))
    re, im = ad.complex_mul(
        ad.Tensor(a.real), ad.Tensor(a.imag), ad.Tensor(b.real), ad.Tensor(b.imag)
    )
    assert np.allclose(re.data + 1j * im.data, a * b)


def test_sqrt_zero_subgradient():
    a = ad.parameter(np.zeros(3))
    g = ad.grad(a.sqrt().sum(), {"a": a})
    assert np.all(g["a"] == 0)


def test_unreached_parameter_gets_zeros():
    a = ad.parameter(np.ones((2, 2)))
    b = ad.parameter(np.ones(3))
    loss = (a * a).sum()
    g = ad.grad(loss, {"a": a, "b": b})
    assert g["b"].shape == (3,)
    assert np.all(g["b"] == 0)
    assert np.allclose(g["a"], 2.0)


def test_every_influencing_parameter_reached():
    shapes = {"a": (2, 3), "b": (3, 2), "c": (2, 2)}
    params = {k: ad.parameter(RNG.normal(size=s)) for k, s in shapes.items()}
    loss = ((params["a"] @ params["b"]) * params["c"]).sum()
    g = ad.grad(loss, params)
    for name in shapes:
        assert np.any(g[name] != 0), name


def test_nonfinite_forward_raises_before_backward():
    a = ad.parameter(np.array([1.0, 0.0]))
    with np.errstate(divide="ignore"):
        loss = (a.log()).sum()  # log(0) -> -inf
    with pytest.raises(NumericError):
        ad.backward(loss)


def test_backward_requires_scalar():
    a = ad.parameter(np.ones(4))
    with pytest.raises(ArgumentError):
        ad.backward(a * 2.0)


def test_fanout_accumulates():
    a = ad.parameter(np.array([3.0]))
    b = a * 2.0
    loss = (b + b + a).sum()
    g = ad.grad(loss, {"a": a})
    assert np.allclose(g["a"], 5.0)


def test_repeated_backward_resets_grads():
    a = ad.parameter(np.array([2.0]))
    loss = (a * a).sum()
    ad.backward(loss)
    first = a.grad.copy()
    ad.backward(loss)
    assert np.allclose(a.grad, first)


def test_deep_chain_does_not_recurse():
    x = ad.parameter(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y + 0.001
    g = ad.grad(y.sum(), {"x": x})
    assert np.allclose(g["x"], 1.0)


def test_constant_folding_keeps_graph_small():
    a = ad.Tensor(np.ones((3, 3)))
    b = ad.Tensor(np.ones((3, 3)))
    out = a @ b + 1.0
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_results_have_no_parents():
    w = ad.parameter(RNG.normal(size=(3, 4)))
    v = ad.parameter(RNG.normal(size=(4, 2)))
    with ad.no_grad():
        results = [w * 2.0, w @ v, ad.softmax(w, axis=0), w[1:], (w @ v).sum(),
                   ad.concat([w, w], axis=0), ad.complex_abs(w, w)]
    for out in results:
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
    assert np.array_equal(results[1].data, (w @ v).data)
    assert (w @ v).requires_grad


def test_no_grad_restores_mode_after_nesting_and_exceptions():
    w = ad.parameter(np.ones(2))

    def recording():
        return (w * 3.0).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not recording()
        assert not recording()
        with pytest.raises(NumericError):
            with ad.no_grad():
                raise NumericError("inner failure")
        assert not recording()
    assert recording()
    with pytest.raises(ArgumentError):
        with ad.no_grad():
            ad.backward(w)  # not a scalar
    assert recording()


def test_graph_built_after_no_grad_passes_finite_differences():
    def build(p):
        h = ad.softmax(p["x"] @ p["w"], axis=-1)
        return (h * h).sum() + ad.tlog(p["x"] * p["x"] + 1.0).sum()

    with ad.no_grad():
        params = {"x": ad.parameter(RNG.normal(size=(3, 4))),
                  "w": ad.parameter(RNG.normal(size=(4, 5)))}
        assert not build(params).requires_grad
    check_op(build, {"x": (3, 4), "w": (4, 5)})
