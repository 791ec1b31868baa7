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


def test_neg():
    check_op(lambda p: (-p["a"] * p["a"]).sum(), {"a": (4, 3)})


def test_matmul_plain():
    check_op(lambda p: (p["a"] @ p["b"]).sum(), {"a": (3, 4), "b": (4, 2)})


def test_constant_operands_get_no_gradient():
    a = ad.parameter(RNG.normal(size=(2, 3, 4)))
    b = RNG.normal(size=(2, 4, 5))
    c = RNG.normal(size=(2, 3, 5))
    const_b, const_c = ad.Tensor(b), ad.Tensor(c)
    loss = (((a @ const_b) * const_c) / const_c - const_c + const_c).sum()
    got = ad.grad(loss, {"a": a})["a"]
    assert const_b.grad is None and const_c.grad is None
    g = (np.ones((2, 3, 5)) / c) * c  # the backward order: div, then mul
    assert np.array_equal(got, np.matmul(g, np.swapaxes(b, -1, -2)))


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


# A stacked (..., K) @ (K, M) product runs as one folded GEMM; these are the
# batched-matmul results it replaces: np.matmul, and for the matrix the
# stacked product summed over the leading axes.
@pytest.mark.parametrize("a_shape, b_shape, transposed, a_grad", [
    pytest.param((5, 3, 4), (4, 2), False, True, id="3d"),
    pytest.param((2, 3, 4, 5), (5, 3), False, True, id="4d"),
    pytest.param((5, 3, 4), (4, 2), True, True, id="transposed-view"),
    pytest.param((5, 3, 4), (4, 2), False, False, id="constant-rows"),
])
def test_stacked_rows_matmul_matches_batched_matmul(a_shape, b_shape,
                                                     transposed, a_grad):
    a_data = RNG.normal(size=a_shape)
    if transposed:
        a_data = np.ascontiguousarray(np.swapaxes(a_data, 0, 1)).swapaxes(0, 1)
        assert not a_data.flags.c_contiguous
    b_data = RNG.normal(size=b_shape)
    probe = RNG.normal(size=a_shape[:-1] + b_shape[-1:])
    a = ad.parameter(a_data) if a_grad else ad.Tensor(a_data)
    b = ad.parameter(b_data)
    out = a @ b
    assert np.max(np.abs(out.data - np.matmul(a_data, b_data))) < 1e-12
    ad.backward((out * probe).sum())
    want_b = ad._unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), probe),
                             b_shape)
    assert np.max(np.abs(b.grad - want_b)) < 1e-12
    if a_grad:
        want_a = np.matmul(probe, b_data.T)
        assert a.grad.shape == a_shape
        assert np.max(np.abs(a.grad - want_a)) < 1e-12
    else:
        assert a.grad is None


BASIC_KEYS = [
    slice(1, 3), 2, -1, np.int64(1), slice(None, None, -2), Ellipsis,
    (Ellipsis, 1), (1, Ellipsis), (slice(None), 0, slice(1, None)),
    (slice(0, 4, 2), slice(None), -1),
]


@pytest.mark.parametrize("key", BASIC_KEYS, ids=repr)
def test_getitem_basic_key_gradient_equals_add_at(key):
    a = ad.parameter(RNG.normal(size=(4, 3, 5)))
    probe = RNG.normal(size=a.data[key].shape)
    ad.backward((a[key] * probe).sum())
    want = np.zeros_like(a.data)
    np.add.at(want, key, probe)
    assert np.array_equal(a.grad, want)


def test_getitem_fancy_key_with_repeats_accumulates():
    a = ad.parameter(RNG.normal(size=(4, 3)))
    key = (np.array([0, 2, 0, 0]), np.array([1, 1, 1, 2]))
    ad.backward(a[key].sum())
    want = np.zeros((4, 3))
    want[0, 1], want[2, 1], want[0, 2] = 2.0, 1.0, 1.0
    assert np.array_equal(a.grad, want)


# Array keys that select each element at most once. They scatter with
# np.add.at like any array key; the gradient still lands on top of what the
# other consumer of the parent added.
UNIQUE_INDEX_KEYS = [
    (slice(None), np.array([0, 2])),
    np.array([3, 0, 1]),
    (Ellipsis, np.array([4, 1, 2])),
    (1, np.array([2, 0]), slice(1, None)),
    (slice(None), np.array([], dtype=np.int64)),
]


@pytest.mark.parametrize("key", UNIQUE_INDEX_KEYS, ids=repr)
def test_getitem_unique_index_in_place_equals_add_at(key):
    a = ad.parameter(RNG.normal(size=(4, 3, 5)))
    first = RNG.normal(size=a.data[key].shape)
    second = RNG.normal(size=a.data.shape)
    # ``a`` feeds two nodes, so the second gradient lands on the first.
    ad.backward((a[key] * first).sum() + (a * second).sum())
    want = np.zeros_like(a.data)
    np.add.at(want, key, first)
    want = want + second
    assert np.array_equal(a.grad, want)


@pytest.mark.parametrize("key", [
    np.array([1, 1, 0]),
    (slice(None), np.array([2, 0, 2])),
    (slice(None), np.array([-1, 2])),
    (np.array([0, 2]), np.array([1, 1])),
    np.array([[0, 1], [1, 2]]),
], ids=repr)
def test_getitem_repeated_or_ambiguous_index_still_accumulates(key):
    a = ad.parameter(RNG.normal(size=(4, 3)))
    assert not ad._selects_each_once(key)
    probe = RNG.normal(size=a.data[key].shape)
    ad.backward((a[key] * probe).sum())
    want = np.zeros_like(a.data)
    np.add.at(want, key, probe)
    assert np.array_equal(a.grad, want)


@pytest.mark.parametrize("a_shape, b_shape", [
    pytest.param((6, 3, 5), (1, 5, 4), id="3d"),
    pytest.param((2, 6, 3, 5), (1, 1, 5, 4), id="4d"),
    pytest.param((2, 6, 3, 5), (1, 5, 4), id="fewer-dims"),
])
def test_broadcast_stack_gradient_equals_summed_stacked_product(a_shape,
                                                                b_shape):
    a_data = np.ascontiguousarray(
        RNG.normal(size=a_shape[:-3] + (a_shape[-2], a_shape[-3], a_shape[-1]))
    ).swapaxes(-2, -3)  # a strided view, as the analytic frames are
    b_data = RNG.normal(size=b_shape)
    a, b = ad.parameter(a_data), ad.parameter(b_data)
    probe = RNG.normal(size=a_shape[:-1] + b_shape[-1:])
    out = a @ b
    ad.backward((out * probe).sum())
    want_b = ad._unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), probe),
                             b_shape)
    assert b.grad.shape == b_shape
    assert np.max(np.abs(b.grad - want_b)) < 1e-12
    assert np.array_equal(a.grad, np.matmul(probe, np.swapaxes(b_data, -1, -2)))


@pytest.mark.parametrize("layout", ["c-order", "transposed", "broadcast"])
def test_accum_first_touch_copy_equals_zero_fill_then_add(layout):
    data = RNG.normal(size=(4, 6))
    if layout == "c-order":
        first = RNG.normal(size=(4, 6))
    elif layout == "transposed":
        first = RNG.normal(size=(6, 4)).T
    else:
        first = np.broadcast_to(RNG.normal(size=(1, 6)), (4, 6))
    second = RNG.normal(size=(4, 6))
    t = ad.parameter(data)
    ad._accum(t, first)
    want = np.zeros_like(data)
    want += first
    assert np.array_equal(t.grad, want)
    assert t.grad.flags.c_contiguous and t.grad.flags.writeable
    assert not np.shares_memory(t.grad, first)
    ad._accum(t, second)
    want += second
    assert np.array_equal(t.grad, want)


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


def test_successive_grads_give_zeros_to_a_parameter_no_longer_reached():
    a = ad.parameter(np.ones(3))
    b = ad.parameter(np.ones(3))
    first = ad.grad((a * 2.0).sum() + b.sum(), {"a": a, "b": b})
    assert np.array_equal(first["b"], np.ones(3))
    second = ad.grad((a * 3.0).sum(), {"a": a, "b": b})
    assert np.array_equal(second["a"], np.full(3, 3.0))
    assert np.array_equal(second["b"], np.zeros(3))


def _fanout_graph():
    """Leaves a, b and a loss whose gradients are exact in float64: a feeds
    a product used twice, a basic-key slice and a fancy-key pick."""
    a = ad.parameter(np.array([1.0, 2.0, 3.0]))
    b = ad.parameter(np.array([4.0, 5.0, 6.0]))
    c = a * b
    loss = ((c + c).sum() + (a[:2] * 3.0).sum()
            + a[np.array([2, 2])].sum())
    want = {"a": 2.0 * b.data + np.array([3.0, 3.0, 2.0]),
            "b": 2.0 * a.data}
    return a, b, loss, want


@pytest.mark.parametrize("sweep", ["grad", "backward"])
def test_after_the_sweep_only_leaves_keep_a_gradient(sweep):
    a, b, loss, want = _fanout_graph()
    if sweep == "grad":
        got = ad.grad(loss, {"a": a, "b": b})
        assert got["a"] is a.grad and got["b"] is b.grad
    else:
        ad.backward(loss)
    ops = [n for n in ad._topo_order(loss) if n._backward is not None]
    assert len(ops) == 10 and loss in ops
    assert all(n.grad is None for n in ops)
    assert np.array_equal(a.grad, want["a"])
    assert np.array_equal(b.grad, want["b"])


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
