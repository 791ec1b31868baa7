"""Reverse-mode automatic differentiation over numpy arrays.

The engine records a directed acyclic graph as operations run: every Tensor
produced by an op keeps references to its parents and a closure that routes
the incoming gradient to them. ``backward`` replays the tape in reverse
topological order. All values are float64; gradients are plain numpy arrays
of the same shape as their tensor.

Design points that matter for the rest of the package:

* Constants fold away. An op whose inputs all have ``requires_grad=False``
  returns a leaf constant, so graphs only contain the differentiable spine.
* Broadcasting follows numpy rules; backward sums gradients over broadcast
  axes (`_unbroadcast`).
* Stacked rows times one matrix, (..., K) @ (K, M), runs as a single
  (N, K) @ (K, M) GEMM rather than numpy's one small GEMM per leading
  index; its backward for the matrix is one rows^T @ g GEMM instead of a
  stacked product summed by ``_unbroadcast``. A row's rounding then depends
  on how many rows the GEMM holds; where values must not depend on that
  (per-frame analysis that ``FrameCache`` reuses), pass the matrix as a
  (1, K, M) stack, which keeps one GEMM per leading index in the forward
  pass. The stack's gradient is again one rows^T @ g GEMM.
* ``getitem`` backward adds into the parent's gradient in place when its
  key selects each element at most once (basic keys, or one 1-D array of
  distinct indices, as a channel-row selection is); other fancy keys
  scatter with ``np.add.at``.
* Two primitives make subgradient choices at non-differentiable points:
  ``sqrt`` and ``complex_abs`` return gradient 0 at 0. These keep training
  finite on silent frames.
* Backward computes no gradient for a constant operand: a product with a
  constant spectrum routes the gradient to the weights only.
* Graph replay order is the construction order, so gradients are bitwise
  reproducible run to run.
* Inside ``no_grad()`` nothing is recorded: every op returns a constant,
  which is how the read-only forward passes (inference, validation, feature
  dumps) skip the tape that no ``backward`` would read.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import ArgumentError, NumericError


class Tensor:
    """A node in the autodiff graph wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def relu(self):
        return relu(self)

    def log(self):
        return tlog(self)

    def exp(self):
        return texp(self)

    def sqrt(self):
        return tsqrt(self)

    def cos(self):
        return tcos(self)

    def sin(self):
        return tsin(self)


def as_tensor(x):
    """Wrap ``x`` as a constant Tensor unless it already is one."""
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data):
    """A leaf tensor that accumulates gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block.

    Every op run inside returns a constant (no parents, no backward
    closure), whatever its inputs; values are the same as outside. The
    previous mode comes back on exit, also on an exception, so blocks nest.
    The mode is per thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _make(data, parents, backward):
    """Create an op result; folds to a constant when nothing needs grad or
    inside ``no_grad``."""
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    """Add ``g`` into ``t.grad``. The first touch copies ``g`` into a fresh
    array laid out like ``t.data`` (not like ``g``), so the GEMMs that read
    the gradient later see the same memory order as a zero-filled sum."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
        else:
            t.grad += g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data),
                                   b.data.shape))

    return _make(a.data / b.data, (a, b), backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accum(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def _selects_each_once(key):
    """True when ``key`` can select no element twice: it holds only slices,
    ints and Ellipsis, plus at most one 1-D array of distinct non-negative
    integers."""
    arrays = 0
    for k in key if isinstance(key, tuple) else (key,):
        if isinstance(k, slice) or k is Ellipsis or (
                isinstance(k, (int, np.integer)) and not isinstance(k, bool)):
            continue
        k = np.asarray(k)
        if (k.ndim != 1 or k.dtype.kind not in "iu" or arrays
                or (k.size and k.min() < 0) or np.unique(k).size != k.size):
            return False
        arrays += 1
    return True


def getitem(a, key):
    """``a[key]``. Backward adds the gradient into ``a.grad[key]`` in place
    when the key selects each element at most once, and scatters it with
    ``np.add.at`` otherwise, since a fancy key may repeat an index.
    """
    a = as_tensor(a)
    in_place = _selects_each_once(key)
    data = a.data[key]

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if in_place:
            a.grad[key] += g
        else:
            np.add.at(a.grad, key, g)

    return _make(data, (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def backward(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = np.prod([a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(n))


# -- linear algebra -----------------------------------------------------------


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ArgumentError("matmul expects tensors with at least 2 dimensions")
    if a.ndim > 2 and b.ndim == 2:
        return _rows_matmul(a, b)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if 2 < b.ndim <= a.ndim and set(b.shape[:-2]) == {1}:
                # A (1, K, M) stack broadcast over every matrix of ``a``:
                # its gradient is one rows^T @ g GEMM, not a stacked
                # product summed by ``_unbroadcast``.
                k, m = b.shape[-2:]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
                gb = gb.reshape(b.shape)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                  b.data.shape)
            _accum(b, gb)

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def _rows_matmul(a, b):
    """(..., K) @ (K, M) as one (N, K) @ (K, M) GEMM over the stacked rows.

    The (N, K) reshape of ``a`` is a view when its leading axes merge, as
    for the C-contiguous parts the frontends hand in (or a last-axis slice
    of one); a strided ``a`` would be copied here and again in backward,
    which keeps ``a`` itself and reshapes it once more.
    """
    rows = (int(np.prod(a.shape[:-1])), a.shape[-1])
    out_shape = a.shape[:-1] + (b.shape[1],)

    def backward(g):
        g_rows = g.reshape(rows[0], out_shape[-1])
        if a.requires_grad:
            _accum(a, (g_rows @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            _accum(b, a.data.reshape(rows).T @ g_rows)

    return _make((a.data.reshape(rows) @ b.data).reshape(out_shape),
                 (a, b), backward)


# -- nonlinearities -----------------------------------------------------------


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def tlog(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def texp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), backward)


def tsqrt(a):
    """Square root with gradient 0 at 0 (subgradient choice)."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        safe = np.where(out_data > 0, out_data, 1.0)
        _accum(a, np.where(out_data > 0, 0.5 * g / safe, 0.0))

    return _make(out_data, (a,), backward)


def tcos(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g * np.sin(a.data))

    return _make(np.cos(a.data), (a,), backward)


def tsin(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * np.cos(a.data))

    return _make(np.sin(a.data), (a,), backward)


def softmax(a, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _make(y, (a,), backward)


def complex_abs(re, im):
    """Magnitude of re + j*im with gradient 0 where the magnitude is 0."""
    re, im = as_tensor(re), as_tensor(im)
    out_data = np.hypot(re.data, im.data)

    def backward(g):
        safe = np.where(out_data > 0, out_data, 1.0)
        _accum(re, np.where(out_data > 0, g * re.data / safe, 0.0))
        _accum(im, np.where(out_data > 0, g * im.data / safe, 0.0))

    return _make(out_data, (re, im), backward)


# -- backward pass ------------------------------------------------------------


def _topo_order(root):
    """Iterative post-order over the reachable differentiable graph."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss):
    """Run the reverse sweep from scalar ``loss``, filling ``grad`` fields.

    Raises NumericError if the forward value is not finite; nothing is
    propagated in that case.
    """
    if loss.data.size != 1:
        raise ArgumentError("backward expects a scalar loss")
    if not np.isfinite(loss.data).all():
        raise NumericError("non-finite loss; refusing to backpropagate")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def grad(loss, params):
    """Gradients of ``loss`` for a name -> Tensor mapping.

    Parameters not reached by the graph get zero arrays, so optimizer updates
    stay total over the parameter set.
    """
    backward(loss)
    out = {}
    for name, p in params.items():
        out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out
