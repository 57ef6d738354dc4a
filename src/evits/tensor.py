"""Dense float64 tensors with taped reverse-mode differentiation.

The supported primitive set is exactly what the model and losses need:
elementwise arithmetic with numpy broadcasting, matmul, relu / softplus /
exp / log, the log-gamma family, reductions, reshape / transpose /
concatenation / cropping, 1-D convolution (cross-correlation, zero
padding) and 1-D pooling.  Applying an operation records the node on the
implicit tape; ``backward`` on a scalar output replays it and accumulates
one gradient array per reachable tensor.

Everything is value-semantic and deterministic: random pooling takes an
explicit ``numpy.random.Generator`` and reproduces bit-identical output
for the same seed.
"""

from __future__ import annotations

import numpy as np

from . import special
from .errors import ConfigError, ContractError, DomainError, ShapeError


class Tensor:
    """A float64 array plus the tape bookkeeping for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose2d(self)

    def relu(self):
        return relu(self)

    def softplus(self):
        return softplus(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def lgamma(self):
        return lgamma(self)

    def digamma(self):
        return digamma(self)

    def backward(self):
        backward(self)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents, backward_fn, op):
    # constant folding: drop the tape record when no parent can need a gradient
    tracked = tuple(p for p in parents if p.requires_grad or p._parents)
    out = Tensor(data)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
        out._backward = backward_fn
        out._op = op
    return out


def _accumulate(tensor, grad):
    if tensor.requires_grad or tensor._parents:
        tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")
    return grad


def backward(output):
    """Replay the tape behind a scalar and accumulate gradients.

    Every tensor reachable through recorded parents gets exactly one
    gradient array per call (grads are cleared first, then accumulated).
    """
    if not isinstance(output, Tensor):
        raise ContractError("backward expects a Tensor")
    if output.data.size != 1:
        raise ContractError("backward needs a scalar output")

    topo = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in topo:
        node.grad = None
    output.grad = np.ones_like(output.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd, "add")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bwd, "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), bwd, "div")


def power(a, exponent):
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def bwd(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return _node(out_data, (a,), bwd, f"pow{exponent}")


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), bwd, "exp")


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0) or not np.all(np.isfinite(a.data)):
        raise DomainError("log requires positive finite entries")
    out_data = np.log(a.data)

    def bwd(g):
        _accumulate(a, g / a.data)

    return _node(out_data, (a,), bwd, "log")


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(a.data * mask, (a,), bwd, "relu")


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    a = as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)

    def bwd(g):
        _accumulate(a, g * _sigmoid(a.data))

    return _node(out_data, (a,), bwd, "softplus")


def lgamma(a):
    a = as_tensor(a)
    out_data = special.lgamma(a.data)

    def bwd(g):
        _accumulate(a, g * special.digamma(a.data))

    return _node(np.asarray(out_data), (a,), bwd, "lgamma")


def digamma(a):
    a = as_tensor(a)
    out_data = special.digamma(a.data)

    def bwd(g):
        _accumulate(a, g * special.trigamma(a.data))

    return _node(np.asarray(out_data), (a,), bwd, "digamma")


def clip_min(a, floor):
    """Elementwise max(a, floor); gradient passes where a >= floor."""
    a = as_tensor(a)
    floor = float(floor)
    mask = a.data >= floor

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(np.maximum(a.data, floor), (a,), bwd, "clip_min")


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    old_shape = a.data.shape

    def bwd(g):
        _accumulate(a, g.reshape(old_shape))

    return _node(a.data.reshape(shape), (a,), bwd, "reshape")


def transpose2d(a):
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose2d expects a matrix")

    def bwd(g):
        _accumulate(a, g.T)

    return _node(a.data.T.copy(), (a,), bwd, "transpose")


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(t, g[tuple(sl)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bwd, "concat")


def crop1d(a, length):
    """Keep the first `length` steps of the time axis of an [N, C, T] tensor."""
    a = as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeError("crop1d expects [N, C, T]")
    t_full = a.data.shape[2]
    if length > t_full:
        raise ShapeError("crop length exceeds time extent")

    def bwd(g):
        gx = np.zeros_like(a.data)
        gx[:, :, :length] = g
        _accumulate(a, gx)

    return _node(a.data[:, :, :length].copy(), (a,), bwd, "crop1d")


# -- reductions ----------------------------------------------------------------


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def bwd(g):
        gg = g
        if not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return _node(out_data, (a,), bwd, "sum")


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- linear algebra ------------------------------------------------------------


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects matrices")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}"
        )
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), bwd, "matmul")


# -- convolution and pooling -----------------------------------------------------


def conv1d(x, kernel, stride=1, padding=0):
    """Batched 1-D cross-correlation with zero padding.

    x: [N, Cin, T], kernel: [Cout, Cin, k] -> [N, Cout, T'] with
    T' = floor((T + 2 * padding - k) / stride) + 1.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ShapeError("conv1d expects x [N,Cin,T] and kernel [Cout,Cin,k]")
    n, cin, t = x.data.shape
    cout, cin_k, k = kernel.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv1d channel mismatch: input {cin}, kernel {cin_k}")
    if stride < 1 or padding < 0:
        raise ConfigError("conv1d needs stride >= 1 and padding >= 0")
    if t + 2 * padding < k:
        raise ShapeError("conv1d kernel longer than padded input")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    t_out = windows.shape[2]
    # contiguous im2col once; forward and both backward products hit BLAS
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3))
    cols = cols.reshape(n * t_out, cin * k)
    w_mat = kernel.data.reshape(cout, cin * k)
    out_data = (cols @ w_mat.T).reshape(n, t_out, cout)
    out_data = np.ascontiguousarray(out_data.transpose(0, 2, 1))  # [N, Cout, T']

    def bwd(g):
        g2d = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * t_out, cout)
        _accumulate(kernel, (g2d.T @ cols).reshape(cout, cin, k))
        gcols = (g2d @ w_mat).reshape(n, t_out, cin, k).transpose(0, 2, 1, 3)
        gxp = np.zeros((n, cin, t + 2 * padding))
        starts = np.arange(t_out) * stride
        for j in range(k):
            gxp[:, :, starts + j] += gcols[:, :, :, j]
        _accumulate(x, gxp[:, :, padding:padding + t] if padding else gxp)

    return _node(out_data, (x, kernel), bwd, "conv1d")


POOL_KINDS = ("max", "avg", "random")


def pool1d(x, kind, rng=None):
    """Window-2, stride-2 pooling over the time axis of [N, C, T]; an odd
    trailing step is dropped.

    `random` takes one element of each pair uniformly from `rng` (required
    for that kind only) and is bit-reproducible for a fixed seed.
    """
    x = as_tensor(x)
    if kind not in POOL_KINDS:
        raise ConfigError(f"unknown pooling kind {kind!r}")
    if kind == "random" and rng is None:
        raise ConfigError("random pooling needs a seeded generator")
    if x.data.ndim != 3:
        raise ShapeError("pool1d expects [N, C, T]")
    n, c, t = x.data.shape
    if t < 2:
        raise ShapeError(f"pool window 2 exceeds time extent {t}")
    t_out = t // 2
    left = x.data[:, :, 0:2 * t_out:2]
    right = x.data[:, :, 1:2 * t_out:2]

    if kind == "avg":
        out_data = 0.5 * (left + right)

        def bwd(g):
            gx = np.zeros((n, c, t))
            gx[:, :, 0:2 * t_out:2] = 0.5 * g
            gx[:, :, 1:2 * t_out:2] = 0.5 * g
            _accumulate(x, gx)

    else:
        if kind == "max":
            take_right = right > left  # ties pick the first slot, like argmax
        else:
            take_right = rng.integers(0, 2, size=(n, c, t_out)).astype(bool)
        out_data = np.where(take_right, right, left)

        def bwd(g):
            gx = np.zeros((n, c, t))
            gx[:, :, 0:2 * t_out:2] = g * ~take_right
            gx[:, :, 1:2 * t_out:2] = g * take_right
            _accumulate(x, gx)

    return _node(out_data, (x,), bwd, f"pool_{kind}")


# -- composite helpers ---------------------------------------------------------


def log_softmax(logits, axis=1):
    logits = as_tensor(logits)
    shift = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    lse = log(tsum(exp(shift), axis=axis, keepdims=True))
    return shift - lse


def softmax(logits, axis=1):
    return exp(log_softmax(logits, axis=axis))


# -- verification ---------------------------------------------------------------


def central_difference_error(value, array, analytic, step):
    """Max relative gap between the taped gradient `analytic` of `array`
    (None means zero) and central differences of the scalar `value()`.

    Each coordinate of `array` is moved by +-step in place and restored;
    relative error per coordinate is |analytic - fd| / max(1, |analytic|).
    """
    flat = array.reshape(-1)
    analytic = (np.zeros(flat.size) if analytic is None
                else analytic.reshape(-1))
    worst = 0.0
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        f_plus = float(value().data.reshape(()))
        flat[i] = saved - step
        f_minus = float(value().data.reshape(()))
        flat[i] = saved
        fd = (f_plus - f_minus) / (2.0 * step)
        rel = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
        worst = max(worst, rel)
    return worst


def grad_check(fn, point, step=1e-5):
    """Max relative gap between the taped gradient of `fn` at `point` and
    central differences (see `central_difference_error`)."""
    if step <= 0:
        raise ConfigError("grad_check needs step > 0")
    point = as_tensor(point)
    probe = Tensor(point.data.copy(), requires_grad=True)
    out = fn(probe)
    if out.data.size != 1:
        raise ContractError("grad_check needs a scalar-valued function")
    backward(out)
    base = point.data.copy()
    return central_difference_error(lambda: fn(Tensor(base)), base,
                                    probe.grad, step)
