"""Dense float64 tensors with taped reverse-mode differentiation.

The model graph uses elementwise add / mul / div with numpy
broadcasting, matmul, softplus, sum / mean, reshape / concatenation, 1-D
convolution (cross-correlation, zero padding), 1-D pooling and a backbone
block's conv -> batch-norm -> max-pool -> relu as one node.  ``power``,
``relu`` and ``log`` have no caller there: they stay for the benchmark
tracer, which times the first two, and for the tests, which chain all
three as oracles for the fused nodes.
Applying an operation records the node on the implicit tape; ``backward``
on a scalar output replays it and accumulates one gradient array per leaf
that needs one.  It frees the graph as it goes: once a node's backward has
run, the node drops its closure, parents and gradient, so only leaves keep
``.grad``, and a second backward of the same graph raises ``ContractError``.
A node keeps only what its backward reads, mostly its parents' own arrays,
so a caller must not change an input array in place before backward.

Everything is value-semantic and deterministic: random pooling takes an
explicit ``numpy.random.Generator`` and reproduces bit-identical output
for the same seed.
"""

from __future__ import annotations

import numpy as np

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

    def relu(self):
        return relu(self)

    def log(self):
        return log(self)

    def backward(self):
        backward(self)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents, backward_fn, op):
    # constant folding: drop the tape record when no parent can need a gradient
    tracked = tuple(p for p in parents if p.requires_grad)
    out = Tensor(data)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
        out._backward = backward_fn
        out._op = op
    return out


def _accumulate(tensor, grad):
    if tensor.requires_grad:
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
    """Replay the tape behind a scalar, accumulate gradients and free it.

    Every leaf that needs one gets exactly one gradient array per call
    (grads are cleared first, then accumulated).  Each op node drops its
    gradient, closure and parents once its backward has run, so the graph
    is freed as the sweep goes; a second backward through it raises
    ``ContractError``.
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
        if node._op != "leaf" and not node._parents:
            raise ContractError(f"backward through a consumed {node._op!r} node: "
                                "an earlier backward already freed this graph")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in topo:
        node.grad = None
    output.grad = np.ones_like(output.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad, node._backward, node._parents = None, None, ()


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


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    old_shape = a.data.shape

    def bwd(g):
        _accumulate(a, g.reshape(old_shape))

    return _node(a.data.reshape(shape), (a,), bwd, "reshape")


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


def _windows(a, k, length, stride, padding=0):
    """The unrolled window [N, C*k, length] of [N, C, T] zero-padded by
    `padding` steps on each side: column i holds steps stride*i ...
    stride*i + k - 1 of every channel, one copy of a read-only
    `as_strided` view (Chellapilla et al., 2006)."""
    if padding:  # a zero buffer with the input copied in
        a, unpadded = np.zeros(a.shape[:2] + (a.shape[2] + 2 * padding,)), a
        a[:, :, padding:-padding] = unpadded
    n, c, _ = a.shape
    sn, sc, st = a.strides
    view = np.lib.stride_tricks.as_strided(
        a, (n, c, k, length), (sn, sc, st, st * stride), writeable=False)
    return view.reshape(n, c * k, length)


def _conv_forward(x, kernel, stride, padding):
    """The checked operands of `conv1d` and their cross-correlation product."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ShapeError("conv1d expects x [N,Cin,T] and kernel [Cout,Cin,k]")
    _, cin, t = x.data.shape
    cout, cin_k, k = kernel.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv1d channel mismatch: input {cin}, kernel {cin_k}")
    if stride < 1 or padding < 0:
        raise ConfigError("conv1d needs stride >= 1 and padding >= 0")
    if t + 2 * padding < k:
        raise ShapeError("conv1d kernel longer than padded input")
    t_out = (t + 2 * padding - k) // stride + 1
    windows = _windows(x.data, k, t_out, stride, padding)
    return x, kernel, kernel.data.reshape(cout, cin * k) @ windows


def _conv_backward(g, x, kernel, stride, padding):
    """Accumulate `conv1d`'s operand gradients for its output gradient g;
    the kernel's from the unpadded input, padded again here."""
    n, cin, t = x.data.shape
    cout, _, k = kernel.data.shape
    t_out = g.shape[2]
    if kernel.requires_grad:
        gw = np.matmul(g, _windows(x.data, k, t_out, stride, padding).transpose(0, 2, 1))
        _accumulate(kernel, gw.sum(axis=0).reshape(cout, cin, k))
    if x.requires_grad:
        # the transposed convolution (Dumoulin & Visin, 2016): g spread
        # to steps k - 1 + stride * i of a zero buffer, correlated with
        # the flipped kernel over the unpadded input steps
        gz = np.zeros((n, cout, t + 2 * padding + k - 1))
        gz[:, :, k - 1:k - 1 + stride * t_out:stride] = g
        flipped = kernel.data[:, :, ::-1].transpose(1, 0, 2).reshape(cin, cout * k)
        _accumulate(x, flipped @ _windows(gz[:, :, padding:], k, t, 1))


def conv1d(x, kernel, stride=1, padding=0):
    """Batched 1-D cross-correlation with zero padding.

    x: [N, Cin, T], kernel: [Cout, Cin, k] -> [N, Cout, T'] with
    T' = floor((T + 2 * padding - k) / stride) + 1.  The backward reads
    `x.data` and `kernel.data`: do not change them in place before it.
    """
    x, kernel, out_data = _conv_forward(x, kernel, stride, padding)
    return _node(out_data, (x, kernel),
                 lambda g: _conv_backward(g, x, kernel, stride, padding), "conv1d")


def conv_bn_pool_relu(x, kernel, gamma, beta, padding, eps):
    """A backbone block as one tape node: stride-1 `conv1d`, batch-norm
    with the batch statistics, window-2 stride-2 max-pool over time (ties
    pick the first slot, an odd trailing step is dropped, as in `pool1d`),
    then relu.  Returns (out, batch mean [Cout], biased batch variance).

    The conv product is normalized in its own buffer; the tape keeps that
    buffer, two half-size masks (which slot won, where the pooled value is
    positive), 1 / std and the parent `x` (see `conv1d`).  The backward
    writes the batch-norm closed form (Ioffe & Szegedy, 2015) into that
    buffer, its last reader, and runs the conv backward from there.  Each
    value takes the float operations of the separate conv1d, batch-norm,
    `pool1d("max")` and `relu` nodes in their order, and masked gradients
    enter the full-size sums as exact zeros, so outputs and gradients match
    that chain bit for bit; only relu gives +0.0 where the chain gave -0.0.
    """
    x, kernel, normalized = _conv_forward(x, kernel, 1, padding)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    n, c, t = normalized.shape
    if t < 2:
        raise ShapeError(f"pool window 2 exceeds time extent {t}")
    t_out = t // 2
    count = normalized.size / c  # N * T samples per channel
    mean = np.einsum("nct->c", normalized) / count
    normalized -= mean[:, None]  # centered, normalized below
    var = np.einsum("nct,nct->c", normalized, normalized) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized *= inv_std[:, None]
    left, right = (normalized[:, :, i:2 * t_out:2] * gamma.data[:, None]
                   for i in (0, 1))
    left += beta.data[:, None]
    right += beta.data[:, None]
    take_right = right > left
    out_data = np.maximum(left, right, out=left)
    positive = out_data > 0.0
    np.maximum(out_data, 0.0, out=out_data)

    def bwd(g):
        gy = np.empty((n, c, t))
        gy[:, :, 2 * t_out:] = 0.0  # an odd trailing step
        g_left = np.multiply(g, positive, out=gy[:, :, 0:2 * t_out:2])
        g_left -= np.multiply(g_left, take_right, out=gy[:, :, 1:2 * t_out:2])
        g_norm = np.einsum("nct,nct->c", gy, normalized)
        g_sum = np.einsum("nct->c", gy)
        _accumulate(gamma, g_norm)
        _accumulate(beta, g_sum)
        gh = np.multiply(normalized, g_norm[:, None], out=normalized)
        gh += g_sum[:, None]
        gh *= c / gy.size
        np.subtract(gy, gh, out=gh)
        del gy, g_left  # freed before the conv backward's windows
        gh *= (gamma.data * inv_std)[:, None]
        _conv_backward(gh, x, kernel, 1, padding)

    return (_node(out_data, (x, kernel, gamma, beta), bwd, "conv_bn_pool_relu"),
            mean, var)


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
        share_left = share_right = 0.5
    else:
        if kind == "max":
            take_right = right > left  # ties pick the first slot, like argmax
            out_data = np.maximum(left, right)
        else:
            take_right = rng.integers(0, 2, size=(n, c, t_out)).astype(bool)
            out_data = np.where(take_right, right, left)
        share_left, share_right = ~take_right, take_right

    def bwd(g):
        gx = np.zeros((n, c, t))
        gx[:, :, 0:2 * t_out:2] = g * share_left
        gx[:, :, 1:2 * t_out:2] = g * share_right
        _accumulate(x, gx)

    return _node(out_data, (x,), bwd, f"pool_{kind}")


# -- verification ---------------------------------------------------------------


def shifted_points(flat, step):
    """The two central-difference values of each entry of the 1-D `flat`:
    [size, 2], entry i moved by +step in column 0 and by -step in column 1."""
    return np.stack([flat + step, flat - step], axis=1)


def difference_error(values, analytic, step):
    """Max relative gap |analytic - fd| / max(1, |analytic|) between the
    taped gradient `analytic` (None means zero) and the central differences
    fd of `values`, the function at each point of `shifted_points` [size, 2].

    A NaN anywhere gives NaN, which fails every `error <= tolerance` check.
    """
    fd = (values[:, 0] - values[:, 1]) / (2.0 * step)
    analytic = 0.0 if analytic is None else analytic.reshape(-1)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max(initial=0.0))


def grad_check(fn, point, step=1e-5):
    """Max relative gap (`difference_error`) between the taped gradient of
    `fn` at `point` and central differences, with `fn` called on one
    shifted copy of `point` at a time."""
    if step <= 0:
        raise ConfigError("grad_check needs step > 0")
    point = as_tensor(point)
    probe = Tensor(point.data.copy(), requires_grad=True)
    out = fn(probe)
    if out.data.size != 1:
        raise ContractError("grad_check needs a scalar-valued function")
    backward(out)
    flat = point.data.reshape(-1)
    points = shifted_points(flat, step)
    values = np.empty(points.shape)
    for i in range(flat.size):
        for side in (0, 1):
            copy = flat.copy()
            copy[i] = points[i, side]
            values[i, side] = fn(Tensor(copy.reshape(point.shape))).data.reshape(())
    return difference_error(values, probe.grad, step)
