"""Dense real tensors with a minimal reverse-mode differentiation core.

The graph is define-by-run: each operation passes its result, its inputs
and its backward rule to ``_record``, which keeps the inputs in
``_parents`` and the rule on the output when recording, and ``backward()``
replays the recording once in reverse topological order. A rule maps the
output's gradient to one gradient per parent, in ``_parents`` order, each
shaped like that parent; ``backward()`` alone adds them into the parents
that require a gradient. Masks, indices and offsets that only a gradient
needs are built by the rule, when ``backward()`` calls it. Arrays are numpy
underneath; float64 is the default so gradient checks stay meaningful,
float32 is accepted for faster training runs.
"""

import math
import threading

import numpy as np

from .errors import DimensionError, DomainError, OracleError, UsageError

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _ThreadState(threading.local):
    # per-thread, so a caller's threads record independently
    recording = True


_State = _ThreadState()


class no_grad:
    """Disable graph recording inside a ``with`` block."""

    def __enter__(self):
        self._previous = _State.recording
        _State.recording = False
        return self

    def __exit__(self, *exc):
        _State.recording = self._previous
        return False


def recording():
    """Whether operations on this thread record the graph (False under
    ``no_grad``)."""
    return _State.recording


class Tensor:
    """A dense float array plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_op", "_backward_ran")

    # keep numpy from consuming Tensors elementwise; reflected ops run instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"
        self._backward_ran = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flags})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None):
        return reduce_sum(self, axis)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b):
    """Lift the non-Tensor operand to a constant matching the other's dtype."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
    if isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    return Tensor(np.asarray(a, dtype=b.dtype)), b


def _record(data, parents, op, rule):
    """A Tensor of ``data`` that keeps ``parents`` and ``rule`` if recorded."""
    out = Tensor(data)
    if _State.recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._op = op
        out._backward_fn = rule
    return out


def _accumulate(t, g):
    if t.grad is None:
        # a copy, never ``g`` itself: add and sub hand one array to both
        # operands, and reduce_sum hands over a read-only broadcast view
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = _pair(a, b)
    return _record(a.data + b.data, (a, b), "add",
                   lambda g: (_unbroadcast(g, a.shape),
                              _unbroadcast(g, b.shape)))


def sub(a, b):
    a, b = _pair(a, b)
    return _record(a.data - b.data, (a, b), "sub",
                   lambda g: (_unbroadcast(g, a.shape),
                              _unbroadcast(-g, b.shape)))


def mul(a, b):
    a, b = _pair(a, b)
    return _record(a.data * b.data, (a, b), "mul",
                   lambda g: (_unbroadcast(g * b.data, a.shape),
                              _unbroadcast(g * a.data, b.shape)))


def matmul(a, b):
    """Matrix product for rank-2 operands, optionally batched on the left.

    Supported shapes: (m,k)@(k,p), (B,m,k)@(B,k,p), (B,m,k)@(k,p).
    """
    a, b = _pair(a, b)
    if not (2 <= a.ndim <= 3) or not (2 <= b.ndim <= 3):
        raise DimensionError(
            f"matmul expects rank-2 or rank-3 operands, got {a.shape} @ {b.shape}")
    if a.ndim == 2 and b.ndim == 3:
        raise DimensionError(
            f"matmul does not broadcast a rank-2 left operand: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"matmul batch extents disagree: {a.shape} @ {b.shape}")

    def rule(g):
        if b.ndim == 2 and a.ndim == 3:
            gb = np.tensordot(a.data, g, axes=((0, 1), (0, 1)))
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return g @ np.swapaxes(b.data, -1, -2), gb

    return _record(a.data @ b.data, (a, b), "matmul", rule)


def relu(a):
    """Elementwise max(0, x); the gradient at exactly 0 is defined as 0.

    NaN inputs stay NaN (with gradient 0), so a non-finite value surfaces
    downstream instead of being masked to 0.
    """
    a = as_tensor(a)
    return _record(np.maximum(a.data, 0), (a,), "relu",
                   lambda g: (g * (a.data > 0),))


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(ax % ndim for ax in axis))


def _spread(g, shape, axes):
    """A reduction's gradient broadcast back over its reduced ``axes``."""
    kept = tuple(1 if i in axes else n for i, n in enumerate(shape))
    return np.broadcast_to(g.reshape(kept), shape)


def _accurate_sum(data, axes, count=1):
    # accumulate float32 reductions at float64 so the result does not depend
    # on summation order beyond one final rounding; ``count`` makes it a mean
    return (data.sum(axis=axes, dtype=np.float64) / count).astype(
        data.dtype, copy=False)


def reduce_sum(a, axis=None):
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    return _record(_accurate_sum(a.data, axes), (a,), "sum",
                   lambda g: (_spread(g, a.shape, axes),))


def reduce_mean(a, axis=None):
    """Arithmetic mean over ``axis``; the gradient spreads uniformly (1/n)."""
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    if count == 0:
        raise DomainError("cannot average over an empty axis")
    return _record(_accurate_sum(a.data, axes, count), (a,), "mean",
                   lambda g: (_spread(g, a.shape, axes) / count,))


def reduce_max(a, axis):
    """Maximum over one axis; gradient routes to the first argmax on ties."""
    a = as_tensor(a)
    if not isinstance(axis, int):
        raise UsageError("reduce_max takes a single integer axis")
    axis = axis % a.ndim
    if a.shape[axis] == 0:
        raise DomainError("cannot take a maximum over an empty axis")
    peak = a.data.max(axis=axis)

    def rule(g):
        idx = a.data.argmax(axis=axis)
        gx = np.zeros_like(a.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis),
                          np.expand_dims(g, axis), axis)
        return (gx,)

    return _record(peak, (a,), "max", rule)


def concat(tensors, axis=-1):
    """Concatenate along ``axis``; the gradient splits by original extents."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of an empty list")
    ndim = tensors[0].ndim
    axis = axis % ndim
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != ndim or any(t.shape[i] != base[i]
                                 for i in range(ndim) if i != axis):
            raise DimensionError(
                f"concat extents disagree off axis {axis}: "
                f"{[tuple(t.shape) for t in tensors]}")

    def rule(g):
        offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return np.split(g, offsets, axis=axis)

    return _record(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, "concat", rule)


def reshape(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} into {shape}")
    return _record(a.data.reshape(shape), (a,), "reshape",
                   lambda g: (g.reshape(a.shape),))


def transpose_last2(a):
    a = as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"transpose needs rank >= 2, got {a.shape}")
    return _record(np.swapaxes(a.data, -1, -2), (a,), "transpose",
                   lambda g: (np.swapaxes(g, -1, -2),))


def repeat_rows(a, n):
    """Repeat a (..., k) tensor into (..., n, k); gradients sum back over rows."""
    a = as_tensor(a)
    return _record(np.repeat(np.expand_dims(a.data, -2), n, axis=-2), (a,),
                   "repeat_rows", lambda g: (g.sum(axis=-2),))


def cross_entropy(logits, labels):
    """Mean over rows of -log(softmax(logits))[row, label], one node.

    ``logits`` is (rows, P) and ``labels`` holds one column per row. The
    softmax is taken in log-sum-exp form; the gradient is
    (softmax - onehot) / rows.
    """
    x = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or labels.shape != x.shape[:1]:
        raise DimensionError("cross_entropy expects (rows, P) logits and one "
                             f"label per row, got {x.shape} and {labels.shape}")
    count = x.shape[0]
    if count == 0:
        raise DomainError("cannot average over an empty axis")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(count)

    def rule(g):
        s = -g / count
        gx = np.zeros_like(logp)
        gx[rows, labels] = s
        return (gx - np.exp(logp) * s,)

    return _record(-_accurate_sum(logp[rows, labels], (0,), count), (x,),
                   "cross_entropy", rule)


def graph_order(root):
    """Recorded nodes reachable from ``root``, every node after its inputs."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root):
    """Populate ``grad`` on every reachable requires_grad tensor.

    The seed must be scalar, and each recorded node can be walked once: a
    call that reaches the root or a recorded node of an earlier call raises
    ``UsageError``; build a fresh forward pass before calling again.
    """
    if not isinstance(root, Tensor):
        raise UsageError("backward expects a Tensor")
    if root.size != 1:
        raise UsageError(f"backward seed must be scalar, got shape {root.shape}")
    order = graph_order(root) if root.requires_grad else [root]
    walked = [node for node in order if node._parents or node is root]
    if any(node._backward_ran for node in walked):
        raise UsageError(
            "backward already ran through this graph; rebuild the forward "
            "pass first")
    for node in walked:
        node._backward_ran = True
    if not root.requires_grad:
        return
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward_fn is not None:
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if parent.requires_grad:
                    _accumulate(parent, g)
            del grads, g  # freed now, not held while the next rule runs


def finite_diff_check(f, params, h=1e-4):
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic scalar function of ``params`` (float64).
    Returns the maximum over all parameter components of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if h <= 0:
        raise UsageError("finite difference step must be positive")
    for p in params:
        if p.dtype != np.float64:
            raise UsageError("gradient checking requires float64 parameters")
        if not p.requires_grad:
            raise UsageError("all checked parameters must require gradients")
    first = f()
    second = f()
    if first.size != 1:
        raise UsageError("finite_diff_check needs a scalar-valued function")
    if first.item() != second.item():
        raise OracleError(
            "function is not deterministic: two evaluations at the same "
            f"parameters gave {first.item()} and {second.item()}")
    for p in params:
        p.grad = None
    backward(first)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    with no_grad():
        for p, ref in zip(params, analytic):
            if not p.data.flags["C_CONTIGUOUS"]:
                p.data = np.ascontiguousarray(p.data)
            flat = p.data.reshape(-1)  # view; perturbations hit p.data
            grads = ref.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                upper = f().item()
                flat[i] = orig - h
                lower = f().item()
                flat[i] = orig
                numeric = (upper - lower) / (2.0 * h)
                err = abs(grads[i] - numeric) / max(1.0, abs(grads[i]), abs(numeric))
                worst = max(worst, err)
    return worst
