"""Neural building blocks for point feature maps.

All layers accept either a single feature map of shape (n, k) or a batch of
maps (B, n, k). Pointwise layers act row by row, so reordering the points
reorders the outputs identically.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateError, DimensionError, DomainError
from .tensor import (Tensor, _accurate_sum, _record, as_tensor, matmul,
                     recording, reduce_max, reduce_mean, relu, reshape,
                     transpose_last2, reduce_sum)


class Module:
    """Base of every block: parameters and state are found, not listed.

    A parameter is an attribute holding a Tensor that requires a gradient;
    state is an attribute holding a numpy array, as batch norm's running
    statistics; a child is an attribute holding a Module, and its names get
    the prefix ``attr/``. One walk finds all three in assignment order, so
    checkpoint tensors come in the order the constructors built them.
    """

    def _walk(self, kind, prefix=""):
        """(path, value) of each attribute, the children's included, that
        holds a ``kind``, in assignment order."""
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._walk(kind, f"{prefix}{name}/")
            elif isinstance(value, kind):
                yield prefix + name, value

    def named_parameters(self):
        return [(name, p) for name, p in self._walk(Tensor) if p.requires_grad]

    def named_state(self):
        return list(self._walk(np.ndarray))

    def _numbered(self, stem):
        """The children registered as ``stem0``, ``stem1``, ..., in order."""
        return [value for name, value in vars(self).items()
                if name.startswith(stem) and name[len(stem):].isdigit()]

    def _add_rung(self, key, c_in, c_out, rng, dtype):
        """Register rung ``key``: ``conv<key>`` (no bias), then ``bn<key>``."""
        setattr(self, f"conv{key}",
                PointwiseConv(c_in, c_out, rng, bias=False, dtype=dtype))
        setattr(self, f"bn{key}", BatchNorm(c_out, dtype=dtype))

    def _rung(self, key, features, training):
        """``relu(bn(conv(features), training))`` for rung ``key``, run as
        one unit: one fused node in training; under ``no_grad`` in eval mode,
        the affine and ReLU in place on the conv's fresh output."""
        conv, bn = getattr(self, f"conv{key}"), getattr(self, f"bn{key}")
        out = conv(features)
        if training:
            return bn._train(out, fuse_relu=True)
        if recording():
            return relu(bn(out))
        scale, shift = bn._eval_affine()
        np.multiply(out.data, scale.data, out=out.data)
        np.add(out.data, shift.data, out=out.data)
        np.maximum(out.data, 0, out=out.data)
        return out


class PointwiseConv(Module):
    """Shared linear map applied independently to every point.

    Input:
        features of shape (..., n, d_in)
    Return:
        features of shape (..., n, d_out); row i depends only on input row i.

    The weight starts from He-normal draws of ``rng``; with ``rng=None`` it
    starts at zero and draws nothing, for weights about to be overwritten.
    """

    def __init__(self, d_in, d_out, rng, bias=True, dtype=np.float64):
        if rng is None:
            weight = np.zeros((d_in, d_out), dtype)
        else:
            weight = rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, d_out))
        self.weight = Tensor(weight, requires_grad=True, dtype=dtype)
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=dtype)
        self.d_in = d_in

    def __call__(self, features):
        features = as_tensor(features)
        if features.shape[-1] != self.d_in:
            raise DimensionError(
                f"layer expects {self.d_in} input channels, got shape "
                f"{features.shape}")
        out = matmul(features, self.weight)
        return out if self.bias is None else out + self.bias


class BatchNorm(Module):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with the biased statistics of the current batch,
    pooled over every leading axis, and updates the running estimates as
    running <- (1 - momentum) * running + momentum * batch. Eval mode applies
    the fixed affine map derived from the running estimates.
    """

    def __init__(self, width, momentum=0.1, eps=1e-5, dtype=np.float64):
        self.width = width
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(width), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(width), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(width, dtype=dtype)
        self.running_var = np.ones(width, dtype=dtype)

    def __call__(self, features, training=False):
        features = as_tensor(features)
        if features.shape[-1] != self.width:
            raise DimensionError(
                f"batch norm of width {self.width} got shape {features.shape}")
        if training:
            return self._train(features)
        scale, shift = self._eval_affine()
        return features * scale + shift

    def _eval_affine(self):
        """(scale, shift) of the eval map, from the running estimates."""
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma * inv
        return scale, self.beta - scale * self.running_mean

    def _train(self, features, fuse_relu=False):
        """Normalize by the batch statistics, update the running estimates
        and record one node, with its ReLU when ``fuse_relu``. The gradient
        masks by the ReLU, then takes the closed form of Ioffe & Szegedy
        (ICML 2015, section 3); float32 sums accumulate at float64."""
        rows = math.prod(features.shape[:-1])
        if rows < 2:
            raise DegenerateError(
                f"cannot normalize a batch of {rows} value(s) per channel")
        axes = tuple(range(features.ndim - 1))
        mean = _accurate_sum(features.data, axes, rows)
        xhat = features.data - mean
        var = _accurate_sum(xhat * xhat, axes, rows)
        std = np.sqrt(var + self.eps)
        xhat /= std  # centered values, normalized in place
        m = self.momentum
        # in place: an array made here would outlive the step and split the
        # heap that the step's temporaries free
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var
        gamma, beta = self.gamma, self.beta
        data = xhat * gamma.data
        data += beta.data
        if fuse_relu:
            np.maximum(data, 0, out=data)

        def rule(g):
            if fuse_relu:
                g = g * (data > 0)  # the ReLU'd output: > 0 where its input was
            g_xhat = g * xhat
            sum_g = _accurate_sum(g, axes)
            sum_gx = _accurate_sum(g_xhat, axes)
            # dx = gamma / std * (g - sum(g) / N - xhat * sum(g * xhat) / N),
            # built in the buffer of g * xhat
            dx = np.multiply(xhat, sum_gx / -rows, out=g_xhat)
            dx += g
            dx -= sum_g / rows
            dx *= gamma.data * (1.0 / std)
            return dx, sum_gx, sum_g

        return _record(data, (features, gamma, beta),
                       "batch_norm_relu" if fuse_relu else "batch_norm", rule)


class Ladder(Module):
    """Rungs of pointwise conv (no bias) -> batch norm -> ReLU.

    Rung i is registered as ``conv{i}`` and ``bn{i}`` and runs as one unit
    (``Module._rung``); calling the ladder returns the last rung's output
    (the input itself when there are none).
    """

    def __init__(self, c_in, widths, rng, dtype=np.float64):
        width = c_in
        for i, w in enumerate(widths):
            self._add_rung(i, width, w, rng, dtype)
            width = w
        self.rungs = len(widths)
        self.out_channels = width

    def outputs(self, features, training=False):
        """Every rung's output, first to last."""
        outs = []
        for i in range(self.rungs):
            features = self._rung(i, features, training)
            outs.append(features)
        return outs

    def __call__(self, features, training=False):
        outs = self.outputs(features, training)
        return outs[-1] if outs else features


def max_over_points(features):
    """Column-wise maximum over the point axis: (..., n, k) -> (..., k)."""
    return reduce_max(features, axis=-2)


def global_average_pool(features):
    """Column-wise mean over the point axis: (..., n, k) -> (..., k)."""
    return reduce_mean(features, axis=-2)


def channel_window_max(features):
    """Maximum over each channel and its two neighbours, stride 1,
    edge-replicated.

    The output has the same width as the input, and each point row is pooled
    independently, so the op is point-permutation equivariant. Ties inside a
    window resolve to the leftmost channel.
    """
    features = as_tensor(features)
    x = features.data
    k = x.shape[-1]
    if k == 0:
        raise DomainError("cannot pool over an empty channel axis")

    def rule(g):
        # the first of (left, own, right) holding the maximum, mapped back to
        # a clamped source channel; window j of ``edged`` is channel j's
        edged = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
        offset = sliding_window_view(edged, 3, axis=-1).argmax(axis=-1)
        src = np.clip(np.arange(k) - 1 + offset, 0, k - 1)
        gx = np.zeros_like(x)
        flat_gx = gx.reshape(-1, k)
        rows = np.arange(flat_gx.shape[0])[:, None]
        np.add.at(flat_gx, (rows, src.reshape(-1, k)), g.reshape(-1, k))
        return (gx,)

    left = np.concatenate([x[..., :1], x[..., :-1]], axis=-1)
    right = np.concatenate([x[..., 1:], x[..., -1:]], axis=-1)
    return _record(np.maximum(np.maximum(left, x), right), (features,),
                   "channel_window_max", rule)


class TNet(Ladder):
    """Alignment network predicting a k-by-k transform from a feature map.

    Its ladder of pointwise convolutions (each with batch norm and ReLU)
    lifts the features, a point-axis max pools them into one descriptor,
    fully connected layers shrink it, and a final affine maps to the k*k
    matrix. The affine starts at zero weights with an identity bias, so a
    fresh network returns the identity transform for any input.
    """

    def __init__(self, k, rng, conv_widths=(64, 128, 1024),
                 fc_widths=(512, 256), dtype=np.float64):
        self.k = k
        super().__init__(k, conv_widths, rng, dtype)
        width = self.out_channels
        for i, w in enumerate(fc_widths):
            setattr(self, f"fc{i}", PointwiseConv(width, w, rng, dtype=dtype))
            width = w
        self.out = PointwiseConv(width, k * k, rng, dtype=dtype)
        self.out.weight.data[:] = 0.0
        self.out.bias.data[:] = np.eye(k, dtype=dtype).reshape(-1)

    def matrix(self, features, training=False):
        """Predict the transform for a (B, n, k) or (n, k) feature map."""
        single = features.ndim == 2
        x = reshape(features, (1,) + tuple(features.shape)) if single else features
        pooled = reduce_max(super().__call__(x, training), axis=-2)
        for fc in self._numbered("fc"):
            pooled = relu(fc(pooled))
        flat = self.out(pooled)
        mats = reshape(flat, (flat.shape[0], self.k, self.k))
        if single:
            mats = reshape(mats, (self.k, self.k))
        return mats

    def align(self, features, training=False):
        """Return (features @ predicted matrix, predicted matrix)."""
        features = as_tensor(features)
        if features.shape[-1] != self.k:
            raise DimensionError(
                f"alignment network of width {self.k} got shape {features.shape}")
        mats = self.matrix(features, training)
        return matmul(features, mats), mats


def orthogonality_regularizer(mat):
    """Squared Frobenius distance of A @ A^T from the identity.

    For a batch of matrices the per-matrix penalties are averaged.
    """
    mat = as_tensor(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {mat.shape}")
    eye = Tensor(np.eye(mat.shape[-1], dtype=mat.dtype))
    diff = eye - matmul(mat, transpose_last2(mat))
    per_matrix = reduce_sum(diff * diff, axis=(-1, -2))
    if per_matrix.ndim == 0:
        return per_matrix
    return reduce_mean(per_matrix)
