"""Neural building blocks for point feature maps.

All layers accept either a single feature map of shape (n, k) or a batch of
maps (B, n, k). Pointwise layers act row by row, so reordering the points
reorders the outputs identically.
"""

import math

import numpy as np

from .errors import DegenerateError, DimensionError, DomainError
from .tensor import (Tensor, _accumulate, _accurate_mean, _accurate_sum,
                     _record, matmul, reduce_max, reduce_mean, relu, reshape,
                     transpose_last2, reduce_sum)


class PointwiseConv:
    """Shared linear map applied independently to every point.

    Input:
        features of shape (..., n, d_in)
    Return:
        features of shape (..., n, d_out); row i depends only on input row i.
    """

    def __init__(self, d_in, d_out, rng, bias=True, dtype=np.float64):
        scale = math.sqrt(2.0 / d_in)
        self.weight = Tensor(rng.normal(0.0, scale, size=(d_in, d_out)),
                             requires_grad=True, dtype=dtype)
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(d_out), requires_grad=True, dtype=dtype)
        self.d_in = d_in
        self.d_out = d_out

    def __call__(self, features):
        features = features if isinstance(features, Tensor) else Tensor(features)
        if features.shape[-1] != self.d_in:
            raise DimensionError(
                f"layer expects {self.d_in} input channels, got shape "
                f"{features.shape}")
        out = matmul(features, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def named_parameters(self, prefix=""):
        items = [(prefix + "weight", self.weight)]
        if self.bias is not None:
            items.append((prefix + "bias", self.bias))
        return items


class BatchNorm:
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
        features = features if isinstance(features, Tensor) else Tensor(features)
        if features.shape[-1] != self.width:
            raise DimensionError(
                f"batch norm of width {self.width} got shape {features.shape}")
        if training:
            rows = 1
            for extent in features.shape[:-1]:
                rows *= extent
            if rows < 2:
                raise DegenerateError(
                    f"cannot normalize a batch of {rows} value(s) per channel")
            axes = tuple(range(features.ndim - 1))
            mean = _accurate_mean(features.data, axes, rows)
            xhat = features.data - mean
            var = _accurate_mean(xhat * xhat, axes, rows)
            std = np.sqrt(var + self.eps)
            xhat /= std  # centered values, normalized in place
            out = self._train_node(features, xhat, 1.0 / std, axes, rows)
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * var
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma * inv
        shift = self.beta - scale * self.running_mean
        return features * scale + shift

    def _train_node(self, features, xhat, inv, axes, rows):
        """One graph node with the closed-form gradient (Ioffe & Szegedy,
        ICML 2015, section 3); float32 sums accumulate at float64."""
        gamma, beta = self.gamma, self.beta
        data = xhat * gamma.data
        data += beta.data
        out = _record(data, (features, gamma, beta), "batch_norm")
        if out._parents:
            def rule(g):
                g_xhat = g * xhat
                sum_g = _accurate_sum(g, axes)
                sum_gx = _accurate_sum(g_xhat, axes)
                if beta.requires_grad:
                    _accumulate(beta, sum_g)
                if gamma.requires_grad:
                    _accumulate(gamma, sum_gx)
                if features.requires_grad:
                    # dx = gamma * inv * (g - sum(g) / N - xhat * sum(g * xhat) / N),
                    # built in the buffer of g * xhat
                    dx = np.multiply(xhat, sum_gx / -rows, out=g_xhat)
                    dx += g
                    dx -= sum_g / rows
                    dx *= gamma.data * inv
                    _accumulate(features, dx)

            out._backward_fn = rule
        return out

    def named_parameters(self, prefix=""):
        return [(prefix + "gamma", self.gamma), (prefix + "beta", self.beta)]

    def named_state(self, prefix=""):
        return [(prefix + "running_mean", self.running_mean),
                (prefix + "running_var", self.running_var)]

    def load_state(self, name, value):
        if name.endswith("running_mean"):
            self.running_mean = value.astype(self.running_mean.dtype)
        else:
            self.running_var = value.astype(self.running_var.dtype)


def max_over_points(features):
    """Column-wise maximum over the point axis: (..., n, k) -> (..., k)."""
    return reduce_max(features, axis=-2)


def global_average_pool(features):
    """Column-wise mean over the point axis: (..., n, k) -> (..., k)."""
    return reduce_mean(features, axis=-2)


def channel_window_max(features, window=3):
    """Sliding maximum along the channel axis, stride 1, edge-replicated.

    The output has the same width as the input, and each point row is pooled
    independently, so the op is point-permutation equivariant. Ties inside a
    window resolve to the leftmost channel.
    """
    features = features if isinstance(features, Tensor) else Tensor(features)
    if window < 1 or window % 2 == 0:
        raise DomainError(f"window must be odd and positive, got {window}")
    x = features.data
    k = x.shape[-1]
    if k == 0:
        raise DomainError("cannot pool over an empty channel axis")
    half = window // 2
    pads = [x[..., :1]] * half + [x] + [x[..., -1:]] * half
    padded = np.concatenate(pads, axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1)
    out = _record(windows.max(axis=-1), (features,), "channel_window_max")
    if out._parents:
        # map window-local argmax back to a clamped source channel
        src = np.clip(np.arange(k) - half + windows.argmax(axis=-1), 0, k - 1)

        def rule(g):
            gx = np.zeros_like(x)
            flat_gx = gx.reshape(-1, k)
            rows = np.arange(flat_gx.shape[0])[:, None]
            np.add.at(flat_gx, (rows, src.reshape(-1, k)), g.reshape(-1, k))
            _accumulate(features, gx)

        out._backward_fn = rule
    return out


class TNet:
    """Alignment network predicting a k-by-k transform from a feature map.

    Pointwise convolutions (each with batch norm and ReLU) lift the features,
    a point-axis max pools them into one descriptor, fully connected layers
    shrink it, and a final affine maps to the k*k matrix. The affine starts
    at zero weights with an identity bias, so a fresh network returns the
    identity transform for any input.
    """

    def __init__(self, k, rng, conv_widths=(64, 128, 1024),
                 fc_widths=(512, 256), dtype=np.float64):
        self.k = k
        self.convs = []
        self.bns = []
        width = k
        for w in conv_widths:
            self.convs.append(PointwiseConv(width, w, rng, bias=False, dtype=dtype))
            self.bns.append(BatchNorm(w, dtype=dtype))
            width = w
        self.fcs = []
        for w in fc_widths:
            self.fcs.append(PointwiseConv(width, w, rng, bias=True, dtype=dtype))
            width = w
        self.out = PointwiseConv(width, k * k, rng, bias=True, dtype=dtype)
        self.out.weight.data[:] = 0.0
        self.out.bias.data[:] = np.eye(k, dtype=dtype).reshape(-1)

    def matrix(self, features, training=False):
        """Predict the transform for a (B, n, k) or (n, k) feature map."""
        single = features.ndim == 2
        x = reshape(features, (1,) + tuple(features.shape)) if single else features
        h = x
        for conv, bn in zip(self.convs, self.bns):
            h = relu(bn(conv(h), training))
        pooled = reduce_max(h, axis=-2)
        for fc in self.fcs:
            pooled = relu(fc(pooled))
        flat = self.out(pooled)
        mats = reshape(flat, (flat.shape[0], self.k, self.k))
        if single:
            mats = reshape(mats, (self.k, self.k))
        return mats

    def align(self, features, training=False):
        """Return (features @ predicted matrix, predicted matrix)."""
        features = features if isinstance(features, Tensor) else Tensor(features)
        if features.shape[-1] != self.k:
            raise DimensionError(
                f"alignment network of width {self.k} got shape {features.shape}")
        mats = self.matrix(features, training)
        return matmul(features, mats), mats

    def named_parameters(self, prefix=""):
        items = []
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns)):
            items.extend(conv.named_parameters(f"{prefix}conv{i}/"))
            items.extend(bn.named_parameters(f"{prefix}bn{i}/"))
        for i, fc in enumerate(self.fcs):
            items.extend(fc.named_parameters(f"{prefix}fc{i}/"))
        items.extend(self.out.named_parameters(f"{prefix}out/"))
        return items

    def named_state(self, prefix=""):
        items = []
        for i, bn in enumerate(self.bns):
            items.extend(bn.named_state(f"{prefix}bn{i}/"))
        return items


def orthogonality_regularizer(mat):
    """Squared Frobenius distance of A @ A^T from the identity.

    For a batch of matrices the per-matrix penalties are averaged.
    """
    mat = mat if isinstance(mat, Tensor) else Tensor(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {mat.shape}")
    eye = Tensor(np.eye(mat.shape[-1], dtype=mat.dtype))
    diff = eye - matmul(mat, transpose_last2(mat))
    per_matrix = reduce_sum(diff * diff, axis=(-1, -2))
    if per_matrix.ndim == 0:
        return per_matrix
    return reduce_mean(per_matrix)
