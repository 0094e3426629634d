"""Full segmentation networks: PIG-Net and the compact PointNet comparator.

Both models map an (n, 3) point cloud (or a (B, n, 3) batch) to per-point
part logits. The forward pass keeps per-point features and one aggregated
global descriptor, concatenates them per point, and classifies each point
with a shared head; no softmax is applied to the returned logits.
"""

import hashlib
import json
import numbers
import operator
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, DataError, DimensionError, InputError
from .seeding import INIT, make_rng
from .tensor import (Tensor, as_tensor, concat, cross_entropy, no_grad,
                     recording, repeat_rows, reshape)
from .layers import (Ladder, Module, PointwiseConv, TNet, global_average_pool,
                     max_over_points, orthogonality_regularizer)
from .inception import InceptionStack

DTYPES = {"float64": np.float64, "float32": np.float32}


@dataclass(frozen=True)
class ModelConfig:
    """Complete architectural description; a network is built from it
    deterministically given a seed."""

    num_parts: int
    arch: str = "pignet"
    inception_plan: tuple = (64, 128, 256, 512)
    use_inception: bool = True
    use_gap: bool = True
    feature_transform: bool = True
    feature_reduce: int | None = None
    head_widths: tuple = (512, 256, 128)
    lambda_reg: float = 0.001
    tnet_conv_widths: tuple = (64, 128, 1024)
    tnet_fc_widths: tuple = (512, 256)
    baseline_plan: tuple = (64, 64, 64, 128, 1024)
    baseline_local_index: int = 2
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("inception_plan", "head_widths", "tnet_conv_widths",
                     "tnet_fc_widths", "baseline_plan"):
            widths = getattr(self, name)
            try:
                widths = tuple(_integer(name, w) for w in widths)
            except TypeError:
                raise ConfigError(f"{name} must be a sequence of integers, "
                                  f"got {widths!r}") from None
            object.__setattr__(self, name, widths)
        for name in ("use_inception", "use_gap", "feature_transform"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, "
                                  f"got {getattr(self, name)!r}")
        if self.arch not in ("pignet", "pointnet"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self._builtin("num_parts", _integer) < 2:
            raise ConfigError(f"num_parts must be >= 2, got {self.num_parts}")
        if not 0 <= self._builtin("lambda_reg", _real) < np.inf:
            raise ConfigError(
                f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")
        if not self.inception_plan:
            raise ConfigError("inception_plan must not be empty")
        for e in self.inception_plan:
            if e < 2 or e % 2:
                raise ConfigError(f"inception filter counts must be even, got {e}")
        for w in (*self.head_widths, *self.tnet_conv_widths,
                  *self.tnet_fc_widths, *self.baseline_plan):
            if w < 1:
                raise ConfigError(f"layer widths must be positive, got {w}")
        if (self.feature_reduce is not None
                and self._builtin("feature_reduce", _integer) < 1):
            raise ConfigError(
                f"feature_reduce must be positive, got {self.feature_reduce}")
        if not isinstance(self.dtype, str) or self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")
        index = self._builtin("baseline_local_index", _integer)
        if not 0 <= index < len(self.baseline_plan):
            raise ConfigError("baseline_local_index outside the conv plan")

    def _builtin(self, name, read):
        """Store the field as ``read(name, value)`` returns it, so a numpy
        scalar is kept as its builtin value; return that value."""
        object.__setattr__(self, name, read(name, getattr(self, name)))
        return getattr(self, name)


def _integer(name, value):
    """``value`` as an int; a bool or a non-integer raises ConfigError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name, value):
    """``value`` itself, or the builtin value of a numpy scalar; a bool or a
    non-real raises ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value.item() if isinstance(value, np.generic) else value
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def config_hash(config):
    """Stable hash of a model configuration, used for checkpoint compatibility."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _checked_points(points, dtype):
    """Validate an (n, 3) cloud or a (B, n, 3) batch; return it in ``dtype``
    and in its own shape, as both take one path through the layers."""
    pts = as_tensor(points)
    if pts.dtype != dtype:
        pts = Tensor(pts.data.astype(dtype))
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise DimensionError(
            f"expected an (n, 3) cloud or a (B, n, 3) batch, got {pts.shape}")
    if pts.size == 0:
        raise InputError("cloud must contain at least one point")
    if not np.isfinite(pts.data).all():
        raise InputError("point coordinates must be finite")
    return pts


class _HeadMixin(Module):
    """Both networks: an input T-Net, the features that the subclass for
    ``arch`` builds in ``_build_features(rng)``, which returns the head's
    input width, and a per-point head of a ladder, then an affine."""

    def __init__(self, config, seed=0):
        if config.arch != self.arch:
            raise ConfigError(f"{type(self).__name__} cannot be built from "
                              f"arch {config.arch!r}")
        self.config = config
        dtype = self.dtype = DTYPES[config.dtype]
        rng = None if seed is None else make_rng(seed, INIT)
        self.input_tnet = TNet(3, rng, config.tnet_conv_widths,
                               config.tnet_fc_widths, dtype=dtype)
        width = self._build_features(rng)
        self.head = Ladder(width, config.head_widths, rng, dtype)
        self.head.out = PointwiseConv(self.head.out_channels,
                                      config.num_parts, rng, dtype=dtype)

    @property
    def head_out(self):
        """The head's final affine, by the name bench/selftest.py reads."""
        return self.head.out

    def _classify(self, local, pooled, training, capture, **captured):
        """Per-point head logits of the local beside the global features."""
        combined = concat([local, repeat_rows(pooled, local.shape[-2])], axis=-1)
        logits = self.head.out(self.head(combined, training))
        if capture is not None:
            capture.update(captured, local_features=local,
                           global_feature=pooled, combined=combined)
        return logits

    def predict(self, points):
        """Per-point part ids (eval mode); ties go to the lower part id."""
        with no_grad():
            logits, _ = self.forward(points, training=False)
        return np.argmax(logits.data, axis=-1)


class PigNet(_HeadMixin):
    """Input alignment, inception feature stack, feature alignment, global
    pooling, local/global concatenation, per-point head."""

    arch = "pignet"

    def _build_features(self, rng):
        config, dtype = self.config, self.dtype
        plan = config.inception_plan
        self.stack = (InceptionStack(plan, rng, dtype=dtype)
                      if config.use_inception else Ladder(3, plan, rng, dtype))
        width = self.stack.out_channels
        self.reduce = None
        if config.feature_reduce is not None:
            self.reduce = Module()
            self.reduce._add_rung("", width, config.feature_reduce, rng, dtype)
            width = config.feature_reduce
        self.feature_tnet = None
        if config.feature_transform:
            self.feature_tnet = TNet(width, rng, config.tnet_conv_widths,
                                     config.tnet_fc_widths, dtype=dtype)
        return 2 * width

    def forward(self, points, training=False, capture=None):
        """Run the network; returns (logits, feature transform matrix).

        The matrix is None when the feature transform is disabled. Pass a
        dict as ``capture`` to receive intermediate tensors.
        """
        x = _checked_points(points, self.dtype)
        aligned, input_mat = self.input_tnet.align(x, training)
        feats = self.stack(aligned, training)
        if self.reduce is not None:
            feats = self.reduce._rung("", feats, training)
        if self.feature_tnet is not None:
            local, feature_mat = self.feature_tnet.align(feats, training)
        else:
            local, feature_mat = feats, None
        pool = global_average_pool if self.config.use_gap else max_over_points
        pooled = pool(local)
        logits = self._classify(local, pooled, training, capture,
                                aligned_input=aligned, input_matrix=input_mat,
                                feature_matrix=feature_mat)
        return logits, feature_mat


class PointNetBaseline(_HeadMixin):
    """Compact PointNet-style comparator.

    Input alignment, a plain conv ladder, a point-axis max for the global
    descriptor, concatenation with the last 64-wide per-point features, and
    the same head/loss machinery as PigNet. No feature transform.
    """

    arch = "pointnet"

    def _build_features(self, rng):
        plan = self.config.baseline_plan
        self.convs = Ladder(3, plan, rng, self.dtype)
        return plan[self.config.baseline_local_index] + plan[-1]

    def forward(self, points, training=False, capture=None):
        x = _checked_points(points, self.dtype)
        aligned, input_mat = self.input_tnet.align(x, training)
        index = self.config.baseline_local_index
        # in a recorded training forward the max alone reads the last rung
        pool = training and recording() and index < self.convs.rungs - 1
        rungs = self.convs.outputs(aligned, training, pooled=pool)
        local = rungs[index]
        pooled = rungs[-1] if pool else max_over_points(rungs[-1])
        logits = self._classify(local, pooled, training, capture,
                                aligned_input=aligned, input_matrix=input_mat)
        return logits, None


def build_model(config, seed=0):
    """Build the network ``config`` describes, its weights drawn from
    ``seed``; ``seed=None`` draws no weights, for a model whose parameters
    are about to be overwritten, as from a checkpoint."""
    network = PigNet if config.arch == "pignet" else PointNetBaseline
    return network(config, seed)


def segmentation_loss(logits, labels, feature_matrix=None, lambda_reg=0.0):
    """Mean cross entropy over points, plus the alignment regularizer.

    ``logits`` may be (n, P) or (B, n, P); labels follow with one part id per
    point. The cross entropy is one ``cross_entropy`` graph node.
    """
    logits = as_tensor(logits)
    num_parts = logits.shape[-1]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    rows = int(np.prod(logits.shape[:-1], dtype=np.int64))
    flat = reshape(logits, (rows, num_parts))
    if labels.shape[0] != flat.shape[0]:
        raise DataError(
            f"{flat.shape[0]} points but {labels.shape[0]} labels")
    bad = np.nonzero((labels < 0) | (labels >= num_parts))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"part label {int(labels[i])} at point {i} outside [0, {num_parts})")
    loss = cross_entropy(flat, labels)
    if feature_matrix is not None and lambda_reg > 0:
        loss = loss + lambda_reg * orthogonality_regularizer(feature_matrix)
    return loss


def count_parameters(model):
    """Total trainable scalar count (conv weights, biases, BN gamma/beta)."""
    return int(sum(p.data.size for _, p in model.named_parameters()))


def _rungs(width, widths):
    """(parameter count, output width) of rungs from ``width`` on."""
    count = 0
    for w in widths:
        count += width * w + 2 * w
        width = w
    return count, width


def _tnet_count(k, config):
    total, width = _rungs(k, config.tnet_conv_widths)
    for w in (*config.tnet_fc_widths, k * k):  # affine layers with a bias
        total += width * w + w
        width = w
    return total


def parameter_count(config):
    """Closed-form parameter count for a configuration, without building it.

    Matches count_parameters(build_model(config)) exactly; used to report the
    full-scale budget (whose feature-alignment block is too large to allocate
    for a mere count).
    """
    total = _tnet_count(3, config)
    if config.arch == "pointnet":
        count, width = _rungs(3, config.baseline_plan)
        total += count
        head_in = config.baseline_plan[config.baseline_local_index] + width
    else:
        width = 3
        for e in config.inception_plan:
            if config.use_inception:
                # the entry rung, then three branches that read its e
                # channels and write e/2 + e/2 + e = 2e between them
                count, _ = _rungs(width, (e, 2 * e))
                width = 3 * e
            else:
                count, width = _rungs(width, (e,))
            total += count
        if config.feature_reduce is not None:
            count, width = _rungs(width, (config.feature_reduce,))
            total += count
        if config.feature_transform:
            total += _tnet_count(width, config)
        head_in = 2 * width
    count, width = _rungs(head_in, config.head_widths)
    return total + count + (width + 1) * config.num_parts
