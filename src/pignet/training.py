"""Per-category training with Adam, deterministic batching, and checkpoints.

Checkpoint layout: the magic bytes ``PIGNET01``, a little-endian u32 length
followed by a JSON metadata block (config hash and full config, epoch, RNG
state, tensor count), then one record per tensor: u32 name length, the name,
u32 rank, u64 extents, and the values as little-endian float64.

A save streams the header and then each record to a temporary file and
renames it over the target. A read takes the whole file into one buffer and
returns float64 views into it. ``model_from_checkpoint`` builds its model
without drawing initial weights, since the file overwrites every one.
"""

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (CompatibilityError, ConfigError, DataError,
                     DimensionError, DomainError, FormatError)
from .seeding import AUGMENT, SAMPLE, SHUFFLE, make_rng
from .tensor import Tensor, backward
from .model import build_model, config_hash, segmentation_loss
from .data import augment, sample_points

MAGIC = b"PIGNET01"


@dataclass
class TrainConfig:
    epochs: int
    seed: int = 0
    batch_size: int = 64
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_adam: float = 1e-8
    category: str = ""

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, "
                              f"got {self.learning_rate}")
        if not 0 < self.epsilon_adam < math.inf:
            raise ConfigError(f"epsilon_adam must be finite and > 0, "
                              f"got {self.epsilon_adam}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("Adam betas must lie in [0, 1)")


class AdamOptimizer:
    """Standard bias-corrected Adam over a fixed list of named parameters."""

    def __init__(self, named_params, learning_rate=0.001, beta1=0.9,
                 beta2=0.999, epsilon=1e-8):
        self.named_params = list(named_params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    @classmethod
    def for_model(cls, model, cfg):
        return cls(model.named_parameters(), cfg.learning_rate, cfg.beta1,
                   cfg.beta2, cfg.epsilon_adam)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name} of shape {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _train_step(model, optimizer, clouds, batch_idx, epoch, batch_number,
                train_config, augment_config, lambda_reg):
    """Augment ``clouds[batch_idx]`` (seeded by epoch and shape index), then
    run one forward/backward/Adam step; returns the batch loss. A non-finite
    loss raises DomainError before Adam touches the parameters."""
    batch_pts = []
    batch_labels = []
    for idx in batch_idx:
        idx = int(idx)
        shape = clouds[idx]
        if augment_config is not None:
            shape = augment(shape, augment_config,
                            (train_config.seed, AUGMENT, epoch, idx))
        batch_pts.append(shape.points)
        batch_labels.append(shape.labels)
    batch = Tensor(np.stack(batch_pts).astype(model.dtype))
    logits, feature_mat = model.forward(batch, training=True)
    loss = segmentation_loss(logits, np.stack(batch_labels), feature_mat,
                             lambda_reg)
    optimizer.zero_grad()
    backward(loss)
    value = loss.item()
    if not math.isfinite(value):
        bad = next((name for name, p in optimizer.named_params
                    if p.grad is not None and not np.isfinite(p.grad).all()),
                   "none")
        raise DomainError(
            f"loss is {value} at epoch {epoch}, batch {batch_number}; first "
            f"parameter with a non-finite gradient: {bad}")
    optimizer.step()
    return value


@dataclass
class TrainResult:
    model: object
    optimizer: AdamOptimizer
    history: list
    rng_state: dict


def train_category(records, model_config, train_config, augment_config=None,
                   points=1024, eval_fn=None, log=None):
    """Train one per-category model over the given shape records.

    Shapes are normalized and resampled to a fixed size once, up front; each
    epoch then reshuffles them (seeded), re-draws their augmentation, and
    runs batched forward/backward/Adam steps. ``eval_fn(model, epoch)`` may
    supply a validation score recorded alongside the loss. Label ranges are
    validated before any training step runs.
    """
    if not records:
        raise DataError("training list is empty")
    for rec in records:
        if rec.cloud.labels.max() >= model_config.num_parts:
            raise DataError(
                f"{rec.labels_path} holds label {int(rec.cloud.labels.max())} "
                f"outside [0, {model_config.num_parts})")
    # fixed-size resampling happens once per shape; augmentation is re-drawn
    # every epoch
    clouds = [sample_points(rec.labeled_cloud(), points,
                            (train_config.seed, SAMPLE, i))
              for i, rec in enumerate(records)]
    model = build_model(model_config, seed=train_config.seed)
    optimizer = AdamOptimizer.for_model(model, train_config)
    shuffle_rng = make_rng(train_config.seed, SHUFFLE)
    history = []
    for epoch in range(train_config.epochs):
        order = shuffle_rng.permutation(len(clouds))
        epoch_loss = 0.0
        for batch_number, start in enumerate(
                range(0, len(order), train_config.batch_size)):
            batch_idx = order[start:start + train_config.batch_size]
            loss = _train_step(model, optimizer, clouds, batch_idx, epoch,
                               batch_number, train_config, augment_config,
                               model_config.lambda_reg)
            epoch_loss += loss * len(batch_idx)
        entry = {"epoch": epoch, "train_loss": epoch_loss / len(clouds)}
        if eval_fn is not None:
            entry["val_instance_miou"] = eval_fn(model, epoch)
        history.append(entry)
        if log is not None:
            log(entry)
    return TrainResult(model, optimizer, history,
                       shuffle_rng.bit_generator.state)


def parameter_hash(model):
    """SHA-256 over parameter names, shapes and float64 values, in order."""
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(str(p.data.shape).encode())
        digest.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return digest.hexdigest()


def _named_arrays(model, optimizer=None):
    items = [("param/" + name, p.data) for name, p in model.named_parameters()]
    items.extend(("state/" + name, arr) for name, arr in model.named_state())
    if optimizer is not None:
        items.extend(("adam_m/" + name, arr)
                     for name, arr in optimizer.m.items())
        items.extend(("adam_v/" + name, arr)
                     for name, arr in optimizer.v.items())
    return items


def save_checkpoint(path, model, optimizer=None, epoch=0, rng_state=None):
    """Serialize model (and optimizer) state; the write is atomic.

    The header and then each tensor's record go straight to a temporary
    file, which is renamed over ``path`` once complete."""
    arrays = _named_arrays(model, optimizer)
    meta = {
        "config_hash": config_hash(model.config),
        "config": asdict(model.config),
        "epoch": int(epoch),
        "rng_state": rng_state,
        "tensor_count": len(arrays),
        "adam_step_count": None if optimizer is None else optimizer.step_count,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes)
        for name, arr in arrays:
            name_bytes = name.encode()
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack(f"<I{len(name_bytes)}sI{data.ndim}Q",
                                 len(name_bytes), name_bytes, data.ndim,
                                 *data.shape))
            fh.write(data)
    os.replace(tmp, path)


def read_checkpoint(path):
    """Parse a checkpoint into (metadata, {name: array}); no model needed.

    The file is read once into one writable buffer, and the arrays are
    little-endian float64 views into it.
    """
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(blob)
    if got != len(blob):
        raise FormatError(
            f"{path} is truncated: read {got} of {len(blob)} bytes")
    view = memoryview(blob)
    pos = 0

    def grab(count, what):
        nonlocal pos
        if pos + count > len(view):
            raise FormatError(f"{path} is truncated while reading {what}")
        piece = view[pos:pos + count]
        pos += count
        return piece

    if bytes(grab(len(MAGIC), "magic")) != MAGIC:
        raise FormatError(f"{path} is not a checkpoint (bad magic)")
    (meta_len,) = struct.unpack("<I", grab(4, "metadata length"))
    try:
        meta = json.loads(bytes(grab(meta_len, "metadata")))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise FormatError(f"{path} metadata is not valid JSON: {exc}")
    if not isinstance(meta, dict):
        raise FormatError(f"{path} metadata is not a JSON object")
    tensor_count = meta.get("tensor_count", 0)
    if type(tensor_count) is not int or tensor_count < 0:
        raise FormatError(
            f"{path} metadata has tensor_count {tensor_count!r}, not a count")
    arrays = {}
    for _ in range(tensor_count):
        (name_len,) = struct.unpack("<I", grab(4, "tensor name length"))
        name = bytes(grab(name_len, "tensor name")).decode()
        (rank,) = struct.unpack("<I", grab(4, "tensor rank"))
        shape = struct.unpack(f"<{rank}Q", grab(8 * rank, "tensor extents"))
        count = 1
        for extent in shape:
            count *= extent
        raw = grab(8 * count, f"tensor {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if pos != len(view):
        raise FormatError(f"{path} has {len(view) - pos} trailing bytes")
    return meta, arrays


def load_checkpoint(path, model, optimizer=None):
    """Restore state in place after validating the whole file.

    Returns (epoch, rng_state). A hash mismatch or an unexpected tensor set
    raises before anything is applied.
    """
    meta, arrays = read_checkpoint(path)
    return _apply_checkpoint(meta, arrays, model, optimizer)


def _apply_checkpoint(meta, arrays, model, optimizer=None):
    """Validate a parsed checkpoint against the model, then copy it in."""
    if meta.get("config_hash") != config_hash(model.config):
        raise CompatibilityError(
            "checkpoint was written for a different configuration "
            f"(hash {meta.get('config_hash')!r})")
    expected = _named_arrays(model, optimizer)
    wanted = {name for name, _ in expected}
    missing = wanted - set(arrays)
    if missing:
        raise CompatibilityError(
            f"checkpoint lacks tensors: {sorted(missing)[:3]}...")
    for name, target in expected:
        stored = arrays[name]
        if stored.shape != target.shape:
            raise CompatibilityError(
                f"tensor {name} has shape {stored.shape}, expected "
                f"{target.shape}")
    for name, target in expected:
        target[...] = arrays[name]  # casts to the model's dtype in place
    if optimizer is not None and meta.get("adam_step_count") is not None:
        optimizer.step_count = int(meta["adam_step_count"])
    return int(meta.get("epoch", 0)), meta.get("rng_state")


def model_from_checkpoint(path):
    """Rebuild the saved configuration and load the weights into it; the
    model is built without drawing initial weights."""
    from .model import ModelConfig
    meta, arrays = read_checkpoint(path)
    cfg_dict = meta.get("config")
    if not isinstance(cfg_dict, dict):
        raise FormatError(f"{path} metadata lacks the model configuration")
    try:
        config = ModelConfig(**cfg_dict)
    except (TypeError, ValueError, ConfigError) as exc:
        raise FormatError(
            f"{path} holds an invalid model configuration: {exc}") from exc
    model = build_model(config, seed=None)
    _apply_checkpoint(meta, arrays, model)
    return model
