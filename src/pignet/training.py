"""Per-category training with Adam, deterministic batching, and checkpoints.

Checkpoint layout: the magic bytes ``PIGNET01``, a little-endian u32 length
followed by a JSON metadata block (config hash and full config, epoch, RNG
state, tensor count), then one record per tensor: u32 name length, the name,
u32 rank, u64 extents, and the values as little-endian float64.

A save streams the header and then each record to a temporary file and
renames it over the target, casting each payload through one fixed 1 MiB
buffer. A read walks every record header, then casts each payload its
caller names into an array a target function gives (for
``model_from_checkpoint``, the model's own) through such a buffer.
"""

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (CompatibilityError, ConfigError, DataError,
                     DimensionError, DomainError, FormatError)
from .seeding import AUGMENT, SAMPLE, SHUFFLE, make_rng
from .tensor import Tensor, backward
from .model import (ModelConfig, _integer, _real, build_model, config_hash,
                    parameter_count, segmentation_loss)
from .data import augment, sample_points

MAGIC = b"PIGNET01"
FILL_VALUES = 1 << 17  # float64 values per payload read or write: 1 MiB


@dataclass
class TrainConfig:
    epochs: int
    seed: int = 0
    batch_size: int = 64
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_adam: float = 1e-8

    def __post_init__(self):
        for name in ("epochs", "seed", "batch_size"):
            _integer(name, getattr(self, name))
        for name in ("learning_rate", "beta1", "beta2", "epsilon_adam"):
            _real(name, getattr(self, name))
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
        """p -= lr * m_hat / (sqrt(v_hat) + epsilon) for each parameter, in
        place, through two scratch arrays the size of that parameter."""
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
            update, root = np.empty_like(p.data), np.empty_like(p.data)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=update)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=update)
            update *= g
            v += update
            np.divide(m, 1.0 - self.beta1 ** t, out=update)  # m_hat
            update *= self.learning_rate
            np.divide(v, 1.0 - self.beta2 ** t, out=root)  # v_hat
            np.sqrt(root, out=root)
            root += self.epsilon
            update /= root
            p.data -= update


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
    optimizer.zero_grad()  # the gradients are spent; free them now
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
    file, renamed over ``path`` once complete and removed if a write fails;
    each payload is cast to float64 through one buffer of ``FILL_VALUES``."""
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
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes)
            buf = np.empty(FILL_VALUES, "<f8")
            for name, arr in arrays:
                name_bytes = name.encode()
                fh.write(struct.pack(f"<I{len(name_bytes)}sI{arr.ndim}Q",
                                     len(name_bytes), name_bytes, arr.ndim,
                                     *arr.shape))
                flat = np.ascontiguousarray(arr).reshape(-1)  # model arrays: views
                for start in range(0, flat.size, FILL_VALUES):
                    chunk = buf[:flat.size - start]
                    chunk[...] = flat[start:start + chunk.size]  # to float64
                    fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fresh_arrays(meta, shapes):
    return {name: np.empty(shape, "<f8") for name, shape in shapes.items()}


def read_checkpoint(path, prefixes=("",), targets=_fresh_arrays):
    """Parse a checkpoint into (metadata, {name: array}); no model needed.

    A walk checks every record header and notes where each tensor named with
    one of ``prefixes`` lies. ``targets(meta, {name: shape})`` then gives a
    C-contiguous array for each (by default a fresh float64 one), and each
    payload is cast into it through one buffer of ``FILL_VALUES`` values."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def take(count, what):
            nonlocal pos
            if pos + count > size:
                raise FormatError(f"{path} is truncated while reading {what}")
            pos += count

        def grab(count, what):
            take(count, what)
            buf = fh.read(count)
            if len(buf) != count:  # the file shrank since its stat
                raise FormatError(f"{path} is truncated while reading {what}")
            return buf

        if grab(len(MAGIC), "magic") != MAGIC:
            raise FormatError(f"{path} is not a checkpoint (bad magic)")
        (meta_len,) = struct.unpack("<I", grab(4, "metadata length"))
        try:
            meta = json.loads(grab(meta_len, "metadata"))
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise FormatError(f"{path} metadata is not valid JSON: {exc}")
        if not isinstance(meta, dict):
            raise FormatError(f"{path} metadata is not a JSON object")
        # checked here, so a corrupt field fails before any model is touched
        for key, nullable in (("tensor_count", False), ("epoch", False),
                              ("adam_step_count", True)):
            value = meta.get(key, 0)
            if (type(value) is not int or value < 0) and not (
                    nullable and value is None):
                raise FormatError(
                    f"{path} metadata has {key} {value!r}, not a count")
        records = {}  # name: (shape, payload offset) of every record
        for _ in range(meta.get("tensor_count", 0)):
            (name_len,) = struct.unpack("<I", grab(4, "tensor name length"))
            try:
                name = grab(name_len, "tensor name").decode()
            except UnicodeDecodeError:
                raise FormatError(
                    f"{path} holds a tensor name that is not UTF-8")
            if name in records:
                raise FormatError(f"{path} holds tensor {name} twice")
            (rank,) = struct.unpack("<I", grab(4, "tensor rank"))
            if rank > 64:  # numpy 2's limit
                raise FormatError(f"{path} holds tensor {name} of rank {rank}")
            shape = struct.unpack(f"<{rank}Q", grab(8 * rank, "tensor extents"))
            records[name] = shape, pos
            count = 8 * math.prod(shape)
            take(count, f"tensor {name}")
            fh.seek(pos)
            if not count:  # a size of 0 lets any extent past take()
                try:
                    np.empty(shape, "<f8")
                except ValueError as exc:  # extents numpy cannot hold
                    raise FormatError(f"{path} holds tensor {name} of rank "
                                      f"{rank}: {exc}") from None
        end = fh.seek(0, os.SEEK_END)
        if end < size:  # a last record may lie past the shrunk end
            raise FormatError(f"{path} is truncated to {end} of {size} bytes")
        if pos != size:
            raise FormatError(f"{path} has {size - pos} trailing bytes")
        arrays = targets(meta, {name: shape for name, (shape, _) in
                                records.items() if name.startswith(prefixes)})
        buf = np.empty(FILL_VALUES, "<f8")
        for name, target in arrays.items():
            flat = target.reshape(-1)  # a view: every target is contiguous
            fh.seek(records[name][1])
            for start in range(0, flat.size, FILL_VALUES):
                chunk = buf[:flat.size - start]
                if fh.readinto(chunk) != chunk.nbytes:  # the file shrank
                    raise FormatError(
                        f"{path} is truncated while reading tensor {name}")
                flat[start:start + chunk.size] = chunk  # casts to its dtype
    return meta, arrays


def _checked_targets(path, meta, shapes, model, optimizer=None):
    """The model's (and optimizer's) arrays by name, once the file at
    ``path`` matches them."""
    if meta.get("config_hash") != config_hash(model.config):
        raise CompatibilityError(
            f"{path} was written for a different configuration "
            f"(hash {meta.get('config_hash')!r})")
    targets = dict(_named_arrays(model, optimizer))
    for what, names in (("lacks", targets.keys() - shapes.keys()),
                        ("holds unexpected", shapes.keys() - targets.keys())):
        if names:
            raise CompatibilityError(
                f"{path} {what} tensors: {sorted(names)[:3]}"
                + ("..." if len(names) > 3 else ""))
    for name, target in targets.items():
        if shapes[name] != target.shape:
            raise CompatibilityError(
                f"{path} holds tensor {name} of shape {shapes[name]}, "
                f"expected {target.shape}")
    return targets


def load_checkpoint(path, model, optimizer=None):
    """Restore state in place after validating the whole file; returns
    (epoch, rng_state). The file is read into fresh arrays, so a bad record,
    hash or tensor set raises before anything is applied."""
    meta, arrays = read_checkpoint(
        path, ("param/", "state/") if optimizer is None else ("",))
    shapes = {name: arr.shape for name, arr in arrays.items()}
    for name, target in _checked_targets(path, meta, shapes, model,
                                         optimizer).items():
        target[...] = arrays[name]  # casts to the model's dtype in place
    if optimizer is not None and meta.get("adam_step_count") is not None:
        optimizer.step_count = meta["adam_step_count"]
    return meta.get("epoch", 0), meta.get("rng_state")


def model_from_checkpoint(path):
    """Rebuild the saved configuration, drawing no initial weights, once its
    closed-form parameter count matches the file's; read the file into it."""
    model = None

    def model_arrays(meta, shapes):
        nonlocal model
        cfg_dict = meta.get("config")
        if not isinstance(cfg_dict, dict):
            raise FormatError(f"{path} metadata lacks the model configuration")
        try:
            config = ModelConfig(**cfg_dict)
        except (TypeError, ValueError, ConfigError) as exc:
            raise FormatError(
                f"{path} holds an invalid model configuration: {exc}") from exc
        stored = sum(math.prod(shape) for name, shape in shapes.items()
                     if name.startswith("param/"))
        if parameter_count(config) != stored:
            raise FormatError(
                f"{path} holds {stored} parameter values, but its model "
                f"configuration has {parameter_count(config)}")
        model = build_model(config, seed=None)
        return _checked_targets(path, meta, shapes, model)

    read_checkpoint(path, ("param/", "state/"), model_arrays)
    return model
