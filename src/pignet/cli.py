"""Command-line front door: train, eval, predict, ablate, robustness, synth,
inspect.

Configuration comes from an INI-style file with sections [data], [model],
[train] and [augment]; the flags of the keys a command reads override file
values. Every run writes its artifacts under ``<out>/run-<timestamp>/`` with
a copy of the effective configuration, which alone reproduces the run.
"""

import argparse
import configparser
import contextlib
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_args

import numpy as np

from .errors import ConfigError, ParseError, PignetError, UsageError
from .data import (AugmentConfig, SYNTH_SHAPES, infer_num_parts, load_split,
                   utf8_lines, write_synth_dataset)
from .model import ModelConfig, parameter_count
from .training import (TrainConfig, model_from_checkpoint, save_checkpoint,
                       train_category)
from .evaluation import (ablation_run, ablation_tsv, ablation_variants,
                         evaluate_split, predict_sample,
                         robustness_run, robustness_tsv, write_ply)

# the defaults the config dataclasses lack; num_parts 'auto' is inferred from
# the dataset
_CLI_DEFAULTS = {
    "data": {"root": "", "category": "", "points": 1024, "out": "runs"},
    "model": {"num_parts": "auto"},
    "train": {"epochs": 50},
}
_EXPECTED = {bool: ("on/off", None), int: ("an integer", "integers"),
             float: ("a number", "numbers")}


def _ini_text(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def _schema():
    """{section: {key: (default INI text, kind)}} for all 30 keys. A [data]
    key's kind is its default's type; every other key is a field of its
    section's dataclass, whose type gives the kind (``int | None`` reads as
    int, a tuple as ``(type of its default's items,)``)."""
    schema = {"data": {key: (str(value), type(value))
                       for key, value in _CLI_DEFAULTS["data"].items()}}
    for section, cls in (("model", ModelConfig), ("train", TrainConfig),
                         ("augment", AugmentConfig)):
        missing = _CLI_DEFAULTS.get(section, {})
        schema[section] = {}
        for f in fields(cls):
            default = missing.get(f.name, f.default)
            kind = (get_args(f.type) or (f.type,))[0]
            if kind is tuple:
                kind = (type(default[0]),)
            schema[section][f.name] = (_ini_text(default), kind)
    return schema


_SCHEMA = _schema()


def _parse(section, key, raw):
    """``raw`` read as its key's kind. A key whose default is 'none' or
    'auto' reads that word, or an empty value, as None. A malformed or
    non-finite value raises ConfigError naming the key."""
    default, kind = _SCHEMA[section][key]
    if default in ("none", "auto") and raw.strip().lower() in (default, ""):
        return None
    many = isinstance(kind, tuple)
    item = kind[0] if many else kind
    texts = [v for v in raw.split(",") if v.strip()] if many else [raw]
    words = configparser.ConfigParser.BOOLEAN_STATES
    try:
        values = tuple(words[v.strip().lower()] if item is bool else item(v)
                       for v in texts)
    except (KeyError, ValueError):
        one, several = _EXPECTED[item]
        expected = f"comma-separated {several}" if many else one
        raise ConfigError(
            f"[{section}] {key}: expected {expected}, got {raw!r}") from None
    if item is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return values if many else values[0]


class RunConfig:
    """Validated view of the merged configuration."""

    def __init__(self, values):
        self.values = values
        parsed = {section: {key: _parse(section, key, raw)
                            for key, raw in keys.items()}
                  for section, keys in values.items()}
        vars(self).update(parsed["data"])  # root, category, points, out
        if self.points < 1:
            raise ConfigError("[data] points must be >= 1")
        self.model_kwargs = parsed["model"]
        self.train_config = TrainConfig(**parsed["train"])
        self.augment_config = AugmentConfig(**parsed["augment"])

    def model_config(self, num_parts):
        """The model configuration, with num_parts resolved by the caller."""
        return ModelConfig(**{**self.model_kwargs, "num_parts": num_parts})

    def dump(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(self.values)
        with open(path, "w") as fh:
            parser.write(fh)


def _read_ini(path):
    """Parse an INI file; malformed syntax or bytes raise ConfigError naming
    the file and, where there is one, the line. Values are literal: a '%'
    is not an interpolation, and ``[DEFAULT]`` is an ordinary section (no
    header names the empty one), so it cannot feed keys to the others."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_file(utf8_lines(path), source=str(path))
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"config file not found: {path}") from exc
    except ParseError as exc:  # bytes that are not UTF-8
        raise ConfigError(str(exc)) from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        # drop the "While reading from '<path>' [line N]: " of duplicates
        detail = str(exc).splitlines()[0].split("]: ", 1)[-1]
        if getattr(exc, "errors", None):  # a ParsingError: [(line, text)]
            line, text = exc.errors[0]
            detail = f"cannot parse {text}"
        where = str(path) if line is None else f"{path}:{line}"
        raise ConfigError(f"{where}: {detail}") from exc
    return parser


def load_run_config(config_path=None, overrides=(), reads=None):
    """Merge defaults, an optional INI file, and CLI overrides; reject
    unknown sections or keys. ``reads``, if given, holds the (section, key)
    pairs a command reads: the file's other keys keep their defaults, and
    only those pairs are recorded by ``RunConfig.dump``."""
    values = {section: {key: text for key, (text, _) in keys.items()}
              for section, keys in _SCHEMA.items()}
    if config_path is not None:
        parser = _read_ini(config_path)
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in values[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                if reads is None or (section, key) in reads:
                    values[section][key] = raw
    for section, key, raw in overrides:
        if raw is not None:
            values[section][key] = str(raw)
    cfg = RunConfig(values)
    if reads is not None:
        cfg.values = {section: {key: raw for key, raw in keys.items()
                                if (section, key) in reads}
                      for section, keys in values.items()
                      if section in {s for s, _ in reads}}
    return cfg


def _make_run_dir(cfg):
    """A fresh ``run-<timestamp>`` directory under the configured output
    directory, holding a copy of the effective configuration."""
    base = Path(cfg.out)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = base / f"run-{stamp}"
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = base / f"run-{stamp}-{suffix}"
    run_dir.mkdir()
    cfg.dump(run_dir / "config.ini")
    return run_dir


@contextlib.contextmanager
def _logger(run_dir):
    """A ``log(message)`` that prints and appends to the run's log.txt; a
    failure inside the block appends the line that ``main`` prints for it."""
    def log(message, echo=True):
        if echo:
            print(message)
        with open(run_dir / "log.txt", "a") as fh:
            fh.write(f"{message}\n")

    try:
        yield log
    except _FAILURES as exc:
        log(_failure(exc)[0], echo=False)
        raise


# the flags overriding INI keys: (flag, section, key, argparse options); a
# command takes those of the keys it reads (_COMMANDS), the rest read unset
_FLAGS = [
    ("--data-root", "data", "root", dict(type=str)),
    ("--category", "data", "category", dict(type=str)),
    ("--seed", "train", "seed", dict(type=int)),
    ("--epochs", "train", "epochs", dict(type=int)),
    ("--points", "data", "points",
     dict(type=int, help="points sampled per shape (default 1024)")),
    ("--out", "data", "out", dict(type=str)),
    ("--batch-size", "train", "batch_size", dict(type=int)),
    ("--learning-rate", "train", "learning_rate", dict(type=float)),
    ("--arch", "model", "arch", dict(choices=["pignet", "pointnet"])),
    ("--num-parts", "model", "num_parts", dict(type=int)),
    ("--plan", "model", "inception_plan",
     dict(type=str, help="comma-separated inception filter plan")),
    ("--dtype", "model", "dtype", dict(choices=["float64", "float32"])),
]


def _common_overrides(args):
    return [(section, key, getattr(args, flag[2:].replace("-", "_"), None))
            for flag, section, key, _ in _FLAGS]


def _require(value, what):
    if not value:
        raise ConfigError(f"{what} is required (flag or config file)")
    return value


def _config_and_split(args, flags=None):
    """The run configuration, and the dataset split it names. A command that
    reads only the keys of its override ``flags`` names them, and the
    configuration then checks and records those keys alone."""
    reads = None if flags is None else {
        (section, key) for flag, section, key, _ in _FLAGS if flag in flags}
    cfg = load_run_config(args.config, _common_overrides(args), reads)
    root = _require(cfg.root, "--data-root")
    return cfg, load_split(root, _require(cfg.category, "--category"))


def _resolve_parts(cfg, split):
    configured = cfg.model_kwargs["num_parts"]
    inferred = infer_num_parts(split)
    if configured is None:
        return inferred
    if configured < inferred:
        raise ConfigError(
            f"[model] num_parts = {configured} but the dataset uses "
            f"{inferred} parts")
    return configured


def _preflight(config, cfg, shapes):
    """Refuse, before anything is made, a run that cannot fit in physical
    memory: the weights, gradients and two Adam moments of ``config`` (closed
    form, nothing is built), then a lower bound on the samples, the points of
    ``shapes`` training shapes (float64 xyz and an int64 label) and one batch
    of the input T-Net's widest rung."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    itemsize = np.dtype(config.dtype).itemsize
    count = parameter_count(config)
    need = 4 * count * itemsize
    if need > memory:
        raise ConfigError(
            f"{count} parameters need {need / 2**30:.1f} GiB for weights, "
            f"gradients and Adam moments, more than the {memory / 2**30:.1f} "
            "GiB of memory here; set [model] feature_reduce, e.g. to 64")
    batch = min(cfg.train_config.batch_size, shapes)
    widest = max(config.tnet_conv_widths, default=3)
    need = cfg.points * (shapes * 32 + batch * widest * itemsize)
    if need > memory:
        raise ConfigError(
            f"[data] points = {cfg.points} needs at least {need / 2**30:.1f} "
            f"GiB for {shapes} sampled shapes and one batch of activations, "
            f"more than the {memory / 2**30:.1f} GiB of memory here")


def cmd_train(args):
    cfg, split = _config_and_split(args)
    num_parts = _resolve_parts(cfg, split)
    model_config = cfg.model_config(num_parts)
    _preflight(model_config, cfg, len(split.train))
    run_dir = _make_run_dir(cfg)
    with _logger(run_dir) as log:
        log(f"training {model_config.arch} on {cfg.category!r} "
            f"({len(split.train)} shapes, {num_parts} parts) -> {run_dir}")
        eval_fn = None
        if split.val:
            def eval_fn(model, epoch):
                return evaluate_split(model, split.val, cfg.train_config.seed,
                                      cfg.points).instance_miou
        result = train_category(
            split.train, model_config, cfg.train_config, cfg.augment_config,
            cfg.points, eval_fn=eval_fn,
            log=lambda entry: log(
                f"epoch {entry['epoch']:4d}  loss {entry['train_loss']:.6f}"
                + (f"  val mIoU {entry['val_instance_miou']:.4f}"
                   if "val_instance_miou" in entry else "")))
        save_checkpoint(run_dir / "checkpoint.ckpt", result.model,
                        result.optimizer, cfg.train_config.epochs,
                        result.rng_state)
        with open(run_dir / "history.tsv", "w") as fh:
            fh.write("epoch\ttrain_loss\tval_instance_miou\n")
            for entry in result.history:
                val = entry.get("val_instance_miou")
                fh.write(f"{entry['epoch']}\t{entry['train_loss']:.8f}\t"
                         f"{'' if val is None else f'{val:.6f}'}\n")
        log(f"checkpoint written to {run_dir / 'checkpoint.ckpt'}")


def cmd_eval(args):
    cfg, split = _config_and_split(args, _SCORED)
    records = split.records(args.split)
    model = model_from_checkpoint(args.checkpoint)
    report = evaluate_split(model, records, cfg.train_config.seed, cfg.points)
    run_dir = _make_run_dir(cfg)
    (run_dir / "report.tsv").write_text(report.to_tsv())
    (run_dir / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")
    print(f"report written to {run_dir}")


def cmd_predict(args):
    cfg, split = _config_and_split(args, _SCORED)
    records = split.records(args.split)
    if not records:
        raise UsageError("no shapes to predict")
    model = model_from_checkpoint(args.checkpoint)
    predictions = [predict_sample(model, rec.labeled_cloud(),
                                  cfg.train_config.seed, i, cfg.points)
                   for i, rec in enumerate(records)]
    ply_dir = _make_run_dir(cfg) / "ply"
    ply_dir.mkdir()
    for rec, (sampled, pred) in zip(records, predictions):
        write_ply(ply_dir / f"{rec.shape_id}.ply", sampled.points, pred)
    print(f"{len(records)} colored predictions written to {ply_dir}")


def cmd_ablate(args):
    cfg, split = _config_and_split(args)
    model_config = cfg.model_config(_resolve_parts(cfg, split))
    _preflight(max((config for _, config in ablation_variants(model_config)),
                   key=parameter_count), cfg, len(split.train))
    eval_records = split.records(args.split) or split.train
    run_dir = _make_run_dir(cfg)
    with _logger(run_dir) as log:
        rows = ablation_run(
            split.train, eval_records, model_config, cfg.train_config,
            cfg.augment_config, cfg.points, log=lambda row: log(
                f"{row.name}: instance mIoU {row.instance_miou:.4f}"))
        (run_dir / "ablation.tsv").write_text(ablation_tsv(rows))
        log(f"ablation table written to {run_dir / 'ablation.tsv'}")


def cmd_robustness(args):
    cfg, split = _config_and_split(args, _HELD_OUT)
    records = split.records(args.split) or split.train
    model = model_from_checkpoint(args.checkpoint)
    baseline = None
    if args.baseline_checkpoint:
        baseline = model_from_checkpoint(args.baseline_checkpoint)
    grids = robustness_run(model, baseline, records, cfg.train_config.seed)
    run_dir = _make_run_dir(cfg)
    for name, grid in grids.items():
        (run_dir / f"robustness_{name}.tsv").write_text(robustness_tsv(grid))
        print(f"{name}:")
        print(robustness_tsv(grid), end="")
    print(f"grids written to {run_dir}")


def cmd_synth(args):
    lowest = {"count": 1, "val_count": 0, "test_count": 0, "cloud_points": 1,
              "seed": 0}
    for name, low in lowest.items():
        if getattr(args, name) < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, "
                              f"got {getattr(args, name)}")
    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    if not shapes:
        raise ConfigError(f"--shapes names no shape, got {args.shapes!r}")
    for shape in shapes:
        if shape not in SYNTH_SHAPES:
            raise ConfigError(
                f"unknown synthetic shape {shape!r}; "
                f"choose from {sorted(SYNTH_SHAPES)}")
    root = write_synth_dataset(args.out, shapes, args.count, args.seed,
                               args.cloud_points, args.val_count,
                               args.test_count)
    # record the generation parameters so the dataset is reproducible
    manifest = configparser.ConfigParser()
    manifest["synth"] = {"shapes": ",".join(shapes),
                         **{name: str(getattr(args, name)) for name in lowest}}
    with open(Path(root) / "synth.ini", "w") as fh:
        manifest.write(fh)
    print(f"synthetic dataset written to {root} "
          f"({args.count} train shapes per category)")


def cmd_inspect(args):
    cfg = load_run_config(args.config, _common_overrides(args),
                          {("model", key) for key in _SCHEMA["model"]})
    num_parts = cfg.model_kwargs["num_parts"]
    model_config = cfg.model_config(4 if num_parts is None else num_parts)
    total = parameter_count(model_config)
    print(f"arch: {model_config.arch}")
    if num_parts is None:
        print("num_parts: 4 (assumed; pass --num-parts for an exact count)")
    print(f"inception plan: {model_config.inception_plan} "
          f"(inception {'on' if model_config.use_inception else 'off'})")
    print(f"aggregation: {'mean' if model_config.use_gap else 'max'} over points")
    print(f"feature transform: "
          f"{'on' if model_config.feature_transform else 'off'}"
          + (f", reduced to {model_config.feature_reduce}"
             if model_config.feature_reduce else ""))
    print(f"head widths: {model_config.head_widths} -> {model_config.num_parts}")
    print(f"total parameters: {total}")


def _config_flags(*flags):
    """--config and the named override flags, in _FLAGS order."""
    return [("--config", dict(help="INI config file; flags override it")),
            *((flag, opts) for flag, _, _, opts in _FLAGS if flag in flags)]


_EVERY = _config_flags(*(flag for flag, *_ in _FLAGS))
_HELD_OUT = ("--data-root", "--category", "--seed", "--out")
_SCORED = _HELD_OUT + ("--points",)
_SPLIT = ("--split", dict(choices=["train", "val", "test"], default="test"))
_CHECKPOINT = ("--checkpoint", dict(type=str, required=True))
_SCORING = _config_flags(*_SCORED) + [_CHECKPOINT, _SPLIT]

# (name, command, help, its flags): --config and the flags of the keys it
# reads (a checkpoint fixes the model, the grid its densities), then its own
_COMMANDS = [
    ("train", cmd_train, "train one per-category model", _EVERY),
    ("eval", cmd_eval, "evaluate a checkpoint", _SCORING),
    ("predict", cmd_predict, "export colored PLY predictions", _SCORING),
    ("ablate", cmd_ablate, "train and compare architecture variants",
     _EVERY + [_SPLIT]),
    ("robustness", cmd_robustness,
     "density/noise robustness grid for checkpoints",
     _config_flags(*_HELD_OUT)
     + [_CHECKPOINT, ("--baseline-checkpoint", dict(type=str)), _SPLIT]),
    ("synth", cmd_synth, "generate a labeled synthetic dataset", [
        ("--shapes", dict(type=str, required=True,
                          help="comma-separated shape categories "
                               f"({', '.join(sorted(SYNTH_SHAPES))})")),
        ("--count", dict(type=int, default=8,
                         help="training shapes per category")),
        ("--val-count", dict(type=int, default=0)),
        ("--test-count", dict(type=int, default=0)),
        ("--cloud-points", dict(type=int, default=2048,
                                help="points generated per shape")),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(type=str, required=True))]),
    ("inspect", cmd_inspect, "print parameter count and layout",
     _config_flags("--arch", "--num-parts", "--plan", "--dtype")),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pignet",
        description="Point-cloud part segmentation: train, evaluate, ablate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


_FAILURES = (PignetError, OSError, MemoryError)  # what main reports


def _failure(exc):
    """(the one stderr line, the exit status) of a command's failure."""
    if isinstance(exc, ConfigError):
        return f"config error: {exc}", 2
    if isinstance(exc, FileNotFoundError):
        return f"missing file: {exc}", 1
    return f"error: {str(exc) or type(exc).__name__}", 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _FAILURES as exc:
        line, status = _failure(exc)
        print(line, file=sys.stderr)
        return status
    return 0


def entry():
    sys.exit(main())
