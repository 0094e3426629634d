"""Command-line front door: train, eval, predict, ablate, robustness, synth,
inspect.

Configuration comes from an INI-style file with sections [data], [model],
[train] and [augment]; command-line flags override file values. Every run
writes its artifacts under ``<out>/run-<timestamp>/`` together with a copy of
the effective configuration, so a run is reproducible from that copy alone.
"""

import argparse
import configparser
import sys
import time
from pathlib import Path

from .errors import ConfigError, PignetError
from .data import (AugmentConfig, SYNTH_PARTS, infer_num_parts, load_cloud,
                   load_split, normalize, sample_points, write_synth_dataset)
from .model import ModelConfig, parameter_count
from .training import (TrainConfig, model_from_checkpoint, save_checkpoint,
                       train_category)
from .evaluation import (ablation_run, ablation_tsv, evaluate_split,
                         robustness_run, robustness_tsv, write_ply)
from .seeding import EVAL

_DEFAULTS = {
    "data": {
        "root": "",
        "category": "",
        "points": "1024",
        "out": "runs",
    },
    "model": {
        "arch": "pignet",
        "num_parts": "auto",
        "inception_plan": "64,128,256,512",
        "use_inception": "on",
        "use_gap": "on",
        "feature_transform": "on",
        "feature_reduce": "none",
        "head_widths": "512,256,128",
        "lambda_reg": "0.001",
        "tnet_conv_widths": "64,128,1024",
        "tnet_fc_widths": "512,256",
        "baseline_plan": "64,64,64,128,1024",
        "baseline_local_index": "2",
        "dtype": "float64",
    },
    "train": {
        "epochs": "50",
        "seed": "0",
        "batch_size": "64",
        "learning_rate": "0.001",
        "beta1": "0.9",
        "beta2": "0.999",
        "epsilon_adam": "1e-8",
    },
    "augment": {
        "rotate_up_axis": "on",
        "scale_range": "0.66,1.5",
        "translate_range": "-0.2,0.2",
        "jitter_sigma": "0.01",
        "up_axis": "1",
    },
}


def _parse_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"[{section}] {key}: expected on/off, got {raw!r}")


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")


def _parse_ints(section, key, raw):
    try:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected comma-separated integers, got {raw!r}")


def _parse_floats(section, key, raw):
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected comma-separated numbers, got {raw!r}")


class RunConfig:
    """Validated view of the merged configuration."""

    def __init__(self, values):
        self.values = values
        d, m, t, a = (values["data"], values["model"], values["train"],
                      values["augment"])
        self.root = d["root"]
        self.category = d["category"]
        self.points = _parse_int("data", "points", d["points"])
        if self.points < 1:
            raise ConfigError("[data] points must be >= 1")
        self.out = d["out"]

        reduce_raw = m["feature_reduce"].strip().lower()
        parts_raw = m["num_parts"].strip().lower()
        self.model_kwargs = dict(
            arch=m["arch"],
            num_parts=None if parts_raw == "auto"
            else _parse_int("model", "num_parts", m["num_parts"]),
            inception_plan=_parse_ints("model", "inception_plan",
                                       m["inception_plan"]),
            use_inception=_parse_bool("model", "use_inception",
                                      m["use_inception"]),
            use_gap=_parse_bool("model", "use_gap", m["use_gap"]),
            feature_transform=_parse_bool("model", "feature_transform",
                                          m["feature_transform"]),
            feature_reduce=None if reduce_raw in ("none", "")
            else _parse_int("model", "feature_reduce", m["feature_reduce"]),
            head_widths=_parse_ints("model", "head_widths", m["head_widths"]),
            lambda_reg=_parse_float("model", "lambda_reg", m["lambda_reg"]),
            tnet_conv_widths=_parse_ints("model", "tnet_conv_widths",
                                         m["tnet_conv_widths"]),
            tnet_fc_widths=_parse_ints("model", "tnet_fc_widths",
                                       m["tnet_fc_widths"]),
            baseline_plan=_parse_ints("model", "baseline_plan",
                                      m["baseline_plan"]),
            baseline_local_index=_parse_int("model", "baseline_local_index",
                                            m["baseline_local_index"]),
            dtype=m["dtype"],
        )
        self.train_config = TrainConfig(
            epochs=_parse_int("train", "epochs", t["epochs"]),
            seed=_parse_int("train", "seed", t["seed"]),
            batch_size=_parse_int("train", "batch_size", t["batch_size"]),
            learning_rate=_parse_float("train", "learning_rate",
                                       t["learning_rate"]),
            beta1=_parse_float("train", "beta1", t["beta1"]),
            beta2=_parse_float("train", "beta2", t["beta2"]),
            epsilon_adam=_parse_float("train", "epsilon_adam",
                                      t["epsilon_adam"]),
            category=self.category,
        )
        self.augment_config = AugmentConfig(
            rotate_up_axis=_parse_bool("augment", "rotate_up_axis",
                                       a["rotate_up_axis"]),
            scale_range=_parse_floats("augment", "scale_range",
                                      a["scale_range"]),
            translate_range=_parse_floats("augment", "translate_range",
                                          a["translate_range"]),
            jitter_sigma=_parse_float("augment", "jitter_sigma",
                                      a["jitter_sigma"]),
            up_axis=_parse_int("augment", "up_axis", a["up_axis"]),
        )

    def model_config(self, num_parts=None):
        kwargs = dict(self.model_kwargs)
        if num_parts is not None:
            kwargs["num_parts"] = num_parts
        if kwargs["num_parts"] is None:
            raise ConfigError(
                "[model] num_parts is 'auto' but no dataset is available "
                "to infer it from")
        return ModelConfig(**kwargs)

    def dump(self, path):
        parser = configparser.ConfigParser(interpolation=None)
        for section, keys in self.values.items():
            parser[section] = {k: str(v) for k, v in keys.items()}
        with open(path, "w") as fh:
            parser.write(fh)


def _read_ini(path):
    """Parse an INI file; malformed syntax or bytes raise ConfigError naming
    the file and, where there is one, the line. Values are literal: a '%'
    is not an interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text") from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        # drop the "While reading from '<path>' [line N]: " of duplicates
        detail = str(exc).splitlines()[0].split("]: ", 1)[-1]
        if getattr(exc, "errors", None):  # a ParsingError: [(line, text)]
            line, text = exc.errors[0]
            detail = f"cannot parse {text}"
        where = str(path) if line is None else f"{path}:{line}"
        raise ConfigError(f"{where}: {detail}") from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def load_run_config(config_path=None, overrides=()):
    """Merge defaults, an optional INI file, and CLI overrides; reject
    unknown sections or keys."""
    values = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    if config_path is not None:
        parser = _read_ini(config_path)
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in values[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                values[section][key] = raw
    for section, key, raw in overrides:
        if raw is None:
            continue
        values[section][key] = str(raw)
    return RunConfig(values)


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


def _logger(run_dir):
    log_path = run_dir / "log.txt"

    def log(message):
        print(message)
        with open(log_path, "a") as fh:
            fh.write(f"{message}\n")

    return log


def _common_overrides(args):
    pairs = [
        ("data", "root", getattr(args, "data_root", None)),
        ("data", "category", getattr(args, "category", None)),
        ("data", "points", getattr(args, "points", None)),
        ("data", "out", getattr(args, "out", None)),
        ("train", "seed", getattr(args, "seed", None)),
        ("train", "epochs", getattr(args, "epochs", None)),
        ("train", "batch_size", getattr(args, "batch_size", None)),
        ("train", "learning_rate", getattr(args, "learning_rate", None)),
        ("model", "arch", getattr(args, "arch", None)),
        ("model", "num_parts", getattr(args, "num_parts", None)),
        ("model", "inception_plan", getattr(args, "plan", None)),
        ("model", "dtype", getattr(args, "dtype", None)),
    ]
    return [(s, k, v) for s, k, v in pairs if v is not None]


def _require(value, what):
    if not value:
        raise ConfigError(f"{what} is required (flag or config file)")
    return value


def _config_and_split(args):
    """The run configuration, and the dataset split it names."""
    cfg = load_run_config(args.config, _common_overrides(args))
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


def cmd_train(args):
    cfg, split = _config_and_split(args)
    num_parts = _resolve_parts(cfg, split)
    model_config = cfg.model_config(num_parts)
    run_dir = _make_run_dir(cfg)
    log = _logger(run_dir)
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
    return 0


def cmd_eval(args):
    cfg, split = _config_and_split(args)
    records = split.records(args.split)
    model = model_from_checkpoint(args.checkpoint)
    report = evaluate_split(model, records, cfg.train_config.seed, cfg.points)
    run_dir = _make_run_dir(cfg)
    (run_dir / "report.tsv").write_text(report.to_tsv())
    (run_dir / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")
    print(f"report written to {run_dir}")
    return 0


def cmd_predict(args):
    cfg, split = _config_and_split(args)
    records = split.records(args.split)
    model = model_from_checkpoint(args.checkpoint)
    run_dir = _make_run_dir(cfg)
    ply_dir = run_dir / "ply"
    ply_dir.mkdir()
    for i, rec in enumerate(records):
        cloud = normalize(load_cloud(rec.points_path, rec.labels_path,
                                     rec.category))
        sampled = sample_points(cloud, cfg.points,
                                (cfg.train_config.seed, EVAL, i))
        pred = model.predict(sampled.points)
        write_ply(ply_dir / f"{rec.shape_id}.ply", sampled.points, pred)
    print(f"{len(records)} colored predictions written to {ply_dir}")
    return 0


def cmd_ablate(args):
    cfg, split = _config_and_split(args)
    num_parts = _resolve_parts(cfg, split)
    eval_records = split.records(args.split) or split.train
    run_dir = _make_run_dir(cfg)
    log = _logger(run_dir)
    rows = ablation_run(split.train, eval_records, cfg.model_config(num_parts),
                        cfg.train_config, cfg.augment_config, cfg.points,
                        log=lambda row: log(
                            f"{row.name}: instance mIoU {row.instance_miou:.4f}"))
    (run_dir / "ablation.tsv").write_text(ablation_tsv(rows))
    log(f"ablation table written to {run_dir / 'ablation.tsv'}")
    return 0


def cmd_robustness(args):
    cfg, split = _config_and_split(args)
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
    return 0


def cmd_synth(args):
    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    for shape in shapes:
        if shape not in SYNTH_PARTS:
            raise ConfigError(
                f"unknown synthetic shape {shape!r}; "
                f"choose from {sorted(SYNTH_PARTS)}")
    root = write_synth_dataset(args.out, shapes, args.count, args.seed,
                               args.cloud_points, args.val_count,
                               args.test_count)
    # record the generation parameters so the dataset is reproducible
    manifest = configparser.ConfigParser()
    manifest["synth"] = {
        "shapes": ",".join(shapes), "count": str(args.count),
        "val_count": str(args.val_count), "test_count": str(args.test_count),
        "cloud_points": str(args.cloud_points), "seed": str(args.seed),
    }
    with open(Path(root) / "synth.ini", "w") as fh:
        manifest.write(fh)
    print(f"synthetic dataset written to {root} "
          f"({args.count} train shapes per category)")
    return 0


def cmd_inspect(args):
    cfg = load_run_config(args.config, _common_overrides(args))
    assumed = cfg.model_kwargs["num_parts"] is None
    model_config = cfg.model_config(num_parts=4 if assumed else None)
    total = parameter_count(model_config)
    print(f"arch: {model_config.arch}")
    if assumed:
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
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pignet",
        description="Point-cloud part segmentation: train, evaluate, ablate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="INI config file; flags override it")
        p.add_argument("--data-root", type=str, default=None)
        p.add_argument("--category", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--points", type=int, default=None,
                       help="points sampled per shape (default 1024)")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--learning-rate", type=float, default=None)
        p.add_argument("--arch", choices=["pignet", "pointnet"], default=None)
        p.add_argument("--num-parts", type=int, default=None)
        p.add_argument("--plan", type=str, default=None,
                       help="comma-separated inception filter plan")
        p.add_argument("--dtype", choices=["float64", "float32"], default=None)

    p = sub.add_parser("train", help="train one per-category model")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="export colored PLY predictions")
    common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and compare architecture variants")
    common(p)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("robustness",
                       help="density/noise robustness grid for checkpoints")
    common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--baseline-checkpoint", type=str, default=None)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--shapes", type=str, required=True,
                   help="comma-separated shape categories "
                        f"({', '.join(sorted(SYNTH_PARTS))})")
    p.add_argument("--count", type=int, default=8,
                   help="training shapes per category")
    p.add_argument("--val-count", type=int, default=0)
    p.add_argument("--test-count", type=int, default=0)
    p.add_argument("--cloud-points", type=int, default=2048,
                   help="points generated per shape")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="print parameter count and layout")
    common(p)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    except PignetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
