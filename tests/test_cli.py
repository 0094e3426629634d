import configparser
import json
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import pignet.cli
import pignet.data
import pignet.evaluation
import pignet.training
from pignet.cli import build_parser, main, load_run_config
from pignet.data import load_split
from pignet.errors import ConfigError
from pignet.evaluation import PART_PALETTE, robustness_run, robustness_tsv
from pignet.model import ModelConfig, build_model, parameter_count
from pignet.training import MAGIC, model_from_checkpoint, save_checkpoint


def run(args):
    return main([str(a) for a in args])


def synth(tmp_path, shapes="lamp", count=3, test_count=0, val_count=0):
    root = tmp_path / "data"
    assert run(["synth", "--shapes", shapes, "--count", count,
                "--val-count", val_count, "--test-count", test_count,
                "--cloud-points", 96, "--seed", 7, "--out", root]) == 0
    return root


def find_run_dirs(out):
    return sorted(p for p in out.iterdir() if p.name.startswith("run-"))


HELP_GOLDEN = Path(__file__).with_name("cli_help_golden.txt")


def help_screens(monkeypatch, capsys):
    """`pignet -h`, then each subcommand's `-h`, at 80 columns, each after a
    `$ pignet ... -h` line."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    screens = []
    for argv in ([], ["train"], ["eval"], ["predict"], ["ablate"],
                 ["robustness"], ["synth"], ["inspect"]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "-h"])
        assert exit_.value.code == 0
        screens.append(f"$ pignet {' '.join([*argv, '-h'])}\n"
                       + capsys.readouterr().out)
    return "".join(screens)


def test_help_golden(monkeypatch, capsys):
    assert help_screens(monkeypatch, capsys) == HELP_GOLDEN.read_text()


TINY_MODEL_FLAGS = ["--plan", "4,8", "--points", "24", "--num-parts", "3"]

# a value for each of the 12 override flags, and the flags each command takes
EVERY_FLAG = {"--data-root": "data", "--category": "lamp", "--seed": "1",
              "--epochs": "2", "--points": "24", "--out": "runs",
              "--batch-size": "8", "--learning-rate": "0.01",
              "--arch": "pointnet", "--num-parts": "3", "--plan": "4,8",
              "--dtype": "float32"}
HELD_OUT = ["--data-root", "--category", "--seed", "--out"]
TAKEN = {"train": list(EVERY_FLAG), "ablate": list(EVERY_FLAG),
         "eval": HELD_OUT + ["--points"], "predict": HELD_OUT + ["--points"],
         "robustness": HELD_OUT,
         "inspect": ["--arch", "--num-parts", "--plan", "--dtype"]}
NOT_TAKEN = [(command, flag) for command, taken in TAKEN.items()
             for flag in EVERY_FLAG if flag not in taken]


def own_required(command):
    return (["--checkpoint", "model.ckpt"]
            if command in ("eval", "predict", "robustness") else [])


@pytest.mark.parametrize("command", TAKEN)
def test_each_command_takes_the_flags_it_reads(command):
    args = build_parser().parse_args(
        [command, *(part for flag in TAKEN[command]
                    for part in (flag, EVERY_FLAG[flag])),
         *own_required(command)])
    # a flag that the command does not take reads as unset
    assert [None if value is None else str(value) for _, _, value in
            pignet.cli._common_overrides(args)] == [
        EVERY_FLAG[flag] if flag in TAKEN[command] else None
        for flag in EVERY_FLAG]


@pytest.mark.parametrize("command, flag", NOT_TAKEN,
                         ids=[f"{c}{f}" for c, f in NOT_TAKEN])
def test_a_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_:
        run([command, flag, EVERY_FLAG[flag], *own_required(command)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {flag} {EVERY_FLAG[flag]}\n")


def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(
        "[model]\n"
        "tnet_conv_widths = 4,8,16\n"
        "tnet_fc_widths = 8,8\n"
        "head_widths = 8,8\n"
        "[train]\n"
        "batch_size = 8\n"
        "[augment]\n"
        "jitter_sigma = 0.005\n")
    return path


DEFAULT_EFFECTIVE = (
    "", "", 1024, "runs",
    {"arch": "pignet", "num_parts": None,
     "inception_plan": (64, 128, 256, 512), "use_inception": True,
     "use_gap": True, "feature_transform": True, "feature_reduce": None,
     "head_widths": (512, 256, 128), "lambda_reg": 0.001,
     "tnet_conv_widths": (64, 128, 1024), "tnet_fc_widths": (512, 256),
     "baseline_plan": (64, 64, 64, 128, 1024), "baseline_local_index": 2,
     "dtype": "float64"},
    {"epochs": 50, "seed": 0, "batch_size": 64, "learning_rate": 0.001,
     "beta1": 0.9, "beta2": 0.999, "epsilon_adam": 1e-08},
    {"rotate_up_axis": True, "scale_range": (0.66, 1.5),
     "translate_range": (-0.2, 0.2), "jitter_sigma": 0.01, "up_axis": 1},
)

# every one of the 30 keys away from its default, with each boolean spelling
EVERY_KEY_INI = """\
[data]
root = data/shapes
category = lamp
points = 256
out = results
[model]
arch = pointnet
num_parts = 5
inception_plan = 8,16,24
use_inception = off
use_gap = false
feature_transform = no
feature_reduce = 64
head_widths = 32,16
lambda_reg = 0.01
tnet_conv_widths = 8,16,32
tnet_fc_widths = 16,8
baseline_plan = 8,8,8,16,32
baseline_local_index = 1
dtype = float32
[train]
epochs = 7
seed = 3
batch_size = 4
learning_rate = 0.005
beta1 = 0.8
beta2 = 0.99
epsilon_adam = 1e-6
[augment]
rotate_up_axis = 0
scale_range = 0.8,1.25
translate_range = -0.1,0.3
jitter_sigma = 0.02
up_axis = 2
"""

EVERY_KEY_EFFECTIVE = (
    "data/shapes", "lamp", 256, "results",
    {"arch": "pointnet", "num_parts": 5, "inception_plan": (8, 16, 24),
     "use_inception": False, "use_gap": False, "feature_transform": False,
     "feature_reduce": 64, "head_widths": (32, 16), "lambda_reg": 0.01,
     "tnet_conv_widths": (8, 16, 32), "tnet_fc_widths": (16, 8),
     "baseline_plan": (8, 8, 8, 16, 32), "baseline_local_index": 1,
     "dtype": "float32"},
    {"epochs": 7, "seed": 3, "batch_size": 4, "learning_rate": 0.005,
     "beta1": 0.8, "beta2": 0.99, "epsilon_adam": 1e-06},
    {"rotate_up_axis": False, "scale_range": (0.8, 1.25),
     "translate_range": (-0.1, 0.3), "jitter_sigma": 0.02, "up_axis": 2},
)

# the config.ini copy a default run wrote before the schema was derived from
# the config dataclasses (an empty value is followed by one space); it must
# keep loading to the same values
EARLIER_DEFAULT_DUMP = """\
[data]
root =\x20
category =\x20
points = 1024
out = runs

[model]
arch = pignet
num_parts = auto
inception_plan = 64,128,256,512
use_inception = on
use_gap = on
feature_transform = on
feature_reduce = none
head_widths = 512,256,128
lambda_reg = 0.001
tnet_conv_widths = 64,128,1024
tnet_fc_widths = 512,256
baseline_plan = 64,64,64,128,1024
baseline_local_index = 2
dtype = float64

[train]
epochs = 50
seed = 0
batch_size = 64
learning_rate = 0.001
beta1 = 0.9
beta2 = 0.999
epsilon_adam = 1e-8

[augment]
rotate_up_axis = on
scale_range = 0.66,1.5
translate_range = -0.2,0.2
jitter_sigma = 0.01
up_axis = 1

"""


def effective(cfg):
    return (cfg.root, cfg.category, cfg.points, cfg.out, cfg.model_kwargs,
            asdict(cfg.train_config), asdict(cfg.augment_config))


@pytest.mark.parametrize("text, expected", [
    (None, DEFAULT_EFFECTIVE),
    (EVERY_KEY_INI, EVERY_KEY_EFFECTIVE),
    ("[model]\nfeature_reduce =\n", DEFAULT_EFFECTIVE),
    (EARLIER_DEFAULT_DUMP, DEFAULT_EFFECTIVE),
], ids=["defaults", "every-key", "empty-feature-reduce", "earlier-dump"])
def test_effective_config_golden(tmp_path, text, expected):
    path = None
    if text is not None:
        path = tmp_path / "c.ini"
        path.write_text(text)
    cfg = load_run_config(path)
    assert effective(cfg) == expected
    cfg.dump(tmp_path / "copy.ini")
    assert effective(load_run_config(tmp_path / "copy.ini")) == expected


@pytest.fixture(scope="module")
def lamp_root(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("lamp"), count=2)


def tiny_train_args(tmp_path, root, extra_ini=""):
    """A one-epoch tiny training run over ``root``, with the keys of
    ``extra_ini`` set in the tiny config."""
    config = tiny_config_file(tmp_path)
    parser = configparser.ConfigParser()
    parser.read(config)
    parser.read_string(extra_ini)
    with open(config, "w") as fh:
        parser.write(fh)
    return ["train", "--config", config, "--data-root", root, "--category",
            "lamp", "--epochs", "1", "--out", tmp_path / "runs",
            *TINY_MODEL_FLAGS]


@pytest.mark.parametrize("argv, extra_ini, message", [
    (["train", "--seed", "-1"], "", "seed must be >= 0, got -1"),
    (["train"], "[augment]\nscale_range = 1.2\n",
     "scale_range must be two values low <= high, got (1.2,)"),
    (["train"], "[augment]\nscale_range =\n",
     "scale_range must be two values low <= high, got ()"),
    (["train"], "[augment]\ntranslate_range = 0.2,-0.2\n",
     "translate_range must be two values low <= high, got (0.2, -0.2)"),
    (["train"], "[augment]\nscale_range = 0,1\n",
     "scale range must stay positive, got (0.0, 1.0)"),
    (["train"], "[augment]\nup_axis = 3\n", "up_axis must be 0, 1 or 2, got 3"),
    (["train"], "[train]\nlearning_rate = nan\n",
     "[train] learning_rate: must be finite, got 'nan'"),
    (["train", "--learning-rate", "inf"], "",
     "[train] learning_rate: must be finite, got 'inf'"),
    (["train"], "[model]\nlambda_reg = inf\n",
     "[model] lambda_reg: must be finite, got 'inf'"),
    (["train"], "[augment]\njitter_sigma = nan\n",
     "[augment] jitter_sigma: must be finite, got 'nan'"),
    (["train"], "[augment]\nscale_range = 0.5,1e999\n",
     "[augment] scale_range: must be finite, got '0.5,1e999'"),
    (["train", "--plan", ""], "", "inception_plan must not be empty"),
    (["synth", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
    (["synth", "--count", "0"], None, "--count must be >= 1, got 0"),
    (["synth", "--cloud-points", "0"], None,
     "--cloud-points must be >= 1, got 0"),
    (["synth", "--val-count", "-1"], None, "--val-count must be >= 0, got -1"),
    (["synth", "--test-count", "-1"], None,
     "--test-count must be >= 0, got -1"),
    (["synth", "--shapes", " , "], None, "--shapes names no shape, got ' , '"),
], ids=["seed", "one-scale", "no-scale", "translate-order", "zero-scale",
        "up-axis", "nan-rate", "inf-rate-flag", "inf-lambda", "nan-jitter",
        "inf-scale", "empty-plan", "synth-seed", "synth-count", "synth-points",
        "synth-val", "synth-test", "synth-no-shapes"])
def test_bad_value_exits_2_before_any_output(tmp_path, capsys, lamp_root,
                                             argv, extra_ini, message):
    command, *flags = argv
    if command == "train":
        args = tiny_train_args(tmp_path, lamp_root, extra_ini) + flags
        out = tmp_path / "runs"
    else:
        out = tmp_path / "data"
        args = ["synth", "--shapes", "lamp", "--out", out] + flags
    assert run(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.fixture
def no_training(monkeypatch):
    """Any call of ``train_category`` fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("train_category was called")

    monkeypatch.setattr(pignet.cli, "train_category", refuse)
    monkeypatch.setattr(pignet.evaluation, "train_category", refuse)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_oversized_model_refused_before_building(tmp_path, capsys, lamp_root,
                                                 no_training, command):
    args = tiny_train_args(tmp_path, lamp_root,
                           "[model]\nhead_widths = 100000000,1000\n")
    args[0] = command
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "[model] feature_reduce" in err
    if command == "train":
        cfg = load_run_config(args[2], [("model", "inception_plan", "4,8")])
        count = parameter_count(cfg.model_config(3))
        assert 4 * count * 8 > 2 ** 40  # a terabyte and more
        assert f"{count} parameters" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_oversized_sample_refused_before_training(tmp_path, capsys, lamp_root,
                                                  no_training, command):
    args = tiny_train_args(tmp_path, lamp_root) + ["--points", "1000000000000"]
    args[0] = command
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: [data] points = 1000000000000 needs at least ")
    assert "for 2 sampled shapes and one batch of activations" in err
    assert not (tmp_path / "runs").exists()


def test_manifest_id_outside_the_category_exits_1(tmp_path, capsys):
    """A manifest id that climbs out of the category directory is refused
    before the file it names is read or any prediction is written."""
    root = synth(tmp_path, count=1)
    lamp = root / "lamp"
    for folder, suffix in (("points", "pts"), ("points_label", "seg")):
        (root / f"evil.{suffix}").write_bytes(
            (lamp / folder / f"lamp_0000.{suffix}").read_bytes())
    (lamp / "test.txt").write_text("../../evil\n")
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, build_model(ModelConfig(
        num_parts=3, inception_plan=(4, 8), tnet_conv_widths=(4, 8, 16),
        tnet_fc_widths=(8, 8), head_widths=(8, 8)), seed=0))
    capsys.readouterr()
    assert run(["predict", "--data-root", root, "--category", "lamp",
                "--checkpoint", checkpoint, "--split", "test", "--points",
                "24", "--out", tmp_path / "runs"]) == 1
    assert capsys.readouterr().err == (
        f"error: {lamp / 'test.txt'}:1: shape id is not a plain file name: "
        "'../../evil'\n")
    assert not (tmp_path / "runs").exists()
    assert not list(tmp_path.rglob("*.ply"))


def test_oversized_predict_leaves_no_run_directory(tmp_path, capsys,
                                                   monkeypatch):
    """predict makes its run directory only once every shape is predicted.
    The allocator's refusal of the 7.28 TiB sample index is raised here
    rather than provoked, since an overcommitting kernel would grant it."""
    def refuse(cloud, m, seed):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          f"shape ({m},) and data type int64")

    root = synth(tmp_path, count=3)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, build_model(ModelConfig(
        num_parts=3, inception_plan=(4, 8), tnet_conv_widths=(4, 8, 16),
        tnet_fc_widths=(8, 8), head_widths=(8, 8)), seed=0))
    monkeypatch.setattr(pignet.evaluation, "sample_points", refuse)
    capsys.readouterr()
    assert run(["predict", "--data-root", root, "--category", "lamp",
                "--checkpoint", checkpoint, "--split", "train", "--points",
                "1000000000000", "--out", tmp_path / "runs"]) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 7.28 TiB for an array with shape "
        "(1000000000000,) and data type int64\n")
    assert not list(tmp_path.glob("runs/run-*"))


@pytest.mark.parametrize("command, noun", [("eval", "evaluate"),
                                           ("predict", "predict")])
def test_empty_split_exits_1_without_run_directory(tmp_path, capsys,
                                                   lamp_root, command, noun):
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, build_model(ModelConfig(
        num_parts=3, inception_plan=(4, 8), tnet_conv_widths=(4, 8, 16),
        tnet_fc_widths=(8, 8), head_widths=(8, 8)), seed=0))
    capsys.readouterr()
    assert run([command, "--data-root", lamp_root, "--category", "lamp",
                "--checkpoint", checkpoint, "--split", "test", "--points",
                "24", "--out", tmp_path / "runs"]) == 1
    assert capsys.readouterr().err == f"error: no shapes to {noun}\n"
    assert not (tmp_path / "runs").exists()


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, lamp_root,
                                            monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array")

    monkeypatch.setattr(pignet.cli, "train_category", exhaust)
    assert run(tiny_train_args(tmp_path, lamp_root)) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 2.98 GiB for an array\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
def test_non_finite_loss_exits_1_without_checkpoint(tmp_path, capsys,
                                                    lamp_root):
    # the first step moves every weight by about 1e300; the second overflows
    args = tiny_train_args(tmp_path, lamp_root) + [
        "--learning-rate", "1e300", "--dtype", "float64", "--epochs", "2"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: loss is nan at epoch 1, batch 0; ")
    (run_dir,) = find_run_dirs(tmp_path / "runs")
    assert not (run_dir / "checkpoint.ckpt").exists()


def test_predict_writes_the_sample_eval_scores(tmp_path, lamp_root,
                                               monkeypatch):
    assert run(tiny_train_args(tmp_path, lamp_root)) == 0
    (train_dir,) = find_run_dirs(tmp_path / "runs")
    checkpoint = train_dir / "checkpoint.ckpt"
    assert run(["predict", "--config", tmp_path / "tiny.ini", "--data-root",
                lamp_root, "--category", "lamp", "--checkpoint", checkpoint,
                "--split", "train", "--seed", "5", "--points", "24",
                "--out", tmp_path / "predict"]) == 0
    (predict_dir,) = find_run_dirs(tmp_path / "predict")

    model = model_from_checkpoint(checkpoint)
    scored = []
    predict = model.predict

    def recording_predict(points):
        scored.append((points, predict(points)))
        return scored[-1][1]

    monkeypatch.setattr(model, "predict", recording_predict)
    records = load_split(lamp_root, "lamp").train
    pignet.evaluation.evaluate_split(model, records, 5, 24)
    assert len(scored) == len(records)
    for rec, (points, pred) in zip(records, scored):
        ply = (predict_dir / "ply" / f"{rec.shape_id}.ply").read_text()
        rows = [row.split() for row in ply.split("end_header\n")[1].splitlines()]
        assert [row[:3] for row in rows] == \
            [[f"{v:.6f}" for v in point] for point in points]
        assert [tuple(map(int, row[3:])) for row in rows] == \
            [PART_PALETTE[part % len(PART_PALETTE)] for part in pred]


class TestSynth:
    def test_creates_layout(self, tmp_path):
        root = synth(tmp_path, shapes="lamp,table", count=2, test_count=1)
        for category in ("lamp", "table"):
            assert (root / category / "points").is_dir()
            assert (root / category / "points_label").is_dir()
            ids = (root / category / "train.txt").read_text().split()
            assert len(ids) == 2
            assert len((root / category / "test.txt").read_text().split()) == 1

    def test_unknown_shape_exits_2(self, tmp_path):
        assert run(["synth", "--shapes", "teapot", "--out",
                    tmp_path / "d"]) == 2

    def test_generation_manifest_written(self, tmp_path):
        root = synth(tmp_path, count=2)
        manifest = (root / "synth.ini").read_text()
        assert "seed = 7" in manifest
        assert "shapes = lamp" in manifest


class TestTrainEvalPredict:
    def test_pipeline(self, tmp_path):
        root = synth(tmp_path, count=3, test_count=1)
        out = tmp_path / "runs"
        config = tiny_config_file(tmp_path)
        code = run(["train", "--config", config, "--data-root", root,
                    "--category", "lamp", "--seed", "7", "--epochs", "3",
                    "--out", out] + TINY_MODEL_FLAGS)
        assert code == 0
        (train_dir,) = find_run_dirs(out)
        checkpoint = train_dir / "checkpoint.ckpt"
        assert checkpoint.exists()
        assert (train_dir / "config.ini").exists()
        log_lines = (train_dir / "log.txt").read_text()
        assert "epoch    0" in log_lines
        history = (train_dir / "history.tsv").read_text().strip().split("\n")
        assert len(history) == 4  # header + 3 epochs

        code = run(["eval", "--config", config, "--data-root", root,
                    "--category", "lamp", "--checkpoint", checkpoint,
                    "--split", "train", "--out", out, "--points", "24"])
        assert code == 0
        eval_dir = find_run_dirs(out)[-1]
        assert (eval_dir / "report.tsv").exists()
        summary = (eval_dir / "summary.txt").read_text()
        assert "instance mIoU" in summary

        code = run(["predict", "--config", config, "--data-root", root,
                    "--category", "lamp", "--checkpoint", checkpoint,
                    "--split", "test", "--out", out, "--points", "24"])
        assert code == 0
        predict_dir = find_run_dirs(out)[-1]
        plys = list((predict_dir / "ply").glob("*.ply"))
        assert len(plys) == 1
        assert plys[0].read_text().startswith("ply\n")

    def test_dataset_directory_not_mutated(self, tmp_path):
        root = synth(tmp_path, count=2)
        snapshot = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        config = tiny_config_file(tmp_path)
        run(["train", "--config", config, "--data-root", root, "--category",
             "lamp", "--epochs", "1", "--out", tmp_path / "runs"]
            + TINY_MODEL_FLAGS)
        after = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert snapshot == after

    def test_eval_of_empty_points_file_exits_1(self, tmp_path, capsys):
        root = synth(tmp_path, count=2)
        config = tiny_config_file(tmp_path)
        out = tmp_path / "runs"
        assert run(["train", "--config", config, "--data-root", root,
                    "--category", "lamp", "--epochs", "1", "--out", out]
                   + TINY_MODEL_FLAGS) == 0
        (train_dir,) = find_run_dirs(out)
        shape_id = (root / "lamp" / "train.txt").read_text().split()[0]
        empty = root / "lamp" / "points" / f"{shape_id}.pts"
        empty.write_text("")
        capsys.readouterr()
        code = run(["eval", "--config", config, "--data-root", root,
                    "--category", "lamp", "--split", "train", "--checkpoint",
                    train_dir / "checkpoint.ckpt", "--out", out,
                    "--points", "24"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(empty) in err
        assert "Traceback" not in err

    def test_missing_data_root_exits_nonzero(self, tmp_path):
        code = run(["train", "--data-root", tmp_path / "nope", "--category",
                    "lamp", "--epochs", "1", "--out", tmp_path / "runs"])
        assert code != 0

    def test_no_data_root_exits_2(self, tmp_path, capsys, monkeypatch):
        # through the console script, which exits with main's status
        monkeypatch.setattr(sys, "argv", [
            "pignet", "train", "--category", "lamp", "--epochs", "1",
            "--out", str(tmp_path / "runs")])
        with pytest.raises(SystemExit) as exit_:
            pignet.cli.entry()
        assert exit_.value.code == 2
        assert capsys.readouterr().err == (
            "config error: --data-root is required (flag or config file)\n")
        assert not (tmp_path / "runs").exists()

    def test_negative_label_exits_1_naming_the_line(self, tmp_path, capsys):
        root = synth(tmp_path, count=2)
        seg = root / "lamp" / "points_label" / "lamp_0001.seg"
        seg.write_text("-1\n" + seg.read_text().split("\n", 1)[1])
        capsys.readouterr()
        assert run(tiny_train_args(tmp_path, root)) == 1
        assert capsys.readouterr().err == (
            f"error: {seg}:1: negative label -1\n")

    @pytest.mark.parametrize("victim", ["points/lamp_0001.pts",
                                        "points_label/lamp_0001.seg",
                                        "train.txt"])
    def test_non_utf8_input_exits_1_naming_the_line(self, tmp_path, capsys,
                                                    victim):
        root = synth(tmp_path, count=2)
        path = root / "lamp" / victim
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        line = path.read_bytes().count(b"\n")
        capsys.readouterr()
        assert run(tiny_train_args(tmp_path, root)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:{line}: not UTF-8 text\n"

    @pytest.mark.parametrize("victim", ["points/lamp_0001.pts", "test.txt"])
    def test_directory_in_place_of_a_file_exits_1(self, tmp_path, capsys,
                                                  victim):
        root = synth(tmp_path, count=2)
        path = root / "lamp" / victim
        path.unlink(missing_ok=True)
        path.mkdir()
        capsys.readouterr()
        assert run(tiny_train_args(tmp_path, root)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "train", "inspect"])
def test_unusable_path_exits_1(tmp_path, capsys, lamp_root, command):
    """A directory given as the checkpoint or the config file, or a file as
    the output directory, ends in one error line naming it."""
    path = tmp_path / "in-the-way"
    if command == "eval":
        path.mkdir()
        argv = ["eval", "--config", tiny_config_file(tmp_path), "--data-root",
                lamp_root, "--category", "lamp", "--split", "train",
                "--checkpoint", path, "--out", tmp_path / "runs",
                "--points", "24"]
    elif command == "train":
        path = tmp_path / "runs"
        path.write_text("")
        argv = tiny_train_args(tmp_path, lamp_root)
    else:
        path.mkdir()
        argv = ["inspect", "--config", path]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_checkpoint_config_disagreeing_with_tensors_exits_1(
        tmp_path, capsys, lamp_root, monkeypatch):
    """Checkpoint metadata whose feature_reduce would need 1.7 TB ends in one
    error line naming the file, before any model is built."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(ModelConfig(
        num_parts=3, inception_plan=(4, 8), tnet_conv_widths=(4, 8, 16),
        tnet_fc_widths=(8, 8), head_widths=(8, 8)), seed=0))
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])
    meta = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + length])
    meta["config"]["feature_reduce"] = 153925
    meta_bytes = json.dumps(meta).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes
                     + blob[len(MAGIC) + 4 + length:])

    def refuse(*args, **kwargs):
        raise AssertionError("build_model called")

    monkeypatch.setattr(pignet.training, "build_model", refuse)
    capsys.readouterr()
    assert run(["eval", "--config", tiny_config_file(tmp_path), "--data-root",
                lamp_root, "--category", "lamp", "--split", "train",
                "--checkpoint", path, "--out", tmp_path / "runs"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path} holds ")
    assert "Traceback" not in err


@pytest.fixture
def parsed(monkeypatch):
    """The points path of every ``load_cloud`` call, in call order."""
    calls = []
    real = pignet.data.load_cloud

    def counting(points_path, *args):
        calls.append(points_path)
        return real(points_path, *args)

    monkeypatch.setattr(pignet.data, "load_cloud", counting)
    return calls


class TestEachFileParsedOnce:
    """Every command parses each shape file it reads exactly once, however
    many epochs, variants or grid cells reuse it."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("parse-once")
        root = synth(tmp_path, count=4, val_count=2, test_count=2)
        assert run(tiny_train_args(tmp_path, root)) == 0
        return root, find_run_dirs(tmp_path / "runs")[0] / "checkpoint.ckpt"

    @staticmethod
    def points_files(root, *splits):
        return sorted(root / "lamp" / "points" / f"{shape_id}.pts"
                      for split in splits
                      for shape_id in (root / "lamp" / f"{split}.txt")
                      .read_text().split())

    def common(self, tmp_path, root, command):
        return [command, "--config", tiny_config_file(tmp_path),
                "--data-root", root, "--category", "lamp",
                "--out", tmp_path / "runs"]

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--epochs", "3"]),
        ("ablate", ["--epochs", "1", "--split", "test"]),
    ])
    def test_training_commands(self, tmp_path, trained, parsed, command,
                               extra):
        root, _ = trained
        assert run(self.common(tmp_path, root, command) + TINY_MODEL_FLAGS
                   + extra) == 0
        # num_parts is checked against the labels of all three splits
        assert sorted(parsed) == self.points_files(root, "train", "val",
                                                   "test")

    @pytest.mark.parametrize("command", ["eval", "predict", "robustness"])
    def test_held_out_commands(self, tmp_path, trained, parsed, command):
        root, checkpoint = trained
        # the checkpoint fixes the model, and the grid its point counts
        points = [] if command == "robustness" else ["--points", "24"]
        assert run(self.common(tmp_path, root, command) + points
                   + ["--checkpoint", checkpoint, "--split", "test"]) == 0
        assert sorted(parsed) == self.points_files(root, "test")


class TestHeldOutConfigKeys:
    """A command that takes its model from a checkpoint checks and records
    only the config keys its flags cover; unknown keys are still refused."""

    @pytest.fixture
    def scored(self, tmp_path, lamp_root):
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, build_model(ModelConfig(
            num_parts=3, inception_plan=(4, 8), tnet_conv_widths=(4, 8, 16),
            tnet_fc_widths=(8, 8), head_widths=(8, 8)), seed=0))

        def scored(command, ini):
            config = tmp_path / "other.ini"
            config.write_text(ini)
            points = [] if command == "robustness" else ["--points", "24"]
            return run([command, "--config", config, "--data-root", lamp_root,
                        "--category", "lamp", "--checkpoint", checkpoint,
                        "--split", "train", "--out", tmp_path / "runs"]
                       + points)
        return scored

    @pytest.mark.parametrize("command", ["eval", "predict", "robustness"])
    def test_a_bad_value_of_an_unread_key_is_ignored(self, scored, command):
        assert scored(command, "[train]\nepochs = -1\n") == 0

    @pytest.mark.parametrize("command", ["eval", "predict", "robustness"])
    def test_the_run_records_only_the_keys_it_read(self, tmp_path, scored,
                                                   command):
        assert scored(command, "[model]\narch = pointnet\nnum_parts = 9\n"
                      "[train]\nseed = 4\n") == 0
        (run_dir,) = find_run_dirs(tmp_path / "runs")
        recorded = configparser.ConfigParser()
        recorded.read(run_dir / "config.ini")
        keys = {"root", "category", "out", "seed"} | (
            set() if command == "robustness" else {"points"})
        assert {key for section in recorded.sections()
                for key in recorded[section]} == keys
        assert recorded["train"]["seed"] == "4"

    def test_an_unknown_key_is_still_refused(self, scored, capsys):
        assert scored("eval", "[model]\narc = pignet\n") == 2
        assert "unknown config key [model] arc" in capsys.readouterr().err

    def test_inspect_reads_only_the_model_keys(self, tmp_path, capsys):
        config = tmp_path / "other.ini"
        config.write_text("[model]\nnum_parts = 3\n[train]\nepochs = -1\n"
                          "[augment]\njitter_sigma = -2\n")
        assert run(["inspect", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "head widths: (512, 256, 128) -> 3" in out
        config.write_text("[model]\nnum_parts = 1\n")
        assert run(["inspect", "--config", config]) == 2

    @pytest.mark.parametrize("ini", ["[train]\nepoch = 1\n",
                                     "[model]\narc = pignet\n"])
    def test_inspect_still_refuses_an_unknown_key(self, tmp_path, capsys,
                                                  ini):
        config = tmp_path / "other.ini"
        config.write_text(ini)
        assert run(["inspect", "--config", config]) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestConfigFile:
    def test_unknown_key_exits_2_and_names_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[train]\nlerning_rate = 0.1\n")
        code = run(["inspect", "--config", config])
        assert code == 2
        assert "lerning_rate" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[models]\narch = pignet\n")
        assert run(["inspect", "--config", config]) == 2
        assert "models" in capsys.readouterr().err

    @pytest.mark.parametrize("content, line", [
        (b"seed = 1\n", 1),                       # no section header
        (b"[train]\nseed = 1\nseed = 2\n", 3),    # duplicate key
        (b"[train]\n[train]\n", 2),               # duplicate section
        (b"[train]\n  = 0.1\n", 2),               # indented line, no key
        (b"[train]\nseed = \xff\n", 2),           # not UTF-8
        (b"[train]\n" + b"# comment\n" * 1000 + b"seed = \xff\n", 1002),
    ], ids=["no-section", "duplicate-key", "duplicate-section",
            "unparsable-line", "not-utf8", "not-utf8-past-8kb"])
    def test_malformed_ini_exits_2_and_names_line(self, tmp_path, capsys,
                                                  content, line):
        config = tmp_path / "bad.ini"
        config.write_bytes(content)
        assert run(["inspect", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{config}:{line}:" in err

    @pytest.mark.parametrize("content", [
        "[DEFAULT]\nseed = 3\n",
        "[DEFAULT]\npoints = 3\n[model]\narch = pignet\n",
    ], ids=["alone", "beside-model"])
    def test_default_section_is_refused(self, tmp_path, capsys, content):
        config = tmp_path / "c.ini"
        config.write_text(content)
        with pytest.raises(ConfigError) as err:
            load_run_config(config)
        assert str(err.value) == "unknown config section [DEFAULT]"
        assert run(["train", "--config", config, "--out",
                    tmp_path / "runs"]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown config section [DEFAULT]\n")

    def test_percent_sign_is_literal_and_round_trips(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[data]\nroot = data%1\n")
        cfg = load_run_config(config)
        assert cfg.root == "data%1"
        cfg.dump(tmp_path / "copy.ini")
        assert load_run_config(tmp_path / "copy.ini").root == "data%1"

    def test_missing_config_file_exits_nonzero(self, tmp_path):
        assert run(["inspect", "--config", tmp_path / "absent.ini"]) == 1

    def test_flag_overrides_file(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[train]\nseed = 5\n[data]\npoints = 64\n")
        cfg = load_run_config(config, [("train", "seed", "9")])
        assert cfg.train_config.seed == 9
        assert cfg.points == 64

    def test_invalid_value_names_field(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[data]\npoints = many\n")
        with pytest.raises(ConfigError) as err:
            load_run_config(config)
        assert str(err.value) == (
            "[data] points: expected an integer, got 'many'")

    @pytest.mark.parametrize("section, key, raw, message", [
        ("data", "points", "0", "[data] points must be >= 1"),
        ("model", "num_parts", "some",
         "[model] num_parts: expected an integer, got 'some'"),
        ("model", "use_gap", "maybe",
         "[model] use_gap: expected on/off, got 'maybe'"),
        ("model", "inception_plan", "8,x",
         "[model] inception_plan: expected comma-separated integers, "
         "got '8,x'"),
        ("train", "learning_rate", "fast",
         "[train] learning_rate: expected a number, got 'fast'"),
        ("augment", "scale_range", "1,b",
         "[augment] scale_range: expected comma-separated numbers, "
         "got '1,b'"),
    ], ids=["points-zero", "num-parts-word", "bool-word",
            "ints-item", "float-word", "floats-item"])
    def test_malformed_value_message(self, tmp_path, section, key, raw,
                                     message):
        config = tmp_path / "c.ini"
        config.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_run_config(config)
        assert str(err.value) == message

    def test_config_copy_reproduces_run(self, tmp_path):
        root = synth(tmp_path, count=2)
        out = tmp_path / "runs"
        config = tiny_config_file(tmp_path)
        run(["train", "--config", config, "--data-root", root, "--category",
             "lamp", "--seed", "3", "--epochs", "1", "--out", out]
            + TINY_MODEL_FLAGS)
        (train_dir,) = find_run_dirs(out)
        copied = load_run_config(train_dir / "config.ini")
        assert copied.train_config.seed == 3
        assert copied.points == 24
        assert copied.model_kwargs["inception_plan"] == (4, 8)
        assert copied.root == str(root)


class TestInspect:
    def test_prints_parameter_count(self, capsys):
        assert run(["inspect", "--plan", "4,8", "--num-parts", "3"]) == 0
        out = capsys.readouterr().out
        assert "total parameters:" in out
        line = [l for l in out.split("\n") if "total parameters" in l][0]
        assert int(line.split(":")[1]) > 0

    def test_default_config_count(self, capsys):
        assert run(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "total parameters:" in out


class TestFullPipeline:
    @pytest.mark.slow
    def test_synth_train_eval_overfits_train_split(self, tmp_path):
        """The documented front-door recipe: synthesize 8 lamps, train a
        reduced model for 300 epochs, and reach instance mIoU >= 0.95 on the
        training split. Takes a couple of minutes."""
        root = tmp_path / "data"
        assert run(["synth", "--shapes", "lamp", "--count", 8, "--seed", 7,
                    "--cloud-points", 2048, "--out", root]) == 0
        out = tmp_path / "runs"
        code = run(["train", "--data-root", root, "--category", "lamp",
                    "--seed", 7, "--epochs", 300, "--points", 256,
                    "--plan", "8,16,24", "--dtype", "float32", "--out", out])
        assert code == 0
        checkpoint = find_run_dirs(out)[0] / "checkpoint.ckpt"
        code = run(["eval", "--data-root", root, "--category", "lamp",
                    "--checkpoint", checkpoint, "--split", "train",
                    "--points", 256, "--seed", 7, "--out", out])
        assert code == 0
        summary = (find_run_dirs(out)[-1] / "summary.txt").read_text()
        instance = float([line for line in summary.splitlines()
                          if line.startswith("instance mIoU")][0].split()[-1])
        assert instance >= 0.95


class TestAblateRobustness:
    def test_ablate_produces_five_rows(self, tmp_path):
        root = synth(tmp_path, count=2)
        out = tmp_path / "runs"
        config = tiny_config_file(tmp_path)
        code = run(["ablate", "--config", config, "--data-root", root,
                    "--category", "lamp", "--epochs", "1", "--split", "train",
                    "--out", out] + TINY_MODEL_FLAGS)
        assert code == 0
        table = (find_run_dirs(out)[-1] / "ablation.tsv").read_text()
        assert len(table.strip().split("\n")) == 6

    def test_robustness_grid_files(self, tmp_path):
        root = synth(tmp_path, count=2)
        out = tmp_path / "runs"
        config = tiny_config_file(tmp_path)
        run(["train", "--config", config, "--data-root", root, "--category",
             "lamp", "--epochs", "1", "--out", out] + TINY_MODEL_FLAGS)
        checkpoint = find_run_dirs(out)[0] / "checkpoint.ckpt"
        assert run(["train", "--config", config, "--data-root", root,
                    "--category", "lamp", "--epochs", "1", "--out", out,
                    "--arch", "pointnet"] + TINY_MODEL_FLAGS) == 0
        baseline = find_run_dirs(out)[1] / "checkpoint.ckpt"
        code = run(["robustness", "--config", config, "--data-root", root,
                    "--category", "lamp", "--checkpoint", checkpoint,
                    "--baseline-checkpoint", baseline,
                    "--split", "train", "--out", out])
        assert code == 0
        for name in ("pignet", "pointnet"):
            grid_file = find_run_dirs(out)[-1] / f"robustness_{name}.tsv"
            lines = grid_file.read_text().strip().split("\n")
            assert len(lines) == 5  # header + 4 density rows
            assert all(line.count("\t") == 5 for line in lines)  # 6 columns

    def test_ablate_of_pointnet_exits_2_before_the_run_directory(
            self, tmp_path, capsys, lamp_root, no_training):
        args = tiny_train_args(tmp_path, lamp_root) + ["--arch", "pointnet"]
        args[0] = "ablate"
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "config error: ablation varies only PIG-Net fields, so arch "
            "pointnet gives five identical networks\n")
        assert not (tmp_path / "runs").exists()

    def test_robustness_grid_files_name_their_models(self, tmp_path, capsys,
                                                      lamp_root):
        checkpoints = {}
        for arch in ("pignet", "pointnet"):
            checkpoints[arch] = tmp_path / f"{arch}.ckpt"
            save_checkpoint(checkpoints[arch], build_model(ModelConfig(
                num_parts=3, arch=arch, inception_plan=(4, 8),
                tnet_conv_widths=(4, 8, 16), tnet_fc_widths=(8, 8),
                head_widths=(8, 8), baseline_plan=(4, 4, 4, 8, 16)), seed=0))
        common = ["robustness", "--data-root", lamp_root, "--category",
                  "lamp", "--split", "train", "--out", tmp_path / "runs"]
        # the baseline given first
        assert run(common + ["--checkpoint", checkpoints["pointnet"],
                             "--baseline-checkpoint",
                             checkpoints["pignet"]]) == 0
        (run_dir,) = find_run_dirs(tmp_path / "runs")
        records = load_split(lamp_root, "lamp").train
        for arch, path in checkpoints.items():
            grid = robustness_run(model_from_checkpoint(path), None, records,
                                  0)[arch]
            assert (run_dir / f"robustness_{arch}.tsv").read_text() == \
                robustness_tsv(grid)
        capsys.readouterr()
        assert run(common + ["--checkpoint", checkpoints["pignet"],
                             "--baseline-checkpoint",
                             checkpoints["pignet"]]) == 1
        assert capsys.readouterr().err == (
            "error: both models are pignet; the robustness grids are named "
            "by arch\n")
        assert find_run_dirs(tmp_path / "runs") == [run_dir]


class TestNumPartsResolution:
    def test_inferred_from_data(self, tmp_path):
        root = synth(tmp_path, count=2)
        out = tmp_path / "runs"
        config = tiny_config_file(tmp_path)
        code = run(["train", "--config", config, "--data-root", root,
                    "--category", "lamp", "--epochs", "1", "--out", out,
                    "--plan", "4,8", "--points", "24"])
        assert code == 0  # lamp has 3 parts; auto-inferred

    def test_explicit_too_small_rejected(self, tmp_path, capsys):
        root = synth(tmp_path, count=2)
        config = tiny_config_file(tmp_path)
        code = run(["train", "--config", config, "--data-root", root,
                    "--category", "lamp", "--epochs", "1",
                    "--out", tmp_path / "runs", "--plan", "4,8",
                    "--points", "24", "--num-parts", "2"])
        assert code == 2
        assert "num_parts" in capsys.readouterr().err
