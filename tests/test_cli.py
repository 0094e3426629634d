import pytest

from pignet.cli import main, load_run_config
from pignet.errors import ConfigError


def run(args):
    return main([str(a) for a in args])


def synth(tmp_path, shapes="lamp", count=3, test_count=0):
    root = tmp_path / "data"
    assert run(["synth", "--shapes", shapes, "--count", count,
                "--test-count", test_count, "--cloud-points", 96,
                "--seed", 7, "--out", root]) == 0
    return root


def find_run_dirs(out):
    return sorted(p for p in out.iterdir() if p.name.startswith("run-"))


TINY_MODEL_FLAGS = ["--plan", "4,8", "--points", "24", "--num-parts", "3"]


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
    ], ids=["no-section", "duplicate-key", "duplicate-section",
            "unparsable-line", "not-utf8"])
    def test_malformed_ini_exits_2_and_names_line(self, tmp_path, capsys,
                                                  content, line):
        config = tmp_path / "bad.ini"
        config.write_bytes(content)
        assert run(["inspect", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{config}:{line}:" in err

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
        assert "points" in str(err.value)

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
        code = run(["robustness", "--config", config, "--data-root", root,
                    "--category", "lamp", "--checkpoint", checkpoint,
                    "--split", "train", "--out", out, "--points", "24"])
        assert code == 0
        grid_file = find_run_dirs(out)[-1] / "robustness_pignet.tsv"
        lines = grid_file.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 density rows
        assert lines[0].count("\t") == 5  # 5 sigma columns


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
