import itertools

import numpy as np
import pytest

import pignet.data
from pignet.data import load_cloud, load_split, write_synth_dataset
from pignet.errors import ConfigError, DataError, UsageError
from pignet.evaluation import (PART_PALETTE, SegmentationReport, ShapeResult,
                               ablation_run, ablation_tsv, ablation_variants,
                               aggregate_miou, evaluate_split, robustness_run,
                               robustness_tsv, shape_miou, write_ply)
from pignet.model import ModelConfig, build_model
from pignet.training import TrainConfig


def brute_force_miou(pred, gt, num_parts):
    """Independent oracle: explicit confusion matrix, then per-part IoU."""
    confusion = [[0] * num_parts for _ in range(num_parts)]
    for p, g in zip(pred, gt):
        confusion[int(g)][int(p)] += 1
    total = 0.0
    for part in range(num_parts):
        tp = confusion[part][part]
        fn = sum(confusion[part]) - tp
        fp = sum(confusion[r][part] for r in range(num_parts)) - tp
        union = tp + fn + fp
        total += 1.0 if union == 0 else tp / union
    return total / num_parts


def tiny_model_config(**kwargs):
    base = dict(num_parts=3, inception_plan=(4, 8),
                tnet_conv_widths=(4, 8, 16), tnet_fc_widths=(8, 8),
                head_widths=(8, 8))
    base.update(kwargs)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def lamp_root(tmp_path_factory):
    return write_synth_dataset(tmp_path_factory.mktemp("data") / "synth",
                               ["lamp"], count=4, seed=0,
                               points_per_shape=128, test_count=2)


class TestShapeMiou:
    def test_perfect_prediction(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert shape_miou(labels, labels, 3) == 1.0

    def test_hand_confusion_case(self):
        # part 0: intersection 1, union 2; part 1: intersection 2, union 3
        value = shape_miou(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
        assert np.isclose(value, (0.5 + 2.0 / 3.0) / 2.0)
        assert abs(value - 0.583333) < 1e-6

    def test_absent_part_contributes_one(self):
        value = shape_miou(np.array([0, 0]), np.array([0, 0]), 3)
        assert value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            shape_miou(np.array([0, 1]), np.array([0]), 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(DataError):
            shape_miou(np.array([0, 3]), np.array([0, 1]), 3)

    def test_bounds_and_equality_condition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 30)
            pred = rng.integers(0, 3, n)
            gt = rng.integers(0, 3, n)
            value = shape_miou(pred, gt, 3)
            assert 0.0 <= value <= 1.0
            if np.array_equal(pred, gt):
                assert value == 1.0

    def test_exhaustive_label_pairs_match_oracle(self):
        for n in range(1, 5):
            for pred in itertools.product(range(3), repeat=n):
                for gt in itertools.product(range(3), repeat=n):
                    assert shape_miou(np.array(pred), np.array(gt), 3) == \
                        brute_force_miou(pred, gt, 3)

    def test_exhaustive_confusion_matrices_match_oracle(self):
        # every (pred, gt) pair factors through its confusion matrix, so
        # enumerating all 3x3 count matrices with n <= 12 covers all inputs
        for n in range(1, 13):
            for cells in itertools.combinations_with_replacement(range(9), n):
                confusion = np.zeros(9, dtype=int)
                for c in cells:
                    confusion[c] += 1
                gt, pred = [], []
                for cell, count in enumerate(confusion):
                    gt.extend([cell // 3] * count)
                    pred.extend([cell % 3] * count)
                assert shape_miou(np.array(pred), np.array(gt), 3) == \
                    brute_force_miou(pred, gt, 3)

    def test_random_large_instances_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(50, 500)
            parts = rng.integers(2, 7)
            pred = rng.integers(0, parts, n)
            gt = rng.integers(0, parts, n)
            assert shape_miou(pred, gt, parts) == \
                brute_force_miou(pred, gt, parts)


class TestAggregate:
    def test_hand_average(self):
        results = [ShapeResult("a1", "A", 0.8), ShapeResult("a2", "A", 0.6),
                   ShapeResult("b1", "B", 1.0)]
        instance, category = aggregate_miou(results)
        assert np.isclose(instance, 0.8)
        assert np.isclose(category, 0.85)

    def test_single_shape(self):
        instance, category = aggregate_miou([ShapeResult("x", "A", 0.7)])
        assert instance == category == 0.7

    def test_all_perfect(self):
        results = [ShapeResult(f"s{i}", "C", 1.0) for i in range(5)]
        assert aggregate_miou(results) == (1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate_miou([])

    def test_single_category_makes_both_equal(self):
        results = [ShapeResult(f"s{i}", "A", v)
                   for i, v in enumerate([0.2, 0.4, 0.9])]
        instance, category = aggregate_miou(results)
        assert instance == category


class TestEvaluateSplit:
    def test_untrained_model_contract(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=0)
        report = evaluate_split(model, split.train, seed=0, points=32)
        assert len(report.shapes) == 4
        assert 0.0 <= report.instance_miou <= 1.0
        assert 0.0 <= report.category_miou <= 1.0

    def test_deterministic_under_seed(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=1)
        a = evaluate_split(model, split.train, seed=5, points=32)
        b = evaluate_split(model, split.train, seed=5, points=32)
        assert [r.miou for r in a.shapes] == [r.miou for r in b.shapes]

    def test_matches_brute_force_path(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=2)
        report = evaluate_split(model, split.train, seed=3, points=32)
        # recompute every shape with the independent oracle pipeline
        from pignet.data import load_cloud, normalize, sample_points
        from pignet.seeding import EVAL
        for i, rec in enumerate(split.train):
            cloud = normalize(load_cloud(rec.points_path, rec.labels_path))
            sampled = sample_points(cloud, 32, (3, EVAL, i))
            pred = model.predict(sampled.points)
            assert report.shapes[i].miou == \
                brute_force_miou(pred, sampled.labels, 3)

    def test_part_count_mismatch_is_config_error(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(num_parts=2), seed=0)
        with pytest.raises(ConfigError):
            evaluate_split(model, split.train, seed=0, points=32)

    def test_report_formats(self):
        report = SegmentationReport.from_shapes(
            [ShapeResult("s0", "lamp", 0.5), ShapeResult("s1", "lamp", 1.0)])
        tsv = report.to_tsv()
        assert tsv.startswith("shape_id\tcategory\tmiou")
        assert "s0\tlamp\t0.500000" in tsv
        assert "instance mIoU\t0.750000" in report.summary()


class TestAblation:
    def test_variant_grid_structure(self):
        base = tiny_model_config(inception_plan=(4, 8, 8))
        variants = ablation_variants(base)
        assert len(variants) == 5
        names = [name for name, _ in variants]
        assert names == ["inception2-gap", "inception3-gap", "inception4-gap",
                         "plainconv3-gap", "inception3-maxpool"]
        plans = [cfg.inception_plan for _, cfg in variants]
        assert plans == [(4, 8), (4, 8, 8), (4, 8, 8, 16), (4, 8, 8), (4, 8, 8)]

    def test_full_scale_variant_widths(self):
        from pignet.inception import InceptionStack
        from pignet.seeding import make_rng
        base = ModelConfig(num_parts=4)
        variants = dict(ablation_variants(base))
        for name, expected in [("inception3-gap", 768),
                               ("inception4-gap", 1536),
                               ("inception5-gap", 3072)]:
            plan = variants[name].inception_plan
            assert InceptionStack(plan, make_rng(0)).out_channels == expected

    def test_variants_differ_only_in_documented_fields(self):
        from dataclasses import asdict
        base = tiny_model_config()
        allowed = {"inception_plan", "use_inception", "use_gap"}
        for _, config in ablation_variants(base):
            diff = {k for k, v in asdict(config).items()
                    if asdict(base)[k] != v}
            assert diff <= allowed

    def test_run_on_synthetic_set(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        rows = ablation_run(split.train, split.train, tiny_model_config(),
                            TrainConfig(epochs=2, seed=4, batch_size=8),
                            points=32)
        assert len(rows) == 5
        gap = next(r for r in rows if r.name == "inception2-gap")
        assert 0.0 <= gap.instance_miou <= 1.0
        # gap vs max-pool: same parameter shapes, same init, different training
        pair = {r.name: r for r in rows}
        assert pair["inception2-gap"].init_hash == \
            pair["inception2-maxpool"].init_hash
        assert pair["inception2-gap"].trained_hash != \
            pair["inception2-maxpool"].trained_hash
        table = ablation_tsv(rows)
        assert table.count("\n") == 6


class TestRobustness:
    def test_grid_shape_and_identity_cell(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=5)
        baseline = build_model(
            tiny_model_config(arch="pointnet", baseline_plan=(4, 4, 4, 8, 16)),
            seed=5)
        grids = robustness_run(model, baseline, split.train, seed=9,
                               densities=(16, 32), sigmas=(0.0, 0.01))
        assert set(grids) == {"pignet", "pointnet"}
        for grid in grids.values():
            assert len(grid) == 4
        plain = evaluate_split(model, split.train, seed=9, points=32)
        assert grids["pignet"][(32, 0.0)] == plain.instance_miou

    def test_grid_golden(self, lamp_root):
        # exact cell values of both models, recorded from the per-cell
        # evaluation that parsed every shape again for each cell
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=5)
        baseline = build_model(
            tiny_model_config(arch="pointnet", baseline_plan=(4, 4, 4, 8, 16)),
            seed=5)
        grids = robustness_run(model, baseline, split.train, seed=9,
                               densities=(16, 32), sigmas=(0.0, 0.01))
        assert grids == {
            "pignet": {(16, 0.0): 0.12638888888888888,
                       (16, 0.01): 0.12638888888888888,
                       (32, 0.0): 0.1301900210502361,
                       (32, 0.01): 0.1324793983396134},
            "pointnet": {(16, 0.0): 0.11458333333333334,
                         (16, 0.01): 0.11458333333333334,
                         (32, 0.0): 0.13020833333333334,
                         (32, 0.01): 0.13020833333333334},
        }

    def test_grid_parses_each_record_once(self, lamp_root, monkeypatch):
        parsed = []

        def counting_load_cloud(points_path, *args):
            parsed.append(points_path)
            return load_cloud(points_path, *args)

        monkeypatch.setattr(pignet.data, "load_cloud", counting_load_cloud)
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=5)
        baseline = build_model(
            tiny_model_config(arch="pointnet", baseline_plan=(4, 4, 4, 8, 16)),
            seed=5)
        robustness_run(model, baseline, split.train, seed=9,
                       densities=(16, 32), sigmas=(0.0, 0.01))
        assert parsed == [rec.points_path for rec in split.train]

    def test_grids_are_keyed_by_arch(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=5)
        baseline = build_model(
            tiny_model_config(arch="pointnet", baseline_plan=(4, 4, 4, 8, 16)),
            seed=5)

        def grids(*models):
            return robustness_run(*models, split.train, seed=9,
                                  densities=(16, 32), sigmas=(0.0,))

        both = grids(model, baseline)
        assert grids(baseline, model) == both
        assert grids(baseline, None) == {"pointnet": both["pointnet"]}

    def test_density_cell_uses_reduced_clouds(self, lamp_root):
        split = load_split(lamp_root, "lamp")
        model = build_model(tiny_model_config(), seed=6)
        grids = robustness_run(model, None, split.train, seed=1,
                               densities=(16,), sigmas=(0.0,))
        assert (16, 0.0) in grids["pignet"]

    def test_tsv_format(self):
        grid = {(d, s): 0.5 for d in (128, 256) for s in (0.0, 0.01)}
        text = robustness_tsv(grid, densities=(128, 256), sigmas=(0.0, 0.01))
        lines = text.strip().split("\n")
        assert lines[0] == "density\\sigma\t0\t0.01"
        assert lines[1].startswith("128\t")


class TestPly:
    def test_written_file_parses_back(self, tmp_path):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, 20)
        path = tmp_path / "shape.ply"
        write_ply(path, points, labels)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "ply"
        assert "element vertex 20" in lines[2]
        header_end = lines.index("end_header")
        body = lines[header_end + 1:]
        assert len(body) == 20
        for row, (point, label) in zip(body, zip(points, labels)):
            fields = row.split()
            assert np.allclose([float(v) for v in fields[:3]], point,
                               atol=1e-6)
            assert tuple(int(v) for v in fields[3:]) == \
                PART_PALETTE[label % len(PART_PALETTE)]

    def test_bytes_match_reference_writer(self, tmp_path):
        """write_ply writes, byte for byte, what the per-row f-string writer
        it replaced wrote; that writer is kept here as the reference."""
        rng = np.random.default_rng(5)
        points = np.concatenate([
            [[0.0, -0.0, 1e-9], [-1e-9, 5e-7, -5e-7], [1e6, -1e6, 999999.5]],
            np.logspace(-9, 6, 60).reshape(20, 3) * rng.choice([-1, 1],
                                                               (20, 3)),
            rng.normal(size=(10, 3))])
        part_ids = np.arange(len(points)) - 3  # -3 .. 29: 8 and above wrap
        write_ply(tmp_path / "shape.ply", points, part_ids)
        expected = ("ply\nformat ascii 1.0\n"
                    f"element vertex {len(points)}\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property uchar red\nproperty uchar green\n"
                    "property uchar blue\nend_header\n")
        for (x, y, z), part in zip(points, part_ids):
            r, g, b = PART_PALETTE[int(part) % len(PART_PALETTE)]
            expected += f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}\n"
        assert (tmp_path / "shape.ply").read_text() == expected

    def test_label_count_checked(self, tmp_path):
        with pytest.raises(DataError):
            write_ply(tmp_path / "x.ply", np.zeros((3, 3)), np.zeros(2))
