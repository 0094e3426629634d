import math

import numpy as np
import pytest

import pignet.data
from pignet.data import (AugmentConfig, LAMP_POLE_HEIGHT, LAMP_POLE_RADIUS,
                         PointCloud, add_gaussian_noise, augment, load_cloud,
                         load_split, normalize, rotate_up, sample_points,
                         save_cloud, synth_generate, write_synth_dataset)
from pignet.errors import (DataError, DegenerateError, ParseError, UsageError)


def awkward_coordinates():
    """Signed zeros, magnitudes from 1e-9 to 1e6, and values that round at
    the sixth decimal, as an (n, 3) array."""
    rng = np.random.default_rng(11)
    magnitudes = np.logspace(-9, 6, 46) * rng.uniform(0.5, 1.5, 46)
    values = np.concatenate([
        [0.0, -0.0, 5e-7, -5e-7, 4.9999995e-7, 1.0000005, 0.1234565,
         999999.9999995, 1e6, -1e6, 1e-9, -1e-9],
        magnitudes, -magnitudes, rng.normal(size=30)])
    return values[:len(values) // 3 * 3].reshape(-1, 3)


def make_cloud(n=32, seed=0, labels=True):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)),
                      rng.integers(0, 3, n) if labels else None, "test")


class TestLoadSave:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "c.pts"
        path.write_text("0 0 0\n1.5 2 -3\n0.1 0.2 0.3\n")
        cloud = load_cloud(path)
        assert cloud.n == 3
        assert np.allclose(cloud.points[1], [1.5, 2.0, -3.0])

    def test_label_count_mismatch_names_both_counts(self, tmp_path):
        pts = tmp_path / "c.pts"
        seg = tmp_path / "c.seg"
        pts.write_text("0 0 0\n1 1 1\n2 2 2\n")
        seg.write_text("0\n1\n")
        with pytest.raises(DataError) as err:
            load_cloud(pts, seg)
        assert "3" in str(err.value) and "2" in str(err.value)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.pts"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert ":2:" in str(err.value)

    def test_non_numeric_reports_line_number(self, tmp_path):
        path = tmp_path / "c.pts"
        path.write_text("0 0 zero\n")
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line_number(self, tmp_path, token):
        # a blank line before the bad one: the line number counts it
        path = tmp_path / "c.pts"
        path.write_text(f"0 0 0\n\n{token} 1 2\n3 4 5\n")
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert f"{path}:3:" in str(err.value)

    def test_negative_label_names_line(self, tmp_path):
        pts = tmp_path / "c.pts"
        seg = tmp_path / "c.seg"
        pts.write_text("0 0 0\n1 1 1\n2 2 2\n")
        seg.write_text("0\n\n-1\n2\n")
        with pytest.raises(ParseError) as err:
            load_cloud(pts, seg)
        assert str(err.value) == f"{seg}:3: negative label -1"

    @pytest.mark.parametrize("label", [2**63, 2**64])
    def test_label_beyond_int64_names_line(self, tmp_path, label):
        """2**63 used to wrap to a negative label, 2**64 to raise a raw
        OverflowError."""
        pts = tmp_path / "c.pts"
        seg = tmp_path / "c.seg"
        pts.write_text("0 0 0\n1 1 1\n")
        seg.write_text(f"{2**63 - 1}\n{label}\n")
        with pytest.raises(ParseError) as err:
            load_cloud(pts, seg)
        assert str(err.value) == f"{seg}:2: label {label} exceeds int64"

    @pytest.mark.parametrize("bad", ["points", "labels"])
    def test_non_utf8_bytes_name_line(self, tmp_path, bad):
        paths = {"points": tmp_path / "c.pts", "labels": tmp_path / "c.seg"}
        paths["points"].write_bytes(b"0 0 0\n1 1 1\n")
        paths["labels"].write_bytes(b"0\n1\n")
        paths[bad].write_bytes(b"\n" + paths[bad].read_bytes() + b"\xff\xfe\n")
        with pytest.raises(ParseError) as err:
            load_cloud(paths["points"], paths["labels"])
        assert str(err.value) == f"{paths[bad]}:4: not UTF-8 text"

    def test_empty_file_names_file(self, tmp_path):
        path = tmp_path / "c.pts"
        path.write_text("\n  \n")
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert str(path) in str(err.value)

    def test_bytes_match_reference_writer(self, tmp_path):
        """save_cloud writes, byte for byte, what the per-row f-string
        writer it replaced wrote; that writer is kept here as the reference."""
        points = awkward_coordinates()
        labels = np.arange(len(points)) % 23  # part ids of 8 and above
        save_cloud(PointCloud(points, labels), tmp_path / "c.pts",
                   tmp_path / "c.seg")
        expected_points = "".join(f"{x:.6f} {y:.6f} {z:.6f}\n"
                                  for x, y, z in points)
        expected_labels = "".join(f"{int(v)}\n" for v in labels)
        assert (tmp_path / "c.pts").read_text() == expected_points
        assert (tmp_path / "c.seg").read_text() == expected_labels
        assert "-0.000000\n" in expected_points.replace(" ", "\n")

    def test_roundtrip_six_decimals(self, tmp_path):
        cloud = make_cloud(20, seed=1)
        save_cloud(cloud, tmp_path / "c.pts", tmp_path / "c.seg")
        back = load_cloud(tmp_path / "c.pts", tmp_path / "c.seg")
        assert np.allclose(back.points, cloud.points, atol=1e-6)
        assert np.array_equal(back.labels, cloud.labels)


class TestNormalize:
    def test_hand_case(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = normalize(cloud)
        assert np.allclose(out.points, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_idempotent(self):
        once = normalize(make_cloud(40, seed=2))
        twice = normalize(once)
        assert np.allclose(once.points, twice.points, atol=1e-9)

    def test_invariants(self):
        out = normalize(make_cloud(64, seed=3))
        assert np.abs(out.points.mean(axis=0)).max() < 1e-6
        assert abs(np.linalg.norm(out.points, axis=1).max() - 1.0) < 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            normalize(PointCloud(np.ones((5, 3))))

    def test_labels_preserved(self):
        cloud = make_cloud(10, seed=4)
        assert np.array_equal(normalize(cloud).labels, cloud.labels)


class TestSamplePoints:
    def test_same_size_is_permutation(self):
        cloud = make_cloud(16, seed=5)
        out = sample_points(cloud, 16, seed=1)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, cloud.points))

    def test_downsample_distinct_indices(self):
        cloud = make_cloud(2048, seed=6)
        out = sample_points(cloud, 1024, seed=2)
        assert out.n == 1024
        assert len({tuple(p) for p in out.points}) == 1024

    def test_seed_replay(self):
        cloud = make_cloud(100, seed=7)
        a = sample_points(cloud, 30, seed=3)
        b = sample_points(cloud, 30, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_upsample_with_replacement(self):
        cloud = make_cloud(5, seed=8)
        out = sample_points(cloud, 12, seed=4)
        assert out.n == 12

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            sample_points(make_cloud(), 0, seed=0)

    def test_labels_travel_with_points(self):
        cloud = make_cloud(50, seed=9)
        out = sample_points(cloud, 20, seed=5)
        lookup = {tuple(p): l for p, l in zip(cloud.points, cloud.labels)}
        for p, l in zip(out.points, out.labels):
            assert lookup[tuple(p)] == l


class TestAugment:
    def degenerate_config(self):
        return AugmentConfig(rotate_up_axis=False, scale_range=(1.0, 1.0),
                             translate_range=(0.0, 0.0), jitter_sigma=0.0)

    def test_degenerate_randomness_is_identity(self):
        cloud = make_cloud(20, seed=10)
        out = augment(cloud, self.degenerate_config(), rng=0)
        assert np.array_equal(out.points, cloud.points)
        assert np.array_equal(out.labels, cloud.labels)

    def test_half_turn_rotation_oracle(self):
        pts = np.array([[1.0, 0.5, 0.0]])
        out = rotate_up(pts, math.pi, up_axis=1)
        assert np.allclose(out, [[-1.0, 0.5, 0.0]], atol=1e-12)

    def test_rotation_preserves_pairwise_distances(self):
        cloud = make_cloud(30, seed=11)
        rotated = rotate_up(cloud.points, 1.234)
        orig = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
        new = np.linalg.norm(rotated[:, None] - rotated[None], axis=2)
        assert np.allclose(orig, new, atol=1e-6)

    def test_jitter_statistics(self):
        cfg = AugmentConfig(rotate_up_axis=False, scale_range=(1.0, 1.0),
                            translate_range=(0.0, 0.0), jitter_sigma=0.01)
        base = PointCloud(np.zeros((10_000, 3)))
        out = augment(base, cfg, rng=6)
        noise = out.points.ravel()
        assert abs(noise.mean()) < 3 * 0.01 / 100.0
        assert abs(noise.std() - 0.01) / 0.01 < 0.05

    def test_scaling_preserves_sign_pattern(self):
        cfg = AugmentConfig(rotate_up_axis=False, scale_range=(0.66, 1.5),
                            translate_range=(0.0, 0.0), jitter_sigma=0.0)
        cloud = make_cloud(40, seed=12)
        out = augment(cloud, cfg, rng=7)
        assert np.array_equal(np.sign(out.points), np.sign(cloud.points))

    def test_pure_function_of_seed(self):
        cloud = make_cloud(15, seed=13)
        cfg = AugmentConfig()
        a = augment(cloud, cfg, rng=8)
        b = augment(cloud, cfg, rng=8)
        assert np.array_equal(a.points, b.points)

    def test_count_and_labels_never_change(self):
        cloud = make_cloud(25, seed=14)
        out = augment(cloud, AugmentConfig(), rng=9)
        assert out.n == cloud.n
        assert np.array_equal(out.labels, cloud.labels)


class TestCorruptions:
    # the robustness grid's density corruption is sample_points at each level
    def test_subsample_density_levels(self):
        cloud = make_cloud(1024, seed=15)
        for m in (128, 256, 512, 1024):
            assert sample_points(cloud, m, seed=1).n == m

    def test_subsample_full_size_is_permutation(self):
        cloud = make_cloud(64, seed=16)
        out = sample_points(cloud, 64, seed=2)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, cloud.points))

    def test_noise_sigma_zero_is_identity(self):
        cloud = make_cloud(30, seed=17)
        out = add_gaussian_noise(cloud, 0.0, seed=3)
        assert np.array_equal(out.points, cloud.points)

    def test_noise_statistics(self):
        base = PointCloud(np.zeros((10_000, 3)))
        out = add_gaussian_noise(base, 0.04, seed=4)
        noise = out.points.ravel()
        assert abs(noise.std() - 0.04) / 0.04 < 0.05

    def test_noise_seed_replay(self):
        cloud = make_cloud(30, seed=18)
        a = add_gaussian_noise(cloud, 0.02, seed=5)
        b = add_gaussian_noise(cloud, 0.02, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_noise_keeps_labels(self):
        cloud = make_cloud(30, seed=19)
        out = add_gaussian_noise(cloud, 0.01, seed=6)
        assert np.array_equal(out.labels, cloud.labels)


class TestSynth:
    def test_lamp_has_three_parts(self):
        (cloud,) = synth_generate("lamp", 1, seed=0, points_per_shape=1024)
        assert cloud.n == 1024
        assert set(np.unique(cloud.labels)) == {0, 1, 2}

    def test_pole_points_inside_bounding_cylinder(self):
        clouds = synth_generate("lamp", 4, seed=1, points_per_shape=512)
        for cloud in clouds:
            pole = cloud.points[cloud.labels == 1]
            radial = np.linalg.norm(pole[:, [0, 2]], axis=1)
            assert radial.max() <= LAMP_POLE_RADIUS[1] + 1e-9
            assert pole[:, 1].min() >= -1e-9
            assert pole[:, 1].max() <= LAMP_POLE_HEIGHT[1] + 1e-9

    def test_bit_identical_replay(self):
        a = synth_generate("rocket", 3, seed=2, points_per_shape=256)
        b = synth_generate("rocket", 3, seed=2, points_per_shape=256)
        for ca, cb in zip(a, b):
            assert ca.points.tobytes() == cb.points.tobytes()
            assert np.array_equal(ca.labels, cb.labels)

    def test_distinct_shapes_within_category(self):
        a, b = synth_generate("table", 2, seed=3, points_per_shape=256)
        assert not np.array_equal(a.points, b.points)

    def test_unknown_shape_rejected(self):
        with pytest.raises(UsageError):
            synth_generate("teapot", 1, seed=0)

    def test_table_has_two_parts(self):
        (cloud,) = synth_generate("table", 1, seed=4, points_per_shape=512)
        assert set(np.unique(cloud.labels)) == {0, 1}


class TestDatasetLayout:
    def test_write_and_load_split(self, tmp_path):
        root = write_synth_dataset(tmp_path / "data", ["lamp", "table"],
                                   count=3, seed=0, points_per_shape=128,
                                   val_count=1, test_count=2)
        split = load_split(root, "lamp")
        assert [len(split.train), len(split.val), len(split.test)] == [3, 1, 2]
        rec = split.train[0]
        cloud = load_cloud(rec.points_path, rec.labels_path, rec.category)
        assert cloud.n == 128
        assert cloud.labels is not None

    def test_record_parses_once_into_read_only_arrays(self, tmp_path,
                                                       monkeypatch):
        root = write_synth_dataset(tmp_path / "data", ["lamp"], count=1,
                                   seed=0, points_per_shape=64)
        (rec,) = load_split(root, "lamp").train
        parsed = []
        monkeypatch.setattr(pignet.data, "load_cloud",
                            lambda *args: parsed.append(args) or load_cloud(*args))
        cloud = rec.cloud
        assert rec.cloud is cloud and rec.labeled_cloud() is not cloud
        assert parsed == [(rec.points_path, rec.labels_path, "lamp")]
        assert not cloud.points.flags.writeable
        assert not cloud.labels.flags.writeable
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0
        expected = normalize(load_cloud(rec.points_path, rec.labels_path))
        assert rec.labeled_cloud().points.tobytes() == expected.points.tobytes()

    def test_split_disjointness_enforced(self, tmp_path):
        root = write_synth_dataset(tmp_path / "data", ["lamp"], count=2,
                                   seed=0, points_per_shape=64)
        # corrupt the manifests so one id appears in two splits
        cat = root / "lamp"
        (cat / "val.txt").write_text("lamp_0000\n")
        with pytest.raises(DataError):
            load_split(root, "lamp")

    def test_missing_file_named(self, tmp_path):
        root = write_synth_dataset(tmp_path / "data", ["lamp"], count=1,
                                   seed=0, points_per_shape=64)
        victim = root / "lamp" / "points" / "lamp_0000.pts"
        victim.unlink()
        with pytest.raises(DataError) as err:
            load_split(root, "lamp")
        assert "lamp_0000.pts" in str(err.value)

    def test_unknown_category_named(self, tmp_path):
        write_synth_dataset(tmp_path / "data", ["lamp"], count=1, seed=0,
                            points_per_shape=64)
        with pytest.raises(DataError) as err:
            load_split(tmp_path / "data", "chair")
        assert "chair" in str(err.value)
