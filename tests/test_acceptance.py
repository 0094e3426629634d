"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The overfit fixture
trains two small float32 models for 300 epochs (a few minutes on one core);
gradient, determinism and checkpoint criteria run at float64.
"""

import itertools
import time
from dataclasses import asdict

import numpy as np
import pytest

from pignet.data import (AugmentConfig, load_cloud, load_split, normalize,
                         sample_points, write_synth_dataset)
from pignet.errors import FormatError
from pignet.evaluation import (ablation_run, ablation_variants,
                               aggregate_miou, evaluate_split, robustness_run,
                               shape_miou)
from pignet.inception import InceptionLayer, InceptionStack
from pignet.layers import (BatchNorm, PointwiseConv, TNet, channel_window_max,
                           global_average_pool, orthogonality_regularizer)
from pignet.model import (ModelConfig, PigNet, build_model, count_parameters,
                          parameter_count, segmentation_loss)
from pignet.seeding import EVAL, make_rng
from pignet.tensor import (Tensor, finite_diff_check, matmul, reduce_max,
                           reduce_mean, reduce_sum, relu)
from pignet.training import (TrainConfig, load_checkpoint, parameter_hash,
                             save_checkpoint, train_category)


def verdict(number, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale artifacts
# ---------------------------------------------------------------------------

OVERFIT_CATEGORIES = ("lamp", "rocket")
OVERFIT_POINTS = 256


def overfit_model_config():
    return ModelConfig(num_parts=3, inception_plan=(8, 16, 24),
                       dtype="float32")


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    return write_synth_dataset(
        tmp_path_factory.mktemp("acceptance") / "synth", OVERFIT_CATEGORIES,
        count=8, seed=7, points_per_shape=2048)


@pytest.fixture(scope="module")
def overfit(synth_root):
    """Criterion 5 training run, shared with criterion 7."""
    start = time.perf_counter()
    trained = {}
    for category in OVERFIT_CATEGORIES:
        split = load_split(synth_root, category)
        result = train_category(split.train, overfit_model_config(),
                                TrainConfig(epochs=300, seed=7, batch_size=64),
                                AugmentConfig(), points=OVERFIT_POINTS)
        trained[category] = (split, result.model)
    elapsed = time.perf_counter() - start
    return trained, elapsed


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCriterion1Gradients:
    def test_layers_and_full_model(self):
        start = time.perf_counter()
        rng = np.random.default_rng(3)

        # isolated primitive ops: < 1e-6
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        primitive_errs = {
            "matmul": finite_diff_check(lambda: reduce_sum(matmul(a, b)), [a, b]),
            "relu": finite_diff_check(lambda: reduce_sum(relu(x)), [x]),
            "reduce_max": finite_diff_check(lambda: reduce_sum(reduce_max(x, 0)), [x]),
            "reduce_mean": finite_diff_check(lambda: reduce_sum(reduce_mean(x, 0)), [x]),
        }

        # every layer in isolation: < 1e-3
        layer_errs = {}
        conv = PointwiseConv(3, 4, make_rng(0))
        data = Tensor(rng.normal(size=(5, 3)))
        layer_errs["pointwise_conv"] = finite_diff_check(
            lambda: reduce_sum(conv(data)), [conv.weight, conv.bias])

        bn = BatchNorm(3)
        bn_in = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        bn_w = Tensor(rng.normal(size=(6, 3)))
        layer_errs["batch_norm"] = finite_diff_check(
            lambda: reduce_sum(bn(bn_in, training=True) * bn_w),
            [bn_in, bn.gamma, bn.beta])

        # channel values with gaps far above h, away from window-max ties
        separated = np.stack([rng.permutation(np.linspace(-1.5, 1.5, 7))
                              for _ in range(4)])
        cw_in = Tensor(separated, requires_grad=True)
        layer_errs["channel_window_max"] = finite_diff_check(
            lambda: reduce_sum(channel_window_max(cw_in)), [cw_in])

        gap_in = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        layer_errs["global_average_pool"] = finite_diff_check(
            lambda: reduce_sum(global_average_pool(gap_in)), [gap_in])

        tnet = TNet(2, make_rng(1), (4, 8), (8,))
        tnet_in = Tensor(rng.normal(size=(5, 2)))
        layer_errs["tnet"] = finite_diff_check(
            lambda: reduce_sum(tnet.align(tnet_in, training=True)[0]),
            [p for _, p in tnet.named_parameters()])

        mat = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        layer_errs["orthogonality_regularizer"] = finite_diff_check(
            lambda: orthogonality_regularizer(mat), [mat])

        inception = InceptionLayer(3, 4, make_rng(2))
        inc_in = Tensor(rng.normal(size=(5, 3)))
        layer_errs["inception_layer"] = finite_diff_check(
            lambda: reduce_sum(inception(inc_in, training=True)),
            [p for _, p in inception.named_parameters()])

        ce_in = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 6)
        layer_errs["cross_entropy"] = finite_diff_check(
            lambda: segmentation_loss(ce_in, labels), [ce_in])

        # the full reduced-width network: plan (8, 16), P=3, n=4, float64
        config = ModelConfig(num_parts=3, inception_plan=(8, 16),
                             tnet_conv_widths=(8, 16, 16),
                             tnet_fc_widths=(8, 4), head_widths=(8, 8),
                             lambda_reg=0.001)
        model = PigNet(config, seed=2)
        pts = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        point_labels = np.array([0, 1, 2, 1])
        params = [p for _, p in model.named_parameters()]

        def full_loss():
            logits, feature_mat = model.forward(pts, training=True)
            return segmentation_loss(logits, point_labels, feature_mat,
                                     config.lambda_reg)

        full_err = finite_diff_check(full_loss, params)
        elapsed = time.perf_counter() - start

        ok = (all(e < 1e-6 for e in primitive_errs.values())
              and all(e < 1e-3 for e in layer_errs.values())
              and full_err < 1e-3 and elapsed < 120.0)
        worst_layer = max(layer_errs, key=layer_errs.get)
        verdict(1, ok,
                f"isolated ops max err {max(primitive_errs.values()):.2e} "
                f"(< 1e-6), layers max err {layer_errs[worst_layer]:.2e} "
                f"({worst_layer}, < 1e-3), full {len(params)}-tensor model "
                f"err {full_err:.2e} (< 1e-3), {elapsed:.0f}s (< 120s)")


# ---------------------------------------------------------------------------
# 2. permutation equivariance (32-bit)
# ---------------------------------------------------------------------------

class TestCriterion2Equivariance:
    def test_fifty_random_clouds(self):
        start = time.perf_counter()
        config = ModelConfig(num_parts=3, inception_plan=(8, 16),
                             tnet_conv_widths=(8, 16, 32),
                             tnet_fc_widths=(16, 16), head_widths=(16, 16),
                             dtype="float32")
        model = PigNet(config, seed=4)
        rng = np.random.default_rng(5)
        worst_logits = 0.0
        worst_gap = 0.0
        for _ in range(50):
            pts = rng.normal(size=(64, 3)).astype(np.float32)
            perm = rng.permutation(64)
            cap_a, cap_b = {}, {}
            base, _ = model.forward(pts, capture=cap_a)
            shuffled, _ = model.forward(pts[perm], capture=cap_b)
            worst_logits = max(worst_logits,
                               np.abs(base.data[perm] - shuffled.data).max())
            worst_gap = max(worst_gap,
                            np.abs(cap_a["global_feature"].data
                                   - cap_b["global_feature"].data).max())
            feats = rng.normal(size=(64, 32)).astype(np.float32)
            worst_gap = max(worst_gap, np.abs(
                global_average_pool(Tensor(feats)).data
                - global_average_pool(Tensor(feats[perm])).data).max())
        elapsed = time.perf_counter() - start
        ok = worst_logits < 1e-5 and worst_gap < 1e-6 and elapsed < 60.0
        verdict(2, ok,
                f"50 clouds: logits deviation {worst_logits:.2e} (< 1e-5), "
                f"pooled-mean deviation {worst_gap:.2e} (< 1e-6), "
                f"{elapsed:.0f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. inception channel arithmetic
# ---------------------------------------------------------------------------

class TestCriterion3Channels:
    def test_widths(self):
        plans = {"3-layer": ((64, 128, 256), 768),
                 "4-layer": ((64, 128, 256, 512), 1536),
                 "5-layer": ((64, 128, 256, 512, 1024), 3072)}
        ok = True
        for plan, expected in plans.values():
            stack = InceptionStack(plan, make_rng(0))
            ok &= stack.out_channels == expected
            ok &= all(layer.out_channels == 3 * layer.e
                      for layer in stack.layers)
        checked = ", ".join(f"{name} -> {expected}"
                            for name, (_, expected) in plans.items())
        verdict(3, ok, f"every layer yields 3e channels; stacks {checked}")


# ---------------------------------------------------------------------------
# 4. mIoU oracle equivalence
# ---------------------------------------------------------------------------

def brute_force_miou(pred, gt, num_parts):
    confusion = [[0] * num_parts for _ in range(num_parts)]
    for p, g in zip(pred, gt):
        confusion[int(g)][int(p)] += 1
    total = 0.0
    for part in range(num_parts):
        tp = confusion[part][part]
        union = (sum(confusion[part])
                 + sum(confusion[r][part] for r in range(num_parts)) - tp)
        total += 1.0 if union == 0 else tp / union
    return total / num_parts


class TestCriterion4Miou:
    def test_oracle_equivalence(self):
        hand = shape_miou(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
        hand_ok = abs(hand - 0.583333) < 1e-6

        # exhaustive: every instance with n <= 12, P <= 3 factors through its
        # confusion matrix, and both implementations ignore point order
        exhaustive = 0
        exhaustive_ok = True
        for parts in (2, 3):
            cells = parts * parts
            for n in range(1, 13):
                for combo in itertools.combinations_with_replacement(
                        range(cells), n):
                    gt, pred = [], []
                    for cell in combo:
                        gt.append(cell // parts)
                        pred.append(cell % parts)
                    exhaustive += 1
                    exhaustive_ok &= (
                        shape_miou(np.array(pred), np.array(gt), parts)
                        == brute_force_miou(pred, gt, parts))
        # plus direct enumeration over ordered label pairs at small n
        for n in range(1, 5):
            for pred in itertools.product(range(3), repeat=n):
                for gt in itertools.product(range(3), repeat=n):
                    exhaustive += 1
                    exhaustive_ok &= (
                        shape_miou(np.array(pred), np.array(gt), 3)
                        == brute_force_miou(pred, gt, 3))

        rng = np.random.default_rng(6)
        random_ok = True
        for _ in range(100):
            n = rng.integers(100, 1000)
            parts = rng.integers(2, 8)
            pred = rng.integers(0, parts, n)
            gt = rng.integers(0, parts, n)
            random_ok &= (shape_miou(pred, gt, parts)
                          == brute_force_miou(pred, gt, parts))

        ok = hand_ok and exhaustive_ok and random_ok
        verdict(4, ok,
                f"hand case {hand:.6f} (0.583333), {exhaustive} exhaustive "
                f"instances and 100 random large instances match the "
                f"confusion-matrix oracle exactly")


# ---------------------------------------------------------------------------
# 5. desk-scale overfit
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCriterion5Overfit:
    def test_overfit_thresholds(self, overfit):
        trained, elapsed = overfit
        correct = 0
        total = 0
        shapes = []
        for category, (split, model) in trained.items():
            report = evaluate_split(model, split.train, seed=7,
                                    points=OVERFIT_POINTS)
            shapes.extend(report.shapes)
            for i, rec in enumerate(split.train):
                cloud = normalize(load_cloud(rec.points_path, rec.labels_path))
                sampled = sample_points(cloud, OVERFIT_POINTS, (7, EVAL, i))
                pred = model.predict(sampled.points)
                correct += int((pred == sampled.labels).sum())
                total += sampled.labels.size
        accuracy = correct / total
        instance, _ = aggregate_miou(shapes)
        ok = accuracy >= 0.98 and instance >= 0.95 and elapsed < 600.0
        verdict(5, ok,
                f"2 categories x 8 shapes, plan (8,16,24), 300 epochs, seed 7: "
                f"accuracy {accuracy:.4f} (>= 0.98), instance mIoU "
                f"{instance:.4f} (>= 0.95), {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 6. ablation harness
# ---------------------------------------------------------------------------

class TestCriterion6Ablation:
    def test_variant_grid(self, synth_root):
        split = load_split(synth_root, "lamp")
        base = ModelConfig(num_parts=3, inception_plan=(4, 8),
                           tnet_conv_widths=(4, 8, 16), tnet_fc_widths=(8, 8),
                           head_widths=(8, 8))
        rows = ablation_run(split.train, split.train, base,
                            TrainConfig(epochs=10, seed=11, batch_size=8),
                            AugmentConfig(), points=64)
        by_name = {r.name: r for r in rows}
        allowed = {"inception_plan", "use_inception", "use_gap"}
        base_dict = asdict(base)
        diffs_ok = all(
            {k for k, v in asdict(cfg).items() if base_dict[k] != v} <= allowed
            for _, cfg in ablation_variants(base))
        gap = by_name["inception2-gap"]
        maxpool = by_name["inception2-maxpool"]
        ok = (len(rows) == 5 and diffs_ok
              and gap.init_hash == maxpool.init_hash
              and gap.trained_hash != maxpool.trained_hash)
        verdict(6, ok,
                f"5 variants trained with one seed; diffs confined to "
                f"{sorted(allowed)}; GAP/max-pool share init hash "
                f"{gap.init_hash[:8]} and diverge after training")


# ---------------------------------------------------------------------------
# 7. robustness harness
# ---------------------------------------------------------------------------

class TestCriterion7Robustness:
    @pytest.mark.slow
    def test_grid(self, overfit, synth_root):
        trained, _ = overfit
        split, model = trained["lamp"]
        # comparator trained with the same recipe, shorter schedule (the
        # criterion's assertions ride on the grid structure and the
        # overfit model's cells)
        baseline_config = ModelConfig(num_parts=3, arch="pointnet",
                                      dtype="float32")
        baseline = train_category(split.train, baseline_config,
                                  TrainConfig(epochs=60, seed=7, batch_size=64),
                                  AugmentConfig(), points=OVERFIT_POINTS).model
        grids = robustness_run(model, baseline, split.train, seed=7)
        plain = evaluate_split(model, split.train, seed=7, points=1024)
        identity_cell = grids["pignet"][(1024, 0.0)]
        low_density = grids["pignet"][(128, 0.0)]
        ok = (set(grids) == {"pignet", "pointnet"}
              and all(len(g) == 20 for g in grids.values())
              and identity_cell == plain.instance_miou
              and low_density >= 0.5)
        verdict(7, ok,
                f"4x5 grids for both models; uncorrupted cell "
                f"{identity_cell:.6f} == plain evaluation "
                f"{plain.instance_miou:.6f} bit-exactly; density-128 mIoU "
                f"{low_density:.4f} (>= 0.5)")


# ---------------------------------------------------------------------------
# 8. determinism & persistence
# ---------------------------------------------------------------------------

class TestCriterion8Determinism:
    def test_replay_and_checkpoints(self, synth_root, tmp_path):
        split = load_split(synth_root, "lamp")
        config = ModelConfig(num_parts=3, inception_plan=(4, 8),
                             tnet_conv_widths=(4, 8, 16),
                             tnet_fc_widths=(8, 8), head_widths=(8, 8))
        train_config = TrainConfig(epochs=5, seed=13, batch_size=8)

        def run():
            return train_category(split.train, config, train_config,
                                  AugmentConfig(), points=64)

        first, second = run(), run()
        losses_a = [h["train_loss"] for h in first.history]
        losses_b = [h["train_loss"] for h in second.history]
        replay_ok = losses_a == losses_b  # exact float64 equality

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, first.model, first.optimizer, epoch=5,
                        rng_state=first.rng_state)
        pts = np.random.default_rng(14).normal(size=(128, 3))
        expected, _ = first.model.forward(pts)
        restored = build_model(config, seed=999)
        load_checkpoint(path, restored)
        roundtrip, _ = restored.forward(pts)
        roundtrip_ok = (roundtrip.data.tobytes() == expected.data.tobytes()
                        and np.array_equal(restored.predict(pts),
                                           first.model.predict(pts)))

        # corrupt the file and confirm a load rejects it without touching
        # the previously restored state
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 3])
        before = parameter_hash(restored)
        corrupt_ok = False
        try:
            load_checkpoint(path, restored)
        except FormatError:
            corrupt_ok = parameter_hash(restored) == before

        ok = replay_ok and roundtrip_ok and corrupt_ok
        verdict(8, ok,
                f"loss traces replay bit-exactly over {len(losses_a)} epochs; "
                f"save/load/predict round-trips bit-exactly; truncated "
                f"checkpoint rejected with state untouched")


# ---------------------------------------------------------------------------
# 9. complexity reporting
# ---------------------------------------------------------------------------

class TestCriterion9Complexity:
    def test_counts(self):
        tiny = ModelConfig(num_parts=3, inception_plan=(8, 16),
                           tnet_conv_widths=(8, 16, 32),
                           tnet_fc_widths=(16, 16), head_widths=(16, 16))
        # hand closed form for the tiny config (see test_model for the
        # itemized derivation)
        hand = 45932
        built = count_parameters(build_model(tiny, seed=0))
        closed = parameter_count(tiny)
        default_count = parameter_count(ModelConfig(num_parts=4))
        reduced_count = parameter_count(ModelConfig(num_parts=4,
                                                    feature_reduce=64))
        baseline_count = parameter_count(ModelConfig(num_parts=4,
                                                     arch="pointnet"))
        ok = built == hand == closed and default_count > 0
        verdict(9, ok,
                f"tiny config: built {built} == hand {hand} == closed form "
                f"{closed}; default config counts {default_count / 1e6:.1f}M "
                f"beside the 2.9M reference (feature transform on the full "
                f"1536-wide map; {reduced_count / 1e6:.1f}M with "
                f"feature_reduce=64); comparator counts "
                f"{baseline_count / 1e6:.1f}M beside 3.5M")
