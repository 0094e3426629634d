import hashlib
import importlib
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from pignet.errors import ConfigError, DataError, InputError
from pignet.layers import Module, PointwiseConv, max_over_points
from pignet.model import (ModelConfig, PigNet, PointNetBaseline, build_model,
                          config_hash, count_parameters, parameter_count,
                          segmentation_loss)
from pignet.seeding import make_rng
from pignet.tensor import (Tensor, backward, finite_diff_check, graph_order,
                           no_grad)
from pignet.training import AdamOptimizer, TrainConfig, _named_arrays


def tiny_config(**kwargs):
    base = dict(num_parts=3, inception_plan=(8, 16),
                tnet_conv_widths=(8, 16, 32), tnet_fc_widths=(16, 16),
                head_widths=(16, 16))
    base.update(kwargs)
    return ModelConfig(**base)


def construction_configs():
    """One configuration per structural switch, plus the comparator."""
    return [
        tiny_config(),
        tiny_config(use_inception=False),
        tiny_config(use_gap=False),
        tiny_config(feature_transform=False),
        tiny_config(feature_reduce=8),
        tiny_config(inception_plan=(8, 16, 24), head_widths=(16, 8)),
        ModelConfig(num_parts=5, arch="pointnet",
                    tnet_conv_widths=(8, 16), tnet_fc_widths=(16,),
                    head_widths=(16,), baseline_plan=(8, 8, 16, 16, 32)),
    ]


def cloud(n=16, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


class TestForward:
    def test_shape_contract(self):
        model = PigNet(tiny_config(), seed=0)
        logits, mat = model.forward(cloud(16))
        assert logits.shape == (16, 3)
        assert mat.shape == (48, 48)

    def test_duplicated_points_get_identical_logits(self):
        model = PigNet(tiny_config(), seed=1)
        pts = cloud(10, seed=2)
        doubled = np.repeat(pts, 2, axis=0)
        logits, _ = model.forward(doubled)  # eval mode
        assert np.allclose(logits.data[0::2], logits.data[1::2], atol=1e-9)

    def test_permutation_oracle(self):
        model = PigNet(tiny_config(), seed=3)
        pts = cloud(24, seed=4)
        perm = np.random.default_rng(5).permutation(24)
        base, _ = model.forward(pts)
        shuffled, _ = model.forward(pts[perm])
        assert np.allclose(base.data[perm], shuffled.data, atol=1e-9)

    def test_non_finite_input_rejected(self):
        model = PigNet(tiny_config(), seed=6)
        bad = cloud(8)
        bad[3, 1] = np.nan
        with pytest.raises(InputError):
            model.forward(bad)

    def test_empty_cloud_rejected(self):
        model = PigNet(tiny_config(), seed=6)
        with pytest.raises(InputError):
            model.forward(np.zeros((0, 3)))

    def test_batch_matches_singles_in_eval(self):
        model = PigNet(tiny_config(), seed=7)
        batch = np.stack([cloud(12, seed=i) for i in range(3)])
        batched, _ = model.forward(batch)
        for i in range(3):
            single, _ = model.forward(batch[i])
            assert np.allclose(batched.data[i], single.data, atol=1e-9)

    def test_gap_off_uses_point_max(self):
        captured_gap, captured_max = {}, {}
        gap_model = build_model(tiny_config(), seed=8)
        max_model = build_model(tiny_config(use_gap=False), seed=8)
        pts = cloud(10, seed=9)
        gap_model.forward(pts, capture=captured_gap)
        max_model.forward(pts, capture=captured_max)
        # identical parameters, so the aligned features agree and the global
        # branch of the max variant equals a point-axis max of them
        local = captured_max["local_features"]
        expected = max_over_points(local).data
        assert np.array_equal(captured_max["global_feature"].data, expected)
        assert np.allclose(captured_gap["local_features"].data, local.data)
        assert not np.array_equal(captured_gap["global_feature"].data, expected)

    def test_feature_transform_off_returns_none(self):
        model = build_model(tiny_config(feature_transform=False), seed=10)
        logits, mat = model.forward(cloud(8))
        assert logits.shape == (8, 3)
        assert mat is None


def _pointnet_config(**kwargs):
    return ModelConfig(num_parts=5, arch="pointnet", tnet_conv_widths=(8, 16),
                       tnet_fc_widths=(16,), head_widths=(16,),
                       baseline_plan=(8, 8, 16, 16, 32), **kwargs)


# (config, shapes captured for one 10-point cloud without the batch axis,
# logits shape of that cloud); a None shape is a captured None
SKELETON = [
    (tiny_config(),
     dict(aligned_input=(10, 3), input_matrix=(3, 3), local_features=(10, 48),
          global_feature=(48,), combined=(10, 96), feature_matrix=(48, 48)),
     (10, 3)),
    (tiny_config(feature_reduce=8, use_gap=False),
     dict(aligned_input=(10, 3), input_matrix=(3, 3), local_features=(10, 8),
          global_feature=(8,), combined=(10, 16), feature_matrix=(8, 8)),
     (10, 3)),
    (tiny_config(feature_transform=False, use_inception=False),
     dict(aligned_input=(10, 3), input_matrix=(3, 3), local_features=(10, 16),
          global_feature=(16,), combined=(10, 32), feature_matrix=None),
     (10, 3)),
    (_pointnet_config(),
     dict(aligned_input=(10, 3), input_matrix=(3, 3), local_features=(10, 16),
          global_feature=(32,), combined=(10, 48)),
     (10, 5)),
    (_pointnet_config(baseline_local_index=0),
     dict(aligned_input=(10, 3), input_matrix=(3, 3), local_features=(10, 8),
          global_feature=(32,), combined=(10, 40)),
     (10, 5)),
]


class TestSkeleton:
    """What both networks promise around their shared build and head."""

    def test_wrong_arch_rejected(self):
        with pytest.raises(ConfigError) as err:
            PigNet(_pointnet_config())
        assert str(err.value) == "PigNet cannot be built from arch 'pointnet'"
        with pytest.raises(ConfigError) as err:
            PointNetBaseline(tiny_config())
        assert (str(err.value)
                == "PointNetBaseline cannot be built from arch 'pignet'")

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("batch", [None, 2], ids=["single", "batch"])
    @pytest.mark.parametrize("case", range(len(SKELETON)))
    def test_capture_keys_and_shapes(self, case, batch, training):
        config, per_cloud, logits_shape = SKELETON[case]
        model = build_model(config, seed=0)
        pts = (cloud(10) if batch is None
               else np.stack([cloud(10, seed=i) for i in range(batch)]))
        captured = {}
        logits, mat = model.forward(pts, training=training, capture=captured)
        lead = () if batch is None else (batch,)
        got = {k: None if v is None else v.shape for k, v in captured.items()}
        assert got == {k: None if s is None else lead + s
                       for k, s in per_cloud.items()}
        assert logits.shape == lead + logits_shape
        feature_shape = per_cloud.get("feature_matrix")
        if feature_shape is None:
            assert mat is None
        else:
            assert mat.shape == lead + feature_shape
        assert ("feature_matrix" in captured) == (config.arch == "pignet")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("case", [0, 3], ids=["pignet", "pointnet"])
    def test_cloud_gives_the_bytes_of_a_batch_of_one(self, case, training,
                                                     dtype):
        """Outputs, captured tensors, gradients and batch-norm state of a
        cloud equal, byte for byte, those of the cloud as a batch of one."""
        config = replace(SKELETON[case][0], dtype=dtype)
        pts = cloud(10)
        runs = []
        for points in (pts, pts[None]):
            lead = points.ndim - 2
            model = build_model(config, seed=0)
            captured = {}
            logits, mat = model.forward(points, training=training,
                                        capture=captured)
            backward(segmentation_loss(logits, np.arange(10) % 3, mat,
                                       config.lambda_reg))
            outputs = dict(captured, logits=logits, returned_matrix=mat)
            assert all(v.shape[:lead] == (1,) * lead
                       for v in outputs.values() if v is not None)
            runs.append((
                {k: None if v is None else (v.shape[lead:], v.data.tobytes())
                 for k, v in outputs.items()},
                [(n, p.grad.tobytes()) for n, p in model.named_parameters()],
                [(n, a.tobytes()) for n, a in model.named_state()]))
        assert runs[0] == runs[1]


class TestLoss:
    def test_uniform_logits_give_log_p(self):
        logits = Tensor(np.zeros((5, 4)))
        loss = segmentation_loss(logits, np.zeros(5, dtype=int))
        assert np.isclose(loss.item(), math.log(4.0))

    def test_confident_correct_is_near_zero(self):
        logits = np.full((6, 3), -20.0)
        labels = np.array([0, 1, 2, 0, 1, 2])
        logits[np.arange(6), labels] = 20.0
        loss = segmentation_loss(Tensor(logits), labels)
        assert loss.item() < 1e-6

    def test_hand_softmax_value(self):
        # -ln(e / (e + 1)) at both points
        loss = segmentation_loss(Tensor([[1.0, 0.0], [0.0, 1.0]]),
                                 np.array([0, 1]))
        assert np.isclose(loss.item(), 0.313262, atol=1e-6)

    def test_out_of_range_label_names_point(self):
        with pytest.raises(DataError) as err:
            segmentation_loss(Tensor(np.zeros((4, 2))),
                              np.array([0, 1, 5, 1]))
        assert "point 2" in str(err.value)
        assert "5" in str(err.value)

    def test_regularizer_added(self):
        logits = Tensor(np.zeros((3, 2)))
        labels = np.zeros(3, dtype=int)
        mat = Tensor(2.0 * np.eye(2))
        plain = segmentation_loss(logits, labels)
        reg = segmentation_loss(logits, labels, mat, lambda_reg=0.5)
        assert np.isclose(reg.item() - plain.item(), 0.5 * 18.0)

    def test_loss_nonnegative_and_bounded_by_log_p(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            logits = Tensor(rng.normal(size=(7, 3)))
            labels = rng.integers(0, 3, 7)
            value = segmentation_loss(logits, labels).item()
            assert value >= 0.0
        uniform = segmentation_loss(Tensor(np.zeros((7, 3))),
                                    np.zeros(7, dtype=int)).item()
        assert np.isclose(uniform, math.log(3.0))


# SHA-256 of the loss bytes and of the gradient bytes of the logits and the
# feature matrix, for a fixed (B, n, P) batch with the regularizer on; a
# change here means a seeded training run no longer replays
LOSS_GOLDEN = {
    "float32": (
        "f7e1156a959c81f7fb4f89eb5968ba4165b184265b7b6c076dca8e1387234959",
        "92cabe192e085de5d412ad5baa68b780954140f4c378eedb5ca5fd712746cc95",
        "6b927f028064c8e92bfe971c9564aa598cebf8342666361fe2a90564a8f583bb"),
    "float64": (
        "5bbaac495741bac2c5dc291a6bad01dd5f52745ca7669d29632cf939ca002fb4",
        "91ba0d4a05b35566f21da743ccc44bc4f475faab9d435a714fd655f1e1ea2cde",
        "ff0b99b0e7c8861a96d0d9776faa3bbc43ce8cc4c4c5ad1c3430436eec38efc2"),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loss_and_gradient_golden(dtype):
    rng = np.random.default_rng(41)
    logits = Tensor(rng.normal(scale=3.0, size=(3, 17, 5)).astype(dtype),
                    requires_grad=True)
    mat = Tensor((np.eye(4) + 0.2 * rng.normal(size=(3, 4, 4))).astype(dtype),
                 requires_grad=True)
    labels = rng.integers(0, 5, size=(3, 17))
    loss = segmentation_loss(logits, labels, mat, lambda_reg=0.01)
    backward(loss)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (loss.data, logits.grad, mat.grad))
    assert loss.dtype == logits.grad.dtype == mat.grad.dtype == dtype
    assert got == LOSS_GOLDEN[dtype]


def _gradient_configs(dtype):
    return {
        "inception-reduce-tnet": tiny_config(feature_reduce=8, dtype=dtype),
        "no-inception-no-gap": tiny_config(use_inception=False, use_gap=False,
                                           dtype=dtype),
        "pointnet": _pointnet_config(dtype=dtype),
    }


# SHA-256 over each parameter's name and .grad bytes, in named_parameters
# order, after one train-mode backward of the loss with the regularizer on
PARAMETER_GRADIENT_GOLDEN = {
    ("inception-reduce-tnet", "float32"):
        "69eba80871db6e423c31bd998ed71c0d00cf99fc5c733c7171ea1b7bb2543989",
    ("inception-reduce-tnet", "float64"):
        "dc3d88af86e0234bdd1af65eda49228ef423785c6cc3f60b423fbeb63384e2ca",
    ("no-inception-no-gap", "float32"):
        "11b1e3d3be4b2d677c2d2b6c2e6ec9a8c643e537a89528b7d9d5cc8c602fee30",
    ("no-inception-no-gap", "float64"):
        "0b184a9933e47709438b333fc64af65c9aa35d4afabbfa043b103023ecccba87",
    ("pointnet", "float32"):
        "ed9152fd21230861cca7fd925a6c7ae85d7e3fbe19fab4843913ec99517ceb7c",
    ("pointnet", "float64"):
        "882158ea02c6a511ee880397cfa61f5b64df4ca82b4925fb73618d064ed6e185",
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["inception-reduce-tnet",
                                  "no-inception-no-gap", "pointnet"])
def test_parameter_gradient_golden(name, dtype):
    config = _gradient_configs(dtype)[name]
    assert config.lambda_reg > 0
    model = build_model(config, seed=0)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(2, 24, 3)).astype(dtype)
    labels = rng.integers(0, config.num_parts, size=(2, 24))
    logits, mat = model.forward(batch, training=True)
    backward(segmentation_loss(logits, labels, mat, config.lambda_reg))
    digest = hashlib.sha256()
    for pname, p in model.named_parameters():
        assert p.grad is not None and p.grad.dtype == dtype, pname
        digest.update(pname.encode())
        digest.update(np.ascontiguousarray(p.grad).tobytes())
    assert digest.hexdigest() == PARAMETER_GRADIENT_GOLDEN[name, dtype]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["inception-reduce-tnet",
                                  "no-inception-no-gap", "pointnet"])
def test_rules_read_their_inputs_when_backward_runs(name, dtype):
    # a no_grad eval forward on another batch, run between the recorded
    # forward and its backward, leaves every gradient's bytes as they were
    def gradients(eval_between):
        config = _gradient_configs(dtype)[name]
        model = build_model(config, seed=0)
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(2, 24, 3)).astype(dtype)
        labels = rng.integers(0, config.num_parts, size=(2, 24))
        logits, mat = model.forward(batch, training=True)
        loss = segmentation_loss(logits, labels, mat, config.lambda_reg)
        if eval_between:
            other = rng.normal(size=(3, 40, 3)).astype(dtype)
            with no_grad():
                model.forward(other, training=False)
        backward(loss)
        return [(pname, p.grad.tobytes())
                for pname, p in model.named_parameters()]

    assert gradients(True) == gradients(False)


def _move_batch_norms(model, rng):
    """Running statistics and gamma/beta away from their 0/1 starts."""
    for name, p in model.named_parameters():
        if name.endswith(("gamma", "beta")):
            p.data[:] = rng.normal(name.endswith("gamma"), 0.3, p.shape)
    for name, arr in model.named_state():
        if name.endswith("running_mean"):
            arr[:] = rng.normal(0.0, 0.5, arr.shape)
        else:
            arr[:] = rng.uniform(0.3, 3.0, arr.shape)


def _overfit_config(arch="pignet"):
    """The float32 acceptance overfit configuration, or the comparator."""
    if arch == "pointnet":
        return ModelConfig(num_parts=3, arch="pointnet", dtype="float32")
    return ModelConfig(num_parts=3, inception_plan=(8, 16, 24),
                       dtype="float32")


# SHA-256 over the running statistics after one no_grad train-mode forward,
# then the logits, for tiny_config(feature_reduce=8) and _pointnet_config()
NO_GRAD_TRAIN_STATE_GOLDEN = (
    "0ed0b4c4b4f0e5b12a3159c0bab8745371e8cf4f499d2348b6b4e41740288bea",
    "06c58ef12435a255670ea3da829507aaa2ce544951c811437a5bae86ba161c13",
)


class TestRungExecution:
    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("arch", ["pignet", "pointnet"])
    def test_in_place_eval_matches_recorded_forward(self, arch, n):
        model = build_model(_overfit_config(arch), seed=0)
        rng = np.random.default_rng(n)
        _move_batch_norms(model, rng)
        pts = rng.normal(size=(n, 3))
        recorded, _ = model.forward(pts, training=False)
        with no_grad():
            plain, _ = model.forward(pts, training=False)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_training_step_records_one_node_per_rung(self):
        # 81 recorded nodes and 80 leaves; each T-Net's widest rung and its
        # max over points are one node
        config = _overfit_config()
        model = build_model(config, seed=0)
        rng = np.random.default_rng(0)
        logits, mat = model.forward(rng.normal(size=(8, 256, 3)),
                                    training=True)
        loss = segmentation_loss(logits, rng.integers(0, 3, size=(8, 256)),
                                 mat, config.lambda_reg)
        order = graph_order(loss)
        assert len(order) == 161
        ops = [node._op for node in order]
        assert ops.count("batch_norm_relu") == 19 and "batch_norm" not in ops
        assert ops.count("pooled_rung") == 2 and "max" not in ops
        assert ops.count("relu") == 4  # the T-Nets' fully connected layers

    @pytest.mark.parametrize("name,pooled", [
        ("pignet", 2), ("pointnet", 2), ("pointnet-last-local", 1)])
    def test_pooled_rungs_give_the_bytes_of_the_plain_path(self, monkeypatch,
                                                           name, pooled):
        # each T-Net's widest rung is pooled, and PointNet's last conv rung
        # too unless the head reads it as its local features
        config = {"pignet": tiny_config(feature_reduce=8, dtype="float32"),
                  "pointnet": _pointnet_config(dtype="float32"),
                  "pointnet-last-local": _pointnet_config(
                      baseline_local_index=4, dtype="float32")}[name]

        def step():
            model = build_model(config, seed=0)
            rng = np.random.default_rng(9)
            logits, mat = model.forward(rng.normal(size=(2, 24, 3)),
                                        training=True)
            loss = segmentation_loss(
                logits, rng.integers(0, config.num_parts, size=(2, 24)), mat,
                config.lambda_reg)
            ops = [node._op for node in graph_order(loss)]
            backward(loss)
            return ops.count("pooled_rung"), [a.tobytes() for a in (
                logits.data, *(p.grad for _, p in model.named_parameters()),
                *(a for _, a in model.named_state()))]

        count, got = step()
        monkeypatch.setattr(Module, "_pooled_rung", lambda self, key, x:
                            max_over_points(self._rung(key, x, True)))
        assert count == pooled and step() == (0, got)

    @pytest.mark.parametrize("arch", ["pignet", "pointnet"])
    def test_eval_and_no_grad_keep_the_rung_then_the_max(self, monkeypatch,
                                                         arch):
        def refuse(*args):
            raise AssertionError("pooled rung outside a recorded training")

        model = build_model(_overfit_config(arch), seed=0)
        monkeypatch.setattr(Module, "_pooled_rung", refuse)
        batch = np.random.default_rng(11).normal(size=(2, 24, 3))
        logits, _ = model.forward(batch, training=False)
        assert "max" in {node._op for node in graph_order(logits)}
        with no_grad():
            model.forward(batch, training=True)

    def test_tnets_without_rungs_train(self):
        # a T-Net with no conv rungs pools its input as it is
        config = tiny_config(tnet_conv_widths=())
        model = build_model(config, seed=0)
        optimizer = AdamOptimizer.for_model(model, TrainConfig(epochs=1))
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        rng = np.random.default_rng(10)
        logits, mat = model.forward(rng.normal(size=(2, 24, 3)),
                                    training=True)
        loss = segmentation_loss(logits, rng.integers(0, 3, size=(2, 24)),
                                 mat, config.lambda_reg)
        ops = [node._op for node in graph_order(loss)]
        # the input T-Net's max of the points, a constant, records nothing
        assert "pooled_rung" not in ops and ops.count("max") == 1
        backward(loss)
        optimizer.step()
        for name, p in model.named_parameters():
            assert np.isfinite(p.data).all(), name
        for name in ("input_tnet/out/weight", "feature_tnet/out/weight"):
            changed = dict(model.named_parameters())[name].data != before[name]
            assert changed.any(), name

    def test_backward_frees_the_recorded_graph(self):
        model = build_model(tiny_config(), seed=0)
        rng = np.random.default_rng(0)
        logits, mat = model.forward(rng.normal(size=(2, 24, 3)),
                                    training=True)
        loss = segmentation_loss(logits, rng.integers(0, 3, size=(2, 24)),
                                 mat, 0.001)
        order = graph_order(loss)
        recorded = [node for node in order if node._parents]
        leaves = [node for node in order
                  if not node._parents and node.requires_grad]
        backward(loss)
        assert recorded and leaves
        for node in recorded:
            assert node.grad is None and node._backward_fn is None
            assert node._parents == () and node._backward_ran
        assert all(leaf.grad is not None for leaf in leaves)
        assert {id(p) for _, p in model.named_parameters()} <= \
            {id(leaf) for leaf in leaves}

    def test_no_grad_train_forward_updates_running_statistics(self):
        for config, expected in zip((tiny_config(feature_reduce=8),
                                     _pointnet_config()),
                                    NO_GRAD_TRAIN_STATE_GOLDEN):
            model = build_model(config, seed=0)
            batch = np.random.default_rng(8).normal(size=(2, 24, 3))
            with no_grad():
                logits, _ = model.forward(batch, training=True)
            assert not logits.requires_grad
            digest = hashlib.sha256()
            for name, arr in model.named_state():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(logits.data.tobytes())
            assert digest.hexdigest() == expected, config.arch


class TestPredict:
    def test_argmax(self):
        model = PigNet(tiny_config(), seed=12)
        pred = model.predict(cloud(10, seed=13))
        logits, _ = model.forward(cloud(10, seed=13))
        assert np.array_equal(pred, logits.data.argmax(axis=1))

    def test_tie_breaks_to_lower_id(self):
        assert np.argmax(np.array([0.5, 0.5])) == 0

    def test_argmax_invariant_to_per_point_shift(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(20, 3))
        shifted = logits + rng.normal(size=(20, 1))
        assert np.array_equal(logits.argmax(axis=1), shifted.argmax(axis=1))


class TestBaseline:
    def config(self):
        return ModelConfig(num_parts=3, arch="pointnet",
                           tnet_conv_widths=(8, 16, 32),
                           tnet_fc_widths=(16, 16), head_widths=(16, 16),
                           baseline_plan=(8, 8, 8, 16, 32))

    def test_shape_contract(self):
        model = PointNetBaseline(self.config(), seed=0)
        logits, mat = model.forward(cloud(16))
        assert logits.shape == (16, 3)
        assert mat is None

    def test_permutation_equivariance(self):
        model = PointNetBaseline(self.config(), seed=1)
        pts = cloud(20, seed=2)
        perm = np.random.default_rng(3).permutation(20)
        base, _ = model.forward(pts)
        shuffled, _ = model.forward(pts[perm])
        assert np.allclose(base.data[perm], shuffled.data, atol=1e-9)

    def test_full_width_parameter_count_reported(self):
        config = ModelConfig(num_parts=4, arch="pointnet")
        count = parameter_count(config)
        # documented comparison: the compact comparator has no feature
        # transform block, so it lands well under the 3.5M reference budget
        assert 1_000_000 < count < 3_500_000
        print(f"pointnet comparator parameters: {count} (reference 3.5M)")


class TestParameterCounts:
    def test_single_conv_hand_count(self):
        conv = PointwiseConv(3, 4, make_rng(0))
        assert sum(p.data.size for _, p in conv.named_parameters()) == 16

    def test_closed_form_matches_construction(self):
        for config in construction_configs() + [
                tiny_config(use_inception=False, feature_reduce=8),
                tiny_config(feature_transform=False, use_gap=False,
                            feature_reduce=8),
                _pointnet_config(baseline_local_index=0)]:
            model = build_model(config, seed=0)
            assert count_parameters(model) == parameter_count(config)

    def test_tiny_config_closed_form_hand_count(self):
        # conv+BN blocks count in*out weights plus 2*out for gamma/beta;
        # fully connected layers count in*out + out for the bias.
        input_tnet = ((3 * 8 + 16) + (8 * 16 + 32) + (16 * 32 + 64)  # convs
                      + (32 * 16 + 16) + (16 * 16 + 16)              # fcs
                      + (16 * 9 + 9))                                # affine out
        stack_layer1 = ((3 * 8 + 16) + 2 * (8 * 4 + 8) + (8 * 8 + 16))
        stack_layer2 = ((24 * 16 + 32) + 2 * (16 * 8 + 16) + (16 * 16 + 32))
        feature_tnet = ((48 * 8 + 16) + (8 * 16 + 32) + (16 * 32 + 64)
                        + (32 * 16 + 16) + (16 * 16 + 16)
                        + (16 * 48 * 48 + 48 * 48))
        head = (96 * 16 + 32) + (16 * 16 + 32) + (16 * 3 + 3)
        expected = input_tnet + stack_layer1 + stack_layer2 + feature_tnet + head
        assert expected == 45932
        assert parameter_count(tiny_config()) == expected

    def test_default_config_count_reported(self):
        config = ModelConfig(num_parts=4)
        count = parameter_count(config)
        # the 2.9M reference budget is unreachable with a feature transform
        # over the full 1536-wide map; the gap is documented in the README
        assert count > 2_900_000
        print(f"default pignet parameters: {count} (reference 2.9M)")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_parts=1)
        with pytest.raises(ConfigError):
            ModelConfig(num_parts=3, inception_plan=(7,))
        with pytest.raises(ConfigError):
            ModelConfig(num_parts=3, lambda_reg=-0.1)
        for value in (True, "0.1", None):
            with pytest.raises(ConfigError,
                               match="lambda_reg must be a real number, got"):
                ModelConfig(num_parts=3, lambda_reg=value)
        with pytest.raises(ConfigError):
            ModelConfig(num_parts=3, dtype="float16")
        for value in ([], {}):
            with pytest.raises(ConfigError) as err:
                ModelConfig(num_parts=3, dtype=value)
            assert str(err.value) == (
                f"dtype must be float32 or float64, got {value}")
        with pytest.raises(ConfigError):
            ModelConfig(num_parts=3, arch="transformer")
        with pytest.raises(ConfigError,
                           match="feature_reduce must be positive, got 0"):
            ModelConfig(num_parts=3, feature_reduce=0)
        with pytest.raises(ConfigError,
                           match="head_widths must be an integer, got 4.5"):
            ModelConfig(num_parts=3, head_widths=(4.5,))
        with pytest.raises(ConfigError, match="head_widths must be a sequence"):
            ModelConfig(num_parts=3, head_widths=5)
        with pytest.raises(ConfigError,
                           match="inception_plan must not be empty"):
            ModelConfig(num_parts=3, inception_plan=())
        for name, value in (("use_inception", "false"), ("use_gap", None),
                            ("feature_transform", 0.0)):
            with pytest.raises(ConfigError,
                               match=f"{name} must be true or false"):
                ModelConfig(num_parts=3, **{name: value})
        # operator.index(True) is 1, but a switch is no size
        for name, value in (("feature_reduce", True), ("num_parts", True),
                            ("head_widths", (True, 4)),
                            ("baseline_local_index", False)):
            with pytest.raises(ConfigError,
                               match=f"{name} must be an integer, got"):
                ModelConfig(**{"num_parts": 3, name: value})

    def test_hash_distinguishes_configs(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config(inception_plan=(8, 32)))
        assert a != b
        assert a == config_hash(tiny_config())

    def test_same_seed_same_init(self):
        a = PigNet(tiny_config(), seed=5)
        b = PigNet(tiny_config(), seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_float32_build(self):
        model = PigNet(tiny_config(dtype="float32"), seed=0)
        logits, _ = model.forward(cloud(8).astype(np.float32))
        assert logits.dtype == np.float32


class TestFullModelGradient:
    def test_reduced_width_finite_difference(self):
        config = ModelConfig(num_parts=3, inception_plan=(4, 4),
                             tnet_conv_widths=(4, 8), tnet_fc_widths=(8,),
                             head_widths=(8,), lambda_reg=0.001)
        model = PigNet(config, seed=2)
        pts = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 1])
        params = [p for _, p in model.named_parameters()]

        def f():
            logits, mat = model.forward(pts, training=True)
            return segmentation_loss(logits, labels, mat, config.lambda_reg)

        assert finite_diff_check(f, params) < 1e-3


def _layout_and_init_digest(model):
    """SHA-256 over the ordered checkpoint names, shapes and initial values."""
    optimizer = AdamOptimizer.for_model(model, TrainConfig(epochs=1))
    digest = hashlib.sha256()
    for name, arr in _named_arrays(model, optimizer):
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def _train_logits_digest(model):
    batch = np.random.default_rng(0).normal(size=(2, 32, 3))
    logits, _ = model.forward(batch, training=True)
    data = np.ascontiguousarray(logits.data, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()


# (layout and init digest, train-mode logits digest) per configuration of
# construction_configs() followed by tiny_config(dtype="float32"); a change
# here means old checkpoints no longer load or a seed no longer replays
GOLDEN_DIGESTS = [
    ("959ffbdc65ae9ec42195d68bd9833689c5275b406710804a4487cff66cec246a",
     "b18d425e9c3e147e0bb2406a119dc8cb9d47542130f91a74e7accc84466f70d9"),
    ("9d2574fe98b081e412282c95590804ec16e34b69d162544b0b29391bdb84fe92",
     "01d03028d3b557b4d7070077afd4ebc984a1324f1bc67a6638c85917b52e8858"),
    ("959ffbdc65ae9ec42195d68bd9833689c5275b406710804a4487cff66cec246a",
     "924060949b60abd7ff47640720340461cfce8013295d4e4ee593d4b64f4e25dd"),
    ("14a5b13aba647a1703d0cfc481eb02de76ab03fbb2ae912de8d0f7a9b8e4381d",
     "ec7c6bfc3df9097e9c7fa9f53f568833548fc60222915dc73a5b4ac3e1d4f990"),
    ("c245747a8050871ce53be7d5bf4cd3643850da88d8c8a7eb85099097ac42cc28",
     "0f390f9899c96542167c828e77c202261b5c0780a5e1dcc51c7f22e38505085b"),
    ("738fd86103c0048a5abecad0719307ff7ed1bde9671d90f8ae23f2180df3d30a",
     "b4ce2b3c6019405ec957319f9c4de6d740d32a9f7102ca0c6a9ac287cae9485c"),
    ("aed89538a9d86ebe083423c25bcaa2c7a398ce8aaa9c068443173b0c6d8b64d7",
     "d8a3f5ee9131ec70add8f0f92f50475402638aa7ec8d4dc9bb11a908cdfe318e"),
    ("a474aebe48b8add3fef9dad7d412790cfe51baf782c934a4b4b5760f644b63f8",
     "17c5c7919693eb8dd5f6f7c0c4203038deb093430f59363411a43bf7be539072"),
]


def test_checkpoint_layout_and_init_golden():
    configs = construction_configs() + [tiny_config(dtype="float32")]
    assert len(configs) == len(GOLDEN_DIGESTS)
    for config, expected in zip(configs, GOLDEN_DIGESTS):
        model = build_model(config, seed=0)
        got = (_layout_and_init_digest(model), _train_logits_digest(model))
        assert got == expected, config


def test_benchmark_hooks_resolve(monkeypatch):
    # bench/spans.py wraps methods found in each class's own __dict__, and
    # bench/ reads these attributes of a built model
    import pignet
    from pignet.layers import TNet
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    align = TNet.__dict__["align"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert TNet.__dict__["align"] is not align
    finally:
        tracer.uninstall()
    assert TNet.__dict__["align"] is align
    assert pignet.build_model is build_model
    model = build_model(tiny_config(), seed=0)
    assert model.head_out.weight.shape == (16, 3)
    assert model.input_tnet.out.weight.shape == (16, 9)
    assert model.input_tnet.k == 3
    assert model.feature_tnet.k == 48
