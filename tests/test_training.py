import hashlib
import json
import os
import struct
import types

import numpy as np
import pytest

import pignet.training
from pignet.data import AugmentConfig, write_synth_dataset, load_split
from pignet.errors import (CompatibilityError, ConfigError, DataError,
                           DimensionError, DomainError, FormatError)
from pignet.evaluation import evaluate_split
from pignet.model import ModelConfig, build_model, config_hash
from pignet.seeding import make_rng
from pignet.tensor import Tensor
from pignet.training import (MAGIC, AdamOptimizer, TrainConfig,
                             load_checkpoint, model_from_checkpoint,
                             parameter_hash, read_checkpoint, save_checkpoint,
                             train_category)


def tiny_model_config(**kwargs):
    base = dict(num_parts=3, inception_plan=(4, 8),
                tnet_conv_widths=(4, 8, 16), tnet_fc_widths=(8, 8),
                head_widths=(8, 8), lambda_reg=0.001)
    base.update(kwargs)
    return ModelConfig(**base)


def quiet_augment():
    return AugmentConfig(rotate_up_axis=False, scale_range=(0.9, 1.1),
                         translate_range=(-0.05, 0.05), jitter_sigma=0.005)


@pytest.fixture
def lamp_split(tmp_path):
    root = write_synth_dataset(tmp_path / "data", ["lamp"], count=4, seed=0,
                               points_per_shape=128)
    return load_split(root, "lamp")


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamOptimizer([("p", p)], learning_rate=0.1)
        for step in range(6):
            p.grad = None if step % 2 else np.zeros(2)  # None reads as zero
            opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g*g the first update is
        # lr * g / (|g| + eps), i.e. 0.001 for p=1, g=0.5
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamOptimizer([("p", p)], learning_rate=0.001)
        p.grad = np.array([0.5])
        opt.step()
        expected = 1.0 - 0.001 * (0.5 / (0.5 + 1e-8))
        assert np.allclose(p.data, [expected], atol=1e-12)
        assert np.isclose(p.data[0], 0.999)

    def test_deterministic_trajectories(self):
        def run():
            rng = make_rng(42)
            p = Tensor(rng.normal(size=4), requires_grad=True)
            opt = AdamOptimizer([("p", p)], learning_rate=0.01)
            trace = []
            for step in range(20):
                p.grad = np.sin(p.data + step)
                opt.step()
                trace.append(p.data.copy())
            return np.stack(trace)

        assert run().tobytes() == run().tobytes()

    def test_gradient_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = AdamOptimizer([("p", p)])
        p.grad = np.zeros(4)
        with pytest.raises(DimensionError):
            opt.step()


class TestTrainCategory:
    def test_zero_learning_rate_keeps_parameters(self, lamp_split):
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=1, seed=1, batch_size=8,
                                learning_rate=0.0)
        before = parameter_hash(build_model(config, seed=1))
        result = train_category(lamp_split.train, config, train_cfg,
                                quiet_augment(), points=32)
        assert parameter_hash(result.model) == before
        assert len(result.history) == 1
        assert result.history[0]["train_loss"] > 0

    def test_loss_drops_after_some_epochs(self, lamp_split):
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=5, seed=2, batch_size=8)
        result = train_category(lamp_split.train, config, train_cfg,
                                quiet_augment(), points=32)
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_spent_state_not_kept(self, lamp_split):
        # each step frees its gradients after Adam, and batch norm updates
        # its running estimates in the arrays that checkpoints read and write
        model = build_model(tiny_model_config(), seed=2)
        state = [arr for _, arr in model.named_state()]
        result = train_category(lamp_split.train, tiny_model_config(),
                                TrainConfig(epochs=2, seed=2, batch_size=2),
                                quiet_augment(), points=32)
        assert all(p.grad is None for _, p in result.model.named_parameters())
        model.forward(np.random.default_rng(0).normal(size=(2, 8, 3)),
                      training=True)
        assert all(a is b for a, (_, b) in zip(state, model.named_state()))

    def test_determinism_bit_identical_loss_traces(self, lamp_split):
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=3, seed=3, batch_size=8)

        def run():
            result = train_category(lamp_split.train, config, train_cfg,
                                    quiet_augment(), points=32)
            return [h["train_loss"] for h in result.history]

        first, second = run(), run()
        assert first == second  # exact float equality

    def test_label_out_of_range_detected_before_training(self, lamp_split):
        config = tiny_model_config(num_parts=2)  # lamp labels reach 2
        train_cfg = TrainConfig(epochs=1, seed=4, batch_size=8)
        with pytest.raises(DataError):
            train_category(lamp_split.train, config, train_cfg, points=32)

    def test_record_clouds_untouched_by_training_and_evaluation(self,
                                                                lamp_split):
        records = lamp_split.train
        before = [(r.cloud.points.tobytes(), r.cloud.labels.tobytes())
                  for r in records]
        assert not any(r.cloud.points.flags.writeable
                       or r.cloud.labels.flags.writeable for r in records)
        result = train_category(records, tiny_model_config(),
                                TrainConfig(epochs=2, seed=4, batch_size=2),
                                quiet_augment(), points=32)
        evaluate_split(result.model, records, seed=4, points=32)
        assert [(r.cloud.points.tobytes(), r.cloud.labels.tobytes())
                for r in records] == before

    def test_empty_training_list_rejected(self):
        with pytest.raises(DataError):
            train_category([], tiny_model_config(),
                           TrainConfig(epochs=1, seed=0), points=32)

    def test_eventually_monotone_on_repeated_batch(self, lamp_split):
        # single shape, no augmentation: full-batch descent should be
        # non-increasing over any 20-epoch window after warmup
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=80, seed=5, batch_size=1)
        result = train_category(lamp_split.train[:1], config, train_cfg,
                                augment_config=None, points=32)
        losses = [h["train_loss"] for h in result.history]
        for end in range(60, 80):
            assert losses[end] <= losses[end - 20] + 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
    def test_non_finite_loss_stops_before_the_adam_step(self, lamp_split,
                                                         monkeypatch):
        # the first step moves every weight by about 1e300, so the second
        # batch's forward pass overflows
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=2, seed=1, batch_size=2,
                                learning_rate=1e300)
        steps = []
        real_step = AdamOptimizer.step
        monkeypatch.setattr(AdamOptimizer, "step",
                            lambda opt: steps.append(1) or real_step(opt))
        with pytest.raises(DomainError) as err:
            train_category(lamp_split.train, config, train_cfg,
                           quiet_augment(), points=32)
        assert str(err.value).startswith("loss is nan at epoch 0, batch 1; ")
        assert str(err.value).endswith(
            "first parameter with a non-finite gradient: input_tnet/conv0/weight")
        assert len(steps) == 1

    def test_validation_hook_recorded(self, lamp_split):
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=2, seed=6, batch_size=8)
        result = train_category(lamp_split.train, config, train_cfg,
                                points=32,
                                eval_fn=lambda model, epoch: 0.5 + epoch)
        assert [h["val_instance_miou"] for h in result.history] == [0.5, 1.5]


class TestCheckpoints:
    def train_briefly(self, split, seed=7):
        config = tiny_model_config()
        train_cfg = TrainConfig(epochs=2, seed=seed, batch_size=8)
        result = train_category(split.train, config, train_cfg,
                                quiet_augment(), points=32)
        return config, result

    def test_save_load_predict_bit_exact(self, lamp_split, tmp_path):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, result.optimizer, epoch=2,
                        rng_state=result.rng_state)
        pts = np.random.default_rng(0).normal(size=(40, 3))
        expected_logits, _ = result.model.forward(pts)
        restored = build_model(config, seed=99)  # different init
        epoch, rng_state = load_checkpoint(path, restored)
        assert epoch == 2
        assert rng_state == result.rng_state
        logits, _ = restored.forward(pts)
        assert logits.data.tobytes() == expected_logits.data.tobytes()
        assert np.array_equal(restored.predict(pts), result.model.predict(pts))

    def test_optimizer_moments_roundtrip(self, lamp_split, tmp_path):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, result.optimizer, epoch=2)
        fresh_model = build_model(config, seed=0)
        fresh_opt = AdamOptimizer.for_model(fresh_model, TrainConfig(epochs=1))
        load_checkpoint(path, fresh_model, fresh_opt)
        assert fresh_opt.step_count == result.optimizer.step_count
        for name in fresh_opt.m:
            assert np.array_equal(fresh_opt.m[name],
                                  result.optimizer.m[name])

    def test_truncated_file_rejected_without_side_effects(self, lamp_split,
                                                          tmp_path):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, result.optimizer, epoch=2)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        target = build_model(config, seed=123)
        before = parameter_hash(target)
        with pytest.raises(FormatError, match="truncated") as err:
            load_checkpoint(path, target)
        assert str(path) in str(err.value)
        assert parameter_hash(target) == before

    def test_bad_magic_rejected(self, tmp_path, lamp_split):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTAPIGN"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_config_mismatch_rejected(self, lamp_split, tmp_path):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model)
        other = build_model(tiny_model_config(inception_plan=(4, 16)), seed=0)
        with pytest.raises(CompatibilityError):
            load_checkpoint(path, other)

    def test_model_from_checkpoint_self_contained(self, lamp_split, tmp_path):
        config, result = self.train_briefly(lamp_split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model)
        restored = model_from_checkpoint(path)
        assert restored.config == config
        pts = np.random.default_rng(1).normal(size=(20, 3))
        assert np.array_equal(restored.predict(pts), result.model.predict(pts))

    def test_model_from_checkpoint_reads_file_once(self, tmp_path,
                                                   monkeypatch):
        import pignet.training as training
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_model_config(), seed=0))
        reads = []

        def counting_read(p):
            reads.append(p)
            return read_checkpoint(p)

        monkeypatch.setattr(training, "read_checkpoint", counting_read)
        model_from_checkpoint(path)
        assert reads == [path]


def _golden_float64_with_adam(path):
    """A float64 tiny model and its Adam state after one seeded step."""
    model = build_model(tiny_model_config(), seed=0)
    optimizer = AdamOptimizer.for_model(model, TrainConfig(epochs=1))
    rng = make_rng(0, 77)
    for _, p in optimizer.named_params:
        p.grad = rng.normal(size=p.data.shape)
    optimizer.step()
    save_checkpoint(path, model, optimizer, epoch=1,
                    rng_state=make_rng(0, 1).bit_generator.state)


def _golden_float32_without_adam(path):
    save_checkpoint(path, build_model(tiny_model_config(dtype="float32"),
                                      seed=0))


@pytest.mark.parametrize("write, digest", [
    (_golden_float64_with_adam,
     "ad7498dcb364b1679dc9f2f01c97f21724414d3e2c8c65c49889f45076ccabf8"),
    (_golden_float32_without_adam,
     "b954663af3daf6d8a330d7ef5dccd4d8016aa8fdc0528166c2b8772f2882bbac"),
], ids=["float64-adam", "float32-no-adam"])
def test_checkpoint_bytes_golden(tmp_path, write, digest):
    # pins the PIGNET01 layout byte for byte: header, metadata JSON, record
    # order, extents and little-endian float64 values
    path = tmp_path / "model.ckpt"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCheckpointLoadPath:
    @pytest.fixture
    def saved(self, tmp_path):
        model = build_model(tiny_model_config(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        return path, model

    def test_model_from_checkpoint_draws_no_init(self, saved, monkeypatch):
        import pignet.model

        def refuse(*entropy):
            raise AssertionError("an initial weight was drawn")

        monkeypatch.setattr(pignet.model, "make_rng", refuse)
        path, model = saved
        assert parameter_hash(model_from_checkpoint(path)) == \
            parameter_hash(model)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_loaded_model_equals_saved_bit_for_bit(self, tmp_path, dtype):
        model = build_model(tiny_model_config(dtype=dtype), seed=4)
        for i, (_, arr) in enumerate(model.named_state()):
            arr[...] = make_rng(4, i).normal(size=arr.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = model_from_checkpoint(path)

        def tensors(m):
            arrays = [(name, p.data) for name, p in m.named_parameters()]
            return [(name, arr.dtype, arr.tobytes())
                    for name, arr in arrays + m.named_state()]

        assert tensors(loaded) == tensors(model)
        assert {dt for _, dt, _ in tensors(loaded)} == {np.dtype(dtype)}

    def test_read_arrays_are_writable_float64(self, saved):
        path, model = saved
        _, arrays = read_checkpoint(path)
        assert len(arrays) == len(model.named_parameters()) + len(
            model.named_state())
        for arr in arrays.values():
            assert arr.dtype == np.dtype("<f8")
            assert arr.flags.writeable

    def test_shape_mismatch_writes_nothing(self, saved):
        path, _ = saved
        target = build_model(tiny_model_config(), seed=5)
        # the last tensor in checkpoint order is the one that mismatches
        target.head.bn1.running_var = np.ones(9)
        before = parameter_hash(target)
        running_mean = target.head.bn1.running_mean.copy()
        with pytest.raises(CompatibilityError, match="running_var"):
            load_checkpoint(path, target)
        assert parameter_hash(target) == before
        assert np.array_equal(target.head.bn1.running_mean, running_mean)

    def test_file_shrinking_during_the_read_names_the_path(self, saved,
                                                           monkeypatch):
        path, _ = saved
        real_fstat = os.fstat
        with monkeypatch.context() as patch:
            # the size taken before the read exceeds what the read finds
            patch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
                st_size=real_fstat(fd).st_size + 8))
            with pytest.raises(FormatError, match="truncated") as err:
                read_checkpoint(path)
        assert str(path) in str(err.value)


class TestNumpyScalarConfig:
    """numpy scalars are stored as their builtin values."""

    NUMPY = dict(num_parts=np.int64(3), lambda_reg=np.float32(0.1),
                 feature_reduce=np.int32(4), baseline_local_index=np.int16(1))
    BUILTIN = dict(num_parts=3, lambda_reg=float(np.float32(0.1)),
                   feature_reduce=4, baseline_local_index=1)

    def test_hashes_like_builtin_twin(self):
        config = tiny_model_config(**self.NUMPY)
        assert config == tiny_model_config(**self.BUILTIN)
        assert all(type(getattr(config, name)) is type(value)
                   for name, value in self.BUILTIN.items())
        assert config_hash(config) == \
            config_hash(tiny_model_config(**self.BUILTIN))

    def test_builtin_values_kept_as_given(self):
        config = tiny_model_config(lambda_reg=0)
        assert type(config.lambda_reg) is int
        assert config_hash(config) != config_hash(
            tiny_model_config(lambda_reg=0.0))

    def test_checkpoint_round_trip(self, tmp_path):
        model = build_model(tiny_model_config(**self.NUMPY), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        restored = model_from_checkpoint(path)
        assert restored.config == tiny_model_config(**self.BUILTIN)
        assert parameter_hash(restored) == parameter_hash(model)


class TestCorruptMetadata:
    @staticmethod
    def rewrite_meta(path, edit):
        """Rewrite the JSON metadata block of a checkpoint in place."""
        blob = path.read_bytes()
        start = len(MAGIC) + 4
        (length,) = struct.unpack("<I", blob[len(MAGIC):start])
        meta = json.loads(blob[start:start + length])
        edit(meta)
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(meta_bytes))
                         + meta_bytes + blob[start + length:])

    @staticmethod
    def assert_rejected(read, path):
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(path) in str(err.value)

    @pytest.fixture
    def checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_model_config(), seed=0))
        return path

    def test_unknown_config_key(self, checkpoint):
        self.rewrite_meta(checkpoint,
                          lambda meta: meta["config"].update(depth=3))
        self.assert_rejected(model_from_checkpoint, checkpoint)

    def test_string_inception_plan(self, checkpoint):
        self.rewrite_meta(
            checkpoint,
            lambda meta: meta["config"].update(inception_plan="4,8"))
        self.assert_rejected(model_from_checkpoint, checkpoint)

    # then two non-bool switches, non-iterable widths, an empty plan and a
    # bool for a size
    @pytest.mark.parametrize("key, value", [("num_parts", 3.5),
                                            ("inception_plan", [4.0, 8.0]),
                                            ("use_gap", "false"),
                                            ("use_inception", 0),
                                            ("head_widths", 5),
                                            ("inception_plan", []),
                                            ("feature_reduce", True),
                                            ("lambda_reg", True)])
    def test_non_integer_size(self, checkpoint, key, value):
        self.rewrite_meta(checkpoint,
                          lambda meta: meta["config"].update({key: value}))
        with pytest.raises(FormatError) as err:
            model_from_checkpoint(checkpoint)
        assert str(checkpoint) in str(err.value)
        assert key in str(err.value)

    @pytest.mark.parametrize("meta_bytes", [b"[1, 2]", b'{"a": "\xff"}'],
                             ids=["not_an_object", "not_utf8"])
    def test_unreadable_metadata(self, tmp_path, meta_bytes):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(meta_bytes))
                         + meta_bytes)
        self.assert_rejected(read_checkpoint, path)

    @pytest.mark.parametrize("count", ["many", 2.5, None])
    def test_non_integer_tensor_count(self, checkpoint, count):
        self.rewrite_meta(checkpoint,
                          lambda meta: meta.update(tensor_count=count))
        self.assert_rejected(read_checkpoint, checkpoint)
        self.assert_rejected(model_from_checkpoint, checkpoint)

    def test_tensor_rank_beyond_numpy(self, tmp_path):
        """65 zero extents fit in the file, but numpy allows 64 dimensions."""
        meta_bytes = json.dumps({"tensor_count": 1}).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes
                         + struct.pack("<I", 1) + b"w" + struct.pack("<I", 65)
                         + bytes(8 * 65))
        self.assert_rejected(read_checkpoint, path)
        self.assert_load_rejected_untouched(path)

    @pytest.mark.parametrize("rehash", [False, True],
                             ids=["stale-hash", "matching-hash"])
    def test_config_disagreeing_with_tensors_refused_before_building(
            self, checkpoint, monkeypatch, rehash):
        """A feature_reduce of 153925 gives 213,243,232,579 parameters, 1.7 TB
        as float64; that closed-form count is not the file's, so nothing is
        built."""
        def edit(meta):
            meta["config"]["feature_reduce"] = 153925
            if rehash:
                meta["config_hash"] = config_hash(ModelConfig(**meta["config"]))

        def refuse(*args, **kwargs):
            raise AssertionError("build_model called")

        self.rewrite_meta(checkpoint, edit)
        monkeypatch.setattr(pignet.training, "build_model", refuse)
        with pytest.raises(FormatError) as err:
            model_from_checkpoint(checkpoint)
        assert str(err.value) == (
            f"{checkpoint} holds 7068 parameter values, but its model "
            "configuration has 213243232579")

    def assert_load_rejected_untouched(self, path):
        model = build_model(tiny_model_config(), seed=1)
        optimizer = AdamOptimizer.for_model(model, TrainConfig(epochs=1))
        before = parameter_hash(model)
        self.assert_rejected(
            lambda p: load_checkpoint(p, model, optimizer), path)
        assert parameter_hash(model) == before

    @pytest.mark.parametrize("key, value", [
        ("epoch", "three"), ("epoch", [3]), ("epoch", -1), ("epoch", None),
        ("adam_step_count", "seven"), ("adam_step_count", [7]),
        ("adam_step_count", 2.5), ("adam_step_count", -1),
    ], ids=["epoch-word", "epoch-list", "epoch-negative", "epoch-null",
            "step-word", "step-list", "step-float", "step-negative"])
    def test_bad_count_field(self, checkpoint, key, value):
        self.rewrite_meta(checkpoint, lambda meta: meta.update({key: value}))
        self.assert_load_rejected_untouched(checkpoint)

    def test_tensor_name_not_utf8(self, checkpoint):
        blob = bytearray(checkpoint.read_bytes())
        (length,) = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])
        blob[len(MAGIC) + 4 + length + 4] = 0xFF  # first byte of a name
        checkpoint.write_bytes(bytes(blob))
        self.assert_rejected(read_checkpoint, checkpoint)
        self.assert_load_rejected_untouched(checkpoint)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda: TrainConfig(epochs=1, learning_rate=NAN), "learning_rate"),
    (lambda: TrainConfig(epochs=1, learning_rate=INF), "learning_rate"),
    (lambda: TrainConfig(epochs=1, epsilon_adam=NAN), "epsilon_adam"),
    (lambda: TrainConfig(epochs=1, epsilon_adam=INF), "epsilon_adam"),
    (lambda: TrainConfig(epochs=1, epsilon_adam=-1.0), "epsilon_adam"),
    (lambda: TrainConfig(epochs=1, epsilon_adam=0.0), "epsilon_adam"),
    (lambda: AugmentConfig(jitter_sigma=NAN), "jitter sigma"),
    (lambda: AugmentConfig(jitter_sigma=INF), "jitter sigma"),
    (lambda: AugmentConfig(scale_range=(NAN, 1.5)), "scale_range"),
    (lambda: AugmentConfig(scale_range=(0.5, INF)), "scale_range"),
    (lambda: AugmentConfig(translate_range=(-0.2, NAN)), "translate_range"),
    (lambda: AugmentConfig(translate_range=(-INF, 0.2)), "translate_range"),
    (lambda: ModelConfig(num_parts=3, lambda_reg=NAN), "lambda_reg"),
    (lambda: ModelConfig(num_parts=3, lambda_reg=INF), "lambda_reg"),
    # a bool or a string is no number; a range needs two of them
    (lambda: TrainConfig(epochs=1, learning_rate=True),
     "learning_rate must be a real number, got True"),
    (lambda: TrainConfig(epochs=1, learning_rate="0.1"),
     "learning_rate must be a real number, got '0.1'"),
    (lambda: TrainConfig(epochs=1, beta1=False),
     "beta1 must be a real number, got False"),
    (lambda: TrainConfig(epochs=1, beta2="0.9"),
     "beta2 must be a real number, got '0.9'"),
    (lambda: TrainConfig(epochs=1, epsilon_adam=True),
     "epsilon_adam must be a real number, got True"),
    (lambda: AugmentConfig(jitter_sigma=True),
     "jitter_sigma must be a real number, got True"),
    (lambda: AugmentConfig(scale_range=(True, 2)),
     "scale_range must be a real number, got True"),
    (lambda: AugmentConfig(translate_range=("-0.2", 0.2)),
     "translate_range must be a real number, got '-0.2'"),
    (lambda: AugmentConfig(scale_range=5),
     r"scale_range must be two values low <= high, got \(5,\)"),
    (lambda: AugmentConfig(rotate_up_axis="no"),
     "rotate_up_axis must be true or false, got 'no'"),
    (lambda: AugmentConfig(up_axis=True), "up_axis must be an integer"),
    (lambda: AugmentConfig(up_axis=1.0), "up_axis must be an integer"),
], ids=["nan-rate", "inf-rate", "nan-eps", "inf-eps", "negative-eps",
        "zero-eps", "nan-jitter", "inf-jitter", "nan-scale", "inf-scale",
        "nan-translate", "inf-translate", "nan-lambda", "inf-lambda",
        "bool-rate", "string-rate", "bool-beta1", "string-beta2", "bool-eps",
        "bool-jitter", "bool-scale", "string-translate", "scalar-scale",
        "string-rotate", "bool-up-axis", "float-up-axis"])
def test_config_rejects_non_finite_and_out_of_range(build, field):
    with pytest.raises(ConfigError, match=field):
        build()


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, beta1=1.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", True), ("seed", 1.5), ("seed", False),
        ("batch_size", 2.5), ("batch_size", True), ("epochs", "3")])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError,
                           match=f"{field} must be an integer, got"):
            TrainConfig(**{"epochs": 1, field: value})

    def test_first_bad_count_named(self):
        with pytest.raises(ConfigError, match="epochs must be an integer"):
            TrainConfig(epochs=True, seed=1.5, batch_size=2.5)
