import numpy as np
import pytest

from pignet.errors import ConfigError, DimensionError
from pignet.inception import InceptionLayer, InceptionStack
from pignet.layers import Ladder
from pignet.seeding import make_rng
from pignet.tensor import Tensor, finite_diff_check, reduce_sum


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestInceptionLayer:
    def test_output_width_is_triple_e(self):
        layer = InceptionLayer(3, 64, make_rng(0))
        out = layer(t(np.random.default_rng(1).normal(size=(5, 3))))
        # 64 + 32 + 32 + 64
        assert out.shape == (5, 192)
        assert layer.out_channels == 192

    def test_single_point_no_cross_talk(self):
        layer = InceptionLayer(3, 8, make_rng(2))
        x = np.random.default_rng(3).normal(size=(1, 3))
        out = layer(t(x))
        assert out.shape == (1, 24)
        # appending an unrelated point must not change the first row (eval mode)
        extra = np.vstack([x, [[5.0, -1.0, 2.0]]])
        both = layer(t(extra))
        assert np.allclose(both.data[0], out.data[0], atol=1e-12)

    def test_permutation_equivariance(self):
        layer = InceptionLayer(3, 8, make_rng(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 3))
        perm = rng.permutation(20)
        assert np.allclose(layer(t(x)).data[perm], layer(t(x[perm])).data,
                           atol=1e-12)

    def test_odd_filter_count_rejected(self):
        with pytest.raises(ConfigError):
            InceptionLayer(3, 7, make_rng(0))

    def test_channel_mismatch_propagates(self):
        layer = InceptionLayer(3, 8, make_rng(6))
        with pytest.raises(DimensionError):
            layer(t(np.zeros((4, 5))))


class TestInceptionStack:
    @pytest.mark.parametrize("plan,expected", [
        ((64, 128, 256), 768),
        ((64, 128, 256, 512), 1536),
        ((64, 128, 256, 512, 1024), 3072),
        ((8, 16), 48),
    ])
    def test_stack_widths(self, plan, expected):
        stack = InceptionStack(plan, make_rng(0))
        assert stack.out_channels == expected
        for layer in stack.layers:
            assert layer.out_channels == 3 * layer.e

    def test_layers_chain_widths(self):
        stack = InceptionStack((8, 16, 24), make_rng(1))
        widths = [layer.c_in for layer in stack.layers]
        assert widths == [3, 24, 48]

    def test_forward_shape(self):
        stack = InceptionStack((8, 16), make_rng(2))
        out = stack(t(np.random.default_rng(3).normal(size=(10, 3))))
        assert out.shape == (10, 48)

    def test_stack_equivariance(self):
        stack = InceptionStack((8, 16), make_rng(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        assert np.allclose(stack(t(x)).data[perm], stack(t(x[perm])).data,
                           atol=1e-10)

    def test_two_layer_gradient(self):
        # seed chosen away from relu/window-max kinks, where central
        # differences are meaningless
        stack = InceptionStack((4, 4), make_rng(1))
        x = Tensor(np.random.default_rng(101).normal(size=(5, 3)))
        weights = Tensor(np.random.default_rng(201).normal(size=(5, 12)))
        params = [p for _, p in stack.named_parameters()]
        err = finite_diff_check(
            lambda: reduce_sum(stack(x, training=True) * weights), params)
        assert err < 1e-3


class TestPlainConvStack:
    def test_width_follows_plan(self):
        stack = Ladder(3, (8, 16, 24), make_rng(0))
        assert stack.out_channels == 24
        out = stack(t(np.random.default_rng(1).normal(size=(6, 3))))
        assert out.shape == (6, 24)

    def test_parameter_names_disjoint_from_inception(self):
        plain = Ladder(3, (8, 16), make_rng(0))
        fancy = InceptionStack((8, 16), make_rng(0))
        assert len(plain.named_parameters()) < len(fancy.named_parameters())
