import tracemalloc

import numpy as np
import pytest

from pignet.errors import DegenerateError, DimensionError
from pignet.layers import (BatchNorm, Ladder, PointwiseConv, TNet,
                           _first_max_row, channel_window_max,
                           global_average_pool, max_over_points,
                           orthogonality_regularizer)
from pignet.seeding import make_rng
from pignet.tensor import (Tensor, backward, finite_diff_check, reduce_max,
                           reduce_sum, relu)


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestPointwiseConv:
    def test_identity_kernel(self):
        conv = PointwiseConv(2, 2, make_rng(0))
        conv.weight.data[:] = np.eye(2)
        conv.bias.data[:] = 0.0
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(conv(t(x)).data, x)

    def test_zero_weights_give_bias(self):
        conv = PointwiseConv(3, 2, make_rng(0))
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = [0.5, -1.0]
        out = conv(t(np.ones((4, 3))))
        assert np.allclose(out.data, np.tile([0.5, -1.0], (4, 1)))

    def test_hand_dot_product(self):
        conv = PointwiseConv(2, 1, make_rng(0))
        conv.weight.data[:] = [[0.5], [-1.0]]
        conv.bias.data[:] = [0.1]
        out = conv(t([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(out.data, [[-1.4], [-2.4]])

    def test_channel_mismatch(self):
        conv = PointwiseConv(3, 2, make_rng(0))
        with pytest.raises(DimensionError):
            conv(t(np.zeros((4, 2))))

    def test_rows_independent(self):
        conv = PointwiseConv(3, 4, make_rng(1))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3))
        full = conv(t(x)).data
        row = conv(t(x[2:3])).data
        assert np.allclose(full[2:3], row, atol=1e-12)

    def test_gradient(self):
        conv = PointwiseConv(3, 2, make_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        err = finite_diff_check(lambda: reduce_sum(conv(x)),
                                [conv.weight, conv.bias])
        assert err < 1e-6


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        bn = BatchNorm(2)
        out = bn(t(np.full((5, 2), 3.0)), training=True)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        bn = BatchNorm(2)
        bn.gamma.data[:] = 0.0
        bn.beta.data[:] = [1.0, -2.0]
        out = bn(t(np.random.default_rng(0).normal(size=(6, 2))), training=True)
        assert np.allclose(out.data, np.tile([1.0, -2.0], (6, 1)))

    def test_hand_population_variance(self):
        # channel [1,2,3]: mean 2, biased variance 2/3
        bn = BatchNorm(1, eps=1e-12)
        out = bn(t([[1.0], [2.0], [3.0]]), training=True)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        assert np.allclose(out.data.ravel(), expected, atol=1e-6)

    def test_train_mode_standardizes(self):
        bn = BatchNorm(3)
        rng = np.random.default_rng(5)
        out = bn(t(rng.normal(2.0, 3.0, size=(200, 3))), training=True).data
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_running_stats_update_rule(self):
        bn = BatchNorm(1, momentum=0.1)
        x = np.array([[1.0], [3.0]])
        bn(t(x), training=True)
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * 2.0)
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * 1.0)

    def test_eval_mode_is_fixed_affine(self):
        bn = BatchNorm(2)
        bn.running_mean[:] = [1.0, -1.0]
        bn.running_var[:] = [4.0, 0.25]
        x = np.array([[3.0, 0.0]])
        out = bn(t(x), training=False).data
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        assert np.allclose(out, expected)

    def test_degenerate_batch_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(DegenerateError):
            bn(t(np.zeros((1, 2))), training=True)

    def test_batch_and_point_axes_pooled(self):
        bn = BatchNorm(2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4, 2))
        batched = bn(t(x), training=True).data
        flat = BatchNorm(2)(t(x.reshape(12, 2)), training=True).data
        assert np.allclose(batched.reshape(12, 2), flat)

    def test_gradient(self):
        bn = BatchNorm(3)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 3)))
        err = finite_diff_check(
            lambda: reduce_sum(bn(x, training=True) * weights),
            [x, bn.gamma, bn.beta])
        assert err < 1e-3


    def test_batched_matches_decomposed_formula(self):
        bn = BatchNorm(4)
        rng = np.random.default_rng(20)
        bn.gamma.data[:] = rng.normal(size=4)
        bn.beta.data[:] = rng.normal(size=4)
        x = rng.normal(1.0, 2.0, size=(3, 5, 4))
        out = bn(t(x), training=True).data
        mean = x.mean(axis=(0, 1))
        var = ((x - mean) ** 2).mean(axis=(0, 1))
        expected = ((x - mean) / np.sqrt(var + bn.eps) * bn.gamma.data
                    + bn.beta.data)
        assert np.abs(out - expected).max() < 1e-12

    def test_one_graph_node(self):
        bn = BatchNorm(2)
        x = t(np.random.default_rng(21).normal(size=(2, 3, 2)), grad=True)
        out = bn(x, training=True)
        assert out._op == "batch_norm"
        assert out._parents == (x, bn.gamma, bn.beta)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relu_node_matches_two_nodes(self, dtype):
        # the same bytes forward and backward as relu(bn(x)), in one node
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True, dtype=dtype)
        weights = Tensor(rng.normal(size=(2, 5, 4)), dtype=dtype)
        gamma, beta = rng.normal(size=(2, 4))
        gamma[0] = beta[0] = 0.0  # exact zeros, where the ReLU passes none
        grads = []
        for fused in (False, True):
            bn = BatchNorm(4, dtype=dtype)
            bn.gamma.data[:] = gamma
            bn.beta.data[:] = beta
            x.grad = None
            out = bn._train(x, fuse_relu=True) if fused else relu(bn(x, True))
            assert out._op == ("batch_norm_relu" if fused else "relu")
            backward(reduce_sum(out * weights))
            grads.append([a.tobytes() for a in (
                out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                bn.running_mean, bn.running_var)])
        assert grads[0] == grads[1]

    def test_gradient_batched(self):
        bn = BatchNorm(3)
        rng = np.random.default_rng(22)
        bn.gamma.data[:] = rng.normal(size=3)
        bn.beta.data[:] = rng.normal(size=3)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 4, 3)))
        err = finite_diff_check(
            lambda: reduce_sum(bn(x, training=True) * weights),
            [x, bn.gamma, bn.beta])
        assert err < 1e-3

    def test_gradient_only_input_requires_grad(self):
        bn = BatchNorm(3)
        rng = np.random.default_rng(23)
        bn.gamma = Tensor(rng.normal(size=3))
        bn.beta = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 4, 3)))
        err = finite_diff_check(
            lambda: reduce_sum(bn(x, training=True) * weights), [x])
        assert err < 1e-3
        assert bn.gamma.grad is None and bn.beta.grad is None


class TestPooling:
    def test_max_over_points(self):
        out = max_over_points(t([[1.0, 3.0], [5.0, 2.0]]))
        assert np.array_equal(out.data, [5.0, 3.0])

    def test_gap_mean(self):
        out = global_average_pool(t([[1.0, 3.0], [5.0, 7.0]]))
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_gap_permutation_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 6))
        perm = rng.permutation(50)
        a = global_average_pool(t(x)).data
        b = global_average_pool(t(x[perm])).data
        assert np.allclose(a, b, atol=1e-12)

    def test_gap_matches_sum_oracle_at_1024(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1024, 16))
        out = global_average_pool(t(x)).data
        assert np.allclose(out, x.sum(axis=0) / 1024.0, rtol=1e-12)


class TestChannelWindowMax:
    def test_sliding_window_oracle(self):
        out = channel_window_max(t([[1.0, 4.0, 2.0, 5.0]]))
        assert np.array_equal(out.data, [[4.0, 4.0, 5.0, 5.0]])

    def test_constant_row_unchanged(self):
        x = np.full((3, 5), 2.0)
        assert np.array_equal(channel_window_max(t(x)).data, x)

    def test_single_channel_identity(self):
        x = np.array([[1.0], [-2.0], [3.0]])
        assert np.array_equal(channel_window_max(t(x)).data, x)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 9))
        out = channel_window_max(t(x)).data
        for i in range(4):
            for j in range(9):
                window = x[i, max(0, j - 1):min(9, j + 2)]
                assert out[i, j] == window.max()

    def test_point_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 7))
        perm = rng.permutation(20)
        assert np.array_equal(channel_window_max(t(x)).data[perm],
                              channel_window_max(t(x[perm])).data)

    def test_gradient(self):
        x = Tensor(np.random.default_rng(12).normal(size=(3, 6)),
                   requires_grad=True)
        err = finite_diff_check(lambda: reduce_sum(channel_window_max(x)), [x])
        assert err < 1e-3

    def test_matches_sliding_window_reference(self):
        def reference(x):
            # sliding window of 3 over the edge-replicated row, first argmax
            padded = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
            windows = np.lib.stride_tricks.sliding_window_view(padded, 3,
                                                               axis=-1)
            k = x.shape[-1]
            src = np.clip(np.arange(k) - 1 + windows.argmax(axis=-1), 0, k - 1)
            grad = np.zeros_like(x)
            for idx in np.ndindex(x.shape):
                grad[idx[:-1] + (src[idx],)] += 1.0
            return windows.max(axis=-1), grad

        rng = np.random.default_rng(14)
        rows = [rng.normal(size=(2, 3, 7)),
                np.array([[2.0, 2.0, 1.0, 3.0, 3.0, 3.0, -1.0]]),  # ties
                np.array([[0.5]]), rng.normal(size=(4, 2))]
        for dtype in (np.float64, np.float32):
            for data in rows:
                data = data.astype(dtype)
                x = Tensor(data, requires_grad=True)
                out = channel_window_max(x)
                backward(reduce_sum(out))
                values, grad = reference(data)
                assert out.data.dtype == dtype
                assert np.array_equal(out.data, values)
                assert np.array_equal(x.grad, grad)

    def test_gradient_mass_conserved(self):
        x = Tensor(np.random.default_rng(13).normal(size=(2, 5)),
                   requires_grad=True)
        out = channel_window_max(x)
        backward(reduce_sum(out))
        assert np.isclose(x.grad.sum(), out.size)

    @staticmethod
    def scatter_add_reference(x, g):
        """The op as it was first written: two concatenated neighbours for
        the output; for the gradient, each window's first argmax over the
        edge-replicated row, clamped, and ``np.add.at``."""
        k = x.shape[-1]
        left = np.concatenate([x[..., :1], x[..., :-1]], axis=-1)
        right = np.concatenate([x[..., 1:], x[..., -1:]], axis=-1)
        edged = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
        offset = np.lib.stride_tricks.sliding_window_view(
            edged, 3, axis=-1).argmax(axis=-1)
        src = np.clip(np.arange(k) - 1 + offset, 0, k - 1)
        gx = np.zeros_like(x)
        flat = gx.reshape(-1, k)
        np.add.at(flat, (np.arange(flat.shape[0])[:, None],
                         src.reshape(-1, k)), g.reshape(-1, k))
        return np.maximum(np.maximum(left, x), right), gx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_of_the_scatter_add_reference(self, dtype):
        # ties everywhere, -0.0 against +0.0 in x and in g, ranks 2 and 3
        rng = np.random.default_rng(15)
        values = [-1.0, -0.0, 0.0, 0.5, 1.0]
        for k in (1, 2, 3, 4, 7):
            for shape in ((5, k), (2, 4, k)):
                for draw in (lambda: rng.choice(values, size=shape),
                             lambda: rng.normal(size=shape)):
                    x = draw().astype(dtype)
                    g = rng.normal(size=shape)  # sums that round
                    zero = rng.random(shape) < 0.3
                    g[zero] = rng.choice([-0.0, 0.0], size=zero.sum())
                    g = g.astype(dtype)
                    out = channel_window_max(Tensor(x, requires_grad=True))
                    (gx,) = out._backward_fn(g.copy())
                    values_ref, gx_ref = self.scatter_add_reference(x, g)
                    assert out.data.tobytes() == values_ref.tobytes()
                    assert gx.dtype == dtype
                    assert gx.tobytes() == gx_ref.tobytes()


class TestPooledRung:
    """One node for the max over points of a rung's output, against
    ``reduce_max(_rung(...))``: the same bytes forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)])
    def test_matches_max_of_the_rung(self, shape, dtype):
        rng = np.random.default_rng(25)
        x = rng.normal(size=shape).astype(dtype)
        x[..., 0, :] *= 4.0
        x[..., 3, :] = x[..., 0, :]  # tied rows: the first one wins
        weights = rng.normal(size=shape[:-2] + (4,)).astype(dtype)
        weights[..., 2] = -0.0  # into a live channel; 1 is dead
        runs = []
        for pooled in (False, True):
            ladder = Ladder(shape[-1], (4,), make_rng(26), dtype)
            ladder.bn0.gamma.data[:] = [1.5, 0.0, 0.7, -0.4]
            ladder.bn0.beta.data[:] = [0.1, -1.0, 0.0, 0.3]  # 1: dead
            inputs = Tensor(x, requires_grad=True)
            if pooled:
                out = ladder._pooled_rung(0, inputs)
            else:
                rung = ladder._rung(0, inputs, True)
                out = reduce_max(rung, axis=-2)
                tied = rung.data[..., 0, :] == out.data
            assert out._op == ("pooled_rung" if pooled else "max")
            backward(reduce_sum(out * weights))
            runs.append([a.tobytes() for a in (
                out.data, inputs.grad, ladder.conv0.weight.grad,
                ladder.bn0.gamma.grad, ladder.bn0.beta.grad,
                ladder.bn0.running_mean, ladder.bn0.running_var)])
        assert runs[1] == runs[0]
        assert (out.data[..., 1] == 0).all() and (out.data[..., 2] > 0).all()
        assert tied[..., [0, 2, 3]].any(axis=-1).all()  # a live channel

    def test_keeps_nothing_per_point(self):
        ladder = Ladder(3, (4,), make_rng(29))
        inputs = Tensor(np.random.default_rng(30).normal(size=(2, 5, 3)),
                        requires_grad=True)
        out = ladder._pooled_rung(0, inputs)
        arrays = [c.cell_contents for c in out._backward_fn.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        # the batch mean and std, the maxima and their first rows
        assert sorted(a.size for a in arrays) == [4, 4, 8, 8]

    def test_rule_holds_one_per_point_array(self):
        # the recomputed xhat, in which dx is built, and the rule's two
        # products; the shared-weight product copies the (narrow) input
        batch, n, c_in, c = 4, 128, 8, 512
        ladder = Ladder(c_in, (c,), make_rng(31))
        inputs = Tensor(np.random.default_rng(32).normal(
            size=(batch, n, c_in)), requires_grad=True)
        out = ladder._pooled_rung(0, inputs)
        g = np.random.default_rng(33).normal(size=out.shape)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            grads = out._backward_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_point = batch * n * c * 8
        outputs = grads[0].nbytes + grads[1].nbytes
        kept_rows = 8 * batch * c * 8  # a few (B, c) arrays
        assert peak - before <= (per_point + outputs + inputs.data.nbytes
                                 + kept_rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_max_row_is_argmax_s(self, dtype):
        rng = np.random.default_rng(34)
        tied = np.maximum(np.round(rng.normal(size=(3, 255, 6))), 0)
        tied[..., 4] = 0.0  # a dead channel: row 0
        cases = [tied, tied[0], rng.normal(size=(2, 300, 5))]
        with_nan = rng.normal(size=(2, 6, 3))
        with_nan[1, 4, 0] = np.nan  # no row equals its column's maximum
        for out in cases + [with_nan]:
            out = out.astype(dtype)
            first = _first_max_row(out, out.max(axis=-2))
            assert np.array_equal(first, out.argmax(axis=-2))
        # a NaN column falls back to argmax, so a non-finite batch still
        # reaches its backward (``_train_step``'s DomainError, tested there)
        assert _first_max_row(with_nan, with_nan.max(axis=-2))[1, 0] == 4


class TestTNet:
    def test_identity_at_initialization(self):
        tnet = TNet(3, make_rng(0), (4, 8, 16), (8, 8))
        rng = np.random.default_rng(1)
        mat = tnet.matrix(t(rng.normal(size=(10, 3))))
        assert np.array_equal(mat.data, np.eye(3))

    def test_align_applies_matrix(self):
        tnet = TNet(3, make_rng(2), (4, 8, 16), (8, 8))
        rng = np.random.default_rng(3)
        # perturb the affine so the matrix is no longer the identity
        tnet.out.weight.data[:] = rng.normal(0, 0.1, tnet.out.weight.shape)
        x = rng.normal(size=(4, 3))
        aligned, mat = tnet.align(t(x))
        assert np.allclose(aligned.data, x @ mat.data)
        assert not np.allclose(mat.data, np.eye(3))

    def test_identity_alignment_preserves_scaling(self):
        tnet = TNet(3, make_rng(4), (4, 8, 16), (8, 8))
        x = np.random.default_rng(5).normal(size=(6, 3))
        aligned_1, _ = tnet.align(t(x))
        aligned_2, _ = tnet.align(t(2.0 * x))
        assert np.allclose(aligned_2.data, 2.0 * aligned_1.data)

    def test_width_mismatch(self):
        tnet = TNet(3, make_rng(6), (4, 8), (8,))
        with pytest.raises(DimensionError):
            tnet.align(t(np.zeros((5, 4))))

    def test_batched_matches_single(self):
        tnet = TNet(3, make_rng(7), (4, 8, 16), (8, 8))
        rng = np.random.default_rng(8)
        tnet.out.weight.data[:] = rng.normal(0, 0.05, tnet.out.weight.shape)
        x = rng.normal(size=(2, 5, 3))
        _, mats = tnet.align(t(x))
        for i in range(2):
            _, single = tnet.align(t(x[i]))
            assert np.allclose(mats.data[i], single.data)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_map_gives_the_bytes_of_a_batch_of_one(self, training):
        x = np.random.default_rng(8).normal(size=(5, 3))
        runs = []
        for features in (x, x[None]):
            tnet = TNet(3, make_rng(7), (4, 8, 16), (8, 8))
            tnet.out.weight.data[:] = np.random.default_rng(9).normal(
                0, 0.05, tnet.out.weight.shape)
            inputs = t(features, grad=True)
            aligned, mat = tnet.align(inputs, training)
            assert mat.shape == features.shape[:-2] + (3, 3)
            backward(reduce_sum(aligned) + reduce_sum(mat * mat))
            runs.append(([a.data.tobytes() for a in (aligned, mat)],
                         inputs.grad.tobytes(),
                         [p.grad.tobytes() for _, p in tnet.named_parameters()],
                         [a.tobytes() for _, a in tnet.named_state()]))
        assert runs[0] == runs[1]

    def test_gradient(self):
        tnet = TNet(2, make_rng(9), (4, 8), (8,))
        x = Tensor(np.random.default_rng(10).normal(size=(5, 2)))
        params = [p for _, p in tnet.named_parameters()]

        def f():
            aligned, mat = tnet.align(x, training=True)
            return reduce_sum(aligned) + reduce_sum(mat * mat)

        assert finite_diff_check(f, params) < 1e-3


class TestOrthogonalityRegularizer:
    def test_identity_is_zero(self):
        assert orthogonality_regularizer(t(np.eye(4))).item() == 0.0

    def test_scaled_identity_hand_value(self):
        # A = 2I (k=2): I - A A^T = -3I, squared Frobenius norm 18
        out = orthogonality_regularizer(t(2.0 * np.eye(2)))
        assert np.isclose(out.item(), 18.0)

    def test_rotation_matrix_is_zero(self):
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        assert orthogonality_regularizer(t(rot)).item() < 1e-10

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            mat = rng.normal(size=(3, 3))
            val = orthogonality_regularizer(t(mat)).item()
            assert val >= 0.0
            assert (val < 1e-10) == np.allclose(mat @ mat.T, np.eye(3),
                                                atol=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            orthogonality_regularizer(t(np.zeros((2, 3))))

    def test_gradient(self):
        mat = Tensor(np.random.default_rng(15).normal(size=(3, 3)),
                     requires_grad=True)
        err = finite_diff_check(lambda: orthogonality_regularizer(mat), [mat])
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_matrix_gives_the_bytes_of_a_batch_of_one(self, dtype):
        a = np.random.default_rng(16).normal(size=(3, 3))
        runs = []
        for mat in (a, a[None]):
            mat = Tensor(mat, requires_grad=True, dtype=dtype)
            value = orthogonality_regularizer(mat)
            backward(value)
            runs.append((value.shape, value.data.tobytes(),
                         mat.grad.tobytes()))
        assert runs[0] == runs[1]


class TestPermutationEquivariance:
    def test_pointwise_layers(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(30, 5))
        perm = rng.permutation(30)
        conv = PointwiseConv(5, 7, make_rng(17))
        assert np.allclose(conv(t(x)).data[perm], conv(t(x[perm])).data,
                           atol=1e-12)
        bn = BatchNorm(5)
        assert np.allclose(bn(t(x), training=True).data[perm],
                           bn(t(x[perm]), training=True).data, atol=1e-12)
