import numpy as np
import pytest

from pignet.errors import DimensionError, DomainError, OracleError, UsageError
from pignet.layers import BatchNorm, channel_window_max
from pignet.tensor import (Tensor, backward, concat, cross_entropy,
                           finite_diff_check, graph_order, matmul, no_grad,
                           reduce_max, reduce_mean, reduce_sum, relu,
                           repeat_rows, reshape, transpose_last2)


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestTensor:
    def test_integer_data_becomes_float64(self):
        x = Tensor([1, 2])
        assert x.dtype == np.float64
        assert np.array_equal(x.data, [1.0, 2.0])

    def test_repr(self):
        assert repr(t([1.0, 2.0])) == (
            "Tensor(shape=(2,), op='leaf', requires_grad=True)")
        assert repr(t(np.zeros((2, 3)), grad=False)) == (
            "Tensor(shape=(2, 3), op='leaf')")


class TestMatmul:
    def test_identity(self):
        out = matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_annihilator(self):
        out = matmul(t([[1.0, 2.0]]), t([[0.0], [0.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_hand_dot_product(self):
        # rows dotted with the column: 1*5+2*6=17, 3*5+4*6=39
        out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_backward_formulas(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0, 0.0], [6.0, 1.0]])
        out = matmul(a, b)
        backward(out.sum())
        g = np.ones((2, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_numpy_left_operand_takes_the_right_dtype(self):
        b = Tensor(np.eye(2, dtype=np.float32))
        out = matmul(np.array([[1.0, 2.0]]), b)
        assert out.dtype == np.float32
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5, 3))
        b = rng.normal(size=(4, 3, 2))
        out = matmul(t(a), t(b))
        assert np.allclose(out.data, a @ b)

    def test_batched_against_unbatched_weight(self):
        rng = np.random.default_rng(1)
        a = t(rng.normal(size=(4, 5, 3)))
        w = t(rng.normal(size=(3, 2)))
        out = matmul(a, w)
        backward(out.sum())
        expected = sum(a.data[i].T @ np.ones((5, 2)) for i in range(4))
        assert np.allclose(w.grad, expected)


class TestReduceMax:
    def test_two_row_max(self):
        out = reduce_max(t([[1.0, 3.0], [5.0, 2.0]]), axis=0)
        assert np.array_equal(out.data, [5.0, 3.0])

    def test_single_row_identity(self):
        out = reduce_max(t([[7.0, 8.0]]), axis=0)
        assert np.array_equal(out.data, [7.0, 8.0])

    def test_tie_gradient_goes_to_first_row(self):
        # all entries equal: gradient must land on row 0 only
        x = t([[2.0, 2.0], [2.0, 2.0]])
        backward(reduce_max(x, axis=0).sum())
        assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            reduce_max(t(np.zeros((0, 3))), axis=0)

    def test_gradient_mass_conserved_per_column(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(6, 4)))
        out = reduce_max(x, axis=0)
        # seed an uneven upstream gradient through a weighted sum
        w = np.array([1.0, 2.0, 3.0, 4.0])
        backward((out * Tensor(w)).sum())
        assert np.allclose(x.grad.sum(axis=0), w)


def _argmax_routed_gradient(x, axis, g):
    """Each upstream value routed to ``x.argmax(axis)``, the first maximum
    (or the first NaN), as the recording pass did before it matched the
    maximum instead."""
    gx = np.zeros_like(x)
    np.put_along_axis(gx, np.expand_dims(x.argmax(axis=axis), axis),
                      np.expand_dims(g, axis), axis)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_nan", [False, True], ids=["ties", "nan"])
@pytest.mark.parametrize("axis", [0, -2, -1])
def test_reduce_max_routes_like_argmax(dtype, with_nan, axis):
    rng = np.random.default_rng(11)
    # small integers tie often; zeros come with both signs
    data = rng.integers(-2, 3, size=(4, 6, 5)).astype(dtype)
    data[data == 0] = np.copysign(0.0, rng.normal(size=(data == 0).sum()))
    if with_nan:
        data[rng.random(data.shape) < 0.1] = np.nan
    x = Tensor(data, requires_grad=True)
    out = reduce_max(x, axis=axis)
    g = np.arange(1, out.data.size + 1, dtype=dtype).reshape(out.shape)
    backward((out * Tensor(g)).sum())
    assert out.data.tobytes() == data.max(axis=axis).tobytes()
    assert x.grad.dtype == dtype
    assert (x.grad.tobytes()
            == _argmax_routed_gradient(data, axis, g).tobytes())


class TestReduceMean:
    def test_column_means(self):
        out = reduce_mean(t([[1.0, 3.0], [5.0, 7.0]]), axis=0)
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_constant(self):
        out = reduce_mean(t(np.full((4, 3), 2.5)), axis=0)
        assert np.array_equal(out.data, [2.5, 2.5, 2.5])

    def test_sum_over_n_oracle(self):
        out = reduce_mean(t([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), axis=0)
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_mean_times_n_matches_column_sum(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 8))
        mean = reduce_mean(t(data), axis=0)
        sums = reduce_sum(t(data), axis=0)
        assert np.allclose(mean.data * 50, sums.data, rtol=1e-12)

    def test_backward_uniform(self):
        x = t(np.zeros((5, 2)))
        backward(reduce_mean(x, axis=0).sum())
        assert np.allclose(x.grad, np.full((5, 2), 0.2))

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            reduce_mean(t(np.zeros((0, 2))), axis=0)


class TestConcat:
    def test_pairs(self):
        out = concat([t([[1.0], [2.0]]), t([[3.0], [4.0]])], axis=1)
        assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_empty_neutral_element(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = concat([a, t(np.zeros((2, 0)))], axis=1)
        assert np.array_equal(out.data, a.data)

    def test_extent_arithmetic(self):
        out = concat([t(np.zeros((5, 64))), t(np.zeros((5, 1024)))], axis=1)
        assert out.shape == (5, 1088)

    def test_concat_split_roundtrip_bit_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 10))
        joined = concat([t(x[:, :3]), t(x[:, 3:7]), t(x[:, 7:])], axis=1)
        assert joined.data.tobytes() == x.tobytes()

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            concat([t(np.zeros((2, 1))), t(np.zeros((3, 1)))], axis=1)

    def test_backward_splits_gradient(self):
        a, b = t(np.ones((2, 2))), t(np.ones((2, 3)))
        out = concat([a, b], axis=1)
        backward((out * Tensor(np.arange(10.0).reshape(2, 5))).sum())
        assert np.array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


class TestRelu:
    def test_clamps_negatives(self):
        assert np.array_equal(relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_identity_on_positive(self):
        x = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(relu(t(x)).data, x)

    def test_gradient_mask(self):
        x = t([-1.0, 2.0])
        backward(relu(x).sum())
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_gradient_zero_at_zero(self):
        x = t([0.0])
        backward(relu(x).sum())
        assert np.array_equal(x.grad, [0.0])

    def test_nan_propagates_with_zero_gradient(self):
        # a NaN input surfaces downstream instead of being masked to 0
        x = t([np.nan, -1.0, 0.0, 2.0])
        out = relu(x)
        assert np.isnan(out.data[0])
        assert np.array_equal(out.data[1:], [0.0, 0.0, 2.0])
        backward(out.sum())
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])


def _batch_norm(x, gamma, beta, fuse_relu=False):
    bn = BatchNorm(x.shape[-1])
    bn.gamma, bn.beta = gamma, beta
    return bn._train(x, fuse_relu)


# every recording op and both custom nodes: (function, operand shapes)
RULE_CASES = {
    "add": (lambda a, b: a + b, [(2, 6, 5), (5,)]),
    "sub": (lambda a, b: a - b, [(2, 6, 5), (6, 5)]),
    "mul": (lambda a, b: a * b, [(2, 6, 5), (1, 5)]),
    "matmul": (matmul, [(6, 5), (5, 3)]),
    "matmul_batched": (matmul, [(2, 6, 5), (2, 5, 3)]),
    "matmul_shared_weight": (matmul, [(2, 6, 5), (5, 3)]),
    "relu": (relu, [(2, 6, 5)]),
    "sum": (lambda a: reduce_sum(a, axis=(0, 2)), [(2, 6, 5)]),
    "mean": (lambda a: reduce_mean(a, axis=1), [(2, 6, 5)]),
    "max": (lambda a: reduce_max(a, axis=-2), [(2, 6, 5)]),
    "concat": (lambda *ts: concat(ts, axis=1), [(2, 6, 5), (2, 1, 5),
                                                (2, 3, 5)]),
    "reshape": (lambda a: reshape(a, (12, 5)), [(2, 6, 5)]),
    "transpose": (transpose_last2, [(2, 6, 5)]),
    "repeat_rows": (lambda a: repeat_rows(a, 4), [(2, 5)]),
    "cross_entropy": (lambda a: cross_entropy(a, np.arange(12) % 5),
                      [(12, 5)]),
    "batch_norm": (_batch_norm, [(2, 6, 5), (5,), (5,)]),
    "batch_norm_relu": (lambda *ts: _batch_norm(*ts, fuse_relu=True),
                        [(2, 6, 5), (5,), (5,)]),
    "channel_window_max": (channel_window_max, [(2, 6, 5)]),
}


class TestNoGradSkipsBackwardWork:
    @pytest.mark.parametrize("name", list(RULE_CASES))
    def test_values_match_recording_pass(self, name):
        fn, shapes = RULE_CASES[name]
        rng = np.random.default_rng(30)
        operands = [t(rng.normal(size=s)) for s in shapes]
        recorded = fn(*operands)
        with no_grad():
            plain = fn(*operands)
        assert recorded._parents and not plain._parents
        assert plain._backward_fn is None and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_rule_returns_one_gradient_per_parent(name):
    fn, shapes = RULE_CASES[name]
    rng = np.random.default_rng(31)
    operands = [t(rng.normal(size=s)) for s in shapes]
    out = fn(*operands)
    assert out._parents == tuple(operands)
    grads = out._backward_fn(np.asarray(rng.normal(size=out.shape)))
    assert len(grads) == len(operands)
    for g, operand in zip(grads, operands):
        assert isinstance(g, np.ndarray) and g.shape == operand.shape
    if len(operands) > 1:
        # the rule still returns the constant's gradient; backward drops it
        operands[-1] = t(operands[-1].data, grad=False)
        backward(reduce_sum(fn(*operands)))
        assert operands[-1].grad is None
        assert operands[0].grad.shape == shapes[0]


class TestBackward:
    def test_sum_gives_ones(self):
        x = t([1.0, 2.0, 3.0])
        backward(x.sum())
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_analytic(self):
        x = t([3.0])
        backward((x * x).sum())
        assert np.array_equal(x.grad, [6.0])

    def test_root_without_graph_gets_no_gradient(self):
        x = t([2.0], grad=False)
        backward(x)
        assert x.grad is None

    def test_non_scalar_seed_rejected(self):
        with pytest.raises(UsageError):
            backward(t([1.0, 2.0]) * 2.0)

    def test_repeated_backward_rejected(self):
        loss = (t([1.0]) * 3.0).sum()
        backward(loss)
        with pytest.raises(UsageError):
            backward(loss)

    def test_walked_node_rejected_from_a_second_root(self):
        # a second backward through h would add 3 again, making w.grad 6
        w = t([1.0])
        h = w * 3.0
        backward(reduce_sum(h))
        with pytest.raises(UsageError, match="already ran"):
            backward(h)
        assert np.array_equal(w.grad, [3.0])
        with pytest.raises(UsageError, match="already ran"):
            backward(reduce_sum(h * 2.0))
        assert np.array_equal(w.grad, [3.0])

    def test_leaves_stay_reusable(self):
        w = t([1.0])
        backward(reduce_sum(w * 3.0))
        backward(reduce_sum(w * 2.0))
        assert np.array_equal(w.grad, [5.0])

    def test_diamond_graph_accumulates(self):
        x = t([2.0])
        y = x * x + x * 3.0
        backward(y.sum())
        assert np.allclose(x.grad, [7.0])

    def test_first_gradients_do_not_alias(self):
        a = t([1.0, 2.0])
        b = t([3.0, 4.0])
        backward(reduce_sum((a + b) * t([5.0, 6.0], grad=False)))
        assert a.grad is not b.grad
        assert np.array_equal(a.grad, [5.0, 6.0])
        assert np.array_equal(b.grad, [5.0, 6.0])
        a.grad += 1.0  # owned, writable arrays
        assert np.array_equal(b.grad, [5.0, 6.0])

    def test_self_sum_gradient_is_two(self):
        x = t([1.0, -2.0, 3.0])
        backward(reduce_sum(x + x))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
        assert x.grad.flags.writeable

    def test_graph_order_is_topological(self):
        x = t([1.0])
        y = x * 2.0
        z = y + x
        order = graph_order(z.sum())
        pos = {id(node): i for i, node in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]


class TestFiniteDiffCheck:
    def test_square_function(self):
        x = t([3.0])
        err = finite_diff_check(lambda: (x * x).sum(), [x])
        assert err < 1e-8

    def test_non_contiguous_parameter(self):
        x = Tensor(np.arange(12.0).reshape(3, 4)[:, ::2], requires_grad=True)
        assert not x.data.flags["C_CONTIGUOUS"]
        assert finite_diff_check(lambda: (x * x).sum(), [x]) < 1e-8
        assert x.data.flags["C_CONTIGUOUS"]

    def test_constant_function(self):
        x = t([1.0, -2.0])
        err = finite_diff_check(lambda: (x * 0.0).sum(), [x])
        assert err == 0.0

    def test_nondeterministic_function_rejected(self):
        x = t([1.0])
        counter = iter(range(100))

        def flaky():
            return (x * float(next(counter))).sum()

        with pytest.raises(OracleError):
            finite_diff_check(flaky, [x])

    def test_requires_float64(self):
        x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(UsageError):
            finite_diff_check(lambda: x.sum(), [x])

    def test_relu_gradient_matches(self):
        x = t([-1.0, 2.0])
        err = finite_diff_check(lambda: relu(x).sum(), [x])
        assert err < 1e-6

    def test_isolated_ops_below_1e6(self):
        rng = np.random.default_rng(11)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        assert finite_diff_check(lambda: matmul(a, b).sum(), [a, b]) < 1e-6
        x = t(rng.normal(size=(5, 3)))
        assert finite_diff_check(lambda: reduce_max(x, 0).sum(), [x]) < 1e-6
        assert finite_diff_check(lambda: reduce_mean(x, 0).sum(), [x]) < 1e-6
        assert finite_diff_check(lambda: relu(x).sum(), [x]) < 1e-6

    def test_small_mlp_below_1e3(self):
        rng = np.random.default_rng(13)
        w1 = t(rng.normal(size=(3, 8)))
        b1 = t(rng.normal(size=8))
        w2 = t(rng.normal(size=(8, 2)))
        x = Tensor(rng.normal(size=(6, 3)))

        def f():
            h = relu(matmul(x, w1) + b1)
            return reduce_mean(matmul(h, w2))

        assert finite_diff_check(f, [w1, b1, w2]) < 1e-3


class TestMiscOps:
    def test_cross_entropy_matches_log_sum_exp(self):
        rng = np.random.default_rng(17)
        x = 10.0 * rng.normal(size=(5, 4))
        idx = np.array([3, 0, 1, 1, 2])
        out = cross_entropy(Tensor(x), idx)
        top = x.max(axis=1)
        log_z = top + np.log(np.exp(x - top[:, None]).sum(axis=1))
        assert np.isclose(out.item(), np.mean(log_z - x[np.arange(5), idx]),
                          rtol=1e-12)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(19)
        x = t(rng.normal(size=(4, 3)))
        idx = np.array([0, 2, 1, 0])
        assert finite_diff_check(lambda: cross_entropy(x, idx), [x]) < 1e-6

    def test_cross_entropy_rejects_mismatched_labels(self):
        with pytest.raises(DimensionError):
            cross_entropy(t(np.zeros((4, 3))), np.zeros(3, dtype=int))
        with pytest.raises(DimensionError):
            cross_entropy(t(np.zeros((2, 4, 3))), np.zeros(8, dtype=int))

    def test_repeat_rows_and_gradient(self):
        v = t([1.0, 2.0])
        out = repeat_rows(v, 3)
        assert out.shape == (3, 2)
        backward(out.sum())
        assert np.array_equal(v.grad, [3.0, 3.0])

    def test_reshape_roundtrip(self):
        x = t(np.arange(6.0))
        y = reshape(x, (2, 3))
        backward((y * y).sum())
        assert np.array_equal(x.grad, 2 * np.arange(6.0))

    def test_no_grad_suppresses_recording(self):
        x = t([1.0])
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(scale=100.0, size=(8, 5)))
        w = Tensor(rng.normal(size=(5, 4)))
        out = cross_entropy(relu(matmul(x, w)), np.arange(8) % 4)
        assert np.isfinite(out.data).all()

    def test_broadcast_bias_add_backward(self):
        x = t(np.ones((4, 3)))
        b = t(np.zeros(3))
        backward((x + b).sum())
        assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
