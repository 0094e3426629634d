"""The library's typed refusals of malformed calls, one row each: the call,
the error it raises and a fragment of the message."""

import io

import numpy as np
import pytest

from pignet.data import (DatasetSplit, PointCloud, add_gaussian_noise,
                         infer_num_parts)
from pignet.errors import (ConfigError, DataError, DimensionError,
                           DomainError, UsageError)
from pignet.evaluation import ablation_variants, evaluate_split, write_ply
from pignet.inception import InceptionStack
from pignet.layers import BatchNorm, channel_window_max
from pignet.model import ModelConfig, build_model, segmentation_loss
from pignet.seeding import make_rng
from pignet.tensor import (Tensor, backward, concat, cross_entropy,
                           finite_diff_check, matmul, reduce_max, reshape,
                           transpose_last2)


def zeros(*shape):
    return Tensor(np.zeros(shape))


def tiny_model():
    return build_model(ModelConfig(
        num_parts=2, inception_plan=(2,), tnet_conv_widths=(2,),
        tnet_fc_widths=(2,), head_widths=(2,)))


def empty_split():
    return DatasetSplit([], [], [])


REFUSALS = {
    # the autodiff core
    "matmul-rank": (lambda: matmul(zeros(2), zeros(2, 2)), DimensionError,
                    "matmul expects rank-2 or rank-3 operands, got (2,) @"),
    "matmul-rank-2-left": (
        lambda: matmul(zeros(2, 2), zeros(1, 2, 2)), DimensionError,
        "matmul does not broadcast a rank-2 left operand"),
    "matmul-batch": (lambda: matmul(zeros(2, 2, 2), zeros(3, 2, 2)),
                     DimensionError, "matmul batch extents disagree"),
    "reduce-max-tuple-axis": (lambda: reduce_max(zeros(2, 2), (0, 1)),
                              UsageError, "a single integer axis"),
    "concat-nothing": (lambda: concat([]), UsageError,
                       "concat of an empty list"),
    "reshape": (lambda: reshape(zeros(2, 3), (4,)), DimensionError,
                "cannot reshape (2, 3) into (4,)"),
    "transpose-vector": (lambda: transpose_last2(zeros(3)), DimensionError,
                         "transpose needs rank >= 2, got (3,)"),
    "cross-entropy-no-rows": (
        lambda: cross_entropy(zeros(0, 3), np.zeros(0)), DomainError,
        "cannot average over an empty axis"),
    "backward-non-tensor": (lambda: backward(1.0), UsageError,
                            "backward expects a Tensor"),
    "finite-diff-step": (lambda: finite_diff_check(lambda: None, [], h=0.0),
                         UsageError, "step must be positive"),
    "finite-diff-constant": (
        lambda: finite_diff_check(lambda: None, [zeros(2)]), UsageError,
        "all checked parameters must require gradients"),
    "finite-diff-vector": (lambda: finite_diff_check(lambda: zeros(2), []),
                           UsageError, "needs a scalar-valued function"),
    # layers and models
    "batch-norm-width": (lambda: BatchNorm(4)(zeros(2, 3)), DimensionError,
                         "batch norm of width 4 got shape (2, 3)"),
    "window-max-no-channels": (lambda: channel_window_max(zeros(2, 0)),
                               DomainError, "empty channel axis"),
    "cloud-width": (lambda: tiny_model().predict(np.zeros((4, 2))),
                    DimensionError, "(n, 3) cloud or a (B, n, 3) batch, "
                                    "got (4, 2)"),
    "loss-label-count": (lambda: segmentation_loss(zeros(4, 3), [0, 1, 2]),
                         DataError, "4 points but 3 labels"),
    "inception-no-plan": (lambda: InceptionStack((), make_rng(0)),
                          ConfigError, "inception plan must not be empty"),
    # data and evaluation
    "cloud-points": (lambda: PointCloud(np.zeros((4, 2)), np.zeros(4)),
                     DataError, "points must be (n, 3), got (4, 2)"),
    "cloud-labels": (lambda: PointCloud(np.zeros((4, 3)), np.zeros(3)),
                     DataError, "4 points but 3 labels"),
    "cloud-labels-scalar": (lambda: PointCloud(np.zeros((4, 3)), 5),
                            DataError, "4 points but labels of shape ()"),
    "cloud-labels-column": (
        lambda: PointCloud(np.zeros((4, 3)), np.zeros((4, 1))), DataError,
        "4 points but labels of shape (4, 1)"),
    "cloud-labels-none": (lambda: PointCloud(np.zeros((4, 3)), None),
                          DataError, "4 points but labels of shape ()"),
    "noise-sigma": (
        lambda: add_gaussian_noise(PointCloud(np.zeros((2, 3)), np.zeros(2)),
                                   -0.5, 0),
        UsageError, "noise sigma must be >= 0, got -0.5"),
    "unknown-split": (lambda: empty_split().records("x"), UsageError,
                      "unknown split 'x'"),
    "no-parts": (lambda: infer_num_parts(empty_split()), DataError,
                 "dataset has no labels"),
    "evaluate-nothing": (lambda: evaluate_split(tiny_model(), [], 0),
                         UsageError, "no shapes to evaluate"),
    "ablate-one-layer": (
        lambda: ablation_variants(ModelConfig(num_parts=2,
                                              inception_plan=(8,))),
        ConfigError, "ablation needs a base plan with >= 2 layers"),
    "ply-points": (lambda: write_ply(io.StringIO(), np.zeros((2, 2)), [0, 0]),
                   DataError, "points must be (n, 3), got (2, 2)"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)
