"""Point-cloud part segmentation with inception feature layers and global
average pooling, on a self-contained reverse-mode autodiff core."""

from .tensor import (Tensor, backward, concat, finite_diff_check, matmul,
                     no_grad, reduce_max, reduce_mean, reduce_sum, relu)
from .layers import (BatchNorm, Ladder, Module, PointwiseConv, TNet,
                     channel_window_max, global_average_pool, max_over_points,
                     orthogonality_regularizer)
from .inception import InceptionLayer, InceptionStack, PlainConvStack
from .model import (ModelConfig, PigNet, PointNetBaseline, build_model,
                    config_hash, count_parameters, parameter_count,
                    segmentation_loss)
from .data import (AugmentConfig, PointCloud, add_gaussian_noise, augment,
                   load_cloud, load_split, normalize, sample_points,
                   save_cloud, synth_generate, write_synth_dataset)
from .training import (AdamOptimizer, TrainConfig, load_checkpoint,
                       model_from_checkpoint, parameter_hash, read_checkpoint,
                       save_checkpoint, train_category)
from .evaluation import (SegmentationReport, aggregate_miou, ablation_run,
                         ablation_variants, evaluate_split, robustness_run,
                         shape_miou, write_ply)

__version__ = "0.1.0"
