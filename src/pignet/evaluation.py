"""mIoU evaluation, the ablation and robustness harnesses, and colored PLY
export of predictions.

Instance mIoU averages the per-shape scores over all shapes; category mIoU
averages the per-category means of those scores. A part absent from both
prediction and ground truth contributes an IoU of 1.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .seeding import EVAL, NOISE
from .data import add_gaussian_noise, sample_points
from .model import build_model, count_parameters
from .training import parameter_hash, train_category

# fixed 8-color palette for exported part predictions (RGB)
PART_PALETTE = [
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
]

DENSITY_LEVELS = (128, 256, 512, 1024)
NOISE_LEVELS = (0.0, 0.01, 0.02, 0.03, 0.04)


def shape_miou(pred, gt, num_parts):
    """Mean per-part IoU between two label vectors of one shape."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise DataError(
            f"label vectors disagree: {pred.shape} vs {gt.shape}")
    for name, arr in (("prediction", pred), ("ground truth", gt)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_parts):
            raise DataError(
                f"{name} holds labels outside [0, {num_parts})")
    total = 0.0
    for part in range(num_parts):
        in_pred = pred == part
        in_gt = gt == part
        union = int(np.count_nonzero(in_pred | in_gt))
        if union == 0:
            total += 1.0
        else:
            total += int(np.count_nonzero(in_pred & in_gt)) / union
    return total / num_parts


@dataclass(frozen=True)
class ShapeResult:
    shape_id: str
    category: str
    miou: float


def aggregate_miou(results):
    """(instance mIoU, category mIoU) over per-shape results."""
    if not results:
        raise UsageError("cannot aggregate an empty result list")
    instance = sum(r.miou for r in results) / len(results)
    by_category = {}
    for r in results:
        by_category.setdefault(r.category, []).append(r.miou)
    category = sum(sum(v) / len(v) for v in by_category.values()) / len(by_category)
    return instance, category


@dataclass
class SegmentationReport:
    shapes: list
    instance_miou: float
    category_miou: float

    @classmethod
    def from_shapes(cls, shapes):
        instance, category = aggregate_miou(shapes)
        return cls(list(shapes), instance, category)

    def to_tsv(self):
        lines = ["shape_id\tcategory\tmiou"]
        lines.extend(f"{r.shape_id}\t{r.category}\t{r.miou:.6f}"
                     for r in self.shapes)
        return "\n".join(lines) + "\n"

    def summary(self):
        return (f"shapes evaluated\t{len(self.shapes)}\n"
                f"instance mIoU\t{self.instance_miou:.6f}\n"
                f"category mIoU\t{self.category_miou:.6f}\n")


def predict_sample(model, cloud, seed, index, points, sigma=0.0):
    """The evaluation sample of shape ``index`` of a labeled cloud, with
    Gaussian noise of std ``sigma`` when it is positive, and the model's part
    ids for it."""
    num_parts = model.config.num_parts
    if cloud.labels.max() >= num_parts:
        raise ConfigError(
            f"category {cloud.category!r} uses label {int(cloud.labels.max())} "
            f"but the model has {num_parts} parts")
    sampled = sample_points(cloud, points, (seed, EVAL, index))
    if sigma > 0:
        sampled = add_gaussian_noise(sampled, sigma, (seed, NOISE, index))
    return sampled, model.predict(sampled.points)


def _score(model, records, clouds, seed, points, sigma=0.0):
    shapes = []
    for i, (rec, cloud) in enumerate(zip(records, clouds)):
        sampled, pred = predict_sample(model, cloud, seed, i, points, sigma)
        shapes.append(ShapeResult(rec.shape_id, rec.category, shape_miou(
            pred, sampled.labels, model.config.num_parts)))
    return SegmentationReport.from_shapes(shapes)


def evaluate_split(model, records, seed, points=1024):
    """Eval-mode inference and mIoU over a list of shape records.

    Deterministic under a fixed seed: shape ``i`` draws its sample from
    ``(seed, EVAL, i)``.
    """
    if not records:
        raise UsageError("no shapes to evaluate")
    return _score(model, records, [r.labeled_cloud() for r in records], seed,
                  points)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def ablation_variants(base_config):
    """The five architecture variants of the comparison grid.

    Three inception depths (one layer shallower, the base plan, one layer
    deeper with doubled filters), the plain-conv stack, and the max-pool
    aggregation; everything else stays at the base configuration.
    """
    plan = base_config.inception_plan
    if len(plan) < 2:
        raise ConfigError("ablation needs a base plan with >= 2 layers")
    deeper = plan + (2 * plan[-1],)
    return [
        (f"inception{len(plan) - 1}-gap",
         replace(base_config, inception_plan=plan[:-1])),
        (f"inception{len(plan)}-gap", base_config),
        (f"inception{len(plan) + 1}-gap",
         replace(base_config, inception_plan=deeper)),
        (f"plainconv{len(plan)}-gap",
         replace(base_config, use_inception=False)),
        (f"inception{len(plan)}-maxpool",
         replace(base_config, use_gap=False)),
    ]


@dataclass(frozen=True)
class AblationRow:
    name: str
    config: object
    instance_miou: float
    category_miou: float
    param_count: int
    init_hash: str
    trained_hash: str


def ablation_run(train_records, eval_records, base_config, train_config,
                 augment_config=None, points=1024, log=None):
    """Train every variant with identical seeds and report their mIoU."""
    rows = []
    for name, config in ablation_variants(base_config):
        init_hash = parameter_hash(build_model(config, seed=train_config.seed))
        result = train_category(train_records, config, train_config,
                                augment_config, points)
        report = evaluate_split(result.model, eval_records, train_config.seed,
                                points)
        rows.append(AblationRow(name, config, report.instance_miou,
                                report.category_miou,
                                count_parameters(result.model), init_hash,
                                parameter_hash(result.model)))
        if log is not None:
            log(rows[-1])
    return rows


def ablation_tsv(rows):
    lines = ["variant\tinstance_miou\tcategory_miou\tparams\tinit_hash\ttrained_hash"]
    lines.extend(
        f"{r.name}\t{r.instance_miou:.6f}\t{r.category_miou:.6f}\t"
        f"{r.param_count}\t{r.init_hash[:12]}\t{r.trained_hash[:12]}"
        for r in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# robustness harness
# ---------------------------------------------------------------------------

def robustness_run(model, baseline, records, seed,
                   densities=DENSITY_LEVELS, sigmas=NOISE_LEVELS):
    """Instance mIoU over the density-by-noise grid for both models.

    Each record is parsed once, and every cell is scored from those clouds
    by evaluate_split's code, so the (max density, sigma 0) cell reproduces
    the plain evaluation at that point count bit for bit under the same seed.
    """
    clouds = [r.labeled_cloud() for r in records]
    grids = {}
    models = {"pignet": model}
    if baseline is not None:
        models["pointnet"] = baseline
    for name, m in models.items():
        grids[name] = {
            (density, sigma): _score(m, records, clouds, seed, density,
                                     sigma).instance_miou
            for density in densities for sigma in sigmas}
    return grids


def robustness_tsv(grid, densities=DENSITY_LEVELS, sigmas=NOISE_LEVELS):
    lines = ["density\\sigma\t" + "\t".join(f"{s:g}" for s in sigmas)]
    for density in densities:
        cells = "\t".join(f"{grid[(density, s)]:.6f}" for s in sigmas)
        lines.append(f"{density}\t{cells}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------

def write_ply(path, points, part_ids):
    """ASCII PLY with per-vertex coordinates and palette colors by part id."""
    points = np.asarray(points, dtype=np.float64)
    part_ids = np.asarray(part_ids, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DataError(f"points must be (n, 3), got {points.shape}")
    if part_ids.shape != (points.shape[0],):
        raise DataError("one part id per point is required")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {points.shape[0]}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for (x, y, z), part in zip(points, part_ids):
            r, g, b = PART_PALETTE[int(part) % len(PART_PALETTE)]
            fh.write(f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}\n")
