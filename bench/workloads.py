"""Set-up, operations, metrics and checks of the benchmark's workloads.

A run has two phases. The first runs a fixed number of whole rounds of the
workload's own operations; ``peak_rss_mb`` is read when it ends, so the
memory figure is that of the set-up and those operations alone. The second
calls each of the other operations ``OTHER_CALLS`` times, because every run
reports every end-to-end metric. Each metric is meant to be read on the
workload named for its operation.

- ``train``: ``train_category`` at the acceptance overfit configuration.
- ``save``: ``save_checkpoint`` of the model just trained and its Adam state.
- ``eval``: ``model_from_checkpoint`` of the set-up checkpoint, then
  ``evaluate_split`` of the held-out shapes at 1024 points.
- ``grid``: ``robustness_run`` of the set-up PIG-Net and PointNet comparator
  over the 4 x 5 density-by-noise grid.
"""

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

# the operations are called through their modules, where the tracer puts
# its wrappers
from pignet import evaluation, training
from pignet.data import AugmentConfig, load_split
from pignet.errors import PignetError
from pignet.evaluation import DENSITY_LEVELS, NOISE_LEVELS
from pignet.model import ModelConfig, build_model, segmentation_loss
from pignet.seeding import EVAL, NOISE
from pignet.tensor import Tensor, backward, no_grad
from pignet.training import AdamOptimizer, TrainConfig

import checks

# inputs: one category of synthetic shapes, as the per-category method trains
CATEGORY = "lamp"
NUM_PARTS = 3
POINTS_PER_SHAPE = 2048
TRAIN_SHAPES = 16
HELD_OUT_SHAPES = 8
# train: the acceptance overfit configuration; each epoch after the first is
# one throughput sample
TRAIN_POINTS = 256
BATCH = 8
TRAIN_EPOCHS = 3
# a save takes about a tenth of a second, but the first one or two of each
# call take half again as long (the heap grows to hold the 76 MB file); ten
# samples a call keep those out of the median even where a run makes only
# two calls
SAVES_PER_OP = 10
# eval
EVAL_POINTS = 1024
LOADS_PER_EVAL = 2
# robustness: one shape per grid keeps a sample short
GRID_SHAPES = 1
# set-up: the fixture models are trained briefly, in a process of its own
# (bench/fixtures.py); the set-up runs several times and its median is
# reported
FIXTURE_SHAPES = 2
FIXTURE_EPOCHS = 2
SETUP_REPEATS = 3
FIXTURES_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "fixtures.py")

# the operations in the order a phase runs them: the saves follow the
# training, as in a training run
OPERATIONS = ("train", "save", "eval", "grid")
# workload -> its own operations, one round of the first phase
WORKLOADS = {"train": ("train", "save"), "eval": ("eval",),
             "robustness": ("grid",)}
# seconds one call of each operation takes on the machine in bench/README.md
OPERATION_SECONDS = {"train": 3.5, "save": 1.1, "eval": 1.1, "grid": 1.9}
OTHER_CALLS = 2
MIN_ROUNDS = 2

# operations counted per call of each
COUNTED = {
    "train": TRAIN_EPOCHS * -(-TRAIN_SHAPES // BATCH),
    "save": SAVES_PER_OP,
    "eval": LOADS_PER_EVAL + HELD_OUT_SHAPES,
    "grid": 2 * len(DENSITY_LEVELS) * len(NOISE_LEVELS),
}


def plan(workload, seconds):
    """(own operations, rounds of them, the other operations) of one run.

    The rounds are sized so that both phases take about ``seconds`` on the
    machine in bench/README.md. The work does not depend on how fast a run
    goes: the operations' costs depend on what ran before them in the
    process (the allocator's state), so a run that fits one more round in
    would shift its medians, and a failing operation stays the same share of
    every run.
    """
    own = WORKLOADS[workload]
    others = tuple(op for op in OPERATIONS if op not in own)
    others_s = OTHER_CALLS * sum(OPERATION_SECONDS[op] for op in others)
    round_s = sum(OPERATION_SECONDS[op] for op in own)
    return own, max(MIN_ROUNDS, round((seconds - others_s) / round_s)), others


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_shapes_per_s": "shapes/s",
    "ckpt_save_ms": "ms",
    "ckpt_load_ms": "ms",
    "eval_shapes_per_s": "shapes/s",
    "robustness_grid_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics; every *_ms figure is a median self time per call
PER_LAYER = (
    "tensor.backward_ms", "tensor.graph_nodes", "training.adam_step_ms",
    "model.loss_ms", "data.augment_ms", "layers.input_tnet_ms",
    "layers.feature_tnet_ms", "inception.stack_ms", "model.forward_ms",
    "model.baseline_forward_ms", "model.predict_ms", "data.load_cloud_ms",
    "data.load_cloud_calls", "data.normalize_ms", "data.sample_points_ms",
    "data.add_gaussian_noise_ms", "evaluation.shape_miou_ms",
    "model.build_ms", "training.ckpt_read_ms", "training.ckpt_reads_per_load",
    "training.ckpt_bytes", "training.step_ms", "training.step_unspanned_ms",
)


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name.endswith("_bytes") else "count"


def pignet_config():
    return ModelConfig(num_parts=NUM_PARTS, inception_plan=(8, 16, 24),
                       dtype="float32")


def pointnet_config():
    return ModelConfig(num_parts=NUM_PARTS, arch="pointnet", dtype="float32")


def fixture_paths(directory):
    return {"data": os.path.join(directory, "data"),
            "fixture": os.path.join(directory, "fixture.ckpt"),
            "fixture_model": os.path.join(directory, "fixture-model.ckpt"),
            "fixture_arrays": os.path.join(directory, "fixture.npz"),
            "baseline": os.path.join(directory, "baseline.ckpt")}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    if not values:
        raise RuntimeError("no samples were measured for a metric")
    return statistics.median(values)


class RunState:
    """One benchmark run: its inputs, the fixtures, and what was measured."""

    def __init__(self, seed, work_dir, tracer=None):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = {name: [] for name in END_TO_END_UNITS}
        self.train_results = []
        self.saves = 0
        self.saved = None
        self.reports = []
        self.grids = []

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Write the inputs in a child process, then load the split and the
        grid's two models; returns the seconds taken."""
        start = time.perf_counter()
        root = os.path.join(self.work_dir, "setup")
        shutil.rmtree(root, ignore_errors=True)
        subprocess.run([sys.executable, FIXTURES_SCRIPT, root,
                        str(self.seed)], check=True)
        self.paths = fixture_paths(root)
        self.split = load_split(self.paths["data"], CATEGORY)
        self.fixture = training.model_from_checkpoint(
            self.paths["fixture_model"])
        self.baseline = training.model_from_checkpoint(self.paths["baseline"])
        return time.perf_counter() - start

    # -- operations ---------------------------------------------------------

    def run(self, op):
        """One call of ``op``; a call that raises counts all its operations
        as failed and the run goes on."""
        self.attempted += COUNTED[op]
        if self.tracer is not None:
            self.tracer.op = op
        try:
            getattr(self, "_" + op)()
        except (PignetError, ArithmeticError, ValueError, OSError):
            self.failed += COUNTED[op]
            traceback.print_exc(file=sys.stderr)
        finally:
            if self.tracer is not None:
                self.tracer.op = None

    def _train(self):
        stamps = []
        config = TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed,
                             batch_size=BATCH)
        result = training.train_category(
            self.split.train, pignet_config(), config, AugmentConfig(),
            TRAIN_POINTS, log=lambda entry: stamps.append(time.perf_counter()))
        # the first epoch also parses, samples and builds; it is left out
        self.samples["train_shapes_per_s"].extend(
            TRAIN_SHAPES / (b - a) for a, b in zip(stamps, stamps[1:]))
        self.train_results.append(result)

    def _save(self):
        """``save_checkpoint`` of the latest trained model with its Adam
        state, each time to a new file, as ``pignet train`` writes into a
        new run directory: renaming over an existing file makes ext4 start
        writing the new one back at once, and the disk's speed would then
        set the figure."""
        latest = self.train_results[-1]
        for _ in range(SAVES_PER_OP):
            previous = self.saved
            self.saves += 1
            path = os.path.join(self.work_dir, f"saved-{self.saves}.ckpt")
            start = time.perf_counter()
            training.save_checkpoint(path, latest.model, latest.optimizer,
                                     len(latest.history), latest.rng_state)
            self.samples["ckpt_save_ms"].append(
                1000.0 * (time.perf_counter() - start))
            self.saved = (path, latest)
            if previous is not None:
                os.remove(previous[0])

    def _eval(self):
        for _ in range(LOADS_PER_EVAL):
            start = time.perf_counter()
            model = training.model_from_checkpoint(self.paths["fixture"])
            self.samples["ckpt_load_ms"].append(
                1000.0 * (time.perf_counter() - start))
        start = time.perf_counter()
        report = evaluation.evaluate_split(model, self.split.test, self.seed,
                                           EVAL_POINTS)
        self.samples["eval_shapes_per_s"].append(
            len(self.split.test) / (time.perf_counter() - start))
        self.loaded = model
        self.reports.append(report)

    def _grid(self):
        start = time.perf_counter()
        grids = evaluation.robustness_run(self.fixture, self.baseline,
                                          self.split.test[:GRID_SHAPES],
                                          self.seed)
        self.samples["robustness_grid_s"].append(time.perf_counter() - start)
        self.grids.append(grids)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, setup_s, rss_mb):
        values = {name: _median(samples)
                  for name, samples in self.samples.items()
                  if name not in ("setup_s", "peak_rss_mb")}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = rss_mb
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, own):
    """Per-layer figures from the spans of a traced run.

    A layer's figure comes from the spans run under the workload's own
    operations. Every run reports every per-layer metric, so a layer that
    never runs there, such as ``backward`` in ``eval``, is read from the
    other operations of the second phase.
    """
    self_s = tracer.self_times()
    steps = tracer.training_steps(self_s)

    def median(values, scale=1.0):
        values = list(values)
        return scale * statistics.median(values) if values else 0.0

    figures = {}
    for name in PER_LAYER:
        if name.endswith("_ms"):
            span = name[:-len("_ms")]
            picked = tracer.select(span, own)
            figures[name] = median((self_s[i] for i in picked), 1000.0)
    figures["tensor.graph_nodes"] = median(
        tracer.count_values("tensor.graph_nodes", own))
    figures["training.ckpt_bytes"] = median(
        tracer.count_values("training.ckpt_bytes", own))
    # parses per shape of one grid run: one per cell per model at the start
    figures["data.load_cloud_calls"] = tracer.calls_per(
        "data.load_cloud", "evaluation.robustness_run") / GRID_SHAPES
    figures["training.ckpt_reads_per_load"] = tracer.calls_per(
        "training.ckpt_read", "training.model_from_checkpoint")
    figures["training.step_ms"] = median((w for w, _ in steps), 1000.0)
    figures["training.step_unspanned_ms"] = median(
        (w - c for w, c in steps), 1000.0)
    return {name: {"value": float(figures[name]), "unit": per_layer_unit(name)}
            for name in PER_LAYER}


# ---------------------------------------------------------------------------
# checks, run after the timed region
# ---------------------------------------------------------------------------

def check_train(state):
    checks.require(state.train_results and state.saved,
                   "no train_category or save_checkpoint call succeeded")
    traces = [[h["train_loss"] for h in result.history]
              for result in state.train_results]
    checks.check_loss_trace(traces[0])
    # every call repeats the same seeded training, so each is a replay
    for trace in traces[1:]:
        checks.check_replay(traces[0], trace)
    _check_loss_and_gradients(state)
    _check_adam(state.seed)
    path, result = state.saved
    meta, arrays = checks.read_checkpoint_file(path)
    expected = model_arrays(result.model)
    expected.update(("adam_m/" + n, a) for n, a in result.optimizer.m.items())
    expected.update(("adam_v/" + n, a) for n, a in result.optimizer.v.items())
    checks.check_arrays_equal(expected, arrays, "checkpoint read back")
    checks.require(meta.get("adam_step_count") == result.optimizer.step_count,
                   "checkpoint Adam step count differs from the optimizer's")


def gradient_problem(seed, split):
    """A float64 PIG-Net at reduced widths, with both T-Nets, on a batch of
    two 16-point clouds. Returns (named parameters, step), where step() runs
    a training-mode forward pass and returns (logits, feature matrix,
    labels, lambda_reg, loss)."""
    config = ModelConfig(num_parts=NUM_PARTS, inception_plan=(4, 8),
                         tnet_conv_widths=(8, 8, 16), tnet_fc_widths=(8, 8),
                         head_widths=(8, 8), lambda_reg=1.0, dtype="float64")
    model = build_model(config, seed=seed)
    rng = checks.generator(seed, 101)
    # move the T-Nets off their identity start, where the regularizer is
    # flat, but only slightly: at a scale of 0.1 the regularizer reaches 1e4
    # to 5e4 beside a cross entropy near 1.5, and the rounding of the loss
    # then swamps the head's gradients of 1e-3 in difference quotients
    for tnet in (model.input_tnet, model.feature_tnet):
        tnet.out.weight.data[:] = rng.normal(0.0, 0.01, tnet.out.weight.shape)
    pts, labels = [], []
    for i, rec in enumerate(split.train[:2]):
        p, l = checks.read_shape(rec.points_path, rec.labels_path)
        p, l = checks.sample(p, l, 16, (seed, 102, i))
        pts.append(p)
        labels.append(l)
    batch = Tensor(np.stack(pts))
    labels = np.stack(labels)

    def step():
        logits, matrix = model.forward(batch, training=True)
        loss = segmentation_loss(logits, labels, matrix, config.lambda_reg)
        return logits, matrix, labels, config.lambda_reg, loss

    return model.named_parameters(), step


def gradient_sample(seed, named, step):
    """Analytic gradients, drawn coordinates and one-sided differences."""
    params = [p for _, p in named]
    for p in params:
        p.grad = None
    backward(step()[-1])
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    coords = checks.draw_coordinates(params, 2, checks.generator(seed, 103))
    with no_grad():
        numeric = [checks.one_sided_differences(lambda: step()[-1].item(),
                                                params, coords, h)
                   for h in (1e-5, 1e-6)]
    return analytic, coords, numeric


def _check_loss_and_gradients(state):
    named, step = gradient_problem(state.seed, state.split)
    logits, matrix, labels, lambda_reg, loss = step()
    checks.check_loss(loss.item(), logits.data, labels, matrix.data,
                      lambda_reg, rtol=1e-12)
    analytic, coords, numeric = gradient_sample(state.seed, named, step)
    checks.check_gradients([n for n, _ in named], analytic, coords, numeric)


def adam_sample(seed, steps=3):
    """Run AdamOptimizer on two float64 tensors; yield after every step
    (name, parameter, m, v, closed-form reference)."""
    rng = checks.generator(seed, 104)
    initial = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    params = [(n, Tensor(v.copy(), requires_grad=True))
              for n, v in initial.items()]
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = AdamOptimizer(params, lr, beta1, beta2, eps)
    grads = {n: [rng.normal(size=v.shape) for _ in range(steps)]
             for n, v in initial.items()}
    for t in range(1, steps + 1):
        for n, p in params:
            p.grad = grads[n][t - 1].copy()
        opt.step()
        for n, p in params:
            yield (n, p.data, opt.m[n], opt.v[n],
                   checks.adam_reference(initial[n], grads[n][:t], lr, beta1,
                                         beta2, eps))


def _check_adam(seed):
    for name, param, m, v, reference in adam_sample(seed):
        checks.check_adam(param, m, v, reference, name)


def model_arrays(model):
    arrays = {"param/" + n: p.data for n, p in model.named_parameters()}
    arrays.update(("state/" + n, a) for n, a in model.named_state())
    return arrays


def check_eval(state):
    checks.require(state.reports, "no evaluate_split call succeeded")
    model = state.loaded
    with np.load(state.paths["fixture_arrays"]) as written:
        checks.check_arrays_equal(dict(written), model_arrays(model),
                                  "loaded model")
    report = state.reports[-1]
    for other in state.reports[:-1]:
        checks.require([r.miou for r in other.shapes]
                       == [r.miou for r in report.shapes],
                       "evaluate_split gave different mIoU on a repeat")
    records = state.split.test
    checks.require(len(report.shapes) == len(records),
                   f"report holds {len(report.shapes)} shapes, not "
                   f"{len(records)}")
    first = None
    for i, (rec, shape) in enumerate(zip(records, report.shapes)):
        pts, labels = checks.read_shape(rec.points_path, rec.labels_path)
        pts, labels = checks.sample(pts, labels, EVAL_POINTS,
                                    (state.seed, EVAL, i))
        pred = model.predict(pts)
        checks.check_miou(shape.miou, pred, labels, NUM_PARTS, rec.shape_id)
        first = first or (pts, pred)
    pts, pred = first
    perm = checks.generator(state.seed, 105).permutation(pts.shape[0])
    with no_grad():
        logits, _ = model.forward(pts, training=False)
    checks.check_equivariance(pred, model.predict(pts[perm]), perm,
                              checks.top2_margin(logits.data), tol=1e-4)
    recorded, _ = model.forward(pts, training=False)
    checks.require(recorded.requires_grad,
                   "forward with recording on built no graph")
    checks.check_same_labels(np.argmax(recorded.data, axis=-1), pred,
                             "predict against argmax of a recorded forward")


def check_robustness(state):
    checks.require(state.grids, "no robustness_run call succeeded")
    grids = state.grids[-1]
    for other in state.grids[:-1]:
        checks.require(other == grids,
                       "robustness_run gave a different grid on a repeat")
    records = state.split.test[:GRID_SHAPES]
    models = {"pignet": state.fixture, "pointnet": state.baseline}
    checks.require(set(grids) == set(models),
                   f"grids for {sorted(grids)}, not {sorted(models)}")
    cells = [(d, s) for d in DENSITY_LEVELS for s in NOISE_LEVELS
             if (d, s) != (max(DENSITY_LEVELS), 0.0)]
    rng = checks.generator(state.seed, 106)
    shapes = [checks.read_shape(r.points_path, r.labels_path) for r in records]
    for name, model in models.items():
        plain = evaluation.evaluate_split(model, records, state.seed,
                                          max(DENSITY_LEVELS))
        checks.check_grid(grids[name], plain.instance_miou, DENSITY_LEVELS,
                          NOISE_LEVELS, name)
        for k in rng.choice(len(cells), size=2, replace=False):
            density, sigma = cells[k]
            mious = []
            for i, (pts, labels) in enumerate(shapes):
                p, l = checks.sample(pts, labels, density,
                                     (state.seed, EVAL, i))
                p = checks.gaussian_noise(p, sigma, (state.seed, NOISE, i))
                mious.append(checks.confusion_miou(model.predict(p), l,
                                                   NUM_PARTS))
            mine = sum(mious) / len(mious)
            checks.require(abs(grids[name][(density, sigma)] - mine) <= 1e-12,
                           f"{name} cell {(density, sigma)}: grid "
                           f"{grids[name][(density, sigma)]!r}, recomputed "
                           f"{mine!r}")


CHECKS = {"train": check_train, "eval": check_eval,
          "robustness": check_robustness}
