"""Self-tests of the benchmark's checks.

Each test first shows that a check accepts a right answer, then that it
rejects a deliberately wrong one. Runs in a few seconds:

    python3 bench/selftest.py

The tests import pignet and the benchmark's modules inside their bodies:
``main`` must first put this checkout's ``src/`` on the path.
"""

import os
import shutil
import sys
import tempfile

from run import WORK, use_checkout_sources


def rejects(check, *args, **kwargs):
    import checks
    try:
        check(*args, **kwargs)
    except checks.CheckFailed:
        return True
    return False


def flipped_label(_):
    """One flipped predicted label changes the shape's mIoU."""
    import numpy as np
    import checks
    from pignet.evaluation import shape_miou
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 3, 300)
    pred = np.where(rng.random(300) < 0.8, gt, rng.integers(0, 3, 300))
    reported = shape_miou(pred, gt, 3)
    checks.check_miou(reported, pred, gt, 3, "right labels")
    wrong = pred.copy()
    i = int(np.flatnonzero(pred == gt)[0])
    wrong[i] = (wrong[i] + 1) % 3
    return rejects(checks.check_miou, reported, wrong, gt, 3, "flipped label")


def perturbed_gradient(split):
    """One gradient entry off by a thousandth of its size."""
    import checks
    import workloads
    named, loss = workloads.gradient_problem(5, split)
    analytic, coords, numeric = workloads.gradient_sample(5, named, loss)
    names = [n for n, _ in named]
    checks.check_gradients(names, analytic, coords, numeric)
    k = len(names) // 2
    entry = coords[k][0]
    analytic[k].reshape(-1)[entry] += 1e-3 * (1.0 + abs(
        analytic[k].reshape(-1)[entry]))
    return rejects(checks.check_gradients, names, analytic, coords, numeric)


def wrong_adam_moment(_):
    """A first moment off in one entry after the first step."""
    import checks
    import workloads
    name, param, m, v, reference = next(workloads.adam_sample(5))
    checks.check_adam(param, m, v, reference, name)
    wrong = m.copy()
    wrong.flat[0] += 1e-6
    return rejects(checks.check_adam, param, wrong, v, reference, name)


def noncommuting_permutation(split):
    """Predictions of a permuted cloud compared under another permutation."""
    import numpy as np
    import checks
    import workloads
    from pignet.model import build_model
    from pignet.tensor import no_grad
    model = build_model(workloads.pignet_config(), seed=5)
    # a fresh head predicts one part everywhere; re-draw it so parts vary
    out = model.head_out.weight
    out.data[:] = np.random.default_rng(5).normal(0.0, 1.0, out.shape)
    pts, _ = checks.read_shape(split.train[0].points_path,
                               split.train[0].labels_path)
    pred = model.predict(pts)
    with no_grad():
        logits, _ = model.forward(pts, training=False)
    margin = checks.top2_margin(logits.data)
    perm = np.random.default_rng(5).permutation(pts.shape[0])
    permuted = model.predict(pts[perm])
    checks.check_equivariance(pred, permuted, perm, margin, tol=1e-4)
    # swap two targets whose predictions differ, both far from a tie
    clear = np.flatnonzero(margin[perm] > 1e-3)
    a = clear[0]
    b = next(j for j in clear if pred[perm[j]] != pred[perm[a]])
    wrong = perm.copy()
    wrong[[a, b]] = wrong[[b, a]]
    return rejects(checks.check_equivariance, pred, permuted, wrong, margin,
                   tol=1e-4)


def checkpoint_byte(split):
    """One byte changed in an array read back from a checkpoint."""
    import numpy as np
    import checks
    from pignet.data import AugmentConfig
    from pignet.model import ModelConfig
    from pignet.training import TrainConfig, save_checkpoint, train_category
    config = ModelConfig(num_parts=3, inception_plan=(4, 8),
                         tnet_conv_widths=(8, 8, 16), tnet_fc_widths=(8, 8),
                         head_widths=(8, 8), dtype="float32")
    result = train_category(split.train, config,
                            TrainConfig(epochs=1, seed=5, batch_size=2),
                            AugmentConfig(), points=32)
    path = os.path.join(os.path.dirname(split.train[0].points_path),
                        "selftest.ckpt")
    save_checkpoint(path, result.model, result.optimizer)
    _, arrays = checks.read_checkpoint_file(path)
    expected = {"param/" + n: p.data
                for n, p in result.model.named_parameters()}
    expected.update(("adam_m/" + n, a) for n, a in result.optimizer.m.items())
    checks.check_arrays_equal(expected, arrays, "checkpoint")
    name = "adam_m/" + next(iter(result.optimizer.m))
    changed = dict(arrays)
    changed[name] = arrays[name].copy()
    changed[name].reshape(-1).view(np.uint8)[3] ^= 0x10
    return rejects(checks.check_arrays_equal, expected, changed, "checkpoint")


TESTS = (flipped_label, perturbed_gradient, wrong_adam_moment,
         noncommuting_permutation, checkpoint_byte)


def main():
    use_checkout_sources()
    import checks
    from pignet.data import load_split, write_synth_dataset
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        write_synth_dataset(work, ["lamp"], count=2, seed=5,
                            points_per_shape=256)
        split = load_split(work, "lamp")
        failures = 0
        for test in TESTS:
            try:
                ok = test(split)
            except checks.CheckFailed as exc:
                print(f"FAIL {test.__name__}: a right answer was rejected: "
                      f"{exc}")
                failures += 1
                continue
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {test.__name__}: "
                  f"{test.__doc__.strip()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
