"""Correctness checks of the benchmark's outputs.

Each check compares what pignet returned with a computation made here with
numpy alone, or with a property the method must have. None compares against
a stored copy of earlier output. A failed check raises ``CheckFailed``.
"""

import json
import math
import struct

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the data path, rebuilt with numpy
# ---------------------------------------------------------------------------

def generator(*entropy):
    """numpy's PCG64 seeded from a tuple of integers, as pignet seeds."""
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.Generator(np.random.PCG64(seq))


def read_shape(points_path, labels_path):
    """Parse a shape, centre it and scale its farthest point to norm 1."""
    points = np.loadtxt(points_path, dtype=np.float64, ndmin=2)
    labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
    centered = points - points.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1).max(), labels


def sample(points, labels, m, entropy):
    """m points drawn uniformly, without replacement when there are enough."""
    n = points.shape[0]
    idx = generator(*entropy).choice(n, size=m, replace=n < m)
    return points[idx], labels[idx]


def gaussian_noise(points, sigma, entropy):
    if sigma == 0:
        return points
    return points + generator(*entropy).normal(0.0, sigma, points.shape)


# ---------------------------------------------------------------------------
# mIoU
# ---------------------------------------------------------------------------

def confusion_miou(pred, gt, num_parts):
    """Mean part IoU from a confusion matrix; a part in neither counts 1."""
    conf = np.zeros((num_parts, num_parts), dtype=np.int64)
    np.add.at(conf, (np.asarray(gt), np.asarray(pred)), 1)
    ious = []
    for part in range(num_parts):
        hit = conf[part, part]
        union = conf[part, :].sum() + conf[:, part].sum() - hit
        ious.append(1.0 if union == 0 else hit / union)
    return sum(ious) / num_parts


def check_miou(reported, pred, gt, num_parts, what):
    mine = confusion_miou(pred, gt, num_parts)
    require(abs(reported - mine) <= 1e-12,
            f"{what}: reported mIoU {reported!r}, confusion matrix gives "
            f"{mine!r}")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def draw_coordinates(params, per_tensor, rng):
    """``per_tensor`` random flat indices in every parameter tensor."""
    return [rng.choice(p.size, size=min(per_tensor, p.size), replace=False)
            for p in params]


def one_sided_differences(loss_of, params, coords, step):
    """(f(x + h) - f(x)) / h and (f(x) - f(x - h)) / h at each drawn
    coordinate, as a pair of arrays per parameter tensor."""
    base = loss_of()
    differences = []
    for p, idx in zip(params, coords):
        flat = p.data.reshape(-1)  # a view: writes reach the parameter
        forward, backward = [], []
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            upper = loss_of()
            flat[i] = orig - step
            lower = loss_of()
            flat[i] = orig
            forward.append((upper - base) / step)
            backward.append((base - lower) / step)
        differences.append((np.array(forward), np.array(backward)))
    return differences


def check_gradients(names, analytic, coords, differences_by_step, rtol=1e-4,
                    atol=1e-7):
    """Analytic gradients must lie between the one-sided difference
    quotients of at least one step size at every drawn coordinate.

    Where the loss is smooth the two quotients straddle the derivative
    within about |f''| h, so this is as tight as comparing with the central
    difference. ReLU and max pooling leave kinks, and a coordinate can sit
    on one (a ReLU input of exactly 0, as a bias of 0 behind a dead unit
    gives) or within h of it; there the quotients are the slopes on either
    side, the central difference is neither, and backward returns the slope
    of one side.
    """
    for name, grad, idx, *steps in zip(names, analytic, coords,
                                       *differences_by_step):
        got = grad.reshape(-1)[idx]
        close = np.zeros(len(idx), dtype=bool)
        for forward, backward in steps:
            tol = atol + rtol * np.maximum(
                np.abs(got), np.maximum(np.abs(forward), np.abs(backward)))
            close |= (got >= np.minimum(forward, backward) - tol) & \
                     (got <= np.maximum(forward, backward) + tol)
        bad = np.flatnonzero(~close)
        if bad.size:
            k = bad[0]
            raise CheckFailed(
                f"gradient of {name} at flat index {idx[k]}: backward gives "
                f"{got[k]!r}, one-sided differences "
                f"{[(float(f[k]), float(b[k])) for f, b in steps]}")


# ---------------------------------------------------------------------------
# loss, Adam, training trace
# ---------------------------------------------------------------------------

def reference_loss(logits, labels, matrix, lambda_reg):
    """Mean cross entropy plus lambda * ||I - A A^T||_F^2, the penalty
    averaged over a batch of matrices."""
    flat = np.asarray(logits, dtype=np.float64).reshape(-1, logits.shape[-1])
    labels = np.asarray(labels).reshape(-1)
    top = flat.max(axis=1, keepdims=True)
    log_z = top[:, 0] + np.log(np.exp(flat - top).sum(axis=1))
    loss = float(np.mean(log_z - flat[np.arange(flat.shape[0]), labels]))
    if matrix is not None and lambda_reg > 0:
        a = np.asarray(matrix, dtype=np.float64)
        a = a.reshape((-1,) + a.shape[-2:])
        eye = np.eye(a.shape[-1])
        penalty = ((eye - a @ np.swapaxes(a, -1, -2)) ** 2).sum(axis=(1, 2))
        loss += lambda_reg * float(penalty.mean())
    return loss


def check_loss(returned, logits, labels, matrix, lambda_reg, rtol):
    mine = reference_loss(logits, labels, matrix, lambda_reg)
    require(abs(returned - mine) <= rtol * max(1.0, abs(mine)),
            f"loss {returned!r} differs from cross entropy plus "
            f"regularizer {mine!r}")


def adam_reference(initial, grads, lr, beta1, beta2, eps):
    """Closed-form Adam after len(grads) steps: the moments as weighted sums
    of every gradient so far, the parameter as the sum of every update."""
    param = np.array(initial, dtype=np.float64)
    for t in range(1, len(grads) + 1):
        m = sum((1 - beta1) * beta1 ** (t - i) * g
                for i, g in enumerate(grads[:t], start=1))
        v = sum((1 - beta2) * beta2 ** (t - i) * g * g
                for i, g in enumerate(grads[:t], start=1))
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def check_adam(param, m, v, reference, what):
    for label, got, want in zip(("parameter", "first moment", "second moment"),
                                (param, m, v), reference):
        require(np.allclose(got, want, rtol=1e-10, atol=1e-15),
                f"Adam {label} of {what} is off the closed-form update by "
                f"{np.max(np.abs(np.asarray(got) - want)):.3g}")


def check_loss_trace(losses):
    require(all(math.isfinite(x) for x in losses),
            f"loss trace holds a non-finite value: {losses}")
    require(losses[-1] < losses[0],
            f"last epoch's loss {losses[-1]} is not below the first's "
            f"{losses[0]}")


def check_replay(first, replay):
    require(first[:len(replay)] == replay,
            f"replay loss trace {replay} differs from the first run's {first}")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

MAGIC = b"PIGNET01"


def read_checkpoint_file(path):
    """Parse the documented checkpoint layout: magic, u32 metadata length,
    JSON metadata, then per tensor a u32 name length, the name, u32 rank,
    u64 extents and little-endian float64 values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:8] == MAGIC, f"{path} lacks the checkpoint magic")
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + meta_len
    meta = json.loads(blob[12:pos])
    arrays = {}
    for _ in range(meta["tensor_count"]):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode()
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        shape = struct.unpack_from(f"<{rank}Q", blob, pos + 4)
        pos += 4 + 8 * rank
        count = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(blob, "<f8", count, pos).reshape(shape)
        pos += 8 * count
    require(pos == len(blob), f"{path} has {len(blob) - pos} trailing bytes")
    return meta, arrays


def check_arrays_equal(expected, got, what):
    """Every expected array is present with the same float64 bytes."""
    missing = sorted(set(expected) - set(got))
    require(not missing, f"{what} lacks {missing[:3]}")
    for name, want in expected.items():
        a = np.ascontiguousarray(want, dtype="<f8")
        b = np.ascontiguousarray(got[name], dtype="<f8")
        require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"{what}: {name} differs from the values written")


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def top2_margin(logits):
    """Per point, how far the best logit lies above the second best."""
    top2 = np.sort(logits, axis=-1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


def check_equivariance(pred, pred_permuted, perm, margin, tol):
    """Predicting a permuted cloud must permute the predictions.

    Points whose two best logits lie within ``tol`` may flip: reordering
    changes the summation order of the pooled mean in the last bits.
    """
    differ = np.flatnonzero(pred_permuted != pred[perm])
    require(np.all(margin[perm][differ] <= tol),
            f"{differ.size} predictions do not follow a permutation of the "
            f"points (first at permuted index {differ[:1].tolist()})")


def check_same_labels(a, b, what):
    require(np.array_equal(a, b),
            f"{what}: {int(np.sum(a != b))} labels differ")


def check_grid(grid, identity, densities, sigmas, what):
    require(set(grid) == {(d, s) for d in densities for s in sigmas},
            f"{what}: grid cells {sorted(grid)} are not the full "
            f"{len(densities)}x{len(sigmas)} grid")
    bad = [cell for cell, value in grid.items() if not 0.0 <= value <= 1.0]
    require(not bad, f"{what}: cells {bad} lie outside [0, 1]")
    top = (max(densities), 0.0)
    require(grid[top] == identity,
            f"{what}: uncorrupted cell {grid[top]!r} differs from the plain "
            f"evaluation {identity!r}")
