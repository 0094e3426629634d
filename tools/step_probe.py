"""Time and trace one float32 training step of PIG-Net, op by op.

Builds the paper's network in float32 (inception plan ``--plan``,
``feature_reduce = 64``, 4 parts), runs one untimed warm-up step on random
points, then one step under ``tracemalloc`` on ``--batch`` fresh clouds of
``--points`` points each, and prints:

- the forward, backward and Adam times, in ms;
- the backward time of each op's rules, summed over its nodes; every
  recorded node's rule is wrapped with a timer before ``backward()`` runs,
  and ``other`` is the rest of the walk (``_accumulate`` and freeing);
- the step's traced peak above where it began, and the process's max RSS,
  in MiB.

    python3 tools/step_probe.py [--plan 64,128,256,512] [--points 1024]
                                [--batch 8]

``--points 10000`` probes PartNet-sized clouds: it needs about 4 GiB and
half a minute a step. The times are taken with ``tracemalloc`` on, which
slows the Python around each op a little; the numpy work is not traced.
"""

import argparse
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pignet.model import (ModelConfig, build_model,  # noqa: E402
                          segmentation_loss)
from pignet.tensor import Tensor, backward, graph_order  # noqa: E402
from pignet.training import AdamOptimizer, TrainConfig  # noqa: E402

PARTS = 4
FEATURE_REDUCE = 64


def _plan(text):
    return tuple(int(e) for e in text.split(","))


def _timed(fn, op, spent):
    def rule(g):
        start = time.perf_counter()
        grads = fn(g)
        spent[op] += time.perf_counter() - start
        return grads
    return rule


def step(model, optimizer, batch, labels, spent=None):
    """One training step; returns its (forward, backward, Adam) seconds.
    With ``spent``, each op's rule time is added into it."""
    start = time.perf_counter()
    logits, mat = model.forward(batch, training=True)
    loss = segmentation_loss(logits, labels, mat, model.config.lambda_reg)
    del logits, mat
    forward = time.perf_counter()
    if spent is not None:
        for node in graph_order(loss):
            if node._backward_fn is not None:
                node._backward_fn = _timed(node._backward_fn, node._op, spent)
    wrapped = time.perf_counter()
    backward(loss)
    done = time.perf_counter()
    optimizer.step()
    optimizer.zero_grad()
    return forward - start, done - wrapped, time.perf_counter() - done


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--plan", type=_plan, default=(64, 128, 256, 512))
    parser.add_argument("--points", type=int, default=1024)
    parser.add_argument("--batch", type=int, default=8)
    args = parser.parse_args(argv)
    config = ModelConfig(num_parts=PARTS, inception_plan=args.plan,
                         feature_reduce=FEATURE_REDUCE, dtype="float32")
    model = build_model(config, seed=0)
    optimizer = AdamOptimizer.for_model(model, TrainConfig(epochs=1))
    rng = np.random.default_rng(0)

    def clouds():
        points = rng.normal(size=(args.batch, args.points, 3))
        return (Tensor(points.astype(np.float32)),
                rng.integers(0, PARTS, size=(args.batch, args.points)))

    step(model, optimizer, *clouds())
    batch, labels = clouds()
    spent = defaultdict(float)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        forward, back, adam = step(model, optimizer, batch, labels, spent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"plan {','.join(map(str, args.plan))}, feature_reduce "
          f"{FEATURE_REDUCE}, {PARTS} parts, float32, batch {args.batch} x "
          f"{args.points} points")
    print(f"forward   {forward * 1e3:9.1f} ms")
    print(f"backward  {back * 1e3:9.1f} ms")
    for op, seconds in sorted(spent.items(), key=lambda item: -item[1]):
        print(f"  {op:<20}{seconds * 1e3:9.1f} ms")
    print(f"  {'other':<20}{(back - sum(spent.values())) * 1e3:9.1f} ms")
    print(f"adam      {adam * 1e3:9.1f} ms")
    print(f"traced peak {(peak - before) / 2**20:9.1f} MiB")
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"max rss     {max_rss / 2**10:9.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
