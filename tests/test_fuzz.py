"""Property tests over malformed input: generated points and label text, INI
text, and edited checkpoints. Whatever the input, only a PignetError may
escape, and a failed checkpoint load leaves the model as it was. A last
property draws small graphs of the recording ops and checks ``backward()``
on each against difference quotients and its own ownership rules."""

import functools
import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pignet.cli
from pignet.cli import load_run_config
from pignet.data import load_cloud
from pignet.errors import PignetError, UsageError
from pignet.layers import BatchNorm, Module, channel_window_max
from pignet.model import ModelConfig, build_model, config_hash
from pignet.tensor import (Tensor, backward, concat, cross_entropy,
                           graph_order, matmul, no_grad, reduce_max,
                           reduce_mean, reduce_sum, relu, repeat_rows,
                           reshape, transpose_last2)
from pignet.training import (MAGIC, AdamOptimizer, TrainConfig,
                             load_checkpoint, model_from_checkpoint,
                             parameter_hash, save_checkpoint)


def fuzz(examples):
    """Fixed examples, so every run tries the same inputs, and no timing."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


SIZES = st.integers(-10**20, 10**20)


def as_file(lines):
    """The lines as a UTF-8 file or, one time in eight, as raw bytes."""
    text = "\n".join(lines).encode()
    return st.sampled_from([False] * 7 + [True]).flatmap(
        lambda raw: st.binary(max_size=24) if raw else st.just(text))


JUNK = st.one_of(
    st.floats().map(repr), SIZES.map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "1_0", "0x10", "",
                     "--1", "\u0663", "\r", "\t", "#", "%"]),
    st.text(max_size=3))
TRIPLE = st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr)
                  | SIZES.map(str), min_size=3, max_size=3)
POINT_LINES = st.one_of(TRIPLE, TRIPLE, TRIPLE,
                        st.lists(JUNK, max_size=4)).map(" ".join)
LABEL = (st.integers(0, 2**70) | st.sampled_from([2**63 - 1, 2**63, 2**64])
         ).map(str)  # with the edges of int64
LABEL_LINES = st.one_of(LABEL, LABEL, LABEL, JUNK)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def cloud_files(draw):
    """A points file and a labels file of about as many lines."""
    rows = draw(st.integers(1, 5))
    points = draw(st.lists(POINT_LINES, min_size=rows, max_size=rows))
    count = max(rows + draw(st.sampled_from([0, 0, 0, 0, 1, -1])), 0)
    labels = draw(st.lists(LABEL_LINES, min_size=count, max_size=count))
    return draw(as_file(points)), draw(as_file(labels))


@fuzz(600)
@given(files=cloud_files())
def test_load_cloud_raises_only_pignet_errors(workdir, files):
    points, labels = files
    (workdir / "c.pts").write_bytes(points)
    (workdir / "c.seg").write_bytes(labels)
    try:
        cloud = load_cloud(workdir / "c.pts", workdir / "c.seg")
    except PignetError:
        return
    assert cloud.n >= 1 and np.isfinite(cloud.points).all()
    assert cloud.labels.shape == (cloud.n,) and cloud.labels.min() >= 0


INI_VALUES = JUNK | st.sampled_from([
    "on", "off", "yes", "auto", "none", "4,8", "4,,8", "pointnet", "float32",
    "0.9,1.1", "1.1,0.9", "-1", "0", "100000000000000000000"])


@st.composite
def ini_files(draw):
    """Sections, mostly known ones, of mostly known keys, now and then with
    a line that is not an entry."""
    rarely = st.sampled_from([False] * 7 + [True])
    names = draw(st.lists(st.sampled_from([*pignet.cli._SCHEMA, "DEFAULT"]),
                          unique=True))
    lines = []
    for name in names + ["extra"] * draw(rarely):
        keys = list(pignet.cli._SCHEMA.get(name, ["points"]))
        entries = draw(st.dictionaries(
            st.sampled_from(keys + ["bogus"] * draw(rarely)), INI_VALUES,
            max_size=4))
        lines += [f"[{name}]", *map("{0[0]} = {0[1]}".format, entries.items())]
        if draw(rarely):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.text(max_size=6)))
    return draw(as_file(lines))


@fuzz(600)
@given(text=ini_files())
def test_load_run_config_raises_only_pignet_errors(workdir, text):
    path = workdir / "run.ini"
    path.write_bytes(text)
    try:
        cfg = load_run_config(path)
        cfg.model_config(cfg.model_kwargs["num_parts"] or 4)
    except PignetError:
        pass


def tiny_config():
    return ModelConfig(num_parts=3, inception_plan=(4, 8),
                       tnet_conv_widths=(4, 8, 16), tnet_fc_widths=(8, 8),
                       head_widths=(8, 8), feature_reduce=6)


@pytest.fixture(scope="module")
def saved(workdir):
    """The checkpoint of a tiny model with Adam state."""
    model = build_model(tiny_config(), seed=0)
    path = workdir / "saved.ckpt"
    save_checkpoint(path, model, AdamOptimizer.for_model(
        model, TrainConfig(epochs=1)), epoch=2)
    return path


@functools.cache
def layout(path):
    """The bytes of a checkpoint, the offsets of every byte that is not
    tensor data, and the (name, start, end) of every record."""
    blob = path.read_bytes()
    pos = len(MAGIC) + 4 + struct.unpack_from("<I", blob, len(MAGIC))[0]
    offsets = list(range(pos))
    records = []
    while pos < len(blob):
        start = pos
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode()
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
        pos += 8 + name_len
        shape = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        offsets.extend(range(start, pos))
        pos += 8 * math.prod(shape)
        records.append((name, start, pos))
    return blob, offsets, tuple(records)


# positive sizes spread evenly over the decades up to 1e20
GROWN = st.integers(1, 20).flatmap(lambda e: st.integers(10**(e - 1), 10**e))
META_VALUES = st.one_of(
    GROWN, GROWN, st.lists(GROWN, min_size=1, max_size=4),
    st.lists(GROWN, min_size=1, max_size=4), SIZES, st.lists(SIZES),
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), SIZES, max_size=2))
CONFIG_KEYS = [*ModelConfig.__dataclass_fields__, "depth"]
META_KEYS = ["tensor_count", "epoch", "adam_step_count", "config_hash",
             "config", "rng_state"]
# (kind, change, whether to rewrite config_hash to match the config)
EDITS = st.one_of(
    # (a byte outside the tensor data, or any byte; which one; new value)
    st.tuples(st.just("bytes"), st.lists(st.tuples(
        st.booleans(), st.integers(0, 2**20), st.integers(0, 255)),
        min_size=1, max_size=4), st.just(False)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20), st.just(False)),
    st.tuples(st.just("config"), st.dictionaries(
        st.sampled_from(CONFIG_KEYS), META_VALUES, min_size=1, max_size=3),
        st.booleans()),
    st.tuples(st.just("meta"), st.dictionaries(
        st.sampled_from(META_KEYS), META_VALUES, min_size=1, max_size=1),
        st.just(False)),
    # (an edit of one record: duplicate it, drop it, or rename a param/ or
    # state/ record to another record's name or to a new one; which record;
    # the new name; whether tensor_count follows the record count)
    st.tuples(st.just("records"), st.tuples(
        st.sampled_from(["duplicate", "drop", "rename"]), st.integers(0, 2**10),
        st.integers(0, 2**10) | st.tuples(st.sampled_from(["param/", "state/"]),
                                          st.text(max_size=3))),
        st.booleans()))


def with_meta(blob, update):
    """``blob`` with ``update`` applied to its metadata."""
    start = len(MAGIC) + 4
    end = start + struct.unpack_from("<I", blob, len(MAGIC))[0]
    meta = json.loads(blob[start:end])
    update(meta)
    meta_bytes = json.dumps(meta).encode()
    return MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes + blob[end:]


def edited_records(blob, records, change, recount):
    """``blob`` after one record-level edit."""
    op, pick, new_name = change
    parts = [blob[start:end] for _, start, end in records]
    if op == "rename":
        ours = [i for i, (name, _, _) in enumerate(records)
                if name.startswith(("param/", "state/"))]
        i = ours[pick % len(ours)]
        name = (records[ours[new_name % len(ours)]][0]
                if isinstance(new_name, int) else "".join(new_name)).encode()
        (old_len,) = struct.unpack_from("<I", parts[i])
        parts[i] = struct.pack("<I", len(name)) + name + parts[i][4 + old_len:]
    else:
        i = pick % len(parts)
        parts[i:i + 1] = [parts[i]] * (2 if op == "duplicate" else 0)
    blob = blob[:records[0][1]] + b"".join(parts)
    if recount and op != "rename":
        blob = with_meta(blob, lambda meta: meta.update(
            tensor_count=len(parts)))
    return blob


def edited(blob, offsets, records, edit):
    """``blob`` after ``edit``; a byte or cut position wraps around."""
    kind, change, rehash = edit
    if kind == "records":
        return edited_records(blob, records, change, rehash)
    if kind == "bytes":
        blob = bytearray(blob)
        for structural, pick, value in change:
            blob[offsets[pick % len(offsets)] if structural
                 else pick % len(blob)] = value
        return bytes(blob)
    if kind == "truncate":
        return blob[:change % len(blob)]

    def update(meta):
        (meta["config"] if kind == "config" else meta).update(change)
        if rehash:
            try:
                meta["config_hash"] = config_hash(ModelConfig(**meta["config"]))
            except (PignetError, TypeError):
                pass

    return with_meta(blob, update)


@fuzz(600)
@given(edit=EDITS)
def test_edited_checkpoint_raises_only_pignet_errors(workdir, saved, edit):
    path = workdir / "edited.ckpt"
    blob = edited(*layout(saved), edit)
    path.write_bytes(blob)
    model = build_model(tiny_config(), seed=1)
    before = parameter_hash(model)
    try:
        load_checkpoint(path, model, AdamOptimizer.for_model(
            model, TrainConfig(epochs=1)))
    except PignetError:
        assert parameter_hash(model) == before
    else:
        # a load with an optimizer reads every record, so any change to
        # the record set is refused
        assert edit[0] != "records" or blob == layout(saved)[0]
    try:
        model_from_checkpoint(path)
    except PignetError:
        pass


SHAPE = (2, 5, 4)  # every node of a generated graph: batch, points, channels


class _Rung(Module):
    def __init__(self, rng):
        self._add_rung("", 4, 4, rng, np.float64)


def _graph_op(name, rng):
    """(a function of two operand nodes, the leaves it made) for op
    ``name``; one-operand ops ignore the second."""
    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def row(t, reduce):  # a (2, 4) reduction back to a broadcastable row
        return reshape(reduce(t, axis=1), (2, 1, 4))

    if name == "rung":  # conv, then batch norm and ReLU in the conv's buffer
        rung = _Rung(rng)
        return (lambda a, b: rung._rung("", a, True),
                [p for _, p in rung.named_parameters()])
    if name == "pooled_rung":  # a rung's max over points, recomputed
        rung = _Rung(rng)    # in backward
        return (lambda a, b: a * reshape(rung._pooled_rung("", b), (2, 1, 4)),
                [p for _, p in rung.named_parameters()])
    if name == "batch_norm":
        bn = BatchNorm(4)
        bn.gamma.data[:] = rng.normal(1.0, 0.3, 4)
        return lambda a, b: bn(a, training=True), [bn.gamma, bn.beta]
    if name in ("matmul", "concat"):
        w = leaf(4 if name == "matmul" else 8, 4)
        if name == "matmul":
            return lambda a, b: matmul(a, w), [w]
        return lambda a, b: matmul(concat([a, b], axis=-1), w), [w]
    return {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "relu": lambda a, b: relu(a),
        "channel_window_max": lambda a, b: channel_window_max(a),
        "transpose": lambda a, b: transpose_last2(
            transpose_last2(a) * transpose_last2(b)),
        "sum": lambda a, b: a * row(b, reduce_sum),
        "max": lambda a, b: a - row(b, reduce_max),
        "mean": lambda a, b: a + repeat_rows(reduce_mean(b, axis=1), 5),
    }[name], []


# the rung and add, which write into or share gradient arrays, and the
# pooled rung, which recomputes its conv in backward, come thrice
GRAPH_OPS = ["add", "sub", "mul", "relu", "channel_window_max", "rung",
             "pooled_rung", "batch_norm", "matmul", "concat", "transpose",
             "sum", "max", "mean"] + ["rung", "add", "pooled_rung"] * 2


@st.composite
def graphs(draw):
    """(ops, seed, head): 3 to 8 ops, each (name, first operand, second
    operand) over the two inputs and the earlier ops' outputs. Input 0 feeds
    the first two ops; a second operand is often the first one again or the
    latest output."""
    ops = []
    for i in range(draw(st.integers(3, 8))):
        first = 0 if i < 2 else draw(st.integers(0, i + 1))
        second = draw(st.sampled_from([first, i + 1, None]))
        if second is None:
            second = draw(st.integers(0, i + 1))
        ops.append((draw(st.sampled_from(GRAPH_OPS)), first, second))
    return ops, draw(st.integers(0, 2**32 - 1)), draw(
        st.sampled_from(["sum", "cross_entropy"]))


class Graph:
    """A drawn graph over fixed leaves: two inputs and each op's weights."""

    def __init__(self, ops, seed, head):
        rng = np.random.default_rng(seed)
        self.inputs = [Tensor(rng.normal(size=SHAPE), requires_grad=True)
                       for _ in range(2)]
        self.ops = []
        self.leaves = list(self.inputs)
        for name, first, second in ops:
            fn, leaves = _graph_op(name, rng)
            self.ops.append((fn, first, second))
            self.leaves += leaves
        used = {i for _, first, second in ops for i in (first, second)}
        # outputs no later op reads feed the loss too, so every op counts
        self.tails = [(i, rng.normal(size=SHAPE))
                      for i in range(2, len(ops) + 1) if i not in used]
        self.head = head
        self.labels = rng.integers(0, 4, size=10)
        self.weights = rng.normal(size=SHAPE)

    def forward(self, inputs=None):
        """Every node (inputs first) and the scalar loss."""
        nodes = list(inputs or self.inputs)
        for fn, first, second in self.ops:
            nodes.append(fn(nodes[first], nodes[second]))
        if self.head == "sum":
            loss = reduce_sum(nodes[-1] * self.weights)
        else:
            loss = cross_entropy(reshape(nodes[-1], (10, 4)), self.labels)
        for i, weights in self.tails:
            loss = loss + reduce_sum(nodes[i] * weights)
        return nodes, loss

    def gradients(self, between=None):
        """The leaves' gradient bytes after one backward; ``between`` runs
        after the recorded forward and before its backward."""
        for p in self.leaves:
            p.grad = None
        _, loss = self.forward()
        if between is not None:
            between()
        backward(loss)
        return [b"" if p.grad is None else p.grad.tobytes()
                for p in self.leaves]


def _between_one_sided_differences(graph, grads, rng, steps=(1e-6, 1e-5)):
    """Each gradient, at up to three drawn coordinates per leaf, lies between
    the forward and backward difference quotients of one of ``steps``: the
    slopes on either side of any ReLU or max kink."""
    def loss():
        return graph.forward()[1].item()

    with no_grad():
        base = loss()
        for p, grad in zip(graph.leaves, grads):
            flat = p.data.reshape(-1)  # a view: writes reach the leaf
            grad = np.frombuffer(grad, np.float64) if grad else np.zeros(
                flat.size)
            for i in rng.choice(flat.size, min(3, flat.size), replace=False):
                orig, close = flat[i], False
                for h in steps:
                    flat[i] = orig + h
                    upper = (loss() - base) / h
                    flat[i] = orig - h
                    lower = (base - loss()) / h
                    flat[i] = orig
                    tol = 1e-7 + 1e-4 * max(abs(grad[i]), abs(upper),
                                            abs(lower))
                    close |= (min(upper, lower) - tol <= grad[i]
                              <= max(upper, lower) + tol)
                assert close, (p.shape, i, grad[i], upper, lower)


@fuzz(1000)
@given(drawn=graphs())
def test_generated_graphs_keep_backward_honest(drawn):
    graph = Graph(*drawn)
    nodes, loss = graph.forward()
    recorded = [n for n in graph_order(loss) if n._op != "leaf"]
    before = [n.data.tobytes() for n in nodes]
    with no_grad():
        plain, plain_loss = graph.forward()
    assert [n.data.tobytes() for n in plain] == before
    assert plain_loss.data.tobytes() == loss.data.tobytes()

    backward(loss)
    assert all(n.grad is None and n._backward_fn is None and n._parents == ()
               for n in recorded)
    assert [n.data.tobytes() for n in nodes] == before
    with pytest.raises(UsageError, match="already ran"):
        backward(loss)
    grads = [b"" if p.grad is None else p.grad.tobytes() for p in graph.leaves]
    del nodes, loss, recorded, plain, plain_loss

    rng = np.random.default_rng(drawn[1])
    other = [Tensor(rng.normal(size=SHAPE)) for _ in range(2)]
    assert graph.gradients() == grads
    assert graph.gradients(lambda: graph.forward(other)) == grads
    _between_one_sided_differences(graph, grads, rng)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(n):
    assert n < 10


def test_after_it_passes():
    pass
"""


def test_failing_property_reports_as_a_failure(tmp_path):
    """A falsified property is reported as FAILED and the tests after it
    still run under the repository's pytest settings: the warning filters
    must not turn Hypothesis's own reporting into an internal error."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
