"""Property tests over malformed input: generated points and label text, INI
text, and edited checkpoints. Whatever the input, only a PignetError may
escape, and a failed checkpoint load leaves the model as it was."""

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
from pignet.errors import PignetError
from pignet.model import ModelConfig, build_model, config_hash
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
    """The bytes of a checkpoint, and the offsets of every byte that is not
    tensor data."""
    blob = path.read_bytes()
    pos = len(MAGIC) + 4 + struct.unpack_from("<I", blob, len(MAGIC))[0]
    offsets = list(range(pos))
    while pos < len(blob):
        start = pos
        (name_len,) = struct.unpack_from("<I", blob, pos)
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
        pos += 8 + name_len
        shape = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        offsets.extend(range(start, pos))
        pos += 8 * math.prod(shape)
    return blob, offsets


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
        st.just(False)))


def edited(blob, offsets, edit):
    """``blob`` after ``edit``; a byte or cut position wraps around."""
    kind, change, rehash = edit
    if kind == "bytes":
        blob = bytearray(blob)
        for structural, pick, value in change:
            blob[offsets[pick % len(offsets)] if structural
                 else pick % len(blob)] = value
        return bytes(blob)
    if kind == "truncate":
        return blob[:change % len(blob)]
    start = len(MAGIC) + 4
    end = start + struct.unpack_from("<I", blob, len(MAGIC))[0]
    meta = json.loads(blob[start:end])
    (meta["config"] if kind == "config" else meta).update(change)
    if rehash:
        try:
            meta["config_hash"] = config_hash(ModelConfig(**meta["config"]))
        except (PignetError, TypeError):
            pass
    meta_bytes = json.dumps(meta).encode()
    return MAGIC + struct.pack("<I", len(meta_bytes)) + meta_bytes + blob[end:]


@fuzz(600)
@given(edit=EDITS)
def test_edited_checkpoint_raises_only_pignet_errors(workdir, saved, edit):
    path = workdir / "edited.ckpt"
    path.write_bytes(edited(*layout(saved), edit))
    model = build_model(tiny_config(), seed=1)
    before = parameter_hash(model)
    try:
        load_checkpoint(path, model, AdamOptimizer.for_model(
            model, TrainConfig(epochs=1)))
    except PignetError:
        assert parameter_hash(model) == before
    try:
        model_from_checkpoint(path)
    except PignetError:
        pass


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
