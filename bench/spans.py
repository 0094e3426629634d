"""Spans around pignet's public functions, recorded from outside the package.

``Tracer.install()`` replaces each function listed in ``TRACED`` with a
wrapper that records a span: its name, start, end, the span it ran inside,
and the benchmark operation that was running. A module-level function is
replaced in every pignet module that bound it by name (``from .data import
load_cloud`` makes a second binding), so calls through either binding are
seen. Spans stay in memory until ``dump()`` writes them out.

A span's self time is its duration minus the durations of its direct child
spans; the run is single-threaded, so child spans never overlap.
"""

import functools
import json
import os
import sys
import time

# (module, attribute, span name); a dotted attribute is a method
TRACED = (
    ("pignet.tensor", "backward", "tensor.backward"),
    ("pignet.training", "AdamOptimizer.step", "training.adam_step"),
    ("pignet.model", "segmentation_loss", "model.loss"),
    ("pignet.data", "augment", "data.augment"),
    ("pignet.layers", "TNet.align", "layers.tnet"),
    ("pignet.inception", "InceptionStack.__call__", "inception.stack"),
    ("pignet.model", "PigNet.forward", "model.forward"),
    ("pignet.model", "PointNetBaseline.forward", "model.baseline_forward"),
    ("pignet.model", "_HeadMixin.predict", "model.predict"),
    ("pignet.model", "build_model", "model.build"),
    ("pignet.data", "load_cloud", "data.load_cloud"),
    ("pignet.data", "normalize", "data.normalize"),
    ("pignet.data", "sample_points", "data.sample_points"),
    ("pignet.data", "add_gaussian_noise", "data.add_gaussian_noise"),
    ("pignet.evaluation", "shape_miou", "evaluation.shape_miou"),
    ("pignet.evaluation", "evaluate_split", "evaluation.evaluate_split"),
    ("pignet.evaluation", "robustness_run", "evaluation.robustness_run"),
    ("pignet.training", "train_category", "training.train_category"),
    ("pignet.training", "save_checkpoint", "training.ckpt_save"),
    ("pignet.training", "model_from_checkpoint",
     "training.model_from_checkpoint"),
    ("pignet.training", "load_checkpoint", "training.ckpt_apply"),
    ("pignet.training", "read_checkpoint", "training.ckpt_read"),
)

# spans at the top of one training step, in the order train_category runs them
STEP_SPANS = ("data.augment", "model.forward", "model.loss", "tensor.backward",
              "training.adam_step")

NAME, START, END, PARENT, OP = range(5)


def _span_name(name, args):
    # both models align their xyz input with a 3-wide T-Net; only PIG-Net's
    # feature T-Net is wider
    if name == "layers.tnet":
        return "layers.input_tnet" if args[0].k == 3 else "layers.feature_tnet"
    return name


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, op]
        self.counts = []  # (name, value, op)
        self.op = None    # the benchmark operation now running
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(original, name))
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._wrap(original, name))
        tensor = sys.modules["pignet.tensor"]
        self._replace_everywhere(
            tensor.graph_order,
            self._counting(tensor.graph_order, "tensor.graph_nodes",
                           lambda order, args: len(order)))
        training = sys.modules["pignet.training"]
        saver = training.save_checkpoint  # the span wrapper installed above
        self._replace_everywhere(
            saver, self._counting(saver, "training.ckpt_bytes",
                                  lambda _, args: os.path.getsize(args[0])))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "pignet":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [_span_name(name, args), 0.0, 0.0,
                      tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _counting(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts.append((name, measure(result, args), tracer.op))
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every span, by span index."""
        self_s = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                self_s[s[PARENT]] -= s[END] - s[START]
        return self_s

    def select(self, name, ops):
        """Indices of spans called ``name`` run under one of ``ops``; when
        none ran there, the spans of that name under any operation."""
        mine = [i for i, s in enumerate(self.spans)
                if s[NAME] == name and s[OP] in ops]
        return mine or [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def count_values(self, name, ops):
        mine = [v for n, v, op in self.counts if n == name and op in ops]
        return mine or [v for n, v, _ in self.counts if n == name]

    def calls_per(self, child, parent):
        """Calls of ``child`` below a ``parent`` span, per ``parent`` call."""
        parents = sum(s[NAME] == parent for s in self.spans)
        calls = 0
        for s in self.spans:
            if s[NAME] != child:
                continue
            j = s[PARENT]
            while j >= 0 and self.spans[j][NAME] != parent:
                j = self.spans[j][PARENT]
            calls += j >= 0
        return calls / parents if parents else 0.0

    def training_steps(self, self_s):
        """(wall seconds, summed self seconds) of each training step.

        A step runs from the start of its first augmentation (or of its
        forward pass, without augmentation) to the end of its Adam update.
        The self times summed are those of every span inside that window.
        """
        steps = []
        first = None
        for i, s in enumerate(self.spans):
            parent = s[PARENT]
            if parent < 0 or \
                    self.spans[parent][NAME] != "training.train_category":
                continue
            if s[NAME] not in STEP_SPANS:
                first = None
                continue
            if first is None:
                first = i
            if s[NAME] == "training.adam_step":
                begin, end = self.spans[first][START], s[END]
                covered = sum(self_s[j] for j in range(first, i + 1)
                              if self.spans[j][START] >= begin
                              and self.spans[j][END] <= end)
                steps.append((end - begin, covered))
                first = None
        return steps

    def dump(self, path, extra):
        payload = dict(extra)
        payload["fields"] = ["name", "start", "end", "parent", "op"]
        payload["spans"] = self.spans
        payload["counts"] = self.counts
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)
