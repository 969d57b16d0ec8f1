"""Spans around calls into canids, recorded from outside the program.

``Tracer.install()`` replaces module attributes and class methods of the
canids package with wrappers that record one span per call: name, start,
end and parent span. Module attributes are patched wherever they are
looked up (``canids.pipeline.train_vgae`` and ``canids.distill.train_vgae``
are separate bindings of one function), so every import of a function is
covered. ``Tracer.uninstall()`` puts the originals back.

Spans stay in memory as flat arrays until the run ends; ``summary()``
then gives each span name its self time (span time minus the time of its
child spans), inclusive time and call count.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from canids import canlog, checkpoint, cli, gat, graphs, optim, pipeline, tensor, vgae

# forward tape ops of canids.tensor; each call is one entry of tensor.ops
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "pow_scalar", "matmul", "transpose", "reshape",
    "concat", "tensor_slice", "tensor_sum", "tensor_mean", "exp", "log", "sigmoid",
    "softmax", "leaky_relu", "elu", "clamp", "gather_rows", "scatter_add_rows", "take_per_row",
)

# (span name, owner, attribute): functions patched in every canids module that binds them
FUNCTIONS = (
    ("graphs.cache_save", graphs, "save_graph_cache"),
    ("graphs.cache_load", graphs, "load_graph_cache"),
    ("cli.main", cli, "main"),
    ("checkpoint.save", checkpoint, "save_checkpoint"),
    ("checkpoint.load", checkpoint, "load_checkpoint"),
    ("gat.prepare_graph", gat, "prepare_graph"),
    ("gat.train_supervised", gat, "train_supervised"),
    ("vgae.train_vgae", vgae, "train_vgae"),
    ("optim.clip", optim, "clip_grad_norm"),
    ("pipeline.undersample", pipeline, "undersample"),
    ("pipeline.calibrate", pipeline, "calibrate_vgae"),
    ("pipeline.score_windows", pipeline, "score_windows"),
) + tuple((f"tensor.{op}", tensor, op) for op in TENSOR_OPS)

# (span name, class, method)
METHODS = (
    ("tensor.backward", tensor.Tensor, "backward"),
    ("optim.step", optim.Adam, "step"),
    ("gat.forward", gat.GatClassifier, "forward"),
    ("vgae.encode", vgae.VgaeModel, "encode"),
    ("vgae.decode", vgae.VgaeModel, "decode"),
    ("vgae.score", vgae.VgaeModel, "score"),
    ("pipeline.rank", vgae.VgaeModel, "reconstruction_rank"),
)

# generator functions: one span per item pulled, the items counted under the given name
GENERATORS = (
    ("canlog.parse", canlog, "parse_car_hacking_csv", "canlog.frames"),
    ("graphs.build", graphs, "build_windows", "graphs.windows"),
)


class _CountingRng:
    """Delegates to a numpy Generator and counts the (i, j) pairs drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def integers(self, low, high, size):
        self.drawn += size[1]
        return self._rng.integers(low, high, size=size)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # counts that are not span calls
        self._teacher_windows: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int):
        self._stack.append(len(self.span_name))
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())

    def _exit(self):
        self.span_end[self._stack.pop()] = time.perf_counter()

    def under(self, name: str) -> bool:
        """True if a span of this name is open."""
        nid = self._ids.get(name)
        return any(self.span_name[i] == nid for i in self._stack)

    def wrap(self, fn, name: str, before=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def wrap_generator(self, fn, name: str, item_count: str):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pull():
                try:
                    while True:
                        self._enter(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit()
                        self.counts[item_count] += 1
                        yield item
                finally:
                    inner.close()

            return pull()

        return traced

    def _sample_non_edges(self, fn):
        nid = self._id("vgae.neg_sample")

        @functools.wraps(fn)
        def traced(n, edge_src, edge_dst, count, rng):
            counting = _CountingRng(rng)
            self._enter(nid)
            try:
                src, dst = fn(n, edge_src, edge_dst, count, counting)
            finally:
                self._exit()
            self.counts["vgae.neg_pairs_drawn"] += counting.drawn
            self.counts["vgae.neg_pairs_kept"] += len(src)
            return src, dst

        return traced

    def _patch_everywhere(self, owner, attr: str, wrapper):
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if name == "canids" or name.startswith("canids."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def install(self):
        def count_prepare(_args):
            if self.under("pipeline.score_windows"):
                self.counts["gat.prepare_graph_in_scoring"] += 1

        def count_scored(args):
            self.counts["pipeline.windows_scored"] += len(args[3])

        def count_step(_args):
            if self.under("gat.train_supervised"):
                self.counts["gat.steps"] += 1

        hooks = {
            "gat.prepare_graph": count_prepare,
            "pipeline.score_windows": count_scored,
            "optim.step": count_step,
        }
        for name, owner, attr in FUNCTIONS:
            self._patch_everywhere(owner, attr, self.wrap(getattr(owner, attr), name, hooks.get(name)))
        for name, owner, attr, item_count in GENERATORS:
            self._patch_everywhere(owner, attr, self.wrap_generator(getattr(owner, attr), name, item_count))
        self._patch_everywhere(vgae, "sample_non_edges", self._sample_non_edges(vgae.sample_non_edges))
        for name, cls, attr in METHODS:
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, hooks.get(name)))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def watch_teacher(self, teacher_vgae, teacher_gat):
        """Span the frozen teachers' encode and forward on these instances only."""
        for model, attr in ((teacher_vgae, "encode"), (teacher_gat, "forward")):

            def seen(args, attr=attr):
                self._teacher_windows.add((attr, id(args[0].graph)))

            setattr(model, attr, self.wrap(getattr(model, attr), "distill.teacher", seen))

    @staticmethod
    def unwatch_teacher(teacher_vgae, teacher_gat):
        vars(teacher_vgae).pop("encode", None)
        vars(teacher_gat).pop("forward", None)

    def summary(self) -> dict:
        """{span name: (self seconds, inclusive seconds, calls)} over every span recorded."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        k = len(self.names)
        self_s = np.bincount(name, weights=duration - child, minlength=k)
        total_s = np.bincount(name, weights=duration, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {
            n: (float(self_s[i]), float(total_s[i]), int(calls[i]))
            for i, n in enumerate(self.names)
            if calls[i]
        }

    def per_layer(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, as (value, unit) pairs."""
        layers = self.summary()

        def self_s(name):
            return layers.get(name, (0.0, 0.0, 0))[0]

        def calls(name):
            return layers.get(name, (0.0, 0.0, 0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        ops = [f"tensor.{op}" for op in TENSOR_OPS]
        _, teacher_total, teacher_calls = layers.get("distill.teacher", (0.0, 0.0, 0))
        c = self.counts
        return {
            "canlog.parse_s": (self_s("canlog.parse"), "s"),
            "canlog.frames": (c["canlog.frames"], "count"),
            "graphs.build_s": (self_s("graphs.build"), "s"),
            "graphs.windows": (c["graphs.windows"], "count"),
            "graphs.cache_save_s": (self_s("graphs.cache_save"), "s"),
            "graphs.cache_load_s": (self_s("graphs.cache_load"), "s"),
            "cli.build_graphs_self_s": (self_s("cli.main"), "s"),
            "checkpoint.save_s": (self_s("checkpoint.save"), "s"),
            "checkpoint.load_s": (self_s("checkpoint.load"), "s"),
            "tensor.ops": (sum(calls(op) for op in ops), "count"),
            "tensor.ops_s": (sum(self_s(op) for op in ops), "s"),
            "tensor.matmul_s": (self_s("tensor.matmul"), "s"),
            "tensor.gather_rows_s": (self_s("tensor.gather_rows"), "s"),
            "tensor.scatter_add_rows_s": (self_s("tensor.scatter_add_rows"), "s"),
            "tensor.backward_s": (self_s("tensor.backward"), "s"),
            "tensor.backward_calls": (calls("tensor.backward"), "count"),
            "gat.prepare_graph_s": (self_s("gat.prepare_graph"), "s"),
            "gat.prepare_graph_calls": (calls("gat.prepare_graph"), "count"),
            "gat.prepare_graph_per_window": (
                ratio(c["gat.prepare_graph_in_scoring"], c["pipeline.windows_scored"]), "ratio"
            ),
            "gat.forward_s": (self_s("gat.forward"), "s"),
            "gat.forward_calls": (calls("gat.forward"), "count"),
            "gat.train_supervised_s": (self_s("gat.train_supervised"), "s"),
            "gat.steps": (c["gat.steps"], "count"),
            "vgae.train_vgae_s": (self_s("vgae.train_vgae"), "s"),
            "vgae.encode_s": (self_s("vgae.encode"), "s"),
            "vgae.decode_s": (self_s("vgae.decode"), "s"),
            "vgae.score_s": (self_s("vgae.score"), "s"),
            "vgae.score_calls": (calls("vgae.score"), "count"),
            "vgae.neg_sample_s": (self_s("vgae.neg_sample"), "s"),
            "vgae.neg_sample_accept_ratio": (
                ratio(c["vgae.neg_pairs_kept"], c["vgae.neg_pairs_drawn"]), "ratio"
            ),
            "optim.step_s": (self_s("optim.step"), "s"),
            "optim.clip_s": (self_s("optim.clip"), "s"),
            "optim.steps": (calls("optim.step"), "count"),
            "pipeline.rank_s": (self_s("pipeline.rank"), "s"),
            "pipeline.undersample_s": (self_s("pipeline.undersample"), "s"),
            "pipeline.calibrate_s": (self_s("pipeline.calibrate"), "s"),
            "pipeline.score_windows_s": (self_s("pipeline.score_windows"), "s"),
            "pipeline.windows_scored": (c["pipeline.windows_scored"], "count"),
            # inclusive: the teachers' own layers are spanned underneath
            "distill.teacher_s": (teacher_total, "s"),
            "distill.teacher_calls": (teacher_calls, "count"),
            "distill.teacher_calls_per_window": (
                ratio(teacher_calls, len(self._teacher_windows)), "ratio"
            ),
        }
