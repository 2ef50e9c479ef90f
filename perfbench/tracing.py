"""Span tracer that wraps the public functions of the ``maf`` modules from
outside the program, and the per-layer metrics computed from its spans.

Every public module-level function of each layer module (plus
``model.Adam.step`` and ``model.Adam.zero_grad``) is replaced by a wrapper
that records one span: name, start, end, parent span and operation id.
Modules bind each other's functions at import time (``maf.model.backward``
is ``maf.tensor.backward``), so a wrapper replaces the function in every
layer module that holds it, and ``uninstall`` puts every original back.
Spans stay in memory until the run ends. Wrappers return exactly what the
wrapped function returns, so traced outputs are bit-identical.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# The program's modules are its layers. ``text`` is left unwrapped: its time
# lands in its callers' self time.
LAYERS = ("tensor", "mca2", "gif", "model", "synthetic", "metrics", "data", "experiments")
ADAM_METHODS = ("step", "zero_grad")
SETUP_ROOT, OP_ROOT = "bench.setup", "bench.op"
# Counting graph nodes is tracer work; its own span keeps it out of the
# caller's self time.
GRAPH_WALK = "trace.graph_walk"


def count_graph_nodes(loss) -> int:
    """Nodes reachable from ``loss`` along requires_grad parents, which are
    the nodes ``maf.tensor.backward`` visits."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    The operation id of a span is the number of ``op_boundary`` spans opened
    before it in the timed phase, minus one: -1 marks set-up and work that
    precedes the first operation.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels: dict[int, str] = {}       # span index -> model.train variant
        self.graph_nodes: dict[int, int] = {}  # backward span index -> nodes reached
        self._stack = [-1]
        self.op_id = -1
        self._boundary = -1
        self._restore: list[tuple[object, str, object]] = []

    def id_of(self, name: str) -> int:
        """Name id, or -1 for a name no span has."""
        return self._ids.get(name, -1)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        if nid == self._boundary:
            self.op_id += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself (set-up or one operation)."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def set_op_boundary(self, name: str) -> None:
        """Start counting operations at each span called ``name``."""
        self._boundary = self._intern(name)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        if name == "tensor.backward":
            walk_id = self._intern(GRAPH_WALK)

            def wrapper(loss, *args, **kwargs):
                w = self._open(walk_id)
                nodes = count_graph_nodes(loss)
                self._close(w)
                i = self._open(nid)
                self.graph_nodes[i] = nodes
                try:
                    return fn(loss, *args, **kwargs)
                finally:
                    self._close(i)
        elif name == "model.train":
            def wrapper(instances, cfg, *args, **kwargs):
                i = self._open(nid)
                self.labels[i] = cfg.variant
                try:
                    return fn(instances, cfg, *args, **kwargs)
                finally:
                    self._close(i)
        else:
            def wrapper(*args, **kwargs):
                i = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"maf.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        adam = modules["model"].Adam
        for meth in ADAM_METHODS:
            self._patch(adam, meth, self._wrap(f"model.Adam.{meth}", vars(adam)[meth]))

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def save(self, path: Path) -> None:
        """Write every span: parallel arrays plus the name table."""
        backward_idx = np.fromiter(self.graph_nodes, dtype=np.int64)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            graph_nodes_span=backward_idx,
            graph_nodes=np.fromiter(self.graph_nodes.values(), dtype=np.int64, count=len(backward_idx)),
        )


class Spans:
    """Vector views of a finished trace, for aggregation."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.end = np.frombuffer(tracer.end, dtype=np.float64)
        self.dur = self.end - self.start
        covered = np.zeros(len(self.dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        # spans are stored in start order and nest, so each span belongs to
        # the last root span that started at or before it
        roots = np.flatnonzero(~has_parent)
        self.is_root = ~has_parent
        root_of = roots[np.searchsorted(self.start[roots], self.start, side="right") - 1]
        self.timed = self.name_id[root_of] == tracer.id_of(OP_ROOT)

    def mask(self, name: str, within: np.ndarray | None = None) -> np.ndarray:
        m = self.name_id == self.tracer.id_of(name)
        return m if within is None else m & within

    def count(self, name: str, within=None) -> int:
        return int(self.mask(name, within).sum())

    def total_ms(self, name: str, within=None) -> float:
        return 1000.0 * float(self.dur[self.mask(name, within)].sum())

    def self_ms(self, name: str, within=None) -> float:
        return 1000.0 * float(self.self_time[self.mask(name, within)].sum())

    def inside(self, outer: np.ndarray) -> np.ndarray:
        """Spans nested inside any of the spans selected by ``outer``."""
        m = np.zeros(len(self.start), dtype=bool)
        for i in np.flatnonzero(outer):
            m[i + 1:np.searchsorted(self.start, self.end[i], side="right")] = True
        return m


def _ratio(num: float, den: float) -> float:
    # a layer that never runs on a workload reports 0
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    s = Spans(tracer)
    t = s.timed
    steps = s.count("model.Adam.step", t)
    instances = s.count("model.encode", t)
    passes_mask = s.mask("synthetic.evaluate_variant", t)
    passes = int(passes_mask.sum())
    in_eval = s.inside(passes_mask)
    eval_instances = s.count("model.decode_greedy", in_eval)
    tensor_ops = [f"tensor.{n}" for n in importlib.import_module("maf.tensor").__all__
                  if n not in ("Tensor", "backward")]
    eval_op_calls = sum(s.count(n, in_eval) for n in tensor_ops)
    backward_timed = [i for i in tracer.graph_nodes if t[i]]
    graph_nodes = sum(tracer.graph_nodes[i] for i in backward_timed)

    def mean_ms(name: str, within=None) -> float:
        return _ratio(s.total_ms(name, within), s.count(name, within))

    def mean_self_ms(name: str) -> float:
        return _ratio(s.self_ms(name, t), s.count(name, t))

    out: dict[str, tuple[float, str]] = {
        "tensor.backward.ms_per_step": (_ratio(s.total_ms("tensor.backward", t), steps), "ms"),
        "tensor.backward.calls_per_step": (_ratio(s.count("tensor.backward", t), steps), "count"),
        "tensor.graph_nodes_per_instance": (_ratio(graph_nodes, len(backward_timed)), "count"),
        "tensor.ops_per_eval_instance": (_ratio(eval_op_calls, eval_instances), "count"),
        "tensor.cross_entropy_rows.ms_per_call": (mean_ms("tensor.cross_entropy_rows", t), "ms"),
        "model.encode.self_ms_per_instance": (_ratio(s.self_ms("model.encode", t), instances), "ms"),
        "model.decode_logits.self_ms_per_call": (mean_self_ms("model.decode_logits"), "ms"),
        "model.decode_logits.calls_per_instance": (
            _ratio(s.count("model.decode_logits", t), instances), "count"),
        "model.decode_greedy.ms_per_instance": (mean_ms("model.decode_greedy", t), "ms"),
        "model.Adam.step.ms_per_step": (_ratio(s.total_ms("model.Adam.step", t), steps), "ms"),
        "model.train.self_ms_per_step": (_ratio(s.self_ms("model.train", t), steps), "ms"),
    }
    for variant in ("MAF", "TextOnly", "Concat2"):
        sel = np.zeros(len(s.start), dtype=bool)
        sel[[i for i, v in tracer.labels.items() if v == variant]] = True
        sel &= t
        instance_steps = s.count("tensor.backward", s.inside(sel))
        out[f"model.train.ms_per_instance_step.{variant}"] = (
            _ratio(1000.0 * float(s.dur[sel].sum()), instance_steps), "ms")
    out.update({
        # set-up layers count wherever they run, set-up included
        "model.init_model_params.ms": (mean_ms("model.init_model_params"), "ms"),
        "model.build_vocabulary.ms": (mean_ms("model.build_vocabulary"), "ms"),
        "mca2.mca2_forward.ms_per_call": (mean_ms("mca2.mca2_forward", t), "ms"),
        "mca2.mca2_forward.calls_per_instance": (
            _ratio(s.count("mca2.mca2_forward", t), instances), "count"),
        "gif.gif_fuse.ms_per_call": (mean_ms("gif.gif_fuse", t), "ms"),
        "synthetic.generate.ms": (mean_ms("synthetic.generate"), "ms"),
        "synthetic.evaluate_variant.self_ms_per_pass": (
            _ratio(s.self_ms("synthetic.evaluate_variant", t), passes), "ms"),
        "metrics.score_corpus.ms_per_pass": (_ratio(s.total_ms("metrics.score_corpus", t), passes), "ms"),
        "data.save_corpus.ms": (mean_ms("data.save_corpus"), "ms"),
        "data.load_and_validate.ms_per_call": (mean_ms("data.load_and_validate", t), "ms"),
        "experiments.cmd_ablate.self_ms": (mean_self_ms("experiments.cmd_ablate"), "ms"),
        "experiments.cmd_report.ms": (mean_ms("experiments.cmd_report", t), "ms"),
        "trace.unattributed_share": (
            _ratio(float(s.self_time[s.is_root].sum()), float(s.dur[s.is_root].sum())), "ratio"),
    })
    return out
