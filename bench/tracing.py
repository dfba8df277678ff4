"""Span recorder for the traced benchmark run.

The tracer wraps public functions and methods of each vidsrl module from
outside the package: it replaces the attribute on the module or class where
callers look it up, and puts the original back when the run ends. A name
imported into another module (``from .metrics import evaluate``) is a
separate attribute there, so it is wrapped in that module too.

Each wrapped call records one span: name, start, end, parent span and the
video id or step index it worked on. Spans stay in memory until the run
ends. ``diffmath.matmul`` is too fine-grained for a span; it only bumps a
call counter and a flop counter.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

# Span record fields, kept as a list per span for speed.
NAME, START, END, PARENT, CTX = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.gc_ms = 0.0
        self.gc_collected = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = None
        self.enabled = False

    # -- recording ------------------------------------------------------

    def begin(self, name: str, ctx=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if ctx is None and parent >= 0:
            ctx = self.spans[parent][CTX]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, ctx])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, ctx=None):
        """Span around a block of the benchmark itself (a phase)."""
        if not self.enabled:
            yield
            return
        idx = self.begin(name, ctx)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, ctx_fn=None, before=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``ctx_fn(args, kwargs)`` gives the span's video id or step index;
        ``before(args)`` runs ahead of the span (for probes whose own cost
        must not land inside the span they describe).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer.begin(name, ctx_fn(args, kwargs) if ctx_fn else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(idx)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, on_call):
        """Replace ``owner.attr`` by a wrapper that only calls ``on_call(args)``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                on_call(args)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def reset_counts(self):
        self.counts.clear()
        self.gc_ms = 0.0
        self.gc_collected = 0

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3
            self.gc_collected += info.get("collected", 0)
            self._gc_start = None

    @contextmanager
    def active(self):
        """Enable recording and the collector callback; undo every patch on exit.

        Inside, recording can be paused by setting ``enabled`` to False.
        """
        self.enabled = True
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
            self.enabled = False

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children.

        Children of one parent run one after another on one thread, so
        their intervals do not overlap and their durations simply add.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def descendants_of(self, root: int) -> list[int]:
        """Indices of every span nested (at any depth) under ``root``."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
                out.append(i)
        return out

    def check_nesting(self) -> list[str]:
        """Violations of the span tree invariants (empty when sound)."""
        errors = []
        for i, s in enumerate(self.spans):
            if s[END] is None:
                errors.append(f"span {i} ({s[NAME]}) never ended")
                continue
            if s[END] < s[START]:
                errors.append(f"span {i} ({s[NAME]}) ends before it starts")
            p = s[PARENT]
            if p >= 0:
                ps = self.spans[p]
                if s[START] < ps[START] or s[END] > ps[END]:
                    errors.append(f"span {i} ({s[NAME]}) outside parent {p} ({ps[NAME]})")
        for i, t in enumerate(self.self_times()):
            if t < 0:
                errors.append(f"span {i} ({self.spans[i][NAME]}) has negative self time {t}")
        return errors

    def to_records(self) -> list[dict]:
        return [{"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "ctx": s[CTX]} for i, s in enumerate(self.spans)]


def graph_nodes(loss) -> int:
    """Distinct autodiff nodes reachable from ``loss`` through ``_parents``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def matmul_flops(a, b) -> float:
    """2*m*k*n per matrix product, times the leading batch size."""
    sa, sb = a.shape, b.shape
    batch = 1
    for d in sa[:-2]:
        batch *= d
    return 2.0 * batch * sa[-2] * sa[-1] * sb[-1]


def install(tracer: Tracer, vidsrl_modules: dict):
    """Wrap the public entry points of each layer named in the README."""
    dm = vidsrl_modules["diffmath"]
    synth = vidsrl_modules["synth"]
    data_model = vidsrl_modules["data_model"]
    encoder = vidsrl_modules["encoder"]
    srl = vidsrl_modules["srl"]
    training = vidsrl_modules["training"]
    metrics = vidsrl_modules["metrics"]

    def sample_id(args, kwargs):
        return args[0].id

    def method_sample_id(args, kwargs):
        return args[1].id

    def compiled_id(args, kwargs):
        return args[1].sample.id

    def adam_step(args, kwargs):
        return args[0].t + 1

    def count_graph(args):
        idx = tracer.begin("trace.graph_walk")
        tracer.count("diffmath.graph_nodes", graph_nodes(args[0]))
        tracer.end(idx)

    def count_matmul(args):
        tracer.count("diffmath.matmul_calls")
        tracer.count("diffmath.matmul_flop", matmul_flops(*args[:2]))

    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(synth, "write_dataset", "synth.write_dataset")
    tracer.wrap(data_model, "load_dataset_dir", "data_model.load_dataset_dir")
    tracer.wrap(training, "compile_sample", "training.compile_sample", ctx_fn=sample_id)
    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "video_loss", "training.video_loss", ctx_fn=compiled_id)
    tracer.wrap(training.Adam, "step", "training.adam_step", ctx_fn=adam_step)
    tracer.wrap(encoder.VideoObjectEncoder, "forward", "encoder.forward")
    tracer.wrap(srl.RoleObjectDecoder, "forward", "srl.role_decoder")
    tracer.wrap(srl.CaptionDecoder, "logits", "srl.caption_logits")
    tracer.wrap(srl.CaptionDecoder, "greedy", "srl.greedy",
                before=lambda args: tracer.count("srl.greedy_roles", args[1].shape[0]))
    tracer.wrap(srl.SituationModel, "predict_situation", "srl.predict_situation",
                ctx_fn=method_sample_id)
    tracer.wrap(dm.Tensor, "backward", "diffmath.backward", before=count_graph)
    tracer.wrap(dm, "save_tensors", "diffmath.save_tensors")
    tracer.wrap(metrics, "evaluate", "metrics.evaluate")
    tracer.wrap(training, "evaluate", "metrics.evaluate")
    tracer.wrap_counter(dm, "matmul", count_matmul)
