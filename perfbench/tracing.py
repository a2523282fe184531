"""Host spans around the public entry points of each ``repro`` layer.

The benchmark records spans from its own files: :class:`Instrumentation`
replaces layer entry points (class methods and module functions) with
thin wrappers while installed, and puts the originals back on exit.
Nothing under ``src/`` changes.

A span records its name, start, end and parent; spans inside one training
step or one serving batch share that step's id.  Spans stay in memory and
are written as Chrome-trace JSON at the end.  A span's self time is its
duration minus the time its direct children cover, so the self times of
all spans sum exactly to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: metric that root spans' self time accrues to
UNATTRIBUTED = "unattributed_s"


@dataclass
class Span:
    id: int
    name: str
    #: the ``*_s`` per-layer metric this span's self time accrues to
    metric: str
    start: float
    parent: Optional[int]
    #: id of the enclosing step span (training step or serving batch)
    step: Optional[int]
    #: first span of its metric on the stack (a call into the layer from
    #: another layer, not a call within it)
    outer: bool
    end: float = 0.0
    children_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span stack plus counters for one traced phase of a run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self.thread = threading.get_ident()

    def begin(self, name: str, metric: str, step: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            metric=metric,
            start=self.clock(),
            parent=None if parent is None else parent.id,
            step=None if parent is None else parent.step,
            outer=not any(s.metric == metric for s in self._stack),
        )
        if step:
            span.step = span.id
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end = self.clock()
        duration = span.end - span.start
        span.self_s = duration - span.children_s
        if self._stack:
            self._stack[-1].children_s += duration

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """A top-level span; its self time is the traced time no layer
        covers."""
        span = self.begin(name, UNATTRIBUTED)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    @property
    def wall_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.metric] += span.self_s
        return dict(out)

    def chrome_events(self, origin: float, tid: int) -> List[Dict[str, Any]]:
        pid = os.getpid()
        return [
            {
                "name": s.name,
                "cat": s.metric.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "step": s.step,
                         "self_us": s.self_s * 1e6},
            }
            for s in self.spans
        ]


# ---------------------------------------------------------------------- #
# patching
# ---------------------------------------------------------------------- #
class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class StepClock:
    """Host (and simulated) time of every training step and serving batch.

    Installed on every run, traced or not: a clock read on each side of
    ``ParallelTrainer.run_global_batch`` / ``ServeEngine._infer``.
    """

    def __init__(self) -> None:
        self.host_s: List[float] = []
        #: simulated barrier seconds of each training step
        self.sim_s: List[float] = []
        self._patches = Patches()

    def __enter__(self) -> "StepClock":
        from repro.engine.trainer import ParallelTrainer
        from repro.serve.engine import ServeEngine

        def train_step(func):
            @functools.wraps(func)
            def timed(trainer, *args, **kwargs):
                timeline = trainer.ctx.timeline
                sim0, t0 = timeline.wall_seconds, time.perf_counter()
                out = func(trainer, *args, **kwargs)
                self.host_s.append(time.perf_counter() - t0)
                self.sim_s.append(timeline.wall_seconds - sim0)
                return out
            return timed

        def serve_batch(func):
            @functools.wraps(func)
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                out = func(*args, **kwargs)
                self.host_s.append(time.perf_counter() - t0)
                return out
            return timed

        self._patches.wrap(ParallelTrainer, "run_global_batch", train_step)
        self._patches.wrap(ServeEngine, "_infer", serve_batch)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


# ---------------------------------------------------------------------- #
# the layer map: entry point -> span name -> per-layer metric
# ---------------------------------------------------------------------- #
def _minibatch_edges(tracer: Tracer, span: Span, mb) -> None:
    if span.outer and mb is not None:
        tracer.count("sampling.calls")
        tracer.count("sampling.edges", float(mb.total_edges()))


def _worker_batches(tracer: Tracer, span: Span, batches) -> None:
    for mb in batches:
        _minibatch_edges(tracer, span, mb)


def _shared_gather(tracer: Tracer, span: Span, result) -> None:
    if result is not None:
        tracer.count("gather.requested", float(result[0]))
        tracer.count("gather.unique", float(result[1]))


def _emit(tracer: Tracer, span: Span, result) -> None:
    tracer.count("obs.emit_calls")


#: (module, attribute path, span name, metric, step span?, result hook)
Target = Tuple[str, str, str, str, bool, Optional[Callable]]

_TARGETS: Tuple[Target, ...] = (
    ("repro.core.apt", "metis_like_partition", "partition.metis", "graph.partition_s", False, None),
    ("repro.core.apt", "streaming_partition", "partition.streaming", "graph.partition_s", False, None),
    ("repro.core.apt", "random_partition", "partition.random", "graph.partition_s", False, None),
    ("repro.sampling.neighbor", "NeighborSampler.sample", "sampler.sample", "sampling.sample_s", False, _minibatch_edges),
    ("repro.sampling.layerwise", "LayerWiseSampler.sample", "sampler.sample", "sampling.sample_s", False, _minibatch_edges),
    ("repro.sampling.cache", "SampleCache.sample", "sample_cache.sample", "sampling.sample_s", False, _minibatch_edges),
    ("repro.featurestore.store", "UnifiedFeatureStore.read", "store.read", "featurestore.read_s", False, None),
    ("repro.featurestore.store", "UnifiedFeatureStore.charge_load", "store.charge_load", "featurestore.read_s", False, None),
    ("repro.featurestore.store", "UnifiedFeatureStore.begin_shared_gather", "store.shared_gather", "featurestore.read_s", False, _shared_gather),
    ("repro.featurestore.store", "UnifiedFeatureStore.end_shared_gather", "store.shared_gather_end", "featurestore.read_s", False, None),
    ("repro.engine.context", "ExecutionContext.build", "context.build", "engine.context_s", False, None),
    ("repro.engine.trainer", "ParallelTrainer.run_global_batch", "trainer.step", "engine.step_self_s", True, None),
    ("repro.engine.trainer", "ParallelTrainer.train_epoch", "trainer.epoch", "engine.step_self_s", False, None),
    ("repro.tensor.tensor", "Tensor.backward", "tensor.backward", "tensor.backward_s", False, None),
    ("repro.tensor.optim", "Adam.step", "optim.step", "tensor.optim_s", False, None),
    ("repro.core.dryrun", "DryRun.run", "dryrun.run", "core.dryrun_s", False, None),
    ("repro.core.dryrun", "access_frequency_census", "dryrun.census", "core.dryrun_s", False, None),
    ("repro.core.apt", "APT.plan", "apt.plan", "core.plan_s", False, None),
    ("repro.core.apt", "APT.plan_serving", "apt.plan_serving", "core.plan_s", False, None),
    ("repro.core.costmodel", "CostModel.__init__", "costmodel.profile", "core.plan_s", False, None),
    ("repro.core.planner", "Planner.select", "planner.select", "core.plan_s", False, None),
    ("repro.core.apt", "make_backend", "backend.start", "parallel.control_s", False, None),
    ("repro.parallel.backend", "ProcessPoolBackend.close", "backend.close", "parallel.control_s", False, None),
    ("repro.parallel.backend", "ProcessPoolBackend.begin_epoch", "backend.begin_epoch", "parallel.control_s", False, None),
    ("repro.parallel.backend", "ProcessPoolBackend.finish_epoch", "backend.finish_epoch", "parallel.control_s", False, None),
    ("repro.parallel.backend", "ProcessPoolBackend.sample_device_chunks", "backend.sample", "parallel.wait_s", False, _worker_batches),
    ("repro.parallel.backend", "ProcessPoolBackend.take_gather", "backend.take_gather", "parallel.wait_s", False, None),
    ("repro.serve.engine", "ServeEngine.serve", "serve.serve", "serve.loop_s", False, None),
    ("repro.serve.engine", "ServeEngine._infer", "serve.infer", "serve.infer_s", True, None),
    ("repro.serve.cache", "HotnessCache.refresh", "serve.cache_refresh", "serve.loop_s", False, None),
    ("repro.obs.telemetry", "TelemetryCollector.emit", "telemetry.emit", "obs.emit_s", False, _emit),
)

#: strategy hooks wrapped on every Strategy subclass that defines them
_STRATEGY_HOOKS = (
    ("prepare", "engine.context_s"),
    ("plan_batch", "engine.plan_batch_s"),
    ("execute_batch", "engine.execute_s"),
    ("upper_forward", "engine.upper_forward_s"),
)


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Instrumentation:
    """Installs span wrappers on every layer entry point.

    Wrappers trace into ``self.tracer`` and pass straight through while it
    is ``None``, so a run can alternate traced and untraced repeats.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self._patches = Patches()

    def _make(self, name: str, metric: str, step: bool, hook) -> Callable:
        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                tracer = self.tracer
                if tracer is None or threading.get_ident() != tracer.thread:
                    return func(*args, **kwargs)
                span = tracer.begin(name, metric, step)
                try:
                    out = func(*args, **kwargs)
                finally:
                    tracer.end(span)
                if hook is not None:
                    hook(tracer, span, out)
                return out
            return traced
        return make

    def __enter__(self) -> "Instrumentation":
        import importlib

        import repro.engine  # noqa: F401  (registers every strategy)
        from repro.engine.base import Strategy

        try:
            for module_name, path, name, metric, step, hook in _TARGETS:
                owner: Any = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for cls_name in classes:
                    owner = getattr(owner, cls_name)
                self._patches.wrap(owner, attr, self._make(name, metric, step, hook))
            classes = {Strategy, *_subclasses(Strategy)}
            for cls in sorted(classes, key=lambda c: c.__qualname__):
                for attr, metric in _STRATEGY_HOOKS:
                    if attr in cls.__dict__:
                        self._patches.wrap(
                            cls, attr,
                            self._make(f"{cls.__name__}.{attr}", metric, False, None),
                        )
        except BaseException:
            self._patches.undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.tracer = None
        self._patches.undo()
