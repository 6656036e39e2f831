"""Outside-in layer tracer: times calls into the program's public functions.

The tracer never edits the program.  :meth:`Tracer.install` replaces
functions on emissary's modules and classes with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back, so a process can
alternate traced and untraced rounds.

Every wrapped call is a span keyed by a layer metric name.  A span's
*self* time is its duration minus the spans nested inside it, so the
self times of all keys add up without double counting: the time in
``BatchedEngine.run`` outside the kernel calls it makes is engine time,
the kernel calls are kernel time.  Iterators (streamed trace generation,
file decode) are spans per ``next()``.  On the server only synchronous
calls are wrapped, so the span stack is empty at every ``await``; a call
log of start and end times per key lets the serve host line calls up
with the requests that caused them.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

_perf = time.perf_counter


class Tracer:
    """Span stack plus per-key self time, call counts and counters."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        #: ``(start, end)`` of every call per key, when logging is on.
        self.log: dict[str, list[tuple[float, float]]] | None = None

    # -- spans --------------------------------------------------------

    def _close(self, key: str, t0: float, dt: float, child: float) -> None:
        self.self_s[key] += dt - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][0] += dt
        if self.log is not None:
            self.log.setdefault(key, []).append((t0, t0 + dt))

    def timed(self, key: str, fn: Callable[..., Any],
              after: Callable[..., None] | None = None) -> Callable[..., Any]:
        """Wrap ``fn`` as a span; ``after(tracer, args, result)`` runs
        outside the span to record counters."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                tracer._stack.pop()
                tracer._close(key, t0, dt, frame[0])
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def timed_iter(self, key: str, iterable: Any) -> Iterator[Any]:
        """Yield from ``iterable``, timing each ``next()`` as a span."""
        it = iter(iterable)
        while True:
            frame = [0.0]
            self._stack.append(frame)
            t0 = _perf()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = _perf() - t0
                self._stack.pop()
                self._close(key, t0, dt, frame[0])
            self.counts[key + ".items"] += 1
            yield item

    def totals(self) -> dict[str, dict[str, float]]:
        """Self milliseconds, call counts, counters and peaks so far."""
        return {"self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "calls": dict(self.calls), "counts": dict(self.counts),
                "peaks": dict(self.peaks)}

    # -- patching -----------------------------------------------------

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        if name not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {name!r} to trace")
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self, targets: list[Callable[["Tracer"], None]]) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in targets:
            target(self)


# -- counters recorded after a span -----------------------------------------


def _count_engine_input(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["engine.accesses"] += len(args[1])


def _count_compiled_input(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["kernel.accesses"] += len(args[1])


def _count_policy_input(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["kernel.accesses"] += len(args[2])


def _carry_peak(tracer: Tracer, args: tuple, result: Any) -> None:
    table = args[0]
    tracer.peaks["hierarchy.carry_bytes"] = max(
        tracer.peaks["hierarchy.carry_bytes"], int(table.nbytes))


# -- targets: one function per layer, each patching that module --------------


def trace_traces(tracer: Tracer) -> None:
    """Synthetic trace generation (``emissary.traces``).  File-backed
    specs pass straight through: their time belongs to ``trace_io``."""
    traces = importlib.import_module("emissary.traces")
    spec_cls = traces.TraceSpec
    gen, gen_chunks = spec_cls.generate, spec_cls.generate_chunks
    timed_gen = tracer.timed("traces.generate", gen)

    def generate(self: Any) -> Any:
        return gen(self) if self.kind == traces.FILE_KIND else timed_gen(self)

    def generate_chunks(self: Any, *args: Any, **kwargs: Any) -> Any:
        chunks = gen_chunks(self, *args, **kwargs)
        if self.kind == traces.FILE_KIND:
            return chunks
        return tracer.timed_iter("traces.generate", chunks)

    tracer.patch(spec_cls, "generate", generate)
    tracer.patch(spec_cls, "generate_chunks", generate_chunks)
    inter = traces.InterleaveSpec
    tracer.patch(inter, "generate", tracer.timed("traces.generate",
                                                 inter.generate))
    inter_chunks = inter.generate_chunks
    tracer.patch(inter, "generate_chunks",
                 lambda self, *a, **k: tracer.timed_iter(
                     "traces.generate", inter_chunks(self, *a, **k)))


def trace_trace_io(tracer: Tracer) -> None:
    """File open, content verification and chunk decode (``emissary.trace_io``)."""
    trace_io = importlib.import_module("emissary.trace_io")
    for cls in (trace_io.ChampSimSource, trace_io.NpySource,
                trace_io.NpzSource):
        original = vars(cls)["__iter__"]
        tracer.patch(cls, "__iter__",
                     lambda self, _orig=original: tracer.timed_iter(
                         "trace_io.decode", _orig(self)))
    tracer.patch(trace_io, "spec_source",
                 tracer.timed("trace_io.decode", trace_io.spec_source))


def trace_engine(tracer: Tracer) -> None:
    """Batched engine work around the kernels (``emissary.engine``)."""
    engine = importlib.import_module("emissary.engine")
    tracer.patch(engine.BatchedEngine, "run",
                 tracer.timed("engine", engine.BatchedEngine.run,
                              after=_count_engine_input))
    stream = engine.EngineStream
    tracer.patch(stream, "feed", tracer.timed("engine", stream.feed,
                                              after=_count_engine_input))
    tracer.patch(stream, "flush", tracer.timed("engine", stream.flush))
    tracer.patch(stream, "finish", tracer.timed("engine", stream.finish))


def trace_compiled(tracer: Tracer) -> None:
    """Native kernel dispatch (``emissary.compiled``)."""
    compiled = importlib.import_module("emissary.compiled")
    kernel = compiled.CompiledKernel
    tracer.patch(kernel, "run_batch",
                 tracer.timed("compiled.kernel", kernel.run_batch,
                              after=_count_compiled_input))


def trace_hierarchy(tracer: Tracer) -> None:
    """L1I miss-count extraction (``emissary.hierarchy``)."""
    hierarchy = importlib.import_module("emissary.hierarchy")
    tracer.patch(hierarchy, "running_miss_counts",
                 tracer.timed("hierarchy.miss_extract",
                              hierarchy.running_miss_counts))
    table = hierarchy.MissCountTable
    tracer.patch(table, "advance",
                 tracer.timed("hierarchy.miss_extract", table.advance,
                              after=_carry_peak))


def trace_policies(tracer: Tracer) -> None:
    """Set-major python policy kernels (``emissary.policies``)."""
    policies = importlib.import_module("emissary.policies")
    for kernel_cls, _naive in policies.REGISTRY.values():
        tracer.patch(kernel_cls, "run_set",
                     tracer.timed("policies.kernel", kernel_cls.run_set,
                                  after=_count_policy_input))


#: Layers a simulation process traces (the program process, or the serve
#: worker, which inherits the patches when the pool forks it).
SIM_TARGETS = [trace_traces, trace_trace_io, trace_engine, trace_compiled,
               trace_hierarchy, trace_policies]


def trace_serve(tracer: Tracer) -> None:
    """Server-side layers on the event loop: admission, cache I/O and
    the metrics render."""
    results_cache = importlib.import_module("emissary.results_cache")
    service = importlib.import_module("emissary.serve.service")
    server = importlib.import_module("emissary.serve.server")
    cache = results_cache.BudgetedResultsCache
    tracer.patch(cache, "load", tracer.timed("results_cache.load", cache.load))
    tracer.patch(cache, "store", tracer.timed("results_cache.store",
                                              cache.store))
    svc = service.SimService
    tracer.patch(svc, "admit", tracer.timed("serve.admit", svc.admit))
    tracer.patch(server, "render_prometheus",
                 tracer.timed("obs.render", server.render_prometheus))

