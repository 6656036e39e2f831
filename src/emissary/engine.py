"""Trace-driven set-associative cache simulation engines.

Two engines with bit-identical outcomes:

:class:`BatchedEngine` (the hot path)
    Decodes the whole trace once into NumPy tag / set-index vectors,
    stable-sorts accesses by set, and dispatches each set's accesses to
    the policy kernel as one contiguous chunk.  Per-access Python
    overhead (address math, attribute lookups, method dispatch) is paid
    once per *chunk* instead of once per access, and the per-set inner
    loops run over plain lists with C-level ``list.index`` lookups.
    Legal because set-associative replacement state is independent
    across sets, so reordering accesses *between* sets (while preserving
    order *within* each set — hence the stable sort) cannot change any
    hit/miss outcome.

:class:`ReferenceEngine` (the oracle)
    The straightforward implementation: one Python iteration per access,
    decoding the address and calling zsim-style policy methods.  It
    exists to validate the batched engine (the equivalence test suite
    compares full hit/miss sequences) and to anchor the benchmark's
    speedup figure.

Randomness: the engine pre-generates one uniform per trace access from a
single ``numpy.random.Generator`` seeded once per run.  Policies index
it by global access position, so RNG consumption is identical no matter
the execution order.

One pipeline: :class:`EngineStream` is the batched engine's only
execution path.  It accepts the trace as a sequence of ``uint64``
address chunks — e.g. a :class:`~emissary.trace_io.TraceSource` reading
a multi-GB file under a memory budget — and carries all replacement
state, the RNG stream, and the MRU run collapsing across chunk
boundaries.  :meth:`BatchedEngine.simulate_stream` feeds it many chunks;
:meth:`BatchedEngine.run` feeds it the whole trace as one chunk, resolved
in a single dispatch, so streamed and one-shot outcomes agree by
construction.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np
from numpy.typing import NDArray

from emissary.api import PolicySpec, require_policy_spec
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.compiled import (
    CompiledKernel,
    CompiledUnavailableError,
    make_compiled_kernel,
)
from emissary.policies import make_kernel, make_naive, policy_needs_rng
from emissary.policies.base import PolicyKernel
from emissary.telemetry import Telemetry, null_span, span_factory
from emissary.traces import AddressArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

#: Kernel backends a :class:`BatchedEngine` can execute with.
KERNEL_BACKENDS = ("python", "compiled")

_T = TypeVar("_T")


def _make_engine_kernel(spec: PolicySpec, config: "CacheConfig",
                        kernel_backend: str,
                        compiled_provider: str | None,
                        num_cores: int = 1
                        ) -> "PolicyKernel | CompiledKernel":
    """Build the policy kernel for one run.

    ``kernel_backend="compiled"`` tries the compiled providers; if none
    loads and no provider was pinned, it **warns and falls back** to the
    batched Python kernels (outcomes are bit-identical, only slower), so
    ``backend="compiled"`` requests stay portable to hosts without numba
    or a C compiler.  A pinned ``compiled_provider`` turns that fallback
    into a hard :class:`~emissary.compiled.CompiledUnavailableError` —
    benchmarks must fail loudly rather than silently time Python.

    ``num_cores`` is the engine's execution context (how many front-ends
    feed this cache), not a policy parameter — it is injected into the
    kernel rather than carried in ``spec.params`` so multi-core and solo
    requests keep their natural results-cache keys.  Only EMISSARY's
    partitioned HP budget consumes it.
    """
    extra = {"num_cores": num_cores} if spec.name == "emissary" else {}
    if kernel_backend == "compiled":
        try:
            return make_compiled_kernel(
                spec.name, config.num_sets, config.ways,
                provider=compiled_provider, **spec.params, **extra)
        except CompiledUnavailableError as exc:
            if compiled_provider is not None:
                raise
            warnings.warn(
                f"compiled kernel backend unavailable ({exc}); falling "
                "back to the batched Python kernels (outcomes are "
                "bit-identical, only slower)",
                RuntimeWarning, stacklevel=3)
    elif kernel_backend != "python":
        raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                         f"(expected one of {KERNEL_BACKENDS})")
    return make_kernel(spec.name, config.num_sets, config.ways,
                       **spec.params, **extra)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


#: Per-access hit/miss outcomes.
BoolArray = NDArray[np.bool_]
#: Decoded int64 payloads: tags, set indices, costs, run lengths.
IndexArray = NDArray[np.int64]
#: Per-access uniform draws aligned with the trace.
UniformArray = NDArray[np.float64]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the simulated cache (defaults: 512 KiB, 8-way, 64 B lines)."""

    num_sets: int = 1024
    ways: int = 8
    line_size: int = 64

    def __post_init__(self) -> None:
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_size

    def to_dict(self) -> dict[str, int]:
        return {"num_sets": self.num_sets, "ways": self.ways, "line_size": self.line_size}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CacheConfig":
        check_known_keys(d, ("num_sets", "ways", "line_size"), "CacheConfig")
        return cls(num_sets=int(d["num_sets"]), ways=int(d["ways"]),
                   line_size=int(d.get("line_size", 64)))


@dataclass
class SimResult:
    """Outcome of one (trace, policy, config) simulation.

    ``telemetry`` is the schema-versioned payload from
    :class:`~emissary.telemetry.Telemetry` when the run was instrumented,
    else None (and omitted from :meth:`to_dict`).
    """

    policy: str
    n: int
    hit_count: int
    miss_count: int
    elapsed_s: float
    hits: BoolArray | None = None
    policy_stats: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] | None = None

    @property
    def hit_rate(self) -> float:
        return self.hit_count / self.n if self.n else 0.0

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction (each trace entry is one fetch)."""
        return 1000.0 * self.miss_count / self.n if self.n else 0.0

    @property
    def accesses_per_s(self) -> float | None:
        """Throughput, or None when no time elapsed — None (JSON null)
        rather than ``inf``, which ``json`` emits as non-roundtrippable
        ``Infinity``.  Tables render it as ``-``."""
        return self.n / self.elapsed_s if self.elapsed_s > 0 else None

    #: Wire keys of the :meth:`to_dict` payload (see :mod:`emissary.wire`).
    _WIRE_KEYS = frozenset({WIRE_SCHEMA_KEY, "policy", "n", "hit_count",
                            "miss_count", "hit_rate", "mpki", "elapsed_s",
                            "accesses_per_s", "policy_stats", "telemetry"})

    def to_dict(self) -> dict[str, Any]:
        d = {
            WIRE_SCHEMA_KEY: WIRE_SCHEMA_VERSION,
            "policy": self.policy,
            "n": self.n,
            "hit_count": self.hit_count,
            "miss_count": self.miss_count,
            "hit_rate": self.hit_rate,
            "mpki": self.mpki,
            "elapsed_s": self.elapsed_s,
            "accesses_per_s": self.accesses_per_s,
            "policy_stats": self.policy_stats,
        }
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimResult":
        """Rebuild from :meth:`to_dict` output (strict wire decode: v0
        dicts are accepted, unknown keys and newer versions rejected).
        Derived fields are recomputed from the counts; the hit vector is
        not serialized."""
        check_wire_version(d, "SimResult")
        check_known_keys(d, cls._WIRE_KEYS, "SimResult")
        return cls(
            policy=d["policy"],
            n=int(d["n"]),
            hit_count=int(d["hit_count"]),
            miss_count=int(d["miss_count"]),
            elapsed_s=float(d["elapsed_s"]),
            policy_stats=dict(d.get("policy_stats", {})),
            telemetry=d.get("telemetry"),
        )


def _uniforms(n: int, policy: str, seed: int) -> UniformArray | None:
    if not policy_needs_rng(policy):
        return None
    return np.random.default_rng(seed).random(n)


def _channel(values: IndexArray | None, n: int, name: str,
             used: bool) -> IndexArray | None:
    """Validate an optional per-access int64 side channel (cost, core);
    None when absent or when nothing downstream reads it."""
    if values is None:
        return None
    if len(values) != n:
        raise ValueError(f"{name} has {len(values)} entries for {n} accesses")
    return np.ascontiguousarray(values, dtype=np.int64) if used else None


def _prepend(head: int | float | None, body: NDArray[Any] | None,
             dtype: Any) -> Any:
    """The carried run's channel value ahead of this step's runs.  A
    channel absent from the step (``body`` None — the empty chunk a
    flush resolves) still carries the run's own value."""
    if head is None:
        return body
    first = np.array([head], dtype=dtype)
    return first if body is None else np.concatenate([first, body])


class BatchedEngine:
    """Batched set-major execution core.

    Two trace-level optimizations run before any Python-loop work:

    1. **MRU run collapsing** — instruction streams touch the same cache
       line many times in a row (sequential fetch within a 64 B line).
       An access to the line accessed immediately before it is always a
       hit and changes no replacement state under every shipped policy
       (LRU/EMISSARY: the line is already MRU; SRRIP: RRPV is already 0;
       Random: hits don't update state).  Only "edge" accesses — line
       transitions — enter the policy kernels; collapsed accesses are
       recorded as hits directly.  On instruction-like traces this
       removes ~90% of kernel iterations while keeping outcomes
       bit-identical (the equivalence suite checks this per access).
    2. **Set-major batching** — edge accesses are stable-sorted by set
       index and dispatched to the kernel one contiguous chunk per set,
       paying Python dispatch overhead per chunk instead of per access.
    """

    def __init__(self, config: CacheConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = "python",
                 compiled_provider: str | None = None,
                 num_cores: int = 1) -> None:
        self.config = config or CacheConfig()
        #: How many front-ends feed this cache (execution context, not a
        #: policy parameter).  Injected into core-aware kernels; 1 for
        #: the ordinary single-stream engine.
        self.num_cores = num_cores
        #: Optional :class:`~emissary.telemetry.Telemetry` registry; when
        #: None (the default) the run takes the uninstrumented fast path.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`
        #: (debug mode): validates per-set kernel state after every
        #: dispatch.  None (the default) costs one ``is None`` test per run.
        self.sanitizer = sanitizer
        if kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(f"unknown kernel_backend {kernel_backend!r} "
                             f"(expected one of {KERNEL_BACKENDS})")
        #: ``"python"`` runs the per-set list kernels; ``"compiled"``
        #: dispatches whole batches in trace order to a native provider
        #: (see :mod:`emissary.compiled`), skipping the set-major sort.
        self.kernel_backend = kernel_backend
        self.compiled_provider = compiled_provider

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True, cost: IndexArray | None = None,
            core: IndexArray | None = None) -> SimResult:
        """Simulate the whole trace as the single chunk of a one-shot
        :class:`EngineStream`."""
        spec = require_policy_spec(policy, caller="BatchedEngine.run")
        stream = EngineStream(self, spec, seed=seed, keep_hits=keep_hits,
                              miss_lines=False, one_shot=True)
        # The private step, not ``feed``: layerbench's tracer wraps both
        # ``run`` and ``feed``, and must see each access once.
        stream._ingest(addresses, cost, core, final=True)
        return stream.finish()

    def stream(self, policy: PolicySpec, seed: int = 0,
               keep_hits: bool = True) -> "EngineStream":
        """Open an incremental :class:`EngineStream` for chunked feeding."""
        spec = require_policy_spec(policy, caller="BatchedEngine.stream")
        return EngineStream(self, spec, seed=seed, keep_hits=keep_hits)

    def simulate_stream(self, chunks: Iterable[AddressArray],
                        policy: PolicySpec, seed: int = 0,
                        keep_hits: bool = True,
                        cost_chunks: Iterable[AddressArray] | None = None
                        ) -> SimResult:
        """Run ``policy`` over a chunked trace in bounded memory.

        ``chunks`` is any iterable of ``uint64`` address arrays in trace
        order — typically a :class:`~emissary.trace_io.TraceSource`
        reading a file under a memory budget.  Outcomes (hit vector,
        counts, policy stats) are bit-identical to :meth:`run` on the
        concatenated trace.  ``cost_chunks``, when given, must yield one
        cost array per address chunk (aligned lengths).
        """
        spec = require_policy_spec(policy, caller="BatchedEngine.stream")
        stream = EngineStream(self, spec, seed=seed, keep_hits=keep_hits,
                              miss_lines=False)
        cost_iter = iter(cost_chunks) if cost_chunks is not None else None

        def feed(chunk: AddressArray) -> None:
            stream.feed(chunk, next(cost_iter) if cost_iter is not None else None)

        feed_chunks(chunks, span_factory(self.telemetry), feed)
        return stream.finish()


def feed_chunks(chunks: Iterable[_T], span: Any,
                feed: Callable[[_T], None]) -> None:
    """Pass each chunk to ``feed``, recording each pull (trace decode or
    generation) as a ``stream_ingest`` span.  No chunk outlives its feed:
    a view into a memory-mapped trace file keeps the whole file resident
    while it is referenced."""
    chunk_iter = iter(chunks)
    while True:
        with span("stream_ingest"):
            chunk = next(chunk_iter, None)
        if chunk is None:
            return
        feed(chunk)


class EngineStream:
    """The batched pipeline behind every :class:`BatchedEngine` run.

    Feed ``uint64`` address chunks in trace order with :meth:`feed`; all
    replacement state (per-set kernel state, the RNG stream, MRU run
    collapsing) carries across chunk boundaries, so the assembled result
    is bit-identical to running the concatenated trace in one shot —
    while only one chunk (plus O(1) carried state) is resident at a time.
    A ``one_shot`` stream takes the whole trace as its single chunk and
    resolves it in one dispatch: that is :meth:`BatchedEngine.run`.

    The subtlety is run collapsing at chunk boundaries: an access's
    repeat flag (a fill immediately re-referenced — SRRIP inserts it at
    RRPV 0) and its folded-hit count are only knowable once its MRU run
    *ends*, which may be several chunks later.  The stream therefore
    holds back each chunk's trailing run as a compressed carry
    ``(line, u, cost, core, length)`` — O(1) memory however long the
    run — and dispatches it the moment a different line arrives (or the
    stream is flushed).  Consequently :meth:`feed` returns outcomes for
    the accesses it *resolved*, which can trail the accesses fed so far
    by one run.
    """

    def __init__(self, engine: "BatchedEngine", spec: PolicySpec, seed: int = 0,
                 keep_hits: bool = True, miss_lines: bool = True,
                 one_shot: bool = False) -> None:
        config = engine.config
        self.config = config
        self.spec = spec
        self.keep_hits = keep_hits
        #: Whether :meth:`feed` / :meth:`flush` return the missing
        #: accesses' lines (what a hierarchy forwards to the next level).
        self.miss_lines = miss_lines
        #: A one-shot stream resolves its single chunk whole, records
        #: per-phase spans (decode / run_collapse / stable_sort /
        #: kernel_loop) instead of per-chunk ones, and counts no
        #: ``engine.stream_chunks``.
        self.one_shot = one_shot
        self.telemetry = engine.telemetry
        self._span = span_factory(self.telemetry)
        self.kernel = _make_engine_kernel(spec, config, engine.kernel_backend,
                                          engine.compiled_provider,
                                          num_cores=engine.num_cores)
        if self.telemetry is not None:
            self.kernel.attach_telemetry(self.telemetry)
        self.sanitizer = engine.sanitizer
        if self.sanitizer is not None:
            # After attach_telemetry, so the wrapper sees the bound loop.
            self.sanitizer.attach_kernel(self.kernel)
        self._rng = (np.random.default_rng(seed)
                     if policy_needs_rng(spec.name) else None)
        self.n = 0
        self._edge_count = 0
        self._hit_count = 0
        self._hit_chunks: list[BoolArray] = []
        self._chunk_index = 0
        #: Trailing unresolved MRU run: (line, u, cost, core, length) or None.
        self._pending: tuple[int, float | None, int | None, int | None,
                             int] | None = None
        #: Misses per issuing core, tallied whenever a ``core`` channel is
        #: fed (ids must lie in ``[0, engine.num_cores)``): the shared-L2
        #: per-core breakdown.
        self.miss_by_core = np.zeros(engine.num_cores, dtype=np.int64)
        self._flushed = False
        self._start = time.perf_counter()

    def feed(self, addresses: AddressArray,
             cost: IndexArray | None = None,
             core: IndexArray | None = None
             ) -> tuple[BoolArray | None, AddressArray | None]:
        """Process the next chunk of addresses (with optional per-access
        cost and issuing-core ids).

        Returns ``(hits, miss_lines)`` for the accesses *resolved* by
        this call: ``hits`` is their hit/miss outcomes in access order
        (cumulatively concatenating to the one-shot hit vector; None when
        the stream keeps no hits), and ``miss_lines`` the line numbers of
        the missing accesses in order (None unless the stream was opened
        with ``miss_lines=True``).  On a one-shot stream the chunk is the
        whole trace and nothing is carried.
        """
        if self.one_shot:
            return self._ingest(addresses, cost, core, final=True)
        index = self._chunk_index
        with self._span("stream_chunk", chunk=index, accesses=len(addresses)):
            out = self._ingest(addresses, cost, core, final=False)
        self._chunk_index = index + 1
        return out

    def flush(self) -> tuple[BoolArray | None, AddressArray | None]:
        """Resolve the carried trailing run (stream end).  Returns its
        ``(hits, miss_lines)``; :meth:`feed` is an error afterwards."""
        return self._ingest(np.zeros(0, dtype=np.uint64), None, None,
                            final=True)

    def _ingest(self, addresses: AddressArray, cost: IndexArray | None,
                core: IndexArray | None,
                final: bool) -> tuple[BoolArray | None, AddressArray | None]:
        """One pipeline step: decode, collapse MRU runs, dispatch the
        resolved edge accesses, fold outcomes in.  ``final`` resolves the
        trailing run in the same dispatch instead of carrying it."""
        if self._flushed:
            raise RuntimeError("stream already flushed; start a new stream")
        kernel = self.kernel
        span = self._span if self.one_shot else null_span
        with span("decode"):
            addrs = np.ascontiguousarray(addresses, dtype=np.uint64)
            k_total = len(addrs)
            cost = _channel(cost, k_total, "cost", kernel.consumes_cost)
            # Kept even for core-blind kernels: ``miss_by_core``.
            core = _channel(core, k_total, "core", True)
            lines = addrs >> np.uint64(self.config.offset_bits)
            u = self._rng.random(k_total) if self._rng is not None else None
        self.n += k_total
        self._flushed = final
        with span("run_collapse"):
            runs = self._collapse(lines, u, cost, core, final)
        if runs is None:
            return (np.zeros(0, dtype=bool) if self.keep_hits else None,
                    np.zeros(0, dtype=np.uint64) if self.miss_lines else None)
        run_lines, run_u, run_cost, run_core, rep, extra, starts, window = runs
        kern_core = run_core if kernel.consumes_core else None
        if isinstance(kernel, CompiledKernel):
            # Trace-order native dispatch: sets are independent, so
            # per-set state evolves identically without a set-major sort.
            with span("kernel_batch"):
                set_idx = (run_lines & np.uint64(self.config.num_sets - 1)
                           ).astype(np.int64)
                tags = (run_lines >> np.uint64(self.config.set_bits)
                        ).astype(np.int64)
                edge_hits = kernel.run_batch(set_idx, tags, run_u, rep,
                                             run_cost, extra, kern_core)
        else:
            edge_hits = self._run_sets(kernel, run_lines, (run_u, rep, run_cost,
                                                           extra, kern_core), span)
        return self._resolve(run_lines, run_core, edge_hits, starts, window)

    def _collapse(self, lines: AddressArray, u: UniformArray | None,
                  cost: IndexArray | None, core: IndexArray | None,
                  final: bool) -> tuple[Any, ...] | None:
        """Cut a chunk into the MRU runs it resolves, carrying the
        trailing run unless ``final``.  Returns per-run (edge access)
        ``(lines, u, cost, core, rep, extra)``, each run's offset among
        the ``window`` accesses resolved, and ``window`` — or None."""
        k_total = len(lines)
        pending, self._pending = self._pending, None
        k = 0  # accesses at the chunk head that continue the carried run
        if pending is not None:
            differs = np.flatnonzero(lines != np.uint64(pending[0]))
            k = int(differs[0]) if differs.size else k_total
            pending = (*pending[:4], pending[4] + k)
            if k == k_total and not final:
                self._pending = pending  # whole chunk continues the run
                return None
        edges: NDArray[np.intp]
        if k < k_total:
            sub = lines[k:]
            edge_mask = np.empty(len(sub), dtype=bool)
            edge_mask[0] = True
            np.not_equal(sub[1:], sub[:-1], out=edge_mask[1:])
            edges = np.flatnonzero(edge_mask)
            if k:
                edges += k
        else:
            edges = np.zeros(0, dtype=np.intp)
        end = k_total
        if not final and len(edges):
            end = int(edges[-1])
            self._pending = (
                int(lines[end]),
                float(u[end]) if u is not None else None,
                int(cost[end]) if cost is not None else None,
                int(core[end]) if core is not None else None,
                k_total - end,
            )
            edges = edges[:-1]
        if pending is None and not len(edges):
            return None

        run_lines = lines[edges]
        run_u = u[edges] if u is not None else None
        run_cost = cost[edges] if cost is not None else None
        run_core = core[edges] if core is not None else None
        starts: NDArray[Any] = edges
        window = end
        if pending is not None:
            pline, pu, pcost, pcore, pcount = pending
            run_lines = _prepend(pline, run_lines, np.uint64)
            run_u = _prepend(pu, run_u, np.float64)
            run_cost = _prepend(pcost, run_cost, np.int64)
            run_core = _prepend(pcore, run_core, np.int64)
            starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), edges + (pcount - k)])
            window = pcount + end - k
        rep: BoolArray | None = None
        extra: NDArray[Any] | None = None
        if self.kernel.needs_repeat_flags or self.telemetry is not None:
            # Run length per edge access; > 1 means the line is
            # re-referenced immediately after (the collapsed hits).
            lengths: NDArray[Any] = np.diff(edges, append=end)
            if pending is not None:
                lengths = np.concatenate(
                    [np.array([pending[4]], dtype=np.int64), lengths])
            if self.kernel.needs_repeat_flags:
                rep = lengths > 1
            if self.telemetry is not None:
                # Collapsed hits folded into each edge access, so
                # instrumented per-line hit accounting stays exact.
                extra = lengths - 1
        return (run_lines, run_u, run_cost, run_core, rep, extra, starts,
                window)

    def _run_sets(self, kernel: PolicyKernel, run_lines: AddressArray,
                  channels: tuple[Any, ...], span: Any) -> BoolArray:
        """Python kernels: stable-sort the edge accesses by set and run
        each present set's accesses as one contiguous ``run_set`` call.
        ``channels`` is ``(u, rep, cost, extra, core)``, each array or
        None, in trace order; returns the edge outcomes in trace order."""
        config = self.config
        m = len(run_lines)
        with span("stable_sort"):
            set_idx = (run_lines & np.uint64(config.num_sets - 1)).astype(np.int64)
            tags = (run_lines >> np.uint64(config.set_bits)).astype(np.int64)
            # Stable sort groups accesses by set while preserving per-set order.
            order = np.argsort(set_idx, kind="stable")
            sorted_sets = set_idx[order]
            sorted_tags = tags[order]
            sorted_channels = [c[order] if c is not None else None
                               for c in channels]
            # Only the sets present: each starts where the sorted set
            # index changes (no per-set scan, no extra sort).
            first = np.empty(m, dtype=bool)
            first[0] = True
            np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=first[1:])
            set_starts = np.flatnonzero(first)
            present = sorted_sets[set_starts].tolist()
            bounds = [*set_starts.tolist(), m]
        sorted_hits = np.empty(m, dtype=bool)
        with span("kernel_loop"):
            for which, s in enumerate(present):
                lo, hi = bounds[which], bounds[which + 1]
                sorted_hits[lo:hi] = kernel.run_set(
                    s, sorted_tags[lo:hi].tolist(),
                    *[c[lo:hi].tolist() if c is not None else None
                      for c in sorted_channels])
        edge_hits = np.empty(m, dtype=bool)
        edge_hits[order] = sorted_hits
        return edge_hits

    def _resolve(self, run_lines: AddressArray, run_core: IndexArray | None,
                 edge_hits: BoolArray, starts: NDArray[Any],
                 window: int) -> tuple[BoolArray | None, AddressArray | None]:
        """Fold resolved runs into the stream totals: each run is its
        edge outcome followed by (length - 1) collapsed hits, so the hit
        count needs no per-access vector."""
        m = len(edge_hits)
        self._edge_count += m
        self._hit_count += window - m + int(np.count_nonzero(edge_hits))
        hits: BoolArray | None = None
        if self.keep_hits:
            hits = np.ones(window, dtype=bool)
            hits[starts] = edge_hits
            self._hit_chunks.append(hits)
        miss_lines: AddressArray | None = None
        if self.miss_lines or run_core is not None:
            missed = ~edge_hits
            if run_core is not None:
                self.miss_by_core += np.bincount(
                    run_core[missed], minlength=len(self.miss_by_core))
            if self.miss_lines:
                miss_lines = run_lines[missed]
        return hits, miss_lines

    def finish(self) -> SimResult:
        """Flush (if not already flushed) and assemble the SimResult."""
        if not self._flushed:
            self.flush()
        tel = self.telemetry
        if tel is not None:
            self.kernel.telemetry_finalize()
            tel.inc("engine.accesses", self.n)
            tel.inc("engine.edge_accesses", self._edge_count)
            tel.inc("engine.collapsed_hits", self.n - self._edge_count)
            if not self.one_shot:
                tel.inc("engine.stream_chunks", self._chunk_index)
            tel.inc("hits", self._hit_count)
            tel.inc("misses", self.n - self._hit_count)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, self.n, self._hit_count)
        hits: BoolArray | None = None
        if self.keep_hits:
            chunks = self._hit_chunks
            hits = (chunks[0] if len(chunks) == 1
                    else np.concatenate(chunks) if chunks
                    else np.zeros(0, dtype=bool))
        return SimResult(
            policy=self.spec.name,
            n=self.n,
            hit_count=self._hit_count,
            miss_count=self.n - self._hit_count,
            elapsed_s=time.perf_counter() - self._start,
            hits=hits,
            policy_stats=self.kernel.extra_stats(),
            telemetry=tel.to_dict() if tel is not None else None,
        )


class ReferenceEngine:
    """Naive per-access reference implementation (one Python step per access).

    With a :class:`~emissary.telemetry.Telemetry` attached, the engine
    does the generic line-lifetime accounting itself (it resolves tags
    and victims), and the naive policy contributes its policy-specific
    counters via ``telemetry_finalize`` — producing the same counter and
    histogram names as the instrumented batched kernels, which the
    telemetry test suite compares across engines.
    """

    def __init__(self, config: CacheConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 num_cores: int = 1) -> None:
        self.config = config or CacheConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer
        self.num_cores = num_cores

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True, cost: IndexArray | None = None,
            core: IndexArray | None = None) -> SimResult:
        spec = require_policy_spec(policy, caller="ReferenceEngine.run")
        config = self.config
        tel = self.telemetry
        n = len(addresses)
        num_sets, ways = config.num_sets, config.ways
        offset_bits, set_bits = config.offset_bits, config.set_bits
        set_mask = num_sets - 1
        if cost is not None and len(cost) != n:
            raise ValueError(f"cost has {len(cost)} entries for {n} accesses")
        if core is not None and len(core) != n:
            raise ValueError(f"core has {len(core)} entries for {n} accesses")

        start = time.perf_counter()
        u_arr = _uniforms(n, spec.name, seed)
        u_list = u_arr.tolist() if u_arr is not None else None
        cost_list = (np.asarray(cost, dtype=np.int64).tolist()
                     if cost is not None else None)
        core_list = (np.asarray(core, dtype=np.int64).tolist()
                     if core is not None else None)
        extra = {"num_cores": self.num_cores} if spec.name == "emissary" else {}
        impl = make_naive(spec.name, num_sets, ways, **spec.params, **extra)
        if self.sanitizer is not None:
            self.sanitizer.attach_naive(impl)
        tag_table = [[None] * ways for _ in range(num_sets)]
        hits = np.empty(n, dtype=bool)
        # Per-(set, way) hits-since-fill; only maintained when instrumented.
        track = tel is not None
        line_hits = [0] * (num_sets * ways) if track else None
        fills = evictions = dead = 0
        span = span_factory(tel)

        with span("naive_loop"):
            for i, addr in enumerate(addresses.tolist()):
                line = addr >> offset_bits
                s = line & set_mask
                tag = line >> set_bits
                u_i = u_list[i] if u_list is not None else 0.0
                set_tags = tag_table[s]
                way = -1
                for w in range(ways):
                    if set_tags[w] == tag:
                        way = w
                        break
                if way >= 0:
                    impl.on_hit(s, way, i)
                    if track:
                        line_hits[s * ways + way] += 1
                    hits[i] = True
                    continue
                for w in range(ways):
                    if set_tags[w] is None:
                        way = w
                        break
                else:
                    way = impl.find_victim(s, u_i)
                    impl.replaced(s, way)
                    if track:
                        victim_hits = line_hits[s * ways + way]
                        tel.observe("line_hits", victim_hits)
                        evictions += 1
                        if victim_hits == 0:
                            dead += 1
                set_tags[way] = tag
                impl.on_fill(s, way, i, u_i,
                             cost_list[i] if cost_list is not None else None,
                             core_list[i] if core_list is not None else None)
                if track:
                    line_hits[s * ways + way] = 0
                    fills += 1
                hits[i] = False

        elapsed = time.perf_counter() - start
        hit_count = int(hits.sum())
        if track:
            tel.inc("fills", fills)
            tel.inc("evictions", evictions)
            tel.inc("dead_on_fill", dead)
            tel.inc("hits", hit_count)
            tel.inc("misses", n - hit_count)
            tel.inc("engine.accesses", n)
            for s in range(num_sets):
                set_tags = tag_table[s]
                for w in range(ways):
                    if set_tags[w] is not None:
                        tel.observe("resident_line_hits", line_hits[s * ways + w])
            impl.telemetry_finalize(tel)
            if self.sanitizer is not None:
                self.sanitizer.check_counters(tel, n, hit_count)
        return SimResult(
            policy=spec.name,
            n=n,
            hit_count=hit_count,
            miss_count=n - hit_count,
            elapsed_s=elapsed,
            hits=hits if keep_hits else None,
            policy_stats={},
            telemetry=tel.to_dict() if tel is not None else None,
        )


def simulate(addresses: AddressArray, policy: PolicySpec,
             config: CacheConfig | None = None, seed: int = 0,
             engine: str = "batched") -> SimResult:
    """Array-level convenience wrapper: run ``policy`` over ``addresses``.

    For spec-described traces (and two-level hierarchies) prefer
    :func:`emissary.api.simulate` with a :class:`~emissary.api.SimRequest`.
    """
    if engine == "batched":
        return BatchedEngine(config).run(addresses, policy, seed=seed)
    if engine == "compiled":
        return BatchedEngine(config, kernel_backend="compiled").run(
            addresses, policy, seed=seed)
    if engine == "reference":
        return ReferenceEngine(config).run(addresses, policy, seed=seed)
    raise ValueError(f"unknown engine {engine!r} "
                     "(expected 'batched', 'compiled', or 'reference')")
