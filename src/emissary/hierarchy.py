"""Two-level L1I -> L2 instruction-cache hierarchy engines.

EMISSARY is an *L2* instruction cache policy: its miss-awareness signal
is which lines cost L1I demand misses, so the paper's setting is an L2
sitting behind an L1I filter.  This module provides that setting:

:class:`BatchedHierarchyEngine` (the hot path)
    Stage 1 simulates the L1I with a batched
    :class:`~emissary.engine.EngineStream` (MRU run collapsing removes
    the ~90% of fetches that re-touch the current line — those can never
    reach L2).  Only the L1I *miss stream* proceeds to stage 2, together
    with each miss line's running L1I miss count from a
    :class:`MissCountTable` — the paper's priority signal, measured
    rather than assumed.  Stage 2 runs the policy under test over the
    miss stream on a second stream; cost-aware policies (EMISSARY)
    receive the measured counts through the kernel ``cost`` channel and
    gate HP candidacy on them (``min_l1_misses``).  This is one chunked
    pipeline over ``(addresses, core)`` chunks: a one-shot run is a
    stream of one chunk, and a single-core run is the 1-core case of the
    core-virtualized multi-core layout.

:class:`HierarchyReferenceEngine` (the oracle)
    One straightforward Python iteration per trace access, interleaving
    the L1I lookup, the per-line miss counter, and the L2 access exactly
    as a real fetch would — one loop, single-core being its 1-core case.
    It shares nothing with the batched path: separate naive L1I
    instances per core and a dict-based miss counter.  The equivalence
    suite asserts bit-identical L1 hit vectors, L2 hit vectors, and
    per-level stats against the batched path.

Randomness: only the L2 policy may consume uniforms (the L1I policy is
required to be deterministic — LRU or SRRIP), drawn positionally over
the miss stream.  NumPy's ``Generator.random(m)`` and ``m`` successive
scalar ``Generator.random()`` calls yield the same sequence, so the
per-access oracle draws lazily and still matches the batched engine's
pre-generated array bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, cast

import numpy as np
from numpy.typing import NDArray

from emissary.api import PolicySpec, require_policy_spec
from emissary.wire import (WIRE_SCHEMA_KEY, WIRE_SCHEMA_VERSION,
                           check_known_keys, check_wire_version)
from emissary.engine import (BatchedEngine, BoolArray, CacheConfig,
                             EngineStream, IndexArray, SimResult, feed_chunks)
from emissary.policies import make_naive, policy_needs_rng
from emissary.telemetry import Telemetry, null_span, span_factory
from emissary.traces import MAX_CORES, AddressArray, CoreIdArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from emissary.analysis.sanitizer import Sanitizer

#: Default L1I: 64 sets x 8 ways x 64 B lines = 32 KiB, the common size.
DEFAULT_L1 = CacheConfig(num_sets=64, ways=8)

#: Default byte budget for coalescing L1I miss chunks before forwarding
#: them to the L2 stream (1 MiB of uint64 lines ~= 128k misses).  Small
#: ingest chunks on low-miss-rate traces otherwise produce many tiny L2
#: dispatches; coalescing is outcome-invariant because the running
#: per-line miss counts carry across batch boundaries in a counter table.
DEFAULT_L2_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the two-level hierarchy (L1I filter + L2 under test)."""

    l1: CacheConfig = DEFAULT_L1
    l2: CacheConfig = CacheConfig()
    l1_policy: str = "lru"

    def __post_init__(self) -> None:
        if not isinstance(self.l1, CacheConfig) or not isinstance(self.l2, CacheConfig):
            raise TypeError("l1 and l2 must be CacheConfig instances")
        if self.l1.line_size != self.l2.line_size:
            raise ValueError(
                f"L1 and L2 line sizes must match for the miss stream to be "
                f"line-addressed consistently (got {self.l1.line_size} vs "
                f"{self.l2.line_size})")
        if policy_needs_rng(self.l1_policy):  # also rejects unknown names
            raise ValueError(
                f"l1_policy {self.l1_policy!r} consumes RNG; the L1I filter must "
                f"be deterministic so the uniform stream belongs to L2 alone")

    def to_dict(self) -> dict[str, Any]:
        return {"l1": self.l1.to_dict(), "l2": self.l2.to_dict(),
                "l1_policy": self.l1_policy}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "HierarchyConfig":
        check_known_keys(d, ("l1", "l2", "l1_policy"), "HierarchyConfig")
        return cls(l1=CacheConfig.from_dict(d["l1"]), l2=CacheConfig.from_dict(d["l2"]),
                   l1_policy=d.get("l1_policy", "lru"))


@dataclass
class HierarchyResult:
    """Outcome of one two-level simulation.

    ``l1`` covers the full trace; ``l2`` covers only the L1I miss stream
    (``l2.n == l1.miss_count``), so ``l2.hit_rate`` is the *local* L2 hit
    rate and :attr:`l2_mpki` renormalizes L2 misses to the full trace.
    """

    policy: str
    n: int
    l1: SimResult
    l2: SimResult
    elapsed_s: float
    #: Merged instrumentation payload (``l1.`` / ``l2.`` prefixed names
    #: plus hierarchy-stage spans) when the run was instrumented.
    telemetry: dict[str, Any] | None = None

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate

    @property
    def l2_local_hit_rate(self) -> float:
        return self.l2.hit_rate

    @property
    def l1_mpki(self) -> float:
        return self.l1.mpki

    @property
    def l2_mpki(self) -> float:
        """L2 misses per kilo-access of the *original* trace."""
        return 1000.0 * self.l2.miss_count / self.n if self.n else 0.0

    @property
    def accesses_per_s(self) -> float | None:
        """Throughput, or None when no time elapsed (see
        :attr:`emissary.engine.SimResult.accesses_per_s`)."""
        return self.n / self.elapsed_s if self.elapsed_s > 0 else None

    #: Wire keys of the :meth:`to_dict` payload (see :mod:`emissary.wire`).
    _WIRE_KEYS = frozenset({WIRE_SCHEMA_KEY, "policy", "n", "l1", "l2",
                            "l1_hit_rate", "l2_local_hit_rate", "l1_mpki",
                            "l2_mpki", "elapsed_s", "accesses_per_s",
                            "telemetry"})

    def to_dict(self) -> dict[str, Any]:
        d = {
            WIRE_SCHEMA_KEY: WIRE_SCHEMA_VERSION,
            "policy": self.policy,
            "n": self.n,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "l1_hit_rate": self.l1_hit_rate,
            "l2_local_hit_rate": self.l2_local_hit_rate,
            "l1_mpki": self.l1_mpki,
            "l2_mpki": self.l2_mpki,
            "elapsed_s": self.elapsed_s,
            "accesses_per_s": self.accesses_per_s,
        }
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "HierarchyResult":
        """Strict wire decode (see :mod:`emissary.wire`): v0 accepted,
        unknown keys and newer versions rejected."""
        check_wire_version(d, "HierarchyResult")
        check_known_keys(d, cls._WIRE_KEYS, "HierarchyResult")
        return cls(policy=d["policy"], n=int(d["n"]),
                   l1=SimResult.from_dict(d["l1"]), l2=SimResult.from_dict(d["l2"]),
                   elapsed_s=float(d["elapsed_s"]), telemetry=d.get("telemetry"))


@dataclass
class MultiCoreHierarchyResult(HierarchyResult):
    """Multi-core variant of :class:`HierarchyResult`.

    ``l1`` aggregates all N private L1I front-ends; ``l2`` is the single
    shared L2.  :attr:`per_core` breaks both levels down by core — the
    raw material for the fairness analysis (per-core MPKI deltas against
    solo runs), so every engine computes it identically.
    """

    num_cores: int = 1
    #: One row per core: ``core``, ``n``, ``l1_misses``, ``l2_misses``,
    #: ``l2_hits``, ``l1_mpki``, ``l2_mpki`` (MPKI per that core's own
    #: accesses, not the combined trace).
    per_core: list[dict[str, Any]] = field(default_factory=list)

    _WIRE_KEYS = HierarchyResult._WIRE_KEYS | {"num_cores", "per_core"}

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        d["num_cores"] = self.num_cores
        d["per_core"] = self.per_core
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MultiCoreHierarchyResult":
        check_wire_version(d, "MultiCoreHierarchyResult")
        check_known_keys(d, cls._WIRE_KEYS, "MultiCoreHierarchyResult")
        return cls(policy=d["policy"], n=int(d["n"]),
                   l1=SimResult.from_dict(d["l1"]), l2=SimResult.from_dict(d["l2"]),
                   elapsed_s=float(d["elapsed_s"]), telemetry=d.get("telemetry"),
                   num_cores=int(d["num_cores"]),
                   per_core=[dict(row) for row in d["per_core"]])


def _check_core_ids(core_ids: CoreIdArray, n: int,
                    num_cores: int | None) -> tuple[IndexArray, int]:
    """Validate the per-access core-id channel; resolve ``num_cores``
    (``None`` means infer from the ids)."""
    core = np.ascontiguousarray(core_ids, dtype=np.int64)
    if len(core) != n:
        raise ValueError(f"core_ids length {len(core)} != trace length {n}")
    observed_max = int(core.max()) if n else 0
    if n and int(core.min()) < 0:
        raise ValueError("core_ids must be non-negative")
    if num_cores is None:
        num_cores = observed_max + 1 if n else 1
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if num_cores > MAX_CORES:
        raise ValueError(f"num_cores {num_cores} exceeds MAX_CORES ({MAX_CORES})")
    if n and observed_max >= num_cores:
        raise ValueError(f"core_ids contain {observed_max} but num_cores is "
                         f"{num_cores}")
    return core, num_cores


def _core_virtual_layout(l1: CacheConfig,
                         num_cores: int) -> tuple[int, int, CacheConfig]:
    """Core-virtualized combined L1I: one engine simulates all N private
    L1Is by widening the set index with the core id.

    A virtual line ``(line << core_bits) | core`` maps core ``c``'s
    accesses onto a disjoint bank of ``l1.num_sets`` sets (the padded
    core field keeps the set math a pure mask), with the original tag
    preserved — so each bank behaves exactly like that core's private
    L1I while the single engine preserves global trace order for the
    shared-L2 miss stream.  Returns ``(core_bits, core_pad, virtual_config)``.
    """
    core_bits = (num_cores - 1).bit_length()
    core_pad = 1 << core_bits
    virtual = CacheConfig(num_sets=l1.num_sets * core_pad, ways=l1.ways,
                          line_size=l1.line_size)
    return core_bits, core_pad, virtual


def _per_core_stats(num_cores: int, n_by_core: IndexArray,
                    l1_miss_by_core: IndexArray,
                    l2_miss_by_core: IndexArray) -> list[dict[str, Any]]:
    """Assemble the per-core breakdown rows (shared by every engine so
    the payloads are comparable bit for bit)."""
    rows = []
    for c in range(num_cores):
        n_c = int(n_by_core[c])
        l1m = int(l1_miss_by_core[c])
        l2m = int(l2_miss_by_core[c])
        rows.append({
            "core": c,
            "n": n_c,
            "l1_misses": l1m,
            "l2_misses": l2m,
            "l2_hits": l1m - l2m,
            "l1_mpki": 1000.0 * l1m / n_c if n_c else 0.0,
            "l2_mpki": 1000.0 * l2m / n_c if n_c else 0.0,
        })
    return rows


def _hierarchy_result(policy: str, n: int, l1: SimResult, l2: SimResult,
                      elapsed: float, tel: Telemetry | None, num_cores: int,
                      per_core: list[dict[str, Any]] | None
                      ) -> HierarchyResult:
    """Assemble a run's result (shared by every engine).  A run with
    per-core rows — any multi-core run — is a
    :class:`MultiCoreHierarchyResult` and mirrors the rows into telemetry
    counters (``core{c}.n`` / ``core{c}.l1_misses`` / ``core{c}.l2_misses``)."""
    payload = None
    if tel is not None:
        for row in per_core or ():
            c = row["core"]
            tel.inc(f"core{c}.n", row["n"])
            tel.inc(f"core{c}.l1_misses", row["l1_misses"])
            tel.inc(f"core{c}.l2_misses", row["l2_misses"])
        payload = tel.to_dict()
    if per_core is None:
        return HierarchyResult(policy=policy, n=n, l1=l1, l2=l2,
                               elapsed_s=elapsed, telemetry=payload)
    return MultiCoreHierarchyResult(policy=policy, n=n, l1=l1, l2=l2,
                                    elapsed_s=elapsed, telemetry=payload,
                                    num_cores=num_cores, per_core=per_core)


class MissCountTable:
    """Compacted running miss counters (per line, or per ``(core, line)``).

    The keys (miss lines, or core-virtualized ``(core, line)`` keys in
    multi-core runs) live in one sorted ``uint64`` array with an
    ``int64`` count array alongside — 16 bytes per unique key instead of
    ~100 for a dict slot, and the whole table stays cache-friendly for
    the vectorized prior lookups.  :meth:`advance` is outcome-identical
    to a per-key dict walk: for a batch of keys in stream order it
    returns each position's inclusive running count, then folds the new
    totals in.
    """

    def __init__(self) -> None:
        self._keys: AddressArray = np.zeros(0, dtype=np.uint64)
        self._counts: IndexArray = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the table arrays."""
        return self._keys.nbytes + self._counts.nbytes

    @property
    def keys(self) -> AddressArray:
        """Sorted unique keys seen so far (read-only view for callers)."""
        return self._keys

    @property
    def counts(self) -> IndexArray:
        """Total count per key, aligned with :attr:`keys`."""
        return self._counts

    def advance(self, keys: AddressArray) -> IndexArray:
        """Inclusive running count per position of ``keys`` (in stream
        order, continuing across calls), folding the batch into the
        table.  The batch is sorted once: its uniques, their positions
        and the running counts all come from that one stable sort."""
        m = len(keys)
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        groups = _sorted_groups(keys)
        order, sorted_keys, first = groups
        running = running_miss_counts(keys, groups)
        starts = np.flatnonzero(first)
        uniq = sorted_keys[starts]
        # Occurrences per unique key in this batch.
        totals = np.diff(starts, append=m).astype(np.int64, copy=False)
        if not len(self._keys):
            self._keys, self._counts = uniq, totals
            return running
        pos = np.searchsorted(self._keys, uniq)
        pos_c = np.minimum(pos, len(self._keys) - 1)
        known = self._keys[pos_c] == uniq
        prior = np.where(known, self._counts[pos_c], 0)
        inverse = np.empty(m, dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        totals += prior
        if known.all():
            self._counts[pos] = totals
            return running + prior[inverse]
        # Merge the new keys in: each unique lands after the table keys
        # below it and the new keys before it.
        new = ~known
        dest = pos + np.cumsum(new) - new
        size = len(self._keys) + int(np.count_nonzero(new))
        old_slot = np.ones(size, dtype=bool)
        old_slot[dest[new]] = False
        merged_keys = np.empty(size, dtype=np.uint64)
        merged_keys[old_slot] = self._keys
        merged_keys[dest] = uniq
        merged_counts = np.empty(size, dtype=np.int64)
        merged_counts[old_slot] = self._counts
        merged_counts[dest] = totals
        self._keys = merged_keys
        self._counts = merged_counts
        return running + prior[inverse]


#: One stable sort of a key batch: ``(order, sorted_keys, first)``.
SortedGroups = tuple[NDArray[np.intp], AddressArray, BoolArray]


def _sorted_groups(lines: AddressArray) -> SortedGroups:
    """One stable sort of ``lines``: ``(order, sorted_lines, first)``,
    where ``first`` marks each equal-value group's first sorted slot."""
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    first = np.empty(len(lines), dtype=bool)
    first[0] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=first[1:])
    return order, sorted_lines, first


def running_miss_counts(
        lines: AddressArray,
        groups: SortedGroups | None = None) -> IndexArray:
    """For each position, how many times its value has occurred so far
    (inclusive).  Vectorized: stable-sort groups equal lines, the rank
    within each group is the running count.  ``groups`` is
    :func:`_sorted_groups` of ``lines`` when the caller already has it."""
    m = len(lines)
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    order, _, first = groups if groups is not None else _sorted_groups(lines)
    positions = np.arange(m, dtype=np.int64)
    starts = np.maximum.accumulate(np.where(first, positions, 0))
    counts = np.empty(m, dtype=np.int64)
    counts[order] = positions - starts + 1
    return counts


class BatchedHierarchyEngine:
    """L1I filter stage + L2 policy stage, both on the batched engine.

    Every entry point is a delegate of one private chunked pipeline
    (:meth:`_pipeline`): a one-shot run is a stream of one chunk, and a
    single-core run is the 1-core case of the multi-core layout
    (``core_bits = 0``, so the virtual L1 equals ``config.l1``).
    """

    def __init__(self, config: HierarchyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None,
                 kernel_backend: str = "python",
                 compiled_provider: str | None = None) -> None:
        self.config = config or HierarchyConfig()
        #: Optional :class:`~emissary.telemetry.Telemetry`; each stage
        #: records into its own child registry, merged here with ``l1.``
        #: / ``l2.`` prefixes.
        self.telemetry = telemetry
        #: Optional :class:`~emissary.analysis.sanitizer.Sanitizer`,
        #: shared by both stage engines (one instance checks both levels).
        self.sanitizer = sanitizer
        #: Kernel backend for *both* stage engines ("python" or
        #: "compiled"); outcomes are bit-identical either way.  Validated
        #: by the stage :class:`~emissary.engine.BatchedEngine`\ s.
        self.kernel_backend = kernel_backend
        self.compiled_provider = compiled_provider

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True) -> HierarchyResult:
        spec = require_policy_spec(policy, caller="BatchedHierarchyEngine.run")
        return self._pipeline(spec, [(addresses, None)], 1, seed, keep_hits,
                              None, multicore=False, one_shot=True)

    def run_multicore(self, addresses: AddressArray, core_ids: CoreIdArray,
                      policy: PolicySpec, num_cores: int | None = None,
                      seed: int = 0,
                      keep_hits: bool = True) -> MultiCoreHierarchyResult:
        """Run N private L1I front-ends feeding one shared L2.

        ``core_ids`` gives, per access, which core issued it (the
        interleaved trace order *is* the arrival order at the shared
        L2).  The private L1Is are simulated core-virtualized in one
        batched engine (see :func:`_core_virtual_layout`); the combined
        miss stream — still in global order — then drives the shared L2
        with per-``(core, line)`` measured L1I miss counts on the cost
        channel and the issuing core on the core channel, so a
        partitioned-budget EMISSARY L2 can enforce per-core HP quotas.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.run_multicore")
        core, num_cores = _check_core_ids(core_ids, len(addresses), num_cores)
        return cast(MultiCoreHierarchyResult, self._pipeline(
            spec, [(addresses, core)], num_cores, seed, keep_hits, None,
            multicore=True, one_shot=True))

    def simulate_stream(self, chunks: Iterable[AddressArray],
                        policy: PolicySpec, seed: int = 0,
                        keep_hits: bool = True,
                        chunk_bytes: int | None = DEFAULT_L2_CHUNK_BYTES
                        ) -> HierarchyResult:
        """Run the two-level hierarchy over a chunked trace in bounded memory.

        ``chunks`` is any iterable of ``uint64`` address arrays in trace
        order (e.g. a :class:`~emissary.trace_io.TraceSource`).  Both
        stages run as incremental :class:`~emissary.engine.EngineStream`\\ s:
        each resolved L1I chunk's miss lines flow into the L2 stream
        together with their running L1I miss counts, which carry across
        chunk boundaries in a per-line counter table.

        Because the L1I filters out most accesses, per-chunk miss arrays
        can be tiny; forwarding each one separately makes the L2 stage
        pay fixed dispatch overhead per sliver.  Miss lines are therefore
        buffered and forwarded only once ``chunk_bytes`` of them have
        accumulated (or at end of trace).  Pass ``chunk_bytes=None`` to
        forward every chunk's misses immediately.  Either way, L1/L2 hit
        vectors and per-level stats are bit-identical to :meth:`run` on
        the concatenated trace: the cost computation depends only on the
        order of the miss stream, not on where it is cut.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.simulate_stream")
        return self._pipeline(spec, ((chunk, None) for chunk in chunks), 1,
                              seed, keep_hits, chunk_bytes, multicore=False,
                              one_shot=False)

    def simulate_stream_multicore(
            self, chunks: Iterable[tuple[AddressArray, CoreIdArray]],
            policy: PolicySpec, num_cores: int, seed: int = 0,
            keep_hits: bool = True,
            chunk_bytes: int | None = DEFAULT_L2_CHUNK_BYTES
            ) -> MultiCoreHierarchyResult:
        """Streamed N-core shared-L2 run in bounded memory.

        ``chunks`` yields ``(addresses, core_ids)`` pairs in interleaved
        trace order (e.g. :meth:`emissary.traces.InterleaveSpec.generate_chunks`).
        Same contract as :meth:`simulate_stream`: bit-identical to
        :meth:`run_multicore` on the concatenated trace for any chunk
        cuts, because the per-``(core, line)`` miss-count carry (keyed by
        virtual line in a :class:`MissCountTable`) and the L2 stream's
        pending-run carry are both cut-invariant.  ``num_cores`` must be
        given up front: the core-virtualized L1 geometry depends on it.
        """
        spec = require_policy_spec(
            policy, caller="BatchedHierarchyEngine.simulate_stream_multicore")
        if num_cores is None:
            raise ValueError("simulate_stream_multicore needs an explicit "
                             "num_cores (the virtual L1 geometry is fixed "
                             "before the first chunk arrives)")
        _, num_cores = _check_core_ids(np.zeros(0, dtype=np.int64), 0,
                                       num_cores)
        checked = ((addrs, _check_core_ids(core, len(addrs), num_cores)[0])
                   for addrs, core in chunks)
        return cast(MultiCoreHierarchyResult, self._pipeline(
            spec, checked, num_cores, seed, keep_hits, chunk_bytes,
            multicore=True, one_shot=False))

    def _pipeline(self, spec: PolicySpec,
                  chunks: Iterable[tuple[AddressArray, IndexArray | None]],
                  num_cores: int, seed: int, keep_hits: bool,
                  chunk_bytes: int | None, *, multicore: bool,
                  one_shot: bool) -> HierarchyResult:
        """The L1I -> miss count -> L2 pipeline behind every entry point.

        ``chunks`` yields ``(addresses, core_ids)`` in trace order, with
        validated core ids (None for a single-core run).  Each chunk's
        resolved L1I misses are buffered up to ``chunk_bytes`` (None:
        forwarded at once), given their running per-``(core, line)`` L1I
        miss counts by a :class:`MissCountTable`, and fed to the L2
        stream.  ``one_shot`` marks a single-chunk run: both stage
        streams resolve it in one dispatch, and its spans are the stage
        spans (``l1_stage`` / ``miss_extract`` / ``l2_stage``) rather
        than per-chunk ``stream_ingest`` ones.
        """
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive or None, "
                             f"got {chunk_bytes}")
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        stage_span = span if one_shot else null_span
        ingest_span = null_span if one_shot else span
        l1_tel = Telemetry() if tel is not None else None
        l2_tel = Telemetry() if tel is not None else None
        start = time.perf_counter()
        core_bits, core_pad, v_l1 = _core_virtual_layout(config.l1, num_cores)
        core_mask = np.uint64(core_pad - 1)
        offset_bits = np.uint64(config.l1.offset_bits)
        line_cap_bits = 64 - config.l1.offset_bits - core_bits

        l1 = EngineStream(self._stage_engine(v_l1, l1_tel),
                          PolicySpec(config.l1_policy), seed=seed,
                          keep_hits=keep_hits, one_shot=one_shot)
        l2 = EngineStream(self._stage_engine(config.l2, l2_tel, num_cores),
                          spec, seed=seed, keep_hits=keep_hits,
                          miss_lines=False, one_shot=one_shot)
        miss_counts = MissCountTable()
        n_by_core = np.zeros(num_cores, dtype=np.int64)
        l1_miss_by_core = np.zeros(num_cores, dtype=np.int64)
        pending: list[AddressArray] = []
        pending_bytes = 0

        def forward() -> None:
            """Give the buffered L1I misses their measured running miss
            counts and feed them (with their cores) to the L2 stream."""
            nonlocal pending_bytes, l1_miss_by_core
            batch = pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending.clear()
            pending_bytes = 0
            with span("miss_extract"):
                # The virtual line *is* the (core, line) key, so each
                # private L1I's miss count for a line advances on its own.
                cost = miss_counts.advance(batch)
                miss_core = None
                if multicore:
                    miss_core = (batch & core_mask).astype(np.int64)
                    l1_miss_by_core += np.bincount(miss_core,
                                                   minlength=num_cores)
                if core_bits:
                    batch = batch >> np.uint64(core_bits)
            with stage_span("l2_stage"):
                l2.feed(batch << offset_bits, cost, miss_core)

        def ingest(pair: tuple[AddressArray, IndexArray | None]) -> None:
            """Run one chunk through the L1 stream, buffering its misses."""
            nonlocal pending_bytes, n_by_core
            addrs = np.ascontiguousarray(pair[0], dtype=np.uint64)
            core = pair[1]
            if core is not None:
                n_by_core += np.bincount(core, minlength=num_cores)
                if core_bits:
                    lines = addrs >> offset_bits
                    if len(lines) and int(lines.max()) >> line_cap_bits:
                        raise ValueError(
                            f"address lines need more than {line_cap_bits} "
                            f"bits; no headroom for {core_bits} core bits")
                    addrs = ((lines << np.uint64(core_bits))
                             | core.astype(np.uint64)) << offset_bits
            with stage_span("l1_stage"):
                _, misses = l1.feed(addrs)
            if misses is not None and len(misses):
                pending.append(misses)
                pending_bytes += misses.nbytes
                if chunk_bytes is None or pending_bytes >= chunk_bytes:
                    forward()

        feed_chunks(chunks, ingest_span, ingest)
        if not one_shot:
            _, misses = l1.flush()
            if misses is not None and len(misses):
                pending.append(misses)
        if pending:
            forward()

        l1_result = l1.finish()
        l2_result = l2.finish()
        l2_result.policy_stats.setdefault("unique_l1_miss_lines",
                                          len(miss_counts))
        per_core: list[dict[str, Any]] | None = None
        if multicore:
            per_core = _per_core_stats(num_cores, n_by_core, l1_miss_by_core,
                                       l2.miss_by_core)
        elapsed = time.perf_counter() - start
        if tel is not None:
            tel.merge_prefixed(l1_tel, "l1.")
            tel.merge_prefixed(l2_tel, "l2.")
            # The merged payload is the single canonical blob; drop the
            # per-stage copies so the serialized result stays compact.
            l1_result.telemetry = None
            l2_result.telemetry = None
        return _hierarchy_result(spec.name, l1_result.n, l1_result, l2_result,
                                 elapsed, tel, num_cores, per_core)

    def _stage_engine(self, config: CacheConfig,
                      telemetry: Telemetry | None,
                      num_cores: int = 1) -> BatchedEngine:
        return BatchedEngine(config, telemetry=telemetry,
                             sanitizer=self.sanitizer,
                             kernel_backend=self.kernel_backend,
                             compiled_provider=self.compiled_provider,
                             num_cores=num_cores)


class HierarchyReferenceEngine:
    """Naive per-access oracle: L1I lookup, miss counting, and L2 access
    interleaved in trace order, one Python step per fetch.  A
    single-core run is the 1-core case of the multi-core walk."""

    def __init__(self, config: HierarchyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 sanitizer: "Sanitizer" | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.telemetry = telemetry
        self.sanitizer = sanitizer

    def run(self, addresses: AddressArray, policy: PolicySpec, seed: int = 0,
            keep_hits: bool = True) -> HierarchyResult:
        spec = require_policy_spec(policy, caller="HierarchyReferenceEngine.run")
        return self._walk(addresses, None, 1, spec, seed, keep_hits)

    def run_multicore(self, addresses: AddressArray, core_ids: CoreIdArray,
                      policy: PolicySpec, num_cores: int | None = None,
                      seed: int = 0,
                      keep_hits: bool = True) -> MultiCoreHierarchyResult:
        """Per-access multi-core oracle: N genuinely separate naive L1I
        instances (one per core) in front of one shared naive L2, walked
        in interleaved trace order — the ground truth the
        core-virtualized batched path must reproduce bit for bit.
        """
        spec = require_policy_spec(
            policy, caller="HierarchyReferenceEngine.run_multicore")
        core, num_cores = _check_core_ids(core_ids, len(addresses), num_cores)
        return cast(MultiCoreHierarchyResult, self._walk(
            addresses, core, num_cores, spec, seed, keep_hits))

    def _walk(self, addresses: AddressArray, core: IndexArray | None,
              num_cores: int, spec: PolicySpec, seed: int,
              keep_hits: bool) -> HierarchyResult:
        """The one per-access loop.  ``core`` None is a single-core run:
        every access is core 0 and the result has no per-core rows."""
        config = self.config
        tel = self.telemetry
        span = span_factory(tel)
        l1c, l2c = config.l1, config.l2
        n = len(addresses)
        core_list = core.tolist() if core is not None else [0] * n
        start = time.perf_counter()

        l1_impls = [make_naive(config.l1_policy, l1c.num_sets, l1c.ways)
                    for _ in range(num_cores)]
        extra = {"num_cores": num_cores} if spec.name == "emissary" else {}
        l2_impl = make_naive(spec.name, l2c.num_sets, l2c.ways,
                             **spec.params, **extra)
        if self.sanitizer is not None:
            for impl in l1_impls:
                self.sanitizer.attach_naive(impl)
            self.sanitizer.attach_naive(l2_impl)
        rng = (np.random.default_rng(seed)
               if policy_needs_rng(spec.name) else None)

        l1_tags = [[[None] * l1c.ways for _ in range(l1c.num_sets)]
                   for _ in range(num_cores)]
        l2_tags = [[None] * l2c.ways for _ in range(l2c.num_sets)]
        miss_counts: dict[tuple[int, int], int] = {}

        l1_hits = np.empty(n, dtype=bool)
        l2_hits_list = []
        l1_set_mask = l1c.num_sets - 1
        l2_set_mask = l2c.num_sets - 1
        offset_bits = l1c.offset_bits  # == l2c.offset_bits (validated)
        j = 0  # L2 access index (position in the combined miss stream)
        n_by_core = [0] * num_cores
        l1_miss_by_core = [0] * num_cores
        l2_miss_by_core = [0] * num_cores

        # Generic per-(set, way) lifetime accounting, per level, matching
        # the names the instrumented batched kernels produce.
        track = tel is not None
        l1_line_hits = ([[0] * (l1c.num_sets * l1c.ways)
                         for _ in range(num_cores)] if track else None)
        l2_line_hits = [0] * (l2c.num_sets * l2c.ways) if track else None
        l1_fills = l1_evictions = l1_dead = 0
        l2_fills = l2_evictions = l2_dead = 0

        with span("naive_loop"):
            for i, addr in enumerate(addresses.tolist()):
                c = core_list[i]
                n_by_core[c] += 1
                line = addr >> offset_bits
                s1 = line & l1_set_mask
                t1 = line >> l1c.set_bits
                l1_impl = l1_impls[c]
                set_tags = l1_tags[c][s1]
                way = -1
                for w in range(l1c.ways):
                    if set_tags[w] == t1:
                        way = w
                        break
                if way >= 0:
                    l1_impl.on_hit(s1, way, i)
                    if track:
                        l1_line_hits[c][s1 * l1c.ways + way] += 1
                    l1_hits[i] = True
                    continue
                # Private L1I miss: fill that core's L1I, bump its
                # per-(core, line) miss count, go to the shared L2.
                l1_hits[i] = False
                l1_miss_by_core[c] += 1
                for w in range(l1c.ways):
                    if set_tags[w] is None:
                        way = w
                        break
                else:
                    way = l1_impl.find_victim(s1, 0.0)
                    l1_impl.replaced(s1, way)
                    if track:
                        victim_hits = l1_line_hits[c][s1 * l1c.ways + way]
                        tel.observe("l1.line_hits", victim_hits)
                        l1_evictions += 1
                        if victim_hits == 0:
                            l1_dead += 1
                set_tags[way] = t1
                l1_impl.on_fill(s1, way, i, 0.0)
                if track:
                    l1_line_hits[c][s1 * l1c.ways + way] = 0
                    l1_fills += 1

                cost_i = miss_counts.get((c, line), 0) + 1
                miss_counts[(c, line)] = cost_i
                u_j = rng.random() if rng is not None else 0.0

                s2 = line & l2_set_mask
                t2 = line >> l2c.set_bits
                set_tags2 = l2_tags[s2]
                way = -1
                for w in range(l2c.ways):
                    if set_tags2[w] == t2:
                        way = w
                        break
                if way >= 0:
                    l2_impl.on_hit(s2, way, j)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] += 1
                    l2_hits_list.append(True)
                else:
                    for w in range(l2c.ways):
                        if set_tags2[w] is None:
                            way = w
                            break
                    else:
                        way = l2_impl.find_victim(s2, u_j)
                        l2_impl.replaced(s2, way)
                        if track:
                            victim_hits = l2_line_hits[s2 * l2c.ways + way]
                            tel.observe("l2.line_hits", victim_hits)
                            l2_evictions += 1
                            if victim_hits == 0:
                                l2_dead += 1
                    set_tags2[way] = t2
                    l2_impl.on_fill(s2, way, j, u_j, cost_i, c)
                    if track:
                        l2_line_hits[s2 * l2c.ways + way] = 0
                        l2_fills += 1
                    l2_hits_list.append(False)
                    l2_miss_by_core[c] += 1
                j += 1

        elapsed = time.perf_counter() - start
        l1_hit_count = int(l1_hits.sum())
        l2_hits = np.array(l2_hits_list, dtype=bool)
        l2_hit_count = int(l2_hits.sum())
        per_core: list[dict[str, Any]] | None = None
        if core is not None:
            per_core = _per_core_stats(
                num_cores, np.array(n_by_core, dtype=np.int64),
                np.array(l1_miss_by_core, dtype=np.int64),
                np.array(l2_miss_by_core, dtype=np.int64))
        if track:
            # The shared L2 is a level with one tag table, the L1 one
            # per core.
            for prefix, fills, evictions, dead, cfg, tables, hit_tables in (
                    ("l1.", l1_fills, l1_evictions, l1_dead, l1c, l1_tags,
                     l1_line_hits),
                    ("l2.", l2_fills, l2_evictions, l2_dead, l2c, [l2_tags],
                     [l2_line_hits])):
                tel.inc(prefix + "fills", fills)
                tel.inc(prefix + "evictions", evictions)
                tel.inc(prefix + "dead_on_fill", dead)
                for tags_table, hits_table in zip(tables, hit_tables):
                    for s in range(cfg.num_sets):
                        for w in range(cfg.ways):
                            if tags_table[s][w] is not None:
                                tel.observe(prefix + "resident_line_hits",
                                            hits_table[s * cfg.ways + w])
            tel.inc("l1.hits", l1_hit_count)
            tel.inc("l1.misses", n - l1_hit_count)
            tel.inc("l2.hits", l2_hit_count)
            tel.inc("l2.misses", j - l2_hit_count)
            tel.inc("engine.accesses", n)
            for impl in l1_impls:
                impl.telemetry_finalize(tel, prefix="l1.")
            l2_impl.telemetry_finalize(tel, prefix="l2.")
        l1_result = SimResult(policy=config.l1_policy, n=n,
                              hit_count=l1_hit_count,
                              miss_count=n - l1_hit_count, elapsed_s=elapsed,
                              hits=l1_hits if keep_hits else None,
                              policy_stats={})
        l2_result = SimResult(policy=spec.name, n=j, hit_count=l2_hit_count,
                              miss_count=j - l2_hit_count, elapsed_s=elapsed,
                              hits=l2_hits if keep_hits else None,
                              policy_stats={"unique_l1_miss_lines":
                                            len(miss_counts)})
        return _hierarchy_result(spec.name, n, l1_result, l2_result, elapsed,
                                 tel, num_cores, per_core)


def _hierarchy_engine(config: HierarchyConfig | None, engine: str
                      ) -> BatchedHierarchyEngine | HierarchyReferenceEngine:
    if engine == "batched":
        return BatchedHierarchyEngine(config)
    if engine == "compiled":
        return BatchedHierarchyEngine(config, kernel_backend="compiled")
    if engine == "reference":
        return HierarchyReferenceEngine(config)
    raise ValueError(f"unknown engine {engine!r} "
                     f"(expected 'batched', 'compiled', or 'reference')")


def simulate_multicore(addresses: AddressArray, core_ids: CoreIdArray,
                       policy: PolicySpec,
                       config: HierarchyConfig | None = None,
                       num_cores: int | None = None, seed: int = 0,
                       engine: str = "batched") -> MultiCoreHierarchyResult:
    """Convenience wrapper: run the N-core shared-L2 hierarchy on any
    engine."""
    return _hierarchy_engine(config, engine).run_multicore(
        addresses, core_ids, policy, num_cores=num_cores, seed=seed)


def simulate_hierarchy(addresses: AddressArray, policy: PolicySpec,
                       config: HierarchyConfig | None = None, seed: int = 0,
                       engine: str = "batched") -> HierarchyResult:
    """Convenience wrapper: run the two-level hierarchy on any engine."""
    return _hierarchy_engine(config, engine).run(addresses, policy, seed=seed)
