"""``keep_hits=False`` — what sweeps run — must report everything a
``keep_hits=True`` run does except the hit vectors.

The shared pipeline then counts hits from the edge outcomes without
building per-access vectors, on every path: flat, hierarchy and 2-core,
one-shot and streamed.
"""

import pytest

from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig
from emissary.hierarchy import BatchedHierarchyEngine, HierarchyConfig
from emissary.telemetry import Telemetry
from emissary.traces import InterleaveSpec, TraceSpec

CONFIG = CacheConfig(num_sets=64, ways=4)
HIER = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=2),
                       l2=CacheConfig(num_sets=64, ways=4))
N = 20_000
SEED = 11
CUT = 313  # odd, so chunk boundaries land mid-run


def _chunks(addresses, size):
    return [addresses[i:i + size] for i in range(0, len(addresses), size)]


def _kept_outcome(result):
    """Everything a ``keep_hits=False`` run must still report: per-level
    counts and policy stats, per-core rows, telemetry counters and
    histograms — and no hit vectors."""
    levels = [result.l1, result.l2] if hasattr(result, "l1") else [result]
    return ([(r.n, r.hit_count, r.miss_count, r.policy_stats) for r in levels],
            getattr(result, "per_core", None),
            result.telemetry["counters"], result.telemetry["histograms"],
            [r.hits is None for r in levels])


@pytest.mark.parametrize("mode", ["flat", "hierarchy", "2-core"])
@pytest.mark.parametrize("streamed", [False, True], ids=["one-shot", "streamed"])
def test_keep_hits_false_reports_what_keep_hits_true_does(mode, streamed):
    addresses = TraceSpec("call", N, SEED).generate()
    spec = (PolicySpec("emissary", {"hp_threshold": 3, "prob_inv": 4,
                                    "hp_budget": "partitioned"})
            if mode == "2-core"
            else PolicySpec("emissary", {"hp_threshold": 4, "prob_inv": 8}))
    mix = InterleaveSpec(cores=(TraceSpec("loop", N // 2, 1),
                                TraceSpec("call", N // 2, 2)), weights=(2, 1))
    addrs2, cores2 = mix.generate()

    def run(keep_hits):
        tel = Telemetry()
        if mode == "flat":
            engine = BatchedEngine(CONFIG, telemetry=tel)
            if streamed:
                return engine.simulate_stream(_chunks(addresses, CUT), spec,
                                              seed=SEED, keep_hits=keep_hits)
            return engine.run(addresses, spec, seed=SEED, keep_hits=keep_hits)
        engine = BatchedHierarchyEngine(HIER, telemetry=tel)
        if mode == "hierarchy":
            if streamed:
                return engine.simulate_stream(_chunks(addresses, CUT), spec,
                                              seed=SEED, keep_hits=keep_hits)
            return engine.run(addresses, spec, seed=SEED, keep_hits=keep_hits)
        if streamed:
            pairs = list(zip(_chunks(addrs2, CUT), _chunks(cores2, CUT)))
            return engine.simulate_stream_multicore(
                pairs, spec, num_cores=2, seed=SEED, keep_hits=keep_hits)
        return engine.run_multicore(addrs2, cores2, spec, num_cores=2,
                                    seed=SEED, keep_hits=keep_hits)

    kept, dropped = _kept_outcome(run(True)), _kept_outcome(run(False))
    assert dropped[:4] == kept[:4]
    assert not any(kept[4]) and all(dropped[4])
