"""The benchmark's outside-in tracer must keep attaching to the engines.

``layerbench/layers.py`` wraps named engine functions and raises if one
is missing, so a refactor that renames a traced function would only fail
in the traced benchmark run.  This loads the tracer unmodified, installs
every target on the current code, checks that each access is counted
once (a one-shot run must not also count through ``EngineStream.feed``),
and uninstalls it again.
"""

import importlib.util
from pathlib import Path

import pytest

from emissary.api import PolicySpec
from emissary.engine import BatchedEngine, CacheConfig, EngineStream
from emissary.hierarchy import BatchedHierarchyEngine, HierarchyConfig
from emissary.traces import TraceSpec

LAYERS_PATH = Path(__file__).resolve().parents[1] / "layerbench" / "layers.py"
CONFIG = CacheConfig(num_sets=64, ways=4)
HIER = HierarchyConfig(l1=CacheConfig(num_sets=16, ways=2),
                       l2=CacheConfig(num_sets=64, ways=4))


def _load_layers():
    spec = importlib.util.spec_from_file_location("layerbench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    layers = _load_layers()
    tracer = layers.Tracer()
    originals = (vars(BatchedEngine)["run"], vars(EngineStream)["feed"])
    tracer.install(layers.SIM_TARGETS + [layers.trace_serve])
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert (vars(BatchedEngine)["run"], vars(EngineStream)["feed"]) == originals


def test_one_shot_flat_run_counts_each_access_once(tracer):
    addresses = TraceSpec("call", 5_000, 1).generate()
    BatchedEngine(CONFIG).run(addresses, PolicySpec("lru"))
    assert tracer.counts["engine.accesses"] == len(addresses)
    assert tracer.calls["engine"] >= 1


def test_streamed_flat_run_counts_each_access_once(tracer):
    addresses = TraceSpec("call", 5_000, 1).generate()
    chunks = [addresses[i:i + 997] for i in range(0, len(addresses), 997)]
    BatchedEngine(CONFIG).simulate_stream(chunks, PolicySpec("srrip"))
    assert tracer.counts["engine.accesses"] == len(addresses)


def test_hierarchy_run_counts_each_stage_input_once(tracer):
    addresses = TraceSpec("call", 5_000, 1).generate()
    result = BatchedHierarchyEngine(HIER).run(addresses, PolicySpec("lru"))
    assert tracer.counts["engine.accesses"] == len(addresses) + result.l2.n
    assert tracer.calls["hierarchy.miss_extract"] >= 1
