"""The simulation process of the sweep-compiled and stream-files workloads.

Run as ``python3 program.py JOB.json``.  It imports emissary, loads the
pinned ``cc`` provider, runs one small warm-up simulation and prints
``ready``: that is the end of set-up.  In ``run`` mode it then replays
the job's requests through :func:`emissary.api.simulate` in rounds until
the job's seconds are spent, timing each request ``repeat`` times per
untraced round and once per traced round.  It writes the timings, a
machine-speed probe reading before each round and after the last (see
``calib.py``), every result's outcome and, for traced rounds, the layer
totals to the job's ``out`` file.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path
from typing import Any

_perf = time.perf_counter


def setup() -> Any:
    from emissary.api import PolicySpec, SimRequest, simulate
    from emissary.compiled import get_kernels
    from emissary.engine import CacheConfig
    from emissary.traces import TraceSpec

    # A silent fallback to the python kernels would time the wrong thing.
    warnings.filterwarnings("error", message=".*falling back.*")
    get_kernels("cc")
    simulate(SimRequest(TraceSpec("loop", 20_000, 1), PolicySpec("lru"),
                        CacheConfig(), backend="compiled"))
    return simulate


def run(job: dict[str, Any], simulate: Any) -> dict[str, Any]:
    from emissary.api import SimRequest

    from calib import probe_ms
    from checks import outcome
    from layers import SIM_TARGETS, Tracer
    from records import peak_rss_kib

    requests = [(SimRequest.from_dict(item["request"]), item["backend"],
                 item.get("repeat", 1)) for item in job["requests"]]
    chunk_bytes = job.get("chunk_bytes")
    tracer = Tracer()
    rounds = []
    probes = []
    deadline = _perf() + job["seconds"]
    while len(rounds) < job["min_rounds"] or _perf() < deadline:
        traced = job["trace"] and len(rounds) % 2 == 1
        probes.append(probe_ms())
        if traced:
            tracer.reset()
            tracer.install(SIM_TARGETS)
        # times[i][k] and outcomes[i][k]: request i, repetition k.
        times: list[list[float]] = []
        outcomes: list[list[Any]] = []
        for request, backend, repeat in requests:
            times.append([])
            outcomes.append([])
            for _ in range(1 if traced else repeat):
                t0 = _perf()
                if chunk_bytes:
                    result = simulate(request, engine=backend, stream=True,
                                      chunk_bytes=chunk_bytes)
                else:
                    result = simulate(request, engine=backend)
                times[-1].append(_perf() - t0)
                outcomes[-1].append(outcome(result.to_dict()))
        entry: dict[str, Any] = {"traced": traced, "times": times,
                                 "outcomes": outcomes}
        if traced:
            tracer.uninstall()
            entry["layers"] = tracer.totals()
        rounds.append(entry)
    probes.append(probe_ms())
    return {"rounds": rounds, "probes": probes,
            "maxrss_kib": peak_rss_kib()}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    simulate = setup()
    print("ready", flush=True)
    if job["mode"] != "run":
        return 0
    report = run(job, simulate)
    Path(job["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
