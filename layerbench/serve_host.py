"""The server process of the serve-mixed workload: one server lifetime.

Run as ``python3 serve_host.py JOB.json``.  It builds the stdlib
:class:`~emissary.serve.service.SimService` (one worker, budgeted
results cache) exactly as ``python -m emissary.serve serve`` does,
binds an ephemeral port on 127.0.0.1 and prints ``port N``.  On SIGTERM
it asks the worker for its own figures, shuts the service down and
writes the job's ``out`` file.

The worker function is :func:`timed_worker`, which only times
:func:`~emissary.serve.service.run_simulation_worker`.  In a traced
lifetime the layer wrappers are installed before the pool forks, so the
worker inherits them, and the host logs the start and end of every
server-side call; the harness lines those up with its requests.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from pathlib import Path
from typing import Any

from layers import SIM_TARGETS, Tracer, trace_serve
from records import peak_rss_kib

_perf = time.perf_counter
_TRACER = Tracer()
#: Per worker call: wall seconds and, when traced, the layer deltas.
_WORKER_CALLS: list[dict[str, Any]] = []


def timed_worker(request_dict: dict[str, Any], progress_path: str | None,
                 chunk_bytes: int) -> dict[str, Any]:
    """Runs in the worker process: the stock worker, timed."""
    from emissary.serve.service import run_simulation_worker

    _TRACER.reset()
    t0 = _perf()
    payload = run_simulation_worker(request_dict, progress_path, chunk_bytes)
    _WORKER_CALLS.append({"worker_s": _perf() - t0,
                          "n": int(payload.get("n", 0)),
                          "layers": _TRACER.totals()})
    return payload


def worker_report() -> dict[str, Any]:
    """Runs in the worker process at the end of the lifetime."""
    return {"calls": _WORKER_CALLS,
            "maxrss_kib": peak_rss_kib()}


async def serve(job: dict[str, Any], service: Any) -> dict[str, Any]:
    from emissary.serve.server import start_server

    server = await start_server(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(f"port {port}", flush=True)
    async with server:
        await stop.wait()
    # With one worker the report task runs in the worker that served
    # every miss of this lifetime.
    worker = await loop.run_in_executor(service._executor, worker_report)
    hist = service.telemetry.histograms.get("serve.latency_us", {})
    stats = {
        "maxrss_kib": peak_rss_kib(),
        "worker": worker,
        "calls": _TRACER.log,
        "evictions": service.cache.evictions,
        "entries": len(list(Path(job["cache_dir"]).glob("*.json"))),
        "latency_hist_keys": len(hist),
    }
    await service.aclose()
    return stats


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    # Everything the worker needs is imported before the pool forks, so
    # no miss pays an import.
    import emissary.engine  # noqa: F401
    import emissary.hierarchy  # noqa: F401
    from emissary.serve.service import SimService

    if job["trace"]:
        _TRACER.install(SIM_TARGETS + [trace_serve])
        _TRACER.log = {}
    service = SimService(cache_dir=job["cache_dir"],
                         cache_budget_bytes=job["budget"], max_workers=1,
                         spool_dir=job["spool_dir"], worker_fn=timed_worker,
                         obs_seed=job["seed"])
    stats = asyncio.run(serve(job, service))
    Path(job["out"]).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
