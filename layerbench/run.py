"""EMISSARY benchmark harness.

    python3 layerbench/run.py --workload sweep-compiled --seed 1 --seconds 10 --trace 0
    python3 layerbench/run.py --self-test

Run from the root of a checkout.  Each role runs in its own process:
this harness starts the others, acts as the client and checks every
output; ``program.py`` is the simulation process of the sweep-compiled
and stream-files workloads, and ``serve_host.py`` the server of
serve-mixed (whose pool forks one worker).  Inputs come
from ``--seed``; every output is checked against an independent answer
(see ``checks.py``).  ``--trace 0`` measures and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints
the per-layer metrics.  The last line of standard output is the result
JSON; a record with every sample and the environment stamp is written
under ``.layerbench/records/``.  Scratch files live in ``.layerbench/``;
everything derived from the program lives under a hash of its sources
there (see :func:`state_dir`).
"""

from __future__ import annotations

import argparse
import functools
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import calib
import checks
import records
import workloads
from records import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".layerbench"
_perf = time.perf_counter

#: Environment pinned for this process and every process it starts.
PINS = {
    "EMISSARY_COMPILED": "cc",
    "EMISSARY_CC_CACHE": str(WORK / "cc"),
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(ROOT / "src"),
    "TMPDIR": str(WORK / "tmp"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set-up samples per sim run, each a set-up-only spawn.
SETUP_SPAWNS = 8
#: A child still running this long after its measuring seconds is killed.
CHILD_GRACE_S = 90
#: Deadline for one server lifetime (about a second when healthy).
SERVE_LIFETIME_S = 30

E2E_UNITS = {"setup_s": "s", "sim_maccess_per_s": "Macc/s",
             "peak_rss_mib": "MiB", "class_a_p50_ms": "ms",
             "class_b_p50_ms": "ms", "class_c_p50_ms": "ms"}
LAYER_UNITS = {
    "traces.generate_ms": "ms",
    "trace_io.decode_ms": "ms",
    "trace_io.chunks": "count",
    "engine.self_ms": "ms",
    "engine.edge_ratio": "ratio",
    "compiled.kernel_ms": "ms",
    "compiled.kernel_calls": "count",
    "compiled.numpy_share": "ratio",
    "compiled.cold_build_ms": "ms",
    "hierarchy.miss_extract_ms": "ms",
    "hierarchy.l2_access_ratio": "ratio",
    "hierarchy.carry_bytes": "bytes",
    "policies.kernel_ms": "ms",
    "results_cache.load_ms": "ms",
    "results_cache.store_ms": "ms",
    "results_cache.evictions": "count",
    "results_cache.entries": "count",
    "serve.admit_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.ipc_ms": "ms",
    "serve.loop_block_ms": "ms",
    "serve.hit_remainder_ms": "ms",
    "serve.miss_remainder_ms": "ms",
    "serve.scrape_remainder_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.miss_p99_ms": "ms",
    "serve.hit_samples": "count",
    "serve.miss_samples": "count",
    "obs.render_ms": "ms",
    "telemetry.latency_hist_keys": "count",
    "tracing.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not an output mismatch)."""


@functools.cache
def state_dir() -> Path:
    """``.layerbench/state/<hash of src/emissary>``: the trace files, the
    prefilled serve cache and the memoized reference outcomes.  They are
    built by the program under test, so state from other sources (an
    earlier commit in the same checkout) is deleted, never reused."""
    code = records.code_hash(ROOT / "src" / "emissary")
    base = WORK / "state"
    for old in base.glob("*"):
        if old.name != code[:16]:
            shutil.rmtree(old, ignore_errors=True)
    return base / code[:16]


# -- processes --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINS)
    return env


def spawn(script: str, job: dict[str, Any], name: str, deadline_s: float
          ) -> tuple[subprocess.Popen, str, float]:
    """Start ``script`` on ``job``, killed after ``deadline_s``; returns
    the process, its first stdout line and the seconds from spawn to
    that line."""
    job_path = WORK / "jobs" / f"{name}.json"
    job_path.parent.mkdir(parents=True, exist_ok=True)
    job_path.write_text(json.dumps(job))
    t0 = _perf()
    proc = subprocess.Popen([sys.executable, str(BENCH / script),
                             str(job_path)], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog  # type: ignore[attr-defined]
    line = proc.stdout.readline().strip()  # type: ignore[union-attr]
    elapsed = _perf() - t0
    if not line:
        finish(proc)
        raise BenchError(f"{script} exited before set-up finished "
                         f"(code {proc.returncode})")
    return proc, line, elapsed


def finish(proc: subprocess.Popen, stop: bool = False) -> None:
    """Wait for ``proc`` to end (SIGTERM first when ``stop``)."""
    if stop and proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait()
    finally:
        proc.watchdog.cancel()  # type: ignore[attr-defined]
        if proc.stdout is not None:
            proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[1]} exited with {proc.returncode}")


# -- sim workloads (sweep-compiled, stream-files) ---------------------------


def request_times(rounds: list[dict[str, Any]]) -> list[float]:
    """Per request: the median over ``rounds`` of its scaled time (the
    fastest repetition within a round)."""
    return [median([r["scaled"][i] for r in rounds])
            for i in range(len(rounds[0]["scaled"]))]


def l2_access_ratio(outcomes: list[dict[str, Any]]) -> float:
    hier = [o for o in outcomes if "l2" in o]
    total = sum(o["n"] for o in hier)
    return sum(o["l2"]["n"] for o in hier) / total if total else 0.0


def sim_layer_values(layers: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics from one round's (or one miss's) tracer totals."""
    s, calls = layers["self_ms"], layers["calls"]
    counts, peaks = layers["counts"], layers["peaks"]
    engine = s.get("engine", 0.0)
    kernel = s.get("compiled.kernel", 0.0)
    fed = counts.get("engine.accesses", 0)
    return {
        "traces.generate_ms": s.get("traces.generate", 0.0),
        "trace_io.decode_ms": s.get("trace_io.decode", 0.0),
        "trace_io.chunks": counts.get("trace_io.decode.items", 0),
        "engine.self_ms": engine,
        "engine.edge_ratio": counts.get("kernel.accesses", 0) / fed
        if fed else 0.0,
        "compiled.kernel_ms": kernel,
        "compiled.kernel_calls": calls.get("compiled.kernel", 0),
        "compiled.numpy_share": engine / (engine + kernel) if kernel else 0.0,
        "hierarchy.miss_extract_ms": s.get("hierarchy.miss_extract", 0.0),
        "hierarchy.carry_bytes": peaks.get("hierarchy.carry_bytes", 0),
        "policies.kernel_ms": s.get("policies.kernel", 0.0),
    }


def sum_layers(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Add tracer totals (peaks take the maximum)."""
    out: dict[str, dict[str, float]] = {"self_ms": {}, "calls": {},
                                        "counts": {}, "peaks": {}}
    for part in parts:
        for group in ("self_ms", "calls", "counts"):
            for key, value in part[group].items():
                out[group][key] = out[group].get(key, 0) + value
        for key, value in part["peaks"].items():
            out["peaks"][key] = max(out["peaks"].get(key, 0), value)
    return out


def cold_build_ms() -> float:
    """Build the cc kernel library into an empty cache directory."""
    from emissary.compiled import cc_backend

    cache = WORK / "tmp" / "cold-cc"
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["EMISSARY_CC_CACHE"] = str(cache)
    try:
        t0 = _perf()
        cc_backend.build_library()
        return (_perf() - t0) * 1e3
    finally:
        os.environ["EMISSARY_CC_CACHE"] = PINS["EMISSARY_CC_CACHE"]
        shutil.rmtree(cache, ignore_errors=True)


def run_sim(workload: str, seed: int, seconds: float, trace: bool
            ) -> dict[str, Any]:
    chunk_bytes = None
    if workload == "sweep-compiled":
        requests = workloads.sweep_requests(seed)
    else:
        files = state_dir() / "files" / f"seed-{seed}"
        for old in (state_dir() / "files").glob("seed-*"):
            if old != files:
                shutil.rmtree(old, ignore_errors=True)
        workloads.write_stream_files(seed, files)
        requests = workloads.stream_requests(seed, files)
        chunk_bytes = workloads.STREAM_CHUNK_BYTES

    # Build the cc cache, warm the page cache and the bytecode cache.
    proc, _, _ = spawn("program.py", {"mode": "prime"}, "prime",
                       CHILD_GRACE_S)
    finish(proc)
    build_ms = cold_build_ms() if trace else 0.0
    setups, readings = [], [calib.probe_ms()]
    for i in range(SETUP_SPAWNS):
        proc, _, elapsed = spawn("program.py", {"mode": "setup"},
                                 f"setup{i}", CHILD_GRACE_S)
        finish(proc)
        setups.append(elapsed)
        readings.append(calib.probe_ms())
    measured_setups = setups
    setups = [t * f for t, f in zip(setups, calib.factors(readings))]
    out = WORK / "tmp" / "program-report.json"
    out.unlink(missing_ok=True)
    job = {"mode": "run", "requests": requests, "seconds": seconds,
           "trace": trace, "min_rounds": 6 if trace else 3,
           "chunk_bytes": chunk_bytes, "out": str(out)}
    proc, _, _ = spawn("program.py", job, "run", seconds + CHILD_GRACE_S)
    finish(proc)
    report = json.loads(out.read_text())
    rounds = report["rounds"]
    for entry, factor in zip(rounds, calib.factors(report["probes"])):
        entry["factor"] = factor
        entry["scaled"] = [min(reps) * factor for reps in entry["times"]]

    reference = checks.memoized(
        state_dir() / "ref" / f"{workload}-{seed}.json",
        [item["request"] for item in requests], checks.reference_outcome)
    failures = []
    attempted = 0
    for r, entry in enumerate(rounds):
        for item, reps in zip(requests, entry["outcomes"]):
            want = reference[checks.request_key(item["request"])]
            for got in reps:
                attempted += 1
                why = checks.check_sim(got, want)
                if why is not None:
                    failures.append(f"round {r} {item['cls']}: {why}")

    first = [reps[0] for reps in rounds[0]["outcomes"]]
    sizes = [o["n"] for o in first]
    classes = [item["cls"] for item in requests]

    def throughput(times: list[float]) -> float:
        return sum(sizes) / sum(times) / 1e6

    def class_p50(times: list[float], cls: str) -> float:
        return median([t for t, c in zip(times, classes) if c == cls]) * 1e3

    plain = [r for r in rounds if not r["traced"]]
    times = request_times(plain)
    per_round = [r["scaled"] for r in plain]
    metrics: dict[str, tuple[float, list[float]]]
    if not trace:
        metrics = {
            "setup_s": (median(setups), setups),
            "sim_maccess_per_s": (throughput(times),
                                  [throughput(t) for t in per_round]),
            "peak_rss_mib": (report["maxrss_kib"] / 1024,
                             [report["maxrss_kib"] / 1024]),
        }
        for cls in ("class_a", "class_b", "class_c"):
            metrics[f"{cls}_p50_ms"] = (class_p50(times, cls),
                                        [class_p50(t, cls) for t in per_round])
    else:
        traced = [r for r in rounds if r["traced"]]
        per_traced = [sim_layer_values(r["layers"]) for r in traced]
        metrics = {}
        for key in per_traced[0]:
            samples = [v[key] for v in per_traced]
            metrics[key] = (median(samples), samples)
        ratio = l2_access_ratio(first)
        metrics["hierarchy.l2_access_ratio"] = (ratio, [ratio])
        metrics["compiled.cold_build_ms"] = (build_ms, [build_ms])
        overhead = (sum(request_times(traced)) / sum(times) - 1) * 100
        metrics["tracing.overhead_pct"] = (overhead, [overhead])
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "rounds": len(rounds),
            "raw": {"classes": classes, "accesses": sizes,
                    "probe_ms": report["probes"],
                    "setup_s": measured_setups, "setup_probe_ms": readings,
                    "request_s": [{"traced": r["traced"],
                                   "factor": r["factor"],
                                   "times": r["times"]} for r in rounds]}}


# -- serve-mixed ------------------------------------------------------------


def serve_inputs(seed: int) -> tuple[dict[str, Any], Path, int,
                                     dict[str, Any]]:
    """The request plan, the prefilled cache template (built once per
    seed), its byte budget and the expected outcome per request key."""
    from emissary.api import SimRequest, simulate
    from emissary.results_cache import BudgetedResultsCache

    plan = workloads.serve_plan(seed)
    base = state_dir() / "serve"
    template = base / f"seed-{seed}"
    for old in base.glob("seed-*"):
        if old != template:
            shutil.rmtree(old, ignore_errors=True)
    if not template.exists():
        staging = base / "staging"
        shutil.rmtree(staging, ignore_errors=True)
        cache = BudgetedResultsCache(staging)
        # Cold entries are older than hot ones, so the misses' stores
        # evict cold entries, oldest first, and never a hit's target.
        prefill = plan["cold"] + plan["hot"]
        for i, request in enumerate(prefill):
            result = simulate(SimRequest.from_dict(request)).to_dict()
            path = cache.store(request, result)
            stamp_ns = (1_600_000_000 + i) * 10**9
            os.utime(path, ns=(stamp_ns, stamp_ns))
        staging.rename(template)
    sizes = [p.stat().st_size for p in template.glob("*.json")]
    budget = sum(sizes) + min(sizes) // 2
    expected = checks.memoized(
        state_dir() / "ref" / f"serve-mixed-{seed}.json",
        plan["hot"] + plan["misses"], checks.served_outcome)
    return plan, template, budget, expected


def serve_round(seed: int, plan: dict[str, Any], template: Path, budget: int,
                traced: bool, index: int) -> dict[str, Any]:
    """One fresh server lifetime over a fresh copy of the template."""
    round_dir = WORK / "serve" / "round"
    shutil.rmtree(round_dir, ignore_errors=True)
    shutil.copytree(template, round_dir / "cache")
    out = round_dir / "stats.json"
    job = {"cache_dir": str(round_dir / "cache"),
           "spool_dir": str(round_dir / "spool"), "budget": budget,
           "trace": traced, "seed": seed, "out": str(out)}
    bodies = {"hit": [json.dumps(r).encode() for r in plan["hot"]],
              "miss": [json.dumps(r).encode() for r in plan["misses"]]}
    t0 = _perf()
    proc, line, _ = spawn("serve_host.py", job, f"serve{index}",
                          SERVE_LIFETIME_S)
    responses = []
    try:
        conn = http.client.HTTPConnection("127.0.0.1", int(line.split()[1]),
                                          timeout=60)
        conn.request("GET", "/v1/healthz")
        health = conn.getresponse()
        health.read()
        setup = _perf() - t0
        if health.status != 200:
            raise BenchError(f"/v1/healthz answered {health.status}")
        ops = [(kind, idx, True) for kind, idx in plan["warmup"]] + \
              [(kind, idx, False) for kind, idx in plan["sequence"]]
        for kind, idx, warmup in ops:
            t = _perf()
            if kind == "scrape":
                conn.request("GET", "/v1/metrics")
            else:
                conn.request("POST", "/v1/simulate", body=bodies[kind][idx],
                             headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = resp.read()
            responses.append({"kind": kind, "idx": idx, "warmup": warmup,
                              "status": resp.status, "body": body,
                              "lat_ms": (_perf() - t) * 1e3})
        conn.close()
    finally:
        finish(proc, stop=True)
    stats = json.loads(out.read_text())
    return {"setup_s": setup, "responses": responses, "stats": stats,
            "traced": traced}


def check_round(rnd: dict[str, Any], plan: dict[str, Any],
                expected: dict[str, Any]) -> list[str]:
    failures = []
    sent = 0
    for resp in rnd["responses"]:
        if resp["kind"] == "scrape":
            why = checks.check_scrape(resp["status"], resp["body"], sent)
        else:
            pool = plan["hot"] if resp["kind"] == "hit" else plan["misses"]
            want = expected[checks.request_key(pool[resp["idx"]])]
            why = checks.check_body(
                resp["status"], resp["body"], want,
                "cached" if resp["kind"] == "hit" else "accepted")
            sent += 1
        if why is not None:
            failures.append(f"{resp['kind']} {resp['idx']}: {why}")
    return failures


def serve_layer_values(rnd: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced lifetime (timed requests only).

    The client sends one request at a time, so the n-th ``admit`` and
    ``load`` belong to the n-th simulate request, the n-th ``store`` to
    the n-th miss and the n-th ``render`` to the n-th scrape."""
    stats = rnd["stats"]
    log = {key: iter(spans) for key, spans in stats["calls"].items()}
    worker_calls = iter(stats["worker"]["calls"])
    by: dict[str, list[float]] = {k: [] for k in (
        "admit", "load", "store", "worker", "ipc", "block", "hit_rem",
        "miss_rem", "scrape_rem", "render")}
    timed_calls = []

    def ms(span: list[float]) -> float:
        return (span[1] - span[0]) * 1e3

    for resp in rnd["responses"]:
        lat = resp["lat_ms"]
        if resp["kind"] == "scrape":
            render = ms(next(log["obs.render"]))
            if not resp["warmup"]:
                by["render"].append(render)
                by["scrape_rem"].append(lat - render)
            continue
        admit_span = next(log["serve.admit"])
        admit = ms(admit_span)
        load = ms(next(log["results_cache.load"]))
        store = 0.0
        if resp["kind"] == "miss":
            store_span = next(log["results_cache.store"])
            store = ms(store_span)
            wait = (store_span[0] - admit_span[1]) * 1e3
            call = next(worker_calls)
        if resp["warmup"]:
            continue
        by["admit"].append(admit - load)
        by["block"].append(load + store)
        if resp["kind"] == "hit":
            by["load"].append(load)
            by["hit_rem"].append(lat - admit)
        else:
            worker = call["worker_s"] * 1e3
            timed_calls.append(call["layers"])
            by["store"].append(store)
            by["worker"].append(worker)
            by["ipc"].append(wait - worker)
            by["miss_rem"].append(lat - admit - wait - store)
    values = sim_layer_values(sum_layers(timed_calls))
    values.update({
        "results_cache.load_ms": median(by["load"]),
        "results_cache.store_ms": median(by["store"]),
        "results_cache.evictions": stats["evictions"],
        "results_cache.entries": stats["entries"],
        "serve.admit_ms": median(by["admit"]),
        "serve.worker_ms": median(by["worker"]),
        "serve.ipc_ms": median(by["ipc"]),
        "serve.loop_block_ms": sum(by["block"]) / len(by["block"]),
        "serve.hit_remainder_ms": median(by["hit_rem"]),
        "serve.miss_remainder_ms": median(by["miss_rem"]),
        "serve.scrape_remainder_ms": median(by["scrape_rem"]),
        "obs.render_ms": median(by["render"]),
        "telemetry.latency_hist_keys": stats["latency_hist_keys"],
    })
    return values


def timed_latencies(rnd: dict[str, Any], kind: str) -> list[float]:
    return [r["lat_ms"] for r in rnd["responses"]
            if r["kind"] == kind and not r["warmup"]]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    plan, template, budget, expected = serve_inputs(seed)
    rounds = []
    failures: list[str] = []
    deadline = _perf() + seconds
    min_rounds = 6 if trace else 3
    readings = []
    while len(rounds) < min_rounds or _perf() < deadline:
        traced = trace and len(rounds) % 2 == 1
        readings.append(calib.probe_ms())
        rnd = serve_round(seed, plan, template, budget, traced, len(rounds))
        failures += [f"round {len(rounds)} {why}"
                     for why in check_round(rnd, plan, expected)]
        for resp in rnd["responses"]:
            del resp["body"]
        rounds.append(rnd)
    readings.append(calib.probe_ms())
    for rnd, factor in zip(rounds, calib.factors(readings)):
        rnd["factor"] = factor
    attempted = sum(len(r["responses"]) for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    miss_n = [int(r["trace"]["n"]) for r in plan["misses"][1:]]

    def worker_times(rnd: dict[str, Any]) -> list[float]:
        return [c["worker_s"] for c in rnd["stats"]["worker"]["calls"][1:]]

    def rss(rnd: dict[str, Any]) -> float:
        stats = rnd["stats"]
        return (stats["maxrss_kib"] + stats["worker"]["maxrss_kib"]) / 1024

    def total_ms(rnd: dict[str, Any]) -> float:
        return rnd["factor"] * sum(r["lat_ms"] for r in rnd["responses"]
                                   if not r["warmup"])

    metrics: dict[str, tuple[float, list[float]]] = {}
    if not trace:
        # Each miss is one short piece of python-kernel work whose time
        # swings widely from round to round, so the per-round throughput
        # of all misses, not the fastest of each, is what repeats.
        sim_rate = [sum(miss_n) / sum(worker_times(r)) / r["factor"] / 1e6
                    for r in plain]
        setups = [r["setup_s"] * r["factor"] for r in plain]
        metrics["setup_s"] = (median(setups), setups)
        metrics["sim_maccess_per_s"] = (median(sim_rate), sim_rate)
        metrics["peak_rss_mib"] = (median([rss(r) for r in plain]),
                                   [rss(r) for r in plain])
        for cls, kind in (("class_a", "hit"), ("class_b", "scrape"),
                          ("class_c", "miss")):
            per_round = [median(timed_latencies(r, kind)) * r["factor"]
                         for r in plain]
            metrics[f"{cls}_p50_ms"] = (median(per_round), per_round)
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        per_traced = [serve_layer_values(r) for r in traced_rounds]
        for key in per_traced[0]:
            samples = [v[key] for v in per_traced]
            metrics[key] = (median(samples), samples)
        ratio = l2_access_ratio([expected[checks.request_key(r)]
                                 for r in plan["misses"][1:]])
        metrics["hierarchy.l2_access_ratio"] = (ratio, [ratio])
        for kind in ("hit", "miss"):
            pooled = [x for r in plain for x in timed_latencies(r, kind)]
            metrics[f"serve.{kind}_p99_ms"] = (percentile(pooled, 0.99),
                                               pooled)
            metrics[f"serve.{kind}_samples"] = (len(pooled), [len(pooled)])
        overhead = (median([total_ms(r) for r in traced_rounds])
                    / median([total_ms(r) for r in plain]) - 1) * 100
        metrics["tracing.overhead_pct"] = (overhead, [overhead])
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "rounds": len(rounds),
            "raw": {"probe_ms": readings,
                    "latency_ms": [{"traced": r["traced"],
                                    "factor": r["factor"],
                                    "setup_s": r["setup_s"], "by_kind": {
                kind: timed_latencies(r, kind)
                for kind in ("hit", "scrape", "miss")}} for r in rounds]}}


# -- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove every output check fires on a "
                             "corrupted result, then exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "emissary" / "__init__.py").is_file():
        print(f"error: no emissary sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, PINS["PYTHONPATH"])
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cpu = pin_cpu()

    problems = checks.self_test()
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    if args.self_test:
        print("self-test " + ("FAILED" if problems else "passed"),
              file=sys.stderr)
        return 1 if problems else 0

    if args.workload == "serve-mixed":
        result = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_sim(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    values = {name: 0.0 for name in units}
    samples: dict[str, list[float]] = {name: [] for name in units}
    for name, (value, series) in result["metrics"].items():
        values[name], samples[name] = value, series
    failures = result["failures"]
    correct = not failures and not problems
    record = {
        "harness_version": records.HARNESS_VERSION,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": result["rounds"],
        "stamp": records.stamp({k: PINS[k] for k in (
            "EMISSARY_COMPILED", "PYTHONHASHSEED", "OMP_NUM_THREADS")}, cpu,
            state_dir().name),
        "notes": list(records.NOTES),
        "classes": workloads.CLASSES[args.workload],
        "probe_ref_ms": calib.REF_MS,
        "probe_median_ms": median(result["raw"]["probe_ms"]),
        "correct": correct, "attempted": result["attempted"],
        "failed": len(failures), "failures": failures[:50],
        "self_test_problems": problems,
        "metrics": {name: {"value": values[name], "unit": units[name],
                           "samples": samples[name]} for name in units},
        "raw": result["raw"],
    }
    path = (WORK / "records"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    records.write(path, record)
    for failure in failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} record={path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


def pin_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    The roles of a workload take turns (the client waits for the server,
    the server for the worker), so one CPU serves them all, and the
    scheduler cannot move them between CPUs from one run to the next."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _pin_and_reexec() -> None:
    """Re-exec once so this process also runs under the pinned hash seed."""
    if os.environ.get("PYTHONHASHSEED") != PINS["PYTHONHASHSEED"]:
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    os.environ.update(PINS)


if __name__ == "__main__":
    _pin_and_reexec()
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
