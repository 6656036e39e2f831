"""Output checks: every result is compared against an independent answer.

- A simulation result must equal the per-access reference engine's
  outcome on every outcome field: hits and misses per level and the
  per-core rows.  The reference engine reports no ``policy_stats``
  (beyond ``unique_l1_miss_lines``), so those are checked against the
  set-major python engine, whose policy kernels are written separately
  from the compiled ones.  Only wall-clock fields differ between two
  runs of one request, and only those are dropped.
- A served ``/v1/simulate`` body must be a 200 whose result equals
  :func:`emissary.api.simulate` for its request, with the status the
  request's class implies (``cached`` for a hit, ``accepted`` for a
  miss).
- A ``/v1/metrics`` scrape must parse with the golden parser of
  :mod:`emissary.obs.metrics` and count exactly the simulate requests
  sent to that server so far.

Reference outcomes are memoized per seed on disk, outside any timed
phase.  :func:`self_test` corrupts known-good results and proves each
check fires.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

#: Wall-clock fields: the only ones that differ between two runs.
TIMING_KEYS = frozenset({"elapsed_s", "accesses_per_s", "telemetry"})


def outcome(result: Any) -> Any:
    """A result dict with its wall-clock fields removed."""
    if isinstance(result, dict):
        return {k: outcome(v) for k, v in result.items()
                if k not in TIMING_KEYS}
    if isinstance(result, list):
        return [outcome(v) for v in result]
    return result


def request_key(request: dict[str, Any]) -> str:
    from emissary.results_cache import config_key

    return config_key(request)


def _simulate(request: dict[str, Any], engine: str) -> dict[str, Any]:
    from emissary.api import SimRequest, simulate

    return outcome(simulate(SimRequest.from_dict(request),
                            engine=engine).to_dict())


def _merge_stats(reference: Any, python: Any) -> Any:
    """``reference`` with every ``policy_stats`` completed from ``python``."""
    if isinstance(reference, dict):
        out = {k: _merge_stats(v, python.get(k)) for k, v in reference.items()}
        if "policy_stats" in reference:
            out["policy_stats"] = {**python["policy_stats"],
                                   **reference["policy_stats"]}
        return out
    if isinstance(reference, list):
        return [_merge_stats(r, p) for r, p in zip(reference, python)]
    return reference


def reference_outcome(request: dict[str, Any]) -> dict[str, Any]:
    """The independent answer for a simulation request."""
    return _merge_stats(_simulate(request, "reference"),
                        _simulate(request, "batched"))


def served_outcome(request: dict[str, Any]) -> dict[str, Any]:
    """What the server must answer: :func:`emissary.api.simulate`."""
    return _simulate(request, "batched")


def memoized(path: Path, requests: list[dict[str, Any]],
             answer: Any) -> dict[str, Any]:
    """``{request key: answer(request)}``, read from ``path`` when an
    earlier run of this seed computed it."""
    memo: dict[str, Any] = {}
    if path.exists():
        memo = json.loads(path.read_text())
    missing = [r for r in requests if request_key(r) not in memo]
    for request in missing:
        memo[request_key(request)] = answer(request)
    if missing:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(memo, sort_keys=True))
        tmp.replace(path)
    return memo


def check_sim(got: Any, want: Any) -> str | None:
    """None when ``got`` equals the reference ``want``, else why not."""
    got, want = outcome(got), outcome(want)
    if got == want:
        return None
    return f"outcome differs from the reference: {_first_difference(got, want)}"


def _first_difference(got: Any, want: Any, path: str = "") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key),
                                         f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{path}[{i}]")
    return f"{path or 'result'}: got {got!r}, want {want!r}"


def check_body(status: int, body: bytes, want: Any,
               expect_status: str) -> str | None:
    """Check one ``/v1/simulate`` response (a 429 or any non-200 fails)."""
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        return f"body is not JSON: {exc}"
    if payload.get("status") != expect_status:
        return (f"status {payload.get('status')!r}, expected "
                f"{expect_status!r}")
    return check_sim(payload.get("result"), want)


def check_scrape(status: int, body: bytes, simulate_sent: int) -> str | None:
    """Check one ``/v1/metrics`` scrape against the client's own count."""
    from emissary.obs.metrics import parse_prometheus, sample_value

    if status != 200:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        families = parse_prometheus(body.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        return f"scrape does not parse: {exc}"
    for name in ("emissary_serve_requests_total",
                 "emissary_serve_latency_us_count"):
        value = sample_value(families, name)
        if value != simulate_sent:
            return f"{name} is {value}, client sent {simulate_sent}"
    return None


# -- self-test --------------------------------------------------------------


def _corrupt(result: dict[str, Any], path: tuple[Any, ...],
             delta: int = 1) -> dict[str, Any]:
    bad = copy.deepcopy(result)
    node = bad
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = node[path[-1]] + delta
    return bad


def self_test() -> list[str]:
    """Run every check on known-good and deliberately corrupted results;
    returns the failures of the self-test (empty when it passes)."""
    from emissary.obs.metrics import render_prometheus
    from emissary.telemetry import Telemetry

    from workloads import EMISSARY_HIER, EMISSARY_PART, FLAT, HIER

    problems: list[str] = []

    def expect(label: str, verdict: str | None, fires: bool) -> None:
        if (verdict is not None) != fires:
            problems.append(f"{label}: check {'missed' if fires else 'fired'}"
                            f" ({verdict})")

    def req(trace: dict[str, Any], pol: str, params: dict[str, Any],
            cfg: dict[str, Any]) -> dict[str, Any]:
        return {"schema_version": 1, "trace": trace,
                "policy": {"name": pol, "params": params}, "config": cfg,
                "seed": 3}

    t = {"kind": "call", "n": 4000, "seed": 5, "params": {}}
    two = {"cores": [{"kind": "loop", "n": 2000, "seed": 6, "params": {}},
                     {"kind": "shift", "n": 2000, "seed": 7, "params": {}}],
           "weights": [1, 1]}
    flat = req(t, "srrip", {}, FLAT)
    hier = req(t, "emissary", EMISSARY_HIER, HIER)
    multi = req(two, "emissary", EMISSARY_PART, HIER)
    for label, request, corruptions in (
            ("flat", flat, [("hit_count",), ("miss_count",)]),
            ("hierarchy", hier, [("l1", "miss_count"), ("l2", "hit_count"),
                                 ("l2", "policy_stats", "hp_promotions")]),
            ("2-core", multi, [("per_core", 0, "l2_misses"),
                               ("l2", "policy_stats", "hp_promotions")])):
        want = reference_outcome(request)
        got = _simulate(request, "compiled")
        expect(f"{label} compiled vs reference", check_sim(got, want), False)
        for path in corruptions:
            expect(f"{label} corrupted {'.'.join(map(str, path))}",
                   check_sim(_corrupt(got, path), want), True)
        if label == "hierarchy":
            good = json.dumps({"status": "cached", "result": got}).encode()
            expect("serve body", check_body(200, good, want, "cached"), False)
            expect("serve 429", check_body(429, good, want, "cached"), True)
            expect("serve 500", check_body(500, good, want, "cached"), True)
            expect("serve wrong class",
                   check_body(200, good, want, "accepted"), True)
            bad = json.dumps({"status": "cached", "result": _corrupt(
                got, ("l2", "miss_count"))}).encode()
            expect("serve corrupted body", check_body(200, bad, want,
                                                      "cached"), True)

    tel = Telemetry()
    for _ in range(3):
        tel.inc("serve.requests")
    for us in (900, 1500, 40000):
        tel.observe("serve.latency_us", us)
    text = render_prometheus(tel.to_dict(), gauges={"serve.queue_depth": 0})
    expect("scrape", check_scrape(200, text.encode(), 3), False)
    expect("scrape wrong count", check_scrape(200, text.encode(), 4), True)
    expect("scrape truncated", check_scrape(200, text[:-1].encode(), 3), True)
    expect("scrape bad bucket", check_scrape(200, text.replace(
        'le="+Inf"} 3', 'le="+Inf"} 2').encode(), 3), True)
    expect("scrape non-200", check_scrape(503, text.encode(), 3), True)
    return problems
