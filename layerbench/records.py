"""Run records: the stamp, the per-metric samples and their quartiles."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
from pathlib import Path
from typing import Any

#: Bumped whenever a change to the benchmark could move a number, so
#: records from different harness versions are never compared.
HARNESS_VERSION = "2"

NOTES = (
    "Simulated caches start empty in every request: each request builds "
    "fresh engines and kernels, so no replacement state carries over "
    "between requests or rounds.",
    "The cache model is unvalidated against hardware: the repository "
    "holds no reference results, so simulated outcomes serve only as "
    "correctness checks (every engine against the per-access reference), "
    "not as accuracy claims.",
)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:  # not Linux: the platform's own name is the best left
        text = ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def peak_rss_kib() -> int:
    """This process's peak resident set size in KiB (``VmHWM``).

    Not ``getrusage``: Linux carries ``ru_maxrss`` across ``execve``, so
    a process started by this harness would report the harness's peak
    whenever that is the larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def code_hash(src: Path) -> str:
    """SHA-256 over the path and bytes of every source file under ``src``.

    Scratch state derived from the program (trace files it wrote, a
    results cache it filled, reference outcomes it computed) is kept
    under this hash, so a checkout of other code never reuses it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def stamp(pins: dict[str, str], cpu: int, code: str) -> dict[str, Any]:
    import numpy

    import emissary

    return {
        "harness_version": HARNESS_VERSION,
        "emissary_version": emissary.__version__,
        "emissary_code_hash": code,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_provider": pins["EMISSARY_COMPILED"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": cpu,
        "pinned_env": pins,
    }


def write(path: Path, record: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def load(path: str | Path) -> dict[str, Any]:
    record = json.loads(Path(path).read_text())
    for key in ("harness_version", "workload", "metrics"):
        if key not in record:
            raise ValueError(f"{path}: not a benchmark record (no {key!r})")
    return record
