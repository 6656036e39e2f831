"""Machine-speed probe: a fixed piece of work that uses no emissary code.

A shared VM moves between speed regimes up to about 2.5x apart, for tens
of seconds to minutes, and a slow regime slows every kind of work:
interpreter, numpy, process start-up, the serve round trip.  The probe
is timed before and after each round of measured work, on the CPU that
does that work, and the round's times are scaled by how much slower or
faster than ``REF_MS`` the probe ran (:func:`factors`).  The probe never
runs inside a timed span, and it uses no emissary code, so a change to
the program moves a scaled time by the same share as the measured one.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

import numpy as np

#: Probe runs per reading; the reading is their median.
REPEATS = 3
#: Reference probe time.  A metric's time is reported as measured times
#: ``REF_MS`` over the probe time read next to it: the time the same work
#: would take on a machine where one probe run takes ``REF_MS``.
REF_MS = 15.0

_RNG = np.random.default_rng(12345)
_ARRAY = _RNG.integers(0, 1 << 40, 20_000)
#: 8 MiB: larger than a core's L2, like the simulations' 1M-access arrays.
_BIG = _RNG.integers(0, 1 << 40, 1 << 20)
_GATHER = _RNG.integers(0, 1 << 20, 1 << 17)
_DOC = {"rows": [{"name": f"r{i}", "hits": i * 7, "misses": i % 13,
                  "params": {"ways": 8, "sets": 64}} for i in range(60)]}


def _round_trips(n: int) -> None:
    """``n`` small messages echoed by a second thread over a socket pair:
    the wake-ups and context switches a served request pays."""
    a, b = socket.socketpair()

    def echo() -> None:
        for _ in range(n):
            b.sendall(b.recv(64))

    thread = threading.Thread(target=echo)
    thread.start()
    for _ in range(n):
        a.sendall(b"x" * 32)
        a.recv(64)
    thread.join()
    a.close()
    b.close()


def _work() -> int:
    """Interpreter, numpy, memory-bound, (de)serialisation and round-trip
    work in fixed amounts."""
    _round_trips(100)
    acc = int(_BIG[_GATHER].sum() & 0xFF)
    acc += int(np.cumsum(_BIG[:1 << 18] >> 20)[-1] & 0xFF)
    table: dict[int, int] = {}
    for i in range(3_000):
        table[(i * 2654435761) & 0xFFFF] = i
        acc += table.get(i & 0xFFFF, 0)
    acc += int(np.unique(np.sort(_ARRAY) >> 12).size)
    acc += int(np.cumsum(_ARRAY & 0xFF)[-1])
    for _ in range(4):
        acc += len(json.loads(json.dumps(_DOC))["rows"])
    return acc


def probe_ms() -> float:
    """One reading: the median time of ``REPEATS`` probe runs, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def factors(readings: list[float]) -> list[float]:
    """Per stretch of work between two consecutive readings: ``REF_MS``
    over the mean of the readings before and after it."""
    return [REF_MS / ((a + b) / 2) for a, b in zip(readings, readings[1:])]
