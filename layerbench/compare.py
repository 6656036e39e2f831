"""Compare two benchmark records side by side.

    python3 layerbench/compare.py BEFORE.json AFTER.json

Records are the files ``run.py`` writes under ``.layerbench/records/``.
For every metric the tool prints each side's value and the first
quartile, median and third quartile of its samples (per round, or per
set-up), then the change of the value.  It refuses two records of
different harness versions or workloads: their numbers do not measure
the same thing.
"""

from __future__ import annotations

import argparse
import sys

import records


def compare(before: dict, after: dict) -> list[str]:
    for key in ("harness_version", "workload"):
        if before[key] != after[key]:
            raise ValueError(f"records differ in {key}: {before[key]!r} vs "
                             f"{after[key]!r}; refusing to compare")
    lines = [f"workload {before['workload']}  harness v{before['harness_version']}"
             f"  seeds {before['seed']} -> {after['seed']}",
             f"machine probe median {before['probe_median_ms']:.3f} -> "
             f"{after['probe_median_ms']:.3f} ms (times are scaled to "
             f"{before['probe_ref_ms']} ms; see calib.py)",
             f"{'metric':28s} {'unit':7s} {'before q1/med/q3':>30s} "
             f"{'after q1/med/q3':>30s} {'value':>21s} {'change':>8s}"]
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            lines.append(f"{name:28s} missing after")
            continue

        def spread(metric: dict) -> str:
            q1, q2, q3 = records.quartiles(metric["samples"])
            return f"{q1:9.4g} {q2:9.4g} {q3:9.4g}"

        change = ((new["value"] / old["value"] - 1) * 100
                  if old["value"] else float("nan"))
        lines.append(f"{name:28s} {old['unit']:7s} {spread(old):>30s} "
                     f"{spread(new):>30s} {old['value']:10.4g} "
                     f"{new['value']:10.4g} {change:+7.1f}%")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    try:
        lines = compare(records.load(args.before), records.load(args.after))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
