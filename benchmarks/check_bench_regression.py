"""Bench-regression gate: compare a fresh run against committed numbers.

Loads the committed ``BENCH_inference.json`` (schema v2: one slot per
``(engine, mode)``) and a freshly produced bench file, then checks every
speedup-style metric the two have in common: the fresh value must stay
within a tolerance band of the committed one (default: at least 0.5x).
Speedups are ratios of two measurements from the *same* machine, so they
transfer across hardware far better than raw milliseconds -- the band
absorbs CI-runner noise while still catching a pipeline that silently
fell back to a slow path.

Only slots present in BOTH files are compared (a missing engine or mode
is reported and skipped), so the gate never blocks on an incomparable
baseline.  Within a compared slot, every committed speedup must have a
fresh counterpart: a ratio the bench stopped producing fails the gate,
so a band leaves CI only when the committed file drops it too.

Usage::

    python benchmarks/check_bench_regression.py \
        --fresh /tmp/bench.json [--committed BENCH_inference.json] \
        [--tolerance 0.5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_COMMITTED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_inference.json"
)

#: Metric keys treated as higher-is-better speedup ratios.
_SPEEDUP_KEYS = (
    "speedup",
    "decision_speedup",
    # bench_scale: vectorized submission core vs per-query columnar, and
    # the adaptive-window leg vs the per-query baseline.
    "vector_speedup",
    "adaptive_speedup",
    # bench_inference: solo determine, table-driven vs per-probe loop
    # (per grid under solo_determine).
    "determine_speedup",
)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _walk_speedups(results: dict, prefix: str = ""):
    """Yield ``(dotted.path, value)`` for every speedup metric."""
    for section, row in sorted(results.items()):
        if not isinstance(row, dict):
            continue
        path = f"{prefix}{section}"
        for key in _SPEEDUP_KEYS:
            value = row.get(key)
            if isinstance(value, (int, float)):
                yield f"{path}.{key}", float(value)
        yield from _walk_speedups(
            {k: v for k, v in row.items() if isinstance(v, dict)},
            prefix=f"{path}.",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="bench file to check")
    parser.add_argument("--committed", default=DEFAULT_COMMITTED)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="fresh speedup must be >= tolerance * committed speedup",
    )
    args = parser.parse_args(argv)

    fresh = _load(os.path.abspath(args.fresh))
    committed = _load(os.path.abspath(args.committed))
    for name, payload in (("fresh", fresh), ("committed", committed)):
        if payload.get("schema_version", 1) < 2:
            print(f"{name} file predates schema v2; nothing to compare")
            return 0

    checked = violations = 0
    for engine, modes in sorted(fresh.get("engines", {}).items()):
        for mode, slot in sorted(modes.items()):
            committed_slot = (
                committed.get("engines", {}).get(engine, {}).get(mode)
            )
            if committed_slot is None:
                print(f"[skip] {engine}/{mode}: no committed baseline")
                continue
            committed_speedups = dict(
                _walk_speedups(committed_slot.get("results", {}))
            )
            fresh_speedups = dict(_walk_speedups(slot.get("results", {})))
            for path in sorted(committed_speedups.keys() - fresh_speedups.keys()):
                checked += 1
                violations += 1
                print(
                    f"[MISSING] {engine}/{mode} {path}: committed "
                    f"{committed_speedups[path]:.2f}x, absent from the fresh run"
                )
            for path, value in fresh_speedups.items():
                reference = committed_speedups.get(path)
                if reference is None:
                    continue
                floor = args.tolerance * reference
                verdict = "ok" if value >= floor else "REGRESSION"
                checked += 1
                if value < floor:
                    violations += 1
                print(
                    f"[{verdict}] {engine}/{mode} {path}: "
                    f"{value:.2f}x vs committed {reference:.2f}x "
                    f"(floor {floor:.2f}x)"
                )
    if checked == 0:
        print("no comparable speedup metrics found")
        return 0
    if violations:
        print(
            f"{violations}/{checked} speedups regressed below "
            f"{args.tolerance}x of the committed values or went missing"
        )
        return 1
    print(f"all {checked} speedups within the tolerance band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
