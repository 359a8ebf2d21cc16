"""Compare benchmark runs of a parent commit and a change.

Usage (from the repository root)::

    python benchmarks/suite/compare.py PARENT_DIR CHANGE_DIR
        [--claim METRIC@WORKLOAD]

Each directory holds the ``--out`` result files of ``run.py`` runs (at
least ten per side, taken alternately with the other side; files pair
up in name order).  For every workload and end-to-end metric the script
prints each side's median and quartiles, the fraction of pairs the
change wins (ties count for neither) and a verdict from the directions
and bounds in ``BENCHMARK.json``:

- ``unresolved``: the parent's own spread (quartile distance over
  median) is wider than the bound, unless every change run beats every
  parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: the change wins at least nine pairs in ten and the
  medians differ by more than the parent's quartile distance;
- ``no regression`` otherwise.

Simulated metrics (``sim_*``, ``slo_attainment``) are fixed by the seed,
so they are also compared seed by seed: any seed whose value changed is
reported as a behaviour change.  A rise in the share of arrivals that
failed is flagged.  Runs whose inference engine differs (``native-c``
against ``numpy``) are refused.  The exit code is 1 when a metric
regressed or a ``--claim`` is not met, 2 when the runs cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_RUNS = 10
#: Metrics a seed fixes exactly.
EXACT = ("sim_cost_usd_per_1k", "sim_latency_p99_s", "slo_attainment")


def by_workload(runs: list[dict]) -> dict[str, list[tuple[int, dict]]]:
    """Each workload's ``(seed, result entry)`` list, in run order."""
    grouped: dict[str, list[tuple[int, dict]]] = {}
    for run in runs:
        for name, entry in run["workloads"].items():
            grouped.setdefault(name, []).append((run["seed"], entry))
    return grouped


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        runs.append(json.loads(path.read_text(encoding="utf-8")))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _side(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, win fraction) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    spread = (p_q3 - p_q1) / abs(p_median) if p_median else 0.0
    if sign > 0:
        dominated = min(change) > max(parent)
    else:
        dominated = max(change) < min(parent)
    if spread > bound and not dominated:
        return "unresolved", win_fraction
    if sign * (c_median - p_median) < -bound * abs(p_median):
        return "regressed", win_fraction
    if (
        win_fraction >= 0.9
        and sign * (c_median - p_median) > p_q3 - p_q1
    ):
        return "improved", win_fraction
    return "no regression", win_fraction


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", default=None,
                        help="METRIC@WORKLOAD that must read improved")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    engines = {run["env"]["engine"] for run in parent_runs + change_runs}
    if len(engines) > 1:
        print(f"runs use different inference engines {sorted(engines)}; "
              "refusing to compare", file=sys.stderr)
        return 2
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    workloads = [
        name for name in parent
        if min(len(parent[name]), len(change.get(name, ()))) >= MIN_RUNS
    ]
    if not workloads:
        print(f"no workload has {MIN_RUNS} runs on both sides",
              file=sys.stderr)
        return 2

    regressed = False
    results = {}
    print(f"{'workload':<15} {'metric':<20} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>5}  verdict")
    for workload in workloads:
        pairs = list(zip(parent[workload], change[workload]))
        same_seed = [p_seed == c_seed for (p_seed, _), (c_seed, _) in pairs]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [p["end_to_end"][name]["value"] for (_, p), _ in pairs]
            after = [c["end_to_end"][name]["value"] for _, (_, c) in pairs]
            outcome, wins = verdict(
                before, after, metric["better"], metric["bound"]
            )
            if name in EXACT:
                changed = sum(
                    1 for same, b, a in zip(same_seed, before, after)
                    if same and b != a
                )
                if changed:
                    outcome += f"; behaviour changed on {changed} seeds"
            results[(name, workload)] = outcome
            regressed |= outcome.startswith("regressed")
            print(f"{workload:<15} {name:<20} {_side(before):>34} "
                  f"{_side(after):>34} {wins:>5.2f}  {outcome}")
        failed = [
            max(entry["failed_share"] for _, entry in side[workload])
            for side in (parent, change)
        ]
        if failed[1] > failed[0]:
            print(f"{workload:<15} failed_share rose from {failed[0]:.6g} to "
                  f"{failed[1]:.6g}: a gain does not count")
            regressed = True

    status = 1 if regressed else 0
    if args.claim:
        metric, _, workload = args.claim.partition("@")
        outcome = results.get((metric, workload))
        if outcome is None:
            print(f"claim {args.claim}: no such metric and workload",
                  file=sys.stderr)
            return 2
        met = outcome.startswith("improved") and not regressed
        print(f"claim {args.claim}: {'met' if met else 'not met'} ({outcome})")
        status = status or (0 if met else 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
