"""Autoscaler benchmark: prediction-driven keep-alive vs the baselines.

A sustained bursty tenant (one query every 10 s) and a sparse tenant
(one query every 150 s) are pinned to separate shards of one pool via
:class:`TenantAffinityRouter` and replayed under every keep-alive
policy -- a fixed-window sweep, the demand autoscaler and the
forecast-driven :class:`PredictiveKeepAlive` (per-shard scoping,
break-even gating) -- each on a fresh identically-seeded system with
retraining damped, so runs differ only in the autoscaler.

Serving runs ``vm-only``: relay bridges SL cold boots, so VM-heavy
serving is where warm-start economics are undiluted (the PR 1 note).

Acceptance shape (asserted, deterministic in simulation):

- ``PredictiveKeepAlive`` achieves **lower total cost than the best
  fixed keep-alive** (the cheapest window in the sweep) at an
  **equal-or-better warm-start rate**;
- the predictive policy drains the sparse shard: its keep-alive spend
  there stays below every non-zero fixed window's;
- per-shard keep-alive costs partition the pool total exactly, and the
  instance-second ledger balances.

Results merge into ``BENCH_autoscaler.json`` (schema v2, one slot per
``(engine, mode)`` like ``BENCH_inference.json``); the ``speedup`` keys
are cost ratios (committed-best-fixed over predictive, higher = better)
that ``benchmarks/check_bench_regression.py`` gates in CI.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_autoscaler.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import Smartpick, SmartpickProperties  # noqa: E402
from repro.cloud.pool import (  # noqa: E402
    DemandAutoscaler,
    FixedKeepAlive,
    PoolConfig,
    TenantAffinityRouter,
)
from repro.core.forecast import PredictiveKeepAlive  # noqa: E402
from repro.core.serving import ServingSimulator  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.workloads import get_query  # noqa: E402
from repro.workloads.trace import TraceEvent, WorkloadTrace  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_autoscaler.json"
)

SLO_SECONDS = 300.0
FIXED_SWEEP = (0.0, 30.0, 120.0, 300.0)

#: Both tenants' shards are VM-only and identically sized; "hot" pins to
#: shard index 1 ("c5"), "quiet" to index 0 ("m5") under the affinity
#: router's crc32 hash.
SHARDS = {
    "m5": PoolConfig(max_vms=10, max_sls=0),
    "c5": PoolConfig(max_vms=10, max_sls=0),
}


def build_traces(quick: bool) -> dict[str, WorkloadTrace]:
    n_hot = 12 if quick else 24
    n_quiet = 2 if quick else 3
    return {
        "hot": WorkloadTrace(events=tuple(
            TraceEvent(10.0 * i, "tpcds-q82") for i in range(n_hot)
        )),
        "quiet": WorkloadTrace(events=tuple(
            TraceEvent(15.0 + 150.0 * i, "tpcds-q68")
            for i in range(n_quiet)
        )),
    }


def build_system(seed: int, quick: bool) -> Smartpick:
    system = Smartpick(
        SmartpickProperties(
            provider="AWS", relay=True, error_difference_trigger=1e9
        ),
        max_vm=8,
        max_sl=8,
        rng=seed,
    )
    system.bootstrap(
        [get_query("tpcds-q82"), get_query("tpcds-q68")],
        n_configs_per_query=6 if quick else 8,
    )
    return system


def replay(autoscaler, traces, quick: bool, seed: int = 105):
    simulator = ServingSimulator(
        build_system(seed, quick),
        slo_seconds=SLO_SECONDS,
        shards=SHARDS,
        router=TenantAffinityRouter(),
        autoscaler=autoscaler,
        decision_reuse=False,
    )
    return simulator.replay_multi(traces, mode="vm-only")


def row(report) -> dict:
    stats = report.pool_stats
    return {
        "total_cents": 100.0 * report.total_cost_dollars,
        "query_cents": 100.0 * report.query_cost_dollars,
        "keepalive_cents": 100.0 * report.keepalive_cost_dollars,
        "keepalive_cents_by_shard": {
            name: 100.0 * cost
            for name, cost in report.keepalive_cost_by_shard.items()
        },
        "warm_start_rate": report.warm_start_rate,
        "p95_latency_s": report.latency_percentile(95),
        "expirations": stats.expirations,
        "idle_fraction": stats.idle_fraction,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller trace for the CI smoke job (asserts still run)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    traces = build_traces(args.quick)
    engine = kernel_name()
    quiet_shard = "m5"  # crc32("quiet") % 2 == 0 -> first declared shard
    print(
        f"autoscaler bench (engine={engine}, quick={args.quick}): "
        f"{len(traces['hot'])} hot + {len(traces['quiet'])} quiet arrivals "
        f"on {'+'.join(SHARDS)} (vm-only serving)"
    )

    reports = {}
    for window in FIXED_SWEEP:
        reports[f"fixed-{window:g}"] = replay(
            FixedKeepAlive(window, window / 4.0), traces, args.quick
        )
    reports["demand"] = replay(
        DemandAutoscaler(window_s=120.0, headroom=2.0, max_keep_alive_s=300.0),
        traces,
        args.quick,
    )
    predictive_policy = PredictiveKeepAlive(headroom=3.0)
    reports["predictive"] = replay(predictive_policy, traces, args.quick)

    rows = {name: row(report) for name, report in reports.items()}
    for name, metrics in rows.items():
        shard_text = ", ".join(
            f"{shard}={cents:.2f}c"
            for shard, cents in metrics["keepalive_cents_by_shard"].items()
        )
        print(
            f"  {name:12s} total {metrics['total_cents']:7.2f}c "
            f"(query {metrics['query_cents']:.2f} + "
            f"keep-alive {metrics['keepalive_cents']:.2f}) "
            f"warm {100 * metrics['warm_start_rate']:5.1f}%  "
            f"idle {100 * metrics['idle_fraction']:5.1f}%  "
            f"p95 {metrics['p95_latency_s']:6.1f}s  [{shard_text}]"
        )

    # Conservation invariants hold for every policy.
    for name, report in reports.items():
        assert math.fsum(
            report.keepalive_cost_by_shard.values()
        ) == report.keepalive_cost_dollars or abs(
            math.fsum(report.keepalive_cost_by_shard.values())
            - report.keepalive_cost_dollars
        ) <= 1e-12 * max(report.keepalive_cost_dollars, 1.0), name
        stats = report.pool_stats
        assert abs(
            stats.instance_seconds
            - (stats.leased_seconds + stats.idle_seconds)
        ) <= 1e-6 + 1e-9 * stats.instance_seconds, name

    # Acceptance: predictive beats the best fixed window on total cost
    # at an equal-or-better warm-start rate.
    best_fixed_name = min(
        (name for name in rows if name.startswith("fixed-")),
        key=lambda name: rows[name]["total_cents"],
    )
    best_fixed = rows[best_fixed_name]
    predictive = rows["predictive"]
    assert predictive["total_cents"] < best_fixed["total_cents"], (
        f"acceptance: predictive ({predictive['total_cents']:.2f}c) must "
        f"undercut the best fixed window {best_fixed_name} "
        f"({best_fixed['total_cents']:.2f}c)"
    )
    assert (
        predictive["warm_start_rate"] >= best_fixed["warm_start_rate"]
    ), (
        "acceptance: predictive must hold an equal-or-better warm-start "
        f"rate ({100 * predictive['warm_start_rate']:.1f}% vs "
        f"{100 * best_fixed['warm_start_rate']:.1f}%)"
    )
    # The sparse tenant's shard drains under the predictive policy:
    # cheaper than every non-zero fixed window's spend there.
    for window in FIXED_SWEEP:
        if window == 0.0:
            continue
        fixed_quiet = rows[f"fixed-{window:g}"][
            "keepalive_cents_by_shard"][quiet_shard]
        predictive_quiet = predictive["keepalive_cents_by_shard"][quiet_shard]
        assert predictive_quiet < fixed_quiet, (
            f"acceptance: predictive must drain the sparse shard below "
            f"fixed-{window:g} ({predictive_quiet:.3f}c vs "
            f"{fixed_quiet:.3f}c)"
        )

    # Idle time is what keep-alive spend buys; the forecast-gated policy
    # must not hold workers idle longer (as a fraction of instance time)
    # than the most generous fixed window, or its cost win is luck.
    widest_fixed = rows[f"fixed-{max(FIXED_SWEEP):g}"]
    assert (
        predictive["idle_fraction"] <= widest_fixed["idle_fraction"]
    ), (
        "acceptance: predictive idle fraction "
        f"({100 * predictive['idle_fraction']:.1f}%) must not exceed the "
        f"widest fixed window's "
        f"({100 * widest_fixed['idle_fraction']:.1f}%)"
    )

    cost_ratio = best_fixed["total_cents"] / predictive["total_cents"]
    demand_ratio = rows["demand"]["total_cents"] / predictive["total_cents"]
    print(
        f"acceptance ok: predictive {predictive['total_cents']:.2f}c vs "
        f"best fixed ({best_fixed_name}) {best_fixed['total_cents']:.2f}c "
        f"-> {cost_ratio:.2f}x cheaper at "
        f"{100 * predictive['warm_start_rate']:.1f}% vs "
        f"{100 * best_fixed['warm_start_rate']:.1f}% warm starts"
    )

    results = {
        "policies": rows,
        "predictive_vs_best_fixed": {
            "best_fixed": best_fixed_name,
            # Cost ratios are simulation-deterministic and transfer
            # across machines; the regression gate bands these.
            "speedup": cost_ratio,
            "warm_rate_delta": (
                predictive["warm_start_rate"]
                - best_fixed["warm_start_rate"]
            ),
        },
        "predictive_vs_demand": {"speedup": demand_ratio},
    }

    output = os.path.abspath(args.output)
    try:
        with open(output, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, json.JSONDecodeError):
        existing = None
    engines = (
        dict(existing.get("engines", {}))
        if existing and existing.get("schema_version", 1) >= 2
        else {}
    )
    engines.setdefault(engine, {})["quick" if args.quick else "full"] = {
        "config": {
            "n_hot": len(traces["hot"]),
            "n_quiet": len(traces["quiet"]),
            "shards": {
                name: config.max_vms for name, config in SHARDS.items()
            },
            "fixed_sweep_s": list(FIXED_SWEEP),
            "mode": "vm-only",
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "autoscaler",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
