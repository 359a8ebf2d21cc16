"""Chaos benchmark: retry-with-backoff vs naive-fail under injected faults.

One trace of identical arrivals is replayed three times on identically
seeded systems that differ only in failure handling:

- ``baseline`` -- no faults, no retries (the fault-free reference bill);
- ``naive`` -- a ``moderate`` :func:`make_chaos_plan` (5% per-hand-over
  SL invocation failures plus a spot-preemption hazard and rare boot
  failures) with no :class:`RetryPolicy`: a revoked attempt drops its
  arrival outright;
- ``retry`` -- the same fault plan with exponential-backoff retries.

Acceptance shape (asserted, deterministic in simulation):

- the fault plan genuinely bites: naive-fail loses arrivals;
- retry-with-backoff restores **availability >= 99%** at a **total-cost
  overhead below 15%** of the fault-free baseline;
- the chargeback identity holds in every arm (query + keep-alive +
  wasted == total; every wasted dollar attributed to an arrival);
- two back-to-back retry replays are **bit-identical** on reliability
  counters and per-query latencies -- the fault schedule is a pure
  function of the plan seed and replay-local identifiers, so a second
  run in the same process may not drift.

Results merge into ``BENCH_chaos.json`` (schema v2, one slot per
``(engine, mode)``); the ``availability`` and ``cost_efficiency``
metrics are simulation-deterministic ratios that
``benchmarks/check_bench_regression.py`` bands in CI.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--quick]
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
from repro.cloud.pool import PoolConfig  # noqa: E402
from repro.core.serving import ServingSimulator  # noqa: E402
from repro.engine import RetryPolicy  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.workloads import get_query, make_chaos_plan  # noqa: E402
from repro.workloads.trace import TraceEvent, WorkloadTrace  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_chaos.json"
)

SLO_SECONDS = 300.0
SPACING_S = 45.0
SYSTEM_SEED = 77
#: Plan seed chosen so the moderate fault rates land failures on both
#: the quick and full traces (seeds are cheap; a plan that never fires
#: would benchmark nothing).
PLAN_SEED = 1
RETRY_POLICY = RetryPolicy(max_retries=4, backoff_base_s=3.0)

AVAILABILITY_FLOOR = 0.99
OVERHEAD_CEILING = 0.15


def build_trace(quick: bool) -> WorkloadTrace:
    n = 6 if quick else 16
    return WorkloadTrace(events=tuple(
        TraceEvent(i * SPACING_S, "tpcds-q82", input_gb=100.0)
        for i in range(n)
    ))


def build_system(quick: bool) -> Smartpick:
    system = Smartpick(
        SmartpickProperties(
            provider="AWS", relay=True, error_difference_trigger=1e9
        ),
        max_vm=8,
        max_sl=8,
        rng=SYSTEM_SEED,
    )
    system.bootstrap(
        [get_query("tpcds-q82")],
        n_configs_per_query=6 if quick else 8,
    )
    return system


def replay(trace, quick: bool, fault_plan=None, retry_policy=None):
    simulator = ServingSimulator(
        build_system(quick),
        slo_seconds=SLO_SECONDS,
        pool_config=PoolConfig(max_vms=16, max_sls=32),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        decision_reuse=False,
    )
    return simulator.replay(trace)


def row(report) -> dict:
    return {
        "availability": report.availability,
        "n_queries": report.n_queries,
        "n_failed": report.n_failed,
        "n_retries": report.n_retries_total,
        "retry_rate": report.retry_rate,
        "total_cents": 100.0 * report.total_cost_dollars,
        "query_cents": 100.0 * report.query_cost_dollars,
        "wasted_cents": 100.0 * report.wasted_cost_dollars,
        "wasted_cost_share": report.wasted_cost_share,
        "p95_latency_s": report.latency_percentile(95),
    }


def reliability_signature(report) -> tuple:
    return (
        report.n_queries,
        report.n_failed,
        report.n_shed,
        report.n_retries_total,
        report.wasted_cost_dollars,
        report.query_cost_dollars,
        tuple(q.arrival_s for q in report.served),
        tuple(q.latency_s for q in report.served),
        tuple(q.n_retries for q in report.served),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller trace for the CI smoke job (asserts still run)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--expect-engine",
        default=None,
        help="fail unless the forest kernel resolves to this engine",
    )
    args = parser.parse_args(argv)

    engine = kernel_name()
    if args.expect_engine is not None and engine != args.expect_engine:
        print(
            f"expected engine {args.expect_engine!r} but inference would "
            f"run on {engine!r}"
        )
        return 1

    trace = build_trace(args.quick)
    plan = make_chaos_plan("moderate", seed=PLAN_SEED)
    print(
        f"chaos bench (engine={engine}, quick={args.quick}): "
        f"{len(trace)} arrivals every {SPACING_S:g}s under "
        f"{plan.describe()}"
    )

    reports = {
        "baseline": replay(trace, args.quick),
        "naive": replay(trace, args.quick, fault_plan=plan),
        "retry": replay(
            trace, args.quick, fault_plan=plan, retry_policy=RETRY_POLICY
        ),
    }
    rows = {name: row(report) for name, report in reports.items()}
    for name, metrics in rows.items():
        print(
            f"  {name:9s} availability {100 * metrics['availability']:5.1f}% "
            f"({metrics['n_queries']}/{len(trace)} served, "
            f"{metrics['n_retries']} retries)  "
            f"total {metrics['total_cents']:7.2f}c "
            f"(wasted {metrics['wasted_cents']:.2f}c = "
            f"{100 * metrics['wasted_cost_share']:.1f}%)  "
            f"p95 {metrics['p95_latency_s']:6.1f}s"
        )

    # Chargeback identity in every arm: the bill decomposes exactly and
    # every forfeited dollar is attributed to some arrival.
    for name, report in reports.items():
        decomposed = (
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars
        )
        assert abs(report.total_cost_dollars - decomposed) <= 1e-12 * max(
            report.total_cost_dollars, 1.0
        ), name
        attributed = math.fsum(
            [q.wasted_cost_dollars for q in report.served]
            + [d.wasted_cost_dollars for d in report.dropped]
        )
        assert abs(attributed - report.wasted_cost_dollars) <= 1e-9 * max(
            report.wasted_cost_dollars, 1.0
        ), name
    assert rows["baseline"]["wasted_cents"] == 0.0
    assert rows["baseline"]["availability"] == 1.0

    # The plan must genuinely bite, and retries must absorb it.
    naive, retry = rows["naive"], rows["retry"]
    assert naive["n_failed"] > 0, (
        "acceptance: the fault plan never fired; naive-fail lost nothing"
    )
    assert retry["availability"] >= AVAILABILITY_FLOOR, (
        f"acceptance: retry availability "
        f"{100 * retry['availability']:.1f}% fell below "
        f"{100 * AVAILABILITY_FLOOR:.0f}%"
    )
    assert retry["availability"] > naive["availability"]
    assert retry["n_retries"] > 0

    overhead = (
        retry["total_cents"] / rows["baseline"]["total_cents"] - 1.0
    )
    assert overhead < OVERHEAD_CEILING, (
        f"acceptance: retry cost overhead {100 * overhead:.1f}% vs the "
        f"fault-free baseline exceeds {100 * OVERHEAD_CEILING:.0f}%"
    )

    # Determinism: a second seeded run in the same process must produce
    # the identical fault schedule and therefore an identical report.
    rerun = replay(
        trace, args.quick, fault_plan=plan, retry_policy=RETRY_POLICY
    )
    assert reliability_signature(rerun) == reliability_signature(
        reports["retry"]
    ), "acceptance: two seeded chaos replays diverged"

    print(
        f"acceptance ok: retry {100 * retry['availability']:.1f}% available "
        f"(naive {100 * naive['availability']:.1f}%) at "
        f"{100 * overhead:+.1f}% cost vs fault-free baseline; "
        f"rerun bit-identical"
    )

    results = {
        "arms": rows,
        "retry_vs_naive": {
            # Banded by check_bench_regression.py: both are
            # simulation-deterministic, higher-is-better ratios.
            "availability": retry["availability"],
            "cost_efficiency": (
                rows["baseline"]["total_cents"] / retry["total_cents"]
            ),
            "availability_gain": (
                retry["availability"] - naive["availability"]
            ),
            "overhead_vs_baseline": overhead,
        },
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
            "n_arrivals": len(trace),
            "spacing_s": SPACING_S,
            "fault_plan": plan.describe(),
            "retry_policy": RETRY_POLICY.describe(),
            "availability_floor": AVAILABILITY_FLOOR,
            "overhead_ceiling": OVERHEAD_CEILING,
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "chaos",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
