"""SLO bench: deadline-aware grants + quota-priced sizing vs fair shares.

One noisy-neighbour trace pair -- a batch hog flooding a tight pool at
2-3 s spacing while a small interactive tenant arrives every 30 s under
a latency SLO -- is replayed twice on identically seeded systems that
differ only in scheduling:

- ``fair`` -- the default :class:`WeightedFairGrant`.  Tenant SLOs are
  *measured* (per-tenant attainment against each tenant's own target)
  but play no scheduling role;
- ``slo`` -- :class:`DeadlineAwareGrant` with cooperative preemption
  plus quota-priced sizing: queued grants are ordered by remaining SLO
  slack, the batch hog's lease quota bounds its sizing grid up front
  (Eq. 4 searches the affordable candidates only), and an urgent
  interactive request may checkpoint-and-requeue a batch-tier lease.

Acceptance shape (asserted, deterministic in simulation):

- the SLO-first arm strictly **improves interactive attainment** over
  weighted-fair on the same trace;
- its **total cost stays within 15%** of the fair arm's;
- the chargeback identity holds in both arms (query + keep-alive +
  wasted == total; every forfeited preemption dollar attributed to an
  arrival);
- two back-to-back SLO-arm replays are **bit-identical** -- grant order,
  preemption points and sizing bounds are pure functions of the seeds;
- the SLO arm replayed under a bench-local policy that re-sorts the
  queue by remaining slack on *every* call reports the same value in
  every field -- the pool's per-queue-version memo of the deadline
  order changes no grant.

Results merge into ``BENCH_slo.json`` (schema v2, one slot per
``(engine, mode)``); ``interactive_attainment`` and ``cost_efficiency``
are simulation-deterministic ratios banded by
``benchmarks/check_bench_regression.py`` in CI.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_slo.py [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import Smartpick, SmartpickProperties  # noqa: E402
from repro.cloud.pool import (  # noqa: E402
    DeadlineAwareGrant,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.serving import ServingSimulator  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.workloads import get_query  # noqa: E402
from repro.workloads.trace import TraceEvent, WorkloadTrace  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_slo.json"
)

SYSTEM_SEED = 77
#: The interactive tenant's latency SLO; the batch hog is measured
#: against the replay-wide default (it has no SLO of its own).
INTERACTIVE_SLO_S = 180.0
BG_SPACING_S = 3.0
INTER_SPACING_S = 30.0
PREEMPT_SLACK_S = 120.0
BG_VM_QUOTA = 4

OVERHEAD_CEILING = 0.15


def build_traces(quick: bool) -> dict[str, WorkloadTrace]:
    n_bg, n_inter = (5, 3) if quick else (8, 4)
    bg = WorkloadTrace(events=tuple(
        TraceEvent(i * BG_SPACING_S, "tpcds-q68", input_gb=150.0)
        for i in range(n_bg)
    ))
    inter = WorkloadTrace(events=tuple(
        TraceEvent(5.0 + i * INTER_SPACING_S, "tpcds-q82", input_gb=100.0)
        for i in range(n_inter)
    ))
    return {"bg": bg, "inter": inter}


def build_system() -> Smartpick:
    system = Smartpick(
        SmartpickProperties(
            provider="AWS", relay=True, error_difference_trigger=1e9
        ),
        max_vm=8,
        max_sl=8,
        rng=SYSTEM_SEED,
    )
    system.bootstrap(
        [get_query("tpcds-q82"), get_query("tpcds-q68")],
        n_configs_per_query=6,
    )
    return system


def build_registry() -> TenantRegistry:
    return TenantRegistry([
        TenantSpec(
            "inter", slo_latency_s=INTERACTIVE_SLO_S, tier="interactive"
        ),
        TenantSpec("bg", max_leased_vms=BG_VM_QUOTA, tier="batch"),
    ])


class ReferenceSortGrant(DeadlineAwareGrant):
    """Deadline-aware grants re-sorted by slack on every call (no memo)."""

    def candidates(self, shard, pool):
        now = pool.simulator.now
        return sorted(
            shard.queue, key=lambda lease: (lease.slack_s(now), lease.seq)
        )


def replay(
    traces: dict[str, WorkloadTrace],
    slo_first: bool,
    deadline_policy: type = DeadlineAwareGrant,
):
    simulator = ServingSimulator(
        build_system(),
        pool_config=PoolConfig(max_vms=6, max_sls=8),
        tenants=build_registry(),
        grant_policy=(
            deadline_policy(preempt=True, preempt_slack_s=PREEMPT_SLACK_S)
            if slo_first
            else None  # weighted-fair is the default
        ),
        quota_priced_sizing=slo_first,
        decision_reuse=False,
    )
    return simulator.replay_multi(traces)


def row(report) -> dict:
    attainment = report.tenant_slo_attainment()
    return {
        "interactive_attainment": attainment["inter"],
        "bg_attainment": attainment["bg"],
        "jain_fairness_index": report.jain_fairness_index,
        "total_cents": 100.0 * report.total_cost_dollars,
        "query_cents": 100.0 * report.query_cost_dollars,
        "wasted_cents": 100.0 * report.wasted_cost_dollars,
        "coop_preemptions": report.pool_stats.coop_preemptions,
        "quota_deferrals": report.pool_stats.quota_deferrals,
        "inter_p100_latency_s": float(
            report.for_tenant("inter").latencies.max()
        ),
    }


def report_fields(report) -> dict:
    """Every report field; per-query records keep their simulated values
    (decision latency is host wall-clock time, not simulated)."""
    fields = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name not in ("served", "stream")
    }
    fields["served"] = [
        (
            q.arrival_s, q.tenant, q.waiting_apps_at_submit,
            q.queueing_delay_s, q.decision_batch_size, q.batching_delay_s,
            q.admission_delay_s, q.quota_delay_s, q.n_retries,
            q.retry_delay_s, q.wasted_cost_dollars,
            q.outcome.decision.config, q.outcome.cost_dollars, q.latency_s,
        )
        for q in report.served
    ]
    return fields


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

    traces = build_traces(args.quick)
    n_arrivals = sum(len(trace) for trace in traces.values())
    print(
        f"slo bench (engine={engine}, quick={args.quick}): "
        f"{len(traces['bg'])} hog arrivals every {BG_SPACING_S:g}s vs "
        f"{len(traces['inter'])} interactive arrivals under a "
        f"{INTERACTIVE_SLO_S:g}s SLO"
    )

    reports = {
        "fair": replay(traces, slo_first=False),
        "slo": replay(traces, slo_first=True),
    }
    rows = {name: row(report) for name, report in reports.items()}
    for name, metrics in rows.items():
        print(
            f"  {name:4s} interactive attainment "
            f"{100 * metrics['interactive_attainment']:5.1f}%  "
            f"total {metrics['total_cents']:7.2f}c "
            f"(wasted {metrics['wasted_cents']:.2f}c, "
            f"{metrics['coop_preemptions']} preemptions)  "
            f"Jain {metrics['jain_fairness_index']:.3f}  "
            f"inter p100 {metrics['inter_p100_latency_s']:6.1f}s"
        )

    # Chargeback identity in both arms: the bill decomposes exactly and
    # every forfeited preemption dollar is attributed to some arrival.
    for name, report in reports.items():
        assert report.n_queries == n_arrivals, name
        decomposed = (
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars
        )
        assert abs(report.total_cost_dollars - decomposed) <= 1e-12 * max(
            report.total_cost_dollars, 1.0
        ), name
        attributed = math.fsum(
            q.wasted_cost_dollars for q in report.served
        )
        assert abs(attributed - report.wasted_cost_dollars) <= 1e-9 * max(
            report.wasted_cost_dollars, 1.0
        ), name
    assert rows["fair"]["wasted_cents"] == 0.0
    assert rows["fair"]["coop_preemptions"] == 0

    # The tentpole acceptance: SLO-first scheduling strictly improves
    # interactive attainment at bounded cost overhead.
    fair, slo = rows["fair"], rows["slo"]
    assert slo["interactive_attainment"] > fair["interactive_attainment"], (
        f"acceptance: deadline-aware attainment "
        f"{100 * slo['interactive_attainment']:.1f}% does not improve on "
        f"weighted-fair {100 * fair['interactive_attainment']:.1f}%"
    )
    overhead = slo["total_cents"] / fair["total_cents"] - 1.0
    assert overhead < OVERHEAD_CEILING, (
        f"acceptance: SLO-first cost overhead {100 * overhead:.1f}% vs "
        f"the fair arm exceeds {100 * OVERHEAD_CEILING:.0f}%"
    )

    # Determinism: a second seeded run in the same process must make the
    # identical grant/preemption/sizing choices.
    rerun = replay(traces, slo_first=True)
    assert report_fields(rerun) == report_fields(reports["slo"]), (
        "acceptance: two seeded SLO-first replays diverged"
    )

    # The memoized deadline order against a per-call re-sort.
    memoized = report_fields(reports["slo"])
    resorted = report_fields(
        replay(traces, slo_first=True, deadline_policy=ReferenceSortGrant)
    )
    differing = sorted(
        name for name in memoized if memoized[name] != resorted[name]
    )
    assert not differing, (
        f"acceptance: re-sorting the grant queue on every call changed "
        f"report fields {differing}"
    )

    print(
        f"acceptance ok: interactive attainment "
        f"{100 * fair['interactive_attainment']:.1f}% -> "
        f"{100 * slo['interactive_attainment']:.1f}% at "
        f"{100 * overhead:+.1f}% cost; rerun bit-identical; "
        f"per-call re-sort field-for-field identical"
    )

    results = {
        "arms": rows,
        "slo_vs_fair": {
            # Banded by check_bench_regression.py: both are
            # simulation-deterministic, higher-is-better ratios.
            "interactive_attainment": slo["interactive_attainment"],
            "cost_efficiency": fair["total_cents"] / slo["total_cents"],
            "attainment_gain": (
                slo["interactive_attainment"]
                - fair["interactive_attainment"]
            ),
            "overhead_vs_fair": overhead,
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
            "n_arrivals": n_arrivals,
            "interactive_slo_s": INTERACTIVE_SLO_S,
            "preempt_slack_s": PREEMPT_SLACK_S,
            "bg_vm_quota": BG_VM_QUOTA,
            "overhead_ceiling": OVERHEAD_CEILING,
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "slo",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
