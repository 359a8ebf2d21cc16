"""Multi-tenant shared-cluster serving: fairness, quotas, chargeback.

A hot tenant fires a dense burst into a deliberately tight shared pool
while a quiet tenant submits sparse interactive queries into the same
backlog.  The same skewed two-tenant stream is replayed under:

- **fifo** -- the plain arrival-order grant queue: the quiet tenant's
  requests drown behind the hot burst (the noisy-neighbour baseline);
- **fair** -- the default :class:`WeightedFairGrant`: grants go to the
  tenant with the least weight-normalised service, so the quiet tenant
  jumps the backlog;
- **fair+quota** -- fair grants plus a leased-worker quota on the hot
  tenant, bounding its footprint outright;
- **solo-hot / solo-quiet** -- each tenant alone on an identical pool,
  the contention-free reference points.

Acceptance shape: the weighted-fair policy bounds the quiet tenant's
p99 queueing delay strictly below plain FIFO's, every scenario's
chargeback partitions the pool's total cost (keep-alive included)
exactly, and the quota scenario's hot-tenant peak respects the quota.

Methodology: every scenario replays the same traces on a *fresh*
identically-seeded system, with event-driven retraining damped (a very
high ``errorDifference.trigger``) so scenarios differ only in the pool
policy -- a controlled comparison of the contention layer, not of model
drift.
"""

import math

import pytest

from benchmarks.conftest import banner
from repro import Smartpick, SmartpickProperties
from repro.analysis import format_table
from repro.cloud.pool import (
    FifoGrant,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.serving import ServingSimulator
from repro.workloads import get_query
from repro.workloads.trace import TraceEvent, WorkloadTrace

SLO_SECONDS = 150.0
#: Far below the burst's aggregate demand, so the grant queue decides.
TIGHT = dict(max_vms=4, max_sls=6, vm_keep_alive_s=120.0,
             sl_keep_alive_s=30.0, warm_vm_boot_s=2.0, warm_sl_boot_s=0.01)

HOT_TRACE = WorkloadTrace(events=tuple(
    TraceEvent(2.0 * i, "tpcds-q82") for i in range(10)
))
QUIET_TRACE = WorkloadTrace(events=tuple(
    TraceEvent(5.0 + 45.0 * i, "tpcds-q68") for i in range(4)
))


def _build_system(seed: int) -> Smartpick:
    system = Smartpick(
        SmartpickProperties(
            provider="AWS", relay=True, error_difference_trigger=1e9
        ),
        max_vm=12,
        max_sl=12,
        rng=seed,
    )
    system.bootstrap(
        [get_query("tpcds-q82"), get_query("tpcds-q68")],
        n_configs_per_query=12,
    )
    return system


def _registry(hot_quota: int | None = None) -> TenantRegistry:
    return TenantRegistry([
        TenantSpec(
            "hot",
            weight=1.0,
            max_leased_vms=hot_quota,
            max_leased_sls=hot_quota,
        ),
        TenantSpec("quiet", weight=1.0),
    ])


def _replay_multi(grant_policy=None, hot_quota=None, seed: int = 105):
    simulator = ServingSimulator(
        _build_system(seed),
        slo_seconds=SLO_SECONDS,
        pool_config=PoolConfig(**TIGHT),
        tenants=_registry(hot_quota),
        grant_policy=grant_policy,
        decision_reuse=False,
    )
    return simulator.replay_multi({"hot": HOT_TRACE, "quiet": QUIET_TRACE})


def _replay_solo(tenant: str, trace: WorkloadTrace, seed: int = 105):
    simulator = ServingSimulator(
        _build_system(seed),
        slo_seconds=SLO_SECONDS,
        pool_config=PoolConfig(**TIGHT),
        decision_reuse=False,
    )
    return simulator.replay_multi({tenant: trace})


def _tenant_rows(name, report):
    rows = []
    bills = report.chargeback()
    for tenant in report.tenants:
        tenant_slice = report.for_tenant(tenant)
        rows.append((
            name,
            tenant,
            tenant_slice.n_queries,
            tenant_slice.latency_percentile(50),
            tenant_slice.latency_percentile(95),
            tenant_slice.queueing_delay_percentile(99),
            tenant_slice.quota_throttle_delay_percentile(99),
            100 * tenant_slice.slo_attainment,
            100 * bills[tenant],
        ))
    return rows


def test_multitenant_serving(benchmark):
    banner(
        f"Multi-tenant serving -- hot burst ({len(HOT_TRACE)} arrivals) vs "
        f"quiet tenant ({len(QUIET_TRACE)}) on one "
        f"{TIGHT['max_vms']}VM+{TIGHT['max_sls']}SL pool (AWS)"
    )

    reports = {
        "fifo": _replay_multi(grant_policy=FifoGrant()),
        "fair": _replay_multi(),  # weighted-fair is the default
        "fair+quota": _replay_multi(hot_quota=2),
    }
    solo = {
        "solo-hot": _replay_solo("hot", HOT_TRACE),
        "solo-quiet": _replay_solo("quiet", QUIET_TRACE),
    }

    rows = []
    for name, report in {**reports, **solo}.items():
        rows.extend(_tenant_rows(name, report))
    print(format_table(
        ("scenario", "tenant", "queries", "p50_s", "p95_s", "queue_p99_s",
         "quota_p99_s", "slo_%", "bill_cents"),
        rows,
        title="\nper-tenant outcomes under contention policies",
    ))
    print()
    print(reports["fair"].chargeback_table())

    fair, fifo, quota = (
        reports["fair"], reports["fifo"], reports["fair+quota"]
    )

    # Everyone is served in every scenario (quotas delay, never drop).
    expected = len(HOT_TRACE) + len(QUIET_TRACE)
    for report in reports.values():
        assert report.n_queries == expected

    # The acceptance bar: weighted-fair bounds the quiet tenant's p99
    # queueing delay strictly below plain FIFO's.
    fair_quiet = fair.for_tenant("quiet").queueing_delay_percentile(99)
    fifo_quiet = fifo.for_tenant("quiet").queueing_delay_percentile(99)
    assert fair_quiet < fifo_quiet

    # Fairness is visible in the index too (fair >= fifo on this stream),
    # and both are well-formed.
    assert 0.5 - 1e-12 <= fifo.jain_fairness_index <= 1.0 + 1e-12
    assert 0.5 - 1e-12 <= fair.jain_fairness_index <= 1.0 + 1e-12

    # Chargeback partitions the total pool cost -- keep-alive included --
    # exactly, in every scenario.
    for name, report in {**reports, **solo}.items():
        bills = report.chargeback()
        assert math.fsum(bills.values()) == pytest.approx(
            report.total_cost_dollars, rel=1e-12, abs=1e-15
        ), name
        assert all(bill >= 0.0 for bill in bills.values())
    assert fair.keepalive_cost_dollars > 0.0  # the split had to happen

    # The leased-worker quota bounds the hot tenant's observed peak.
    vm_peak, sl_peak = quota.tenant_peaks["hot"]
    assert vm_peak <= 2 and sl_peak <= 2
    assert float(
        quota.for_tenant("hot").quota_throttle_delays.max()
    ) >= 0.0

    # Time one fair multi-tenant replay end to end.
    benchmark.pedantic(
        lambda: _replay_multi(seed=106), rounds=1, iterations=1
    )
