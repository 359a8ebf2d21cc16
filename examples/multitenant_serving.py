"""Two tenants, one cluster: fairness, quotas and chargeback.

A "batch" tenant fires a dense mid-day burst while an "interactive"
tenant submits sparse ad-hoc queries into the same shared
:class:`~repro.cloud.pool.ClusterPool`.  The replay runs twice -- once
under the plain FIFO grant queue (the noisy-neighbour baseline) and once
under the default weighted-fair policy with a leased-worker quota on the
batch tenant -- and prints each tenant's latency picture plus the
chargeback table that splits the pool's bill (keep-alive included).

Usage::

    python examples/multitenant_serving.py
"""

from repro import Smartpick, SmartpickProperties
from repro.cloud.pool import (
    FifoGrant,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.serving import ServingSimulator
from repro.workloads import get_query
from repro.workloads.trace import PoissonTraceGenerator

TENANTS = TenantRegistry([
    # The batch tenant pays for half the cluster at most.
    TenantSpec("batch", weight=1.0, max_leased_vms=6, max_leased_sls=12),
    # The interactive tenant is small but latency-sensitive: double
    # weight, no caps.
    TenantSpec("interactive", weight=2.0),
])

POOL = dict(max_vms=12, max_sls=24, vm_keep_alive_s=240.0,
            sl_keep_alive_s=60.0)


def build_system(seed: int = 61) -> Smartpick:
    system = Smartpick(
        SmartpickProperties(provider="AWS"), rng=seed, tenants=TENANTS
    )
    print("bootstrapping...")
    system.bootstrap(
        [get_query(q) for q in ("tpcds-q82", "tpcds-q68", "tpcds-q49")],
        n_configs_per_query=15,
    )
    return system


def build_traces(seed: int = 62):
    batch = PoissonTraceGenerator(
        query_mix={"tpcds-q49": 2.0, "tpcds-q68": 1.0},
        rate_per_minute=1.5,
        burst_factor=5.0,       # the mid-day crunch
        burst_fraction=0.3,
        rng=seed,
    ).generate(duration_minutes=30)
    interactive = PoissonTraceGenerator(
        query_mix={"tpcds-q82": 1.0},
        rate_per_minute=0.4,
        rng=seed + 1,
    ).generate(duration_minutes=30)
    return {"batch": batch, "interactive": interactive}


def main() -> None:
    traces = build_traces()
    for tenant, trace in traces.items():
        print(f"{tenant}: {len(trace)} arrivals over "
              f"{trace.duration_s / 60:.0f} minutes")

    for label, grant_policy in (
        ("plain FIFO (noisy neighbour)", FifoGrant()),
        ("weighted-fair + quotas (default)", None),
    ):
        # Fresh identically-seeded system per replay: the comparison
        # isolates the grant policy, not model drift.
        simulator = ServingSimulator(
            build_system(),
            slo_seconds=120.0,
            pool_config=PoolConfig(**POOL),
            grant_policy=grant_policy,
            decision_reuse=False,
        )
        report = simulator.replay_multi(build_traces())
        print(f"\n=== {label} ===")
        print(f"  {report.summary()}")
        for tenant in report.tenants:
            tenant_slice = report.for_tenant(tenant)
            print(
                f"  {tenant:12s} p95 {tenant_slice.latency_percentile(95):6.1f} s"
                f"   queue p99 {tenant_slice.queueing_delay_percentile(99):6.1f} s"
                f"   quota p99 {tenant_slice.quota_throttle_delay_percentile(99):5.1f} s"
                f"   SLO {100 * tenant_slice.slo_attainment:5.1f}%"
            )
        print()
        print(report.chargeback_table())


if __name__ == "__main__":
    main()
