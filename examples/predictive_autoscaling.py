"""Prediction-driven autoscaling: forecasts decide what stays warm.

A "bursty" tenant submits one query every 10 seconds while a "quiet"
tenant submits one every 2.5 minutes; tenant affinity pins each to its
own shard of one shared :class:`~repro.cloud.pool.ClusterPool` (the
tenant names hash to different shards).  The
same stream replays under three keep-alive policies -- a fixed window,
the demand autoscaler (now metered per shard) and the forecast-driven
:class:`~repro.core.forecast.PredictiveKeepAlive` -- and prints each
policy's bill, warm-start rate and per-shard keep-alive spend.

The predictive policy forecasts the next-arrival gap per query class
from the serving layer's own observations and keeps a released worker
warm only when the forecast beats the break-even bound (the idle time
at which keep-alive spend equals the warm-boot discount, derived from
the provider's boot latencies and prices).  The visible effect: the
bursty shard stays warm, the quiet shard drains its keep-alive spend,
and the total bill undercuts every fixed window.

Usage::

    python examples/predictive_autoscaling.py
"""

from repro import Smartpick, SmartpickProperties
from repro.cloud.instances import InstanceKind
from repro.cloud.pool import (
    DemandAutoscaler,
    FixedKeepAlive,
    PoolConfig,
    TenantAffinityRouter,
)
from repro.core.forecast import PredictiveKeepAlive
from repro.core.serving import ServingSimulator
from repro.workloads import get_query
from repro.workloads.trace import TraceEvent, WorkloadTrace

#: VM-only shards: relay bridges serverless cold boots, so VM-heavy
#: serving is where warm-start economics are undiluted.
SHARDS = {
    "m5": PoolConfig(max_vms=10, max_sls=0),
    "c5": PoolConfig(max_vms=10, max_sls=0),
}

TRACES = {
    "bursty": WorkloadTrace(events=tuple(
        TraceEvent(10.0 * i, "tpcds-q82") for i in range(18)
    )),
    "quiet": WorkloadTrace(events=tuple(
        TraceEvent(20.0 + 150.0 * i, "tpcds-q68") for i in range(3)
    )),
}


def build_system(seed: int = 71) -> Smartpick:
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
        n_configs_per_query=8,
    )
    return system


def main() -> None:
    for tenant, trace in TRACES.items():
        print(f"{tenant}: {len(trace)} arrivals over "
              f"{trace.duration_s / 60:.1f} minutes")

    policies = {
        "fixed-120s": FixedKeepAlive(
            vm_keep_alive_s=120.0, sl_keep_alive_s=30.0
        ),
        "demand (per-shard)": DemandAutoscaler(
            window_s=120.0, headroom=2.0, max_keep_alive_s=300.0
        ),
        "predictive": PredictiveKeepAlive(headroom=3.0),
    }

    print(f"\n{'policy':20s} {'total':>8s} {'query':>8s} {'keep-alive':>11s} "
          f"{'warm':>6s} {'p95':>8s}  per-shard keep-alive")
    for name, policy in policies.items():
        # Fresh identically-seeded system per replay: the comparison
        # isolates the autoscaler, not model drift.
        report = ServingSimulator(
            build_system(),
            slo_seconds=300.0,
            shards=SHARDS,
            router=TenantAffinityRouter(),
            autoscaler=policy,
            decision_reuse=False,
        ).replay_multi(TRACES, mode="vm-only")
        shard_text = ", ".join(
            f"{shard}={100 * cost:.2f}c"
            for shard, cost in report.keepalive_cost_by_shard.items()
        )
        print(
            f"{name:20s} {100 * report.total_cost_dollars:7.2f}c "
            f"{100 * report.query_cost_dollars:7.2f}c "
            f"{100 * report.keepalive_cost_dollars:10.2f}c "
            f"{100 * report.warm_start_rate:5.1f}% "
            f"{report.latency_percentile(95):7.1f}s  [{shard_text}]"
        )

    predictive = policies["predictive"]
    forecaster = predictive.forecaster
    print("\nwhat the predictive policy sees at the end of the replay:")
    for scope in (None, *SHARDS):
        label = "global" if scope is None else f"shard {scope}"
        classes = forecaster.classes(scope=scope)
        gaps = ", ".join(
            f"{key[0]}~{forecaster.class_gap(key, scope=scope):.1f}s"
            for key in classes
        )
        print(f"  {label:12s} {gaps or '(no arrivals observed)'}")
    # The break-even bound the forecast gap is compared against comes
    # straight from the price book and boot latencies.
    print(
        "\nbreak-even idle bound (keep warm only when the next arrival "
        "is forecast within it):"
    )
    from repro.cloud.pricing import get_prices
    from repro.cloud.providers import get_provider

    provider, prices = get_provider("AWS"), get_prices("AWS")
    vm_bound = provider.vm_boot_seconds - SHARDS["m5"].warm_vm_boot_s
    sl_bound = (
        provider.sl_boot_seconds
        - SHARDS["m5"].warm_sl_boot_s
        + prices.sl_invocation / prices.sl_per_second
    )
    print(f"  {InstanceKind.VM.value}: {vm_bound:.1f}s   "
          f"{InstanceKind.SERVERLESS.value}: {sl_bound:.2f}s")


if __name__ == "__main__":
    main()
