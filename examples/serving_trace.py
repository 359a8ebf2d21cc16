"""A day in the life: serving a bursty ad-hoc query stream.

Replays a synthetic two-hour workload trace -- Poisson arrivals of a
TPC-DS query mix with a mid-day burst and a steadily growing dataset --
through a bootstrapped Smartpick, then through VM-only and SL-only
provisioning of the same stream, and compares the bill and the SLO
attainment.  This is the deployment-scale view of the paper's claims:
agility where it matters, VM economics everywhere else.

Every replay runs inside ONE shared discrete-event simulation: arrivals
interleave, overlapping queries contend for a shared
:class:`~repro.cloud.pool.ClusterPool`, and a final warm-pool pass shows
what keep-alive does to the same stream -- warm starts instead of 31.5 s
cold boots, at the price of idle keep-alive spend.

Usage::

    python examples/serving_trace.py
"""

from repro import Smartpick, SmartpickProperties
from repro.cloud.pool import PoolConfig
from repro.core.serving import ServingSimulator
from repro.workloads import get_query
from repro.workloads.tpcds import TPCDS_TRAINING_QUERY_IDS
from repro.workloads.trace import PoissonTraceGenerator

QUERY_MIX = {
    "tpcds-q82": 4.0,   # short queries dominate ad-hoc traffic
    "tpcds-q68": 3.0,
    "tpcds-q49": 2.0,
    "tpcds-q74": 1.0,
    "tpcds-q11": 1.0,
}


def main() -> None:
    system = Smartpick(SmartpickProperties(provider="AWS"), rng=51)
    print("bootstrapping...")
    system.bootstrap(
        [get_query(q) for q in TPCDS_TRAINING_QUERY_IDS],
        n_configs_per_query=20,
    )

    trace = PoissonTraceGenerator(
        query_mix=QUERY_MIX,
        rate_per_minute=0.5,
        burst_factor=4.0,       # a mid-day peak
        burst_fraction=0.25,
        input_gb=100.0,
        final_input_gb=140.0,   # the dataset grows over the day
        rng=52,
    ).generate(duration_minutes=120)
    print(f"\ntrace: {len(trace)} arrivals over "
          f"{trace.duration_s / 60:.0f} minutes, mix {trace.query_counts()}")

    # One explicit pool wide enough that this trace never queues: the
    # cold rows then reproduce the paper's contention-free serving model,
    # and the warm row differs ONLY in keep-alive -- not in capacity.
    capacity = dict(max_vms=96, max_sls=192)
    simulator = ServingSimulator(
        system,
        slo_seconds=120.0,
        pool_config=PoolConfig(**capacity),
        decision_reuse=False,
    )
    print("\nreplaying with Smartpick (hybrid)...")
    hybrid = simulator.replay(trace)
    print(f"  {hybrid.summary()}")

    print("replaying with VM-only provisioning...")
    vm_only = simulator.replay(trace, mode="vm-only")
    print(f"  {vm_only.summary()}")

    print("replaying with SL-only provisioning...")
    sl_only = simulator.replay(trace, mode="sl-only")
    print(f"  {sl_only.summary()}")

    # Relay exists to bridge VM *cold* boots, so a warm pool makes serving
    # VM-centric: provision VM clusters and let keep-alive kill the boots.
    print("replaying VM provisioning on a warm pool (240 s keep-alive)...")
    warm_simulator = ServingSimulator(
        system,
        slo_seconds=120.0,
        pool_config=PoolConfig(
            **capacity,
            vm_keep_alive_s=240.0,
            sl_keep_alive_s=60.0,
        ),
        decision_reuse=False,
    )
    warm = warm_simulator.replay(trace, mode="vm-only")
    print(f"  {warm.summary()}")

    print("\n=== day summary ===")
    for name, report in (("hybrid", hybrid), ("vm-only", vm_only),
                         ("sl-only", sl_only), ("warm-vm", warm)):
        extra = ""
        if report.warm_start_rate > 0:
            extra = (f"   warm {100 * report.warm_start_rate:4.0f}%   "
                     f"idle {100 * report.keepalive_cost_dollars:5.2f} cents")
        print(f"  {name:8s} p95 {report.latency_percentile(95):6.1f} s   "
              f"SLO {100 * report.slo_attainment:5.1f}%   "
              f"bill {100 * report.total_cost_dollars:6.1f} cents{extra}")


if __name__ == "__main__":
    main()
