"""Simulated public-cloud substrate.

The paper evaluates Smartpick on live AWS and GCP test-beds; offline we
substitute a simulated cloud calibrated against the paper's published
measurements (Tables 1 and 5):

- :mod:`repro.cloud.providers` -- provider performance profiles (boot
  latencies, compute/storage speed factors, variance) for AWS-like and
  GCP-like clouds, plus the sysbench-style microbenchmark that regenerates
  Table 5.
- :mod:`repro.cloud.pricing` -- the price book: per-second VM billing,
  burstable vCPU surcharges, block storage, serverless GB-seconds, and the
  external Redis host charged while serverless instances are alive.
- :mod:`repro.cloud.instances` -- VM / serverless instance lifecycle state
  machines with billing accumulators.
- :mod:`repro.cloud.pool` -- the shared-cluster :class:`ClusterPool`:
  warm instances kept alive across query lifetimes, capacity queueing
  under pluggable grant policies, and pluggable autoscaling run *per
  shard* (each :class:`PoolShard` owns its arrival meter, optional
  policy override and keep-alive cost ledger).  The forecast-driven
  :class:`~repro.core.forecast.PredictiveKeepAlive` policy lives in
  :mod:`repro.core.forecast`, next to the arrival forecaster that
  feeds it.
- :mod:`repro.cloud.storage` -- cloud object storage and external Redis
  bandwidth models.
- :mod:`repro.cloud.faults` -- deterministic, seeded fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`): SL invocation failures
  and timeouts, spot-style VM preemptions, boot failures and
  stragglers, threaded through the pool as lease revocations with a
  ``wasted_cost`` ledger and per-shard health meters.
"""

from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.instances import (
    Instance,
    InstanceKind,
    InstanceState,
    ServerlessInstance,
    VMInstance,
)
from repro.cloud.pricing import CostBreakdown, PriceBook
from repro.cloud.providers import (
    AWS_PROFILE,
    GCP_PROFILE,
    MicrobenchmarkReport,
    ProviderProfile,
    get_provider,
    run_microbenchmark,
)
from repro.cloud.pool import (
    AutoscalerPolicy,
    ClusterPool,
    DemandAutoscaler,
    FifoGrant,
    FixedKeepAlive,
    GrantPolicy,
    HealthAwareRouter,
    LeastLoadedRouter,
    NoKeepAlive,
    PoolConfig,
    PoolLease,
    PoolShard,
    PoolStats,
    ShardRouter,
    TenantAffinityRouter,
    TenantRegistry,
    TenantSpec,
    WeightedFairGrant,
)
from repro.cloud.storage import ExternalStore, ObjectStore

__all__ = [
    "AWS_PROFILE",
    "AutoscalerPolicy",
    "ClusterPool",
    "CostBreakdown",
    "DemandAutoscaler",
    "ExternalStore",
    "FaultInjector",
    "FaultPlan",
    "FifoGrant",
    "FixedKeepAlive",
    "GCP_PROFILE",
    "GrantPolicy",
    "HealthAwareRouter",
    "LeastLoadedRouter",
    "Instance",
    "InstanceKind",
    "InstanceState",
    "MicrobenchmarkReport",
    "NoKeepAlive",
    "ObjectStore",
    "PoolConfig",
    "PoolLease",
    "PoolShard",
    "PoolStats",
    "PriceBook",
    "ProviderProfile",
    "ServerlessInstance",
    "ShardRouter",
    "TenantAffinityRouter",
    "TenantRegistry",
    "TenantSpec",
    "VMInstance",
    "WeightedFairGrant",
    "get_provider",
    "run_microbenchmark",
]
