"""The shared-cluster pool: warm instances across query lifetimes.

The paper's evaluation gives every query a throwaway set of workers, but a
deployed Smartpick faces Section 2.1's stream of ad-hoc arrivals -- and
there, warm serverless/VM instances are the single biggest latency and
cost lever.  :class:`ClusterPool` owns VM and SL instances *across* query
lifetimes:

- A query **acquires** workers through a :class:`PoolLease`; warm
  instances are handed over after a short warm-boot delay, the remainder
  are spawned cold at the provider's full boot latency.
- Capacity is partitioned into named **shards** (per instance family, AZ,
  ...), each with its own warm set and grant queue; a pluggable
  :class:`ShardRouter` places each request, and idle shards **steal**
  queued requests from saturated ones so the pool stays work-conserving.
- When a shard's capacity is exhausted the request queues and is granted
  as earlier leases release workers.  Grant *ordering* is a pluggable
  :class:`GrantPolicy`: the default :class:`WeightedFairGrant` serves the
  tenant with the least weight-normalised service first (degenerating to
  exact FIFO with a single tenant), while :class:`FifoGrant` keeps the
  plain arrival-order queue for comparison.
- Pools are **multi-tenant**: every lease belongs to a tenant, and a
  :class:`TenantRegistry` assigns per-tenant fair-share weights and hard
  quotas (max concurrently leased VMs / SLs).  A quota-blocked request
  waits without blocking other tenants; the wait is recorded on the lease
  as ``quota_delay_s``.
- **Released** instances stay warm for a keep-alive window decided by a
  pluggable :class:`AutoscalerPolicy`; a reuse within the window cancels
  the expiry timer (via :meth:`Simulator.cancel`), otherwise the instance
  is terminated and its idle time is billed as keep-alive cost.
  Autoscaling is **per shard**: every shard carries its own arrival
  meter and may carry its own policy (``shard_autoscalers``), so a hot
  shard keeps workers warm while a drained shard terminates on release
  -- keep-alive cost is likewise accounted per shard.
- Billing is per-lease: each instance's leased interval is charged to the
  query that held it, while idle warm time accrues to the pool's
  keep-alive cost -- so shared-cluster bills stay itemised per query (and
  therefore per tenant: chargeback is bookkeeping on top of the leases).
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import itertools
import zlib
from typing import TYPE_CHECKING, Callable, Iterable

from repro.cloud.instances import (
    Instance,
    InstanceKind,
    InstanceState,
    ServerlessInstance,
    VMInstance,
)
from repro.cloud.pricing import CostBreakdown, PriceBook
from repro.cloud.providers import ProviderProfile

if TYPE_CHECKING:  # avoid a runtime cloud <-> engine import cycle
    from repro.cloud.faults import FaultInjector
    from repro.core.epochs import PoolPlan
    from repro.engine.simulator import EventHandle, Simulator

#: How long grant timestamps are retained for rate estimation; windows
#: larger than this are silently truncated to it.
_GRANT_HISTORY_RETENTION_S = 3600.0

#: The tenant every unattributed request bills to.
DEFAULT_TENANT = "default"

__all__ = [
    "AutoscalerPolicy",
    "ClusterPool",
    "DEFAULT_TENANT",
    "DeadlineAwareGrant",
    "DemandAutoscaler",
    "FifoGrant",
    "FixedKeepAlive",
    "GrantPolicy",
    "HealthAwareRouter",
    "LeastLoadedRouter",
    "NoKeepAlive",
    "PoolConfig",
    "PoolLease",
    "PoolShard",
    "PoolStats",
    "ShardRouter",
    "TENANT_TIERS",
    "TenantAffinityRouter",
    "TenantRegistry",
    "TenantSpec",
    "WeightedFairGrant",
    "capable_shards",
]


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Sizing and warm-start parameters of one shared cluster (or shard).

    Attributes
    ----------
    max_vms / max_sls:
        Hard capacity of the pool; acquire requests beyond it are clamped,
        and requests that cannot be granted from free capacity queue.
    vm_keep_alive_s / sl_keep_alive_s:
        Keep-alive window applied by the default (fixed) autoscaler when a
        worker is released.  ``0`` means terminate immediately (cold pool).
    warm_vm_boot_s / warm_sl_boot_s:
        Hand-over latency of a warm instance -- the executor re-attach
        cost, orders of magnitude below the provider's cold boot.
    """

    max_vms: int = 64
    max_sls: int = 256
    vm_keep_alive_s: float = 0.0
    sl_keep_alive_s: float = 0.0
    warm_vm_boot_s: float = 2.0
    warm_sl_boot_s: float = 0.01

    def __post_init__(self) -> None:
        if self.max_vms < 0 or self.max_sls < 0:
            raise ValueError("pool capacities must be non-negative")
        if self.max_vms + self.max_sls == 0:
            raise ValueError("the pool must have capacity for some worker")
        for name in ("vm_keep_alive_s", "sl_keep_alive_s",
                     "warm_vm_boot_s", "warm_sl_boot_s"):
            value = getattr(self, name)
            if not value >= 0.0 or value == float("inf"):
                raise ValueError(f"{name} must be finite and non-negative")


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------


#: The two service tiers SLO scheduling distinguishes.  Interactive
#: tenants hold latency SLOs and are never preemption victims; batch
#: tenants may be cooperatively preempted (checkpoint + requeue) when an
#: interactive request is about to miss its deadline.
TENANT_TIERS = ("batch", "interactive")


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's fair-share weight, hard quotas and SLO tier.

    Attributes
    ----------
    weight:
        Fair-share weight used by :class:`WeightedFairGrant`; a tenant
        with twice the weight is entitled to twice the service before it
        yields the grant queue.
    max_leased_vms / max_leased_sls:
        Hard cap on the tenant's *concurrently leased* workers across the
        whole pool (``None`` = unlimited).  Single requests larger than
        the quota are clamped to it, like pool-capacity clamping.
    max_in_flight:
        Cap on the tenant's concurrently in-flight queries.  The pool does
        not see queries, so this quota is enforced by the admission layer
        (:class:`~repro.core.serving.ServingSimulator`), not here.
    slo_latency_s:
        The tenant's end-to-end latency SLO (``None`` = no SLO).  Leases
        acquired without an explicit deadline derive one from this
        (``request time + slo_latency_s``); :class:`DeadlineAwareGrant`
        orders the queue by the remaining slack against it, and serving
        reports per-tenant attainment against it.
    tier:
        ``"interactive"`` or ``"batch"``.  Only batch-tier leases whose
        holder registered a checkpoint hook are eligible victims for
        cooperative preemption.
    """

    name: str
    weight: float = 1.0
    max_leased_vms: int | None = None
    max_leased_sls: int | None = None
    max_in_flight: int | None = None
    slo_latency_s: float | None = None
    tier: str = "batch"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.weight > 0.0 or self.weight == float("inf"):
            raise ValueError("tenant weight must be finite and positive")
        for field_name in ("max_leased_vms", "max_leased_sls"):
            value = getattr(self, field_name)
            if value is not None and value < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.slo_latency_s is not None and not self.slo_latency_s > 0.0:
            raise ValueError("slo_latency_s must be positive")
        if self.tier not in TENANT_TIERS:
            raise ValueError(
                f"tier must be one of {TENANT_TIERS}, got {self.tier!r}"
            )


class TenantRegistry:
    """The known tenants, their weights and their quotas.

    Unknown tenants resolve to an unlimited weight-1 spec, so a registry
    is never required for single-tenant use; pass ``strict=True`` to
    reject unregistered tenant names instead (a closed platform).
    """

    def __init__(
        self, tenants: Iterable[TenantSpec] = (), strict: bool = False
    ) -> None:
        self._specs: dict[str, TenantSpec] = {}
        self._default_specs: dict[str, TenantSpec] = {}
        self.strict = strict
        for spec in tenants:
            self.register(spec)

    def register(self, spec: TenantSpec) -> TenantSpec:
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> TenantSpec:
        spec = self._specs.get(name)
        if spec is None:
            if self.strict:
                raise KeyError(f"unknown tenant {name!r}")
            # Cache the implicit unlimited spec: lookups run per lease
            # on the serving hot path, and the spec is immutable.  The
            # cache is invisible to ``names`` / ``__iter__`` / ``in``,
            # so registry introspection still lists only real tenants.
            spec = self._default_specs.get(name)
            if spec is None:
                spec = self._default_specs[name] = TenantSpec(name=name)
        return spec

    def weight(self, name: str) -> float:
        return self.get(name).weight

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


# ---------------------------------------------------------------------------
# Autoscaling
# ---------------------------------------------------------------------------


class AutoscalerPolicy(abc.ABC):
    """Decides how long a released worker stays warm.

    The pool invokes :meth:`keep_alive` with the :class:`PoolShard` the
    worker is returning to, so policies can scale each shard on its own
    signal (arrival meter, warm set, config); ``shard`` stays optional
    so policies remain directly callable without one (pool-global view).
    """

    @abc.abstractmethod
    def keep_alive(
        self,
        kind: InstanceKind,
        pool: "ClusterPool",
        shard: "PoolShard | None" = None,
    ) -> float:
        """Keep-alive seconds for a ``kind`` worker released to ``shard``."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable policy name for reports."""


class FixedKeepAlive(AutoscalerPolicy):
    """Static keep-alive windows per worker kind (the config default)."""

    def __init__(self, vm_keep_alive_s: float, sl_keep_alive_s: float) -> None:
        if vm_keep_alive_s < 0 or sl_keep_alive_s < 0:
            raise ValueError("keep-alive windows must be non-negative")
        self.vm_keep_alive_s = vm_keep_alive_s
        self.sl_keep_alive_s = sl_keep_alive_s

    def keep_alive(
        self,
        kind: InstanceKind,
        pool: "ClusterPool",
        shard: "PoolShard | None" = None,
    ) -> float:
        if kind is InstanceKind.VM:
            return self.vm_keep_alive_s
        return self.sl_keep_alive_s

    def describe(self) -> str:
        return (
            f"fixed-keep-alive(vm={self.vm_keep_alive_s:g}s, "
            f"sl={self.sl_keep_alive_s:g}s)"
        )


class NoKeepAlive(FixedKeepAlive):
    """Cold pool: every release terminates immediately."""

    def __init__(self) -> None:
        super().__init__(0.0, 0.0)

    def describe(self) -> str:
        return "no-keep-alive"


class DemandAutoscaler(AutoscalerPolicy):
    """Keep-alive sized to the observed acquisition rate.

    Estimates the lease arrival rate over a sliding ``window_s`` and keeps
    released workers warm for ``headroom`` expected inter-arrival gaps
    (capped at ``max_keep_alive_s``).  Under a burst the expected gap is
    short, so instances are confidently retained for the next arrival;
    when traffic dries up the expected gap -- and the cap -- bound the
    idle spend.

    The rate is metered **per shard** when the pool supplies one: a
    worker released to a shard whose own grant stream dried up terminates
    immediately, even while another shard's burst keeps the pool-global
    rate high (the pre-per-shard behaviour, still available by calling
    the policy without a shard).
    """

    def __init__(
        self,
        window_s: float = 600.0,
        headroom: float = 3.0,
        max_keep_alive_s: float = 300.0,
    ) -> None:
        if window_s <= 0 or headroom <= 0 or max_keep_alive_s < 0:
            raise ValueError("autoscaler parameters must be positive")
        if window_s > _GRANT_HISTORY_RETENTION_S:
            raise ValueError(
                f"window_s must not exceed the grant-history retention "
                f"({_GRANT_HISTORY_RETENTION_S:g}s)"
            )
        self.window_s = window_s
        self.headroom = headroom
        self.max_keep_alive_s = max_keep_alive_s

    def keep_alive(
        self,
        kind: InstanceKind,
        pool: "ClusterPool",
        shard: "PoolShard | None" = None,
    ) -> float:
        rate = pool.recent_acquire_rate(
            self.window_s, shard=None if shard is None else shard.name
        )
        if rate <= 0.0:
            return 0.0
        return min(self.max_keep_alive_s, self.headroom / rate)

    def describe(self) -> str:
        return (
            f"demand-autoscaler(window={self.window_s:g}s, "
            f"headroom={self.headroom:g}, max={self.max_keep_alive_s:g}s)"
        )


@dataclasses.dataclass
class PoolStats:
    """Aggregate pool behaviour over one simulation."""

    cold_starts: int = 0
    warm_starts: int = 0
    #: Workers pre-booted by a :meth:`ClusterPool.apply_plan` ahead of any
    #: lease (proactive provisioning).  Not an acquisition: a pre-warmed
    #: worker that is later handed over counts as a ``warm_start`` then.
    prewarms: int = 0
    expirations: int = 0
    leases_granted: int = 0
    leases_queued: int = 0
    peak_leased_vms: int = 0
    peak_leased_sls: int = 0
    #: Queued requests granted by a shard other than the one they were
    #: routed to (work stealing keeps sharded pools work-conserving).
    work_steals: int = 0
    #: Leases that at least once waited on a tenant quota while shard
    #: capacity was otherwise available.
    quota_deferrals: int = 0
    #: Fault-injection outcomes (all zero without a fault plan): kills
    #: by cause, leases revoked mid-flight, and warm-parked workers
    #: killed outside any lease.
    preemptions: int = 0
    sl_faults: int = 0
    sl_timeouts: int = 0
    boot_failures: int = 0
    warm_kills: int = 0
    leases_revoked: int = 0
    #: Cooperative preemptions: batch-tier leases checkpointed, revoked
    #: and requeued so a deadline-pressed interactive request could be
    #: granted (distinct from fault-injected ``preemptions``).
    coop_preemptions: int = 0
    #: Exact time conservation ledger: every second of a pooled
    #: instance's life (spawn to termination) is either *leased* to a
    #: query or *idle* in a warm set, so ``instance_seconds`` equals
    #: ``leased_seconds + idle_seconds`` (up to float interval
    #: arithmetic) once the pool has shut down.
    leased_seconds: float = 0.0
    idle_seconds: float = 0.0
    instance_seconds: float = 0.0
    #: Leased seconds forfeited by revocations (a subset of
    #: ``leased_seconds`` -- the time ledger still balances; this
    #: measures how much of it bought nothing).
    wasted_seconds: float = 0.0

    @property
    def acquisitions(self) -> int:
        return self.cold_starts + self.warm_starts

    @property
    def warm_start_rate(self) -> float:
        """Fraction of worker acquisitions served from the warm set."""
        if self.acquisitions == 0:
            return 0.0
        return self.warm_starts / self.acquisitions

    @property
    def idle_fraction(self) -> float:
        """Fraction of instance lifetime spent idle in a warm set.

        ``idle_seconds / instance_seconds`` from the time-conservation
        ledger -- the keep-alive waste a predictive policy exists to
        shrink.  0 when no instance ever ran.
        """
        if self.instance_seconds <= 0.0:
            return 0.0
        return self.idle_seconds / self.instance_seconds


@dataclasses.dataclass(frozen=True, slots=True)
class BillingSegment:
    """One instance's leased interval, attributed to one query."""

    kind: InstanceKind
    start: float
    end: float
    cold: bool
    tasks_executed: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(slots=True)
class _OpenSegment:
    instance: Instance
    start: float
    cold: bool
    tasks_at_open: int
    boot_handle: EventHandle | None = None
    #: Absolute ready time for hand-overs that need no boot *event*: a
    #: warm worker granted to a holder with ``on_instance_ready=None``
    #: (a compiled plan runner) has nothing to run at boot time -- the
    #: instance is already RUNNING and the holder's timeline is local --
    #: so the pool records the would-be fire time here instead of
    #: paying a heap event per acquisition.
    ready_at: float | None = None


def _drop_holder_hooks(lease: "PoolLease") -> None:
    """Forget a finished lease's holder callbacks.

    A released or revoked lease is never granted, handed a worker or
    revoked again, so its hooks are dead.  They are bound methods of
    the holder, which keeps the lease in turn; dropping them breaks
    that cycle, so a finished query's state is freed by reference
    counting instead of waiting for the cyclic collector.
    """
    lease.on_instance_ready = None
    lease.on_granted = None
    lease.on_revoked = None
    lease.on_preempt = None


class PoolLease:
    """One query's tenancy in the pool.

    Created by :meth:`ClusterPool.acquire`; the pool fills in instances at
    grant time (which may be later than the request under saturation) and
    closes billing segments as workers are released.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        n_vm: int,
        n_sl: int,
        requested_at: float,
        on_instance_ready: Callable[[Instance, bool], None] | None,
        on_granted: Callable[["PoolLease"], None] | None = None,
        requested_vm: int | None = None,
        requested_sl: int | None = None,
        tenant: str = DEFAULT_TENANT,
        deadline_s: float | None = None,
        tier: str = "batch",
    ) -> None:
        self.seq = next(self._ids)
        self.n_vm = n_vm
        self.n_sl = n_sl
        self.requested_vm = n_vm if requested_vm is None else requested_vm
        self.requested_sl = n_sl if requested_sl is None else requested_sl
        self.requested_at = requested_at
        self.granted_at: float | None = None
        self.tenant = tenant
        #: Absolute SLO deadline the request is racing (``None`` = no
        #: deadline).  :class:`DeadlineAwareGrant` orders queued requests
        #: by the remaining slack against it.
        self.deadline_s = deadline_s
        #: The tenant's service tier at request time ("interactive" or
        #: "batch"); only batch leases are preemption victims.
        self.tier = tier
        #: Name of the shard serving the lease; routed at request time,
        #: reassigned if another shard steals the queued request.
        self.shard: str | None = None
        #: Start of the lease's *current* quota-blocked interval: it was
        #: last evaluated with shard capacity available but its tenant
        #: over quota (None = not currently quota-blocked).
        self.quota_blocked_since: float | None = None
        #: Seconds of the queueing delay attributable to tenant quotas
        #: rather than raw capacity.  Accumulated per quota-blocked
        #: interval: an interval closes when the lease is next found
        #: capacity-blocked instead (the wait is the pool's fault again)
        #: or when it is granted.
        self.quota_delay_s: float = 0.0
        self._quota_ever_blocked = False
        self.on_instance_ready = on_instance_ready
        self.on_granted = on_granted
        #: Set by the holder (e.g. the task scheduler) to be told when a
        #: fault revokes the lease mid-flight; receives the kill reason.
        self.on_revoked: Callable[[str], None] | None = None
        #: Cooperative-preemption checkpoint hook.  A holder that can
        #: suspend its work (capture in-flight task remainders and
        #: requeue) sets this; the pool calls it immediately *before*
        #: revoking the lease as a preemption victim, so the holder can
        #: checkpoint while its scheduled events are still live.  Leases
        #: without the hook are never preempted.
        self.on_preempt: Callable[[str], None] | None = None
        #: How many times this lease was cooperatively preempted (set by
        #: the pool for observability; a requeued attempt is a new lease).
        self.preempted = False
        #: Whether a fault revoked this lease before it released cleanly.
        self.revoked = False
        #: Itemised cost of the revoked attempt (forfeited into the
        #: pool's wasted-cost ledger; zero unless ``revoked``).
        self.revoked_cost = CostBreakdown()
        self.vms: list[VMInstance] = []
        self.sls: list[ServerlessInstance] = []
        self._open: dict[str, _OpenSegment] = {}
        self.segments: list[BillingSegment] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def lease_id(self) -> str:
        """Stable display identifier (derived from ``seq`` on demand)."""
        return f"lease-{self.seq:06d}"

    @property
    def is_granted(self) -> bool:
        return self.granted_at is not None

    @property
    def was_clamped(self) -> bool:
        """Whether the pool granted fewer workers than were requested.

        A clamped query executed a *different* configuration from the one
        the caller (e.g. the predictor) asked for -- consumers comparing
        predictions to outcomes should check this flag.
        """
        return (self.n_vm, self.n_sl) != (self.requested_vm, self.requested_sl)

    @property
    def queueing_delay_s(self) -> float:
        """Seconds the request waited for pool capacity (0 when instant)."""
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.requested_at

    def slack_s(self, now: float) -> float:
        """Seconds of headroom until the deadline (+inf without one)."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - now

    @property
    def active_instances(self) -> list[Instance]:
        return [segment.instance for segment in self._open.values()]

    def is_active(self, instance: Instance) -> bool:
        return instance.instance_id in self._open

    def scheduled_ready_time(self, instance: Instance) -> float | None:
        """Absolute time the instance's boot event is scheduled to fire.

        ``None`` once the boot has fired or the instance was released.
        Compiled plan runners read this at grant time to seed their
        local timelines without waiting for the boot events.
        """
        segment = self._open.get(instance.instance_id)
        if segment is None:
            return None
        if segment.boot_handle is None:
            return segment.ready_at
        if segment.boot_handle.cancelled:
            return None
        return segment.boot_handle.time

    @property
    def warm_acquisitions(self) -> int:
        warm = 0
        for s in self._open.values():
            if not s.cold:
                warm += 1
        for s in self.segments:
            if not s.cold:
                warm += 1
        return warm

    @property
    def cold_acquisitions(self) -> int:
        cold = 0
        for s in self._open.values():
            if s.cold:
                cold += 1
        for s in self.segments:
            if s.cold:
                cold += 1
        return cold

    # ------------------------------------------------------------------
    # Billing
    # ------------------------------------------------------------------

    def cost_report(
        self, query_duration: float, prices: PriceBook
    ) -> CostBreakdown:
        """Itemised bill for this lease (Section 5, "Cost estimation").

        VM intervals bill per leased second (compute + burst + storage);
        SL intervals bill per second plus the invocation fee for cold
        spawns; the external Redis host bills for the query duration when
        at least one SL served it.  Warm hand-overs carry no invocation
        fee -- the original long-running invocation simply continues.
        """
        # Scalar left-fold per field, in segment order -- bitwise equal
        # to summing per-segment breakdown objects, without allocating
        # one per segment (this runs once per completed query).
        vm_rate = prices.vm_per_second
        burst_rate = prices.vm_burst_per_second
        storage_rate = prices.vm_storage_per_second
        sl_rate = prices.sl_per_second
        report = CostBreakdown()
        used_sl = False
        for segment in self.segments:
            seconds = segment.end - segment.start
            if segment.kind is InstanceKind.VM:
                report.vm_compute += seconds * vm_rate
                report.vm_burst += seconds * burst_rate
                report.vm_storage += seconds * storage_rate
            else:
                report.sl_compute += seconds * sl_rate
                if segment.cold:
                    report.sl_invocations += prices.sl_invocation
                if segment.tasks_executed > 0:
                    used_sl = True
        if used_sl:
            report.external_store += prices.redis_charge(query_duration)
        return report


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


class PoolShard:
    """One named partition of the pool: capacity, warm set, grant queue.

    Each shard additionally owns the state per-shard autoscaling runs
    on: its own grant-time meter (``grant_times``), an optional policy
    override (``autoscaler``, ``None`` = the pool default) and its own
    keep-alive cost ledger -- so a drained shard's idle spend is
    observable in isolation from a hot one's.
    """

    __slots__ = (
        "name", "config", "warm", "leased_vms", "leased_sls", "queue",
        "queue_version", "grant_order", "autoscaler", "grant_times",
        "keepalive_cost", "fault_times", "wasted_cost",
    )

    def __init__(
        self,
        name: str,
        config: PoolConfig,
        autoscaler: "AutoscalerPolicy | None" = None,
    ) -> None:
        self.name = name
        self.config = config
        self.warm: dict[InstanceKind, dict[str, Instance]] = {
            InstanceKind.VM: {},
            InstanceKind.SERVERLESS: {},
        }
        self.leased_vms = 0
        self.leased_sls = 0
        #: Queued requests in arrival order.  Changed only through
        #: :meth:`enqueue` and :meth:`dequeue`, which bump
        #: ``queue_version`` so grant policies can memoize their order.
        self.queue: list[PoolLease] = []
        self.queue_version = 0
        #: ``(policy, queue_version, order)`` memo of the last grant
        #: policy that ordered this queue (see :meth:`GrantPolicy.memo`).
        self.grant_order: tuple | None = None
        #: Keep-alive policy override for this shard (None = pool default).
        self.autoscaler = autoscaler
        #: Grant timestamps on THIS shard (the per-shard arrival meter).
        self.grant_times: collections.deque[float] = collections.deque()
        #: Idle warm spend accrued by workers parked on this shard.
        self.keepalive_cost = CostBreakdown()
        #: Timestamps of injected kills on this shard (the health meter
        #: :class:`HealthAwareRouter` circuit-breaks on).
        self.fault_times: collections.deque[float] = collections.deque()
        #: Leased spend forfeited by revocations on this shard.
        self.wasted_cost = CostBreakdown()

    @property
    def free_vms(self) -> int:
        return self.config.max_vms - self.leased_vms

    @property
    def free_sls(self) -> int:
        return self.config.max_sls - self.leased_sls

    @property
    def warm_vms(self) -> int:
        return len(self.warm[InstanceKind.VM])

    @property
    def warm_sls(self) -> int:
        return len(self.warm[InstanceKind.SERVERLESS])

    @property
    def pending_requests(self) -> int:
        return len(self.queue)

    def fits(self, lease: PoolLease) -> bool:
        """Whether the lease can be granted from this shard's free capacity."""
        return lease.n_vm <= self.free_vms and lease.n_sl <= self.free_sls

    def enqueue(self, lease: PoolLease) -> None:
        """Queue a request behind every earlier one."""
        self.queue.append(lease)
        self.queue_version += 1

    def dequeue(self, lease: PoolLease) -> None:
        """Take a request off the queue (granted here or stolen)."""
        self.queue.remove(lease)
        self.queue_version += 1


def capable_shards(
    pool: "ClusterPool", n_vm: int, n_sl: int
) -> list[PoolShard]:
    """The shards that could hold the most of an ``(n_vm, n_sl)``
    request (capacity-wise), in declaration order.

    Every router picks among these, so a VM+SL request never homes on
    an SL-only shard that would silently drop its VMs.
    """
    shards = pool.shards
    coverage = [
        min(n_vm, shard.config.max_vms) + min(n_sl, shard.config.max_sls)
        for shard in shards
    ]
    best = max(coverage)
    return [
        shard for shard, covered in zip(shards, coverage) if covered == best
    ]


class ShardRouter(abc.ABC):
    """Places an acquire request onto one of the pool's shards."""

    @abc.abstractmethod
    def route(
        self, n_vm: int, n_sl: int, tenant: str, pool: "ClusterPool"
    ) -> str:
        """Name of the shard the request should home on."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable router name for reports."""


class LeastLoadedRouter(ShardRouter):
    """Route to the shard that can serve the most of the request, freest
    first.

    Shards are scored by how much of the (possibly capacity-clamped)
    request they could ever hold, then by current free slots; ties keep
    declaration order, so a single-shard pool routes trivially.
    """

    def route(
        self, n_vm: int, n_sl: int, tenant: str, pool: "ClusterPool"
    ) -> str:
        # ``max`` keeps the first of equal keys: declaration order.
        return max(
            capable_shards(pool, n_vm, n_sl),
            key=lambda shard: shard.free_vms + shard.free_sls,
        ).name

    def describe(self) -> str:
        return "least-loaded"


class TenantAffinityRouter(ShardRouter):
    """Pin each tenant to one shard (stable hash of the tenant name).

    Affinity concentrates a tenant's warm instances on one shard, raising
    its warm-start rate; work stealing still drains the queue when the
    home shard saturates.  With *heterogeneous* shards, affinity only
    applies among the shards that can serve the most of the request
    (capacity-wise) -- pinning a VM+SL request to an SL-only shard would
    silently drop the VMs, so incapable shards are excluded first.
    """

    def route(
        self, n_vm: int, n_sl: int, tenant: str, pool: "ClusterPool"
    ) -> str:
        capable = capable_shards(pool, n_vm, n_sl)
        index = zlib.crc32(tenant.encode("utf-8")) % len(capable)
        return capable[index].name

    def describe(self) -> str:
        return "tenant-affinity"


class HealthAwareRouter(ShardRouter):
    """Route away from shards that have been killing workers recently.

    Shards are first filtered to those that can serve the most of the
    request (like the other routers); among them, any shard whose
    injected-kill count over the trailing ``window_s`` reaches
    ``trip_threshold`` is *circuit-broken* -- excluded from routing --
    unless every capable shard is tripped, in which case the router
    degrades to the least-faulty one rather than deadlocking.  Healthy
    candidates are ranked fewest-recent-faults first, then freest.
    """

    def __init__(
        self, window_s: float = 300.0, trip_threshold: int = 3
    ) -> None:
        if window_s <= 0 or window_s > _GRANT_HISTORY_RETENTION_S:
            raise ValueError(
                "window_s must be positive and within the "
                f"{_GRANT_HISTORY_RETENTION_S:g}s fault-history retention"
            )
        if trip_threshold < 1:
            raise ValueError("trip_threshold must be at least 1")
        self.window_s = window_s
        self.trip_threshold = trip_threshold

    def route(
        self, n_vm: int, n_sl: int, tenant: str, pool: "ClusterPool"
    ) -> str:
        horizon = pool.simulator.now - self.window_s

        def recent_faults(shard: PoolShard) -> int:
            return sum(1 for t in shard.fault_times if t >= horizon)

        capable = capable_shards(pool, n_vm, n_sl)
        healthy = [s for s in capable if recent_faults(s) < self.trip_threshold]
        return max(
            healthy or capable,
            key=lambda shard: (
                -recent_faults(shard), shard.free_vms + shard.free_sls
            ),
        ).name

    def describe(self) -> str:
        return (
            f"health-aware(window={self.window_s:g}s, "
            f"trip>={self.trip_threshold})"
        )


# ---------------------------------------------------------------------------
# Grant ordering
# ---------------------------------------------------------------------------


class GrantPolicy(abc.ABC):
    """Chooses which queued request a shard grants next."""

    @abc.abstractmethod
    def candidates(
        self, shard: PoolShard, pool: "ClusterPool"
    ) -> list[PoolLease]:
        """The shard's grant-eligible queued leases, in preference order.

        Only these leases may be granted next -- by the shard itself or
        by a stealing shard -- so the ordering guarantees a policy makes
        (e.g. FIFO's arrival order) survive work stealing.

        Contract: the order may change only when the shard's queue
        changes (an :meth:`PoolShard.enqueue`/:meth:`PoolShard.dequeue`,
        which bumps ``queue_version``) or when policy state changes.  A
        policy whose order depends on the queue alone memoizes it per
        queue version (:meth:`memo`), so a pump pass costs about as much
        as the grants it makes.  The returned list may be that memo:
        callers iterate it and never mutate it.
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable policy name for reports."""

    def memo(
        self,
        shard: PoolShard,
        build: Callable[[list[PoolLease]], list[PoolLease]],
    ) -> list[PoolLease]:
        """``build(shard.queue)``, recomputed only when the queue changed."""
        memo = shard.grant_order
        if (
            memo is None
            or memo[0] is not self
            or memo[1] != shard.queue_version
        ):
            memo = shard.grant_order = (
                self, shard.queue_version, build(shard.queue)
            )
        return memo[2]

    def select(self, shard: PoolShard, pool: "ClusterPool") -> PoolLease | None:
        """The next queued lease grantable on ``shard`` (None when stuck).

        Capacity is read once per scan (nothing is granted until the scan
        returns).  A lease that does not fit closes its open quota
        interval, if it has one -- the wait is contention again.
        """
        free_vms = shard.config.max_vms - shard.leased_vms
        free_sls = shard.config.max_sls - shard.leased_sls
        for lease in self.candidates(shard, pool):
            if lease.n_vm > free_vms or lease.n_sl > free_sls:
                if lease.quota_blocked_since is not None:
                    pool._note_capacity_block(lease)
                continue
            if not pool.quota_allows(lease):
                pool._note_quota_block(lease)
                continue
            return lease
        return None


class FifoGrant(GrantPolicy):
    """Plain arrival order with head-of-line blocking (the classic queue).

    The head request blocks everything behind it -- including other
    tenants -- until capacity *and* its tenant's quota allow the grant.
    This is the pre-multi-tenant behaviour and the noisy-neighbour
    baseline the fair policy is measured against.  The order depends on
    the queue alone and costs O(1), so it is not memoized.
    """

    def candidates(
        self, shard: PoolShard, pool: "ClusterPool"
    ) -> list[PoolLease]:
        return shard.queue[:1]

    def describe(self) -> str:
        return "fifo"


def _tenant_heads(queue: list[PoolLease]) -> list[PoolLease]:
    """Each tenant's earliest queued lease, in arrival order."""
    heads: dict[str, PoolLease] = {}
    for lease in queue:  # arrival order => first seen is the head
        heads.setdefault(lease.tenant, lease)
    return list(heads.values())


class WeightedFairGrant(GrantPolicy):
    """Least weight-normalised service first (start-time fair queueing).

    Each tenant's candidate is its earliest queued request (FIFO *within*
    a tenant, so a single-tenant pool behaves exactly like
    :class:`FifoGrant`); among tenants whose candidate fits the shard and
    clears its quota, the one that has consumed the least service per
    unit weight wins, ties broken by arrival order.  Service is the
    worker count granted so far, so a hot tenant that just burned through
    the pool yields to a quiet one even under a standing backlog.

    The per-tenant heads depend on the queue alone and are memoized per
    queue version; service is policy state that every grant changes, so
    the few heads are re-sorted by it on each call.
    """

    def candidates(
        self, shard: PoolShard, pool: "ClusterPool"
    ) -> list[PoolLease]:
        return sorted(
            self.memo(shard, _tenant_heads),
            key=lambda lease: (
                pool.normalized_service(lease.tenant), lease.seq
            ),
        )

    def describe(self) -> str:
        return "weighted-fair"


def _by_deadline(queue: list[PoolLease]) -> list[PoolLease]:
    """Earliest deadline first; leases without one last, by arrival."""
    inf = float("inf")
    return sorted(
        queue,
        key=lambda lease: (
            inf if lease.deadline_s is None else lease.deadline_s,
            lease.seq,
        ),
    )


class DeadlineAwareGrant(GrantPolicy):
    """Least remaining SLO slack first (earliest-deadline-first grants).

    Queued requests are ordered by ``deadline - now``: the request
    closest to missing its SLO is granted first.  Requests without a
    deadline (no tenant SLO) sort at infinite slack, i.e. behind every
    deadlined request, in arrival order among themselves -- so with all
    SLOs unset the candidate order degenerates to exact arrival order.
    Every queued request is a candidate, so grants are first fit in that
    order: a request that does not fit does not block a later one that
    does.  That differs from :class:`FifoGrant` and from
    :class:`WeightedFairGrant`, whose candidate is each tenant's
    earliest request.

    Subtracting the common ``now`` keeps the order of the deadlines, so
    the order depends on the queue alone: it is sorted by ``(deadline,
    seq)`` and memoized per queue version instead of re-sorted on every
    call.  (Only two distinct deadlines less than one ulp of their slack
    apart could tie as slacks; this order breaks such a tie by deadline
    where a slack sort would break it by arrival.)

    With ``preempt=True`` the policy additionally authorises cooperative
    preemption: when a deadlined request's slack falls below
    ``preempt_slack_s`` and its shard cannot fit it, the pool may
    checkpoint-and-requeue a *batch-tier* granted lease whose holder
    registered an :attr:`PoolLease.on_preempt` hook, freeing capacity
    for the urgent request.  The victim's spend so far is forfeited into
    the pool's ``wasted_cost`` ledger exactly like a fault revocation,
    but the shard's health meter is left untouched (a preemption is a
    policy decision, not a fault).
    """

    def __init__(
        self, preempt: bool = False, preempt_slack_s: float = 0.0
    ) -> None:
        if preempt_slack_s < 0.0:
            raise ValueError("preempt_slack_s must be non-negative")
        self.preempt = preempt
        self.preempt_slack_s = preempt_slack_s

    def candidates(
        self, shard: PoolShard, pool: "ClusterPool"
    ) -> list[PoolLease]:
        return self.memo(shard, _by_deadline)

    def describe(self) -> str:
        if self.preempt:
            return (
                f"deadline-aware(preempt, slack<{self.preempt_slack_s:g}s)"
            )
        return "deadline-aware"


class ClusterPool:
    """Owns VM/SL instances across query lifetimes.

    Parameters
    ----------
    simulator:
        The (possibly shared) discrete-event core; boots, keep-alive
        expiries and queued grants are all events on its heap.
    provider / prices:
        Cold-boot latencies and billing rates.
    config:
        Capacity and warm-start parameters of the (single) default shard.
    autoscaler:
        Keep-alive policy; defaults to :class:`FixedKeepAlive` built from
        the config's windows (i.e. a cold pool with the default config).
    shard_autoscalers:
        Optional per-shard policy overrides ``{shard_name: policy}``;
        shards not named fall back to ``autoscaler``.  This is how a hot
        family's shard can run a predictive policy while a batch shard
        stays cold, each driven by its own arrival meter.
    shards:
        Optional explicit partitioning: ``{shard_name: PoolConfig}``.
        When given, per-shard configs govern capacity and warm-boot
        latencies and ``config`` only seeds the default autoscaler
        windows; when omitted the pool is one shard named ``"default"``.
    router:
        Shard placement policy (default :class:`LeastLoadedRouter`, which
        is trivial for a single shard).
    tenants:
        Quota/weight registry; defaults to a permissive registry where
        every tenant is unlimited with weight 1.
    grant_policy:
        Queue ordering (default :class:`WeightedFairGrant`, which is
        exactly FIFO while only one tenant is active).
    work_stealing:
        Whether idle shards may grant requests queued on other shards.
    fault_injector:
        Optional seeded :class:`~repro.cloud.faults.FaultInjector`; when
        given, hand-overs arm its fault schedule and injected kills flow
        back through :meth:`kill_instance`.  ``None`` (the default) is
        the fault-free pool, bit-for-bit identical to pre-fault
        behaviour.
    """

    def __init__(
        self,
        simulator: Simulator,
        provider: ProviderProfile,
        prices: PriceBook,
        config: PoolConfig | None = None,
        autoscaler: AutoscalerPolicy | None = None,
        shards: dict[str, PoolConfig] | None = None,
        router: ShardRouter | None = None,
        tenants: TenantRegistry | None = None,
        grant_policy: GrantPolicy | None = None,
        work_stealing: bool = True,
        shard_autoscalers: dict[str, AutoscalerPolicy] | None = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self.simulator = simulator
        self.provider = provider
        self.prices = prices
        self.config = config or PoolConfig()
        self.autoscaler = autoscaler or FixedKeepAlive(
            self.config.vm_keep_alive_s, self.config.sl_keep_alive_s
        )
        if shards:
            self._shards = {
                name: PoolShard(name, shard_config)
                for name, shard_config in shards.items()
            }
        else:
            self._shards = {"default": PoolShard("default", self.config)}
        for name, policy in (shard_autoscalers or {}).items():
            if name not in self._shards:
                raise ValueError(
                    f"shard_autoscalers names unknown shard {name!r} "
                    f"(shards: {', '.join(self._shards)})"
                )
            self._shards[name].autoscaler = policy
        self.router = router or LeastLoadedRouter()
        self.tenants = tenants or TenantRegistry()
        self.grant_policy = grant_policy or WeightedFairGrant()
        self.work_stealing = work_stealing
        self.fault_injector = fault_injector
        self.stats = PoolStats()
        self.keepalive_cost = CostBreakdown()
        self.wasted_cost = CostBreakdown()
        #: Idle spend attributable to plan-driven pre-warming (the boot
        #: interval plus the park until first hand-over or expiry).  A
        #: sub-ledger of ``keepalive_cost`` -- the chargeback identity is
        #: unchanged; this makes the planner's speculative spend visible.
        self.prewarm_cost = CostBreakdown()
        #: Pre-booting workers (plan-driven) that have not reached their
        #: warm set yet: instance id -> (instance, destination shard).
        self._prewarming: dict[str, tuple[Instance, PoolShard]] = {}
        #: Ids whose *first* idle interval should bill to ``prewarm_cost``.
        self._prewarmed_ids: set[str] = set()
        # Pool-wide leased counters, maintained incrementally alongside
        # the per-shard ones (``leased_vms`` sums shards semantically;
        # the running totals avoid the per-grant shard scan).
        self._leased_vms_total = 0
        self._leased_sls_total = 0
        #: Live reverse map: instance id -> the lease holding it.
        self._lease_by_instance: dict[str, PoolLease] = {}
        self._idle_since: dict[str, float] = {}
        self._expiry_handles: dict[str, EventHandle] = {}
        self._grant_times: collections.deque[float] = collections.deque()
        # Per-tenant accounting: currently leased (vms, sls), the peak of
        # that pair over the simulation, and total workers granted (the
        # service the fair policy normalises by weight).
        self._tenant_leased: dict[str, tuple[int, int]] = {}
        self._tenant_peaks: dict[str, tuple[int, int]] = {}
        self._tenant_service: dict[str, float] = {}
        # Re-entrancy guard for _pump: a cooperative preemption revokes a
        # lease *inside* the pump loop, and revoke_lease (and the
        # victim's synchronous re-acquire) call _pump again; the nested
        # calls just flag the outer loop to run another pass.
        self._pumping = False
        self._pump_again = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[PoolShard, ...]:
        return tuple(self._shards.values())

    @property
    def shard_names(self) -> tuple[str, ...]:
        return tuple(self._shards)

    def shard(self, name: str) -> PoolShard:
        return self._shards[name]

    @property
    def leased_vms(self) -> int:
        return self._leased_vms_total

    @property
    def leased_sls(self) -> int:
        return self._leased_sls_total

    @property
    def warm_vms(self) -> int:
        return sum(shard.warm_vms for shard in self._shards.values())

    @property
    def warm_sls(self) -> int:
        return sum(shard.warm_sls for shard in self._shards.values())

    @property
    def pending_requests(self) -> int:
        return sum(len(shard.queue) for shard in self._shards.values())

    @property
    def keepalive_cost_dollars(self) -> float:
        return self.keepalive_cost.total

    @property
    def keepalive_cost_by_shard(self) -> dict[str, float]:
        """Idle warm spend per shard (sums to the pool's keep-alive cost)."""
        return {
            name: shard.keepalive_cost.total
            for name, shard in self._shards.items()
        }

    @property
    def prewarm_cost_dollars(self) -> float:
        """Idle spend of plan-driven pre-warming (within keep-alive)."""
        return self.prewarm_cost.total

    @property
    def wasted_cost_dollars(self) -> float:
        """Leased spend forfeited by fault revocations (0 without faults)."""
        return self.wasted_cost.total

    @property
    def wasted_cost_by_shard(self) -> dict[str, float]:
        """Forfeited spend per shard (sums to the pool's wasted cost)."""
        return {
            name: shard.wasted_cost.total
            for name, shard in self._shards.items()
        }

    def runtime_factor(self, instance: Instance) -> float:
        """Task-duration multiplier for ``instance`` (straggler model)."""
        if self.fault_injector is None:
            return 1.0
        return self.fault_injector.runtime_factor(instance)

    def autoscaler_for(self, shard: PoolShard) -> AutoscalerPolicy:
        """The keep-alive policy governing one shard's releases."""
        return shard.autoscaler or self.autoscaler

    def tenant_leased(self, tenant: str) -> tuple[int, int]:
        """The tenant's currently leased ``(vms, sls)``."""
        return self._tenant_leased.get(tenant, (0, 0))

    @property
    def tenant_peaks(self) -> dict[str, tuple[int, int]]:
        """Peak concurrently leased ``(vms, sls)`` seen per tenant."""
        return dict(self._tenant_peaks)

    def normalized_service(self, tenant: str) -> float:
        """Workers granted to the tenant so far, divided by its weight."""
        return (
            self._tenant_service.get(tenant, 0.0)
            / self.tenants.weight(tenant)
        )

    def quota_allows(self, lease: PoolLease) -> bool:
        """Whether granting the lease keeps its tenant within quota."""
        spec = self.tenants.get(lease.tenant)
        if spec.max_leased_vms is None and spec.max_leased_sls is None:
            return True
        vm_used, sl_used = self.tenant_leased(lease.tenant)
        if (
            spec.max_leased_vms is not None
            and vm_used + lease.n_vm > spec.max_leased_vms
        ):
            return False
        if (
            spec.max_leased_sls is not None
            and sl_used + lease.n_sl > spec.max_leased_sls
        ):
            return False
        return True

    def recent_acquire_rate(
        self, window_s: float, shard: str | None = None
    ) -> float:
        """Lease grants per second over the trailing ``window_s``.

        With ``shard`` given, only grants served *by that shard* count --
        the per-shard arrival meter autoscalers scale each shard on.
        Non-destructive: the grant history is only pruned beyond a fixed
        retention horizon, so introspection calls with a small window
        cannot perturb an autoscaler watching a larger one.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if shard is None:
            times = self._grant_times
        else:
            if shard not in self._shards:
                raise ValueError(
                    f"unknown shard {shard!r} "
                    f"(shards: {', '.join(self._shards)})"
                )
            times = self._shards[shard].grant_times
        retention = self.simulator.now - _GRANT_HISTORY_RETENTION_S
        while times and times[0] < retention:
            times.popleft()
        horizon = self.simulator.now - window_s
        count = sum(1 for t in times if t >= horizon)
        return count / window_s

    def describe(self) -> str:
        if len(self._shards) == 1:
            shard = next(iter(self._shards.values()))
            capacity = f"max={shard.config.max_vms}VM+{shard.config.max_sls}SL"
        else:
            capacity = (
                f"{len(self._shards)} shards "
                f"[{', '.join(self._shards)}], {self.router.describe()}"
            )
        autoscaling = self.autoscaler.describe()
        overridden = [
            shard.name
            for shard in self._shards.values()
            if shard.autoscaler is not None
        ]
        if overridden:
            autoscaling += f" + per-shard overrides [{', '.join(overridden)}]"
        return (
            f"ClusterPool({capacity}, {self.grant_policy.describe()} grants, "
            f"{autoscaling})"
        )

    # ------------------------------------------------------------------
    # Acquire
    # ------------------------------------------------------------------

    def acquire(
        self,
        n_vm: int,
        n_sl: int,
        on_instance_ready: Callable[[Instance, bool], None],
        on_granted: Callable[[PoolLease], None] | None = None,
        tenant: str = DEFAULT_TENANT,
        deadline_s: float | None = None,
    ) -> PoolLease:
        """Request ``n_vm`` VMs plus ``n_sl`` SLs for one query.

        The request is routed to a shard and clamped to the smaller of
        the shard's capacity and the tenant's quota.  When the shard has
        no backlog, free capacity and quota headroom, the lease is
        granted synchronously; otherwise it queues on the shard and is
        granted by the pool's :class:`GrantPolicy` (or stolen by an idle
        shard) as capacity frees up.  Per ready worker,
        ``on_instance_ready(instance, warm)`` fires after the (warm or
        cold) boot; ``on_granted(lease)`` fires once at grant time, after
        the lease's instance lists are filled.

        ``deadline_s`` is the absolute SLO deadline the request races
        (used by :class:`DeadlineAwareGrant`); when ``None`` and the
        tenant's spec carries ``slo_latency_s``, the deadline defaults to
        ``now + slo_latency_s``.  Callers that know the query's true
        arrival time (the serving layer, where admission and batching
        delays precede the pool request) pass it explicitly.
        """
        return self.acquire_many([
            (n_vm, n_sl, on_instance_ready, on_granted, tenant, deadline_s)
        ])[0]

    def acquire_many(
        self,
        requests: "list[tuple]",
    ) -> list[PoolLease]:
        """Grant a whole group's leases in one pass over shard state.

        ``requests`` is a list of ``(n_vm, n_sl, on_instance_ready,
        on_granted, tenant, deadline_s)`` tuples -- the arguments of
        :meth:`acquire`, which is this call with one request -- processed
        in order: grant-policy ordering, quotas, work stealing and fault
        arming are all event-exact, since each grant/queue decision
        observes the pool state left by the previous one.  What the batch
        saves is the per-request routing and tenant-spec lookups: a
        single-shard pool skips the router (every router returns a
        one-shard pool's only shard), and tenant specs are resolved once
        per distinct tenant.  The vectorized submission core leases each
        sizing group through this in one call.
        """
        single: PoolShard | None = None
        if len(self._shards) == 1:
            single = next(iter(self._shards.values()))
        specs: dict[str, TenantSpec] = {}
        leases: list[PoolLease] = []
        for (n_vm, n_sl, on_instance_ready, on_granted, tenant,
             deadline_s) in requests:
            if n_vm < 0 or n_sl < 0:
                raise ValueError("instance counts must be non-negative")
            if n_vm + n_sl == 0:
                raise ValueError("at least one instance is required")
            spec = specs.get(tenant)
            if spec is None:
                spec = specs[tenant] = self.tenants.get(tenant)
            if single is not None:
                shard = single
            else:
                shard = self._shards[
                    self.router.route(n_vm, n_sl, tenant, self)
                ]
            leases.append(
                self._acquire_on(
                    shard, spec, n_vm, n_sl, on_instance_ready,
                    on_granted, tenant, deadline_s,
                )
            )
        return leases

    def _acquire_on(
        self,
        shard: PoolShard,
        spec: "TenantSpec",
        n_vm: int,
        n_sl: int,
        on_instance_ready: Callable[[Instance, bool], None],
        on_granted: Callable[[PoolLease], None] | None,
        tenant: str,
        deadline_s: float | None,
    ) -> PoolLease:
        clamped_vm = min(n_vm, shard.config.max_vms)
        clamped_sl = min(n_sl, shard.config.max_sls)
        if spec.max_leased_vms is not None:
            clamped_vm = min(clamped_vm, spec.max_leased_vms)
        if spec.max_leased_sls is not None:
            clamped_sl = min(clamped_sl, spec.max_leased_sls)
        if clamped_vm + clamped_sl == 0:
            raise ValueError(
                f"shard {shard.name!r} has no capacity (or tenant "
                f"{tenant!r} no quota) for a ({n_vm} VM, {n_sl} SL) "
                f"request (shard max {shard.config.max_vms} VM, "
                f"{shard.config.max_sls} SL)"
            )
        if deadline_s is None and spec.slo_latency_s is not None:
            deadline_s = self.simulator.now + spec.slo_latency_s
        lease = PoolLease(
            n_vm=clamped_vm,
            n_sl=clamped_sl,
            requested_at=self.simulator.now,
            on_instance_ready=on_instance_ready,
            on_granted=on_granted,
            requested_vm=n_vm,
            requested_sl=n_sl,
            tenant=tenant,
            deadline_s=deadline_s,
            tier=spec.tier,
        )
        lease.shard = shard.name
        if not shard.queue and shard.fits(lease) and self.quota_allows(lease):
            self._grant(lease, shard)
        else:
            if shard.fits(lease) and not self.quota_allows(lease):
                self._note_quota_block(lease)
            shard.enqueue(lease)
            # Another shard may be able to serve the request right away
            # (work stealing); only count the lease as queued when it is
            # still waiting after that, so leases_queued keeps meaning
            # "waited for a later event".
            self._pump()
            if not lease.is_granted:
                self.stats.leases_queued += 1
        return lease

    def _note_quota_block(self, lease: PoolLease) -> None:
        """Record that the lease is waiting on quota, not capacity.

        Interval-exactness audit: ``quota_blocked_since`` is stamped only
        when no interval is open (``None``), and both closers
        (:meth:`_note_capacity_block` and :meth:`_grant`) add the open
        interval to ``quota_delay_s`` exactly once and clear the stamp in
        the same step -- so a lease that blocks, unblocks and re-blocks
        accumulates each blocked interval exactly once, never twice.
        Re-noting an already-open block at a later timestamp is a no-op
        by design: the interval start must stay the *first* instant the
        lease was found quota-blocked.
        """
        if lease.quota_blocked_since is None:
            lease.quota_blocked_since = self.simulator.now
        if not lease._quota_ever_blocked:
            lease._quota_ever_blocked = True
            self.stats.quota_deferrals += 1

    def _note_capacity_block(self, lease: PoolLease) -> None:
        """Close an open quota-blocked interval: capacity ran out again,
        so the wait from here on is contention, not the quota."""
        if lease.quota_blocked_since is not None:
            lease.quota_delay_s += (
                self.simulator.now - lease.quota_blocked_since
            )
            lease.quota_blocked_since = None

    def _grant(self, lease: PoolLease, shard: PoolShard) -> None:
        now = self.simulator.now
        lease.granted_at = now
        lease.shard = shard.name
        if lease.quota_blocked_since is not None:
            lease.quota_delay_s += now - lease.quota_blocked_since
            lease.quota_blocked_since = None
        self.stats.leases_granted += 1
        # Append-side pruning keeps the meters bounded even under
        # policies that never read the rate (fixed, predictive).
        retention = now - _GRANT_HISTORY_RETENTION_S
        for times in (self._grant_times, shard.grant_times):
            while times and times[0] < retention:
                times.popleft()
            times.append(now)
        n_vm = lease.n_vm
        n_sl = lease.n_sl
        for _ in range(n_vm):
            lease.vms.append(self._hand_over(lease, InstanceKind.VM, shard))
        for _ in range(n_sl):
            lease.sls.append(
                self._hand_over(lease, InstanceKind.SERVERLESS, shard)
            )
        shard.leased_vms += n_vm
        shard.leased_sls += n_sl
        self._leased_vms_total += n_vm
        self._leased_sls_total += n_sl
        tenant = lease.tenant
        vm_used, sl_used = self._tenant_leased.get(tenant, (0, 0))
        vm_used += n_vm
        sl_used += n_sl
        self._tenant_leased[tenant] = (vm_used, sl_used)
        peak_vm, peak_sl = self._tenant_peaks.get(tenant, (0, 0))
        if vm_used > peak_vm:
            peak_vm = vm_used
        if sl_used > peak_sl:
            peak_sl = sl_used
        self._tenant_peaks[tenant] = (peak_vm, peak_sl)
        self._tenant_service[tenant] = (
            self._tenant_service.get(tenant, 0.0) + n_vm + n_sl
        )
        stats = self.stats
        if self._leased_vms_total > stats.peak_leased_vms:
            stats.peak_leased_vms = self._leased_vms_total
        if self._leased_sls_total > stats.peak_leased_sls:
            stats.peak_leased_sls = self._leased_sls_total
        if lease.on_granted is not None:
            lease.on_granted(lease)

    def _hand_over(
        self, lease: PoolLease, kind: InstanceKind, shard: PoolShard
    ) -> Instance:
        """Reuse a warm instance (LIFO, warmest first) or spawn cold."""
        now = self.simulator.now
        warm_set = shard.warm[kind]
        if warm_set:
            _, instance = warm_set.popitem()
            self._end_idle(instance, now, shard)
            self.stats.warm_starts += 1
            cold = False
            boot = (
                shard.config.warm_vm_boot_s
                if kind is InstanceKind.VM
                else shard.config.warm_sl_boot_s
            )
        else:
            if kind is InstanceKind.VM:
                instance = VMInstance.create(spawn_time=now)
                boot = self.provider.vm_boot_seconds
            else:
                instance = ServerlessInstance.create(spawn_time=now)
                boot = self.provider.sl_boot_seconds
            instance.transition(InstanceState.BOOTING, now)
            self.stats.cold_starts += 1
            cold = True
        segment = _OpenSegment(
            instance=instance,
            start=now,
            cold=cold,
            tasks_at_open=instance.tasks_executed,
        )
        lease._open[instance.instance_id] = segment
        self._lease_by_instance[instance.instance_id] = lease
        if lease.on_instance_ready is None and not cold:
            # A warm worker for an eventless holder (compiled plan
            # runner): the instance is already RUNNING and nothing
            # observes the hand-over instant, so skip the boot event
            # and record its would-be fire time for
            # ``scheduled_ready_time``.  Cold boots keep the event --
            # it owns the BOOTING->RUNNING transition.
            segment.ready_at = now + boot
        else:
            segment.boot_handle = self.simulator.schedule(
                boot, lambda: self._finish_boot(lease, segment)
            )
        if self.fault_injector is not None and self.fault_injector.active:
            self.fault_injector.on_hand_over(
                self, lease, shard, instance, cold, boot
            )
        return instance

    def _finish_boot(self, lease: PoolLease, segment: _OpenSegment) -> None:
        instance = segment.instance
        if not lease.is_active(instance):
            return  # released (or the query completed) before hand-over
        if instance.state is InstanceState.BOOTING:
            instance.transition(InstanceState.RUNNING, self.simulator.now)
        if lease.on_instance_ready is not None:
            lease.on_instance_ready(instance, not segment.cold)

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release_instance(self, lease: PoolLease, instance: Instance) -> None:
        """Return one worker to the pool and close its billing segment."""
        segment = lease._open.pop(instance.instance_id, None)
        if segment is None:
            raise ValueError(
                f"{instance.instance_id} is not leased by {lease.lease_id}"
            )
        assert lease.shard is not None
        shard = self._shards[lease.shard]
        now = self.simulator.now
        self._lease_by_instance.pop(instance.instance_id, None)
        if segment.boot_handle is not None:
            self.simulator.cancel(segment.boot_handle)
        lease.segments.append(
            BillingSegment(
                kind=instance.kind,
                start=segment.start,
                end=now,
                cold=segment.cold,
                tasks_executed=instance.tasks_executed - segment.tasks_at_open,
            )
        )
        self.stats.leased_seconds += now - segment.start
        vm_used, sl_used = self.tenant_leased(lease.tenant)
        if instance.kind is InstanceKind.VM:
            shard.leased_vms -= 1
            self._leased_vms_total -= 1
            vm_used -= 1
        else:
            shard.leased_sls -= 1
            self._leased_sls_total -= 1
            sl_used -= 1
        self._tenant_leased[lease.tenant] = (vm_used, sl_used)

        if instance.state is InstanceState.BOOTING:
            # Released before the cold boot completed -- a half-booted
            # executor cannot be parked.  (A *warm* instance released
            # mid-re-attach is RUNNING and stays eligible for parking;
            # its stale hand-over event no-ops via the lease guard.)
            self._terminate(instance, now)
        else:
            policy = self.autoscaler_for(shard)
            keep_alive = policy.keep_alive(instance.kind, self, shard)
            if keep_alive > 0.0:
                self._park(instance, keep_alive, now, shard)
            else:
                self._terminate(instance, now)
        self._pump()

    def release(self, lease: PoolLease) -> None:
        """Release every worker the lease still holds.

        The holder is done with the lease, so it stops being a
        cooperative-preemption target *before* any capacity frees up:
        each ``release_instance`` pumps the grant queue, and a pump
        mid-teardown must not pick this very lease as a victim (its
        attempt has nothing left to checkpoint, and revoking it would
        forfeit a finished query's spend as wasted).
        """
        lease.on_preempt = None
        for instance in list(lease.active_instances):
            if lease.is_active(instance):
                self.release_instance(lease, instance)
        if lease.is_granted:
            _drop_holder_hooks(lease)

    def cancel_pending_boot(self, lease: PoolLease, instance: Instance) -> None:
        """Cancel an instance's not-yet-fired boot event.

        Used by compiled plan runners for workers whose computed release
        precedes (or exactly ties) their own boot: cancelling at grant
        time guarantees the release observes a still-BOOTING instance,
        matching the event engine's retire-before-hand-over ordering
        even when both land on the same timestamp.  Harmless if the
        handle already fired or was cancelled.
        """
        segment = lease._open.get(instance.instance_id)
        if segment is not None and segment.boot_handle is not None:
            self.simulator.cancel(segment.boot_handle)

    # ------------------------------------------------------------------
    # Epoch planning
    # ------------------------------------------------------------------

    def apply_plan(self, plan: "PoolPlan") -> None:
        """Re-shape the pool to a :class:`~repro.core.epochs.PoolPlan`.

        Applied at epoch boundaries by the serving loop.  Safety
        contract, regardless of what the plan asks for:

        - **Leased workers are never killed.**  A shrink target below a
          shard's currently leased count is clamped up to it; capacity
          drains as leases release (their grants simply stop).
        - **A worker kind a shard supports stays servable.**  Targets
          are floored at one worker for any kind with nonzero baseline
          capacity, so in-flight request shapes cannot be stranded.
        - **Quotas are untouched.**  Pre-boots are tenant-less and grant
          admission still runs through :meth:`quota_allows`; growing
          capacity never lets a tenant exceed its quota.
        - **Pre-boots bill to the keep-alive ledger** (and the
          ``prewarm_cost`` sub-ledger): their boot interval is *idle*
          time, so the time-conservation ledger still balances.

        Warm workers parked beyond a shrunken capacity are expired
        immediately (their idle spend accrues as usual).  Pre-warm
        requests are clamped to the shard's free headroom (capacity
        minus leased, warm and already-booting pre-warms).
        """
        now = self.simulator.now
        for name, (target_vms, target_sls) in sorted(
            plan.shard_capacity.items()
        ):
            shard = self._shard_for_plan(name)
            floor_vms = max(
                shard.leased_vms, 1 if shard.config.max_vms > 0 else 0
            )
            floor_sls = max(
                shard.leased_sls, 1 if shard.config.max_sls > 0 else 0
            )
            new_vms = max(int(target_vms), floor_vms)
            new_sls = max(int(target_sls), floor_sls)
            if (new_vms, new_sls) != (
                shard.config.max_vms, shard.config.max_sls
            ):
                shard.config = dataclasses.replace(
                    shard.config, max_vms=new_vms, max_sls=new_sls
                )
            for kind, leased, cap in (
                (InstanceKind.VM, shard.leased_vms, new_vms),
                (InstanceKind.SERVERLESS, shard.leased_sls, new_sls),
            ):
                warm_set = shard.warm[kind]
                excess = (
                    leased + len(warm_set)
                    + self._prewarming_count(shard, kind) - cap
                )
                while excess > 0 and warm_set:
                    # Evict coldest-first (insertion order): the LIFO
                    # warm set hands over from the other end.
                    oldest = next(iter(warm_set))
                    instance = warm_set.pop(oldest)
                    self._end_idle(instance, now, shard)
                    self._terminate(instance, now)
                    self.stats.expirations += 1
                    excess -= 1
        for name, (n_vm, n_sl) in sorted(plan.prewarm.items()):
            shard = self._shard_for_plan(name)
            keep_alive = float(plan.prewarm_keep_alive_s)
            if keep_alive <= 0.0:
                raise ValueError("prewarm_keep_alive_s must be positive")
            for kind, wanted in (
                (InstanceKind.VM, n_vm), (InstanceKind.SERVERLESS, n_sl)
            ):
                cap = (
                    shard.config.max_vms
                    if kind is InstanceKind.VM
                    else shard.config.max_sls
                )
                leased = (
                    shard.leased_vms
                    if kind is InstanceKind.VM
                    else shard.leased_sls
                )
                headroom = (
                    cap - leased - len(shard.warm[kind])
                    - self._prewarming_count(shard, kind)
                )
                for _ in range(min(int(wanted), max(headroom, 0))):
                    self._prewarm_one(kind, shard, keep_alive)
        if plan.grant_policy is not None:
            self.grant_policy = plan.grant_policy
        for name, policy in (plan.shard_autoscalers or {}).items():
            self._shard_for_plan(name).autoscaler = policy
        self._pump()

    def _shard_for_plan(self, name: str) -> PoolShard:
        shard = self._shards.get(name)
        if shard is None:
            raise ValueError(
                f"plan names unknown shard {name!r} "
                f"(shards: {', '.join(self._shards)})"
            )
        return shard

    def _prewarming_count(self, shard: PoolShard, kind: InstanceKind) -> int:
        return sum(
            1
            for instance, dest in self._prewarming.values()
            if dest is shard and instance.kind is kind
        )

    def _prewarm_one(
        self, kind: InstanceKind, shard: PoolShard, keep_alive: float
    ) -> None:
        """Cold-boot one worker straight into ``shard``'s warm set.

        The boot interval is stamped idle from spawn, so the whole
        speculative life bills to the keep-alive ledger (never a query)
        and the time-conservation ledger balances.  Not a cold start:
        acquisition counters track lease hand-overs only.
        """
        now = self.simulator.now
        if kind is InstanceKind.VM:
            instance: Instance = VMInstance.create(spawn_time=now)
            boot = self.provider.vm_boot_seconds
        else:
            instance = ServerlessInstance.create(spawn_time=now)
            boot = self.provider.sl_boot_seconds
        instance.transition(InstanceState.BOOTING, now)
        self.stats.prewarms += 1
        self._idle_since[instance.instance_id] = now
        self._prewarmed_ids.add(instance.instance_id)
        self._prewarming[instance.instance_id] = (instance, shard)
        self.simulator.schedule(
            boot, lambda: self._finish_prewarm(instance, shard, keep_alive)
        )

    def _finish_prewarm(
        self, instance: Instance, shard: PoolShard, keep_alive: float
    ) -> None:
        if self._prewarming.pop(instance.instance_id, None) is None:
            return  # killed or shut down before the boot completed
        now = self.simulator.now
        instance.transition(InstanceState.RUNNING, now)
        shard.warm[instance.kind][instance.instance_id] = instance
        # _idle_since keeps the spawn stamp: boot time bills as idle.
        self._expiry_handles[instance.instance_id] = self.simulator.schedule(
            keep_alive, lambda: self._expire(instance, shard)
        )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    _FAULT_COUNTERS = {
        "preempted": "preemptions",
        "sl-fault": "sl_faults",
        "sl-timeout": "sl_timeouts",
        "boot-failure": "boot_failures",
    }

    def kill_instance(self, instance: Instance, reason: str) -> None:
        """An injected fault killed ``instance``; classify and account.

        A leased worker's death revokes the whole lease (the query
        attempt cannot complete on a partial worker set); a warm-parked
        worker is simply removed and terminated (a ``warm_kill``).
        Already-terminated instances are ignored, so stale kill events
        are harmless.
        """
        if instance.state is InstanceState.TERMINATED:
            return
        lease = self._lease_by_instance.get(instance.instance_id)
        if lease is not None and lease.is_active(instance):
            self.revoke_lease(lease, reason, dead_instance=instance)
            return
        now = self.simulator.now
        prewarming = self._prewarming.pop(instance.instance_id, None)
        if prewarming is not None:
            # A plan-driven pre-boot killed before reaching its warm set:
            # account like a warm kill (it was never leased).
            _, shard = prewarming
            self._end_idle(instance, now, shard)
            self._terminate(instance, now)
            self.stats.warm_kills += 1
            self._count_fault(reason)
            self._note_shard_fault(shard)
            return
        for shard in self._shards.values():
            if shard.warm[instance.kind].pop(
                instance.instance_id, None
            ) is not None:
                self._end_idle(instance, now, shard)
                self._terminate(instance, now)
                self.stats.warm_kills += 1
                self._count_fault(reason)
                self._note_shard_fault(shard)
                return
        # Neither leased nor warm (e.g. mid-release edge): terminate only.
        self._terminate(instance, now)
        self._count_fault(reason)

    def revoke_lease(
        self,
        lease: PoolLease,
        reason: str,
        dead_instance: Instance | None = None,
        note_fault: bool = True,
    ) -> None:
        """Tear a lease down mid-flight, forfeiting its spend.

        Every billing segment the attempt accumulated -- closed ones and
        the open partials cut at *now* -- moves into the pool's (and
        shard's) ``wasted_cost`` ledger instead of ever reaching a query
        bill; the time-conservation ledger still holds because the open
        partials accrue ``leased_seconds`` exactly as a clean release
        would.  ``dead_instance`` (the fault's victim) is terminated;
        surviving workers go back through the autoscaler like a normal
        release (the *workers* are fine -- the attempt is not).  The
        holder is told last, via ``lease.on_revoked(reason)``, after all
        pool state is consistent.

        ``note_fault=False`` skips the fault classification and the
        shard's health meter: a cooperative preemption forfeits spend
        through the same ledgers but is a scheduling decision, not a
        shard fault, so :class:`HealthAwareRouter` must not trip on it.
        """
        if not lease.is_granted or lease.revoked:
            return
        assert lease.shard is not None
        shard = self._shards[lease.shard]
        now = self.simulator.now
        lease.revoked = True
        forfeited = CostBreakdown()
        wasted_seconds = 0.0
        for segment in lease.segments:
            forfeited = forfeited + self._segment_cost(
                segment.kind, segment.seconds, segment.cold
            )
            wasted_seconds += segment.seconds
        lease.segments.clear()
        vm_used, sl_used = self.tenant_leased(lease.tenant)
        for open_segment in list(lease._open.values()):
            instance = open_segment.instance
            lease._open.pop(instance.instance_id, None)
            self._lease_by_instance.pop(instance.instance_id, None)
            if open_segment.boot_handle is not None:
                self.simulator.cancel(open_segment.boot_handle)
            held = now - open_segment.start
            self.stats.leased_seconds += held
            wasted_seconds += held
            forfeited = forfeited + self._segment_cost(
                instance.kind, held, open_segment.cold
            )
            if instance.kind is InstanceKind.VM:
                shard.leased_vms -= 1
                self._leased_vms_total -= 1
                vm_used -= 1
            else:
                shard.leased_sls -= 1
                self._leased_sls_total -= 1
                sl_used -= 1
            if (
                instance is dead_instance
                or instance.state is InstanceState.BOOTING
            ):
                # The victim, and any half-booted survivor (which cannot
                # be parked), terminate.
                self._terminate(instance, now)
            else:
                policy = self.autoscaler_for(shard)
                keep_alive = policy.keep_alive(instance.kind, self, shard)
                if keep_alive > 0.0:
                    self._park(instance, keep_alive, now, shard)
                else:
                    self._terminate(instance, now)
        self._tenant_leased[lease.tenant] = (vm_used, sl_used)
        lease.revoked_cost = forfeited
        self.wasted_cost.accrue(forfeited)
        shard.wasted_cost.accrue(forfeited)
        self.stats.wasted_seconds += wasted_seconds
        self.stats.leases_revoked += 1
        if note_fault:
            self._count_fault(reason)
            self._note_shard_fault(shard)
        if lease.on_revoked is not None:
            lease.on_revoked(reason)
        _drop_holder_hooks(lease)
        self._pump()

    def _segment_cost(
        self, kind: InstanceKind, seconds: float, cold: bool
    ) -> CostBreakdown:
        if kind is InstanceKind.VM:
            return self.prices.vm_breakdown(seconds)
        return self.prices.sl_breakdown(
            seconds, invocations=1 if cold else 0
        )

    def _count_fault(self, reason: str) -> None:
        counter = self._FAULT_COUNTERS.get(reason)
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _note_shard_fault(self, shard: PoolShard) -> None:
        now = self.simulator.now
        times = shard.fault_times
        retention = now - _GRANT_HISTORY_RETENTION_S
        while times and times[0] < retention:
            times.popleft()
        times.append(now)

    def _park(
        self,
        instance: Instance,
        keep_alive: float,
        now: float,
        shard: PoolShard,
    ) -> None:
        shard.warm[instance.kind][instance.instance_id] = instance
        self._idle_since[instance.instance_id] = now
        self._expiry_handles[instance.instance_id] = self.simulator.schedule(
            keep_alive, lambda: self._expire(instance, shard)
        )

    def _expire(self, instance: Instance, shard: PoolShard) -> None:
        if shard.warm[instance.kind].pop(instance.instance_id, None) is None:
            return  # reused before the (stale) expiry fired
        now = self.simulator.now
        self._end_idle(instance, now, shard)
        self._terminate(instance, now)
        self.stats.expirations += 1

    def _end_idle(self, instance: Instance, now: float, shard: PoolShard) -> None:
        """Close an idle interval, accruing its keep-alive cost.

        The spend lands both on the pool total and on the shard the
        worker was parked on, so drained shards are auditable in
        isolation.
        """
        handle = self._expiry_handles.pop(instance.instance_id, None)
        if handle is not None:
            self.simulator.cancel(handle)
        idle_since = self._idle_since.pop(instance.instance_id, None)
        if idle_since is None:
            return
        idle = max(now - idle_since, 0.0)
        if instance.kind is InstanceKind.VM:
            idle_cost = self.prices.vm_breakdown(idle)
        else:
            idle_cost = self.prices.sl_breakdown(idle, invocations=0)
        self.keepalive_cost.accrue(idle_cost)
        shard.keepalive_cost.accrue(idle_cost)
        if instance.instance_id in self._prewarmed_ids:
            # First idle interval of a plan-driven pre-boot: also bill
            # the planner's speculative sub-ledger (once -- a later
            # re-park of the same worker is ordinary keep-alive).
            self._prewarmed_ids.discard(instance.instance_id)
            self.prewarm_cost.accrue(idle_cost)
        self.stats.idle_seconds += idle

    def _terminate(self, instance: Instance, now: float) -> None:
        if instance.state is not InstanceState.TERMINATED:
            instance.transition(InstanceState.TERMINATED, now)
            self.stats.instance_seconds += max(
                now - instance.spawn_time, 0.0
            )
            if self.fault_injector is not None:
                self.fault_injector.forget(instance)

    def _pump(self) -> None:
        """Grant queued requests while any shard can make progress.

        Re-entrant calls (a preemption's revoke, or a holder re-acquiring
        from inside its revocation callback) only flag the outer loop to
        run another full pass, so grant ordering stays a property of one
        loop rather than of the callback nesting.
        """
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            while True:
                self._pump_again = False
                self._pump_once()
                if not self._pump_again:
                    break
        finally:
            self._pumping = False

    def _pump_once(self) -> None:
        """One pump pass: grants, then work stealing, then preemption.

        Each round serves every shard's own queue through the grant
        policy, then lets shards with leftover free capacity steal queued
        requests homed elsewhere; rounds repeat until a full pass grants
        nothing.  Every grant consumes capacity, so the loop terminates.
        A preemption-enabled grant policy then gets one chance to evict
        a batch-tier lease for a deadline-pressed request that the round
        could not serve.
        """
        for shard in self._shards.values():
            if shard.queue:
                break
        else:
            return  # nothing queued anywhere: the common steady state
        progressed = True
        while progressed:
            progressed = False
            for shard in self._shards.values():
                while True:
                    lease = self.grant_policy.select(shard, self)
                    if lease is None:
                        break
                    shard.dequeue(lease)
                    self._grant(lease, shard)
                    progressed = True
            if not self.work_stealing:
                continue
            for thief in self._shards.values():
                if thief.free_vms <= 0 and thief.free_sls <= 0:
                    continue
                lease = self._steal_candidate(thief)
                if lease is not None:
                    assert lease.shard is not None
                    self._shards[lease.shard].dequeue(lease)
                    self.stats.work_steals += 1
                    self._grant(lease, thief)
                    progressed = True
        if getattr(self.grant_policy, "preempt", False):
            self._try_preempt()

    def _try_preempt(self) -> None:
        """Evict one batch-tier lease for a deadline-pressed request.

        For each shard, the most urgent queued request whose slack has
        fallen below the policy's ``preempt_slack_s`` is matched against
        the shard's granted leases: an eligible victim is batch-tier,
        cooperatively checkpointable (``on_preempt`` set), granted
        *before* this instant (a lease granted at the current timestamp
        cannot be re-evicted -- that would let grant/preempt cycles spin
        without time advancing), and large enough that revoking it lets
        the urgent request fit.  Among eligible victims the most
        recently granted wins -- it has the least sunk spend to forfeit.
        At most one victim is evicted per pump pass; the revoke re-pumps,
        and the freed capacity goes to the urgent request first because
        the deadline policy orders it ahead of any requeued victim.
        """
        now = self.simulator.now
        threshold = self.grant_policy.preempt_slack_s
        for shard in self._shards.values():
            if not shard.queue:
                continue
            urgent: PoolLease | None = None
            for lease in self.grant_policy.candidates(shard, self):
                if lease.slack_s(now) >= threshold:
                    break  # sorted by slack: nothing urgent follows
                if self.quota_allows(lease):
                    urgent = lease
                    break
            if urgent is None:
                continue
            victim: PoolLease | None = None
            for held in set(self._lease_by_instance.values()):
                if (
                    held.shard != shard.name
                    or held.tier != "batch"
                    or held.on_preempt is None
                    or held.revoked
                    or not held.is_granted
                    or held.granted_at >= now
                ):
                    continue
                vm_held = sl_held = 0
                for open_segment in held._open.values():
                    if open_segment.instance.kind is InstanceKind.VM:
                        vm_held += 1
                    else:
                        sl_held += 1
                if (
                    shard.free_vms + vm_held < urgent.n_vm
                    or shard.free_sls + sl_held < urgent.n_sl
                ):
                    continue
                if victim is None or (
                    (held.granted_at, held.seq)
                    > (victim.granted_at, victim.seq)
                ):
                    victim = held
            if victim is None:
                continue
            victim.preempted = True
            self.stats.coop_preemptions += 1
            victim.on_preempt("preempted-coop")
            self.revoke_lease(victim, "preempted-coop", note_fault=False)
            return

    def _steal_candidate(self, thief: PoolShard) -> PoolLease | None:
        """A grant-eligible request another shard holds that fits here.

        Only the victim's *policy candidates* may be stolen -- under
        FIFO that is its queue head alone -- so the grant ordering each
        policy guarantees survives work stealing instead of letting
        small late requests overtake a blocked head forever.
        """
        free_vms = thief.config.max_vms - thief.leased_vms
        free_sls = thief.config.max_sls - thief.leased_sls
        for shard in self._shards.values():
            if shard is thief:
                continue
            for lease in self.grant_policy.candidates(shard, self):
                if lease.n_vm > free_vms or lease.n_sl > free_sls:
                    continue
                if not self.quota_allows(lease):
                    self._note_quota_block(lease)
                    continue
                return lease
        return None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate all warm instances (end of the serving day)."""
        now = self.simulator.now
        for instance, shard in list(self._prewarming.values()):
            # Pre-boots still in flight: their whole life was idle spend.
            self._end_idle(instance, now, shard)
            self._terminate(instance, now)
        self._prewarming.clear()
        for shard in self._shards.values():
            for warm_set in shard.warm.values():
                for instance in list(warm_set.values()):
                    self._end_idle(instance, now, shard)
                    self._terminate(instance, now)
                warm_set.clear()
