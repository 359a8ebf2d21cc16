"""Query execution entry points: :func:`run_query` and :func:`launch_query`.

:func:`run_query` is the one-call API every experiment in the paper uses:
it wires a private simulator, a single-use cluster pool, the duration
model, policy and metrics listener together, runs the query to completion
and returns a :class:`QueryRunResult` with completion time and dollar cost
plus the raw metrics and itemised cost breakdown.

:func:`launch_query` is the shared-cluster building block underneath: it
starts a query inside an *existing* simulator against an *existing*
:class:`~repro.cloud.pool.ClusterPool` and returns a
:class:`QueryExecution` handle without advancing simulated time.  Trace
serving launches one execution per arrival so overlapping queries contend
for the same warm pool.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.cloud.pool import (
    DEFAULT_TENANT,
    ClusterPool,
    PoolConfig,
    PoolLease,
)
from repro.cloud.pricing import CostBreakdown, PriceBook, get_prices
from repro.cloud.providers import ProviderProfile, get_provider
from repro.engine.dag import QuerySpec
from repro.engine.listener import ExecutionListener, MetricsListener, QueryMetrics
from repro.engine.policies import (
    NoEarlyTermination,
    RelayPolicy,
    TerminationPolicy,
)
from repro.engine.scheduler import TaskScheduler
from repro.engine.simulator import DEFAULT_EVENT_BUDGET, Simulator
from repro.engine.task import TaskDurationModel

__all__ = [
    "QueryExecution",
    "QueryRunResult",
    "RetryPolicy",
    "launch_query",
    "run_query",
]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter and a per-query retry budget.

    A failed attempt (lease revoked by a fault) is resubmitted after
    ``backoff(attempt, u)`` seconds, where ``attempt`` counts completed
    failures (1 for the first retry) and ``u`` in ``[0, 1)`` spreads the
    delay across ``±jitter`` of the exponential schedule -- callers
    supply a *deterministic* ``u`` (e.g. a seeded hash of the query) so
    replays stay reproducible.  A query that has failed more than
    ``max_retries`` times is dropped as failed-after-budget.
    """

    max_retries: int = 3
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, u: float = 0.5) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * u)

    def describe(self) -> str:
        return (
            f"retry(max={self.max_retries}, base={self.backoff_base_s:g}s, "
            f"x{self.backoff_factor:g} cap {self.backoff_max_s:g}s, "
            f"jitter={self.jitter:g})"
        )


@dataclasses.dataclass
class QueryRunResult:
    """Outcome of one simulated query execution."""

    query_id: str
    provider: str
    n_vm: int
    n_sl: int
    policy: str
    #: Execution duration: from the moment workers were assigned to the
    #: last stage's completion.  Pool queueing time is *not* included --
    #: it is reported separately so the model feedback loop (history,
    #: retrain triggers) learns configuration behaviour, not congestion.
    completion_seconds: float
    cost: CostBreakdown
    metrics: QueryMetrics
    #: Time the query waited for pool capacity before its workers were
    #: assigned (always 0 for a private single-use pool).
    queueing_delay_s: float = 0.0
    #: Portion of the queueing delay spent waiting on the tenant's quota
    #: while shard capacity was otherwise available.
    quota_delay_s: float = 0.0
    #: How many of the query's workers came warm from the pool vs were
    #: spawned cold at the provider's full boot latency.
    warm_acquisitions: int = 0
    cold_acquisitions: int = 0
    #: The tenant the lease billed to (DEFAULT_TENANT outside multi-tenancy).
    tenant: str = DEFAULT_TENANT
    #: Spend forfeited by cooperative preemptions of this query -- the
    #: revoked attempts' leased cost, billed to the pool's wasted ledger
    #: rather than the query bill -- and how many times it was preempted
    #: (both 0 outside SLO-tiered scheduling).
    wasted_cost_dollars: float = 0.0
    n_preemptions: int = 0

    @property
    def cost_dollars(self) -> float:
        return self.cost.total

    @property
    def cost_cents(self) -> float:
        return self.cost.total * 100.0

    def summary(self) -> str:
        return (
            f"{self.query_id} on {self.provider} "
            f"[{self.n_vm} VM + {self.n_sl} SL, {self.policy}]: "
            f"{self.completion_seconds:.1f}s, {self.cost_cents:.2f} cents"
        )


class QueryExecution:
    """Handle for one query running inside a (possibly shared) simulator."""

    def __init__(
        self,
        query: QuerySpec,
        pool: ClusterPool,
        scheduler: TaskScheduler,
        metrics_listener: MetricsListener,
        policy: TerminationPolicy,
        on_complete: Callable[["QueryExecution"], None] | None = None,
        on_failed: Callable[["QueryExecution", str], None] | None = None,
    ) -> None:
        self.query = query
        self.pool = pool
        self.scheduler = scheduler
        self.metrics_listener = metrics_listener
        self.policy = policy
        self.result: QueryRunResult | None = None
        #: Set when a fault revoked this attempt's lease; the execution
        #: will never produce a result.
        self.failed = False
        self.failure_reason: str | None = None
        self._user_on_complete = on_complete
        self._user_on_failed = on_failed
        scheduler.on_complete = self._finish
        scheduler.on_failed = self._fail

    @property
    def completed(self) -> bool:
        return self.result is not None

    @staticmethod
    def _detach(scheduler: TaskScheduler) -> None:
        """Drop the scheduler's hooks into this execution once it has
        finished or failed (they fire at most once), breaking the
        execution <-> scheduler reference cycle."""
        scheduler.on_complete = None
        scheduler.on_failed = None

    @property
    def lease(self) -> PoolLease:
        return self.scheduler.lease

    def _finish(self, scheduler: TaskScheduler) -> None:
        self._detach(scheduler)
        lease = scheduler.lease
        duration = scheduler.completion_seconds - lease.queueing_delay_s
        cost = lease.cost_report(
            query_duration=duration, prices=self.pool.prices
        )
        self.result = QueryRunResult(
            query_id=self.query.query_id,
            provider=self.pool.provider.name,
            n_vm=lease.n_vm,
            n_sl=lease.n_sl,
            policy=self.policy.describe(),
            completion_seconds=duration,
            cost=cost,
            metrics=self.metrics_listener.metrics,
            queueing_delay_s=lease.queueing_delay_s,
            quota_delay_s=lease.quota_delay_s,
            warm_acquisitions=lease.warm_acquisitions,
            cold_acquisitions=lease.cold_acquisitions,
            tenant=lease.tenant,
            wasted_cost_dollars=scheduler.preempted_cost,
            n_preemptions=scheduler.n_preemptions,
        )
        if self._user_on_complete is not None:
            self._user_on_complete(self)

    def _fail(self, scheduler: TaskScheduler, reason: str) -> None:
        self._detach(scheduler)
        self.failed = True
        self.failure_reason = reason
        if self._user_on_failed is not None:
            self._user_on_failed(self, reason)


def _resolve_policy(
    policy: TerminationPolicy | None,
    relay: bool | None,
    n_vm: int,
    n_sl: int,
) -> TerminationPolicy:
    if policy is not None:
        return policy
    if relay is None:
        relay = n_vm > 0 and n_sl > 0
    return RelayPolicy() if relay else NoEarlyTermination()


def launch_query(
    query: QuerySpec,
    n_vm: int,
    n_sl: int,
    pool: ClusterPool,
    policy: TerminationPolicy | None = None,
    relay: bool | None = None,
    listeners: tuple[ExecutionListener, ...] = (),
    duration_model: TaskDurationModel | None = None,
    rng: np.random.Generator | int | None = None,
    on_complete: Callable[[QueryExecution], None] | None = None,
    on_failed: Callable[[QueryExecution, str], None] | None = None,
    tenant: str = DEFAULT_TENANT,
    deadline_s: float | None = None,
    preemptible: bool = False,
) -> QueryExecution:
    """Start ``query`` against ``pool`` without advancing simulated time.

    The query's workers are leased from the pool on behalf of ``tenant``
    (queueing under the pool's grant policy when the shard is saturated)
    and the execution unfolds as events on the pool's simulator; the
    caller decides when to advance it.  ``on_complete`` fires -- inside
    the completing event -- once the result is available;
    ``on_failed(execution, reason)`` fires instead if a fault revokes
    the attempt's lease (only possible when the pool carries a
    :class:`~repro.cloud.faults.FaultInjector`).

    ``deadline_s`` stamps the lease with an absolute SLO deadline (for
    :class:`~repro.cloud.pool.DeadlineAwareGrant` ordering);
    ``preemptible=True`` registers the scheduler's cooperative
    checkpoint so a batch-tier query can be evicted and transparently
    resumed -- see :class:`~repro.engine.scheduler.TaskScheduler`.
    """
    policy = _resolve_policy(policy, relay, n_vm, n_sl)
    if duration_model is None:
        duration_model = TaskDurationModel(provider=pool.provider, rng=rng)
    metrics_listener = MetricsListener()
    scheduler = TaskScheduler(
        simulator=pool.simulator,
        pool=pool,
        duration_model=duration_model,
        policy=policy,
        listeners=(metrics_listener, *listeners),
        tenant=tenant,
        deadline_s=deadline_s,
        preemptible=preemptible,
    )
    execution = QueryExecution(
        query=query,
        pool=pool,
        scheduler=scheduler,
        metrics_listener=metrics_listener,
        policy=policy,
        on_complete=on_complete,
        on_failed=on_failed,
    )
    scheduler.submit(query, n_vm=n_vm, n_sl=n_sl)
    return execution


def run_query(
    query: QuerySpec,
    n_vm: int,
    n_sl: int,
    provider: ProviderProfile | str = "aws",
    prices: PriceBook | None = None,
    policy: TerminationPolicy | None = None,
    relay: bool | None = None,
    listeners: tuple[ExecutionListener, ...] = (),
    rng: np.random.Generator | int | None = None,
    pool: ClusterPool | None = None,
) -> QueryRunResult:
    """Execute ``query`` on ``n_vm`` VMs plus ``n_sl`` SLs and bill it.

    Parameters
    ----------
    query:
        The stage DAG to run.
    n_vm, n_sl:
        The compute resource configuration ``{nVM, nSL}`` under test.
    provider:
        Provider profile or name (``"aws"`` / ``"gcp"``).
    prices:
        Price book; defaults to the provider's published rates.
    policy:
        SL termination policy.  Defaults to relay when both kinds are
        present (Smartpick-r's default, ``smartpick.cloud.compute.relay``),
        otherwise run-to-completion.
    relay:
        Convenience switch: ``True`` forces :class:`RelayPolicy`, ``False``
        forces :class:`NoEarlyTermination`.  Ignored when ``policy`` given.
    listeners:
        Extra execution listeners (a metrics listener is always attached).
    rng:
        Seed or generator for task-duration noise.
    pool:
        A shared :class:`~repro.cloud.pool.ClusterPool` to lease workers
        from (its provider and prices take precedence); sequential calls
        against the same pool reuse warm instances.  Defaults to a
        private single-use cold pool sized exactly to the request, which
        reproduces the paper's fresh-instances-per-query model.
    """
    if pool is None:
        if isinstance(provider, str):
            provider = get_provider(provider)
        if prices is None:
            prices = get_prices(provider.name)
        simulator = Simulator()
        pool = ClusterPool(
            simulator,
            provider=provider,
            prices=prices,
            config=PoolConfig(max_vms=n_vm, max_sls=n_sl),
        )

    execution = launch_query(
        query,
        n_vm=n_vm,
        n_sl=n_sl,
        pool=pool,
        policy=policy,
        relay=relay,
        listeners=listeners,
        rng=rng,
    )
    # Step rather than drain: with a shared pool, pending keep-alive
    # timers must survive for the *next* query's warm starts.
    simulator = pool.simulator
    for _ in range(DEFAULT_EVENT_BUDGET):
        if execution.completed or execution.failed:
            break
        if not simulator.step():
            break
    else:
        raise RuntimeError(
            f"event budget exhausted: run_query({query.query_id}) processed "
            f"{DEFAULT_EVENT_BUDGET} events without completing -- likely an "
            "event loop in the model (a callback re-scheduling itself "
            "forever)"
        )
    if execution.failed:
        raise RuntimeError(
            f"{query.query_id} failed: lease revoked "
            f"({execution.failure_reason}); run_query does not retry -- "
            "use trace serving with a RetryPolicy for failure-aware runs"
        )
    if execution.result is None:
        raise RuntimeError(
            f"{query.query_id} did not complete with {n_vm} VMs + {n_sl} SLs"
        )
    return execution.result
