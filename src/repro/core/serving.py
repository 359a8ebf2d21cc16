"""Trace-driven serving: a day in the life of a Smartpick deployment.

The evaluation exercises queries one at a time; a deployed data analytics
system instead faces a *stream* of ad-hoc arrivals (Section 2.1).  The
:class:`ServingSimulator` replays one or many workload traces through a
bootstrapped Smartpick **inside one shared discrete-event simulation**:

- arrivals are drained from time-sorted columns: every runtime event
  before an arrival's sizing time fires first, then the arrival is
  submitted through the full Figure 3 workflow,
- all queries execute concurrently against one shared
  :class:`~repro.cloud.pool.ClusterPool` -- overlapping arrivals contend
  for pool capacity, queue under the pool's grant policy when it
  saturates, and (with keep-alive enabled) inherit each other's
  still-warm workers,
- the number of still-in-flight earlier queries feeds the
  ``num-waiting-apps`` feature of Table 3,
- aliens, retrains, per-query bills, queueing delays and the pool's
  warm-start behaviour are accounted into a :class:`ServingReport` with
  latency percentiles, total cost (including keep-alive spend) and SLO
  attainment.

**Multi-tenant serving** (:meth:`ServingSimulator.replay_multi`) replays
several ``(tenant, trace)`` pairs as one interleaved event stream over
the same shared pool.  A :class:`~repro.cloud.pool.TenantRegistry`
supplies per-tenant fair-share weights and quotas: concurrently-leased
worker caps are enforced by the pool, while ``max_in_flight`` query caps
are enforced here by an admission gate (an arrival past the cap waits,
and the wait is accounted as ``admission_delay_s``).  The report then
carries per-tenant slices (:meth:`ServingReport.for_tenant`), a Jain
fairness index, quota-throttle delays, and a chargeback table that
partitions the pool's total bill -- keep-alive included -- across
tenants.

**Prediction-driven resource management** closes the serving ->
forecaster -> pool loop: every arrival's query class (from
:meth:`~repro.core.predictor.WorkloadPredictor.query_class`) and routed
shard are fed to forecast-aware autoscalers such as
:class:`~repro.core.forecast.PredictiveKeepAlive` -- per-shard policies
go in ``shard_autoscalers`` -- and ``batch_window_s="auto"`` lets an
:class:`~repro.core.forecast.AdaptiveBatchWindow` tune the coalescing
window from the observed arrival rate and measured decision latency.

The default pool is cold (no keep-alive) and wide enough that typical
traces do not contend, which reproduces the paper's
fresh-instances-per-query serving model; a ``RuntimeWarning`` fires if a
heavy trace saturates it anyway.  Pass a tighter
:class:`~repro.cloud.pool.PoolConfig` or an autoscaler to study warm
starts and saturation deliberately.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import time
import warnings
import zlib
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.analysis.sketches import ExactSum, ReservoirQuantiles
from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.pool import (
    DEFAULT_TENANT,
    AutoscalerPolicy,
    ClusterPool,
    GrantPolicy,
    PoolConfig,
    PoolStats,
    ShardRouter,
    TenantRegistry,
)
from repro.core.epochs import FleetPlanner, ForecastAwareRouter
from repro.core.forecast import AdaptiveBatchWindow
from repro.core.job import SubmissionOutcome
from repro.core.smartpick import Smartpick
from repro.engine.plan import PlanRunner, StagePlan
from repro.engine.runner import RetryPolicy, launch_query
from repro.engine.simulator import DEFAULT_EVENT_BUDGET, Simulator
from repro.engine.task import TaskDurationModel
from repro.workloads import get_query
from repro.workloads.trace import (
    ColumnarTrace,
    TraceEvent,
    WorkloadTrace,
    merge_arrival_columns,
)

__all__ = [
    "DroppedQuery",
    "ServedQuery",
    "ServingStream",
    "ServingReport",
    "ServingSimulator",
]

#: Reservoir size of every streaming-report sketch: percentiles are exact
#: up to this many observations and carry ~1/sqrt(capacity) rank error
#: beyond (see :mod:`repro.analysis.sketches`).
_SKETCH_CAPACITY = 4096


@dataclasses.dataclass(frozen=True)
class ServedQuery:
    """One arrival and its outcome."""

    arrival_s: float
    outcome: SubmissionOutcome
    waiting_apps_at_submit: int
    #: Time spent waiting for pool capacity before workers were assigned.
    #: The outcome's actual duration is pure execution time, so the
    #: user-visible latency is the sum of the two.
    queueing_delay_s: float = 0.0
    #: How many arrivals shared this query's sizing pass -- 1 when the
    #: query was decided alone, >= 2 when the arrival coalescer routed it
    #: through one ``determine_batch`` forest pass with its neighbours.
    decision_batch_size: int = 1
    #: Time the arrival waited for its coalescing window to close before
    #: sizing began (0 outside micro-batched serving).
    batching_delay_s: float = 0.0
    #: The tenant the arrival belongs to (and its lease billed to).
    tenant: str = DEFAULT_TENANT
    #: Time the arrival waited at the admission gate because its tenant
    #: was at ``max_in_flight`` (0 outside multi-tenant quotas).
    admission_delay_s: float = 0.0
    #: Portion of ``queueing_delay_s`` spent waiting on the tenant's
    #: leased-worker quota while shard capacity was otherwise available.
    quota_delay_s: float = 0.0
    #: How many times the query was resubmitted after a fault revoked an
    #: attempt's lease (0 outside fault injection).
    n_retries: int = 0
    #: Spend the query's *failed* attempts forfeited into the pool's
    #: wasted-cost ledger; the outcome's cost covers only the successful
    #: attempt.
    wasted_cost_dollars: float = 0.0
    #: Time lost to failed attempts: from each failure's submission to
    #: the next resubmission (runtime of the dead attempt plus backoff).
    retry_delay_s: float = 0.0

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (admission + batching + retries
        + queueing + execution)."""
        return (
            self.admission_delay_s
            + self.batching_delay_s
            + self.retry_delay_s
            + self.queueing_delay_s
            + self.outcome.actual_seconds
        )

    @property
    def completion_s(self) -> float:
        return self.arrival_s + self.latency_s

    @property
    def quota_throttle_delay_s(self) -> float:
        """Total delay attributable to tenant quotas (admission + lease)."""
        return self.admission_delay_s + self.quota_delay_s


@dataclasses.dataclass(frozen=True)
class DroppedQuery:
    """One arrival that terminated without completing.

    ``reason`` is ``"failed"`` (faults exhausted the retry budget) or
    ``"shed"`` (the admission backlog exceeded ``max_pending_admission``
    and the load-shedder rejected the work instead of queueing forever).
    """

    arrival_s: float
    query_id: str
    tenant: str
    reason: str
    n_retries: int = 0
    wasted_cost_dollars: float = 0.0


def _completion_row(
    latency: float,
    queueing_delay: float,
    admission_delay: float,
    quota_delay: float,
    outcome: SubmissionOutcome,
    batch_size: int,
    n_retries: int,
    wasted: float,
) -> tuple:
    """One completion as a :meth:`ServingStream.observe_columns` row.

    Columns: latency, queueing delay, admission delay, quota-throttle
    delay (admission + in-pool quota wait), decision inference seconds,
    cost, then 0/1 batched / alien / retrain flags, retry count and
    wasted cost.
    """
    return (
        latency,
        queueing_delay,
        admission_delay,
        admission_delay + quota_delay,
        outcome.decision.inference_seconds,
        outcome.cost_dollars,
        1.0 if batch_size >= 2 else 0.0,
        1.0 if outcome.is_alien else 0.0,
        1.0 if outcome.retrain_event else 0.0,
        float(n_retries),
        wasted,
    )


class ServingStream:
    """Mergeable online accumulators over a replay's completions.

    Every :class:`ServingReport` aggregate -- counts, costs, SLO hits,
    percentiles, per-tenant slices -- reads one of these; the per-query
    ``served`` list is retention only.  Completions fold in as column
    batches (:meth:`observe_columns`), drops one at a time
    (:meth:`observe_drop`), and each tenant gets a sub-stream one level
    deep.  Percentiles come from deterministic reservoir sketches, exact
    while the stream fits the sketch capacity, and cost / decision-time
    totals from exactly-rounded online sums, so the chargeback, Jain
    index and time-ledger identities hold on every report.
    """

    __slots__ = (
        "slo_seconds", "tenant_slos", "n", "latency", "queueing",
        "admission", "quota_throttle", "decision", "query_cost",
        "decision_seconds_total", "n_slo_hits", "n_batched", "n_aliens",
        "n_retrains", "n_failed", "n_shed", "n_retries", "wasted_cost",
        "tenant_streams",
    )

    def __init__(
        self,
        slo_seconds: float,
        sketch_capacity: int = _SKETCH_CAPACITY,
        _track_tenants: bool = True,
        tenant_slos: Mapping[str, float] | None = None,
    ) -> None:
        self.slo_seconds = slo_seconds
        #: Per-tenant SLO overrides (``TenantSpec.slo_latency_s``): a
        #: tenant's sub-stream counts SLO hits against its own latency
        #: target instead of the replay-wide one.  Empty = legacy
        #: behaviour, every tenant measured against ``slo_seconds``.
        self.tenant_slos: dict[str, float] = dict(tenant_slos or {})
        self.n = 0
        self.latency = ReservoirQuantiles(sketch_capacity, seed=1)
        self.queueing = ReservoirQuantiles(sketch_capacity, seed=2)
        self.admission = ReservoirQuantiles(sketch_capacity, seed=3)
        self.quota_throttle = ReservoirQuantiles(sketch_capacity, seed=4)
        self.decision = ReservoirQuantiles(sketch_capacity, seed=5)
        self.query_cost = ExactSum()
        self.decision_seconds_total = ExactSum()
        self.n_slo_hits = 0
        self.n_batched = 0
        self.n_aliens = 0
        self.n_retrains = 0
        #: Reliability accumulators (all zero outside fault injection):
        #: arrivals dropped after exhausting their retry budget, arrivals
        #: shed at the admission gate, total resubmissions, and the
        #: spend failed attempts forfeited.
        self.n_failed = 0
        self.n_shed = 0
        self.n_retries = 0
        self.wasted_cost = ExactSum()
        #: Per-tenant sub-streams (one level deep: sub-streams track no
        #: tenants of their own); ``None`` marks a tenant slice.
        self.tenant_streams: dict[str, ServingStream] | None = (
            {} if _track_tenants else None
        )

    def ensure_tenant(self, tenant: str) -> "ServingStream":
        """Register a tenant's sub-stream (idempotent, ordered)."""
        if self.tenant_streams is None:
            raise ValueError("tenant slices do not track sub-tenants")
        stream = self.tenant_streams.get(tenant)
        if stream is None:
            stream = ServingStream(
                self.tenant_slos.get(tenant, self.slo_seconds),
                sketch_capacity=self.latency.capacity,
                _track_tenants=False,
            )
            self.tenant_streams[tenant] = stream
        return stream

    def observe(self, query: ServedQuery) -> None:
        """Fold one completion record: a one-row :meth:`observe_columns`.

        Replays never call this (they flush column batches); it stays
        because ``benchmarks/suite`` traces it by name.
        """
        row = _completion_row(
            query.latency_s, query.queueing_delay_s, query.admission_delay_s,
            query.quota_delay_s, query.outcome, query.decision_batch_size,
            query.n_retries, query.wasted_cost_dollars,
        )
        self.observe_columns([query.tenant], np.array([row]))

    def observe_columns(
        self, tenants: list[str], rows: np.ndarray
    ) -> None:
        """Fold a batch of completions (the stream's only fold).

        ``rows`` holds one :func:`_completion_row` per completion *in
        completion order*, ``tenants`` the matching tenant names.  The
        sketches consume each column through
        :meth:`ReservoirQuantiles.observe_many
        <repro.analysis.sketches.ReservoirQuantiles.observe_many>` (rng
        draw sequence identical to scalar observes) and the sums are
        order-independent, so the stream's state does not depend on how
        completions were batched.
        """
        self._observe_columns_one(rows)
        if self.tenant_streams is not None:
            groups: dict[str, list[int]] = {}
            for position, tenant in enumerate(tenants):
                rows_for = groups.get(tenant)
                if rows_for is None:
                    rows_for = groups[tenant] = []
                rows_for.append(position)
            for tenant, positions in groups.items():
                self.ensure_tenant(tenant)._observe_columns_one(
                    rows[positions]
                )

    def _observe_columns_one(self, rows: np.ndarray) -> None:
        n = len(rows)
        if n == 0:
            return
        self.n += n
        latency = rows[:, 0]
        self.latency.observe_many(latency)
        self.queueing.observe_many(rows[:, 1])
        self.admission.observe_many(rows[:, 2])
        self.quota_throttle.observe_many(rows[:, 3])
        self.decision.observe_many(rows[:, 4])
        self.query_cost.add_many(rows[:, 5])
        self.decision_seconds_total.add_many(rows[:, 4])
        self.n_slo_hits += int(np.count_nonzero(latency <= self.slo_seconds))
        self.n_batched += int(np.count_nonzero(rows[:, 6]))
        self.n_aliens += int(np.count_nonzero(rows[:, 7]))
        self.n_retrains += int(np.count_nonzero(rows[:, 8]))
        self.n_retries += int(rows[:, 9].sum())
        self.wasted_cost.add_many(rows[:, 10])

    def observe_drop(self, drop: DroppedQuery) -> None:
        """Fold one non-completion into the accumulators (and tenant's)."""
        self._observe_drop_one(drop)
        if self.tenant_streams is not None:
            self.ensure_tenant(drop.tenant)._observe_drop_one(drop)

    def _observe_drop_one(self, drop: DroppedQuery) -> None:
        if drop.reason == "shed":
            self.n_shed += 1
        else:
            self.n_failed += 1
        self.n_retries += drop.n_retries
        self.wasted_cost.add(drop.wasted_cost_dollars)

    def merge(self, other: "ServingStream") -> None:
        """Fold another replay segment's stream into this one."""
        if other.slo_seconds != self.slo_seconds:
            raise ValueError("cannot merge streams with different SLOs")
        self.n += other.n
        self.latency.merge(other.latency)
        self.queueing.merge(other.queueing)
        self.admission.merge(other.admission)
        self.quota_throttle.merge(other.quota_throttle)
        self.decision.merge(other.decision)
        self.query_cost.merge(other.query_cost)
        self.decision_seconds_total.merge(other.decision_seconds_total)
        self.n_slo_hits += other.n_slo_hits
        self.n_batched += other.n_batched
        self.n_aliens += other.n_aliens
        self.n_retrains += other.n_retrains
        self.n_failed += other.n_failed
        self.n_shed += other.n_shed
        self.n_retries += other.n_retries
        self.wasted_cost.merge(other.wasted_cost)
        if self.tenant_streams is not None and other.tenant_streams:
            for tenant, theirs in other.tenant_streams.items():
                mine = self.tenant_streams.get(tenant)
                if mine is None:
                    self.ensure_tenant(tenant).merge(theirs)
                else:
                    mine.merge(theirs)


@dataclasses.dataclass
class ServingReport:
    """Aggregate view of one trace replay.

    Every aggregate reads :attr:`stream`; the per-query ``served`` and
    ``dropped`` lists are retention only (``keep_queries``), read by the
    per-query array accessors.
    """

    served: list[ServedQuery]
    slo_seconds: float
    #: The replay's accumulators over every completion and drop.  A
    #: tenant slice carries its tenant's sub-stream.
    stream: ServingStream
    pool_stats: PoolStats | None = None
    keepalive_cost_dollars: float = 0.0
    #: Idle warm spend per shard; the values sum to
    #: :attr:`keepalive_cost_dollars`, so a drained shard's share is
    #: directly observable (empty for tenant slices, which cannot own
    #: shard-level spend).
    keepalive_cost_by_shard: dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    #: Fair-share weight per tenant at replay time (single-tenant replays
    #: record the default tenant at weight 1).
    tenant_weights: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Peak concurrently leased ``(vms, sls)`` the pool saw per tenant --
    #: the observable the leased-worker quotas bound.
    tenant_peaks: dict[str, tuple[int, int]] = dataclasses.field(
        default_factory=dict
    )
    #: Arrivals that never completed: dropped after exhausting their
    #: retry budget ("failed") or shed at the admission gate ("shed").
    #: Retained like ``served`` (the stream's counters carry the tally).
    dropped: list[DroppedQuery] = dataclasses.field(default_factory=list)
    #: Spend forfeited to revoked leases (the pool's ``wasted_cost``
    #: ledger): partial work billed but thrown away when an instance
    #: died mid-query.  Zero outside fault injection.
    wasted_cost_dollars: float = 0.0
    #: The wasted spend per shard; values sum to
    #: :attr:`wasted_cost_dollars` (empty for tenant slices).
    wasted_cost_by_shard: dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    #: Epoch boundaries at which the fleet planner ran (closed an epoch,
    #: forecast the next and applied a plan).  Zero without a planner.
    epochs_planned: int = 0
    #: Idle spend of plan-driven pre-warming -- a sub-ledger of
    #: :attr:`keepalive_cost_dollars` (the chargeback identity is
    #: unchanged), making the planner's speculative spend observable.
    prewarm_cost_dollars: float = 0.0
    #: Peak concurrently in-flight arrivals per tenant, *including*
    #: retry resubmissions -- the observable proving ``max_in_flight``
    #: admission quotas hold even while retries re-enter the gate.
    tenant_in_flight_peaks: dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    #: Per-tenant SLO targets (``TenantSpec.slo_latency_s``) captured at
    #: replay time; tenants absent here are measured against the
    #: replay-wide :attr:`slo_seconds`.  Empty when no tenant declares
    #: an SLO (the legacy behaviour, bit for bit).
    tenant_slos: dict[str, float] = dataclasses.field(default_factory=dict)

    def _require_queries(self, what: str) -> None:
        if self.stream.n and not self.served:
            raise ValueError(
                f"per-query {what} are not retained in streaming mode "
                "(keep_queries=False); use the percentile/aggregate "
                "accessors instead"
            )

    def _percentile(
        self, sketch: ReservoirQuantiles, percentile: float
    ) -> float:
        if not self.stream.n:
            raise ValueError("the report is empty")
        return sketch.percentile(percentile)

    @property
    def n_queries(self) -> int:
        return self.stream.n

    @property
    def latencies(self) -> np.ndarray:
        self._require_queries("latencies")
        return np.array([s.latency_s for s in self.served])

    @property
    def queueing_delays(self) -> np.ndarray:
        self._require_queries("queueing delays")
        return np.array([s.queueing_delay_s for s in self.served])

    @property
    def admission_delays(self) -> np.ndarray:
        self._require_queries("admission delays")
        return np.array([s.admission_delay_s for s in self.served])

    @property
    def quota_throttle_delays(self) -> np.ndarray:
        """Per-query delay attributable to tenant quotas.

        The sum of the admission-gate wait (``max_in_flight``) and the
        in-pool quota wait (``max_leased_vms`` / ``max_leased_sls``);
        zero everywhere when no quotas are configured.
        """
        self._require_queries("quota throttle delays")
        return np.array([s.quota_throttle_delay_s for s in self.served])

    @property
    def query_cost_dollars(self) -> float:
        """Sum of the per-query bills (excluding keep-alive spend)."""
        return self.stream.query_cost.value

    @property
    def total_cost_dollars(self) -> float:
        """The full bill: per-query charges, keep-alive, and wasted spend."""
        return (
            self.query_cost_dollars
            + self.keepalive_cost_dollars
            + self.wasted_cost_dollars
        )

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------

    @property
    def n_failed(self) -> int:
        """Arrivals dropped after exhausting their retry budget."""
        return self.stream.n_failed

    @property
    def n_shed(self) -> int:
        """Arrivals rejected at the admission gate under overload."""
        return self.stream.n_shed

    @property
    def n_arrivals(self) -> int:
        """Every trace arrival, however it terminated."""
        return self.n_queries + self.n_failed + self.n_shed

    @property
    def n_retries_total(self) -> int:
        """Resubmissions across all arrivals (served and dropped)."""
        return self.stream.n_retries

    @property
    def availability(self) -> float:
        """Fraction of arrivals that completed (1.0 for an empty report)."""
        arrivals = self.n_arrivals
        if arrivals == 0:
            return 1.0
        return self.n_queries / arrivals

    @property
    def retry_rate(self) -> float:
        """Resubmissions per arrival (can exceed 1 under heavy faults)."""
        arrivals = self.n_arrivals
        if arrivals == 0:
            return 0.0
        return self.n_retries_total / arrivals

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals rejected at the admission gate."""
        arrivals = self.n_arrivals
        if arrivals == 0:
            return 0.0
        return self.n_shed / arrivals

    @property
    def wasted_cost_share(self) -> float:
        """Wasted spend as a fraction of the total bill."""
        total = self.total_cost_dollars
        if total == 0.0:
            return 0.0
        return self.wasted_cost_dollars / total

    @property
    def warm_start_rate(self) -> float:
        """Fraction of worker acquisitions served warm from the pool."""
        if self.pool_stats is None:
            return 0.0
        return self.pool_stats.warm_start_rate

    @property
    def decision_seconds(self) -> np.ndarray:
        """Per-query Workload Predictor decision latency (inference time).

        The predictor sits inline on every arrival, so this is the
        serving-side overhead the inference engines exist to shrink;
        track it per replay to catch hot-path regressions.

        Attribution semantics: an arrival decided alone carries its own
        measured decision time; an arrival sized in a coalesced group
        (``decision_batch_size >= 2``) carries the group's shared
        ``determine_batch`` time *amortised equally* across the group,
        so :attr:`total_decision_seconds` always equals the wall time
        the replay actually spent deciding.
        """
        self._require_queries("decision times")
        return np.array(
            [s.outcome.decision.inference_seconds for s in self.served]
        )

    @property
    def batched_decision_rate(self) -> float:
        """Fraction of queries sized through a shared forest pass."""
        if not self.stream.n:
            return 0.0
        return self.stream.n_batched / self.stream.n

    def decision_latency_percentile(self, percentile: float) -> float:
        return self._percentile(self.stream.decision, percentile)

    @property
    def total_decision_seconds(self) -> float:
        """Cumulative time spent inside resource determination."""
        return self.stream.decision_seconds_total.value

    @property
    def n_aliens(self) -> int:
        return self.stream.n_aliens

    @property
    def n_retrains(self) -> int:
        return self.stream.n_retrains

    def latency_percentile(self, percentile: float) -> float:
        return self._percentile(self.stream.latency, percentile)

    def queueing_delay_percentile(self, percentile: float) -> float:
        return self._percentile(self.stream.queueing, percentile)

    def admission_delay_percentile(self, percentile: float) -> float:
        return self._percentile(self.stream.admission, percentile)

    def quota_throttle_delay_percentile(self, percentile: float) -> float:
        return self._percentile(self.stream.quota_throttle, percentile)

    @property
    def slo_attainment(self) -> float:
        """Fraction of queries finishing within the SLO."""
        if not self.stream.n:
            raise ValueError("the report is empty")
        return self.stream.n_slo_hits / self.stream.n

    # ------------------------------------------------------------------
    # Tenancy: slices, fairness, chargeback
    # ------------------------------------------------------------------

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants of this replay, in replay order.

        Tenants registered at replay time come first (even if they served
        nothing); tenants only observed on queries follow.
        """
        ordered = dict.fromkeys(self.tenant_weights)
        for tenant in self._tenant_streams():
            ordered.setdefault(tenant, None)
        return tuple(ordered)

    def _tenant_streams(self) -> dict[str, ServingStream]:
        """Each tenant's sub-stream; a tenant slice's is its own stream."""
        if self.stream.tenant_streams is None:
            return {tenant: self.stream for tenant in self.tenant_weights}
        return self.stream.tenant_streams

    def for_tenant(self, tenant: str) -> "ServingReport":
        """This report restricted to one tenant's queries.

        The slice is measured against the tenant's own SLO when the
        tenant declared one (``TenantSpec.slo_latency_s``), the
        replay-wide SLO otherwise; it carries the tenant's keep-alive
        chargeback share as its keep-alive cost (so the slice's
        ``total_cost_dollars`` is the tenant's bill), and drops the pool
        stats, which are not attributable to a single tenant.  The slice
        reads the tenant's sub-stream.
        """
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        slice_slo = self.tenant_slos.get(tenant, self.slo_seconds)
        weight = self.tenant_weights.get(tenant, 1.0)
        peaks = {}
        if tenant in self.tenant_peaks:
            peaks[tenant] = self.tenant_peaks[tenant]
        in_flight_peaks = {}
        if tenant in self.tenant_in_flight_peaks:
            in_flight_peaks[tenant] = self.tenant_in_flight_peaks[tenant]
        stream = self._tenant_streams().get(tenant)
        if stream is None:
            # Registered but never served: an empty slice.
            stream = ServingStream(slice_slo, _track_tenants=False)
        return ServingReport(
            served=[s for s in self.served if s.tenant == tenant],
            slo_seconds=slice_slo,
            pool_stats=None,
            keepalive_cost_dollars=self.keepalive_shares().get(tenant, 0.0),
            tenant_weights={tenant: weight},
            tenant_peaks=peaks,
            dropped=[d for d in self.dropped if d.tenant == tenant],
            wasted_cost_dollars=self._tenant_wasted_costs().get(tenant, 0.0),
            tenant_in_flight_peaks=in_flight_peaks,
            tenant_slos=(
                {tenant: self.tenant_slos[tenant]}
                if tenant in self.tenant_slos
                else {}
            ),
            stream=stream,
        )

    def tenant_slo_attainment(self) -> dict[str, float]:
        """SLO attainment per tenant, each against its *own* target.

        A tenant with ``slo_latency_s`` set is measured against that
        deadline; others against the replay-wide SLO.  Tenants that
        served nothing are omitted (attainment is undefined on an empty
        slice).  Works identically for per-query and streaming
        (``keep_queries=False``) reports, and survives :meth:`merge`.
        """
        attainment = {}
        for tenant in self.tenants:
            tenant_slice = self.for_tenant(tenant)
            if tenant_slice.n_queries:
                attainment[tenant] = tenant_slice.slo_attainment
        return attainment

    @property
    def jain_fairness_index(self) -> float:
        """Jain's index over weight-normalised per-tenant spend.

        ``(sum x)^2 / (n * sum x^2)`` with ``x_t = query_cost_t /
        weight_t``: 1 when every tenant consumed service exactly in
        proportion to its weight, ``1/n`` when one tenant consumed
        everything.  Trivially 1 for a single tenant (or no spend).
        """
        shares = []
        costs = self._tenant_query_costs()
        for tenant in self.tenants:
            weight = self.tenant_weights.get(tenant, 1.0)
            shares.append(costs.get(tenant, 0.0) / weight)
        if len(shares) <= 1:
            return 1.0
        total = math.fsum(shares)
        if total == 0.0:
            return 1.0
        return total * total / (
            len(shares) * math.fsum(x * x for x in shares)
        )

    def _tenant_query_costs(self) -> dict[str, float]:
        streams = self._tenant_streams()
        return {
            tenant: streams[tenant].query_cost.value if tenant in streams
            else 0.0
            for tenant in self.tenants
        }

    def _tenant_wasted_costs(self) -> dict[str, float]:
        """Per-tenant forfeited spend (failed attempts' partial bills).

        Unlike keep-alive, wasted spend *is* attributable: the revoked
        lease belonged to one tenant's query, so that tenant's bill
        carries it directly.
        """
        streams = self._tenant_streams()
        return {
            tenant: streams[tenant].wasted_cost.value if tenant in streams
            else 0.0
            for tenant in self.tenants
        }

    def keepalive_shares(self) -> dict[str, float]:
        """Keep-alive spend apportioned pro rata to per-tenant query cost.

        Idle warm time is a shared amenity with no single owner; billing
        it in proportion to metered usage is the standard chargeback
        convention.  When nothing was metered (an idle day) the spend is
        split equally instead.
        """
        return self._keepalive_shares(self._tenant_query_costs())

    def _keepalive_shares(self, costs: dict[str, float]) -> dict[str, float]:
        if not costs:
            return {}
        keepalive = self.keepalive_cost_dollars
        total = math.fsum(costs.values())
        if total > 0.0:
            return {t: keepalive * (c / total) for t, c in costs.items()}
        return {t: keepalive / len(costs) for t in costs}

    def chargeback(self) -> dict[str, float]:
        """Per-tenant bills that partition the pool's total cost.

        Each tenant is billed its metered query cost, the spend its
        failed attempts forfeited, and its :meth:`keepalive_shares`
        portion; the floating-point residual of the pro-rata split is
        folded into the largest bill (ties broken by tenant name) so the
        bills sum to :attr:`total_cost_dollars` to the last bit.
        """
        costs = self._tenant_query_costs()
        return self._bills(costs, self._keepalive_shares(costs))

    def _bills(
        self, costs: dict[str, float], shares: dict[str, float]
    ) -> dict[str, float]:
        wasted = self._tenant_wasted_costs()
        bills = {
            t: costs[t] + wasted.get(t, 0.0) + shares.get(t, 0.0)
            for t in costs
        }
        if bills:
            residual = self.total_cost_dollars - math.fsum(bills.values())
            anchor = max(bills, key=lambda t: (bills[t], t))
            bills[anchor] += residual
        return bills

    def chargeback_table(self) -> str:
        """The chargeback as an ASCII table with a pool-total footer."""
        from repro.analysis.reporting import format_table

        costs = self._tenant_query_costs()
        shares = self._keepalive_shares(costs)
        bills = self._bills(costs, shares)
        streams = self._tenant_streams()
        rows = []
        for tenant in self.tenants:
            rows.append((
                tenant,
                streams[tenant].n if tenant in streams else 0,
                100.0 * costs.get(tenant, 0.0),
                100.0 * shares.get(tenant, 0.0),
                100.0 * bills.get(tenant, 0.0),
            ))
        footer = (
            "pool total",
            self.n_queries,
            100.0 * self.query_cost_dollars,
            100.0 * self.keepalive_cost_dollars,
            100.0 * math.fsum(bills.values()),
        )
        return format_table(
            ("tenant", "queries", "query_cents", "keepalive_cents",
             "total_cents"),
            rows,
            footer=footer,
            title="chargeback",
        )

    def summary(self) -> str:
        cost = (
            f"cost {100 * self.query_cost_dollars:.1f}"
            f" + keep-alive {100 * self.keepalive_cost_dollars:.2f}"
        )
        if self.wasted_cost_dollars:
            cost += f" + wasted {100 * self.wasted_cost_dollars:.2f}"
        cost += f" = {100 * self.total_cost_dollars:.1f} cents"
        if not self.n_queries:
            return f"0 queries, {cost}"
        text = (
            f"{self.n_queries} queries: p50 {self.latency_percentile(50):.1f}s, "
            f"p95 {self.latency_percentile(95):.1f}s, "
            f"SLO({self.slo_seconds:.0f}s) {100 * self.slo_attainment:.0f}%, "
            f"{cost}, "
            f"{self.n_aliens} aliens, {self.n_retrains} retrains"
        )
        if self.pool_stats is not None and self.pool_stats.acquisitions:
            text += (
                f", {100 * self.warm_start_rate:.0f}% warm starts, "
                f"queue p95 {self.queueing_delay_percentile(95):.1f}s"
            )
        if self.pool_stats is not None and self.pool_stats.instance_seconds:
            # The time-conservation ledger: every instance-second is
            # either leased to a query or idle in a warm set.
            stats = self.pool_stats
            text += (
                f", {stats.instance_seconds:.0f} instance-s "
                f"({stats.leased_seconds:.0f} leased + "
                f"{stats.idle_seconds:.0f} idle, "
                f"{100 * stats.idle_fraction:.0f}% idle)"
            )
        if self.batched_decision_rate > 0:
            text += (
                f", {100 * self.batched_decision_rate:.0f}% batched decisions"
            )
        if len(self.tenants) > 1:
            text += (
                f", {len(self.tenants)} tenants, "
                f"Jain {self.jain_fairness_index:.2f}"
            )
        if self.n_failed or self.n_shed or self.n_retries_total:
            text += (
                f", availability {100 * self.availability:.1f}% "
                f"({self.n_retries_total} retries, "
                f"{self.n_failed} failed, {self.n_shed} shed)"
            )
        return text

    def merge(self, other: "ServingReport") -> "ServingReport":
        """Combine two replay segments' reports into one.

        Streams merge via their sketches.  Per-query lists concatenate
        when both sides kept them, and the merged sketches then hold
        both sides' capacity, so kept percentiles stay exact; otherwise
        the merged report keeps no records.  Pool stats add
        counter-wise (peaks take the max), and keep-alive / weight /
        peak tables combine key-wise.  Both sides must agree on the SLO
        and on the weight of any tenant they share.
        """
        if other.slo_seconds != self.slo_seconds:
            raise ValueError("cannot merge reports with different SLOs")
        for tenant, weight in other.tenant_weights.items():
            if self.tenant_weights.get(tenant, weight) != weight:
                raise ValueError(
                    f"tenant {tenant!r} has conflicting weights"
                )
        for tenant, slo in other.tenant_slos.items():
            if self.tenant_slos.get(tenant, slo) != slo:
                raise ValueError(
                    f"tenant {tenant!r} has conflicting SLOs"
                )
        kept = bool(self.served and other.served)
        capacity = self.stream.latency.capacity
        if kept:
            capacity += other.stream.latency.capacity
        tenant_slos = {**self.tenant_slos, **other.tenant_slos}
        stream = ServingStream(
            self.slo_seconds,
            sketch_capacity=capacity,
            tenant_slos=tenant_slos,
        )
        stream.merge(self.stream)
        stream.merge(other.stream)
        served: list[ServedQuery] = []
        dropped: list[DroppedQuery] = []
        if kept:
            served = [*self.served, *other.served]
            dropped = [*self.dropped, *other.dropped]
        keepalive_by_shard = dict(self.keepalive_cost_by_shard)
        for shard, cost in other.keepalive_cost_by_shard.items():
            keepalive_by_shard[shard] = keepalive_by_shard.get(shard, 0.0) + cost
        wasted_by_shard = dict(self.wasted_cost_by_shard)
        for shard, cost in other.wasted_cost_by_shard.items():
            wasted_by_shard[shard] = wasted_by_shard.get(shard, 0.0) + cost
        peaks = dict(self.tenant_peaks)
        for tenant, (vms, sls) in other.tenant_peaks.items():
            mine = peaks.get(tenant, (0, 0))
            peaks[tenant] = (max(mine[0], vms), max(mine[1], sls))
        in_flight_peaks = dict(self.tenant_in_flight_peaks)
        for tenant, peak in other.tenant_in_flight_peaks.items():
            in_flight_peaks[tenant] = max(
                in_flight_peaks.get(tenant, 0), peak
            )
        return ServingReport(
            served=served,
            slo_seconds=self.slo_seconds,
            pool_stats=_merge_pool_stats(self.pool_stats, other.pool_stats),
            keepalive_cost_dollars=(
                self.keepalive_cost_dollars + other.keepalive_cost_dollars
            ),
            keepalive_cost_by_shard=keepalive_by_shard,
            tenant_weights={**self.tenant_weights, **other.tenant_weights},
            tenant_peaks=peaks,
            dropped=dropped,
            wasted_cost_dollars=(
                self.wasted_cost_dollars + other.wasted_cost_dollars
            ),
            wasted_cost_by_shard=wasted_by_shard,
            epochs_planned=self.epochs_planned + other.epochs_planned,
            prewarm_cost_dollars=(
                self.prewarm_cost_dollars + other.prewarm_cost_dollars
            ),
            tenant_in_flight_peaks=in_flight_peaks,
            tenant_slos=tenant_slos,
            stream=stream,
        )


#: PoolStats fields that combine by max (every other field is additive).
_POOL_STAT_PEAKS = frozenset({"peak_leased_vms", "peak_leased_sls"})


def _merge_pool_stats(
    left: PoolStats | None, right: PoolStats | None
) -> PoolStats | None:
    if left is None or right is None:
        return left if right is None else right
    merged = {}
    for field in dataclasses.fields(PoolStats):
        a, b = getattr(left, field.name), getattr(right, field.name)
        merged[field.name] = max(a, b) if field.name in _POOL_STAT_PEAKS else a + b
    return PoolStats(**merged)


class _Arrival(NamedTuple):
    """One event of the merged multi-trace stream."""

    index: int
    tenant: str
    event: TraceEvent


class _ArrivalState:
    """Mutable retry bookkeeping for one arrival.

    Created lazily on the first failure (or when an arrival joins an
    open sizing group from the admission queue); arrivals that never
    need one keep the legacy stateless accounting bit for bit.  The
    ``basis`` timestamp is where attribution last stopped, so delay
    spans chain contiguously and ``admission + batching + retry_delay``
    always equals submit-time minus arrival-time at the final launch.
    """

    __slots__ = (
        "attempts", "retries", "wasted", "admission", "batching",
        "retry_delay", "basis",
    )

    def __init__(self) -> None:
        self.attempts = 0       # failed attempts so far
        self.retries = 0        # resubmissions actually made
        self.wasted = 0.0       # spend forfeited by revoked leases
        self.admission = 0.0    # accumulated admission-gate wait
        self.batching = 0.0     # accumulated coalescing-window wait
        self.retry_delay = 0.0  # accumulated backoff wait
        self.basis = 0.0        # where attribution last stopped


def _group_bounds(
    times: np.ndarray, window: float | None
) -> Iterable[tuple[int, int]]:
    """Yield the ``[start, end)`` index run of each sizing group.

    ``times`` must be sorted.  A group collects consecutive arrivals
    within ``window`` seconds of its *first* member, so windows never
    chain: 0, 4, 8, 12 under a 5 s window is two groups of two.
    ``window=0`` groups exact ties only and ``window=None`` keeps every
    arrival solo.  Groups may span tenants: coalescing shares a forest
    pass, not a bill.
    """
    n = len(times)
    if n == 0:
        return
    if window is None:
        for position in range(n):
            yield position, position + 1
        return
    ticks = times.tolist()
    start = 0
    for position in range(1, n):
        if ticks[position] - ticks[start] > window:
            yield start, position
            start = position
    yield start, n


class ServingSimulator:
    """Replays workload traces through a bootstrapped Smartpick.

    Parameters
    ----------
    system:
        A bootstrapped :class:`~repro.core.smartpick.Smartpick`.
    slo_seconds:
        The latency SLO reported against.
    pool_config:
        Sizing/keep-alive of the shared cluster; the default is a wide
        cold pool (fresh instances per query, no contention) matching the
        paper's serving model.
    autoscaler:
        Optional keep-alive policy overriding the config's fixed windows.
        Forecast-driven policies (anything exposing ``observe_arrival``,
        e.g. :class:`~repro.core.forecast.PredictiveKeepAlive`) are fed
        every arrival's query class -- via
        :meth:`~repro.core.predictor.WorkloadPredictor.query_class` --
        and the shard it was routed to, closing the serving ->
        forecaster -> pool feedback loop.  Policies that also expose
        ``observe_duration`` receive every completion's actual runtime
        (duration-aware park bounds).
    shard_autoscalers:
        Optional per-shard keep-alive overrides forwarded to the pool
        (``{shard_name: policy}``); forecast-driven entries receive the
        same arrival observations as ``autoscaler``.
    batch_window_s:
        Arrival coalescing window for micro-batched sizing.  Arrivals
        landing within ``batch_window_s`` of a group's first member are
        sized together through one vectorized ``determine_batch`` forest
        pass when the group closes (its last member's arrival time); the
        wait for the window is accounted per query as
        ``batching_delay_s``.  The default ``0.0`` only coalesces
        *exact-tick* arrivals, which wait for nothing; ``None`` disables
        coalescing entirely (with ``decision_reuse=False``, every arrival
        is decided alone through the BO path, the pre-coalescer
        behaviour, bit for bit).  Pass ``"auto"``
        (or an :class:`~repro.core.forecast.AdaptiveBatchWindow`
        instance) to let the window auto-tune per group from the
        observed arrival rate and the measured per-pass decision
        latency: each group then opens at its first arrival and closes
        after the tuner's current window (0 decides solo immediately).
        Note the tuner deliberately mixes clocks -- arrival gaps are
        simulated seconds, decision latency is *measured wall time*
        (in a live deployment both are wall-clock) -- so ``"auto"``
        replays may group differently across hosts; the numeric and
        ``None`` paths stay fully deterministic.
    tenants:
        Quota/weight registry for multi-tenant replays; defaults to the
        system's registry (if any), else a permissive one.
    shards / router / grant_policy:
        Forwarded to every replay's :class:`~repro.cloud.pool.ClusterPool`
        (named capacity partitions, placement policy, queue ordering).
    submission:
        How decided arrivals are turned into running queries.  Both
        values draw each query's task-duration noise as one block at
        submit, so they differ in substrate, not in noise.
        ``"object"`` (default) builds one :class:`TaskScheduler
        <repro.engine.scheduler.TaskScheduler>` per query.  ``"vector"``
        is the fast path: repeat arrivals share a compiled
        :class:`~repro.engine.plan.StagePlan`, a
        :class:`~repro.engine.plan.PlanRunner` simulates each query's
        wave timeline locally at lease grant instead of heap-stepping
        per task, and each sizing group leases through one
        :meth:`ClusterPool.acquire_many
        <repro.cloud.pool.ClusterPool.acquire_many>` pass.  Its reports
        are field-for-field ``"object"``'s (same rng stream,
        event-exact pool interleaving) with two known exceptions: a plan
        runner cannot be cooperatively preempted, and it sorts a fault
        kill that lands exactly on a worker's boot completion first.
    keep_queries:
        Whether the report retains its per-query ``served`` and
        ``dropped`` records (default ``True``).  Every aggregate comes
        from the report's :class:`ServingStream` either way.  A kept
        replay sizes the stream's sketches to the trace, so its
        percentiles are exact at any length; ``False`` keeps no records
        and fixed-size sketches, so replay memory stays O(sketch
        capacity) instead of O(arrivals): the million-arrival mode.
    decision_reuse:
        Reuse sizing decisions across arrivals of the same query class
        (identity + input-size octave + waiting-apps octave) under an
        unchanged model version.  This is the serving-style approximation
        that makes million-arrival replay tractable -- repeated classes
        skip feature building and the forest pass entirely; reused
        decisions carry ``inference_seconds=0`` (a cache lookup), and
        fresh sizings always go through the batched grid path (never the
        per-query BO loop).  Decision *features* (submit epoch, history
        mean, exact waiting count) may therefore be slightly stale for
        reused arrivals.  Default ``True``.  ``False`` is the paper's
        per-query sizing: every arrival is decided with its own exact
        features, solo arrivals through the RF+BO path.
    retry_policy:
        Failure handling for revoked leases (fault injection).  A
        revoked arrival is resubmitted through the admission gate after
        an exponential-backoff delay (jittered deterministically from
        the fault plan's seed) until the policy's retry budget is
        exhausted, at which point it is dropped and reported as failed.
        ``None`` (default) drops on first failure -- the naive-fail
        baseline.
    fault_plan:
        Optional :class:`~repro.cloud.faults.FaultPlan` armed on every
        replay's pool.  ``None`` -- or a plan whose
        :attr:`~repro.cloud.faults.FaultPlan.is_zero` holds -- leaves
        the replay bit-for-bit identical to today's fault-free run: no
        injector is attached and no fault decision is ever drawn.
    max_pending_admission:
        Load-shedding bound on each tenant's admission-gate queue: an
        arrival (or retry) finding the queue at this depth is shed --
        dropped and reported loudly -- instead of waiting forever.
        ``None`` (default) queues unboundedly, exactly as before.
    quota_priced_sizing:
        Feed each tenant's leased-worker quotas
        (``TenantSpec.max_leased_vms`` / ``max_leased_sls``) into the
        Workload Predictor's candidate search bounds, so an over-quota
        configuration is never *chosen* in the first place -- the quota
        is priced into the Eq. 4 cost/latency tradeoff at sizing time
        instead of discovered as ``quota_delay_s`` at grant time.  A
        coalesced group whose members carry *different* bounds falls
        back to per-arrival sizing (each arrival still sees its exact
        waiting count).  Default ``False``: sizing ignores quotas,
        bit for bit the legacy behaviour.

    Tenants with an SLO (``TenantSpec.slo_latency_s``) additionally get
    a deadline threaded onto every lease (``arrival + slo_latency_s``),
    which deadline-aware grant policies
    (:class:`~repro.cloud.pool.DeadlineAwareGrant`) order the queue by;
    when such a policy has preemption enabled, batch-tier arrivals are
    launched preemptible so an interactive tenant's urgent arrival can
    checkpoint-and-requeue a long-running batch query.  Per-tenant SLO
    attainment lands in :meth:`ServingReport.tenant_slo_attainment`.
    """

    def __init__(
        self,
        system: Smartpick,
        slo_seconds: float = 120.0,
        pool_config: PoolConfig | None = None,
        autoscaler: AutoscalerPolicy | None = None,
        batch_window_s: float | None | str | AdaptiveBatchWindow = 0.0,
        tenants: TenantRegistry | None = None,
        shards: dict[str, PoolConfig] | None = None,
        router: ShardRouter | None = None,
        grant_policy: GrantPolicy | None = None,
        shard_autoscalers: dict[str, AutoscalerPolicy] | None = None,
        submission: str = "object",
        keep_queries: bool = True,
        decision_reuse: bool = True,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        max_pending_admission: int | None = None,
        quota_priced_sizing: bool = False,
        planner: FleetPlanner | None = None,
    ) -> None:
        if slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if max_pending_admission is not None and max_pending_admission < 0:
            raise ValueError("max_pending_admission must be non-negative")
        if submission not in ("object", "vector"):
            raise ValueError(
                f"unknown submission {submission!r}; choose 'object' or "
                "'vector'"
            )
        if isinstance(batch_window_s, str):
            if batch_window_s != "auto":
                raise ValueError(
                    "batch_window_s accepts a number, None, 'auto' or an "
                    f"AdaptiveBatchWindow, not {batch_window_s!r}"
                )
        elif (
            not isinstance(batch_window_s, AdaptiveBatchWindow)
            and batch_window_s is not None
            and batch_window_s < 0
        ):
            raise ValueError("batch_window_s must be non-negative (or None)")
        if not system.predictor.is_trained:
            raise ValueError("bootstrap the system before serving a trace")
        self.system = system
        self.slo_seconds = slo_seconds
        self._default_pool = pool_config is None and shards is None
        self.pool_config = pool_config or PoolConfig()
        self.autoscaler = autoscaler
        self.batch_window_s = batch_window_s
        self.tenants = tenants if tenants is not None else system.tenants
        self.shards = shards
        self.router = router
        self.grant_policy = grant_policy
        self.shard_autoscalers = shard_autoscalers
        self.submission = submission
        self.keep_queries = keep_queries
        self.decision_reuse = decision_reuse
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.max_pending_admission = max_pending_admission
        self.quota_priced_sizing = quota_priced_sizing
        #: Epoch-level fleet planner (None = reactive serving, bit for
        #: bit).  Each replay runs on a ``planner.fresh()`` copy, so a
        #: scenario-embedded planner cannot leak state across replays.
        self.planner = planner

    def _batch_tuner(self) -> AdaptiveBatchWindow | None:
        """The adaptive-window tuner for one replay (None = static path).

        ``"auto"`` builds a fresh default tuner per replay so successive
        replays do not leak each other's observed state; a caller-made
        instance is used as-is (the caller owns warm-starting it).
        """
        if self.batch_window_s == "auto":
            return AdaptiveBatchWindow()
        if isinstance(self.batch_window_s, AdaptiveBatchWindow):
            return self.batch_window_s
        return None

    def replay(
        self,
        trace: WorkloadTrace | ColumnarTrace,
        knob: float | None = None,
        mode: str = "hybrid",
    ) -> ServingReport:
        """Serve every arrival of ``trace`` in one shared simulation.

        Arrivals are interleaved events on a single simulator: a query
        submitted while earlier ones are still running contends with them
        for pool capacity instead of executing in a vacuum.  Arrivals
        coalesced into one sizing group (see ``batch_window_s``) share a
        single vectorized forest pass.  Under ``decision_reuse=True``
        (the default) a repeat of a query class reuses its decision and
        every reuse miss, solo or grouped, is sized through the batched
        grid path; with ``decision_reuse=False`` a solo arrival goes
        through the per-query RF+BO determination.  Traces may be
        event-object (:class:`WorkloadTrace`) or columnar
        (:class:`ColumnarTrace`); both drain identically.
        """
        return self._replay([(DEFAULT_TENANT, trace)], knob=knob, mode=mode)

    def replay_multi(
        self,
        traces: Mapping[str, WorkloadTrace | ColumnarTrace]
        | Iterable[tuple[str, WorkloadTrace | ColumnarTrace]],
        knob: float | None = None,
        mode: str = "hybrid",
    ) -> ServingReport:
        """Serve several tenants' traces as one interleaved event stream.

        Every ``(tenant, trace)`` pair is merged into a single
        time-ordered arrival stream (ties broken by pair order) replayed
        over ONE shared simulator and pool, so tenants genuinely contend:
        the pool's grant policy arbitrates saturation, leased-worker
        quotas throttle greedy tenants, and ``max_in_flight`` quotas gate
        admission here.  The report carries per-tenant slices, fairness
        and chargeback; with a single pair it is field-for-field the
        :meth:`replay` report (modulo the tenant name).
        """
        pairs = (
            list(traces.items())
            if isinstance(traces, Mapping)
            else list(traces)
        )
        seen: set[str] = set()
        for tenant, _ in pairs:
            if not tenant:
                raise ValueError("tenant names must be non-empty")
            if tenant in seen:
                raise ValueError(f"duplicate tenant {tenant!r}")
            seen.add(tenant)
        return self._replay(pairs, knob=knob, mode=mode)

    def _replay(
        self,
        pairs: list[tuple[str, WorkloadTrace]],
        knob: float | None,
        mode: str,
    ) -> ServingReport:
        return _Replay(self, pairs, knob, mode).run()


class _Replay:
    """One replay: its state and the Figure 3 workflow steps over it.

    Built and run once by :meth:`ServingSimulator._replay`.  The drain
    (:meth:`run`) hands each sizing group to :meth:`submit_group`, which
    passes it through the per-tenant in-flight gate;
    :meth:`submit_batch` decides the admitted arrivals and
    :meth:`launch_group` starts them.  Each launch registers one entry
    tuple of decision context keyed by arrival index, and the runner or
    execution calls back :meth:`complete` or :meth:`fail`, which book the
    outcome and admit the next waiter of the tenant.

    Every completion buffers one :func:`_completion_row`, and the buffer
    flushes through :meth:`ServingStream.observe_columns` every
    :data:`_FLUSH_EVERY` completions and once at replay end.  With
    ``keep_queries=True`` (``served`` is a list) each completion also
    builds its :class:`ServedQuery` record.  Drops feed the stream
    immediately; they only touch counters and an order-independent
    exact sum, so interleaving is immaterial.
    """

    _FLUSH_EVERY = 4096

    __slots__ = (
        "serving", "knob", "mode", "registry", "simulator", "pool",
        "planner", "forecast_observers", "duration_observers",
        "feeds_arrivals", "tuner", "duration_model", "initializer",
        "predictor", "tenant_names", "times", "query_ids", "query_index",
        "input_gbs", "tenant_index", "n_arrivals", "last_arrival_s",
        "preempt_enabled", "tenant_slo_map", "tenant_tiers",
        "sizing_bounds", "stream", "served", "dropped",
        "pending_admission", "states", "entries", "in_flight_total",
        "tenant_in_flight", "in_flight_peaks", "n_terminated", "rows",
        "row_tenants", "vector", "plans", "policy_cache",
        "open_group", "fault_seed", "decision_cache", "epochs_planned",
    )

    def __init__(
        self,
        serving: ServingSimulator,
        pairs: list[tuple[str, WorkloadTrace]],
        knob: float | None,
        mode: str,
    ) -> None:
        self.serving = serving
        self.knob = knob
        self.mode = mode
        # `is not None`, not truthiness: an *empty* strict registry is
        # falsy (len 0) but must still reject unknown tenants.
        registry = self.registry = (
            serving.tenants
            if serving.tenants is not None
            else TenantRegistry()
        )
        system = serving.system
        simulator = self.simulator = Simulator()
        # A zero plan attaches NO injector at all: the fault-free replay
        # is bit-for-bit today's, with no draws and no extra events.
        injector = None
        if serving.fault_plan is not None and not serving.fault_plan.is_zero:
            injector = FaultInjector(serving.fault_plan)
        pool = self.pool = ClusterPool(
            simulator,
            provider=system.provider,
            prices=system.prices,
            config=serving.pool_config,
            autoscaler=serving.autoscaler,
            shards=serving.shards,
            router=serving.router,
            tenants=registry,
            grant_policy=serving.grant_policy,
            shard_autoscalers=serving.shard_autoscalers,
            fault_injector=injector,
        )
        # Epoch planning runs on a fresh copy of the configured planner,
        # so replays stay deterministic however often the simulator is
        # reused.  A forecast-aware router must read the SAME planner
        # instance the replay feeds, so it is rebound to the fresh copy.
        planner = self.planner = (
            serving.planner.fresh() if serving.planner is not None else None
        )
        if planner is not None and isinstance(
            pool.router, ForecastAwareRouter
        ):
            pool.router = ForecastAwareRouter(planner)
        policies = (
            serving.autoscaler,
            *(serving.shard_autoscalers or {}).values(),
        )
        # Forecast-driven autoscalers duck-type on `observe_arrival`;
        # they receive every arrival's query class and routed shard.
        # Dedup keys on the observation SINK (the forecaster when the
        # policy exposes one), so per-shard policies sharing one
        # forecaster do not double-feed it -- duplicate same-timestamp
        # observations would floor the gap EWMA to min_gap_s.
        forecast_observers = self.forecast_observers = []
        seen_sinks: set[int] = set()
        for policy in policies:
            if policy is None or not hasattr(policy, "observe_arrival"):
                continue
            sink = getattr(policy, "forecaster", policy)
            if id(sink) in seen_sinks:
                continue
            seen_sinks.add(id(sink))
            forecast_observers.append(policy)
        # Duration-aware policies additionally duck-type on
        # `observe_duration`: every completion's actual runtime feeds
        # their park-bound widening.  Dedup on the policy itself -- the
        # duration EWMA lives there, not on the shared forecaster.
        duration_observers = self.duration_observers = []
        seen_policies: set[int] = set()
        for policy in policies:
            if policy is None or not hasattr(policy, "observe_duration"):
                continue
            if id(policy) in seen_policies:
                continue
            seen_policies.add(id(policy))
            duration_observers.append(policy)
        self.feeds_arrivals = bool(forecast_observers) or planner is not None
        # Serving feeds scopes actively, so pin every shard's scope up
        # front: a shard that never receives a routed arrival then
        # forecasts "drained" instead of falling back to the global
        # stream (the fallback exists for direct pool users who never
        # feed scopes at all).
        for observer in forecast_observers:
            forecaster = getattr(observer, "forecaster", None)
            ensure_scope = getattr(forecaster, "ensure_scope", None)
            if ensure_scope is not None:
                for shard_name in pool.shard_names:
                    ensure_scope(shard_name)
        self.tuner = serving._batch_tuner()
        # One duration model, seeded from the system's master generator,
        # keeps the whole replay deterministic for a given seed.
        self.duration_model = TaskDurationModel(
            provider=system.provider, rng=system.rng
        )
        self.initializer = system.job_initializer
        self.predictor = system.predictor

        # Merge the per-tenant traces into one time-ordered column set;
        # the sort is stable, so equal arrival times keep pair order and
        # a single-trace replay preserves its exact trace order.  The
        # drain walks these columns, building each arrival's record
        # only when its group fires.
        tenant_names = self.tenant_names = [tenant for tenant, _ in pairs]
        (self.times, self.query_ids, self.query_index, self.input_gbs,
         self.tenant_index) = merge_arrival_columns(pairs)
        n_arrivals = self.n_arrivals = len(self.times)
        # Epoch ticks stop after the last arrival -- a plan nobody will
        # arrive to use is wasted money.
        self.last_arrival_s = float(self.times[-1]) if n_arrivals else 0.0

        # SLO-tier serving state, all inert when no tenant declares an
        # SLO and the grant policy does not preempt: deadlines stay
        # None, nothing launches preemptible, and sizing bounds stay
        # unconstrained -- the legacy replay bit for bit.
        self.preempt_enabled = bool(
            getattr(serving.grant_policy, "preempt", False)
        )
        tenant_slo_map = self.tenant_slo_map = {}
        tenant_tiers = self.tenant_tiers = {}
        # Candidate-search (nVM, nSL) caps per tenant: its lease quotas
        # under quota-priced sizing, none otherwise.
        sizing_bounds = self.sizing_bounds = {}
        for tenant in tenant_names:
            spec = registry.get(tenant)
            if spec.slo_latency_s is not None:
                tenant_slo_map[tenant] = spec.slo_latency_s
            tenant_tiers[tenant] = spec.tier
            sizing_bounds[tenant] = (
                (spec.max_leased_vms, spec.max_leased_sls)
                if serving.quota_priced_sizing
                else (None, None)
            )

        # The stream carries every aggregate; keep_queries toggles only
        # the per-query lists.  A kept replay already holds O(arrivals)
        # records, so its sketches hold the whole stream and stay exact.
        keep = serving.keep_queries
        self.stream = ServingStream(
            serving.slo_seconds,
            sketch_capacity=(
                max(_SKETCH_CAPACITY, n_arrivals) if keep else _SKETCH_CAPACITY
            ),
            tenant_slos=tenant_slo_map,
        )
        for tenant in tenant_names:
            self.stream.ensure_tenant(tenant)
        self.served: list[ServedQuery | None] | None = (
            [None] * n_arrivals if keep else None
        )
        self.dropped: list[DroppedQuery] | None = [] if keep else None
        self.pending_admission: dict[str, collections.deque[_Arrival]] = (
            collections.defaultdict(collections.deque)
        )
        # Retry bookkeeping, keyed by arrival index; absent for every
        # arrival the fault plan never touches (see _ArrivalState).
        self.states: dict[int, _ArrivalState] = {}
        #: arrival index -> (arrival, query, context, decision, waiting,
        #: batch_size, batching_delay, admission_delay)
        self.entries: dict[int, tuple] = {}
        self.in_flight_total = 0
        self.tenant_in_flight: collections.Counter[str] = (
            collections.Counter()
        )
        self.in_flight_peaks: dict[str, int] = {}
        self.n_terminated = 0
        self.rows: list[tuple] = []
        self.row_tenants: list[str] = []
        self.vector = serving.submission == "vector"
        # Compiled execution plans, keyed by the memoized query object:
        # repeat arrivals of a class skip the per-query scheduler build.
        self.plans: dict[int, StagePlan] = {}
        # Termination policies are stateless and depend only on which
        # sides of the split are populated, so one instance per shape
        # serves every arrival.
        self.policy_cache: dict[tuple[bool, bool], object] = {}
        # The adaptive drain's currently open sizing group, so retried
        # and admitted arrivals can join it (shared forest pass) instead
        # of always deciding solo.  Static windows never fill it.
        self.open_group: list[_Arrival] = []
        self.fault_seed = (
            serving.fault_plan.seed if serving.fault_plan is not None else 0
        )
        # Class-level decision reuse (see ``decision_reuse``): one cache
        # per replay, invalidated entry-wise when the model retrains.
        # key -> (model_version, context, decision, zero-inference reuse
        # decision); see the cache-hit path in submit_batch.
        self.decision_cache: dict[tuple, tuple] = {}
        self.epochs_planned = 0

    # ------------------------------------------------------------------
    # The drain
    # ------------------------------------------------------------------

    def run(self) -> ServingReport:
        """Drain every arrival, then build the report."""
        serving = self.serving
        simulator = self.simulator
        pool = self.pool
        planner = self.planner
        times = self.times
        n_arrivals = self.n_arrivals
        # Epoch boundaries are ordinary simulator events.
        if planner is not None and n_arrivals:
            planner.begin(float(times[0]))
            first_end = float(times[0]) + planner.epoch_s
            if first_end <= self.last_arrival_s:
                simulator.schedule_at(first_end, self.epoch_tick)
        # Each sizing group fires at its decide time (its last member's
        # arrival) after ``run_before`` has fired every pending event
        # strictly before that time, so a group fires ahead of any
        # runtime event -- an epoch tick included -- at the same
        # timestamp.  The adaptive tuner's window evolves with every
        # arrival, so under it each arrival is its own step and
        # ``on_arrival`` does the grouping; a ``close_group`` scheduled
        # at the next arrival's timestamp fires after that arrival.
        fuse = max(DEFAULT_EVENT_BUDGET, 64 * n_arrivals)
        static = self.tuner is None
        window = serving.batch_window_s if static else None
        for start, end in _group_bounds(times, window):
            fire = float(times[end - 1])
            simulator.run_before(fire, max_events=fuse)
            if static:
                self.submit_group(
                    [self.make_arrival(i) for i in range(start, end)],
                    decide_time=fire,
                )
            else:
                self.on_arrival(self.make_arrival(start))
        simulator.run(max_events=fuse)
        pool.shutdown()
        self.flush()
        if self.n_terminated != n_arrivals:
            raise RuntimeError("some trace arrivals never completed")
        if self.stream.n_shed > 0:
            # Load shedding rejects work the trace asked for; never do
            # that silently.
            warnings.warn(
                f"{self.stream.n_shed} arrivals shed at the admission "
                f"gate (max_pending_admission="
                f"{serving.max_pending_admission}); the report's shed_rate "
                "reflects rejected work",
                RuntimeWarning,
                stacklevel=4,
            )
        if serving._default_pool and pool.stats.leases_queued > 0:
            # The default pool is wide, but any finite cap can contend.
            # Queueing under the *default* config means the replay no
            # longer matches the paper's contention-free serving model --
            # make that loud rather than silently different.
            warnings.warn(
                f"{pool.stats.leases_queued} arrivals queued for capacity "
                "under the default pool config; pass an explicit "
                "PoolConfig sized for this trace (or expect queueing "
                "delays in the report)",
                RuntimeWarning,
                stacklevel=4,
            )
        return ServingReport(
            served=(
                [record for record in self.served if record is not None]
                if self.served is not None
                else []
            ),
            slo_seconds=serving.slo_seconds,
            pool_stats=pool.stats,
            keepalive_cost_dollars=pool.keepalive_cost_dollars,
            keepalive_cost_by_shard=pool.keepalive_cost_by_shard,
            tenant_weights={
                tenant: self.registry.weight(tenant)
                for tenant in self.tenant_names
            },
            tenant_peaks=pool.tenant_peaks,
            dropped=self.dropped if self.dropped is not None else [],
            wasted_cost_dollars=pool.wasted_cost_dollars,
            wasted_cost_by_shard=pool.wasted_cost_by_shard,
            epochs_planned=self.epochs_planned,
            prewarm_cost_dollars=pool.prewarm_cost_dollars,
            tenant_in_flight_peaks=self.in_flight_peaks,
            tenant_slos=dict(self.tenant_slo_map),
            stream=self.stream,
        )

    def make_arrival(self, position: int) -> _Arrival:
        """The record of the merged stream's ``position``-th arrival."""
        return _Arrival(
            index=position,
            tenant=self.tenant_names[self.tenant_index[position]],
            event=TraceEvent(
                arrival_s=float(self.times[position]),
                query_id=self.query_ids[self.query_index[position]],
                input_gb=float(self.input_gbs[position]),
            ),
        )

    def epoch_tick(self) -> None:
        simulator = self.simulator
        planner = self.planner
        self.pool.apply_plan(planner.on_epoch_end(self.pool, simulator.now))
        self.epochs_planned += 1
        next_end = simulator.now + planner.epoch_s
        if next_end <= self.last_arrival_s:
            simulator.schedule_at(next_end, self.epoch_tick)

    # The adaptive coalescer is event-driven: each arrival either joins
    # the open group (retries and gate re-admissions can join it too),
    # opens a new one that closes after the tuner's *current* window, or
    # -- when the window is 0 -- decides solo immediately (the
    # break-even says a wait is not worth a shared pass right now).
    # Static windows never call these handlers.

    def on_arrival(self, arrival: _Arrival) -> None:
        tuner = self.tuner
        tuner.observe_arrival(arrival.event.arrival_s)
        if self.open_group:
            self.open_group.append(arrival)
            return
        window = tuner.window()
        if window <= 0.0:
            self.submit_group([arrival], decide_time=self.simulator.now)
            return
        self.open_group.append(arrival)
        self.simulator.schedule(window, self.close_group)

    def close_group(self) -> None:
        group = list(self.open_group)
        self.open_group.clear()
        self.submit_group(group, decide_time=self.simulator.now)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admits(self, arrival: _Arrival, admitted_ahead: int) -> bool:
        cap = self.registry.get(arrival.tenant).max_in_flight
        if cap is None:
            return True
        return self.tenant_in_flight[arrival.tenant] + admitted_ahead < cap

    def submit_group(self, group: list[_Arrival], decide_time: float) -> None:
        admitted: list[_Arrival] = []
        for arrival in group:
            ahead = sum(1 for a in admitted if a.tenant == arrival.tenant)
            if self.admits(arrival, ahead):
                admitted.append(arrival)
            else:
                self.defer(arrival)
        if admitted:
            self.submit_batch(admitted, decide_time=decide_time)

    def admit_next(self, tenant: str) -> None:
        """A termination freed an in-flight slot; admit one waiter."""
        queue = self.pending_admission.get(tenant)
        if not queue or not self.admits(queue[0], 0):
            return
        arrival = queue.popleft()
        now = self.simulator.now
        st = self.states.get(arrival.index)
        if st is not None:
            # A retried arrival re-enters the gate: the wait since its
            # resubmission is admission delay.
            st.admission += now - st.basis
            st.basis = now
            self.enter(arrival)
        elif self.tuner is not None and self.open_group:
            # Adaptive coalescing: the freed slot lands while a sizing
            # group is open -- join it and share the imminent forest
            # pass instead of deciding solo.
            st = self.states[arrival.index] = _ArrivalState()
            st.admission = now - arrival.event.arrival_s
            st.basis = now
            self.open_group.append(arrival)
        else:
            self.submit_batch([arrival], decide_time=arrival.event.arrival_s)

    def enter(self, arrival: _Arrival) -> None:
        """Submit a retried/re-admitted arrival for sizing now."""
        if self.tuner is not None and self.open_group:
            self.open_group.append(arrival)
            return
        self.submit_batch([arrival], decide_time=self.simulator.now)

    def defer(self, arrival: _Arrival) -> None:
        """Queue at the admission gate, shedding over the bound."""
        queue = self.pending_admission[arrival.tenant]
        bound = self.serving.max_pending_admission
        if bound is not None and len(queue) >= bound:
            self.drop(arrival, "shed")
            return
        queue.append(arrival)

    # ------------------------------------------------------------------
    # Decide and launch
    # ------------------------------------------------------------------

    def submit_batch(self, batch: list[_Arrival], decide_time: float) -> None:
        initializer = self.initializer
        knob = self.knob
        mode = self.mode
        sizing_bounds = self.sizing_bounds
        states = self.states
        # Queries still queued or running when this batch decides are
        # "waiting applications"; members of the batch additionally see
        # the members ahead of them, exactly as if they had been
        # submitted one after another at the same instant.
        waiting_base = self.in_flight_total
        queries = [
            get_query(a.event.query_id, input_gb=a.event.input_gb)
            for a in batch
        ]
        if self.serving.decision_reuse:
            # Class-level reuse: arrivals of the same query class under
            # a similar load octave share one grid decision until the
            # model retrains.  Hits cost no forest pass
            # (inference_seconds=0); misses batch through one vectorised
            # decide_many call.
            predictor = self.predictor
            decision_cache = self.decision_cache
            version = predictor.model_version
            keys: list[tuple] = []
            slots: list[tuple | None] = [None] * len(batch)
            misses: list[int] = []
            for position, arrival in enumerate(batch):
                key = (
                    predictor.query_class(
                        arrival.event.query_id, arrival.event.input_gb
                    ),
                    (waiting_base + position).bit_length(),
                    mode,
                    sizing_bounds[arrival.tenant],
                )
                keys.append(key)
                hit = decision_cache.get(key)
                if hit is not None and hit[0] == version:
                    # hit[3] is the pre-zeroed reuse decision built once
                    # at insert time (hits cost no forest pass, so they
                    # report inference_seconds=0); sharing one immutable
                    # decision object across hits replaces a
                    # per-arrival dataclasses.replace.
                    slots[position] = (hit[1], hit[3])
                else:
                    misses.append(position)
            if misses:
                # One decide_many per distinct quota bound (a single
                # unconstrained group when sizing ignores quotas).
                miss_groups: dict[tuple, list[int]] = {}
                for p in misses:
                    miss_groups.setdefault(keys[p][3], []).append(p)
                for (bound_vm, bound_sl), positions in miss_groups.items():
                    fresh = initializer.decide_many(
                        [queries[p] for p in positions],
                        knob=knob,
                        mode=mode,
                        num_waiting_apps=waiting_base,
                        max_vm=bound_vm,
                        max_sl=bound_sl,
                    )
                    for p, (context, decision) in zip(positions, fresh):
                        slots[p] = (context, decision)
                        # Re-read the version: a retrain during decide
                        # (alien-triggered) must not resurrect entries.
                        decision_cache[keys[p]] = (
                            predictor.model_version,
                            context,
                            decision,
                            dataclasses.replace(
                                decision, inference_seconds=0.0
                            ),
                        )
            decided = slots
        elif len(batch) == 1:
            bound_vm, bound_sl = sizing_bounds[batch[0].tenant]
            decided = [
                initializer.decide(
                    queries[0],
                    knob=knob,
                    mode=mode,
                    num_waiting_apps=waiting_base,
                    max_vm=bound_vm,
                    max_sl=bound_sl,
                )
            ]
        else:
            batch_bounds = {sizing_bounds[a.tenant] for a in batch}
            if len(batch_bounds) == 1:
                bound_vm, bound_sl = next(iter(batch_bounds))
                decided = initializer.decide_many(
                    queries,
                    knob=knob,
                    mode=mode,
                    num_waiting_apps=waiting_base,
                    max_vm=bound_vm,
                    max_sl=bound_sl,
                )
            else:
                # Mixed quota bounds in one coalesced group: size per
                # arrival so each query's grid honours its own tenant's
                # cap (and its exact waiting count).
                decided = [
                    initializer.decide(
                        query,
                        knob=knob,
                        mode=mode,
                        num_waiting_apps=waiting_base + position,
                        max_vm=sizing_bounds[arrival.tenant][0],
                        max_sl=sizing_bounds[arrival.tenant][1],
                    )
                    for position, (arrival, query) in enumerate(
                        zip(batch, queries)
                    )
                ]
        if self.tuner is not None:
            # Per-query inference_seconds amortise one pass equally, so
            # their sum is the measured wall time of this pass.
            self.tuner.observe_decision(
                sum(decision.inference_seconds for _, decision in decided)
            )
        now = self.simulator.now
        entries: list[tuple] = []
        for offset, (arrival, query, (context, decision)) in enumerate(
            zip(batch, queries, decided)
        ):
            st = states.get(arrival.index)
            if st is None:
                batching_delay = decide_time - arrival.event.arrival_s
                admission_delay = 0.0
                if now > decide_time:
                    # Re-submitted through the admission gate: the wait
                    # past the group's window close is admission delay.
                    admission_delay = now - decide_time
            else:
                # Stateful arrivals accumulate spans from wherever
                # attribution last stopped, so the components still sum
                # to submit-time minus arrival-time.
                st.batching += max(decide_time - st.basis, 0.0)
                st.basis = decide_time
                if now > decide_time:
                    st.admission += now - decide_time
                    st.basis = now
                batching_delay = st.batching
                admission_delay = st.admission
            entries.append((
                arrival,
                query,
                context,
                decision,
                waiting_base + offset,
                len(batch),
                batching_delay,
                admission_delay,
            ))
        self.launch_group(entries)

    def launch_group(self, entries: list[tuple]) -> None:
        """Launch a decided group's arrivals (entry tuples).

        ``submission="vector"`` runs every arrival through a compiled
        :class:`PlanRunner` and leases the whole group through ONE
        ``acquire_many`` pass; the other submissions start each arrival
        with ``launch_query``.  Pool acquisition order is arrival order
        either way.  Task-noise draws also stay in arrival order: the
        duration model and the pool share no rng, so hoisting every
        ``begin()`` ahead of its grant changes no stream.
        """
        pool = self.pool
        duration_model = self.duration_model
        states = self.states
        policy_cache = self.policy_cache
        vector = self.vector
        feeds_arrivals = self.feeds_arrivals
        observed: list[tuple[_Arrival, object]] = []
        runners: list[PlanRunner] = []
        requests: list[tuple] = []
        noise_slices: list[list[float]] | None = None
        if vector and len(entries) > 1:
            # Draw ONE noise block for the group and hand each runner
            # its slice: ``Generator.normal`` fills arrays sequentially
            # from the bitstream, so a group-sized draw split in entry
            # order is bitwise identical to per-runner draws.
            sizes = [e[1].total_tasks for e in entries]
            block = duration_model.noise_block(sum(sizes)).tolist()
            noise_slices = []
            offset = 0
            for size in sizes:
                noise_slices.append(block[offset:offset + size])
                offset += size
        for position, entry in enumerate(entries):
            arrival, query, _context, decision = entry[:4]
            index = arrival.index
            st = states.get(index)
            first_attempt = st is None or st.attempts == 0
            shape = (decision.n_vm > 0, decision.n_sl > 0)
            policy = policy_cache.get(shape)
            if policy is None:
                policy = policy_cache[shape] = (
                    self.initializer.execution_policy(
                        decision.n_vm, decision.n_sl
                    )
                )
            self.register(index, entry)
            # SLO tiers: the deadline is anchored at the *arrival*
            # (retries keep the original promise), and only batch-tier
            # work is launched preemptible -- an interactive query is
            # never a preemption victim.
            slo = self.tenant_slo_map.get(arrival.tenant)
            deadline = (
                arrival.event.arrival_s + slo if slo is not None else None
            )
            if vector:
                plan = self.plans.get(id(query))
                if plan is None:
                    plan = self.plans[id(query)] = StagePlan(
                        query, duration_model
                    )
                holder = PlanRunner(
                    plan,
                    pool,
                    duration_model,
                    policy,
                    tenant=arrival.tenant,
                    on_complete=functools.partial(self.complete, index),
                    on_failed=functools.partial(self.fail, index),
                )
                requests.append(holder.begin(
                    decision.n_vm,
                    decision.n_sl,
                    None if noise_slices is None else noise_slices[position],
                    deadline_s=deadline,
                ))
                runners.append(holder)
            else:
                holder = launch_query(
                    query,
                    n_vm=decision.n_vm,
                    n_sl=decision.n_sl,
                    pool=pool,
                    policy=policy,
                    duration_model=duration_model,
                    on_complete=functools.partial(self.complete, index),
                    on_failed=functools.partial(self.fail, index),
                    tenant=arrival.tenant,
                    deadline_s=deadline,
                    preemptible=(
                        self.preempt_enabled
                        and self.tenant_tiers.get(arrival.tenant, "batch")
                        == "batch"
                    ),
                )
            if feeds_arrivals and first_attempt:
                observed.append((arrival, holder))
        if vector:
            # Binding after the batch is safe: revocation can only fire
            # from a *future* simulator event.
            for runner, lease in zip(runners, pool.acquire_many(requests)):
                runner.bind(lease)
        for arrival, holder in observed:
            # The lease is routed (and, when capacity allows -- stealing
            # included -- granted) synchronously inside the acquire, so
            # lease.shard is the serving shard for every immediate grant.
            # A lease that *queues* and is later stolen observes its
            # routed home instead: the shard the affinity policy wanted
            # its warmth on.  Feeding after the loop is equivalent to
            # feeding between acquires: nothing in the pool reads the
            # forecaster synchronously.
            class_key = self.predictor.query_class(
                arrival.event.query_id, arrival.event.input_gb
            )
            lease = holder.lease
            for observer in self.forecast_observers:
                observer.observe_arrival(
                    class_key, arrival.event.arrival_s, scope=lease.shard
                )
            if self.planner is not None:
                # The epoch records the *granted* worker counts (the
                # lease's, capacity/quota-clamped), not the decided
                # ones: forecasting clamped demand would re-amplify
                # exactly what the pool refused to grant.
                self.planner.observe_arrival(
                    arrival.tenant,
                    class_key,
                    arrival.event.input_gb,
                    shard=lease.shard,
                    n_vm=lease.n_vm,
                    n_sl=lease.n_sl,
                )

    # ------------------------------------------------------------------
    # Terminations
    # ------------------------------------------------------------------

    def register(self, index: int, entry: tuple) -> None:
        self.entries[index] = entry
        self.in_flight_total += 1
        tenant = entry[0].tenant
        count = self.tenant_in_flight[tenant] + 1
        self.tenant_in_flight[tenant] = count
        if count > self.in_flight_peaks.get(tenant, 0):
            self.in_flight_peaks[tenant] = count

    def complete(self, index: int, holder) -> None:
        """``on_complete`` of arrival ``index``'s runner or execution
        (both expose ``result`` and ``lease``)."""
        result = holder.result
        lease = holder.lease
        (arrival, query, context, decision, waiting, batch_size,
         batching_delay, admission_delay) = self.entries.pop(index)
        self.in_flight_total -= 1
        self.tenant_in_flight[arrival.tenant] -= 1
        st = self.states.pop(index, None)
        assert result is not None
        outcome = self.initializer.finalize(
            query,
            context,
            decision,
            result,
            # A clamped lease executed a different configuration than
            # predicted -- and a preempted query's wall time includes a
            # checkpoint/requeue detour; either way the error says
            # nothing about the model (the run itself still feeds the
            # history).
            observe_error=(
                not lease.was_clamped
                and getattr(result, "n_preemptions", 0) == 0
            ),
        )
        for policy in self.duration_observers:
            policy.observe_duration(outcome.actual_seconds)
        if self.planner is not None:
            self.planner.observe_duration(outcome.actual_seconds)
        n_retries = st.retries if st is not None else 0
        # Wasted spend has two sources: failed attempts booked on the
        # arrival state, and cooperative preemptions carried on the
        # result itself (the preempted attempt's forfeited lease bill).
        wasted = (st.wasted if st is not None else 0.0) + getattr(
            result, "wasted_cost_dollars", 0.0
        )
        retry_delay = st.retry_delay if st is not None else 0.0
        # Same term order as ServedQuery.latency_s, so the buffered
        # value is bit-identical to the record's.
        latency = (
            admission_delay
            + batching_delay
            + retry_delay
            + result.queueing_delay_s
            + outcome.actual_seconds
        )
        self.rows.append(_completion_row(
            latency, result.queueing_delay_s, admission_delay,
            result.quota_delay_s, outcome, batch_size, n_retries, wasted,
        ))
        self.row_tenants.append(arrival.tenant)
        if len(self.rows) >= self._FLUSH_EVERY:
            self.flush()
        if self.served is not None:
            self.served[arrival.index] = ServedQuery(
                arrival_s=arrival.event.arrival_s,
                outcome=outcome,
                waiting_apps_at_submit=waiting,
                queueing_delay_s=result.queueing_delay_s,
                decision_batch_size=batch_size,
                batching_delay_s=batching_delay,
                tenant=arrival.tenant,
                admission_delay_s=admission_delay,
                quota_delay_s=result.quota_delay_s,
                n_retries=n_retries,
                wasted_cost_dollars=wasted,
                retry_delay_s=retry_delay,
            )
        self.n_terminated += 1
        self.admit_next(arrival.tenant)

    def fail(self, index: int, holder, reason: str) -> None:
        """``on_failed`` of arrival ``index``'s runner or execution.

        A lease revocation killed this attempt mid-flight.  The partial
        spend it forfeited is already in the pool's wasted ledger;
        mirror it per arrival so the chargeback attributes it to the
        owning tenant.  The failed attempt never reaches ``finalize``:
        aborted runs must not feed the model's history.
        """
        (arrival, _query, _context, _decision, _waiting, _batch_size,
         batching_delay, admission_delay) = self.entries.pop(index)
        self.in_flight_total -= 1
        self.tenant_in_flight[arrival.tenant] -= 1
        st = self.states.get(index)
        if st is None:
            st = self.states[index] = _ArrivalState()
            st.admission = admission_delay
            st.batching = batching_delay
        st.attempts += 1
        st.wasted += holder.lease.revoked_cost.total
        self.handle_failure(arrival, st)
        self.admit_next(arrival.tenant)

    def handle_failure(self, arrival: _Arrival, st: _ArrivalState) -> None:
        """Retry (after a backoff) or drop a failed attempt's arrival."""
        retry_policy = self.serving.retry_policy
        if (
            retry_policy is not None
            and st.attempts <= retry_policy.max_retries
        ):
            # The same stateless hash-uniform scheme the injector uses:
            # backoff jitter is reproducible per (arrival, attempt) and
            # independent of event interleaving.
            key = f"{self.fault_seed}|retry|{arrival.index}|{st.attempts}"
            u = (zlib.crc32(key.encode("utf-8")) + 0.5) / 2**32
            self.simulator.schedule(
                retry_policy.backoff(st.attempts, u),
                functools.partial(self.resubmit, arrival),
            )
        else:
            self.drop(arrival, "failed")

    def resubmit(self, arrival: _Arrival) -> None:
        """The backoff expired: route the retry back through admission,
        the quota gate and the coalescer."""
        now = self.simulator.now
        st = self.states[arrival.index]
        st.retries += 1
        # Cumulative by construction: total elapsed minus what the other
        # components already claimed.
        st.retry_delay = (
            now - arrival.event.arrival_s - st.admission - st.batching
        )
        st.basis = now
        if self.admits(arrival, 0):
            self.enter(arrival)
        else:
            self.defer(arrival)

    def drop(self, arrival: _Arrival, reason: str) -> None:
        """Terminate an arrival without serving it (loudly counted)."""
        st = self.states.pop(arrival.index, None)
        record = DroppedQuery(
            arrival_s=arrival.event.arrival_s,
            query_id=arrival.event.query_id,
            tenant=arrival.tenant,
            reason=reason,
            n_retries=st.retries if st is not None else 0,
            wasted_cost_dollars=st.wasted if st is not None else 0.0,
        )
        self.stream.observe_drop(record)
        self.n_terminated += 1
        if self.dropped is not None:
            self.dropped.append(record)

    def flush(self) -> None:
        """Drain the buffered completion rows into the stream."""
        if not self.rows:
            return
        self.stream.observe_columns(
            self.row_tenants, np.array(self.rows, dtype=np.float64)
        )
        self.rows = []
        self.row_tenants = []
