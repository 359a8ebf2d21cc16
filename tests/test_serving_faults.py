"""Fault injection, retries, and failure-aware serving.

Coverage in three layers:

- Deterministic unit tests against :class:`FaultPlan` /
  :class:`RetryPolicy` / a raw :class:`ClusterPool` pin the fault
  mechanics: seeded kill schedules, lease revocation billing into the
  wasted-cost ledger, stale-kill inertness, circuit-breaking routing,
  straggler inflation.
- Replay-level tests pin the failure-aware serving loop: retry-with-
  backoff vs naive-fail availability, loud load shedding, reliability
  fields surviving streaming mode and report merging, and the
  coalescer's open-group join for admission-released and retried
  arrivals.
- A hypothesis property asserts the global "no query lost" contract:
  every arrival terminates exactly once, costs are conserved, and
  admission quotas hold even while retries re-enter the gate.
"""

import hashlib
import math
import warnings
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import FaultInjector, FaultPlan
from repro.cloud.instances import (
    InstanceKind,
    InstanceState,
    ServerlessInstance,
    VMInstance,
)
from repro.cloud.providers import get_provider
from repro.cloud.pool import (
    ClusterPool,
    HealthAwareRouter,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core import serving as serving_module
from repro.core.forecast import AdaptiveBatchWindow
from repro.core.serving import ServingSimulator
from repro.engine import RetryPolicy, Simulator, run_query
from repro.engine.plan import PlanRunner
from repro.workloads import get_query
from repro.workloads.trace import TraceEvent, WorkloadTrace

from conftest import (
    AWS_PRICES,
    AWS_SLOW_BOOT,
    InstanceCollector,
    build_bursty_trace,
    build_small_system,
)
from test_replay_golden import DRAIN_GOLDENS, report_digest

REPLAY_SETTINGS = settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


def _faulty_pool(plan: FaultPlan | None = None, **config_overrides):
    """A small pool with an optional armed injector on a fresh clock."""
    defaults = dict(max_vms=4, max_sls=4)
    defaults.update(config_overrides)
    return ClusterPool(
        Simulator(),
        provider=AWS_SLOW_BOOT,
        prices=AWS_PRICES,
        config=PoolConfig(**defaults),
        fault_injector=FaultInjector(plan) if plan is not None else None,
    )


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(sl_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(boot_failure_rate=-0.1)
        # The two SL fates share one uniform; their rates must fit in it.
        with pytest.raises(ValueError):
            FaultPlan(sl_failure_rate=0.6, sl_timeout_rate=0.6)

    def test_times_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(sl_failure_delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(vm_preemptions_per_hour=float("inf"))
        with pytest.raises(ValueError):
            FaultPlan(straggler_rate=0.5, straggler_factor=0.5)

    def test_zero_plan_is_inert(self):
        plan = FaultPlan(seed=99)
        assert plan.is_zero
        assert not FaultInjector(plan).active
        assert not FaultPlan(sl_failure_rate=0.01).is_zero
        assert not FaultPlan(vm_preemptions_per_hour=1.0).is_zero

    def test_describe_names_the_armed_faults(self):
        text = FaultPlan(
            seed=7, sl_failure_rate=0.1, straggler_rate=0.2
        ).describe()
        assert "sl_fail" in text and "stragglers" in text
        assert "preempt" not in text


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(1, u=2.0)

    def test_exponential_schedule_with_cap(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base_s=2.0, backoff_factor=2.0,
            backoff_max_s=60.0, jitter=0.0,
        )
        delays = [policy.backoff(attempt) for attempt in range(1, 8)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]

    def test_jitter_spreads_symmetrically(self):
        policy = RetryPolicy(backoff_base_s=10.0, jitter=0.25)
        assert policy.backoff(1, u=0.0) == pytest.approx(7.5)
        assert policy.backoff(1, u=0.5) == pytest.approx(10.0)
        assert policy.backoff(1, u=1.0) == pytest.approx(12.5)


class TestPoolFaults:
    """Direct pool manipulation: kill classification and billing."""

    def test_warm_kill_removes_parked_worker(self):
        pool = _faulty_pool(vm_keep_alive_s=120.0)
        collector = InstanceCollector()
        lease = pool.acquire(1, 0, collector)
        pool.simulator.run()
        pool.release(lease)
        instance = collector.ready[0][0]
        shard = pool.shards[0]
        assert instance.instance_id in shard.warm[InstanceKind.VM]

        pool.kill_instance(instance, "preempted")
        assert instance.state is InstanceState.TERMINATED
        assert instance.instance_id not in shard.warm[InstanceKind.VM]
        assert pool.stats.warm_kills == 1
        assert pool.stats.preemptions == 1
        assert pool.stats.leases_revoked == 0
        # A warm kill wastes no *leased* spend: the idle time was the
        # autoscaler's bet, not a query attempt's forfeited bill.
        assert pool.wasted_cost_dollars == 0.0
        # The stale keep-alive expiry timer must fire harmlessly.
        pool.simulator.run()

    def test_stale_kill_on_terminated_instance_is_inert(self):
        pool = _faulty_pool(vm_keep_alive_s=120.0)
        collector = InstanceCollector()
        lease = pool.acquire(1, 0, collector)
        pool.simulator.run()
        pool.release(lease)
        instance = collector.ready[0][0]
        pool.kill_instance(instance, "preempted")
        before = (pool.stats.warm_kills, pool.stats.preemptions)
        pool.kill_instance(instance, "preempted")  # stale duplicate
        assert (pool.stats.warm_kills, pool.stats.preemptions) == before

    def test_revoke_lease_forfeits_spend_into_wasted_ledger(self):
        pool = _faulty_pool()
        lease = pool.acquire(1, 1, InstanceCollector())
        pool.simulator.run_until(100.0)
        pool.revoke_lease(lease, "preempted")

        assert lease.revoked
        assert lease.revoked_cost.total > 0.0
        assert pool.wasted_cost_dollars == pytest.approx(
            lease.revoked_cost.total
        )
        assert pool.stats.leases_revoked == 1
        # Both open segments ran [0, 100): the time ledger records the
        # held seconds as leased AND wasted.
        assert pool.stats.wasted_seconds == pytest.approx(200.0)
        assert pool.stats.leased_seconds == pytest.approx(200.0)
        # Revoking twice is a no-op.
        pool.revoke_lease(lease, "preempted")
        assert pool.stats.leases_revoked == 1

    def test_sl_failure_revokes_lease_deterministically(self):
        def run_once():
            plan = FaultPlan(seed=7, sl_failure_rate=1.0,
                             sl_failure_delay_s=5.0)
            pool = _faulty_pool(plan)
            lease = pool.acquire(0, 1, InstanceCollector())
            revocations = []
            lease.on_revoked = lambda reason: revocations.append(
                (reason, pool.simulator.now)
            )
            pool.simulator.run()
            return pool, revocations

        pool_a, revoked_a = run_once()
        pool_b, revoked_b = run_once()
        assert revoked_a == revoked_b  # same reason at the same instant
        assert revoked_a[0][0] == "sl-fault"
        assert 0.0 < revoked_a[0][1] < 5.0
        assert pool_a.stats.sl_faults == 1
        assert pool_a.stats.leases_revoked == 1
        assert pool_a.wasted_cost_dollars == pool_b.wasted_cost_dollars > 0.0

    def test_straggler_factor_inflates_runtime(self):
        plan = FaultPlan(seed=3, straggler_rate=1.0, straggler_factor=3.0)
        pool = _faulty_pool(plan)
        collector = InstanceCollector()
        pool.acquire(1, 0, collector)
        pool.simulator.run()
        assert pool.runtime_factor(collector.ready[0][0]) == 3.0

        clean = _faulty_pool()
        clean_collector = InstanceCollector()
        clean.acquire(1, 0, clean_collector)
        clean.simulator.run()
        assert clean.runtime_factor(clean_collector.ready[0][0]) == 1.0


class TestHealthAwareRouter:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthAwareRouter(window_s=0.0)
        with pytest.raises(ValueError):
            HealthAwareRouter(window_s=1e9)  # beyond fault-history retention
        with pytest.raises(ValueError):
            HealthAwareRouter(trip_threshold=0)
        assert "health-aware" in HealthAwareRouter().describe()

    def _pool(self):
        return ClusterPool(
            Simulator(),
            provider=AWS_SLOW_BOOT,
            prices=AWS_PRICES,
            config=PoolConfig(),
            shards={
                "spot": PoolConfig(max_vms=4, max_sls=4),
                "stable": PoolConfig(max_vms=4, max_sls=4),
            },
            router=HealthAwareRouter(window_s=600.0, trip_threshold=2),
        )

    def test_routes_away_from_faulty_then_circuit_breaks(self):
        pool = self._pool()
        lease_a = pool.acquire(1, 1, InstanceCollector())
        assert lease_a.shard == "spot"  # tie broken by shard order
        pool.revoke_lease(lease_a, "preempted")  # spot: 1 fault

        # One fault under the trip threshold already demotes the shard:
        # fewest-recent-faults ranks above free capacity.
        lease_b = pool.acquire(1, 1, InstanceCollector())
        assert lease_b.shard == "stable"
        pool.revoke_lease(lease_b, "preempted")

        # 1 fault each: the tie falls back to shard order (spot), which
        # takes spot to 2 faults -- circuit-broken from here on.
        lease_c = pool.acquire(1, 1, InstanceCollector())
        assert lease_c.shard == "spot"
        pool.revoke_lease(lease_c, "preempted")
        lease_d = pool.acquire(1, 1, InstanceCollector())
        assert lease_d.shard == "stable"
        pool.revoke_lease(lease_d, "preempted")

        # Every capable shard tripped: degrade to the least faulty
        # instead of deadlocking.
        lease_e = pool.acquire(1, 1, InstanceCollector())
        assert lease_e.shard in ("spot", "stable")


class TestRunQueryFaults:
    def test_run_query_raises_on_revoked_lease(self):
        plan = FaultPlan(seed=3, sl_failure_rate=1.0, sl_failure_delay_s=5.0)
        pool = _faulty_pool(plan, max_vms=2, max_sls=2)
        with pytest.raises(RuntimeError, match="revoked"):
            run_query(get_query("tpcds-q82"), 1, 2, pool=pool)


def _sum_wasted(report):
    return (
        sum(q.wasted_cost_dollars for q in report.served)
        + sum(d.wasted_cost_dollars for d in report.dropped)
    )


def _reliability_signature(report):
    return {
        "n_queries": report.n_queries,
        "n_failed": report.n_failed,
        "n_shed": report.n_shed,
        "n_arrivals": report.n_arrivals,
        "n_retries_total": report.n_retries_total,
        "availability": report.availability,
        "retry_rate": report.retry_rate,
        "shed_rate": report.shed_rate,
        "wasted_cost_dollars": report.wasted_cost_dollars,
        "query_cost_dollars": report.query_cost_dollars,
    }


FAULTY_PLAN = FaultPlan(seed=17, sl_failure_rate=0.3, sl_failure_delay_s=5.0)
RETRIES = RetryPolicy(max_retries=8, backoff_base_s=5.0, backoff_max_s=40.0)


def _faulty_replay(**overrides):
    kwargs = dict(
        pool_config=PoolConfig(max_vms=16, max_sls=16),
        fault_plan=FAULTY_PLAN,
        retry_policy=RETRIES,
        decision_reuse=False,
    )
    kwargs.update(overrides)
    sim = ServingSimulator(build_small_system(), **kwargs)
    return sim.replay(build_bursty_trace(4, spacing_s=60.0))


class TestServingFaults:
    def test_retry_with_backoff_beats_naive_fail(self):
        naive = _faulty_replay(retry_policy=None)
        retry = _faulty_replay()

        # Under a 30% per-hand-over SL failure rate nearly every attempt
        # loses a worker; naive-fail drops those arrivals outright.
        assert naive.n_failed > 0
        assert all(d.n_retries == 0 for d in naive.dropped)
        assert retry.availability > naive.availability
        assert retry.n_retries_total > 0
        assert retry.wasted_cost_dollars > 0.0

        for report in (naive, retry):
            # Chargeback identity: the full bill decomposes exactly.
            assert report.total_cost_dollars == pytest.approx(
                report.query_cost_dollars
                + report.keepalive_cost_dollars
                + report.wasted_cost_dollars
            )
            # Every forfeited dollar is attributed to some arrival.
            assert _sum_wasted(report) == pytest.approx(
                report.wasted_cost_dollars
            )
            assert sum(report.wasted_cost_by_shard.values()) == pytest.approx(
                report.wasted_cost_dollars
            )

        # Served retried queries carry their failure history.
        retried = [q for q in retry.served if q.n_retries > 0]
        assert retried
        for query in retried:
            assert query.retry_delay_s > 0.0
            assert query.wasted_cost_dollars > 0.0
            assert query.latency_s >= query.retry_delay_s

    def test_faulty_replay_is_deterministic(self):
        first = _faulty_replay()
        second = _faulty_replay()
        assert _reliability_signature(first) == _reliability_signature(second)
        assert [q.arrival_s for q in first.served] == [
            q.arrival_s for q in second.served
        ]
        assert [q.latency_s for q in first.served] == [
            q.latency_s for q in second.served
        ]

    def test_zero_retry_budget_drops_on_first_failure(self):
        report = _faulty_replay(retry_policy=RetryPolicy(max_retries=0))
        assert report.n_failed > 0
        for drop in report.dropped:
            assert drop.reason == "failed"
            assert drop.n_retries == 0
            assert drop.wasted_cost_dollars > 0.0

    def test_exhausted_budget_reports_full_retry_history(self):
        report = _faulty_replay(
            fault_plan=FaultPlan(seed=17, sl_failure_rate=1.0,
                                 sl_failure_delay_s=2.0),
            retry_policy=RetryPolicy(max_retries=2, backoff_base_s=1.0),
        )
        # Every hand-over dies, so every arrival burns its whole budget.
        assert report.n_queries == 0
        assert report.availability == 0.0
        for drop in report.dropped:
            assert drop.reason == "failed"
            assert drop.n_retries == 2
        assert report.n_retries_total == 2 * report.n_failed
        assert report.wasted_cost_dollars > 0.0

    def test_shedding_is_loud_and_bounded(self):
        registry = TenantRegistry([TenantSpec("t", max_in_flight=1)])
        sim = ServingSimulator(
            build_small_system(tenants=registry),
            pool_config=PoolConfig(max_vms=16, max_sls=16),
            tenants=registry,
            max_pending_admission=0,
            decision_reuse=False,
        )
        trace = build_bursty_trace(3, spacing_s=1.0)
        with pytest.warns(RuntimeWarning, match="shed"):
            report = sim.replay_multi({"t": trace})

        assert report.n_queries == 1
        assert report.n_shed == 2
        assert report.shed_rate == pytest.approx(2 / 3)
        assert report.availability == pytest.approx(1 / 3)
        for drop in report.dropped:
            assert drop.reason == "shed"
            assert drop.wasted_cost_dollars == 0.0
        # Shed work never held a lease: nothing was wasted.
        assert report.wasted_cost_dollars == 0.0
        tenant = report.for_tenant("t")
        assert tenant.n_shed == 2 and tenant.n_queries == 1

    def test_streaming_mode_preserves_reliability_fields(self):
        full = _faulty_replay()
        streaming = _faulty_replay(keep_queries=False)
        assert full.served
        assert not streaming.served and not streaming.dropped

        want = _reliability_signature(full)
        got = _reliability_signature(streaming)
        assert got == pytest.approx(want)
        assert streaming.summary()  # renders without per-query lists

    def test_merge_sums_reliability_fields(self):
        a = _faulty_replay(keep_queries=False)
        b = _faulty_replay(
            keep_queries=False,
            fault_plan=FaultPlan(seed=23, sl_failure_rate=0.3,
                                 sl_failure_delay_s=5.0),
        )
        merged = a.merge(b)
        assert merged.n_arrivals == a.n_arrivals + b.n_arrivals
        assert merged.n_failed == a.n_failed + b.n_failed
        assert merged.n_shed == a.n_shed + b.n_shed
        assert merged.n_retries_total == (
            a.n_retries_total + b.n_retries_total
        )
        assert merged.wasted_cost_dollars == pytest.approx(
            a.wasted_cost_dollars + b.wasted_cost_dollars
        )
        assert merged.availability == pytest.approx(
            (a.n_queries + b.n_queries) / merged.n_arrivals
        )
        assert merged.total_cost_dollars == pytest.approx(
            a.total_cost_dollars + b.total_cost_dollars
        )

    def test_availability_clause_in_summary(self):
        report = _faulty_replay(retry_policy=None)
        assert "availability" in report.summary()
        assert "wasted" in report.summary()

    @pytest.mark.parametrize("keep_queries", [True, False])
    def test_all_dropped_report_is_empty_not_broken(self, keep_queries):
        # Every SL hand-over fails, so every arrival exhausts its retry
        # budget: the report has arrivals but no completions.  Both
        # modes must read it the same way.
        report = _faulty_replay(
            fault_plan=FaultPlan(
                seed=17, sl_failure_rate=1.0, sl_failure_delay_s=2.0
            ),
            retry_policy=RetryPolicy(2, backoff_base_s=1.0),
            keep_queries=keep_queries,
        )
        assert report.n_queries == 0
        assert report.n_failed == report.n_arrivals > 0
        assert report.batched_decision_rate == 0.0
        with pytest.raises(ValueError, match="the report is empty"):
            report.slo_attainment
        with pytest.raises(ValueError, match="the report is empty"):
            report.latency_percentile(50)
        summary = report.summary()
        assert summary.startswith("0 queries") and "wasted" in summary


class _FixedWindow(AdaptiveBatchWindow):
    """A tuner pinned to one window: adaptive-path semantics (groups
    open at first arrival, late joiners allowed) with none of the
    wall-clock nondeterminism of the real auto-tuner."""

    def __init__(self, window_s: float) -> None:
        super().__init__(max_window_s=max(window_s, 0.001))
        self._window_s = window_s

    def window(self) -> float:
        return self._window_s


class TestLateJoiners:
    """Admission-released and retried arrivals join the open group."""

    def test_admission_released_arrival_joins_open_group(self):
        # gated/A1 at t=0 occupies the tenant's single in-flight slot
        # (launches at 15 when its own window closes); gated/A2 at t=1
        # waits at the admission gate.  other/B at t=36 opens a fresh
        # group closing at 51.  A1 completes just before that, releasing
        # A2 into B's *open* group: one shared sizing pass of 2.
        traces = {
            "gated": WorkloadTrace(events=(
                TraceEvent(0.0, "tpcds-q82", input_gb=100.0),
                TraceEvent(1.0, "tpcds-q82", input_gb=100.0),
            )),
            "other": WorkloadTrace(events=(
                TraceEvent(36.0, "tpcds-q82", input_gb=100.0),
            )),
        }
        registry = TenantRegistry([
            TenantSpec("gated", max_in_flight=1), TenantSpec("other"),
        ])
        report = ServingSimulator(
            build_small_system(seed=230, tenants=registry),
            pool_config=PoolConfig(max_vms=32, max_sls=32),
            tenants=registry,
            batch_window_s=_FixedWindow(15.0),
            decision_reuse=False,
        ).replay_multi(traces)

        by_arrival = {
            (q.tenant, q.arrival_s): q for q in report.served
        }
        first = by_arrival[("gated", 0.0)]
        joiner = by_arrival[("gated", 1.0)]
        opener = by_arrival[("other", 36.0)]
        assert first.decision_batch_size == 1
        assert joiner.decision_batch_size == 2
        assert opener.decision_batch_size == 2
        # Both group members launched together when B's window closed.
        submit = lambda q: (
            q.arrival_s + q.admission_delay_s + q.batching_delay_s
        )
        assert submit(joiner) == pytest.approx(51.0)
        assert submit(opener) == pytest.approx(51.0)
        # The joiner's wait is split: admission until A1 completed, then
        # batching for the remainder of B's window.
        assert joiner.admission_delay_s > 0.0
        assert joiner.batching_delay_s > 0.0
        assert report.tenant_in_flight_peaks["gated"] == 1

    def test_retried_arrival_joins_open_group(self):
        # Fault seed 6 kills X's first attempt at t ~ 17.3; the 19.7s
        # backoff lands the resubmission inside Y's open window
        # [30, 45], so the retry shares Y's sizing pass.
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82", input_gb=100.0),
            TraceEvent(30.0, "tpcds-q82", input_gb=100.0),
        ))
        report = ServingSimulator(
            build_small_system(seed=231),
            pool_config=PoolConfig(max_vms=32, max_sls=32),
            fault_plan=FaultPlan(seed=6, sl_failure_rate=0.1,
                                 sl_failure_delay_s=4.0),
            retry_policy=RetryPolicy(max_retries=6, backoff_base_s=19.7,
                                     backoff_factor=1.0, jitter=0.0),
            batch_window_s=_FixedWindow(15.0),
            decision_reuse=False,
        ).replay(trace)

        by_arrival = {q.arrival_s: q for q in report.served}
        retried = by_arrival[0.0]
        opener = by_arrival[30.0]
        assert retried.n_retries == 1
        assert retried.decision_batch_size == 2
        assert opener.n_retries == 0
        assert opener.decision_batch_size == 2
        assert retried.retry_delay_s > 0.0
        assert retried.wasted_cost_dollars > 0.0


@st.composite
def _fault_scenarios(draw):
    return dict(
        seed=draw(st.integers(0, 2)),
        sl_rate=draw(st.sampled_from([0.0, 0.15, 0.5])),
        preempt=draw(st.sampled_from([0.0, 20.0])),
        boot_rate=draw(st.sampled_from([0.0, 0.2])),
        straggler=draw(st.sampled_from([0.0, 0.4])),
        max_retries=draw(st.integers(0, 3)),
        n=draw(st.integers(2, 4)),
        spacing=draw(st.sampled_from([5.0, 45.0])),
        shed_cap=draw(st.sampled_from([None, 1])),
        window=draw(st.sampled_from([0.0, 8.0])),
        second_tenant=draw(st.booleans()),
    )


#: Fixed draws of :func:`_fault_scenarios` whose replays are pinned by
#: digest: retries that partly succeed across two tenants, a coalesced
#: trace that sheds at the admission gate, and a retry budget that every
#: arrival exhausts.
_NO_FAULTS = dict(
    seed=0, sl_rate=0.0, preempt=0.0, boot_rate=0.0, straggler=0.0,
    max_retries=0, n=4, spacing=5.0, shed_cap=None, window=0.0,
    second_tenant=False,
)
PINNED_FAULT_SCENARIOS = {
    "retries": dict(
        _NO_FAULTS, seed=1, sl_rate=0.15, preempt=20.0, straggler=0.4,
        max_retries=3, spacing=45.0, second_tenant=True,
    ),
    "shed": dict(
        _NO_FAULTS, seed=1, sl_rate=0.15, straggler=0.4, max_retries=1,
        shed_cap=1, window=8.0,
    ),
    "exhausted": dict(
        _NO_FAULTS, seed=2, preempt=20.0, boot_rate=0.2, max_retries=2,
        shed_cap=1, second_tenant=True,
    ),
}


class TestNoQueryLost:
    @given(scenario=_fault_scenarios())
    @REPLAY_SETTINGS
    def test_every_arrival_terminates_exactly_once(self, scenario):
        registry = TenantRegistry([TenantSpec("t", max_in_flight=2)])
        system = build_small_system(
            seed=260 + scenario["seed"],
            n_configs_per_query=6,
            max_vm=6,
            max_sl=6,
            tenants=registry,
        )
        trace = build_bursty_trace(
            scenario["n"], spacing_s=scenario["spacing"]
        )
        sim = ServingSimulator(
            system,
            pool_config=PoolConfig(max_vms=12, max_sls=12),
            tenants=registry,
            fault_plan=FaultPlan(
                seed=scenario["seed"],
                sl_failure_rate=scenario["sl_rate"],
                sl_failure_delay_s=5.0,
                vm_preemptions_per_hour=scenario["preempt"],
            ),
            retry_policy=RetryPolicy(
                max_retries=scenario["max_retries"], backoff_base_s=3.0
            ),
            max_pending_admission=scenario["shed_cap"],
            decision_reuse=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = sim.replay_multi({"t": trace})

        # Terminal exactly once: served + failed + shed partition the
        # trace, and the per-query records carry the arrival times.
        n = scenario["n"]
        assert report.n_queries + report.n_failed + report.n_shed == n
        assert report.n_arrivals == n
        terminal = sorted(
            [q.arrival_s for q in report.served]
            + [d.arrival_s for d in report.dropped]
        )
        assert terminal == [e.arrival_s for e in trace.events]

        # Rates are consistent fractions of the arrival count.
        assert 0.0 <= report.availability <= 1.0
        assert report.availability == pytest.approx(report.n_queries / n)
        assert report.shed_rate == pytest.approx(report.n_shed / n)

        # Cost conservation: the bill decomposes exactly, every wasted
        # dollar is attributed to an arrival, and zero-fault scenarios
        # waste nothing.
        assert report.total_cost_dollars == pytest.approx(
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars
        )
        assert _sum_wasted(report) == pytest.approx(
            report.wasted_cost_dollars
        )
        if scenario["sl_rate"] == 0.0 and scenario["preempt"] == 0.0:
            assert report.wasted_cost_dollars == 0.0
            assert report.n_retries_total == 0
            assert report.n_failed == 0

        # The admission quota held at every instant, retries included.
        assert report.tenant_in_flight_peaks.get("t", 0) <= 2

        # Dropped arrivals never exceed the retry budget.
        for drop in report.dropped:
            assert drop.n_retries <= scenario["max_retries"]

        # The tenant slice agrees with the single-tenant totals.
        tenant = report.for_tenant("t")
        assert tenant.n_arrivals == n
        assert tenant.n_failed == report.n_failed
        assert tenant.n_shed == report.n_shed
        assert tenant.wasted_cost_dollars == pytest.approx(
            report.wasted_cost_dollars
        )


def _replay_signature(report) -> dict:
    """Every simulated field of a replay, reliability included.

    Measured wall-clock decision timings are excluded (host time, not
    simulated time), matching the report digests.
    """
    stream = report.stream
    signature = {
        "n_queries": report.n_queries,
        "n_arrivals": report.n_arrivals,
        "n_failed": report.n_failed,
        "n_shed": report.n_shed,
        "n_retries_total": report.n_retries_total,
        "availability": report.availability,
        "query_cost": report.query_cost_dollars,
        "keepalive_cost": report.keepalive_cost_dollars,
        "wasted_cost": report.wasted_cost_dollars,
        "p50": (
            report.latency_percentile(50) if report.n_queries else None
        ),
        "p99": (
            report.latency_percentile(99) if report.n_queries else None
        ),
        "queueing_p50": (
            report.queueing_delay_percentile(50)
            if report.n_queries
            else None
        ),
        "slo": report.slo_attainment if report.n_queries else None,
        "batched": report.batched_decision_rate,
        "warm": report.warm_start_rate,
        "retrains": report.n_retrains,
        "peaks": report.tenant_in_flight_peaks,
        "latency_sample": stream.latency._sample,
    }
    for tenant, ts in (stream.tenant_streams or {}).items():
        signature[f"tenant:{tenant}"] = (
            ts.n,
            ts.n_failed,
            ts.n_retries,
            ts.latency._sample,
            ts.wasted_cost.value,
        )
    return signature


def _served_fields(query) -> tuple:
    return (
        query.arrival_s,
        query.tenant,
        query.waiting_apps_at_submit,
        query.queueing_delay_s,
        query.decision_batch_size,
        query.batching_delay_s,
        query.admission_delay_s,
        query.quota_delay_s,
        query.outcome.decision.config,
        query.outcome.cost_dollars,
        query.latency_s,
        query.n_retries,
        query.wasted_cost_dollars,
        query.retry_delay_s,
    )


def _dropped_fields(drop) -> tuple:
    return (
        drop.arrival_s,
        drop.query_id,
        drop.tenant,
        drop.reason,
        drop.n_retries,
        drop.wasted_cost_dollars,
    )


class TestVectorizedSubmissionEquivalence:
    """Compiled-plan vector submission == presample, faults included.

    Reuses the no-query-lost strategy: arbitrary multi-tenant traces
    with fault plans, retries, admission shedding and coalescing
    windows.  Presample and vector submission consume the duration-model
    rng stream identically, so they are compared field for field down
    to the per-query and per-drop records; three fixed scenarios are
    also pinned by digest to the replays the per-arrival event drain
    produced.
    """

    def _replay(self, scenario, submission: str):
        tenants = [TenantSpec("t", max_in_flight=2)]
        traces = {
            "t": build_bursty_trace(
                scenario["n"], spacing_s=scenario["spacing"]
            )
        }
        if scenario["second_tenant"]:
            tenants.append(
                TenantSpec(
                    "u", weight=2.0, max_leased_vms=6, max_leased_sls=6
                )
            )
            traces["u"] = build_bursty_trace(
                scenario["n"], spacing_s=scenario["spacing"], start_s=3.0
            )
        registry = TenantRegistry(tenants)
        system = build_small_system(
            seed=260 + scenario["seed"],
            n_configs_per_query=6,
            max_vm=6,
            max_sl=6,
            tenants=registry,
        )
        simulator = ServingSimulator(
            system,
            pool_config=PoolConfig(max_vms=12, max_sls=12),
            tenants=registry,
            submission=submission,
            decision_reuse=False,
            batch_window_s=scenario["window"],
            fault_plan=FaultPlan(
                seed=scenario["seed"],
                sl_failure_rate=scenario["sl_rate"],
                sl_failure_delay_s=5.0,
                vm_preemptions_per_hour=scenario["preempt"],
                boot_failure_rate=scenario["boot_rate"],
                straggler_rate=scenario["straggler"],
                straggler_factor=2.0,
            ),
            retry_policy=RetryPolicy(
                max_retries=scenario["max_retries"], backoff_base_s=3.0
            ),
            max_pending_admission=scenario["shed_cap"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return simulator.replay_multi(traces)

    @pytest.mark.parametrize("name", sorted(PINNED_FAULT_SCENARIOS))
    def test_pinned_digest(self, name):
        scenario = PINNED_FAULT_SCENARIOS[name]
        golden = DRAIN_GOLDENS["serving_faults"][name]
        for submission in ("presample", "vector"):
            report = self._replay(scenario, submission)
            assert report_digest(report) == golden

    @given(scenario=_fault_scenarios())
    @REPLAY_SETTINGS
    def test_vector_replay_matches_presample(self, scenario):
        presample = self._replay(scenario, "presample")
        vector = self._replay(scenario, "vector")
        assert _replay_signature(presample) == _replay_signature(vector)
        assert len(presample.served) == len(vector.served)
        for a, b in zip(presample.served, vector.served):
            assert _served_fields(a) == _served_fields(b)
        assert len(presample.dropped) == len(vector.dropped)
        for a, b in zip(presample.dropped, vector.dropped):
            assert _dropped_fields(a) == _dropped_fields(b)


class _EagerMarks(PlanRunner):
    """Reference runner: every task start marks its instance's counters
    through a scheduled event, live, as the runner did before it applied
    them lazily.  Revocation cancels the marks not yet fired."""

    __slots__ = ()

    def _on_granted(self, lease) -> None:
        super()._on_granted(lease)
        schedule_at = self.pool.simulator.schedule_at
        for idx, instance in enumerate(self._instances):
            for start, duration in zip(
                self._starts_by_inst[idx], self._durs_by_inst[idx]
            ):
                self._handles.append(
                    schedule_at(start, partial(instance.mark_busy, duration))
                )
            self._starts_by_inst[idx] = []
            self._durs_by_inst[idx] = []


class TestLazyPlanCounters:
    """Compiled plan runners apply per-instance counters lazily.

    A runner adds an instance's tasks to ``busy_seconds`` and
    ``tasks_executed`` when the instance is released or the query
    completes, and on a revocation only the tasks that started strictly
    before it.  Every instance must end with bitwise the counters that
    marking each task at its start gives -- the :class:`_EagerMarks`
    reference and, where no kill lands exactly on a task start, the
    per-task scheduler of presample submission -- through revocations,
    retries, stragglers and single-wave grants alike.
    """

    def _counters(self, seed: int, submission: str, plan):
        created = []

        def recording(cls):
            create = cls.create.__func__

            def record(kind, *args, **kwargs):
                instance = create(kind, *args, **kwargs)
                created.append(instance)
                return instance

            return mock.patch.object(cls, "create", classmethod(record))

        system = build_small_system(
            seed=270 + seed, n_configs_per_query=6, max_vm=6, max_sl=6
        )
        simulator = ServingSimulator(
            system,
            pool_config=PoolConfig(max_vms=12, max_sls=12),
            submission=submission,
            decision_reuse=False,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=6, backoff_base_s=3.0),
        )
        with recording(VMInstance), recording(ServerlessInstance):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = simulator.replay(build_bursty_trace(8, spacing_s=5.0))
        counters = [
            (instance.busy_seconds, instance.tasks_executed)
            for instance in created
        ]
        assert report.pool_stats.leases_revoked > 0
        assert sum(tasks for _, tasks in counters) > 0
        return counters, report.pool_stats

    def _eager(self, seed: int, plan):
        with mock.patch.object(serving_module, "PlanRunner", _EagerMarks):
            return self._counters(seed, "vector", plan)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counters_match_eager_marks_under_chaos(self, seed):
        plan = FaultPlan(
            seed=seed,
            sl_failure_rate=0.3,
            sl_failure_delay_s=5.0,
            vm_preemptions_per_hour=20.0,
            boot_failure_rate=0.2,
            straggler_rate=0.4,
            straggler_factor=2.0,
        )
        lazy, _ = self._counters(seed, "vector", plan)
        assert lazy == self._eager(seed, plan)[0]
        reference = self._counters(seed, "presample", plan)[0]
        assert lazy == reference
        assert (
            hashlib.sha256(repr(reference).encode()).hexdigest()
            == DRAIN_GOLDENS["plan_counters"][str(seed)]
        )

    def test_a_kill_at_a_task_start_counts_none_of_its_tasks(self):
        # A cold SL times out exactly when its boot completes, which is
        # when its first tasks start: the kill was armed at hand-over,
        # before the grant, so it fires first and those tasks never ran.
        # (The per-task scheduler starts them first -- its boot event
        # was scheduled before the kill -- so it is no reference here.)
        plan = FaultPlan(
            seed=0,
            sl_timeout_rate=0.5,
            sl_timeout_s=get_provider("aws").sl_boot_seconds,
        )
        lazy, stats = self._counters(0, "vector", plan)
        assert stats.sl_timeouts > 0
        assert lazy == self._eager(0, plan)[0]
