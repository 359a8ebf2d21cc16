"""Hypothesis properties of the multi-tenant serving layer.

Three invariants pin the layer down under randomised traces, weights and
quotas:

- **Chargeback conservation**: per-tenant bills sum bitwise-close to the
  pool's total cost, keep-alive included, for any tenant mix.
- **Quotas are never exceeded**: at no simulated instant does a tenant
  hold more leased workers than its quota, and its in-flight query
  intervals never overlap beyond ``max_in_flight``.
- **Single-tenant equivalence**: a one-pair ``replay_multi`` -- through
  the full registry/fair-grant/admission machinery -- reproduces the
  plain ``replay`` report field for field (modulo the tenant name), for
  any fair-share weight.
- **Memoized grant order**: over random acquire/release/revoke/steal
  sequences on a bare pool, every policy's memoized ``candidates()``
  equals a fresh per-call recompute, and grants and quota-interval
  accounting equal a reference pool that re-sorts and checks ``fits``
  on every lease.

Replays are expensive, so the examples are few, small and derandomised;
every example builds fresh identically-seeded systems, which keeps
failures reproducible despite the replay mutating system state.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud.pool import (
    DeadlineAwareGrant,
    FifoGrant,
    PoolConfig,
    TenantAffinityRouter,
    TenantRegistry,
    TenantSpec,
    WeightedFairGrant,
)
from repro.core.serving import ServingSimulator
from repro.workloads.trace import TraceEvent, WorkloadTrace

from conftest import build_pool, build_small_system

REPLAY_SETTINGS = settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


def _system(seed: int):
    """A deliberately tiny bootstrapped system (replays dominate cost)."""
    return build_small_system(
        seed=300 + seed, n_configs_per_query=6, max_vm=6, max_sl=6
    )


def traces(max_events: int = 4):
    event = st.tuples(
        st.floats(min_value=0.0, max_value=90.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["tpcds-q82", "tpcds-q68"]),
        st.floats(min_value=60.0, max_value=160.0,
                  allow_nan=False, allow_infinity=False),
    )
    return st.lists(event, min_size=1, max_size=max_events).map(
        lambda items: WorkloadTrace(events=tuple(
            TraceEvent(arrival, query_id, input_gb=size)
            for arrival, query_id, size in sorted(items, key=lambda x: x[0])
        ))
    )


@given(
    trace=traces(),
    weight=st.floats(min_value=0.25, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2),
)
@REPLAY_SETTINGS
def test_single_tenant_replay_multi_equals_replay(trace, weight, seed):
    config = PoolConfig(max_vms=6, max_sls=6, vm_keep_alive_s=90.0)
    solo = ServingSimulator(
        _system(seed), pool_config=config, decision_reuse=False
    ).replay(trace)
    registry = TenantRegistry([TenantSpec("alice", weight=weight)])
    multi = ServingSimulator(
        _system(seed),
        pool_config=config,
        tenants=registry,
        decision_reuse=False,
    ).replay_multi({"alice": trace})

    assert multi.tenants == ("alice",)
    assert len(solo.served) == len(multi.served)
    for a, b in zip(solo.served, multi.served):
        assert b.tenant == "alice"
        assert a.arrival_s == b.arrival_s
        assert a.waiting_apps_at_submit == b.waiting_apps_at_submit
        assert a.queueing_delay_s == b.queueing_delay_s
        assert a.decision_batch_size == b.decision_batch_size
        assert a.batching_delay_s == b.batching_delay_s
        assert a.latency_s == b.latency_s
        assert a.outcome.decision.config == b.outcome.decision.config
        assert a.outcome.actual_seconds == b.outcome.actual_seconds
        assert a.outcome.cost_dollars == b.outcome.cost_dollars
        assert a.outcome.is_alien == b.outcome.is_alien
        # No quotas configured => the new machinery must stay inert.
        assert b.admission_delay_s == 0.0 and b.quota_delay_s == 0.0
    assert solo.total_cost_dollars == multi.total_cost_dollars
    assert solo.keepalive_cost_dollars == multi.keepalive_cost_dollars
    assert solo.pool_stats == multi.pool_stats
    assert float(multi.quota_throttle_delays.max()) == 0.0


@given(
    hot_trace=traces(max_events=4),
    quiet_trace=traces(max_events=2),
    hot_weight=st.floats(min_value=0.5, max_value=4.0),
    keep_alive=st.sampled_from([0.0, 120.0]),
    seed=st.integers(min_value=0, max_value=2),
)
@REPLAY_SETTINGS
def test_chargeback_conservation(
    hot_trace, quiet_trace, hot_weight, keep_alive, seed
):
    registry = TenantRegistry(
        [TenantSpec("hot", weight=hot_weight), TenantSpec("quiet")]
    )
    report = ServingSimulator(
        _system(seed),
        pool_config=PoolConfig(
            max_vms=6, max_sls=6,
            vm_keep_alive_s=keep_alive, sl_keep_alive_s=keep_alive / 4.0,
        ),
        tenants=registry,
        decision_reuse=False,
    ).replay_multi({"hot": hot_trace, "quiet": quiet_trace})

    bills = report.chargeback()
    assert set(bills) == set(report.tenants)
    # Conservation, keep-alive included, bitwise-close.
    assert math.fsum(bills.values()) == pytest.approx(
        report.total_cost_dollars, rel=1e-12, abs=1e-15
    )
    assert all(bill >= 0.0 for bill in bills.values())
    # The slices tell the same story as the bills.
    for tenant in report.tenants:
        tenant_slice = report.for_tenant(tenant)
        assert tenant_slice.total_cost_dollars == pytest.approx(
            bills[tenant], rel=1e-9, abs=1e-12
        )


@given(
    hot_trace=traces(max_events=4),
    quiet_trace=traces(max_events=2),
    max_vms=st.integers(min_value=1, max_value=3),
    max_sls=st.integers(min_value=1, max_value=3),
    max_in_flight=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2),
)
# Query 1's rebuilt end (arrival + latency) lands one ulp after query
# 2's rebuilt start (arrival + admission + batching), though the engine
# admitted query 2 at query 1's completion.
@example(
    hot_trace=WorkloadTrace(events=(
        TraceEvent(0.0, "tpcds-q82", input_gb=60.0),
        TraceEvent(1.2295056664330914, "tpcds-q82", input_gb=60.0),
    )),
    quiet_trace=WorkloadTrace(events=(
        TraceEvent(0.0, "tpcds-q82", input_gb=60.0),
    )),
    max_vms=1,
    max_sls=2,
    max_in_flight=1,
    seed=2,
)
@REPLAY_SETTINGS
def test_quotas_never_exceeded(
    hot_trace, quiet_trace, max_vms, max_sls, max_in_flight, seed
):
    registry = TenantRegistry([
        TenantSpec(
            "hot",
            max_leased_vms=max_vms,
            max_leased_sls=max_sls,
            max_in_flight=max_in_flight,
        ),
        TenantSpec("quiet"),
    ])
    report = ServingSimulator(
        _system(seed),
        pool_config=PoolConfig(max_vms=6, max_sls=6),
        tenants=registry,
        decision_reuse=False,
    ).replay_multi({"hot": hot_trace, "quiet": quiet_trace})

    # Leased-worker quotas: the pool records peaks at every grant, and
    # grants are the only points where a tenant's leased count grows, so
    # peaks bound the count at *every* simulated timestamp.
    vm_peak, sl_peak = report.tenant_peaks.get("hot", (0, 0))
    assert vm_peak <= max_vms
    assert sl_peak <= max_sls

    # max_in_flight: sweep the tenant's in-flight intervals (submission
    # to completion) and check the overlap never exceeds the cap.  Both
    # ends are rebuilt from per-query offsets, so an end and a start the
    # engine saw at one instant can land an ulp apart either way.
    intervals = [
        (
            query.arrival_s
            + query.admission_delay_s
            + query.batching_delay_s,
            query.completion_s,
        )
        for query in report.served
        if query.tenant == "hot"
    ]

    def open_at(start: float, end: float, instant: float) -> bool:
        # A completion at instant T admits its successor at exactly T, so
        # an end within float error of a start is processed first -- the
        # slot genuinely freed before it was retaken.
        return start <= instant < end and not math.isclose(
            end, instant, rel_tol=1e-9
        )

    peak = max(
        sum(open_at(start, end, instant) for start, end in intervals)
        for instant, _ in intervals
    )
    assert peak <= max_in_flight
    assert peak == report.tenant_in_flight_peaks["hot"]

    # Every arrival was still served exactly once.
    assert report.n_queries == len(hot_trace) + len(quiet_trace)


# ---------------------------------------------------------------------------
# Memoized grant order against a per-call recompute
# ---------------------------------------------------------------------------


def fresh_order(policy, shard, pool) -> list:
    """The policy's candidate order, recomputed from scratch."""
    if isinstance(policy, FifoGrant):
        return shard.queue[:1]
    if isinstance(policy, DeadlineAwareGrant):
        now = pool.simulator.now
        return sorted(
            shard.queue, key=lambda lease: (lease.slack_s(now), lease.seq)
        )
    heads: dict = {}
    for lease in shard.queue:
        heads.setdefault(lease.tenant, lease)
    return sorted(
        heads.values(),
        key=lambda lease: (pool.normalized_service(lease.tenant), lease.seq),
    )


def reference_class(policy_class):
    """``policy_class`` re-sorting on every call and checking ``fits``
    (closing any open quota interval) on every lease it scans."""

    class Reference(policy_class):
        def candidates(self, shard, pool):
            return fresh_order(self, shard, pool)

        def select(self, shard, pool):
            for lease in self.candidates(shard, pool):
                if not shard.fits(lease):
                    pool._note_capacity_block(lease)
                    continue
                if not pool.quota_allows(lease):
                    pool._note_quota_block(lease)
                    continue
                return lease
            return None

    return Reference


#: ``name: (policy class, constructor keywords)``.
POLICIES = {
    "fifo": (FifoGrant, {}),
    "fair": (WeightedFairGrant, {}),
    "deadline": (DeadlineAwareGrant, {}),
    "deadline-preempt": (
        DeadlineAwareGrant, {"preempt": True, "preempt_slack_s": 20.0}
    ),
}

_acquire = st.tuples(
    st.just("acquire"),
    st.integers(min_value=0, max_value=3),  # tenant
    st.integers(min_value=0, max_value=3),  # VMs
    st.integers(min_value=0, max_value=3),  # SLs
    st.sampled_from([None, 5.0, 10.0, 30.0, 60.0]),  # SLO from now
)
_lease_op = st.tuples(
    st.sampled_from(["release", "revoke"]), st.integers(min_value=0)
)
_advance = st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 15.0]))


def _pool(policy):
    return build_pool(
        shards={
            "a": PoolConfig(max_vms=3, max_sls=3),
            "b": PoolConfig(max_vms=3, max_sls=2),
        },
        router=TenantAffinityRouter(),
        tenants=TenantRegistry([
            TenantSpec("t0", tier="interactive"),
            TenantSpec("t1", max_leased_vms=2),
            TenantSpec("t2", max_leased_sls=2, max_leased_vms=3),
            TenantSpec("t3"),
        ]),
        grant_policy=policy,
    )


@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    ops=st.lists(
        st.one_of(_acquire, _acquire, _lease_op, _advance), max_size=40
    ),
)
@settings(deadline=None)
def test_memoized_candidates_match_recompute(policy_name, ops):
    policy_class, kwargs = POLICIES[policy_name]
    policy = policy_class(**kwargs)
    pool = _pool(policy)
    reference = _pool(reference_class(policy_class)(**kwargs))
    #: ``(lease in pool, the same request's lease in reference)``.
    pairs: list[tuple] = []

    for op in ops:
        if op[0] == "acquire":
            _, tenant, n_vm, n_sl, slo = op
            if n_vm + n_sl == 0:
                n_sl = 1
            pair = []
            for target in (pool, reference):
                deadline = None if slo is None else target.simulator.now + slo
                lease = target.acquire(
                    n_vm, n_sl, None, tenant=f"t{tenant}", deadline_s=deadline
                )
                # Checkpointable, so a preempting policy has victims
                # (it picks only batch-tier ones).
                lease.on_preempt = lambda reason: None
                pair.append(lease)
            pairs.append(tuple(pair))
        elif op[0] == "advance":
            for target in (pool, reference):
                target.simulator.run_until(target.simulator.now + op[1])
        elif pairs:
            for target, lease in zip(
                (pool, reference), pairs[op[1] % len(pairs)]
            ):
                if not lease.is_granted or lease.revoked:
                    continue
                if op[0] == "release":
                    target.release(lease)
                else:
                    target.revoke_lease(lease, "preempted")

        # Memo against a per-call recompute, in the memoized pool.
        for shard in pool.shards:
            assert policy.candidates(shard, pool) == fresh_order(
                policy, shard, pool
            )
        # Queues, grants, steals, preemptions and quota intervals against
        # the reference pool, request by request.
        request = {id(mine): i for i, (mine, _) in enumerate(pairs)}
        ref_request = {id(theirs): i for i, (_, theirs) in enumerate(pairs)}
        for shard, ref_shard in zip(pool.shards, reference.shards):
            assert [request[id(lease)] for lease in shard.queue] == [
                ref_request[id(lease)] for lease in ref_shard.queue
            ]
        for mine, theirs in pairs:
            assert (mine.granted_at, mine.shard, mine.revoked) == (
                theirs.granted_at, theirs.shard, theirs.revoked
            )
            assert mine.quota_delay_s == theirs.quota_delay_s
            assert mine.quota_blocked_since == theirs.quota_blocked_since
        assert pool.stats == reference.stats
