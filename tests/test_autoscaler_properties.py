"""Hypothesis properties of prediction-driven resource management.

Three invariants pin the autoscaling layer down:

- **Break-even bound**: whatever arrivals a :class:`PredictiveKeepAlive`
  has observed, the keep-alive window it emits never exceeds the
  break-even bound times its headroom factor (nor its absolute cap) --
  the policy can *under*-keep, never over-spend past the bound.
- **Billed-time conservation**: on any replay, under any autoscaler,
  every pooled instance-second is either leased to a query or idle in a
  warm set (``instance_seconds == leased + idle``), the bill is exactly
  query spend plus keep-alive spend, and keep-alive spend partitions
  across shards.
- **Auto-tuner default-off path**: ``batch_window_s`` of ``0.0``,
  ``None`` and a zero-capped :class:`AdaptiveBatchWindow` produce
  bit-for-bit identical replays on traces without same-tick arrivals --
  adding the tuner machinery cannot perturb the pinned paths.

The replay-based properties pin ``max_examples`` inline (replays
dominate cost); the cheap policy property is governed by the hypothesis
profile from ``conftest`` (reduced under ``HYPOTHESIS_PROFILE=ci``).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import DemandAutoscaler, FixedKeepAlive, PoolConfig
from repro.core.forecast import (
    AdaptiveBatchWindow,
    ArrivalForecaster,
    PredictiveKeepAlive,
)
from repro.core.serving import ServingSimulator
from repro.engine import Simulator
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
    return build_small_system(
        seed=330 + seed, n_configs_per_query=6, max_vm=6, max_sl=6
    )


# ---------------------------------------------------------------------------
# (a) the break-even bound
# ---------------------------------------------------------------------------


@given(
    observations=st.lists(
        st.tuples(
            st.sampled_from(["q-a", "q-b", "q-c"]),
            st.floats(min_value=0.0, max_value=600.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from([None, "shard-x", "shard-y"]),
        ),
        max_size=40,
    ),
    headroom=st.floats(min_value=0.25, max_value=8.0),
    max_keep_alive_s=st.floats(min_value=0.0, max_value=900.0),
    now=st.floats(min_value=0.0, max_value=1200.0,
                  allow_nan=False, allow_infinity=False),
    kind=st.sampled_from([InstanceKind.VM, InstanceKind.SERVERLESS]),
)
def test_predictive_keep_alive_never_exceeds_breakeven_times_headroom(
    observations, headroom, max_keep_alive_s, now, kind
):
    policy = PredictiveKeepAlive(
        forecaster=ArrivalForecaster(),
        headroom=headroom,
        max_keep_alive_s=max_keep_alive_s,
    )
    for class_key, time_s, scope in sorted(observations, key=lambda o: o[1]):
        policy.observe_arrival(class_key, time_s, scope=scope)
    sim = Simulator()
    pool = build_pool(sim, autoscaler=policy)
    sim.run_until(now)
    shard = pool.shards[0]
    for target in (None, shard):
        keep_alive = policy.keep_alive(kind, pool, target)
        bound = policy.break_even_s(kind, pool, target)
        assert keep_alive >= 0.0
        assert keep_alive <= headroom * bound + 1e-9
        assert keep_alive <= max_keep_alive_s + 1e-12


# ---------------------------------------------------------------------------
# (b) billed-time conservation on any replay
# ---------------------------------------------------------------------------


def traces(max_events: int = 4):
    event = st.tuples(
        st.floats(min_value=0.0, max_value=120.0,
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


def _autoscalers():
    return st.sampled_from(["fixed", "demand", "predictive", "none"])


def _build_autoscaler(name):
    if name == "fixed":
        return FixedKeepAlive(vm_keep_alive_s=90.0, sl_keep_alive_s=20.0)
    if name == "demand":
        return DemandAutoscaler(window_s=120.0, headroom=2.0,
                                max_keep_alive_s=150.0)
    if name == "predictive":
        return PredictiveKeepAlive(headroom=2.0)
    return None


@given(
    trace=traces(),
    autoscaler_name=_autoscalers(),
    seed=st.integers(min_value=0, max_value=2),
)
@REPLAY_SETTINGS
def test_billed_time_partitions_into_query_and_keepalive(
    trace, autoscaler_name, seed
):
    report = ServingSimulator(
        _system(seed),
        pool_config=PoolConfig(max_vms=6, max_sls=6),
        autoscaler=_build_autoscaler(autoscaler_name),
        decision_reuse=False,
    ).replay(trace)

    # Total billed dollars are exactly query spend + keep-alive spend,
    # and the keep-alive spend partitions across shards.
    assert report.total_cost_dollars == pytest.approx(
        report.query_cost_dollars + report.keepalive_cost_dollars,
        rel=1e-12, abs=1e-15,
    )
    assert math.fsum(
        report.keepalive_cost_by_shard.values()
    ) == pytest.approx(
        report.keepalive_cost_dollars, rel=1e-12, abs=1e-15
    )

    # Time ledger: the pool shut down at the end of the replay, so every
    # instance's lifetime decomposes into leased + idle intervals.
    stats = report.pool_stats
    assert stats.instance_seconds == pytest.approx(
        stats.leased_seconds + stats.idle_seconds, rel=1e-9, abs=1e-6
    )
    # Keep-alive dollars are the idle seconds at the published rates, so
    # zero idle time must mean a zero keep-alive bill (and vice versa).
    if stats.idle_seconds == 0.0:
        assert report.keepalive_cost_dollars == 0.0
    if report.keepalive_cost_dollars == 0.0:
        assert stats.idle_seconds == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# (c) the auto-tuner default-off path is bit-for-bit unchanged
# ---------------------------------------------------------------------------


def distinct_time_traces(max_events: int = 4):
    """Traces with strictly increasing arrival times (no same-tick)."""
    gap = st.floats(min_value=0.5, max_value=40.0,
                    allow_nan=False, allow_infinity=False)
    event = st.tuples(gap, st.sampled_from(["tpcds-q82", "tpcds-q68"]))
    def build(items):
        events, now = [], 0.0
        for gap_s, query_id in items:
            now += gap_s
            events.append(TraceEvent(now, query_id, input_gb=100.0))
        return WorkloadTrace(events=tuple(events))
    return st.lists(event, min_size=1, max_size=max_events).map(build)


@given(
    trace=distinct_time_traces(),
    seed=st.integers(min_value=0, max_value=2),
)
@REPLAY_SETTINGS
def test_batch_window_default_off_paths_are_bit_for_bit(trace, seed):
    config = PoolConfig(max_vms=6, max_sls=6, vm_keep_alive_s=90.0)

    def run(batch_window):
        return ServingSimulator(
            _system(seed),
            pool_config=config,
            batch_window_s=batch_window,
            decision_reuse=False,
        ).replay(trace)

    zero = run(0.0)
    solo = run(None)
    tuned_off = run(AdaptiveBatchWindow(max_window_s=0.0))

    for other in (solo, tuned_off):
        assert len(zero.served) == len(other.served)
        for a, b in zip(zero.served, other.served):
            assert a.arrival_s == b.arrival_s
            assert a.waiting_apps_at_submit == b.waiting_apps_at_submit
            assert a.decision_batch_size == b.decision_batch_size == 1
            assert a.batching_delay_s == b.batching_delay_s == 0.0
            assert a.queueing_delay_s == b.queueing_delay_s
            assert a.latency_s == b.latency_s
            assert a.outcome.decision.config == b.outcome.decision.config
            assert a.outcome.actual_seconds == b.outcome.actual_seconds
            assert a.outcome.cost_dollars == b.outcome.cost_dollars
        assert zero.total_cost_dollars == other.total_cost_dollars
        assert zero.keepalive_cost_dollars == other.keepalive_cost_dollars
        assert zero.pool_stats == other.pool_stats
