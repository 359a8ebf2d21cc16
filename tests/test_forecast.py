"""Forecast-driven resource management: units for the forecast layer.

Covers the :mod:`repro.core.forecast` building blocks in isolation --
the per-class arrival forecaster, the break-even predictive keep-alive
policy and the adaptive batch-window tuner -- plus the serving wiring
that feeds them (arrival observations keyed by the predictor's query
class, scoped by the routed shard).
"""

import math

import pytest

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import PoolConfig, TenantAffinityRouter
from repro.core.forecast import (
    AdaptiveBatchWindow,
    ArrivalForecaster,
    PredictiveKeepAlive,
)
from repro.core.serving import ServingSimulator
from repro.engine import Simulator

from conftest import build_bursty_trace, build_pool, build_small_system


class TestArrivalForecaster:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            ArrivalForecaster(alpha=1.5)
        with pytest.raises(ValueError):
            ArrivalForecaster(stale_after=0.0)
        with pytest.raises(ValueError):
            ArrivalForecaster(min_gap_s=0.0)

    def test_no_observations_forecasts_nothing(self):
        forecaster = ArrivalForecaster()
        assert forecaster.forecast_gap(10.0) == math.inf
        assert forecaster.class_gap("q1") == math.inf

    def test_single_arrival_has_no_gap_yet(self):
        forecaster = ArrivalForecaster()
        forecaster.observe("q1", 5.0)
        assert forecaster.forecast_gap(6.0) == math.inf

    def test_regular_arrivals_forecast_their_spacing(self):
        forecaster = ArrivalForecaster()
        for i in range(6):
            forecaster.observe("q1", 10.0 * i)
        assert forecaster.class_gap("q1") == pytest.approx(10.0)
        # Right after the last arrival the next one is a full gap out;
        # halfway through, half a gap remains.
        assert forecaster.forecast_gap(50.0) == pytest.approx(10.0)
        assert forecaster.forecast_gap(55.0) == pytest.approx(5.0)

    def test_overdue_class_forecasts_one_residual_gap(self):
        forecaster = ArrivalForecaster()
        for i in range(4):
            forecaster.observe("q1", 10.0 * i)
        # Overdue by less than stale_after gaps: renewal residual.
        assert forecaster.forecast_gap(45.0) == pytest.approx(10.0)

    def test_stale_class_stops_forecasting(self):
        forecaster = ArrivalForecaster(stale_after=4.0)
        for i in range(4):
            forecaster.observe("q1", 10.0 * i)
        # Last arrival at t=30; stale beyond 30 + 4 * 10.
        assert forecaster.forecast_gap(80.0) == math.inf

    def test_fastest_class_wins(self):
        forecaster = ArrivalForecaster()
        for i in range(5):
            forecaster.observe("slow", 120.0 * i)
        for i in range(17):
            forecaster.observe("fast", 30.0 * i)
        # Both classes last arrived at t=480; the fast one comes back
        # sooner, so it sets the pool-relevant forecast.
        assert forecaster.forecast_gap(480.0) == pytest.approx(30.0)

    def test_scoped_streams_are_independent(self):
        forecaster = ArrivalForecaster(stale_after=4.0)
        for i in range(5):
            forecaster.observe("q1", 10.0 * i, scope="hot-shard")
        forecaster.observe("q2", 0.0, scope="cold-shard")
        forecaster.observe("q2", 10.0, scope="cold-shard")
        now = 40.0
        assert forecaster.forecast_gap(now, scope="hot-shard") < math.inf
        # The cold shard's stream went stale: it forecasts "drained"
        # even though the global stream is still active.
        assert forecaster.forecast_gap(120.0, scope="cold-shard") == math.inf
        assert forecaster.forecast_gap(120.0, scope="hot-shard") == math.inf

    def test_unfed_scope_falls_back_to_global(self):
        forecaster = ArrivalForecaster()
        for i in range(5):
            forecaster.observe("q1", 10.0 * i)  # global only
        assert forecaster.forecast_gap(
            40.0, scope="never-fed"
        ) == pytest.approx(10.0)

    def test_pinned_empty_scope_forecasts_drained(self):
        # ensure_scope opts a scope out of the global fallback: a pinned
        # shard that never receives a routed arrival is drained, not
        # pool-global.
        forecaster = ArrivalForecaster()
        forecaster.ensure_scope("steal-only-shard")
        for i in range(5):
            forecaster.observe("q1", 10.0 * i)  # global only
        assert forecaster.forecast_gap(
            40.0, scope="steal-only-shard"
        ) == math.inf

    def test_out_of_order_observation_is_ignored(self):
        forecaster = ArrivalForecaster()
        forecaster.observe("q1", 10.0)
        forecaster.observe("q1", 20.0)
        forecaster.observe("q1", 5.0)  # admission-delayed resubmit
        assert forecaster.class_gap("q1") == pytest.approx(10.0)

    def test_same_tick_bursts_floor_the_gap(self):
        forecaster = ArrivalForecaster(min_gap_s=0.05)
        for _ in range(5):
            forecaster.observe("q1", 100.0)
        assert forecaster.class_gap("q1") == pytest.approx(0.05)

    def test_class_meters_bounded_with_stalest_evicted(self):
        from repro.core.forecast import _MAX_CLASSES_PER_SCOPE

        forecaster = ArrivalForecaster()
        for i in range(_MAX_CLASSES_PER_SCOPE + 20):
            forecaster.observe(f"q{i}", float(i))
        assert len(forecaster.classes()) == _MAX_CLASSES_PER_SCOPE
        # The earliest (stalest) classes were evicted, the newest kept.
        assert "q0" not in forecaster.classes()
        assert f"q{_MAX_CLASSES_PER_SCOPE + 19}" in forecaster.classes()


class TestPredictiveKeepAlive:
    def _pool(self, **kwargs):
        # AWS_SLOW_BOOT: 55 s VM cold boot; config warm boot 2 s.
        return build_pool(Simulator(), **kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveKeepAlive(headroom=0.0)
        with pytest.raises(ValueError):
            PredictiveKeepAlive(max_keep_alive_s=-1.0)

    def test_break_even_bounds(self):
        pool = self._pool()
        policy = PredictiveKeepAlive()
        vm_bound = policy.break_even_s(InstanceKind.VM, pool)
        assert vm_bound == pytest.approx(55.0 - 2.0)
        sl_bound = policy.break_even_s(InstanceKind.SERVERLESS, pool)
        prices = pool.prices
        assert sl_bound == pytest.approx(
            (0.1 - 0.01) + prices.sl_invocation / prices.sl_per_second
        )

    def test_no_forecast_means_drain(self):
        pool = self._pool()
        policy = PredictiveKeepAlive()
        assert policy.keep_alive(InstanceKind.VM, pool) == 0.0

    def test_gap_below_bound_keeps_headroom_gaps(self):
        pool = self._pool()
        policy = PredictiveKeepAlive(headroom=2.0)
        for i in range(5):
            policy.observe_arrival("q1", 10.0 * i)
        pool.simulator.run_until(40.0)
        # Forecast gap 10 s <= 53 s bound: keep warm for 2 gaps.
        assert policy.keep_alive(InstanceKind.VM, pool) == pytest.approx(20.0)

    def test_gap_beyond_bound_drains(self):
        pool = self._pool()
        policy = PredictiveKeepAlive(headroom=2.0)
        for i in range(5):
            policy.observe_arrival("q1", 100.0 * i)
        pool.simulator.run_until(400.0)
        # Forecast gap 100 s > the 53 s VM break-even: not worth it.
        assert policy.keep_alive(InstanceKind.VM, pool) == 0.0
        # ...and far beyond the tiny serverless break-even too.
        assert policy.keep_alive(InstanceKind.SERVERLESS, pool) == 0.0

    def test_cap_applies(self):
        pool = self._pool()
        policy = PredictiveKeepAlive(headroom=2.0, max_keep_alive_s=15.0)
        for i in range(5):
            policy.observe_arrival("q1", 10.0 * i)
        pool.simulator.run_until(40.0)
        assert policy.keep_alive(InstanceKind.VM, pool) == pytest.approx(15.0)

    def test_per_shard_scoping_drains_cold_shard(self, collector_factory):
        sim = Simulator()
        shards = {
            "shard-0": PoolConfig(max_vms=4, max_sls=4),
            "shard-1": PoolConfig(max_vms=4, max_sls=4),
        }
        policy = PredictiveKeepAlive(headroom=2.0)
        pool = build_pool(sim, shards=shards, autoscaler=policy)
        for i in range(5):
            policy.observe_arrival("q1", 10.0 * i, scope="shard-1")
        sim.run_until(40.0)
        hot = pool.shard("shard-1")
        cold = pool.shard("shard-0")
        assert policy.keep_alive(InstanceKind.VM, pool, hot) > 0.0
        # The cold shard has its own (fed, now empty-of-signal) scope?
        # No -- it was never fed, so it falls back to the global stream,
        # which is active.  Feed it one stale stream to pin the drain.
        policy.observe_arrival("q2", 0.0, scope="shard-0")
        policy.observe_arrival("q2", 5.0, scope="shard-0")
        sim.run_until(60.0)
        assert policy.keep_alive(InstanceKind.VM, pool, cold) == 0.0

    def test_backlog_parks_only_for_grantable_demand(self, collector_factory):
        sim = Simulator()
        policy = PredictiveKeepAlive(headroom=2.0)
        pool = build_pool(sim, max_vms=2, max_sls=2, autoscaler=policy)
        shard = pool.shards[0]
        pool.acquire(2, 0, on_instance_ready=collector_factory())
        queued = pool.acquire(2, 0, on_instance_ready=collector_factory())
        assert not queued.is_granted and shard.queue
        # A VM-needing backlog parks a released VM within the break-even
        # envelope, but a released SL has no taker in this queue: parking
        # it would bill idle time with zero chance of a warm hand-over.
        assert policy.keep_alive(InstanceKind.VM, pool, shard) > 0.0
        assert policy.keep_alive(InstanceKind.SERVERLESS, pool, shard) == 0.0

    def test_stealable_backlog_on_other_shard_parks(self, collector_factory):
        # Work stealing runs right after the keep-alive decision: a
        # grant-eligible lease queued on ANOTHER shard that fits here
        # is imminent demand, so the released worker must stay warm for
        # it rather than being terminated and respawned cold.
        sim = Simulator()
        policy = PredictiveKeepAlive(headroom=2.0)
        shards = {
            "shard-0": PoolConfig(max_vms=1, max_sls=1),
            "shard-1": PoolConfig(max_vms=1, max_sls=1),
        }
        pool = build_pool(
            sim, shards=shards, router=TenantAffinityRouter(),
            autoscaler=policy,
        )
        # Fill BOTH shards ("hot" pins to shard-1, "quiet" to shard-0),
        # then queue one more hot request: nothing can steal it yet.
        quiet_lease = pool.acquire(
            1, 0, on_instance_ready=collector_factory(), tenant="quiet"
        )
        pool.acquire(1, 0, on_instance_ready=collector_factory(),
                     tenant="hot")
        backlog = pool.acquire(
            1, 0, on_instance_ready=collector_factory(), tenant="hot"
        )
        assert not backlog.is_granted
        sim.run()
        # No forecast, empty local queue -- but the hot backlog is
        # steal-eligible onto shard-0 the moment its worker frees up.
        pool.release(quiet_lease)
        assert backlog.is_granted and backlog.shard == "shard-0"
        # The steal reused the quiet tenant's just-released worker warm
        # instead of cold-booting a fresh one.
        assert pool.stats.warm_starts == 1
        assert pool.stats.work_steals == 1

    def test_quota_blocked_backlog_does_not_park(self, collector_factory):
        from repro.cloud.pool import TenantRegistry, TenantSpec

        sim = Simulator()
        policy = PredictiveKeepAlive(headroom=2.0)
        registry = TenantRegistry([TenantSpec("capped", max_leased_vms=1)])
        pool = build_pool(
            sim, max_vms=4, tenants=registry, autoscaler=policy
        )
        held = pool.acquire(
            1, 0, on_instance_ready=collector_factory(), tenant="capped"
        )
        blocked = pool.acquire(
            1, 0, on_instance_ready=collector_factory(), tenant="capped"
        )
        shard = pool.shards[0]
        assert not blocked.is_granted and shard.queue
        # The only queued lease cannot be granted while its tenant is at
        # quota -- releasing a worker must not park "for" it.
        assert policy.keep_alive(InstanceKind.VM, pool, shard) == 0.0
        sim.run()
        pool.release(held)  # frees the quota: now the backlog is real

    def test_pool_global_mode(self):
        pool = self._pool()
        policy = PredictiveKeepAlive(per_shard=False)
        for i in range(5):
            policy.observe_arrival("q1", 10.0 * i, scope="elsewhere")
        pool.simulator.run_until(40.0)
        shard = pool.shards[0]
        assert policy.keep_alive(InstanceKind.VM, pool, shard) > 0.0

    def test_describe(self):
        assert "predictive-keep-alive" in PredictiveKeepAlive().describe()
        assert "pool-global" in PredictiveKeepAlive(
            per_shard=False
        ).describe()


class TestDurationAwareBreakEven:
    def _pool(self, **kwargs):
        return build_pool(Simulator(), **kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveKeepAlive(duration_fraction=-0.1)

    def test_default_fraction_is_raw_break_even(self):
        # duration_fraction=0.0 must leave the park bound bit-exact even
        # after durations have been observed.
        pool = self._pool()
        policy = PredictiveKeepAlive()
        raw = policy.break_even_s(InstanceKind.VM, pool)
        policy.observe_duration(500.0)
        assert policy.park_bound_s(InstanceKind.VM, pool) == raw

    def test_ewma_updates(self):
        policy = PredictiveKeepAlive(duration_fraction=0.5)
        assert policy.duration_estimate_s is None
        policy.observe_duration(100.0)
        assert policy.duration_estimate_s == pytest.approx(100.0)
        policy.observe_duration(200.0)
        # alpha = 0.3: 100 + 0.3 * (200 - 100)
        assert policy.duration_estimate_s == pytest.approx(130.0)
        policy.observe_duration(-5.0)  # ignored
        policy.observe_duration(0.0)  # ignored
        assert policy.duration_estimate_s == pytest.approx(130.0)

    def test_bound_widens_with_observed_durations(self):
        pool = self._pool()
        policy = PredictiveKeepAlive(duration_fraction=0.5)
        raw = policy.break_even_s(InstanceKind.VM, pool)
        assert policy.park_bound_s(InstanceKind.VM, pool) == raw
        policy.observe_duration(40.0)
        assert policy.park_bound_s(InstanceKind.VM, pool) == pytest.approx(
            raw + 0.5 * 40.0
        )

    def test_long_durations_park_past_raw_break_even(self):
        # A forecast gap just past the raw 53 s VM break-even drains by
        # default, but parks once long observed durations widen the bound.
        pool = self._pool()
        policy = PredictiveKeepAlive(headroom=2.0, duration_fraction=0.5)
        for i in range(5):
            policy.observe_arrival("q1", 60.0 * i)
        pool.simulator.run_until(240.0)
        assert policy.keep_alive(InstanceKind.VM, pool) == 0.0
        policy.observe_duration(120.0)  # bound: 53 + 60 = 113 s > 60 s gap
        assert policy.keep_alive(InstanceKind.VM, pool) == pytest.approx(
            120.0
        )

    def test_describe_mentions_weighting_only_when_on(self):
        assert "duration-weighted" not in PredictiveKeepAlive().describe()
        assert "duration-weighted(0.5)" in PredictiveKeepAlive(
            duration_fraction=0.5
        ).describe()


class TestAdaptiveBatchWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(max_window_s=-1.0)
        with pytest.raises(ValueError):
            AdaptiveBatchWindow(alpha=0.0)

    def test_window_is_zero_without_feedback(self):
        tuner = AdaptiveBatchWindow()
        assert tuner.window() == 0.0
        tuner.observe_arrival(0.0)
        tuner.observe_arrival(1.0)
        assert tuner.window() == 0.0  # no decision latency measured yet

    def test_break_even_window(self):
        tuner = AdaptiveBatchWindow(max_window_s=10.0, alpha=1.0)
        tuner.observe_arrival(0.0)
        tuner.observe_arrival(0.5)  # gap 0.5 s
        tuner.observe_decision(2.0)  # passes cost 2 s
        assert tuner.window() == pytest.approx(1.5)  # D - 1/lambda
        # Cheap decisions (or sparse arrivals) shut coalescing off.
        tuner.observe_decision(0.1)
        assert tuner.window() == 0.0

    def test_out_of_order_arrival_ignored(self):
        tuner = AdaptiveBatchWindow(alpha=1.0)
        tuner.observe_arrival(10.0)
        tuner.observe_arrival(20.0)
        tuner.observe_arrival(5.0)  # must not rewind the reference
        tuner.observe_arrival(21.0)
        assert tuner.gap_s == pytest.approx(1.0)

    def test_window_capped(self):
        tuner = AdaptiveBatchWindow(max_window_s=1.0, alpha=1.0)
        tuner.observe_arrival(0.0)
        tuner.observe_arrival(0.1)
        tuner.observe_decision(50.0)
        assert tuner.window() == 1.0

    def test_describe(self):
        assert "adaptive-batch-window" in AdaptiveBatchWindow().describe()


class TestServingIntegration:
    def test_serving_feeds_forecaster_with_query_classes(self):
        system = build_small_system(seed=310)
        policy = PredictiveKeepAlive()
        ServingSimulator(
            system,
            pool_config=PoolConfig(max_vms=16, max_sls=16),
            autoscaler=policy,
            decision_reuse=False,
        ).replay(build_bursty_trace(4, spacing_s=10.0))
        observed = policy.forecaster.classes()
        assert observed  # the serving layer fed arrivals through
        expected = system.predictor.query_class("tpcds-q82", 100.0)
        assert expected in observed
        # The routed shard was fed as a scope alongside the global stream.
        assert policy.forecaster.classes(scope="default")

    def test_serving_feeds_durations_to_duration_aware_policy(self):
        policy = PredictiveKeepAlive(duration_fraction=0.5)
        assert policy.duration_estimate_s is None
        ServingSimulator(
            build_small_system(seed=317),
            pool_config=PoolConfig(max_vms=16, max_sls=16),
            autoscaler=policy,
            decision_reuse=False,
        ).replay(build_bursty_trace(4, spacing_s=10.0))
        # Every completion's actual runtime reached the EWMA.
        assert policy.duration_estimate_s is not None
        assert policy.duration_estimate_s > 0.0

    def test_predictive_autoscaler_warms_sustained_stream(self):
        # Arrivals keep coming while earlier queries complete, so the
        # forecast stays fresh at release time and workers are reused.
        policy = PredictiveKeepAlive(headroom=3.0)
        report = ServingSimulator(
            build_small_system(seed=311),
            pool_config=PoolConfig(max_vms=12, max_sls=12),
            autoscaler=policy,
            decision_reuse=False,
        ).replay(build_bursty_trace(14, spacing_s=12.0), mode="vm-only")
        assert report.pool_stats.warm_starts > 0
        assert report.keepalive_cost_dollars >= 0.0
        # Per-shard spend partitions the total.
        assert sum(report.keepalive_cost_by_shard.values()) == pytest.approx(
            report.keepalive_cost_dollars, rel=1e-12, abs=1e-15
        )

    def test_shard_autoscalers_forwarded_and_fed(self):
        shards = {
            "shard-0": PoolConfig(max_vms=8, max_sls=8),
            "shard-1": PoolConfig(max_vms=8, max_sls=8),
        }
        per_shard = {
            "shard-0": PredictiveKeepAlive(),
            "shard-1": PredictiveKeepAlive(),
        }
        report = ServingSimulator(
            build_small_system(seed=312),
            shards=shards,
            router=TenantAffinityRouter(),
            shard_autoscalers=per_shard,
            decision_reuse=False,
        ).replay_multi({
            "hot": build_bursty_trace(4, spacing_s=8.0),
            "quiet": build_bursty_trace(2, spacing_s=60.0, start_s=3.0),
        })
        assert report.n_queries == 6
        # Every per-shard policy observed the arrival stream.
        assert per_shard["shard-0"].forecaster.classes()
        assert per_shard["shard-1"].forecaster.classes()

    def test_shared_forecaster_not_double_fed(self):
        # Per-shard policies sharing ONE forecaster must feed it once
        # per arrival: double-feeding would floor the gap EWMA to
        # min_gap_s and shrink every keep-alive window.
        shared = ArrivalForecaster()
        shards = {
            "shard-0": PoolConfig(max_vms=8, max_sls=8),
            "shard-1": PoolConfig(max_vms=8, max_sls=8),
        }
        system = build_small_system(seed=315)
        ServingSimulator(
            system,
            shards=shards,
            shard_autoscalers={
                "shard-0": PredictiveKeepAlive(shared),
                "shard-1": PredictiveKeepAlive(shared),
            },
            decision_reuse=False,
        ).replay(build_bursty_trace(6, spacing_s=10.0))
        key = system.predictor.query_class("tpcds-q82", 100.0)
        assert shared.class_gap(key) == pytest.approx(10.0)

    def test_serving_pins_all_shard_scopes(self):
        # Every shard's scope exists after a replay, so a shard that
        # received no routed arrivals forecasts drained rather than
        # inheriting the global (hot) stream.
        policy = PredictiveKeepAlive()
        # Wide shards: the pinned shard never saturates, so no arrival
        # is ever stolen onto (and observed on) the idle shard.
        shards = {
            "shard-0": PoolConfig(max_vms=40, max_sls=40),
            "shard-1": PoolConfig(max_vms=40, max_sls=40),
        }
        ServingSimulator(
            build_small_system(seed=316),
            shards=shards,
            router=TenantAffinityRouter(),
            autoscaler=policy,
            decision_reuse=False,
        ).replay_multi({"hot": build_bursty_trace(3, spacing_s=30.0)})
        # "hot" pins to shard-1; shard-0 saw nothing but is pinned.
        assert policy.forecaster.forecast_gap(
            60.0, scope="shard-0"
        ) == math.inf
        assert policy.forecaster.forecast_gap(60.0, scope="shard-1") < 60.0

    def test_auto_batch_window_replay(self):
        report = ServingSimulator(
            build_small_system(seed=313),
            pool_config=PoolConfig(max_vms=32, max_sls=32),
            batch_window_s="auto",
            decision_reuse=False,
        ).replay(build_bursty_trace(6, spacing_s=0.001))
        assert report.n_queries == 6
        for query in report.served:
            assert query.batching_delay_s >= 0.0
            assert query.latency_s == pytest.approx(
                query.admission_delay_s
                + query.batching_delay_s
                + query.queueing_delay_s
                + query.outcome.actual_seconds
            )

    def test_invalid_batch_window_string_rejected(self):
        with pytest.raises(ValueError):
            ServingSimulator(
                build_small_system(seed=314), batch_window_s="adaptive"
            )
