"""Epoch-level workload planning: properties, safety and regressions.

Four layers pin the planner stack:

- **Epoch algebra**: :class:`WorkloadEpoch` summaries merge
  associatively (hypothesis), so serving windows can be coarsened or
  combined freely without changing what the forecaster sees.
- **``apply_plan`` safety**: whatever an arbitrary :class:`PoolPlan`
  asks for, the pool never kills a leased worker, never strands a
  servable worker kind, never lets a tenant exceed its quota, and keeps
  the time-conservation ledger balanced (hypothesis over interleaved
  leases and plans).
- **Inert-planner bit-exactness**: a planner that can neither pre-warm
  nor re-shape capacity leaves the replay field-for-field identical to
  ``planner=None`` (hypothesis over traces).
- **Forecast-aware routing**: a cold shard with a hot forecast attracts
  the planner's pre-warm, not the traffic -- traffic follows actual
  warmth and only consolidates on predicted warmth as a tie-break.
"""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import (
    DeadlineAwareGrant,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import (
    EpochForecaster,
    FleetPlanner,
    ForecastAwareRouter,
    PoolPlan,
    WorkloadEpoch,
)
from repro.core.serving import ServingSimulator
from repro.engine import Simulator
from repro.workloads.synthetic import make_epoch_trace
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


# ---------------------------------------------------------------------------
# Epoch algebra
# ---------------------------------------------------------------------------

_observations = st.lists(
    st.tuples(
        st.sampled_from(["t0", "t1", "t2"]),
        st.sampled_from(["q-a", "q-b", "q-c"]),
        st.floats(min_value=0.0, max_value=512.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from([None, "a", "b"]),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=12,
)


def _epoch(start_s: float, duration_s: float, observations) -> WorkloadEpoch:
    epoch = WorkloadEpoch(start_s=start_s, duration_s=duration_s)
    for tenant, class_key, input_gb, shard, n_vm, n_sl in observations:
        epoch.observe(
            tenant, class_key, input_gb, shard=shard, n_vm=n_vm, n_sl=n_sl
        )
    return epoch


def _epoch_signature(epoch: WorkloadEpoch) -> tuple:
    return (
        epoch.start_s,
        epoch.duration_s,
        epoch.n_arrivals,
        tuple(sorted(epoch.counts.items())),
        tuple(sorted(epoch.octaves.items())),
        tuple(sorted(epoch.shard_counts.items())),
        epoch.vm_workers,
        epoch.sl_workers,
    )


class TestEpochAlgebra:

    @given(
        a=_observations, b=_observations, c=_observations,
        starts=st.tuples(
            *([st.floats(min_value=0.0, max_value=3600.0,
                         allow_nan=False, allow_infinity=False)] * 3)
        ),
    )
    @settings(deadline=None)
    def test_merge_is_associative(self, a, b, c, starts):
        def build():
            return (
                _epoch(starts[0], 60.0, a),
                _epoch(starts[1], 90.0, b),
                _epoch(starts[2], 30.0, c),
            )

        x, y, z = build()
        left = x.merge(y).merge(z)
        x, y, z = build()
        right = x.merge(y.merge(z))
        assert _epoch_signature(left) == _epoch_signature(right)

    @given(a=_observations, b=_observations)
    @settings(deadline=None)
    def test_merge_sums_counters(self, a, b):
        merged = _epoch(0.0, 60.0, a).merge(_epoch(60.0, 60.0, b))
        assert merged.n_arrivals == len(a) + len(b)
        assert merged.vm_workers == sum(o[4] for o in a + b)
        assert merged.sl_workers == sum(o[5] for o in a + b)
        assert merged.duration_s == 120.0
        assert merged.start_s == 0.0
        assert sum(merged.counts.values()) == merged.n_arrivals
        assert sum(merged.octaves.values()) == merged.n_arrivals

    def test_forecaster_converges_on_constant_load(self):
        forecaster = EpochForecaster(alpha=0.5)
        for i in range(12):
            epoch = _epoch(i * 60.0, 60.0, [("t0", "q-a", 8.0, "a", 2, 3)] * 5)
            forecaster.observe(epoch)
        forecast = forecaster.forecast()
        assert forecast is not None
        assert forecast.arrivals == pytest.approx(5.0, rel=0.05)
        assert forecast.by_class[("t0", "q-a")] == pytest.approx(5.0, rel=0.05)
        assert forecast.by_shard["a"] == pytest.approx(5.0, rel=0.05)
        assert forecast.vm_per_arrival == pytest.approx(2.0)
        assert forecast.sl_per_arrival == pytest.approx(3.0)

    def test_seasonal_term_remembers_the_burst(self):
        # Period of 4 epochs: quiet, quiet, BURST, quiet.  After two full
        # seasons, the forecast issued right before the burst slot must
        # sit well above the EWMA-only prediction.
        seasonal = EpochForecaster(
            alpha=0.3, season_length=4, seasonal_weight=0.8
        )
        ewma_only = EpochForecaster(alpha=0.3)
        pattern = [2, 2, 40, 2]
        for i in range(8):
            count = pattern[i % 4]
            epoch = _epoch(i * 60.0, 60.0, [("t", "q", 4.0, "a", 1, 1)] * count)
            seasonal.observe(epoch)
            ewma_only.observe(epoch)
        # Next slot (index 8 -> pattern index 0) is quiet; slot 10 is the
        # burst.  Feed the two quiet epochs and ask right before it.
        for i in (8, 9):
            epoch = _epoch(i * 60.0, 60.0, [("t", "q", 4.0, "a", 1, 1)] * 2)
            seasonal.observe(epoch)
            ewma_only.observe(epoch)
        assert seasonal.forecast().arrivals > 3 * ewma_only.forecast().arrivals


# ---------------------------------------------------------------------------
# apply_plan safety under arbitrary plans
# ---------------------------------------------------------------------------

_requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=60.0,
                  allow_nan=False, allow_infinity=False),  # acquire time
        st.integers(min_value=0, max_value=2),  # n_vm
        st.integers(min_value=0, max_value=2),  # n_sl
        st.sampled_from(["quota", "free"]),
        st.floats(min_value=1.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False),  # hold seconds
    ).filter(lambda r: r[1] + r[2] > 0),
    min_size=1,
    max_size=8,
)

# Capacity targets stay >= the max request size (2), so arbitrary
# shrinks cannot deadlock a queued lease: the planner's own plans never
# shrink below a shard's baseline, and the safety contract only promises
# progress for leases the remaining capacity can still hold.
_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),  # apply time
        st.tuples(st.integers(min_value=2, max_value=6),
                  st.integers(min_value=2, max_value=6)),  # capacity "a"
        st.tuples(st.integers(min_value=2, max_value=6),
                  st.integers(min_value=2, max_value=6)),  # capacity "b"
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4)),  # prewarm "a"
        st.floats(min_value=1.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),  # keep-alive
    ),
    min_size=1,
    max_size=6,
)


class TestApplyPlanSafety:

    @given(requests=_requests, plans=_plans)
    @settings(max_examples=25, deadline=None)
    def test_never_kills_leased_never_breaks_quota(self, requests, plans):
        simulator = Simulator()
        registry = TenantRegistry([
            TenantSpec("quota", max_leased_vms=2, max_leased_sls=2),
            TenantSpec("free"),
        ])
        pool = build_pool(
            simulator,
            shards={
                "a": PoolConfig(max_vms=4, max_sls=4),
                "b": PoolConfig(max_vms=4, max_sls=4),
            },
            tenants=registry,
        )

        def check_invariants() -> None:
            for shard in pool.shards:
                # Leased workers survive every re-shape: capacity is
                # clamped up to the leased count, never down through it.
                assert shard.config.max_vms >= max(shard.leased_vms, 1)
                assert shard.config.max_sls >= max(shard.leased_sls, 1)
                # The leased count never exceeds capacity, and after a
                # trim the warm + pre-booting population fits the
                # remaining headroom (the trim only stops early once
                # the warm set is empty).
                for kind, cap, leased in (
                    (InstanceKind.VM, shard.config.max_vms,
                     shard.leased_vms),
                    (InstanceKind.SERVERLESS, shard.config.max_sls,
                     shard.leased_sls),
                ):
                    assert leased <= cap
                    warm = len(shard.warm[kind])
                    booting = pool._prewarming_count(shard, kind)
                    assert warm == 0 or leased + warm + booting <= cap
            for tenant in ("quota", "free"):
                vm_used, sl_used = pool.tenant_leased(tenant)
                assert vm_used >= 0 and sl_used >= 0
            vm_used, sl_used = pool.tenant_leased("quota")
            assert vm_used <= 2 and sl_used <= 2

        def start(n_vm: int, n_sl: int, tenant: str, hold_s: float) -> None:
            def on_granted(lease) -> None:
                simulator.schedule(hold_s, lambda: pool.release(lease))

            pool.acquire(
                n_vm, n_sl, lambda instance, warm: None,
                on_granted=on_granted, tenant=tenant,
            )

        for at, n_vm, n_sl, tenant, hold_s in requests:
            simulator.schedule_at(
                at,
                lambda n_vm=n_vm, n_sl=n_sl, tenant=tenant, hold_s=hold_s:
                    start(n_vm, n_sl, tenant, hold_s),
            )

        def apply(plan: PoolPlan) -> None:
            pool.apply_plan(plan)
            check_invariants()

        for at, cap_a, cap_b, prewarm_a, keep_alive in plans:
            plan = PoolPlan(
                shard_capacity={"a": cap_a, "b": cap_b},
                prewarm={"a": prewarm_a} if any(prewarm_a) else {},
                prewarm_keep_alive_s=keep_alive,
            )
            simulator.schedule_at(at, lambda plan=plan: apply(plan))

        simulator.run()
        check_invariants()
        pool.shutdown()

        stats = pool.stats
        # No plan may revoke or kill a leased worker -- shrinks only trim
        # the warm set (accounted as expirations) and drain via releases.
        assert stats.warm_kills == 0
        assert stats.leases_revoked == 0
        assert stats.leases_granted == len(requests)
        assert stats.warm_starts + stats.cold_starts == sum(
            r[1] + r[2] for r in requests
        )
        quota_vm, quota_sl = pool.tenant_peaks.get("quota", (0, 0))
        assert quota_vm <= 2 and quota_sl <= 2
        # Pre-boots bill as idle time: the ledger still conserves.
        assert stats.instance_seconds == pytest.approx(
            stats.leased_seconds + stats.idle_seconds
        )
        assert pool.prewarm_cost_dollars <= pool.keepalive_cost_dollars
        if not any(any(p[3]) for p in plans):
            assert stats.prewarms == 0
            assert pool.prewarm_cost_dollars == 0.0

    def test_prewarm_is_clamped_to_headroom(self):
        simulator = Simulator()
        pool = build_pool(simulator, max_vms=3, max_sls=3)
        pool.apply_plan(PoolPlan(
            prewarm={"default": (99, 99)}, prewarm_keep_alive_s=600.0
        ))
        shard = pool.shard("default")
        assert pool.stats.prewarms == 6  # 3 VM + 3 SL, not 99 each
        simulator.run_before(599.0)
        assert shard.warm_vms == 3 and shard.warm_sls == 3
        # A second plan sees the pool already full and adds nothing.
        pool.apply_plan(PoolPlan(
            prewarm={"default": (1, 1)}, prewarm_keep_alive_s=600.0
        ))
        assert pool.stats.prewarms == 6
        simulator.run()
        pool.shutdown()
        assert pool.stats.expirations == 6

    def test_unknown_shard_is_rejected(self):
        pool = build_pool(Simulator())
        with pytest.raises(ValueError, match="unknown shard"):
            pool.apply_plan(PoolPlan(prewarm={"nope": (1, 0)}))


# ---------------------------------------------------------------------------
# Inert planner is bit-exact with no planner
# ---------------------------------------------------------------------------

def _traces():
    event = st.tuples(
        st.floats(min_value=0.0, max_value=90.0,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["tpcds-q82", "tpcds-q68"]),
        st.floats(min_value=60.0, max_value=160.0,
                  allow_nan=False, allow_infinity=False),
    )
    return st.lists(event, min_size=2, max_size=5).map(
        lambda items: WorkloadTrace(events=tuple(
            TraceEvent(arrival, query_id, input_gb=size)
            for arrival, query_id, size in sorted(items, key=lambda x: x[0])
        ))
    )


def _served_signature(query) -> tuple:
    """Engine-independent per-query fields (``inference_seconds`` is
    measured host wall time, so it differs between any two runs)."""
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
    )


class TestInertPlannerBitExact:

    @given(trace=_traces())
    @REPLAY_SETTINGS
    def test_inert_planner_is_invisible(self, trace):
        """A planner that can neither pre-warm nor re-shape capacity
        emits only empty plans; serving with it must be field-for-field
        identical to ``planner=None`` -- the epoch ticks fire, but no
        pool state changes and no extra RNG is drawn."""
        def run(planner):
            return ServingSimulator(
                build_small_system(
                    seed=281, n_configs_per_query=6, max_vm=6, max_sl=6
                ),
                pool_config=PoolConfig(max_vms=8, max_sls=8),
                decision_reuse=False,
                planner=planner,
            ).replay(trace)

        plain = run(None)
        inert = run(FleetPlanner(
            epoch_s=20.0, max_prewarm_vms=0, max_prewarm_sls=0
        ))
        assert [_served_signature(s) for s in plain.served] == [
            _served_signature(s) for s in inert.served
        ]
        assert plain.query_cost_dollars == inert.query_cost_dollars
        assert plain.keepalive_cost_dollars == inert.keepalive_cost_dollars
        assert plain.wasted_cost_dollars == inert.wasted_cost_dollars
        assert plain.pool_stats == inert.pool_stats
        assert plain.epochs_planned == 0
        assert inert.pool_stats.prewarms == 0
        assert inert.prewarm_cost_dollars == 0.0
        if trace.events[-1].arrival_s >= 20.0:
            assert inert.epochs_planned > 0


# ---------------------------------------------------------------------------
# Forecast-aware routing (backlog-aware routing follow-on)
# ---------------------------------------------------------------------------

def _heated_planner(pool, shard: str = "b") -> FleetPlanner:
    """A planner whose history says ``shard`` takes a dense VM stream."""
    planner = FleetPlanner(epoch_s=60.0, max_prewarm_vms=2, max_prewarm_sls=2)
    planner.begin(0.0)
    for _ in range(30):
        planner.observe_arrival("t", "q", 8.0, shard=shard, n_vm=1, n_sl=0)
    planner.observe_duration(30.0)
    return planner


class TestForecastAwareRouting:

    def _pool(self, simulator, planner):
        return build_pool(
            simulator,
            shards={
                "a": PoolConfig(max_vms=4, max_sls=4),
                "b": PoolConfig(max_vms=4, max_sls=4),
            },
            router=ForecastAwareRouter(planner),
        )

    def test_hot_forecast_cold_shard_attracts_the_prewarm(self):
        simulator = Simulator()
        planner = _heated_planner(None, shard="b")
        pool = self._pool(simulator, planner)
        plan = planner.on_epoch_end(pool, 60.0)
        # All history points at "b": the pre-warm goes there, not "a".
        assert "b" in plan.prewarm
        assert plan.prewarm["b"][0] >= 1
        assert "a" not in plan.prewarm

    def test_traffic_follows_actual_warmth_over_forecast(self):
        simulator = Simulator()
        planner = _heated_planner(None, shard="b")
        pool = self._pool(simulator, planner)
        planner.on_epoch_end(pool, 60.0)  # forecast now says "b" is hot
        # Warm up "a" only (a pre-boot landing in its warm set) while
        # "b" stays cold with a hot forecast.
        pool.apply_plan(PoolPlan(
            prewarm={"a": (1, 0)}, prewarm_keep_alive_s=600.0
        ))
        simulator.run_before(599.0)  # boot completes, nothing expires
        assert pool.shard("a").warm_vms == 1
        assert pool.shard("b").warm_vms == 0
        # The cold-but-hot-forecast shard got the pre-warm (above); the
        # traffic goes to the shard that is ACTUALLY warm right now.
        assert pool.router.route(1, 0, "t", pool) == "a"

    def test_forecast_breaks_ties_between_cold_shards(self):
        simulator = Simulator()
        planner = _heated_planner(None, shard="b")
        pool = self._pool(simulator, planner)
        planner.on_epoch_end(pool, 60.0)
        # Both shards cold and equally free: consolidate on the shard
        # the planner is heating rather than spraying across both.
        assert pool.router.route(1, 1, "t", pool) == "b"


class TestDurationSizedDemand:

    def test_duration_ewma_sizes_concurrent_demand(self):
        # 30 arrivals a minute that each run ~46 s keep ~23 in flight,
        # well above the floor of one, so the duration EWMA sizes the
        # plan: 30 -> 48 -> 45.6 s with alpha 0.3.
        planner = FleetPlanner(
            epoch_s=60.0, capacity_limits={"a": (64, 128)}
        )
        planner.begin(0.0)
        for _ in range(30):
            planner.observe_arrival("t", "q", 8.0, shard="a", n_vm=1, n_sl=2)
        for seconds in (30.0, 90.0, 40.0):
            planner.observe_duration(seconds)
        pool = build_pool(
            Simulator(), shards={"a": PoolConfig(max_vms=4, max_sls=4)}
        )
        plan = planner.on_epoch_end(pool, 60.0)
        predicted = planner.shard_forecast("a")
        assert predicted * planner._duration_ewma / planner.epoch_s > 1.0
        # headroom 1.5 x min(30 * 45.6 / 60, 30) x the (1 VM, 2 SL) mix
        assert planner._shard_demand(
            planner._last_forecast, predicted
        ) == (34.2, 68.4)
        assert plan.shard_capacity == {"a": (35, 69)}


# ---------------------------------------------------------------------------
# End-to-end: the planner actually plans
# ---------------------------------------------------------------------------

class TestPlannerEndToEnd:

    def test_planner_prewarms_on_a_seasonal_trace(self):
        trace = make_epoch_trace(
            160,
            period_s=600.0,
            n_periods=4,
            query_classes=("uniform-2x1s", "uniform-4x1s"),
            input_gb_octaves=(16.0,),
            rng=11,
        )
        report = ServingSimulator(
            build_small_system(
                seed=47,
                queries=("uniform-2x1s", "uniform-4x1s"),
                error_difference_trigger=1e9,
            ),
            slo_seconds=60.0,
            pool_config=PoolConfig(max_vms=64, max_sls=64),
            decision_reuse=False,
            planner=FleetPlanner(
                epoch_s=150.0,
                forecaster=EpochForecaster(
                    alpha=0.5, season_length=4, seasonal_weight=0.5
                ),
                max_prewarm_vms=4,
                max_prewarm_sls=8,
            ),
        ).replay(trace)
        assert report.n_queries == 160
        assert report.epochs_planned >= 10
        assert report.pool_stats.prewarms > 0
        assert report.prewarm_cost_dollars > 0.0
        assert report.prewarm_cost_dollars <= report.keepalive_cost_dollars
        assert report.total_cost_dollars == pytest.approx(
            report.query_cost_dollars
            + report.keepalive_cost_dollars
            + report.wasted_cost_dollars
        )


# ---------------------------------------------------------------------------
# fresh(): the configuration carries over, learned state does not
# ---------------------------------------------------------------------------

def _state(obj) -> dict:
    """Every attribute of ``obj``, nested forecasters expanded."""
    return {
        name: _state(value) if isinstance(value, EpochForecaster) else value
        for name, value in vars(obj).items()
    }


class TestFresh:
    """Serving starts every replay from ``planner.fresh()``, so a planner
    reused across replays must not leak one replay's observations into
    the next."""

    FORECASTER = dict(
        alpha=0.25, season_length=3, seasonal_weight=0.8, history=7
    )

    def _planner_kwargs(self) -> dict:
        return dict(
            epoch_s=120.0,
            forecaster=EpochForecaster(**self.FORECASTER),
            headroom=2.5,
            max_prewarm_vms=3,
            max_prewarm_sls=5,
            prewarm_keep_alive_s=90.0,
            capacity_limits={"a": (6, 4)},
            grant_policy=DeadlineAwareGrant(),
            keep_alive_margin=4.0,
            max_keep_alive_s=240.0,
        )

    @pytest.mark.parametrize("cls", [EpochForecaster, FleetPlanner])
    def test_every_parameter_is_set_off_default(self, cls):
        # A constructor parameter that fresh() forgot to pass would fall
        # back to its default; setting each one off its default makes
        # that visible below.
        kwargs = (
            self.FORECASTER if cls is EpochForecaster
            else self._planner_kwargs()
        )
        parameters = inspect.signature(cls).parameters
        assert kwargs.keys() == parameters.keys()
        for name, parameter in parameters.items():
            assert kwargs[name] != parameter.default, name

    def test_fresh_forecaster_matches_a_new_one(self):
        forecaster = EpochForecaster(**self.FORECASTER)
        for n in (3, 9, 4):
            epoch = WorkloadEpoch(duration_s=60.0)
            for _ in range(n):
                epoch.observe("t", "q", 8.0, shard="a", n_vm=1, n_sl=1)
            forecaster.observe(epoch)
        assert forecaster.n_observed == 3
        fresh = forecaster.fresh()
        assert _state(fresh) == _state(EpochForecaster(**self.FORECASTER))
        assert fresh.forecast() is None

    def test_fresh_planner_matches_a_new_one(self):
        kwargs = self._planner_kwargs()
        planner = FleetPlanner(**kwargs)
        pool = build_pool(
            Simulator(), shards={"a": PoolConfig(max_vms=4, max_sls=4)}
        )
        planner.begin(0.0)
        for now in (120.0, 240.0):
            for _ in range(12):
                planner.observe_arrival(
                    "t", "q", 8.0, shard="a", n_vm=1, n_sl=0
                )
            planner.observe_duration(30.0)
            planner.on_epoch_end(pool, now)
        assert planner.epochs_closed == 2
        fresh = planner.fresh()
        assert fresh.forecaster is not planner.forecaster
        untrained = FleetPlanner(
            **{**kwargs, "forecaster": EpochForecaster(**self.FORECASTER)}
        )
        assert _state(fresh) == _state(untrained)
