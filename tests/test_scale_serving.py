"""Columnar replay drain + streaming reports: pinned reports and scale.

Four layers pin the million-arrival serving stack:

- **Pinned reports**: with decision reuse off, the drain must reproduce
  field-wise digests recorded on the per-arrival event drain it
  replaced (``drain_goldens.json``), for both trace representations,
  static and adaptive batch windows, mid-replay retrains and a live
  fleet planner.
- **Streaming reports**: ``keep_queries=False`` drops the per-query
  list; every metric the streaming accumulators carry must agree with
  the ``keep_queries=True`` report of the same replay, and the
  list-backed accessors must refuse loudly rather than silently return
  nothing.
- **Kept reports stay exact**: with ``keep_queries=True`` every
  percentile and count equals its value computed from the kept records,
  past the default sketch capacity, per tenant slice and after a merge.
- **A 50k-arrival multi-tenant scenario** replays a generated
  population trace through the columnar streaming path and asserts the
  same cross-cutting invariants the scenario matrix in
  ``test_multitenant_serving.py`` pins at small scale: every arrival
  served, chargeback conservation, slice partition, quota peaks,
  fairness bounds and the instance-second ledger.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.cloud.pool import (
    DeadlineAwareGrant,
    FixedKeepAlive,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import FleetPlanner
from repro.core.serving import ServingSimulator, ServingStream
from repro.engine.runner import RetryPolicy
from repro.workloads.synthetic import (
    make_chaos_plan,
    make_epoch_trace,
    make_scale_trace,
)
from repro.workloads.trace import (
    ColumnarTrace,
    PoissonTraceGenerator,
    WorkloadTrace,
)

from conftest import build_small_system
from test_replay_golden import DRAIN_GOLDENS, report_digest

QUERIES = ("uniform-2x1s", "uniform-4x1s")
GOLDENS = DRAIN_GOLDENS["scale_serving"]


def build_uniform_system(seed: int = 47, **overrides):
    # Retraining is off by default: the 16 GB trace inputs sit far from
    # the bootstrap profile, so the default trigger would retrain the
    # forest every few arrivals and dominate the suite's wall time.  The
    # dedicated retrain test below turns it back on.
    overrides.setdefault("error_difference_trigger", 1e9)
    return build_small_system(seed=seed, queries=QUERIES, **overrides)


def make_trace(n_minutes: float = 10.0, rng: int = 7) -> WorkloadTrace:
    return PoissonTraceGenerator(
        query_mix={QUERIES[0]: 2.0, QUERIES[1]: 1.0},
        rate_per_minute=6.0,
        burst_factor=3.0,
        input_gb=16.0,
        rng=rng,
    ).generate(duration_minutes=n_minutes)


def replay(
    trace,
    keep_queries: bool = True,
    decision_reuse: bool = True,
    seed: int = 47,
    system_overrides: dict | None = None,
    **kwargs,
):
    simulator = ServingSimulator(
        build_uniform_system(seed, **(system_overrides or {})),
        slo_seconds=60.0,
        pool_config=PoolConfig(max_vms=256, max_sls=256),
        keep_queries=keep_queries,
        decision_reuse=decision_reuse,
        **kwargs,
    )
    return simulator.replay(trace)


def report_signature(report) -> dict:
    """Simulated report fields (measured wall-clock timings excluded:
    ``inference_seconds`` is host time, not simulated time)."""
    return {
        "n_queries": report.n_queries,
        "query_cost_dollars": report.query_cost_dollars,
        "p50": report.latency_percentile(50),
        "p99": report.latency_percentile(99),
        "queueing_p50": report.queueing_delay_percentile(50),
        "slo": report.slo_attainment,
        "batched": report.batched_decision_rate,
        "aliens": report.n_aliens,
        "retrains": report.n_retrains,
        "warm": report.warm_start_rate,
        "epochs": report.epochs_planned,
        "prewarm": report.prewarm_cost_dollars,
    }


class TestEngineEquivalence:
    """The drain reproduces the event drain's pinned reports.

    Every scenario replays with decision reuse off -- the paper's
    per-query sizing -- and must match its digest field for field.
    """

    def test_reports_and_queries_match(self):
        trace = make_trace()
        report = replay(trace, decision_reuse=False)
        assert len(report.served) == len(trace)
        assert report_digest(report) == GOLDENS["plain"]

    def test_trace_representation_is_irrelevant(self):
        report = replay(
            ColumnarTrace.from_trace(make_trace()), decision_reuse=False
        )
        assert report_digest(report) == GOLDENS["plain"]

    def test_batch_window_groups_match(self):
        trace = make_trace(n_minutes=6.0)
        report = replay(trace, decision_reuse=False, batch_window_s=5.0)
        assert report.batched_decision_rate > 0.0
        assert report_digest(report) == GOLDENS["window"]

    def test_adaptive_window_groups_match(self):
        # The adaptive drain feeds the tuner arrival by arrival, so
        # group boundaries follow its evolving state.  A fixed-window
        # tuner keeps the replay deterministic (the real auto-tuner
        # mixes measured wall-clock decision latency into its window).
        from repro.core.forecast import AdaptiveBatchWindow

        class _FixedWindow(AdaptiveBatchWindow):
            def __init__(self, window_s: float) -> None:
                super().__init__(max_window_s=window_s)
                self._window_s = window_s

            def window(self) -> float:
                return self._window_s

        report = replay(
            make_trace(n_minutes=6.0),
            decision_reuse=False,
            batch_window_s=_FixedWindow(5.0),
        )
        assert report.batched_decision_rate > 0.0
        assert report_digest(report) == GOLDENS["tuner"]

    def test_retrains_preserve_equivalence_and_invalidate_cache(self):
        # Default retrain trigger: the 16 GB inputs sit far from the
        # bootstrap profile, so this short trace retrains mid-replay.
        # The drain must match its pin through the model-version bumps,
        # and the reuse cache (keyed by model version) must keep serving.
        trace = make_trace(n_minutes=1.5)
        # A small bootstrap grid keeps each retrain's forest fit cheap
        # (fit cost scales with the profiled training set) without
        # changing what is under test: version bumps mid-replay.
        overrides = {"error_difference_trigger": 50.0, "n_configs_per_query": 3}
        report = replay(
            trace, decision_reuse=False, system_overrides=overrides
        )
        assert report.n_retrains > 0
        assert report_digest(report) == GOLDENS["retrain"]
        reused = replay(trace, system_overrides=overrides)
        assert reused.n_queries == len(trace)
        assert reused.n_retrains > 0

    def test_vector_submission_with_planner_matches(self):
        # Object and vector submission consume the duration rng
        # stream identically.  A live planner adds epoch ticks and
        # pre-boots; both must match the pin, pre-warm ledger included.
        trace = make_trace(n_minutes=8.0)
        for submission in ("object", "vector"):
            report = replay(
                trace,
                decision_reuse=False,
                submission=submission,
                planner=FleetPlanner(
                    epoch_s=60.0, max_prewarm_vms=4, max_prewarm_sls=8
                ),
            )
            assert report.epochs_planned > 0
            assert report.pool_stats.prewarms > 0
            assert report_digest(report) == GOLDENS["planner"]

    def test_decision_reuse_skips_forest_passes(self):
        trace = make_trace()
        cold = replay(trace, decision_reuse=False)
        reused = replay(trace)
        assert reused.n_queries == cold.n_queries
        # Reused decisions carry inference_seconds=0, so the total is
        # well below the every-arrival-decides baseline.
        assert reused.total_decision_seconds < 0.5 * cold.total_decision_seconds


#: Per-arrival and per-replay serving state that must never sit in a
#: reference cycle once a replay returns.
_REPLAY_STATE_TYPES = {
    "ClusterPool", "Simulator", "PoolLease", "EventHandle", "PlanRunner",
    "QueryExecution", "TaskScheduler", "_Replay",
}


def _contended_kwargs() -> dict:
    """Planner epochs, chaos retries and deadline-ordered grants with
    preemption on a pool small enough to queue, for an SLO tenant."""
    return {
        "pool_config": PoolConfig(max_vms=4, max_sls=4),
        "planner": FleetPlanner(epoch_s=30.0),
        "fault_plan": make_chaos_plan("moderate", seed=3),
        "retry_policy": RetryPolicy(8, backoff_base_s=3.0),
        "grant_policy": DeadlineAwareGrant(preempt=True),
        "tenants": TenantRegistry(
            [TenantSpec("default", slo_latency_s=60.0)]
        ),
    }


class TestReplayMemory:
    """A finished replay's state is freed by reference counting.

    Left to the cyclic collector, every replay's leases, plan runners
    and boot events outlive it until a full collection happens to run,
    so a process replaying repeatedly grows with the replay count.
    """

    @pytest.mark.parametrize(
        "submission, decision_reuse, contended",
        [
            pytest.param("object", False, False, id="columnar-object"),
            pytest.param("vector", True, False, id="columnar-vector"),
            pytest.param(
                "vector", True, True, id="columnar-vector-contended"
            ),
        ],
    )
    def test_replay_leaves_no_cycles(
        self, submission, decision_reuse, contended
    ):
        system = build_uniform_system()
        trace = make_trace(n_minutes=3.0)
        kwargs = {"pool_config": PoolConfig(max_vms=16, max_sls=16)}
        if contended:
            kwargs = _contended_kwargs()
        gc.collect()
        gc.disable()
        try:
            ServingSimulator(
                system,
                submission=submission,
                decision_reuse=decision_reuse,
                **kwargs,
            ).replay(trace)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = {type(item).__name__ for item in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert sorted(cyclic & _REPLAY_STATE_TYPES) == []

    def test_vector_replay_never_launches_per_query(self, monkeypatch):
        # Every termination policy serving picks is one a compiled plan
        # runs, so vector submission never reaches ``launch_query`` --
        # not under queueing, retries, epochs or preemptive grants.
        def refuse(*args, **kwargs):
            raise AssertionError("vector submission called launch_query")

        monkeypatch.setattr("repro.core.serving.launch_query", refuse)
        report = ServingSimulator(
            build_uniform_system(),
            submission="vector",
            **_contended_kwargs(),
        ).replay(make_trace(n_minutes=3.0))
        assert report.n_queries > 0
        assert report.pool_stats.leases_queued > 0
        assert report.n_retries_total > 0
        assert report.epochs_planned > 0


class TestStreamingReports:
    """keep_queries=False must change memory, not metrics."""

    def test_shared_fields_equal(self):
        trace = make_trace()
        kept = replay(trace, keep_queries=True)
        streamed = replay(trace, keep_queries=False)
        assert not streamed.served and kept.served
        assert report_signature(kept) == report_signature(streamed)
        for q in (0, 10, 50, 90, 100):
            assert streamed.latency_percentile(q) == kept.latency_percentile(q)
            assert streamed.queueing_delay_percentile(
                q
            ) == kept.queueing_delay_percentile(q)
            assert streamed.admission_delay_percentile(
                q
            ) == kept.admission_delay_percentile(q)
        # Decision timings are measured host wall-clock, so two replays
        # never agree exactly; the streaming accessors just have to work.
        assert streamed.total_decision_seconds > 0.0
        assert 0.0 <= streamed.decision_latency_percentile(50)
        assert streamed.decision_latency_percentile(
            100
        ) <= streamed.total_decision_seconds

    def test_array_accessors_refuse(self):
        streamed = replay(make_trace(3.0), keep_queries=False)
        for accessor in (
            "latencies",
            "queueing_delays",
            "admission_delays",
            "quota_throttle_delays",
            "decision_seconds",
        ):
            with pytest.raises(ValueError, match="keep_queries"):
                getattr(streamed, accessor)

    def test_summary_has_time_ledger(self):
        report = replay(make_trace(3.0), keep_queries=False)
        summary = report.summary()
        assert "instance-s" in summary and "idle" in summary

    def test_merge_streaming_reports(self):
        trace = make_trace(4.0)
        left = replay(trace, keep_queries=False)
        right = replay(make_trace(4.0, rng=9), keep_queries=False)
        merged = left.merge(right)
        assert merged.n_queries == left.n_queries + right.n_queries
        assert merged.query_cost_dollars == pytest.approx(
            left.query_cost_dollars + right.query_cost_dollars
        )
        assert merged.latency_percentile(0) == min(
            left.latency_percentile(0), right.latency_percentile(0)
        )
        assert merged.latency_percentile(100) == max(
            left.latency_percentile(100), right.latency_percentile(100)
        )
        stats = merged.pool_stats
        assert stats.instance_seconds == pytest.approx(
            left.pool_stats.instance_seconds
            + right.pool_stats.instance_seconds
        )
        assert stats.peak_leased_vms == max(
            left.pool_stats.peak_leased_vms,
            right.pool_stats.peak_leased_vms,
        )

    def test_streaming_carries_planner_counters(self):
        # keep_queries=False drops the per-query list, never the plan
        # ledger: epochs_planned and the pre-warm sub-ledger must stream
        # through intact, and chargeback must still conserve (pre-warm
        # spend is INSIDE the keep-alive slice, not a new slice).
        trace = make_trace(n_minutes=8.0)
        planner = FleetPlanner(
            epoch_s=60.0, max_prewarm_vms=4, max_prewarm_sls=8
        )
        kept = replay(trace, keep_queries=True, planner=planner)
        streamed = replay(trace, keep_queries=False, planner=planner)
        assert kept.epochs_planned > 0
        assert streamed.epochs_planned == kept.epochs_planned
        assert streamed.pool_stats.prewarms == kept.pool_stats.prewarms
        assert streamed.prewarm_cost_dollars == kept.prewarm_cost_dollars
        assert 0.0 < streamed.prewarm_cost_dollars <= (
            streamed.keepalive_cost_dollars
        )
        assert streamed.total_cost_dollars == pytest.approx(
            streamed.query_cost_dollars
            + streamed.keepalive_cost_dollars
            + streamed.wasted_cost_dollars,
            rel=1e-12,
        )
        bills = streamed.chargeback()
        assert math.fsum(bills.values()) == pytest.approx(
            streamed.total_cost_dollars, rel=1e-12, abs=1e-15
        )
        # Merging streamed reports adds the plan counters.
        merged = streamed.merge(kept)
        assert merged.epochs_planned == 2 * kept.epochs_planned
        assert merged.prewarm_cost_dollars == pytest.approx(
            2 * kept.prewarm_cost_dollars
        )

    def test_merge_slo_mismatch_rejected(self):
        stream_a = ServingStream(60.0)
        stream_b = ServingStream(120.0)
        with pytest.raises(ValueError):
            stream_a.merge(stream_b)


#: Percentile accessors of a report and the per-query array each one
#: summarises.
_PERCENTILE_ACCESSORS = (
    ("latency_percentile", "latencies"),
    ("queueing_delay_percentile", "queueing_delays"),
    ("admission_delay_percentile", "admission_delays"),
    ("quota_throttle_delay_percentile", "quota_throttle_delays"),
    ("decision_latency_percentile", "decision_seconds"),
)


def kept_scale_replay(rng: int):
    """A kept-records replay of 5,000 arrivals, past the 4,096-sample
    default sketch, with admission and lease quotas, a per-tenant SLO,
    coalesced sizing and retried (sometimes dropped) faults."""
    pairs = make_scale_trace(
        5_000,
        duration_s=14_400.0,
        query_classes=QUERIES,
        input_gb_octaves=(8.0, 16.0),
        n_tenants=3,
        rng=rng,
    )
    registry = TenantRegistry([
        TenantSpec("tenant-00", weight=1.0, max_in_flight=16),
        TenantSpec("tenant-01", weight=2.0, max_leased_vms=32),
        TenantSpec("tenant-02", weight=3.0, slo_latency_s=100.0),
    ])
    simulator = ServingSimulator(
        build_uniform_system(
            tenants=registry, n_configs_per_query=4
        ),
        slo_seconds=105.0,
        pool_config=PoolConfig(max_vms=96, max_sls=192),
        batch_window_s=5.0,
        submission="vector",
        keep_queries=True,
        retry_policy=RetryPolicy(1, backoff_base_s=2.0),
        fault_plan=make_chaos_plan("moderate", seed=3),
    )
    return simulator.replay_multi(pairs, knob=0.3, mode="hybrid")


def assert_aggregates_match_records(report) -> None:
    """Every aggregate equals its value computed from the kept records."""
    for method, array in _PERCENTILE_ACCESSORS:
        values = getattr(report, array)
        for q in (0, 10, 50, 90, 99, 100):
            assert getattr(report, method)(q) == float(
                np.percentile(values, q)
            ), (method, q)
    assert report.slo_attainment == float(
        np.mean(report.latencies <= report.slo_seconds)
    )
    assert report.n_aliens == sum(
        1 for s in report.served if s.outcome.is_alien
    )
    assert report.n_retries_total == (
        sum(s.n_retries for s in report.served)
        + sum(d.n_retries for d in report.dropped)
    )
    assert report.batched_decision_rate == float(
        np.mean([s.decision_batch_size >= 2 for s in report.served])
    )


class TestKeptReportsExact:
    """A kept report's aggregates are exact at any replay length."""

    @pytest.fixture(scope="class")
    def reports(self):
        return kept_scale_replay(rng=29), kept_scale_replay(rng=31)

    def test_report(self, reports):
        report, _ = reports
        assert len(report.served) == report.n_queries > 4096
        assert report.n_retries_total > 0 and report.dropped
        assert report.batched_decision_rate > 0.0
        assert_aggregates_match_records(report)

    def test_tenant_slices(self, reports):
        report, _ = reports
        assert len(report.tenants) == 3
        for tenant in report.tenants:
            tenant_slice = report.for_tenant(tenant)
            assert tenant_slice.n_queries > 0
            assert_aggregates_match_records(tenant_slice)

    def test_merge(self, reports):
        left, right = reports
        merged = left.merge(right)
        assert len(merged.served) == left.n_queries + right.n_queries
        assert_aggregates_match_records(merged)

    def test_record_fold_matches_replay_stream(self, reports):
        # Folding the kept records one at a time rebuilds the replay's
        # completion aggregates (every fold here is order-independent).
        report, _ = reports
        stream = ServingStream(
            report.slo_seconds,
            sketch_capacity=report.stream.latency.capacity,
            tenant_slos=report.tenant_slos,
        )
        for record in report.served:
            stream.observe(record)

        def completions(s):
            return (
                s.n, s.n_slo_hits, s.n_batched, s.n_aliens, s.n_retrains,
                s.query_cost.value,
                [s.latency.percentile(q) for q in (0, 50, 99, 100)],
                [s.quota_throttle.percentile(q) for q in (50, 100)],
            )

        assert completions(stream) == completions(report.stream)
        assert {
            tenant: completions(sub)
            for tenant, sub in stream.tenant_streams.items()
        } == {
            tenant: completions(sub)
            for tenant, sub in report.stream.tenant_streams.items()
        }


class TestScaleScenario:
    """The 50k-arrival multi-tenant row: matrix invariants at scale."""

    N_ARRIVALS = 50_000

    @pytest.fixture(scope="class")
    def report(self):
        pairs = make_scale_trace(
            self.N_ARRIVALS,
            duration_s=43_200.0,
            query_classes=QUERIES,
            input_gb_octaves=(8.0, 16.0),
            n_tenants=4,
            rng=23,
        )
        registry = TenantRegistry(
            [TenantSpec(tenant, weight=1.0 + index) for index, (tenant, _)
             in enumerate(pairs)]
        )
        simulator = ServingSimulator(
            build_uniform_system(
                seed=51,
                tenants=registry,
                n_configs_per_query=4,
                history_window=256,
            ),
            slo_seconds=120.0,
            pool_config=PoolConfig(max_vms=2048, max_sls=2048),
            autoscaler=FixedKeepAlive(30.0, 7.5),
            keep_queries=False,
        )
        # knob=0.3 (the Eq. 4 cost knob) sizes these short single-stage
        # queries onto small cheap configs, as in benchmarks/bench_scale.py.
        report = simulator.replay_multi(pairs, knob=0.3, mode="vm-only")
        return pairs, report

    def test_every_arrival_served(self, report):
        pairs, report = report
        assert not report.served
        assert report.n_queries == self.N_ARRIVALS
        assert set(report.tenants) == {tenant for tenant, _ in pairs}

    def test_chargeback_partitions_bill(self, report):
        _, report = report
        bills = report.chargeback()
        assert math.fsum(bills.values()) == pytest.approx(
            report.total_cost_dollars, rel=1e-12, abs=1e-15
        )
        assert all(bill >= 0.0 for bill in bills.values())

    def test_slices_partition_stream(self, report):
        pairs, report = report
        sliced = {
            tenant: report.for_tenant(tenant) for tenant in report.tenants
        }
        assert sum(s.n_queries for s in sliced.values()) == report.n_queries
        for tenant, trace in pairs:
            assert sliced[tenant].n_queries == len(trace)
            assert sliced[tenant].query_cost_dollars >= 0.0

    def test_fairness_and_ledger(self, report):
        _, report = report
        n = len(report.tenants)
        assert 1.0 / n - 1e-12 <= report.jain_fairness_index <= 1.0 + 1e-12
        stats = report.pool_stats
        assert stats.instance_seconds == pytest.approx(
            stats.leased_seconds + stats.idle_seconds, rel=1e-9, abs=1e-6
        )
        assert 0.0 <= stats.idle_fraction <= 1.0
        assert stats.warm_starts + stats.cold_starts == stats.acquisitions

    def test_percentiles_well_formed(self, report):
        _, report = report
        quantiles = [
            report.latency_percentile(q) for q in (0, 25, 50, 75, 95, 100)
        ]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] > 0.0
        assert 0.0 <= report.slo_attainment <= 1.0
        assert np.isfinite(report.query_cost_dollars)


class TestScaleTraceGenerator:
    def test_columns_and_determinism(self):
        pairs_a = make_scale_trace(5_000, n_tenants=3, rng=5)
        pairs_b = make_scale_trace(5_000, n_tenants=3, rng=5)
        assert len(pairs_a) == len(pairs_b) <= 3
        total = 0
        for (tenant_a, trace_a), (tenant_b, trace_b) in zip(pairs_a, pairs_b):
            assert tenant_a == tenant_b
            assert np.array_equal(trace_a.arrival_s, trace_b.arrival_s)
            assert np.array_equal(trace_a.query_index, trace_b.query_index)
            assert np.all(np.diff(trace_a.arrival_s) >= 0)
            assert trace_a.duration_s <= 86_400.0
            total += len(trace_a)
        assert total == 5_000

    def test_class_mix_respects_weights(self):
        pairs = make_scale_trace(
            20_000,
            query_classes=("uniform-2x1s", "uniform-4x1s"),
            class_weights=(9.0, 1.0),
            rng=6,
        )
        counts: dict[str, int] = {}
        for _, trace in pairs:
            for query_id, count in trace.query_counts().items():
                counts[query_id] = counts.get(query_id, 0) + count
        assert counts["uniform-2x1s"] > 5 * counts["uniform-4x1s"]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_scale_trace(0)
        with pytest.raises(ValueError):
            make_scale_trace(10, query_classes=())
        with pytest.raises(ValueError):
            make_scale_trace(10, class_weights=(1.0,))
        with pytest.raises(ValueError):
            make_scale_trace(10, diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            make_scale_trace(10, input_gb_octaves=())


class TestEpochTraceGenerator:
    def test_deterministic_and_sorted(self):
        a = make_epoch_trace(2_000, period_s=1_800.0, n_periods=6, rng=5)
        b = make_epoch_trace(2_000, period_s=1_800.0, n_periods=6, rng=5)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.query_index, b.query_index)
        assert np.all(np.diff(a.arrival_s) >= 0)
        assert len(a) == 2_000
        assert a.arrival_s[-1] <= 1_800.0 * 6

    def test_trace_is_seasonal(self):
        # Near-identical arrival counts every period, and the burst
        # lands at the same phase each time -- the structure the
        # seasonal-naive forecaster is built to exploit.
        trace = make_epoch_trace(
            4_000, period_s=1_800.0, n_periods=8, burst_phase=0.6, rng=3
        )
        counts, _ = np.histogram(
            trace.arrival_s, bins=8, range=(0.0, 1_800.0 * 8)
        )
        assert counts.max() - counts.min() <= 2
        phase = (trace.arrival_s % 1_800.0) / 1_800.0
        in_burst = ((phase > 0.45) & (phase < 0.75)).mean()
        assert in_burst > 0.5  # 0.3 of the period carries the majority

    def test_zero_jitter_ignores_rng(self):
        a = make_epoch_trace(500, jitter=0.0, rng=1)
        b = make_epoch_trace(500, jitter=0.0, rng=2)
        assert np.array_equal(a.arrival_s, b.arrival_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_epoch_trace(0)
        with pytest.raises(ValueError):
            make_epoch_trace(10, burst_phase=1.5)
        with pytest.raises(ValueError):
            make_epoch_trace(10, burst_width_fraction=0.5)
        with pytest.raises(ValueError):
            make_epoch_trace(10, burst_factor=0.5)
        with pytest.raises(ValueError):
            make_epoch_trace(10, jitter=2.0)
        with pytest.raises(ValueError):
            make_epoch_trace(10, n_periods=0)
