"""Tests for workload traces and trace-driven serving."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.pool import PoolConfig
from repro.core.serving import ServingSimulator, _group_bounds
from repro.workloads.trace import (
    PoissonTraceGenerator,
    TraceEvent,
    WorkloadTrace,
)


def _generator(**overrides):
    defaults = dict(
        query_mix={"tpcds-q82": 3.0, "tpcds-q68": 1.0},
        rate_per_minute=4.0,
        rng=5,
    )
    defaults.update(overrides)
    return PoissonTraceGenerator(**defaults)


def per_query(system, **kwargs) -> ServingSimulator:
    """A simulator with the paper's per-query sizing: every arrival is
    decided with its own features, no class-level decision reuse."""
    return ServingSimulator(system, decision_reuse=False, **kwargs)


class TestTraceEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(arrival_s=-1.0, query_id="q")
        with pytest.raises(ValueError):
            TraceEvent(arrival_s=0.0, query_id="q", input_gb=0.0)

    def test_trace_requires_order(self):
        with pytest.raises(ValueError):
            WorkloadTrace(events=(
                TraceEvent(5.0, "a"), TraceEvent(1.0, "b"),
            ))

    def test_window_selection(self):
        trace = WorkloadTrace(events=(
            TraceEvent(1.0, "a"), TraceEvent(5.0, "b"), TraceEvent(9.0, "c"),
        ))
        assert [e.query_id for e in trace.arrivals_in(2.0, 9.0)] == ["b"]
        with pytest.raises(ValueError):
            trace.arrivals_in(5.0, 2.0)

    def test_counts_and_duration(self):
        trace = WorkloadTrace(events=(
            TraceEvent(1.0, "a"), TraceEvent(2.0, "a"), TraceEvent(3.0, "b"),
        ))
        assert trace.query_counts() == {"a": 2, "b": 1}
        assert trace.duration_s == 3.0
        assert len(trace) == 3

    def test_json_round_trip(self, tmp_path):
        trace = _generator().generate(duration_minutes=5)
        path = tmp_path / "trace.json"
        trace.dump_json(path)
        assert WorkloadTrace.load_json(path) == trace


class TestPoissonGenerator:
    def test_rate_approximately_respected(self):
        trace = _generator(rate_per_minute=6.0, rng=0).generate(60)
        # 6/min for 60 min => ~360 arrivals; allow wide Poisson slack.
        assert 250 <= len(trace) <= 480

    def test_mix_weights_respected(self):
        trace = _generator(rng=1).generate(120)
        counts = trace.query_counts()
        # q82 weighted 3:1 over q68.
        assert counts["tpcds-q82"] > 1.5 * counts["tpcds-q68"]

    def test_burst_raises_local_rate(self):
        gen = _generator(burst_factor=6.0, burst_fraction=0.2, rng=2)
        trace = gen.generate(60)
        duration = 3600.0
        mid = trace.arrivals_in(duration * 0.4, duration * 0.6)
        edge = trace.arrivals_in(0.0, duration * 0.2)
        assert len(mid) > 1.5 * len(edge)

    def test_data_growth_interpolates(self):
        gen = _generator(input_gb=100.0, final_input_gb=500.0, rng=3)
        trace = gen.generate(60)
        sizes = [e.input_gb for e in trace]
        assert sizes[0] < sizes[-1]
        assert all(100.0 <= size <= 500.0 for size in sizes)

    def test_deterministic_for_seed(self):
        a = _generator(rng=9).generate(10)
        b = _generator(rng=9).generate(10)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            _generator(query_mix={})
        with pytest.raises(ValueError):
            _generator(rate_per_minute=0.0)
        with pytest.raises(ValueError):
            _generator(burst_factor=0.5)
        with pytest.raises(ValueError):
            _generator().generate(0.0)


class TestServingSimulator:
    def test_replay_produces_report(self, fresh_smartpick):
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82"),
            TraceEvent(10.0, "tpcds-q82"),
            TraceEvent(600.0, "tpcds-q82"),
        ))
        report = per_query(fresh_smartpick, slo_seconds=200.0).replay(trace)
        assert report.n_queries == 3
        assert report.total_cost_dollars > 0
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.latency_percentile(50) > 0
        # Inline prediction latency is accounted per query.
        assert report.decision_seconds.shape == (3,)
        assert report.total_decision_seconds > 0.0
        assert (
            report.decision_latency_percentile(95)
            >= report.decision_latency_percentile(50)
        )

    def test_waiting_apps_counted(self, fresh_smartpick):
        # The second arrival lands while the first is still running.
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82"),
            TraceEvent(1.0, "tpcds-q82"),
        ))
        report = per_query(fresh_smartpick).replay(trace)
        assert report.served[0].waiting_apps_at_submit == 0
        assert report.served[1].waiting_apps_at_submit == 1

    def test_far_apart_arrivals_do_not_wait(self, fresh_smartpick):
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82"),
            TraceEvent(10_000.0, "tpcds-q82"),
        ))
        report = per_query(fresh_smartpick).replay(trace)
        assert report.served[1].waiting_apps_at_submit == 0

    def test_alien_arrivals_reported(self, fresh_smartpick):
        trace = WorkloadTrace(events=(TraceEvent(0.0, "tpcds-q55"),))
        report = per_query(fresh_smartpick).replay(trace)
        assert report.n_aliens == 1

    def test_untrained_system_rejected(self):
        from repro import Smartpick

        with pytest.raises(ValueError):
            ServingSimulator(Smartpick(rng=0))

    def test_summary_readable(self, fresh_smartpick):
        trace = WorkloadTrace(events=(TraceEvent(0.0, "tpcds-q82"),))
        report = per_query(fresh_smartpick).replay(trace)
        assert "queries" in report.summary()
        assert "SLO" in report.summary()

    def test_empty_report_guards(self, fresh_smartpick):
        report = per_query(fresh_smartpick).replay(
            WorkloadTrace(events=())
        )
        assert report.n_queries == 0
        with pytest.raises(ValueError):
            _ = report.slo_attainment

    def test_empty_report_summary_still_prints_costs(self, fresh_smartpick):
        # Regression: summary() used to raise on an empty replay and to
        # hide the keep-alive spend whenever no query was served -- an
        # idle day with warm instances still costs money.
        report = per_query(fresh_smartpick).replay(
            WorkloadTrace(events=())
        )
        text = report.summary()
        assert "0 queries" in text
        assert "keep-alive" in text

    def test_summary_shows_idle_spend_with_zero_queries(self):
        from repro.core.serving import ServingReport

        report = ServingReport(
            served=[], slo_seconds=120.0, keepalive_cost_dollars=0.05
        )
        text = report.summary()
        assert "0 queries" in text
        assert "keep-alive 5.00" in text
        assert "= 5.0 cents" in text


class TestSharedClusterServing:
    def test_same_seed_gives_identical_reports(
        self, small_system_factory, bursty_trace_factory
    ):
        trace = bursty_trace_factory(5, spacing_s=30.0)
        config = PoolConfig(
            max_vms=8, max_sls=8, vm_keep_alive_s=120.0, sl_keep_alive_s=30.0
        )
        reports = []
        for _ in range(2):
            system = small_system_factory(seed=77)
            simulator = per_query(system, pool_config=config)
            reports.append(simulator.replay(trace))
        a, b = reports
        assert list(a.latencies) == list(b.latencies)
        assert list(a.queueing_delays) == list(b.queueing_delays)
        assert a.total_cost_dollars == b.total_cost_dollars
        assert a.keepalive_cost_dollars == b.keepalive_cost_dollars
        assert a.pool_stats == b.pool_stats

    def test_keep_alive_produces_warm_starts(
        self, small_system_factory, bursty_trace_factory
    ):
        trace = bursty_trace_factory(6, spacing_s=5.0)
        system = small_system_factory()
        warm = per_query(
            system,
            pool_config=PoolConfig(
                max_vms=16, max_sls=16,
                vm_keep_alive_s=600.0, sl_keep_alive_s=600.0,
            ),
        ).replay(trace)
        assert warm.warm_start_rate > 0.0
        assert warm.pool_stats.warm_starts > 0
        assert warm.keepalive_cost_dollars > 0.0

    def test_cold_pool_never_warm_starts(
        self, fresh_smartpick, bursty_trace_factory
    ):
        trace = bursty_trace_factory(4, spacing_s=5.0)
        report = per_query(fresh_smartpick).replay(trace)
        assert report.warm_start_rate == 0.0
        assert report.pool_stats.cold_starts > 0
        assert report.keepalive_cost_dollars == 0.0

    def test_saturation_grows_queueing_delay(
        self, small_system_factory, bursty_trace_factory
    ):
        trace = bursty_trace_factory(6, spacing_s=2.0)
        wide = per_query(
            small_system_factory(seed=91),
            pool_config=PoolConfig(max_vms=64, max_sls=64),
        ).replay(trace)
        tight = per_query(
            small_system_factory(seed=91),
            pool_config=PoolConfig(max_vms=2, max_sls=2),
        ).replay(trace)
        assert float(wide.queueing_delays.max()) == 0.0
        assert float(tight.queueing_delays.max()) > 0.0
        # Later arrivals wait behind earlier ones: delays are monotone
        # non-decreasing once the pool saturates.
        delays = list(tight.queueing_delays)
        assert delays[-1] >= delays[1] > 0.0
        assert tight.latency_percentile(95) > wide.latency_percentile(95)
        assert tight.pool_stats.leases_queued > 0

    def test_concurrent_arrivals_counted_as_waiting(
        self, small_system_factory, bursty_trace_factory
    ):
        trace = bursty_trace_factory(3, spacing_s=1.0)
        report = per_query(small_system_factory(seed=55)).replay(trace)
        waits = [s.waiting_apps_at_submit for s in report.served]
        assert waits == [0, 1, 2]

    def test_summary_includes_pool_line(
        self, small_system_factory, bursty_trace_factory
    ):
        trace = bursty_trace_factory(3, spacing_s=5.0)
        report = per_query(
            small_system_factory(seed=58),
            pool_config=PoolConfig(
                max_vms=16, max_sls=16, vm_keep_alive_s=300.0
            ),
        ).replay(trace)
        assert "warm starts" in report.summary()
        assert "queue p95" in report.summary()
        assert "keep-alive" in report.summary()


def _same_tick_trace():
    return WorkloadTrace(events=(
        TraceEvent(0.0, "tpcds-q82"),
        TraceEvent(0.0, "tpcds-q82", input_gb=120.0),
        TraceEvent(0.0, "tpcds-q68"),
        TraceEvent(900.0, "tpcds-q82"),
    ))


class TestArrivalCoalescer:
    def test_exact_tick_arrivals_share_one_sizing_pass(
        self, small_system_factory
    ):
        report = per_query(small_system_factory()).replay(
            _same_tick_trace()
        )
        assert [s.decision_batch_size for s in report.served] == [3, 3, 3, 1]
        assert report.batched_decision_rate == pytest.approx(0.75)
        # Same-tick groups wait for nothing.
        assert all(s.batching_delay_s == 0.0 for s in report.served)
        # Group members see the members ahead of them as waiting apps.
        assert [s.waiting_apps_at_submit for s in report.served[:3]] == [0, 1, 2]
        assert "batched decisions" in report.summary()

    def test_batched_groups_decide_through_decide_many(
        self, small_system_factory, monkeypatch
    ):
        system = small_system_factory()
        simulator = per_query(system)

        def explode(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("solo decide called for a batched group")

        monkeypatch.setattr(system.job_initializer, "decide", explode)
        trace = WorkloadTrace(events=(
            TraceEvent(5.0, "tpcds-q82"), TraceEvent(5.0, "tpcds-q82"),
        ))
        report = simulator.replay(trace)
        assert report.batched_decision_rate == 1.0
        # Batched decisions are exhaustive over the candidate grid.
        grid_size = system.predictor.candidate_grid("hybrid").shape[0]
        assert all(
            s.outcome.decision.n_evaluations == grid_size
            for s in report.served
        )

    def test_solo_arrivals_keep_the_bo_path(
        self, small_system_factory, monkeypatch
    ):
        system = small_system_factory()
        simulator = per_query(system)  # default window: exact tick

        def explode(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("decide_many called without coalescing")

        monkeypatch.setattr(system.job_initializer, "decide_many", explode)
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82"), TraceEvent(60.0, "tpcds-q82"),
        ))
        report = simulator.replay(trace)
        assert report.batched_decision_rate == 0.0
        assert [s.decision_batch_size for s in report.served] == [1, 1]

    def test_disabled_coalescer_equals_exact_tick_without_ties(
        self, small_system_factory, bursty_trace_factory
    ):
        # Acceptance: at batch_window_s=0 with no same-tick arrivals the
        # replay is identical to the unbatched (window=None) replay.
        trace = bursty_trace_factory(5, spacing_s=45.0)
        unbatched = per_query(
            small_system_factory(seed=77), batch_window_s=None
        ).replay(trace)
        exact_tick = per_query(
            small_system_factory(seed=77), batch_window_s=0.0
        ).replay(trace)
        assert list(unbatched.latencies) == list(exact_tick.latencies)
        assert [s.outcome.decision.config for s in unbatched.served] == [
            s.outcome.decision.config for s in exact_tick.served
        ]
        assert unbatched.total_cost_dollars == exact_tick.total_cost_dollars
        assert exact_tick.batched_decision_rate == 0.0

    def test_window_groups_nearby_arrivals_and_accounts_delay(
        self, small_system_factory
    ):
        trace = WorkloadTrace(events=(
            TraceEvent(0.0, "tpcds-q82"),
            TraceEvent(2.0, "tpcds-q82"),
            TraceEvent(3.0, "tpcds-q82"),
            TraceEvent(30.0, "tpcds-q82"),
        ))
        report = per_query(
            small_system_factory(seed=81), batch_window_s=4.0
        ).replay(trace)
        assert [s.decision_batch_size for s in report.served] == [3, 3, 3, 1]
        # Members wait until the group's window closes (last arrival).
        assert [s.batching_delay_s for s in report.served] == [3.0, 1.0, 0.0, 0.0]
        # The wait is user-visible latency.
        first = report.served[0]
        assert first.latency_s == pytest.approx(
            first.batching_delay_s
            + first.queueing_delay_s
            + first.outcome.actual_seconds
        )

    def test_window_anchored_at_first_member(self):
        # 0, 4, 8, 12 with a 5s window: groups must not chain unboundedly.
        times = np.array([0.0, 4.0, 8.0, 12.0])
        assert list(_group_bounds(times, 5.0)) == [(0, 2), (2, 4)]

    def test_amortised_decision_latency_sums_to_batch_time(
        self, small_system_factory
    ):
        report = per_query(small_system_factory(seed=84)).replay(
            _same_tick_trace()
        )
        batched = [s for s in report.served if s.decision_batch_size == 3]
        times = {s.outcome.decision.inference_seconds for s in batched}
        assert len(times) == 1  # equal amortised shares
        assert report.total_decision_seconds > 0.0

    def test_negative_window_rejected(self, small_system_factory):
        with pytest.raises(ValueError):
            ServingSimulator(small_system_factory(seed=85), batch_window_s=-1.0)


def _coalesce(times: list[float], window: float | None) -> list[tuple]:
    """Reference grouping, one arrival at a time: join the open group
    while within ``window`` of its *first* member, else open a new one.

    This is the per-arrival coalescer the replay ran before it drained
    arrival columns; :func:`_group_bounds` must reproduce it exactly.
    """
    groups: list[list[int]] = []
    for position, time in enumerate(times):
        if (
            window is not None
            and groups
            and time - times[groups[-1][0]] <= window
        ):
            groups[-1].append(position)
        else:
            groups.append([position])
    return [(group[0], group[-1] + 1) for group in groups]


#: Sorted arrival times: running sums of gaps small next to the windows
#: below, so groups often hold several arrivals and a window chained from
#: member to member would differ from one anchored at the first; or drawn
#: from a few values so equal timestamps are common.
_ARRIVAL_TIMES = st.one_of(
    st.lists(
        st.floats(0.0, 3.0, allow_nan=False), max_size=40
    ).map(lambda gaps: list(itertools.accumulate(gaps))),
    st.lists(
        st.sampled_from([0.0, 0.1, 0.3, 2.5, 7.0]), max_size=40
    ).map(sorted),
)
_WINDOWS = st.one_of(
    st.none(), st.just(0.0), st.floats(0.0, 10.0, allow_nan=False)
)


class TestGroupBounds:
    """The replay's sizing groups follow the windowing rule."""

    @given(times=_ARRIVAL_TIMES, window=_WINDOWS)
    def test_matches_reference_coalescer(self, times, window):
        bounds = list(_group_bounds(np.array(times, dtype=float), window))
        assert bounds == _coalesce(times, window)

    @given(times=_ARRIVAL_TIMES, window=_WINDOWS)
    def test_groups_partition_and_anchor_at_first_member(
        self, times, window
    ):
        bounds = list(_group_bounds(np.array(times, dtype=float), window))
        # Contiguous runs covering every arrival once.
        starts = [start for start, _ in bounds]
        ends = [end for _, end in bounds]
        assert starts == [0] + ends[:-1] if times else bounds == []
        assert ends[-1:] == ([len(times)] if times else [])
        for start, end in bounds:
            if window is None:
                assert end - start == 1
                continue
            # Every member sits within the window of the first; the
            # next arrival would not.
            assert times[end - 1] - times[start] <= window
            if end < len(times):
                assert times[end] - times[start] > window

    def test_zero_window_groups_exact_ties_only(self):
        times = np.array([1.0, 1.0, 1.5, 2.0, 2.0, 2.0])
        assert list(_group_bounds(times, 0.0)) == [(0, 2), (2, 3), (3, 6)]

    def test_none_makes_every_arrival_solo(self):
        times = np.array([3.0, 3.0, 3.0])
        assert list(_group_bounds(times, None)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("window", [None, 0.0, 5.0])
    def test_empty_input_has_no_groups(self, window):
        assert list(_group_bounds(np.array([]), window)) == []
