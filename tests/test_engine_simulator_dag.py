"""Unit tests for the DES core and the query DAG model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import QuerySpec, Simulator, StageSpec
from repro.workloads import make_random_query, make_uniform_query


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append("b"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(9.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_fifo_among_equal_times(self):
        sim = Simulator()
        seen = []
        for tag in range(5):
            sim.schedule(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run_until(5.0)
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=1000)

    def test_event_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        keep = sim.schedule(1.0, lambda: seen.append("keep"))
        drop = sim.schedule(2.0, lambda: seen.append("drop"))
        assert sim.cancel(drop) is True
        sim.run()
        assert seen == ["keep"]
        assert sim.events_processed == 1
        assert keep is not None

    def test_cancel_is_idempotent_and_post_fire_safe(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False  # already fired
        other = sim.schedule(1.0, lambda: None)
        assert sim.cancel(other) is True
        assert sim.cancel(other) is False  # second cancel is a no-op

    def test_cancelled_events_excluded_from_pending(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        handle = sim.schedule(6.0, lambda: None)
        sim.cancel(handle)
        assert sim.pending_events == 1

    def test_timer_refresh_pattern(self):
        # The keep-alive idiom: cancel the pending expiry, schedule anew.
        sim = Simulator()
        fired = []
        handle = sim.schedule(10.0, lambda: fired.append("stale"))
        sim.run_until(5.0)
        sim.cancel(handle)
        sim.schedule(10.0, lambda: fired.append("fresh"))
        sim.run()
        assert fired == ["fresh"]
        assert sim.now == 15.0

    def test_run_until_same_time_is_idempotent(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run_until(5.0)
        sim.run_until(5.0)  # a repeated call must be a no-op
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1
        with pytest.raises(ValueError):
            sim.run_until(4.0)  # strictly earlier is still rejected

    def test_cancel_interacts_cleanly_with_run_before(self):
        # Regression guard for the fault-injection pattern: pending kill
        # timers are cancelled between run_before() drains; the drain
        # must skip exactly the cancelled events, fire the rest in
        # order, and keep the dead-entry accounting exact throughout.
        sim = Simulator()
        seen = []
        handles = [
            sim.schedule_at(t, lambda t=t: seen.append(t))
            for t in (1.0, 2.0, 3.0, 4.0, 5.0)
        ]
        sim.cancel(handles[1])
        sim.run_before(3.0)  # strictly-before drain: only t=1 fires
        assert seen == [1.0]
        assert sim.pending_events == 3
        sim.cancel(handles[3])
        sim.run_before(10.0)
        assert seen == [1.0, 3.0, 5.0]
        assert sim.pending_events == 0
        # Cancelling a handle the drain already popped is a no-op.
        assert sim.cancel(handles[0]) is False

    def test_mass_cancellation_compacts_the_heap(self):
        # Cancelling most of the heap triggers the amortised compaction;
        # the survivors must still fire in order and the O(1) pending
        # count must stay exact across the rebuild.
        sim = Simulator()
        seen = []
        handles = [
            sim.schedule_at(float(i), lambda i=i: seen.append(i))
            for i in range(500)
        ]
        for i, handle in enumerate(handles):
            if i % 10 != 0:
                assert sim.cancel(handle) is True
        assert sim.pending_events == 50
        # The heap physically shrank: dead entries are bounded by the
        # compaction threshold instead of accumulating forever (450
        # cancellations, yet far fewer than 450 dead entries remain).
        assert len(sim._heap) <= 50 + Simulator._COMPACT_MIN_DEAD + 1
        # Double-cancel after compaction stays a no-op.
        assert sim.cancel(handles[1]) is False
        sim.run()
        assert seen == [i for i in range(500) if i % 10 == 0]
        assert sim.pending_events == 0

    def test_compaction_keeps_fifo_among_equal_times(self):
        # Compaction re-heapifies; the (time, seq) ordering must keep
        # same-timestamp events in their original schedule order.
        sim = Simulator()
        seen = []
        handles = [
            sim.schedule(1.0, lambda t=tag: seen.append(t))
            for tag in range(200)
        ]
        for tag, handle in enumerate(handles):
            if tag % 3 != 0:
                sim.cancel(handle)
        sim.run()
        assert seen == [t for t in range(200) if t % 3 == 0]


class TestStageSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StageSpec(stage_id=0, n_tasks=0, task_compute_seconds=1.0)
        with pytest.raises(ValueError):
            StageSpec(stage_id=0, n_tasks=1, task_compute_seconds=0.0)
        with pytest.raises(ValueError):
            StageSpec(
                stage_id=0, n_tasks=1, task_compute_seconds=1.0,
                task_input_mb=-1.0,
            )


class TestQuerySpec:
    def _chain(self):
        return QuerySpec(
            query_id="q",
            suite="test",
            stages=(
                StageSpec(0, 4, 1.0, task_input_mb=10.0),
                StageSpec(1, 2, 1.0, task_shuffle_mb=5.0, depends_on=(0,)),
                StageSpec(2, 1, 1.0, depends_on=(1,)),
            ),
            input_gb=1.0,
        )

    def test_counts(self):
        query = self._chain()
        assert query.n_stages == 3
        assert query.total_tasks == 7
        assert query.total_compute_seconds == pytest.approx(7.0)
        assert query.critical_path_length == 3

    def test_topological_order_respects_deps(self):
        query = self._chain()
        order = [stage.stage_id for stage in query.topological_stages()]
        assert order.index(0) < order.index(1) < order.index(2)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(
                query_id="cyclic",
                suite="test",
                stages=(
                    StageSpec(0, 1, 1.0, depends_on=(1,)),
                    StageSpec(1, 1, 1.0, depends_on=(0,)),
                ),
                input_gb=1.0,
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(
                query_id="bad",
                suite="test",
                stages=(StageSpec(0, 1, 1.0, depends_on=(9,)),),
                input_gb=1.0,
            )

    def test_duplicate_stage_ids_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(
                query_id="dup",
                suite="test",
                stages=(StageSpec(0, 1, 1.0), StageSpec(0, 1, 1.0)),
                input_gb=1.0,
            )

    def test_scaling_input_grows_volumes_not_tasks(self):
        query = self._chain()
        scaled = query.scaled_to_input(5.0)
        assert scaled.total_tasks == query.total_tasks
        assert scaled.input_gb == 5.0
        assert scaled.stages[0].task_input_mb == pytest.approx(50.0)
        assert scaled.stages[1].task_shuffle_mb == pytest.approx(25.0)
        # Compute grows sub-linearly (fixed overhead + data share).
        ratio = (
            scaled.stages[0].task_compute_seconds
            / query.stages[0].task_compute_seconds
        )
        assert 1.0 < ratio < 5.0

    def test_scaling_validation(self):
        query = self._chain()
        with pytest.raises(ValueError):
            query.scaled_to_input(0.0)


@st.composite
def stage_sets(draw):
    """Stages with unsorted ids, repeated and self dependencies and,
    unless the draw picks a rank order to respect, cycles."""
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True))
    rank = draw(st.permutations(range(n))) if draw(st.booleans()) else None
    stages = []
    for position, stage_id in enumerate(ids):
        parents = [
            ids[other] for other in range(n)
            if rank is None or rank[other] < rank[position]
        ]
        depends_on = ()
        if parents:
            depends_on = tuple(draw(st.lists(st.sampled_from(parents), max_size=4)))
        stages.append(StageSpec(stage_id, 1, 1.0, depends_on=depends_on))
    return tuple(stages)


@pytest.fixture(scope="module")
def networkx():
    return pytest.importorskip("networkx")


class TestDagMatchesNetworkx:
    """The stdlib DAG pass gives networkx's order, depth and errors."""

    @given(stages=stage_sets())
    def test_order_depth_and_cycles(self, networkx, stages):
        graph = networkx.DiGraph()
        graph.add_nodes_from(stage.stage_id for stage in stages)
        for stage in stages:
            for parent in stage.depends_on:
                graph.add_edge(parent, stage.stage_id)
        if not networkx.is_directed_acyclic_graph(graph):
            with pytest.raises(ValueError) as cycle:
                QuerySpec("q", "test", stages, 1.0)
            assert str(cycle.value) == "query q has a dependency cycle"
            return
        query = QuerySpec("q", "test", stages, 1.0)
        by_id = {stage.stage_id: stage for stage in stages}
        expected = [by_id[stage_id] for stage_id in networkx.topological_sort(graph)]
        assert query.topological_stages() == expected
        assert query.critical_path_length == (
            networkx.dag_longest_path_length(graph) + 1
        )


class TestGenerators:
    def test_uniform_query_shape(self):
        query = make_uniform_query(100, task_seconds=4.0)
        assert query.n_stages == 1
        assert query.total_tasks == 100
        assert query.stages[0].task_compute_seconds == 4.0

    def test_uniform_query_validation(self):
        with pytest.raises(ValueError):
            make_uniform_query(0)
        with pytest.raises(ValueError):
            make_uniform_query(10, task_seconds=0.0)

    def test_random_queries_are_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            query = make_random_query(rng)
            assert query.n_stages >= 1
            assert query.total_tasks >= 1
            # QuerySpec construction already validated the DAG.

    def test_random_query_deterministic_for_seed(self):
        a = make_random_query(rng=5, query_id="fixed")
        b = make_random_query(rng=5, query_id="fixed")
        assert a == b
