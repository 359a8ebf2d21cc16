"""Integration-grade tests of the execution engine: scheduler + runner."""

import numpy as np
import pytest

from repro.cloud import get_provider
from repro.cloud.instances import InstanceKind
from repro.engine import (
    ExecutionListener,
    NoEarlyTermination,
    RelayPolicy,
    SegueTimeoutPolicy,
    run_query,
)
from repro.engine.plan import PlanRunner, StagePlan
from repro.engine.task import TaskDurationModel
from repro.workloads import get_query, make_uniform_query

from conftest import build_pool

AWS = get_provider("aws").with_noise_sigma(0.0)
AWS55 = AWS.with_boot_seconds(55.0)


class TestTaskDurationModel:
    def test_sl_tasks_slower_than_vm(self):
        model = TaskDurationModel(AWS, rng=0)
        stage = make_uniform_query(10, 4.0).stages[0]
        vm = model.expected(stage, InstanceKind.VM)
        sl = model.expected(stage, InstanceKind.SERVERLESS)
        assert sl > vm
        assert sl / vm == pytest.approx(1.0 + AWS.sl_overhead, rel=1e-6)

    def test_noise_free_profile_is_deterministic(self):
        model = TaskDurationModel(AWS, rng=1)
        stage = make_uniform_query(10, 4.0).stages[0]
        expected = model.expected(stage, InstanceKind.VM)
        samples = {
            TaskDurationModel.realize(expected, noise)
            for noise in model.noise_block(5).tolist()
        }
        assert samples == {expected}

    def test_noise_block_truncates_at_three_sigma(self):
        sigma = 0.2
        model = TaskDurationModel(AWS.with_noise_sigma(sigma), rng=3)
        block = model.noise_block(20_000)
        assert np.abs(block).max() == pytest.approx(3.0 * sigma)
        assert np.abs(block).max() <= 3.0 * sigma
        assert abs(block.mean()) < 0.01

    def test_gcp_tasks_slower(self):
        gcp = get_provider("gcp").with_noise_sigma(0.0)
        stage = get_query("tpcds-q82").stages[0]
        aws_time = TaskDurationModel(AWS).expected(stage, InstanceKind.VM)
        gcp_time = TaskDurationModel(gcp).expected(stage, InstanceKind.VM)
        assert gcp_time > aws_time


class TestSingleStageExecution:
    def test_vm_only_pays_cold_boot(self):
        query = make_uniform_query(10, 4.0)
        result = run_query(query, n_vm=1, n_sl=0, provider=AWS55, rng=0)
        # 1 VM = 2 slots; 10 tasks = 5 waves of 4 s after a 55 s boot.
        assert result.completion_seconds == pytest.approx(55.0 + 20.0)

    def test_sl_only_starts_fast_but_runs_slower(self):
        query = make_uniform_query(10, 4.0)
        result = run_query(query, n_vm=0, n_sl=1, provider=AWS55, rng=0)
        expected_task = 4.0 * AWS55.sl_compute_factor
        assert result.completion_seconds == pytest.approx(
            0.1 + 5 * expected_task, rel=1e-6
        )

    def test_all_tasks_complete(self):
        query = make_uniform_query(37, 2.0)
        result = run_query(query, n_vm=2, n_sl=2, provider=AWS, rng=1)
        assert result.metrics.tasks_completed == 37
        assert result.metrics.stages_completed == 1

    def test_more_workers_never_slower(self):
        query = make_uniform_query(60, 3.0)
        small = run_query(query, n_vm=2, n_sl=0, provider=AWS, rng=2)
        large = run_query(query, n_vm=6, n_sl=0, provider=AWS, rng=2)
        assert large.completion_seconds <= small.completion_seconds

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_query(make_uniform_query(5), 0, 0)


class TestRelayMechanism:
    def test_relay_terminates_sls_at_vm_readiness(self):
        query = make_uniform_query(200, 4.0)
        result = run_query(
            query, n_vm=4, n_sl=4, provider=AWS55, policy=RelayPolicy(), rng=3
        )
        # SL deployed time ~= boot window, well below query duration.
        assert result.completion_seconds > 100.0
        sl_compute = result.cost.sl_compute
        expected_max = 4 * (55.0 + 30.0) * 6.67e-5  # generous bound
        assert sl_compute < expected_max

    def test_relay_beats_vm_only_on_latency(self):
        query = make_uniform_query(200, 4.0)
        relay = run_query(query, 4, 4, provider=AWS55, policy=RelayPolicy(), rng=4)
        vm_only = run_query(query, 4, 0, provider=AWS55, rng=4)
        assert relay.completion_seconds < vm_only.completion_seconds

    def test_relay_cheaper_than_run_to_completion(self):
        query = make_uniform_query(400, 4.0)
        relay = run_query(query, 5, 5, provider=AWS55, policy=RelayPolicy(), rng=5)
        keep = run_query(
            query, 5, 5, provider=AWS55, policy=NoEarlyTermination(), rng=5
        )
        assert relay.cost_dollars < keep.cost_dollars

    def test_unpaired_sls_drain_when_all_vms_ready(self):
        # nSL > nVM: the extra SLs must still retire at hand-off.
        query = make_uniform_query(300, 4.0)
        result = run_query(
            query, n_vm=2, n_sl=6, provider=AWS55, policy=RelayPolicy(), rng=6
        )
        redis_rate = 4.62e-5
        # If the 6 SLs lived the whole query, sl_compute would exceed
        # 6 * duration * rate; the relay bound is 6 * ~boot window.
        full_life = 6 * result.completion_seconds * 6.67e-5
        assert result.cost.sl_compute < 0.5 * full_life
        del redis_rate

    def test_paper_relay_example_shape(self):
        # Section 2.2: 500 tasks, 5 SL + 5 VM, 55 s boot: ~199 s and ~5 cents.
        query = make_uniform_query(500, 4.0)
        result = run_query(
            query, n_vm=5, n_sl=5, provider=AWS55, policy=RelayPolicy(), rng=7
        )
        assert 170.0 <= result.completion_seconds <= 240.0
        assert 4.0 <= result.cost_cents <= 7.0


class TestSegueing:
    def test_segueing_costs_more_than_relay(self):
        query = make_uniform_query(300, 4.0)
        relay = run_query(query, 4, 4, provider=AWS55, policy=RelayPolicy(), rng=8)
        segue = run_query(
            query, 4, 4, provider=AWS55, policy=SegueTimeoutPolicy(90.0), rng=8
        )
        # Same hand-off point (VM readiness), but SLs billed until timeout.
        assert segue.cost.sl_compute > relay.cost.sl_compute
        assert segue.completion_seconds == pytest.approx(
            relay.completion_seconds, rel=0.05
        )

    def test_early_timeout_still_completes(self):
        query = make_uniform_query(100, 4.0)
        result = run_query(
            query, 2, 2, provider=AWS55, policy=SegueTimeoutPolicy(10.0), rng=9
        )
        assert result.metrics.tasks_completed == 100

    def test_plan_runner_rejects_segueing(self):
        # A compiled plan releases SLs as it retires them; it cannot hold
        # them to a static timeout, so it refuses the policy instead of
        # silently running it as relay.
        model = TaskDurationModel(provider=AWS, rng=0)
        plan = StagePlan(make_uniform_query(10, 4.0), model)
        pool = build_pool()
        with pytest.raises(ValueError, match="segueing"):
            PlanRunner(plan, pool, model, SegueTimeoutPolicy(10.0))
        for policy in (RelayPolicy(), NoEarlyTermination()):
            assert PlanRunner(plan, pool, model, policy).policy is policy


class TestCostAccounting:
    def test_redis_charged_only_with_sl(self):
        query = make_uniform_query(40, 2.0)
        vm_only = run_query(query, 2, 0, provider=AWS, rng=10)
        hybrid = run_query(query, 2, 2, provider=AWS, rng=10)
        assert vm_only.cost.external_store == 0.0
        assert hybrid.cost.external_store > 0.0

    def test_gcp_vm_cheaper_per_second_than_aws(self):
        query = make_uniform_query(40, 2.0)
        aws = run_query(query, 4, 0, provider="aws", rng=11)
        gcp = run_query(query, 4, 0, provider="gcp", rng=11)
        # GCP is slower but VM-only much cheaper (free bursting).
        assert gcp.completion_seconds > aws.completion_seconds
        assert gcp.cost_dollars < aws.cost_dollars

    def test_cost_breakdown_sums(self):
        query = make_uniform_query(50, 2.0)
        result = run_query(query, 2, 2, provider=AWS, rng=12)
        c = result.cost
        assert c.total == pytest.approx(c.vm_total + c.sl_total)


class TestMultiStage:
    def test_stage_dependencies_enforced(self):
        events = []

        class Recorder(ExecutionListener):
            def on_stage_complete(self, stage, now):
                events.append((stage.stage_id, now))

        query = get_query("tpcds-q82")
        run_query(query, 4, 0, provider=AWS, listeners=(Recorder(),), rng=13)
        completed_at = dict(events)
        for stage in query.stages:
            for parent in stage.depends_on:
                assert completed_at[parent] <= completed_at[stage.stage_id]

    def test_all_catalogue_queries_run(self):
        from repro.workloads import all_query_ids

        for query_id in all_query_ids():
            result = run_query(
                get_query(query_id), 6, 6, provider=AWS, rng=14
            )
            assert result.completion_seconds > 0
            assert result.metrics.tasks_completed == get_query(query_id).total_tasks

    def test_metrics_listener_counts_instances(self):
        query = get_query("tpcds-q82")
        result = run_query(query, 3, 2, provider=AWS, rng=15)
        assert result.metrics.n_vm == 3
        assert result.metrics.n_sl == 2
        assert result.metrics.total_cores == 10

    def test_startup_delay_reflects_agility(self):
        query = make_uniform_query(50, 3.0)
        sl_run = run_query(query, 0, 3, provider=AWS55, rng=16)
        vm_run = run_query(query, 3, 0, provider=AWS55, rng=16)
        assert sl_run.metrics.startup_delay < 1.0
        assert vm_run.metrics.startup_delay >= 55.0
