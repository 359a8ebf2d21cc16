"""Edge cases and failure injection across subsystems."""

import json
import socket
import struct

import numpy as np
import pytest

from repro.cloud import get_provider
from repro.engine import (
    NoEarlyTermination,
    QuerySpec,
    RelayPolicy,
    SegueTimeoutPolicy,
    StageSpec,
    run_query,
)
from repro.workloads import make_uniform_query

AWS = get_provider("aws").with_noise_sigma(0.0)


class TestSchedulerEdges:
    def test_single_task_query(self):
        query = make_uniform_query(1, 2.0)
        result = run_query(query, 1, 0, provider=AWS, rng=0)
        assert result.metrics.tasks_completed == 1

    def test_many_workers_few_tasks(self):
        # Far more slots than tasks: most executors stay idle.
        query = make_uniform_query(2, 2.0)
        result = run_query(query, 10, 10, provider=AWS, rng=0)
        assert result.metrics.tasks_completed == 2

    def test_relay_with_sl_only_keeps_sls(self):
        # Relay policy but no VMs: nothing to relay to, SLs must finish.
        query = make_uniform_query(30, 2.0)
        result = run_query(
            query, n_vm=0, n_sl=3, provider=AWS, policy=RelayPolicy(), rng=0
        )
        assert result.metrics.tasks_completed == 30

    def test_segue_timeout_longer_than_query(self):
        query = make_uniform_query(10, 1.0)
        result = run_query(
            query, 2, 2, provider=AWS, policy=SegueTimeoutPolicy(10_000.0),
            rng=0,
        )
        assert result.metrics.tasks_completed == 10
        # Query end terminates everything regardless of the timeout.
        assert result.completion_seconds < 10_000.0

    def test_query_faster_than_vm_boot(self):
        # The SLs finish everything before any VM is ready.
        query = make_uniform_query(4, 0.5)
        result = run_query(
            query, n_vm=3, n_sl=3, provider=AWS, policy=RelayPolicy(), rng=0
        )
        assert result.completion_seconds < AWS.vm_boot_seconds
        assert result.metrics.tasks_completed == 4

    def test_wide_fan_in_stage(self):
        # One stage depending on four parallel scans.
        stages = [
            StageSpec(i, 4, 1.0, task_input_mb=1.0) for i in range(4)
        ]
        stages.append(
            StageSpec(4, 2, 1.0, task_shuffle_mb=1.0, depends_on=(0, 1, 2, 3))
        )
        query = QuerySpec(
            query_id="fan", suite="test", stages=tuple(stages), input_gb=0.1
        )
        result = run_query(query, 2, 2, provider=AWS, rng=1)
        assert result.metrics.stages_completed == 5

    def test_deep_chain(self):
        stages = [StageSpec(0, 2, 0.5, task_input_mb=1.0)]
        for i in range(1, 20):
            stages.append(StageSpec(i, 2, 0.5, depends_on=(i - 1,)))
        query = QuerySpec(
            query_id="chain", suite="test", stages=tuple(stages), input_gb=0.1
        )
        result = run_query(query, 1, 0, provider=AWS, rng=2)
        assert result.metrics.stages_completed == 20

    @staticmethod
    def _pool_scheduler():
        from repro.cloud.pool import ClusterPool, PoolConfig
        from repro.cloud.pricing import get_prices
        from repro.engine.scheduler import TaskScheduler
        from repro.engine.simulator import Simulator
        from repro.engine.task import TaskDurationModel

        sim = Simulator()
        pool = ClusterPool(
            sim, AWS, get_prices("aws"), config=PoolConfig(max_vms=2, max_sls=2)
        )
        return TaskScheduler(
            sim, pool, TaskDurationModel(AWS, rng=0), NoEarlyTermination()
        )

    def test_double_submit_rejected(self):
        scheduler = self._pool_scheduler()
        query = make_uniform_query(2, 1.0)
        scheduler.submit(query, 1, 0)
        with pytest.raises(RuntimeError):
            scheduler.submit(query, 1, 0)

    def test_completion_time_before_done_raises(self):
        scheduler = self._pool_scheduler()
        scheduler.submit(make_uniform_query(2, 1.0), 1, 0)
        with pytest.raises(RuntimeError):
            _ = scheduler.completion_time


class TestBillingEdges:
    def test_terminated_before_boot_costs_boot_window_only(self):
        # An SL drained before its VM partner boots is still billed for
        # its (brief) deployed time.
        query = make_uniform_query(2, 0.5)
        result = run_query(
            query, n_vm=1, n_sl=1, provider=AWS, policy=RelayPolicy(), rng=0
        )
        assert result.cost.sl_compute > 0

    def test_cost_reported_in_both_units(self):
        query = make_uniform_query(4, 1.0)
        result = run_query(query, 1, 0, provider=AWS, rng=0)
        assert result.cost_cents == pytest.approx(100 * result.cost_dollars)

    def test_zero_noise_runs_are_reproducible(self):
        query = make_uniform_query(20, 2.0)
        a = run_query(query, 2, 2, provider=AWS, rng=5)
        b = run_query(query, 2, 2, provider=AWS, rng=5)
        assert a.completion_seconds == b.completion_seconds
        assert a.cost_dollars == pytest.approx(b.cost_dollars)


class TestRpcFailureInjection:
    def test_garbage_frame_does_not_kill_server(self, small_trained_smartpick):
        from repro.core.rpc import PredictionClient, PredictionServer

        with PredictionServer(small_trained_smartpick.predictor) as server:
            host, port = server.address
            # Send a malformed frame (huge declared length) and bail.
            raw = socket.create_connection((host, port))
            raw.sendall(struct.pack(">I", 2**31) + b"x")
            raw.close()
            # The server must keep serving other clients.
            with PredictionClient(host, port) as client:
                assert client.ping() == "pong"

    def test_non_json_body_is_survivable(self, small_trained_smartpick):
        from repro.core.rpc import PredictionClient, PredictionServer

        with PredictionServer(small_trained_smartpick.predictor) as server:
            host, port = server.address
            raw = socket.create_connection((host, port))
            body = b"not-json"
            raw.sendall(struct.pack(">I", len(body)) + body)
            raw.close()
            with PredictionClient(host, port) as client:
                assert client.ping() == "pong"

    def test_request_missing_params_reports_error(self, small_trained_smartpick):
        from repro.core.rpc import PredictionClient, PredictionServer, RpcError

        with PredictionServer(small_trained_smartpick.predictor) as server:
            host, port = server.address
            with PredictionClient(host, port) as client:
                with pytest.raises(RpcError):
                    client.call("predict_duration")  # no request/n_vm/n_sl


class TestHistoryJsonRobustness:
    def test_load_rejects_bad_payload(self, tmp_path):
        from repro.core import HistoryServer

        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"records": [{"query_id": "x"}]}))
        with pytest.raises(KeyError):
            HistoryServer.load_json(path)


class TestInstanceStateEdges:
    def test_deployed_seconds_clamps_at_zero(self):
        from repro.cloud.instances import VMInstance

        vm = VMInstance.create(spawn_time=100.0)
        assert vm.deployed_seconds(now=50.0) == 0.0
