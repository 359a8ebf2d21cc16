"""Unit tests for the cloud substrate: providers, pricing, instances."""

import numpy as np
import pytest

from repro.cloud import (
    AWS_PROFILE,
    GCP_PROFILE,
    InstanceState,
    PriceBook,
    ServerlessInstance,
    VMInstance,
    get_provider,
    run_microbenchmark,
)
from repro.cloud.pricing import AWS_PRICES, GCP_PRICES, CostBreakdown, get_prices
from repro.cloud.storage import ExternalStore, ObjectStore


class TestProviders:
    def test_lookup_by_name(self):
        assert get_provider("AWS") is AWS_PROFILE
        assert get_provider("gcp") is GCP_PROFILE
        with pytest.raises(ValueError):
            get_provider("azure")

    def test_sl_overhead_close_to_paper_thirty_percent(self):
        # Section 2.2: ~30 % SL overhead; Table 5 CPU ratio gives 1.37.
        assert 0.25 <= AWS_PROFILE.sl_overhead <= 0.45
        assert GCP_PROFILE.sl_overhead > 0.25

    def test_gcp_slower_than_aws(self):
        assert GCP_PROFILE.vm_compute_factor > AWS_PROFILE.vm_compute_factor
        assert GCP_PROFILE.storage_mib_per_s < AWS_PROFILE.storage_mib_per_s

    def test_aws_vm_is_the_reference(self):
        assert AWS_PROFILE.vm_compute_factor == pytest.approx(1.0)

    def test_boot_latency_orders_of_magnitude(self):
        # Table 1: SL < 100 ms, VM tens of seconds.
        for profile in (AWS_PROFILE, GCP_PROFILE):
            assert profile.sl_boot_seconds <= 0.1
            assert profile.vm_boot_seconds >= 30.0

    def test_with_boot_seconds_copy(self):
        modified = AWS_PROFILE.with_boot_seconds(55.0)
        assert modified.vm_boot_seconds == 55.0
        assert AWS_PROFILE.vm_boot_seconds != 55.0
        with pytest.raises(ValueError):
            AWS_PROFILE.with_boot_seconds(-1.0)

    def test_microbenchmark_tracks_profile(self):
        report = run_microbenchmark(AWS_PROFILE, n_trials=200, rng=0)
        assert report.cloud_storage_mib_s == pytest.approx(
            AWS_PROFILE.storage_mib_per_s, rel=0.05
        )
        assert report.vm_cpu_events_s == pytest.approx(
            AWS_PROFILE.vm_cpu_events_per_s, rel=0.05
        )

    def test_microbenchmark_reproduces_table5_ordering(self):
        aws = run_microbenchmark(AWS_PROFILE, rng=1)
        gcp = run_microbenchmark(GCP_PROFILE, rng=1)
        assert aws.cloud_storage_mib_s > gcp.cloud_storage_mib_s
        assert aws.vm_cpu_events_s > gcp.vm_cpu_events_s
        assert aws.sl_cpu_events_s > gcp.sl_cpu_events_s


class TestPricing:
    def test_aws_sl_to_vm_ratio_matches_table1(self):
        # Table 1: SL unit-time cost up to 5.8x the VM's.
        assert AWS_PRICES.sl_to_vm_unit_cost_ratio == pytest.approx(5.77, rel=0.02)

    def test_gcp_burst_is_free(self):
        assert GCP_PRICES.vm_burst_per_second == 0.0
        assert AWS_PRICES.vm_burst_per_second > 0.0

    def test_charges_scale_linearly(self):
        assert AWS_PRICES.vm_charge(200.0) == pytest.approx(
            2 * AWS_PRICES.vm_charge(100.0)
        )
        assert AWS_PRICES.sl_charge(200.0, invocations=0) == pytest.approx(
            2 * AWS_PRICES.sl_charge(100.0, invocations=0)
        )

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            AWS_PRICES.vm_charge(-1.0)
        with pytest.raises(ValueError):
            AWS_PRICES.sl_charge(-1.0)
        with pytest.raises(ValueError):
            AWS_PRICES.redis_charge(-1.0)

    def test_lookup(self):
        assert get_prices("aws") is AWS_PRICES
        with pytest.raises(ValueError):
            get_prices("azure")

    def test_cost_breakdown_addition_and_total(self):
        a = CostBreakdown(vm_compute=1.0, sl_compute=2.0)
        b = CostBreakdown(vm_burst=0.5, external_store=0.25)
        total = a + b
        assert total.total == pytest.approx(3.75)
        assert total.vm_total == pytest.approx(1.5)
        assert total.sl_total == pytest.approx(2.25)
        assert set(total.as_dict()) >= {"vm_compute", "total"}


class TestInstanceLifecycle:
    def test_vm_id_format(self):
        vm = VMInstance.create(spawn_time=0.0)
        assert vm.instance_id.startswith("i-")

    def test_sl_id_format_and_invocation(self):
        sl = ServerlessInstance.create(spawn_time=0.0)
        assert sl.instance_id.startswith("req-")
        assert sl.invocations == 1

    def test_legal_lifecycle(self):
        vm = VMInstance.create(spawn_time=0.0)
        vm.transition(InstanceState.BOOTING, 0.0)
        vm.transition(InstanceState.RUNNING, 31.5)
        assert vm.ready_time == 31.5
        vm.transition(InstanceState.DRAINING, 40.0)
        vm.transition(InstanceState.TERMINATED, 50.0)
        assert vm.terminate_time == 50.0

    def test_illegal_transition_rejected(self):
        vm = VMInstance.create(spawn_time=0.0)
        with pytest.raises(ValueError):
            vm.transition(InstanceState.RUNNING, 1.0)  # skips BOOTING

    def test_terminated_is_final(self):
        sl = ServerlessInstance.create(spawn_time=0.0)
        sl.transition(InstanceState.BOOTING, 0.0)
        sl.transition(InstanceState.TERMINATED, 1.0)
        with pytest.raises(ValueError):
            sl.transition(InstanceState.RUNNING, 2.0)

    def test_vm_billing_includes_boot(self):
        vm = VMInstance.create(spawn_time=10.0)
        vm.transition(InstanceState.BOOTING, 10.0)
        vm.transition(InstanceState.RUNNING, 41.5)
        vm.transition(InstanceState.TERMINATED, 110.0)
        cost = vm.cost(AWS_PRICES, now=110.0)
        expected = AWS_PRICES.vm_charge(100.0)
        assert cost.vm_total == pytest.approx(expected)

    def test_sl_billing_uses_deployed_time(self):
        sl = ServerlessInstance.create(spawn_time=0.0)
        sl.transition(InstanceState.BOOTING, 0.0)
        sl.transition(InstanceState.RUNNING, 0.1)
        sl.mark_busy(5.0)
        sl.transition(InstanceState.TERMINATED, 60.0)
        cost = sl.cost(AWS_PRICES, now=60.0)
        assert cost.sl_compute == pytest.approx(60.0 * AWS_PRICES.sl_per_second)

    def test_busy_accounting(self):
        sl = ServerlessInstance.create(spawn_time=0.0)
        sl.mark_busy(2.0)
        sl.mark_busy(3.0)
        assert sl.busy_seconds == 5.0
        assert sl.tasks_executed == 2
        with pytest.raises(ValueError):
            sl.mark_busy(-1.0)


class TestStorage:
    def test_object_store_read_time_scales(self):
        store = ObjectStore(bandwidth_mib_per_s=100.0, request_latency_s=0.0)
        one_mib = store.read_seconds(1024.0 * 1024.0)
        assert one_mib == pytest.approx(0.01)
        assert store.read_seconds(0) == 0.0

    def test_external_store_penalty(self):
        store = ExternalStore(
            bandwidth_mib_per_s=100.0,
            request_latency_s=0.0,
            relative_shuffle_penalty=0.5,
        )
        base = 1024.0 * 1024.0 / (100.0 * 1024.0 * 1024.0)
        assert store.transfer_seconds(1024.0 * 1024.0) == pytest.approx(base * 1.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ObjectStore(bandwidth_mib_per_s=0.0)
        with pytest.raises(ValueError):
            ExternalStore(relative_shuffle_penalty=-0.1)
        store = ObjectStore(bandwidth_mib_per_s=10.0)
        with pytest.raises(ValueError):
            store.read_seconds(-5.0)
