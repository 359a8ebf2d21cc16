"""Tests for the Workload Prediction module (RF + BO)."""

import numpy as np
import pytest

from repro.cloud import AWS_PROFILE, get_provider
from repro.cloud.pricing import AWS_PRICES
from repro.core import FEATURE_NAMES, FeatureVector, PredictionRequest, WorkloadPredictor
from repro.ml.dataset import Dataset


def _synthetic_training_set(n=120, seed=0):
    """Synthetic records with a clean parallelism -> duration relationship."""
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(n):
        n_vm = int(rng.integers(0, 9))
        n_sl = int(rng.integers(0, 9))
        if n_vm + n_sl == 0:
            n_vm = 1
        base_work = 2000.0
        duration = base_work / (2 * (n_vm + n_sl)) + (30.0 if n_vm else 0.0)
        features = FeatureVector.build(
            n_vm=n_vm, n_sl=n_sl, input_size_gb=100.0,
            start_time_epoch=1.7e9 + len(rows) * 300.0,
            historical_duration_s=200.0,
        )
        rows.append(features.as_array())
        targets.append(duration)
    return Dataset(np.stack(rows), np.array(targets), FEATURE_NAMES)


@pytest.fixture()
def predictor():
    wp = WorkloadPredictor(
        provider=AWS_PROFILE, prices=AWS_PRICES, relay=True,
        max_vm=8, max_sl=8, rng=1,
    )
    wp.fit(_synthetic_training_set(), query_ids=("synth",))
    return wp


def _request():
    return PredictionRequest(
        query_id="synth", input_size_gb=100.0,
        start_time_epoch=1.7e9, historical_duration_s=200.0,
    )


class TestTraining:
    def test_fit_applies_data_burst(self, predictor):
        # 120 base samples x 10 burst = 1200.
        assert predictor.training_set_size == 1200
        assert predictor.model_version == 1
        assert predictor.is_known("synth")

    def test_fit_rejects_wrong_schema(self):
        wp = WorkloadPredictor(AWS_PROFILE, AWS_PRICES, rng=2)
        bad = Dataset(np.zeros((5, 3)), np.ones(5), ("a", "b", "c"))
        with pytest.raises(ValueError):
            wp.fit(bad)

    def test_warm_update_adds_trees(self, predictor):
        before = predictor.forest.n_trees
        predictor.warm_update(_synthetic_training_set(30, seed=9), n_new_trees=10)
        assert predictor.forest.n_trees == before + 10
        assert predictor.model_version == 2

    def test_untrained_predictor_refuses(self):
        wp = WorkloadPredictor(AWS_PROFILE, AWS_PRICES, rng=3)
        with pytest.raises(RuntimeError):
            wp.predict_duration(
                FeatureVector.build(1, 1, 10.0, 0.0, 100.0)
            )
        with pytest.raises(RuntimeError):
            wp.determine(_request())


class TestPrediction:
    def test_learns_parallelism_curve(self, predictor):
        few = predictor.predict_duration(_request().feature_vector(1, 1))
        many = predictor.predict_duration(_request().feature_vector(8, 8))
        assert few > many

    def test_candidate_grids(self, predictor):
        hybrid = predictor.candidate_grid("hybrid")
        vm_only = predictor.candidate_grid("vm-only")
        sl_only = predictor.candidate_grid("sl-only")
        assert hybrid.shape[0] == 9 * 9 - 1
        assert vm_only.shape[0] == 8
        assert (vm_only[:, 1] == 0).all()
        assert (sl_only[:, 0] == 0).all()
        with pytest.raises(ValueError):
            predictor.candidate_grid("both")


class TestCostEstimation:
    def test_relay_caps_sl_time_at_boot(self, predictor):
        long_run = predictor.estimate_cost(300.0, n_vm=4, n_sl=4)
        # SL part priced for the boot window only.
        sl_rate = AWS_PRICES.sl_per_second
        boot = AWS_PROFILE.vm_boot_seconds
        expected_sl = 4 * boot * sl_rate
        vm_rate = (
            AWS_PRICES.vm_per_second
            + AWS_PRICES.vm_burst_per_second
            + AWS_PRICES.vm_storage_per_second
        )
        expected = 4 * 300.0 * vm_rate + expected_sl + 300.0 * AWS_PRICES.redis_per_second
        assert long_run == pytest.approx(expected)

    def test_no_relay_bills_sls_for_whole_query(self):
        wp = WorkloadPredictor(
            AWS_PROFILE, AWS_PRICES, relay=False, max_vm=8, max_sl=8, rng=4
        )
        cost_no_relay = wp.estimate_cost(300.0, 4, 4)
        wp_relay = WorkloadPredictor(
            AWS_PROFILE, AWS_PRICES, relay=True, max_vm=8, max_sl=8, rng=4
        )
        assert cost_no_relay > wp_relay.estimate_cost(300.0, 4, 4)

    def test_sl_only_not_capped_even_with_relay(self, predictor):
        cost = predictor.estimate_cost(200.0, n_vm=0, n_sl=4)
        sl_part = 4 * 200.0 * AWS_PRICES.sl_per_second
        assert cost == pytest.approx(
            sl_part + 200.0 * AWS_PRICES.redis_per_second
        )

    def test_redis_only_with_sl(self, predictor):
        assert predictor.estimate_cost(100.0, 4, 0) < predictor.estimate_cost(
            100.0, 4, 1
        ) - 0.0


class TestDetermination:
    def test_decision_prefers_parallel_configs(self, predictor):
        decision = predictor.determine(_request())
        assert decision.n_vm + decision.n_sl >= 10
        assert decision.predicted_seconds < 200.0
        assert decision.n_evaluations <= 60
        assert decision.inference_seconds < 5.0

    def test_et_list_populated(self, predictor):
        decision = predictor.determine(_request())
        assert len(decision.et_list) == decision.n_evaluations
        assert decision.best_entry in decision.et_list or (
            decision.best_entry.config
            in [entry.config for entry in decision.et_list]
        )

    def test_knob_reduces_estimated_cost(self, predictor):
        base = predictor.determine(_request(), knob=0.0)
        relaxed = predictor.determine(_request(), knob=0.6)
        assert relaxed.estimated_cost <= base.estimated_cost * 1.05

    def test_modes_respect_axis(self, predictor):
        vm_only = predictor.determine(_request(), mode="vm-only")
        sl_only = predictor.determine(_request(), mode="sl-only")
        assert vm_only.n_sl == 0
        assert sl_only.n_vm == 0

    def test_decision_summary_mentions_config(self, predictor):
        decision = predictor.determine(_request())
        text = decision.summary()
        assert str(decision.n_vm) in text
        assert "synth" in text

    @pytest.mark.parametrize(
        "mode, caps", [("sl-only", (4, 0)), ("vm-only", (0, 4))]
    )
    def test_quota_zeroing_the_only_axis_falls_back(self, predictor, mode, caps):
        # A cap that leaves a single-axis mode without its axis is
        # ignored, like a cap pair zeroing both axes of the hybrid grid.
        max_vm, max_sl = caps
        assert np.array_equal(
            predictor.candidate_grid(mode, max_vm=max_vm, max_sl=max_sl),
            predictor.candidate_grid(mode),
        )
        state = predictor._rng.bit_generator.state
        capped = predictor.determine(
            _request(), mode=mode, max_vm=max_vm, max_sl=max_sl
        )
        predictor._rng.bit_generator.state = state
        free = predictor.determine(_request(), mode=mode)
        assert capped.config == free.config
        assert capped.n_evaluations == free.n_evaluations
        (batched,) = predictor.determine_batch(
            [_request()], mode=mode, max_vm=max_vm, max_sl=max_sl
        )
        (unconstrained,) = predictor.determine_batch([_request()], mode=mode)
        assert batched.config == unconstrained.config
        assert len(batched.et_list) == len(predictor.candidate_grid(mode))

    def test_quota_caps_keep_the_remaining_axis(self, predictor):
        # Zeroing the *other* axis of a single-axis mode still caps it.
        decision = predictor.determine(
            _request(), mode="sl-only", max_vm=0, max_sl=3
        )
        assert decision.n_vm == 0 and 1 <= decision.n_sl <= 3

    def test_decisions_deterministic_per_seed(self):
        results = []
        for _ in range(2):
            wp = WorkloadPredictor(
                provider=get_provider("aws"), prices=AWS_PRICES,
                max_vm=8, max_sl=8, rng=77,
            )
            wp.fit(_synthetic_training_set(), query_ids=("synth",))
            results.append(wp.determine(_request()).config)
        assert results[0] == results[1]
