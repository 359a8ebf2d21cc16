"""Packed-forest engine, incremental GP and predictor hot-path caches."""

import ctypes
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.pricing import get_prices
from repro.cloud.providers import get_provider
from repro.core.predictor import PredictionRequest, WorkloadPredictor
from repro.ml import PackedForest, forest_native
from repro.ml.decision_tree import DecisionTreeRegressor
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.kernels import Matern52Kernel
from repro.ml.random_forest import RandomForestRegressor

AWS_PROFILE = get_provider("aws")
AWS_PRICES = get_prices("aws")


def _forest(n_estimators=12, n_samples=150, n_features=5, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, size=(n_samples, n_features))
    y = x @ rng.uniform(-1.0, 1.0, n_features) + rng.normal(0.0, 1.0, n_samples)
    forest = RandomForestRegressor(
        n_estimators=n_estimators, rng=seed, **kwargs
    )
    forest.fit(x, y)
    return forest, rng


class TestPackedForest:
    def test_matrix_matches_per_tree_loop_both_engines(self):
        forest, rng = _forest(max_depth=8)
        queries = rng.uniform(-12.0, 12.0, size=(64, 5))
        reference = forest._tree_matrix_loop(queries)
        pack = forest.packed()
        # Whichever engine is active must agree bit for bit...
        assert np.array_equal(pack.tree_matrix(queries), reference)
        # ...and the numpy fallback must as well, explicitly.
        assert np.array_equal(pack._descend_numpy(queries), reference)

    def test_predict_and_spread_bitwise_equal(self):
        forest, rng = _forest()
        queries = rng.uniform(-12.0, 12.0, size=(33, 5))
        matrix = forest._tree_matrix_loop(queries)
        assert np.array_equal(forest.predict(queries), matrix.mean(axis=0))
        mean, spread = forest.predict_with_spread(queries)
        assert np.array_equal(mean, matrix.mean(axis=0))
        assert np.array_equal(spread, matrix.std(axis=0))

    def test_single_row_and_empty(self):
        forest, rng = _forest()
        one = rng.uniform(-5.0, 5.0, size=(1, 5))
        assert np.array_equal(
            forest.predict(one), forest._tree_matrix_loop(one).mean(axis=0)
        )
        assert forest.predict(np.empty((0, 5))).shape == (0,)

    def test_stump_forest(self):
        # Constant targets make every tree a single root leaf (depth 0).
        x = np.arange(20.0)[:, None]
        y = np.full(20, 7.5)
        forest = RandomForestRegressor(n_estimators=5, rng=0).fit(x, y)
        assert forest.packed().n_levels == 0
        assert np.allclose(forest.predict(np.array([[3.0]])), 7.5)

    def test_adjacent_children_after_bfs_renumbering(self):
        forest, _ = _forest()
        pack = forest.packed()
        internal = pack.left != -1
        assert np.array_equal(
            pack.right[internal], pack.left[internal] + 1
        )
        assert np.array_equal(pack.roots, np.arange(pack.n_trees))

    def test_pack_invalidated_by_fit_and_add_trees(self):
        forest, rng = _forest(n_estimators=4)
        first = forest.packed()
        x = rng.uniform(-10.0, 10.0, size=(80, 5))
        y = x.sum(axis=1)
        forest.add_trees(x, y, n_new=3)
        second = forest.packed()
        assert second is not first
        assert second.n_trees == 7
        queries = rng.uniform(-10.0, 10.0, size=(11, 5))
        assert np.array_equal(
            forest.predict(queries),
            forest._tree_matrix_loop(queries).mean(axis=0),
        )

    def test_pack_survives_pickling(self):
        forest, rng = _forest()
        queries = rng.uniform(-10.0, 10.0, size=(9, 5))
        clone = pickle.loads(pickle.dumps(forest))
        assert np.array_equal(clone.predict(queries), forest.predict(queries))

    def test_oob_uses_pack_and_matches_seed_semantics(self):
        forest, _ = _forest(oob_score=True, n_estimators=20)
        # Recompute the seed's per-tree OOB aggregation and compare.
        rng = np.random.default_rng(0)
        x = rng.uniform(-10.0, 10.0, size=(150, 5))
        y = x @ rng.uniform(-1.0, 1.0, 5) + rng.normal(0.0, 1.0, 150)
        totals = np.zeros(150)
        counts = np.zeros(150)
        for tree, mask in zip(forest.trees_, forest._oob_masks):
            totals[mask] += tree.predict(x[mask])
            counts[mask] += 1
        covered = counts > 0
        residuals = totals[covered] / counts[covered] - y[covered]
        assert forest.oob_rmse_ == pytest.approx(
            float(np.sqrt(np.mean(residuals**2)))
        )

    def test_feature_count_mismatch_raises(self):
        forest, _ = _forest()
        with pytest.raises(ValueError):
            forest.predict(np.zeros((3, 4)))

    def test_empty_pack_rejected(self):
        with pytest.raises(ValueError):
            PackedForest.from_trees([])

    def test_unfitted_forest_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))


@pytest.mark.skipif(
    forest_native.load_kernel() is None, reason="native kernel unavailable"
)
@pytest.mark.parametrize(
    "bad, problem",
    [
        (np.ones(3, dtype=np.float32), "array must have data type float64"),
        (np.ones(6)[::2], r"array must have flags \['C_CONTIGUOUS'\]"),
        ([1.0, 1.0, 1.0], "argument must be an ndarray"),
    ],
)
def test_native_entry_rejects_like_ndpointer(bad, problem):
    """Array arguments are validated as ``ndpointer`` validated them."""
    kernel = forest_native.load_kernel()
    ok = np.ones(3)
    out = np.empty((3, 3))
    for position, args in (
        (1, (bad, ok, ok)), (2, (out, bad, ok)), (3, (out, ok, bad))
    ):
        with pytest.raises(
            ctypes.ArgumentError,
            match=f"argument {position}: TypeError: {problem}",
        ):
            kernel.matern_gram(*args, 1.0, 3, 3, out, out.copy())


class TestIncrementalGP:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_rank1_updates_match_full_refit(self, normalize):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 10.0, size=(60, 2))
        values = np.sin(points[:, 0]) + 0.3 * points[:, 1]
        incremental = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale=3.0),
            noise=1e-2,
            normalize_targets=normalize,
        )
        for point, value in zip(points, values):
            incremental.add_observation(point, value)
        full = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale=3.0),
            noise=1e-2,
            normalize_targets=normalize,
        ).fit(points, values)
        probes = rng.uniform(0.0, 10.0, size=(25, 2))
        inc_mean, inc_std = incremental.predict(probes, return_std=True)
        full_mean, full_std = full.predict(probes, return_std=True)
        np.testing.assert_allclose(inc_mean, full_mean, atol=1e-8, rtol=0)
        np.testing.assert_allclose(inc_std, full_std, atol=1e-8, rtol=0)
        assert incremental.log_marginal_likelihood() == pytest.approx(
            full.log_marginal_likelihood(), abs=1e-7
        )

    def test_extension_grows_factor_incrementally(self):
        gp = GaussianProcessRegressor(noise=1e-2)
        gp.add_observation([0.0], 1.0)
        first = gp._cholesky
        gp.add_observation([5.0], 2.0)
        assert gp._cholesky.shape == (2, 2)
        # The old block is carried over unchanged, not recomputed.
        assert gp._cholesky[0, 0] == first[0, 0]

    def test_duplicate_point_zero_noise_falls_back(self):
        gp = GaussianProcessRegressor(noise=0.0)
        gp.add_observation([1.0, 2.0], 3.0)
        # A duplicate makes the Schur complement collapse; the update
        # must take the full-refactor path (and survive, thanks to the
        # diagonal jitter) rather than produce a NaN factor.
        gp.add_observation([1.0, 2.0], 3.0)
        assert gp.n_observations == 2
        assert np.isfinite(gp.predict(np.array([[1.0, 2.0]]))).all()


class TestDecisionPathLength:
    def test_matches_reference_walk(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-5.0, 5.0, size=(120, 4))
        y = x[:, 0] * 2.0 + np.abs(x[:, 1]) + rng.normal(0.0, 0.2, 120)
        tree = DecisionTreeRegressor(max_depth=7).fit(x, y)
        queries = rng.uniform(-6.0, 6.0, size=(40, 4))
        buffers = tree._require_fitted()
        expected = []
        for row in queries:
            node, depth = 0, 0
            while buffers.left[node] != -1:
                if row[buffers.feature[node]] <= buffers.threshold[node]:
                    node = int(buffers.left[node])
                else:
                    node = int(buffers.right[node])
                depth += 1
            expected.append(depth)
        assert tree.decision_path_length(queries).tolist() == expected

    def test_stump_paths_are_zero(self):
        tree = DecisionTreeRegressor().fit(np.zeros((4, 1)), np.ones(4))
        assert tree.decision_path_length(np.zeros((6, 1))).tolist() == [0] * 6


def _predictor(**kwargs):
    predictor = WorkloadPredictor(
        AWS_PROFILE, AWS_PRICES, max_vm=6, max_sl=6, n_estimators=8,
        rng=3, **kwargs
    )
    rng = np.random.default_rng(3)
    from repro.core.features import FEATURE_NAMES, FeatureVector
    from repro.ml.dataset import Dataset

    n_vm = rng.integers(1, 7, 60)
    n_sl = rng.integers(0, 7, 60)
    features = FeatureVector.build_matrix(
        n_vm=n_vm.astype(float),
        n_sl=n_sl.astype(float),
        input_size_gb=50.0,
        start_time_epoch=100.0,
        historical_duration_s=90.0,
    )
    targets = 600.0 / (n_vm + n_sl) + rng.normal(0.0, 2.0, 60)
    predictor.fit(
        Dataset(features, targets, feature_names=FEATURE_NAMES), augment=False
    )
    return predictor


def _request(index=0):
    return PredictionRequest(
        query_id=f"q{index}",
        input_size_gb=50.0,
        start_time_epoch=200.0 + index,
        historical_duration_s=90.0,
        num_waiting_apps=0,
    )


class TestPredictorCaches:
    def test_candidate_grid_memoized_and_readonly(self):
        predictor = _predictor()
        first = predictor.candidate_grid("hybrid")
        assert predictor.candidate_grid("hybrid") is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 99.0

    def test_candidate_grid_matches_nested_loop_order(self):
        predictor = _predictor()
        for mode in ("hybrid", "vm-only", "sl-only"):
            expected = []
            vm_range = range(7) if mode != "sl-only" else (0,)
            sl_range = range(7) if mode != "vm-only" else (0,)
            for n_vm in vm_range:
                for n_sl in sl_range:
                    if n_vm + n_sl == 0:
                        continue
                    expected.append((float(n_vm), float(n_sl)))
            assert predictor.candidate_grid(mode).tolist() == [
                list(pair) for pair in expected
            ]

    def test_estimate_costs_bitwise_equals_scalar(self):
        for relay in (True, False):
            predictor = _predictor(relay=relay)
            candidates = predictor.candidate_grid("hybrid")
            t_est = np.linspace(5.0, 400.0, candidates.shape[0])
            batched = predictor.estimate_costs(t_est, candidates)
            scalar = np.array(
                [
                    predictor.estimate_cost(
                        float(t), int(point[0]), int(point[1])
                    )
                    for t, point in zip(t_est, candidates)
                ]
            )
            assert np.array_equal(batched, scalar)

    def test_estimate_costs_shape_mismatch(self):
        predictor = _predictor()
        with pytest.raises(ValueError):
            predictor.estimate_costs(np.ones(3), predictor.candidate_grid())

    def test_grid_bounds_and_relay_invalidate_decisions(self):
        predictor = _predictor()
        request = _request()
        (wide,) = predictor.determine_batch([request])
        predictor.max_vm = 2
        predictor.max_sl = 2
        (narrow,) = predictor.determine_batch([request])
        assert narrow.n_evaluations == predictor.candidate_grid("hybrid").shape[0]
        assert narrow.n_vm <= 2 and narrow.n_sl <= 2
        predictor.relay = not predictor.relay
        (toggled,) = predictor.determine_batch([request])
        # Same durations, but the relay flag changes every hybrid cost.
        assert (
            toggled.best_entry.estimated_cost
            != narrow.best_entry.estimated_cost
            or toggled.best_entry.n_sl == 0
        )

    def test_provider_and_prices_are_read_only(self):
        # The Eq. 4 rates are hoisted at construction; swapping the price
        # book afterwards must fail loudly instead of decoupling silently.
        predictor = _predictor()
        with pytest.raises(AttributeError):
            predictor.prices = AWS_PRICES
        with pytest.raises(AttributeError):
            predictor.provider = AWS_PROFILE

    def test_batch_matches_unbatched_grid_argmin(self):
        predictor = _predictor()
        request = _request()
        (decision,) = predictor.determine_batch([request])
        grid = predictor.candidate_grid("hybrid")
        estimates = predictor.predict_durations(request.feature_matrix(grid))
        assert decision.best_entry.estimated_seconds == pytest.approx(
            float(estimates.min())
        )
        assert decision.n_evaluations == grid.shape[0]


@functools.cache
def _feature_sensitive_predictor():
    """A predictor whose forest splits on every request feature.

    ``_predictor`` trains on one request shape, so its trees never split
    on the request columns and every request gets the same grid.  Here
    each training block varies them, so requests differ in their grids.
    Fitting is deterministic and ``determine_batch`` leaves the model
    untouched, so one predictor serves every generated example.
    """
    from repro.core.features import FEATURE_NAMES, FeatureVector
    from repro.ml.dataset import Dataset

    predictor = WorkloadPredictor(
        AWS_PROFILE, AWS_PRICES, max_vm=6, max_sl=6, n_estimators=8, rng=5
    )
    rng = np.random.default_rng(5)
    blocks, targets = [], []
    for _ in range(24):
        size_gb = float(rng.choice([5.0, 50.0, 400.0]))
        epoch = float(rng.choice([100.0, 200.0, 900.0]))
        history_s = float(rng.choice([30.0, 90.0, 600.0]))
        waiting = int(rng.integers(0, 5))
        n_vm = rng.integers(0, 7, 20)
        n_sl = rng.integers(1, 7, 20)
        blocks.append(
            FeatureVector.build_matrix(
                n_vm=n_vm.astype(float),
                n_sl=n_sl.astype(float),
                input_size_gb=size_gb,
                start_time_epoch=epoch,
                historical_duration_s=history_s,
                num_waiting_apps=waiting,
            )
        )
        work = size_gb + history_s + 0.1 * epoch + 20.0 * waiting
        targets.append(work / (n_vm + n_sl) + rng.normal(0.0, 1.0, 20))
    predictor.fit(
        Dataset(
            np.vstack(blocks),
            np.concatenate(targets),
            feature_names=FEATURE_NAMES,
        ),
        augment=False,
    )
    return predictor


#: Distinct request shapes the batch property draws from (with repeats).
_REQUEST_POOL = st.builds(
    PredictionRequest,
    query_id=st.sampled_from(["q0", "q1", "q2"]),
    input_size_gb=st.sampled_from([5.0, 50.0, 400.0]),
    start_time_epoch=st.sampled_from([100.0, 200.0, 900.0]),
    historical_duration_s=st.sampled_from([30.0, 90.0, 600.0]),
    num_waiting_apps=st.integers(min_value=0, max_value=4),
)


class TestBatchIndependence:
    @given(
        data=st.data(),
        mode=st.sampled_from(["hybrid", "vm-only", "sl-only"]),
        knob=st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_batch_equals_one_request_at_a_time(self, data, mode, knob):
        # A request's decision depends on that request alone: sizing it
        # inside any batch (repeats included) gives the same config,
        # prediction and bitwise-equal grid as sizing it by itself.
        predictor = _feature_sensitive_predictor()
        pool = data.draw(st.lists(_REQUEST_POOL, min_size=1, max_size=4))
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=1,
                max_size=8,
            )
        )
        requests = [pool[pick] for pick in picks]
        batched = predictor.determine_batch(requests, knob=knob, mode=mode)
        for request, decision in zip(requests, batched):
            (alone,) = predictor.determine_batch([request], knob=knob, mode=mode)
            assert decision.query_id == alone.query_id
            assert decision.config == alone.config
            assert decision.predicted_seconds == alone.predicted_seconds
            assert decision.estimated_cost == alone.estimated_cost
            assert decision.best_entry == alone.best_entry
            assert decision.chosen_entry == alone.chosen_entry
            assert np.array_equal(decision.grid.candidates, alone.grid.candidates)
            assert decision.grid.seconds.tobytes() == alone.grid.seconds.tobytes()
            assert decision.grid.costs.tobytes() == alone.grid.costs.tobytes()
