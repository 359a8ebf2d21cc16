"""Grid-compiled forest descent: bitwise equivalence and integration."""

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Smartpick, SmartpickProperties
from repro.cloud.pricing import get_prices
from repro.cloud.providers import get_provider
from repro.core.features import FEATURE_NAMES, FeatureVector
from repro.core.predictor import PredictionRequest, WorkloadPredictor
from repro.ml.dataset import Dataset
from repro.ml.grid_inference import GridPack, _pack_rows
from repro.workloads import get_query

from test_determine_golden import trained_predictor

AWS_PROFILE = get_provider("aws")
AWS_PRICES = get_prices("aws")

#: SHA-256 of :func:`_compiled_tables_digest` under the per-node collapse
#: walk the level-by-level one replaced.
GOLDEN_COMPILED_TABLES = (
    "a06bcd07c89df5457a67b19c3fb002c8d49d04048494f1d4d3384afe3b031f2d"
)


def _predictor(max_vm=6, max_sl=6, n_estimators=10, seed=3, **kwargs):
    predictor = WorkloadPredictor(
        AWS_PROFILE,
        AWS_PRICES,
        max_vm=max_vm,
        max_sl=max_sl,
        n_estimators=n_estimators,
        rng=seed,
        **kwargs,
    )
    rng = np.random.default_rng(seed)
    n_vm = rng.integers(1, max_vm + 1, 80)
    n_sl = rng.integers(0, max_sl + 1, 80)
    features = FeatureVector.build_matrix(
        n_vm=n_vm.astype(float),
        n_sl=n_sl.astype(float),
        input_size_gb=50.0,
        start_time_epoch=100.0,
        historical_duration_s=90.0,
    )
    targets = 600.0 / (n_vm + n_sl) + rng.normal(0.0, 2.0, 80)
    predictor.fit(
        Dataset(features, targets, feature_names=FEATURE_NAMES), augment=False
    )
    return predictor


def _requests(count, waiting=None):
    return [
        PredictionRequest(
            query_id=f"q{i}",
            input_size_gb=40.0 + 3.0 * i,
            start_time_epoch=150.0 + 10.0 * i,
            historical_duration_s=80.0 + i,
            num_waiting_apps=i if waiting is None else waiting,
        )
        for i in range(count)
    ]


def _grid_pack(predictor, mode="hybrid"):
    candidates = predictor.candidate_grid(mode)
    column_values, scaled = FeatureVector.grid_columns(
        candidates[:, 0], candidates[:, 1]
    )
    return GridPack(predictor.forest.packed(), column_values, scaled)


def _constants_and_alphas(requests):
    constants = np.empty((len(requests), len(FEATURE_NAMES)))
    alphas = np.empty(len(requests))
    for i, request in enumerate(requests):
        constants[i] = FeatureVector.request_constant_row(
            input_size_gb=request.input_size_gb,
            start_time_epoch=request.start_time_epoch,
            historical_duration_s=request.historical_duration_s,
            num_waiting_apps=request.num_waiting_apps,
        )
        alphas[i] = FeatureVector.available_memory_scale(
            request.num_waiting_apps
        )
    return constants, alphas


class TestPackRows:
    def test_bit_layout(self):
        bits = np.zeros((1, 70), dtype=bool)
        bits[0, [0, 63, 64, 69]] = True
        words = _pack_rows(bits, 2)
        assert words.shape == (1, 2)
        assert words[0, 0] == (1 << 0) | (1 << 63)
        assert words[0, 1] == (1 << 0) | (1 << 5)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        bits = rng.random((5, 130)) < 0.5
        words = _pack_rows(bits, 3)
        unpacked = (
            (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & 1
        ).astype(bool).reshape(5, 192)[:, :130]
        assert np.array_equal(unpacked, bits)


@pytest.mark.skipif(
    not GridPack.available(), reason="native grid kernel unavailable"
)
class TestGridPackDescent:
    def test_bitwise_identical_to_stacked_descent(self):
        predictor = _predictor()
        pack = predictor.forest.packed()
        grid = predictor.candidate_grid("hybrid")
        engine = _grid_pack(predictor)
        requests = _requests(7)
        constants, alphas = _constants_and_alphas(requests)
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas), pack.tree_matrix(stacked)
        )

    @pytest.mark.parametrize("mode", ["hybrid", "vm-only", "sl-only"])
    def test_all_modes(self, mode):
        predictor = _predictor()
        grid = predictor.candidate_grid(mode)
        engine = _grid_pack(predictor, mode)
        requests = _requests(3)
        constants, alphas = _constants_and_alphas(requests)
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas),
            predictor.forest.packed().tree_matrix(stacked),
        )

    def test_saturated_waiting_apps_alpha_zero(self):
        # 20+ waiting apps drive the available-memory scale to exactly 0,
        # collapsing the scaled ladder to a flat line of zeros.
        predictor = _predictor()
        grid = predictor.candidate_grid("hybrid")
        engine = _grid_pack(predictor)
        requests = _requests(3, waiting=25)
        constants, alphas = _constants_and_alphas(requests)
        assert float(alphas[0]) == 0.0
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas),
            predictor.forest.packed().tree_matrix(stacked),
        )

    def test_single_request(self):
        predictor = _predictor()
        grid = predictor.candidate_grid("hybrid")
        engine = _grid_pack(predictor)
        (request,) = _requests(1)
        constants, alphas = _constants_and_alphas([request])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas),
            predictor.forest.packed().tree_matrix(request.feature_matrix(grid)),
        )

    def test_empty_request_batch(self):
        predictor = _predictor()
        engine = _grid_pack(predictor)
        out = engine.tree_matrix(
            np.empty((0, len(FEATURE_NAMES))), np.empty(0)
        )
        assert out.shape == (engine.n_trees, 0)

    def test_wide_grid_multiple_words(self):
        # 18x18 = 360 candidates -> 6 words, exercising the generic
        # (non-constant-folded) word loop.
        predictor = _predictor(max_vm=18, max_sl=18)
        grid = predictor.candidate_grid("hybrid")
        assert grid.shape[0] > 256
        engine = _grid_pack(predictor)
        requests = _requests(2)
        constants, alphas = _constants_and_alphas(requests)
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas),
            predictor.forest.packed().tree_matrix(stacked),
        )

    def test_request_count_mismatch_rejected(self):
        predictor = _predictor()
        engine = _grid_pack(predictor)
        with pytest.raises(ValueError):
            engine.tree_matrix(np.zeros((2, len(FEATURE_NAMES))), np.zeros(3))


@pytest.mark.skipif(
    not GridPack.available(), reason="native grid kernel unavailable"
)
class TestReachPruning:
    """Reach-based collapse of degenerate static-mask nodes.

    Mode-restricted grids pin an axis (vm-only fixes ``n_sl = 0``), so
    every static split on the fixed axis routes all reachable rows one
    way and must be collapsed at compile time -- with outputs that stay
    bitwise identical to the uncollapsed stacked descent.
    """

    def test_restricted_grids_collapse_and_match(self):
        predictor = _predictor()
        pack = predictor.forest.packed()
        for mode in ("vm-only", "sl-only"):
            grid = predictor.candidate_grid(mode)
            engine = _grid_pack(predictor, mode)
            assert engine.n_collapsed > 0
            assert (
                engine.n_static + engine.n_collapsed
                == engine.n_static_compiled
            )
            requests = _requests(5)
            constants, alphas = _constants_and_alphas(requests)
            stacked = np.vstack([r.feature_matrix(grid) for r in requests])
            assert np.array_equal(
                engine.tree_matrix(constants, alphas),
                pack.tree_matrix(stacked),
            )

    def test_single_row_grid_collapses_every_static_node(self):
        # One candidate row leaves no static split anything to separate:
        # the whole static table must collapse away.
        predictor = _predictor()
        pack = predictor.forest.packed()
        grid = predictor.candidate_grid("hybrid")[:1]
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        engine = GridPack(pack, values, scaled)
        assert engine.n_static == 0
        assert engine.n_collapsed == engine.n_static_compiled
        requests = _requests(4)
        constants, alphas = _constants_and_alphas(requests)
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas), pack.tree_matrix(stacked)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_rows=st.integers(min_value=1, max_value=12),
        mode=st.sampled_from(["hybrid", "vm-only", "sl-only"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_subgrids_bitwise_exact(self, seed, n_rows, mode):
        # For ANY row subset of any mode's grid -- the harder the
        # restriction, the more reach-degenerate nodes -- the collapsed
        # engine equals the stacked descent exactly.
        predictor = _predictor()
        pack = predictor.forest.packed()
        full = predictor.candidate_grid(mode)
        rng = np.random.default_rng(seed)
        size = min(n_rows, full.shape[0])
        grid = full[rng.choice(full.shape[0], size=size, replace=False)]
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        engine = GridPack(pack, values, scaled)
        requests = _requests(3)
        constants, alphas = _constants_and_alphas(requests)
        stacked = np.vstack([r.feature_matrix(grid) for r in requests])
        assert np.array_equal(
            engine.tree_matrix(constants, alphas), pack.tree_matrix(stacked)
        )


class TestGridPackValidation:
    def test_two_scaled_columns_rejected(self):
        predictor = _predictor()
        pack = predictor.forest.packed()
        grid = predictor.candidate_grid("hybrid")
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        scaled[6] = grid[:, 0]
        with pytest.raises(ValueError):
            GridPack(pack, values, scaled)

    def test_overlapping_columns_rejected(self):
        predictor = _predictor()
        pack = predictor.forest.packed()
        grid = predictor.candidate_grid("hybrid")
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        values[next(iter(scaled))] = grid[:, 0]
        with pytest.raises(ValueError):
            GridPack(pack, values, scaled)

    def test_mismatched_lengths_rejected(self):
        predictor = _predictor()
        pack = predictor.forest.packed()
        grid = predictor.candidate_grid("hybrid")
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        values[0] = values[0][:-1]
        with pytest.raises(ValueError):
            GridPack(pack, values, scaled)


class TestPredictorIntegration:
    def test_grid_engine_memoized_per_model_version(self):
        predictor = _predictor()
        requests = _requests(2)
        predictor.determine_batch(requests)
        first = predictor._grid_engine("hybrid")
        assert predictor._grid_engine("hybrid") is first
        # Retraining moves the model version and recompiles lazily.
        rng = np.random.default_rng(11)
        n_vm = rng.integers(1, 7, 40)
        n_sl = rng.integers(0, 7, 40)
        features = FeatureVector.build_matrix(
            n_vm=n_vm.astype(float),
            n_sl=n_sl.astype(float),
            input_size_gb=50.0,
            start_time_epoch=300.0,
            historical_duration_s=90.0,
        )
        predictor.fit(
            Dataset(
                features, 300.0 / (n_vm + n_sl), feature_names=FEATURE_NAMES
            ),
            augment=False,
        )
        second = predictor._grid_engine("hybrid")
        if first is not None:
            assert second is not first

    def test_determine_batch_matches_stacked_fallback(self, monkeypatch):
        # The decisions produced with the grid engine must equal the
        # stacked-descent fallback bit for bit, knob or not.
        results = {}
        for disabled in (False, True):
            predictor = _predictor()
            if disabled:
                monkeypatch.setattr(
                    "repro.ml.grid_inference.GridPack.available",
                    staticmethod(lambda: False),
                )
            decisions = predictor.determine_batch(_requests(6), knob=0.25)
            results[disabled] = [
                (d.n_vm, d.n_sl, d.predicted_seconds, d.estimated_cost)
                for d in decisions
            ]
            monkeypatch.undo()
        assert results[False] == results[True]

    def test_concurrent_determines_on_one_predictor(self):
        # Threads share one predictor and so one cached grid engine.
        # Every decision's Estimated Time list must read its own
        # request's forest pass, as a serial run computes it.
        predictor = trained_predictor(8, 8, seed=5)
        requests = [
            PredictionRequest(
                query_id=f"q{i}",
                input_size_gb=(8.0, 16.0, 32.0, 100.0)[i % 4],
                start_time_epoch=1.7e9 + 900.0 * i,
                historical_duration_s=60.0 + 55.0 * i,
                num_waiting_apps=i,
            )
            for i in range(6)
        ]
        candidates = predictor.candidate_grid("hybrid")
        row_of = {tuple(point): row for row, point in enumerate(candidates.tolist())}
        expected = [
            predictor._grid_tree_matrix([request], "hybrid", candidates)
            for request in requests
        ]
        # Distinct requests, so a pass that read another's inputs shows.
        assert len({trees.tobytes() for trees in expected}) == len(requests)
        start = threading.Barrier(len(requests))

        def size(index):
            start.wait()
            return [predictor.determine(requests[index]) for _ in range(25)]

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            outcomes = list(pool.map(size, range(len(requests))))
        for trees, decisions in zip(expected, outcomes):
            for decision in decisions:
                rows = [
                    row_of[tuple(point)]
                    for point in decision.grid.candidates.tolist()
                ]
                assert np.array_equal(
                    decision.grid.seconds, trees.take(rows, axis=1).mean(axis=0)
                )


def _suite_model(query_classes):
    """The served model of the serving benchmark suite (fixed seed)."""
    system = Smartpick(
        SmartpickProperties(
            provider="AWS",
            relay=True,
            error_difference_trigger=1e9,
            history_window=256,
        ),
        max_vm=8,
        max_sl=8,
        rng=1207,
    )
    system.bootstrap(
        [get_query(query_id, input_gb=16.0) for query_id in query_classes],
        n_configs_per_query=4,
    )
    return system.predictor


def _compiled_tables_digest() -> str:
    """SHA-256 over every table the reach-based collapse shapes.

    Covers the small test forest (every mode, plus random row subsets
    down to one row), the golden-sweep forests with quota caps, and the
    serving suite's model on each grid its workloads size.
    """
    digest = hashlib.sha256()

    def update(predictor, grid):
        values, scaled = FeatureVector.grid_columns(grid[:, 0], grid[:, 1])
        engine = GridPack(predictor.forest.packed(), values, scaled)
        digest.update(engine._table.tobytes())
        digest.update(engine._static_masks.tobytes())
        digest.update(engine._branch_thresholds.tobytes())
        digest.update(repr(engine._branch_groups).encode())
        digest.update(repr((engine.n_collapsed, engine.n_branch)).encode())

    small = _predictor()
    rng = np.random.default_rng(17)
    for mode in ("hybrid", "vm-only", "sl-only"):
        full = small.candidate_grid(mode)
        update(small, full)
        for size in (1, 2, 5, 12):
            size = min(size, full.shape[0])
            update(small, full[rng.choice(full.shape[0], size, replace=False)])
    for bound, seed in ((8, 5), (12, 9)):
        predictor = trained_predictor(bound, bound, seed)
        for mode, caps in (
            ("hybrid", (None, None)),
            ("hybrid", (3, 5)),
            ("vm-only", (None, None)),
            ("sl-only", (2, 2)),
        ):
            update(predictor, predictor.candidate_grid(mode, *caps))
    short = ("uniform-1x1s", "uniform-2x1s", "uniform-2x2s", "uniform-4x1s")
    wide = ("uniform-2x1s", "uniform-4x1s", "uniform-4x2s", "uniform-8x1s")
    for classes, modes in ((short, ("vm-only", "hybrid")), (wide, ("hybrid",))):
        predictor = _suite_model(classes)
        for mode in modes:
            update(predictor, predictor.candidate_grid(mode))
    return digest.hexdigest()


def test_compiled_tables_match_golden():
    assert _compiled_tables_digest() == GOLDEN_COMPILED_TABLES


if __name__ == "__main__":
    print(_compiled_tables_digest())
