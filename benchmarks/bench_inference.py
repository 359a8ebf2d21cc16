"""Prediction hot-path benchmark: array-native decisions + micro-batching.

The Workload Predictor sits inline on every query arrival, so its
RF + BO decision latency bounds serving throughput.  This bench measures
the inference shapes that dominate serving -- a single predict, a full
13x13 grid sizing, ``submit_many`` over a bursty arrival batch, the
fresh-request ``determine_batch`` decision pipeline (grid-compiled
descent + array-form Eq. 4 against the PR 2 object pipeline), and
micro-batched trace serving -- plus the Gaussian Process rank-1 Cholesky
update against full refits, the fused Matern 5/2 kernel build, and the
solo ``determine`` BO loop (one forest pass, a cached candidate Gram and
the incremental candidate-set posterior) against a per-probe reference
loop.

Results are printed and merged into ``BENCH_inference.json`` (repo root
by default) under a per-``(engine, mode)`` slot, so the committed file
carries the native and numpy-fallback trajectories for both full and
``--quick`` workloads; see the README "Performance" section for the
schema.  ``benchmarks/check_bench_regression.py`` compares a fresh run
against the committed slots in CI.

Run it standalone (the CI smoke job uses ``--quick``, which shrinks the
workload and skips the perf assertions while keeping every correctness
assertion)::

    PYTHONPATH=src python benchmarks/bench_inference.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import Smartpick, SmartpickProperties  # noqa: E402
from repro.cloud.pricing import get_prices  # noqa: E402
from repro.cloud.providers import get_provider  # noqa: E402
from repro.core.features import FEATURE_NAMES, FeatureVector  # noqa: E402
from repro.core.predictor import PredictionRequest, WorkloadPredictor  # noqa: E402
from repro.cloud.pool import PoolConfig  # noqa: E402
from repro.core.serving import ServingSimulator  # noqa: E402
from repro.core.tradeoff import (  # noqa: E402
    DecisionGrid,
    EstimatedTimeEntry,
    select_with_knob,
)
from repro.ml.dataset import Dataset  # noqa: E402
from repro.ml import forest_native  # noqa: E402
from repro.ml.bayesian_optimizer import BayesianOptimizer  # noqa: E402
from repro.ml.forest_native import kernel_name  # noqa: E402
from repro.ml.gaussian_process import GaussianProcessRegressor  # noqa: E402
from repro.ml.kernels import Matern52Kernel  # noqa: E402
from repro.ml.random_forest import RandomForestRegressor  # noqa: E402
from repro.workloads import get_query  # noqa: E402
from repro.workloads.trace import (  # noqa: E402
    PoissonTraceGenerator,
    TraceEvent,
    WorkloadTrace,
)

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_inference.json"
)


def best_of(function, repeats: int) -> float:
    """Minimum wall seconds over ``repeats`` calls (noise-robust)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return min(samples)


def build_predictor(n_trees: int, rng_seed: int = 11) -> WorkloadPredictor:
    """A trained predictor shaped like the paper's (100 trees, 13x13 grid).

    The training set mimics bootstrap output: random ``{nVM, nSL}``
    configurations with a parallelism-curve duration law, run through the
    usual ~10x data-burst augmentation.
    """
    rng = np.random.default_rng(rng_seed)
    predictor = WorkloadPredictor(
        provider=get_provider("AWS"),
        prices=get_prices("AWS"),
        max_vm=12,
        max_sl=12,
        n_estimators=n_trees,
        rng=rng_seed,
    )
    n_samples = 120
    n_vm = rng.integers(0, 13, n_samples)
    n_sl = rng.integers(0, 13, n_samples)
    n_vm = np.where(n_vm + n_sl == 0, 1, n_vm)
    workers = n_vm + n_sl
    durations = 900.0 / workers + 25.0 + rng.normal(0.0, 4.0, n_samples)
    features = FeatureVector.build_matrix(
        n_vm=n_vm.astype(np.float64),
        n_sl=n_sl.astype(np.float64),
        input_size_gb=100.0,
        start_time_epoch=1000.0,
        historical_duration_s=120.0,
    )
    dataset = Dataset(features, durations, feature_names=FEATURE_NAMES)
    predictor.fit(dataset, augment=True)
    return predictor


def bench_forest(predictor: WorkloadPredictor, n_queries: int, repeats: int) -> dict:
    """Single / grid / batched forest predict: packed vs per-tree loop."""
    forest = predictor.forest
    grid = predictor.candidate_grid("hybrid")
    requests = [
        PredictionRequest(
            query_id=f"q{i}",
            input_size_gb=80.0 + 5.0 * i,
            start_time_epoch=2000.0 + i,
            historical_duration_s=110.0 + i,
            num_waiting_apps=i,
        )
        for i in range(n_queries)
    ]
    single = requests[0].feature_matrix(grid[:1])
    one_grid = requests[0].feature_matrix(grid)
    stacked = np.vstack([request.feature_matrix(grid) for request in requests])

    def loop_predict(matrix):
        return forest._tree_matrix_loop(matrix).mean(axis=0)

    sections = {}
    for name, matrix, reps in (
        ("single_predict", single, repeats * 10),
        ("grid_sizing", one_grid, repeats * 2),
        ("batched_predict", stacked, repeats),
    ):
        packed = forest.predict(matrix)
        loop = loop_predict(matrix)
        identical = bool(np.array_equal(packed, loop))
        assert identical, f"{name}: packed and per-tree predictions diverge"
        packed_s = best_of(lambda m=matrix: forest.predict(m), reps)
        loop_s = best_of(lambda m=matrix: loop_predict(m), max(reps // 2, 2))
        sections[name] = {
            "rows": int(matrix.shape[0]),
            "loop_ms": loop_s * 1e3,
            "packed_ms": packed_s * 1e3,
            "speedup": loop_s / packed_s,
            "identical": identical,
        }
    return sections


class _FullRefitGP(GaussianProcessRegressor):
    """The seed behaviour: every new observation refactors from scratch."""

    def add_observation(self, point, target):  # noqa: D102
        point = np.atleast_2d(np.asarray(point, dtype=np.float64))
        if self._train_points is None:
            self.fit(point, np.array([target]))
            return
        self._train_points = np.vstack([self._train_points, point])
        self._train_targets = np.append(self._train_targets, float(target))
        if self.normalize_targets:
            self._target_mean = float(self._train_targets.mean())
            std = float(self._train_targets.std())
            self._target_std = std if std > 1e-12 else 1.0
        self._refactor()


def bench_gp(n_points: int) -> dict:
    """Rank-1 Cholesky extension vs full refits over a BO-like run."""
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 12.0, size=(n_points, 2))
    values = -(900.0 / (1.0 + points.sum(axis=1))) + rng.normal(0.0, 1.0, n_points)
    probes = rng.uniform(0.0, 12.0, size=(64, 2))

    def run(gp_class):
        gp = gp_class(kernel=Matern52Kernel(length_scale=4.0), noise=1e-2)
        started = time.perf_counter()
        for point, value in zip(points, values):
            gp.add_observation(point, value)
        elapsed = time.perf_counter() - started
        mean, std = gp.predict(probes, return_std=True)
        return elapsed, mean, std

    rank1_s, rank1_mean, rank1_std = run(GaussianProcessRegressor)
    full_s, full_mean, full_std = run(_FullRefitGP)
    max_diff = float(
        max(np.abs(rank1_mean - full_mean).max(), np.abs(rank1_std - full_std).max())
    )
    assert max_diff < 1e-8, f"rank-1 GP drifted from full refits: {max_diff:.2e}"
    return {
        "n_observations": n_points,
        "full_refit_ms": full_s * 1e3,
        "rank1_ms": rank1_s * 1e3,
        "speedup": full_s / rank1_s,
        "max_abs_diff": max_diff,
    }


class _RowGaussianProcess:
    """The optimizer's surrogate interface over a generic GP conditioned on
    candidate rows, building the Matern kernel on every update."""

    def __init__(self, candidates, length_scale):  # noqa: D107
        self._candidates = candidates
        self._gp = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale), noise=1e-2
        )

    def observe(self, index, value):  # noqa: D102
        self._gp.add_observation(self._candidates[index], value)

    def predict(self, indices):  # noqa: D102
        return self._gp.predict(self._candidates[indices], return_std=True)


class _PerProbeOptimizer(BayesianOptimizer):
    """Conditions a generic GP on candidate rows, building the kernel on
    every update -- the optimizer before its cached Gram and candidate
    posterior."""

    def __init__(self, *args, **kwargs):  # noqa: D107
        super().__init__(*args, **kwargs)
        self._surrogate = _RowGaussianProcess(
            self.candidates, self._default_length_scale(self.candidates)
        )


def _per_probe_determine(
    predictor: WorkloadPredictor,
    request: PredictionRequest,
    max_vm: int,
    max_sl: int,
    knob: float = 0.0,
) -> tuple:
    """Solo ``determine`` as a per-probe loop: one forest call per probe,
    a kernel build per surrogate update, a batched re-predict of the
    probes.  Returns what the bench compares against ``determine``."""
    candidates = predictor.candidate_grid("hybrid", max_vm=max_vm, max_sl=max_sl)

    def objective(point):
        predicted = predictor.predict_duration(
            request.feature_vector(int(point[0]), int(point[1]))
        )
        delta = predictor._rng.normal(0.0, 0.01 * max(predicted, 1.0))
        return -(predicted + delta)

    result = _PerProbeOptimizer(
        objective=objective,
        candidates=candidates,
        acquisition=predictor.acquisition,
        n_initial=min(4, candidates.shape[0]),
        improvement_threshold=predictor.bo_improvement_threshold,
        patience=predictor.bo_patience,
        rng=predictor._rng,
    ).maximize(max_iterations=60)
    points = np.array(
        [probe.point for probe in result.history] + [result.best_point]
    )
    seconds = predictor.predict_durations(request.feature_matrix(points))
    costs = predictor.estimate_costs(seconds, points)
    grid = DecisionGrid(points[:-1], seconds[:-1], costs[:-1])
    index = grid.select_index_with_knob(float(seconds[-1]), float(costs[-1]), knob)
    chosen = len(grid) if index is None else index
    return (
        tuple(np.vstack([grid.candidates, points[-1:]])[chosen]),
        float(seconds[-1]),
        result.n_evaluations,
        result.converged,
        _grid_bytes(grid),
    )


def _grid_bytes(grid: DecisionGrid) -> bytes:
    return grid.candidates.tobytes() + grid.seconds.tobytes() + grid.costs.tobytes()


def _decision_signature(decision) -> tuple:
    return (
        (float(decision.n_vm), float(decision.n_sl)),
        decision.best_entry.estimated_seconds,
        decision.n_evaluations,
        decision.converged,
        _grid_bytes(decision.grid),
    )


def _native_bo_searches(run):
    """``run()``'s result and how many native BO searches it made."""
    kernel = forest_native.load_kernel()
    if kernel is None or kernel.bo_search is None:
        return run(), 0
    searches = 0
    bo_search = kernel.bo_search

    def counted(*args):
        nonlocal searches
        searches += 1
        return bo_search(*args)

    kernel.bo_search = counted
    try:
        return run(), searches
    finally:
        kernel.bo_search = bo_search


def bench_solo_determine(
    predictor: WorkloadPredictor, n_queries: int, repeats: int
) -> dict:
    """Solo ``determine`` on the 9x9 and 13x13 hybrid grids: the
    table-driven BO loop vs the per-probe reference, decisions (and the
    generator's end state) asserted bitwise equal first.  The surrogates
    agree to rounding only, so equality holds while no acquisition score
    sits in a near-tie at PI's saturation (see the matching property in
    ``tests/test_properties.py``).  With the native kernel loaded the
    table-driven loop must run as the native BO search, so a silent fall
    back to the Python loop fails the bench."""
    requests = [
        PredictionRequest(
            query_id=f"q{i}",
            input_size_gb=80.0 + 5.0 * i,
            start_time_epoch=2000.0 + i,
            historical_duration_s=110.0 + i,
            num_waiting_apps=i,
        )
        for i in range(n_queries)
    ]
    sections = {}
    for name, bound in (("grid_9x9", 8), ("grid_13x13", 12)):

        def table_driven():
            return [
                _decision_signature(
                    predictor.determine(request, max_vm=bound, max_sl=bound)
                )
                for request in requests
            ]

        def per_probe():
            return [
                _per_probe_determine(predictor, request, bound, bound)
                for request in requests
            ]

        state = predictor._rng.bit_generator.state
        table, native_searches = _native_bo_searches(table_driven)
        if forest_native.load_kernel() is not None:
            assert native_searches > 0, (
                f"solo_determine {name}: the native BO search never ran"
            )
        table_state = predictor._rng.bit_generator.state
        predictor._rng.bit_generator.state = state
        reference = per_probe()
        identical = (
            table == reference
            and predictor._rng.bit_generator.state == table_state
        )
        assert identical, f"solo_determine {name}: decisions diverged"
        table_s = best_of(table_driven, repeats)
        reference_s = best_of(per_probe, repeats)
        sections[name] = {
            "per_probe_ms": reference_s * 1e3 / n_queries,
            "table_ms": table_s * 1e3 / n_queries,
            "determine_speedup": reference_s / table_s,
            "identical": identical,
        }
    sections["n_requests"] = n_queries
    return sections


def bench_submit_many(n_arrivals: int, quick: bool) -> dict:
    """End-to-end ``submit_many`` on a bursty arrival batch.

    Two identically-seeded systems serve the same queued batch; one has
    the forest's packed engine swapped back to the per-tree loop.  The
    engines predict bitwise-identically, so the decisions and simulated
    executions match exactly and the measured difference is pure
    inference time.
    """
    trace = PoissonTraceGenerator(
        query_mix={"tpcds-q82": 3.0, "tpcds-q68": 2.0, "tpcds-q49": 1.0},
        rate_per_minute=4.0,
        burst_factor=5.0,
        burst_fraction=0.3,
        input_gb=100.0,
        rng=7,
    ).generate(duration_minutes=60.0)
    queued = [
        get_query(event.query_id, input_gb=event.input_gb)
        for event in trace.events[:n_arrivals]
    ]

    def build_system() -> Smartpick:
        system = Smartpick(
            SmartpickProperties(
                provider="AWS", relay=True, error_difference_trigger=1e9
            ),
            max_vm=12,
            max_sl=12,
            rng=303,
        )
        system.bootstrap(
            [get_query(query_id) for query_id in ("tpcds-q82", "tpcds-q68")],
            n_configs_per_query=6 if quick else 10,
        )
        return system

    def serve(system: Smartpick, n_batches: int = 3):
        """Serve the batch repeatedly; per-batch minima damp timer noise.

        Both engines predict bitwise-identically, so the systems evolve
        through identical states batch after batch and stay comparable.
        """
        walls, decides, predicted = [], [], []
        for _ in range(n_batches):
            started = time.perf_counter()
            outcomes = system.submit_many(queued)
            walls.append(time.perf_counter() - started)
            decides.append(
                sum(outcome.decision.inference_seconds for outcome in outcomes)
            )
            predicted.append(
                [outcome.predicted_seconds for outcome in outcomes]
            )
        return min(walls), min(decides), predicted

    packed_wall, packed_decide, packed_predicted = serve(build_system())
    # The loop leg must take the seed path end to end: per-tree Python
    # descent AND no grid-compiled engine (determine_batch would
    # otherwise bypass tree_matrix entirely).
    from repro.ml.grid_inference import GridPack

    original = RandomForestRegressor.tree_matrix
    original_available = GridPack.available
    RandomForestRegressor.tree_matrix = RandomForestRegressor._tree_matrix_loop
    GridPack.available = staticmethod(lambda: False)
    try:
        loop_wall, loop_decide, loop_predicted = serve(build_system())
    finally:
        RandomForestRegressor.tree_matrix = original
        GridPack.available = staticmethod(original_available)
    assert packed_predicted == loop_predicted, "engines disagreed end-to-end"

    return {
        "n_arrivals": len(queued),
        "loop_wall_ms": loop_wall * 1e3,
        "packed_wall_ms": packed_wall * 1e3,
        "loop_decision_ms": loop_decide * 1e3,
        "packed_decision_ms": packed_decide * 1e3,
        "decision_speedup": loop_decide / packed_decide,
        "identical_decisions": True,
    }


def _object_path_decisions(
    predictor: WorkloadPredictor,
    requests: list[PredictionRequest],
    knob: float = 0.0,
) -> list[tuple[int, int]]:
    """The PR 2 fresh-request pipeline: stacked descent + ET objects.

    Kept verbatim as the reference the array-native ``determine_batch``
    must match decision-for-decision: one stacked forest pass, then a
    169-object Estimated Time list, ``min``-scan and object-list Eq. 4
    per request.
    """
    candidates = predictor.candidate_grid("hybrid")
    grid_size = candidates.shape[0]
    stacked = np.vstack(
        [request.feature_matrix(candidates) for request in requests]
    )
    estimates = predictor.predict_durations(stacked)
    decisions = []
    for index in range(len(requests)):
        block = estimates[index * grid_size : (index + 1) * grid_size]
        costs = predictor.estimate_costs(block, candidates)
        et_list = [
            EstimatedTimeEntry(
                n_vm=int(point[0]),
                n_sl=int(point[1]),
                estimated_seconds=float(t_est),
                estimated_cost=float(cost),
            )
            for point, t_est, cost in zip(candidates, block, costs)
        ]
        best = min(et_list, key=lambda e: e.estimated_seconds)
        chosen = select_with_knob(et_list, best, knob)
        decisions.append(chosen.config)
    return decisions


def bench_decision_pipeline(
    predictor: WorkloadPredictor,
    n_queries: int,
    repeats: int,
    previous: dict | None,
    forest_reference_ms: float,
    strict: bool,
) -> dict:
    """Fresh-request ``determine_batch``: array-native vs object pipeline.

    Every call is a full grid pass -- the path a never-seen query pays
    at arrival.

    The trajectory against the committed baseline is a ratio of
    *same-machine* ratios: each run's cold time is first normalised by
    its own batched forest-pass time (``batched_predict.packed_ms``, the
    same 32x168 workload), because raw milliseconds do not transfer
    across machines but ratios do.
    """
    requests = [
        PredictionRequest(
            query_id=f"q{i}",
            input_size_gb=80.0 + 5.0 * i,
            start_time_epoch=2000.0 + i,
            historical_duration_s=110.0 + i,
            num_waiting_apps=i,
        )
        for i in range(n_queries)
    ]

    for knob in (0.0, 0.3):
        array_configs = [
            d.config for d in predictor.determine_batch(requests, knob=knob)
        ]
        object_configs = _object_path_decisions(predictor, requests, knob)
        assert array_configs == object_configs, (
            f"decision_pipeline: array-native and object decisions "
            f"diverged at knob={knob}"
        )

    array_s = best_of(lambda: predictor.determine_batch(requests), repeats)
    object_s = best_of(
        lambda: _object_path_decisions(predictor, requests), repeats
    )
    section = {
        "n_requests": n_queries,
        "object_path_ms": object_s * 1e3,
        "cold_ms": array_s * 1e3,
        "speedup": object_s / array_s,
        "identical_decisions": True,
    }
    previous_results = (previous or {}).get("results", {})
    previous_cold = previous_results.get("decision_pipeline", {}).get("cold_ms")
    previous_forest = previous_results.get("batched_predict", {}).get(
        "packed_ms"
    )
    if previous_cold is not None and previous_forest:
        section["previous_cold_ms"] = previous_cold
        section["previous_forest_pass_ms"] = previous_forest
        section["speedup_vs_previous"] = (previous_cold / previous_forest) / (
            section["cold_ms"] / forest_reference_ms
        )
    if strict:
        assert section["speedup"] >= 3.0, (
            "acceptance: the array-native fresh-request determine_batch "
            "path must be >= 3x the object pipeline, measured "
            f"{section['speedup']:.1f}x"
        )
    return section


def bench_matern_build(n_points: int, repeats: int) -> dict:
    """Vectorised (fused, in-place) Matern 5/2 Gram build vs scalar loop."""
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 12.0, size=(n_points, 2))
    kernel = Matern52Kernel(length_scale=4.0)

    vectorized = kernel(points, points)
    # Bitwise check against the naive (temporary-per-step) expression the
    # fused evaluation replaced.
    a_sq = np.sum(points * points, axis=1)[:, None]
    distances = a_sq + a_sq.T - 2.0 * (points @ points.T)
    np.maximum(distances, 0.0, out=distances)
    scaled = np.sqrt(5.0) * np.sqrt(distances) / kernel.length_scale
    naive = (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)
    assert np.array_equal(vectorized, naive), (
        "fused Matern build drifted from the naive expression"
    )

    def scalar_loop():
        out = np.empty((n_points, n_points))
        root5 = math.sqrt(5.0)
        for i in range(n_points):
            for j in range(n_points):
                distance = math.dist(points[i], points[j])
                s = root5 * distance / kernel.length_scale
                out[i, j] = (1.0 + s + s * s / 3.0) * math.exp(-s)
        return out

    loop = scalar_loop()
    max_diff = float(np.abs(vectorized - naive).max())
    loop_diff = float(np.abs(vectorized - loop).max())
    assert loop_diff < 1e-9, f"vectorised Matern drifted from scalars: {loop_diff:.2e}"
    vector_s = best_of(lambda: kernel(points, points), repeats * 2)
    loop_s = best_of(scalar_loop, 2)
    section = {
        "n_points": n_points,
        "engine": forest_native.kernel_name(),
        "scalar_loop_ms": loop_s * 1e3,
        "vectorized_ms": vector_s * 1e3,
        "speedup": loop_s / vector_s,
        "max_abs_diff_naive": max_diff,
        "max_abs_diff_scalar": loop_diff,
    }
    # The ctypes Gram-build kernel (one fused C pass up to the exp) must
    # be bitwise identical to the numpy fallback it accelerates.
    if forest_native.load_kernel() is not None:
        fallback = kernel._gram_numpy(points, points)
        assert np.array_equal(vectorized, fallback), (
            "native Matern Gram build drifted from the numpy fallback"
        )
        fallback_s = best_of(
            lambda: kernel._gram_numpy(points, points), repeats * 2
        )
        section["numpy_fallback_ms"] = fallback_s * 1e3
        section["native_speedup"] = fallback_s / vector_s
    return section


def bench_batched_serving(quick: bool) -> dict:
    """Micro-batched trace serving: coalesced sizing vs solo decisions.

    A bursty trace is replayed twice through identically-seeded systems:
    once with a coalescing window (nearby arrivals share one vectorized
    ``determine_batch`` pass) and once with coalescing disabled (every
    arrival decided alone through the BO path).  The execution outcomes
    legitimately differ -- coalesced groups get the exhaustive grid
    optimum -- so the comparison is decision *time*; outcome identity is
    asserted separately where it must hold (window 0, no same-tick
    arrivals).
    """
    n_minutes = 6.0 if quick else 12.0

    def build_system() -> Smartpick:
        system = Smartpick(
            SmartpickProperties(
                provider="AWS", relay=True, error_difference_trigger=1e9
            ),
            max_vm=12,
            max_sl=12,
            rng=404,
        )
        system.bootstrap(
            [get_query(query_id) for query_id in ("tpcds-q82", "tpcds-q68")],
            n_configs_per_query=6 if quick else 10,
        )
        return system

    trace = PoissonTraceGenerator(
        query_mix={"tpcds-q82": 3.0, "tpcds-q68": 1.0},
        rate_per_minute=20.0,
        burst_factor=4.0,
        burst_fraction=0.4,
        input_gb=100.0,
        rng=17,
    ).generate(duration_minutes=n_minutes)

    # The bursty trace overlaps hundreds of queries; size the shared
    # pool explicitly so capacity queueing does not blur decision time.
    pool = PoolConfig(max_vms=4096, max_sls=8192)
    batched = ServingSimulator(
        build_system(),
        pool_config=pool,
        batch_window_s=5.0,
        decision_reuse=False,
    ).replay(trace)
    solo = ServingSimulator(
        build_system(),
        pool_config=pool,
        batch_window_s=None,
        decision_reuse=False,
    ).replay(trace)
    assert batched.batched_decision_rate > 0.0, (
        "acceptance: the bursty replay must coalesce some arrivals"
    )

    # Acceptance: with window 0 and no same-tick arrivals, outcomes are
    # identical to the unbatched replay.
    sparse = WorkloadTrace(
        events=tuple(
            TraceEvent(40.0 * index, "tpcds-q82") for index in range(6)
        )
    )
    exact = ServingSimulator(
        build_system(), batch_window_s=0.0, decision_reuse=False
    ).replay(sparse)
    none = ServingSimulator(
        build_system(), batch_window_s=None, decision_reuse=False
    ).replay(sparse)
    identical = (
        list(exact.latencies) == list(none.latencies)
        and [s.outcome.decision.config for s in exact.served]
        == [s.outcome.decision.config for s in none.served]
        and exact.total_cost_dollars == none.total_cost_dollars
    )
    assert identical, "window-0 replay diverged from the unbatched replay"

    return {
        "n_arrivals": batched.n_queries,
        "batched_decision_rate": batched.batched_decision_rate,
        "batched_decision_ms": batched.total_decision_seconds * 1e3,
        "solo_decision_ms": solo.total_decision_seconds * 1e3,
        "decision_speedup": (
            solo.total_decision_seconds / batched.total_decision_seconds
        ),
        "solo_replay_identical_at_window0": identical,
    }


def _load_json(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _baseline_slot(committed: dict | None, engine: str, quick: bool) -> dict | None:
    """The committed slot comparable to this run (same engine + mode)."""
    if committed is None:
        return None
    if committed.get("schema_version", 1) >= 2:
        mode = "quick" if quick else "full"
        return committed.get("engines", {}).get(engine, {}).get(mode)
    # Schema v1 (PR 2): one flat slot, engine/quick at the top level.
    if committed.get("engine") == engine and committed.get("quick") == quick:
        return {
            "config": committed.get("config"),
            "results": committed.get("results"),
        }
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload, correctness assertions only (CI smoke mode)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--baseline",
        default=DEFAULT_OUTPUT,
        help="committed BENCH file to report the perf trajectory against",
    )
    parser.add_argument(
        "--expect-engine",
        choices=("native-c", "numpy"),
        help="fail unless inference runs on this engine (CI uses it so a "
        "silently broken native build cannot masquerade as a numpy run)",
    )
    args = parser.parse_args(argv)

    n_trees = 25 if args.quick else 100
    n_queries = 8 if args.quick else 32
    repeats = 3 if args.quick else 7
    # Rank-1 GP updates win asymptotically (O(n^2) vs O(n^3)); below
    # ~60 observations LAPACK call overhead hides the difference, so the
    # bench sizes the run where the scaling is visible.
    gp_points = 120 if args.quick else 240
    engine = kernel_name()
    if args.expect_engine is not None and engine != args.expect_engine:
        print(
            f"expected engine {args.expect_engine!r} but inference would "
            f"run on {engine!r} (native kernel build failed?)"
        )
        return 1
    baseline = _baseline_slot(
        _load_json(os.path.abspath(args.baseline)), engine, args.quick
    )

    print(f"inference bench (engine={engine}, quick={args.quick})")
    print(f"forest: {n_trees} trees, grid 13x13, batch {n_queries} queries")

    predictor = build_predictor(n_trees)
    results = bench_forest(predictor, n_queries, repeats)
    results["gp_update"] = bench_gp(gp_points)
    results["gp_update"]["matern_build"] = bench_matern_build(
        gp_points, repeats
    )
    results["decision_pipeline"] = bench_decision_pipeline(
        predictor,
        n_queries,
        repeats,
        baseline,
        forest_reference_ms=results["batched_predict"]["packed_ms"],
        strict=not args.quick and engine == "native-c",
    )
    results["solo_determine"] = bench_solo_determine(predictor, n_queries, repeats)
    results["submit_many"] = bench_submit_many(n_queries, args.quick)
    results["batched_serving"] = bench_batched_serving(args.quick)

    for name, row in results.items():
        metrics = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in row.items()
            if not isinstance(value, dict)
        )
        print(f"  {name}: {metrics}")
        for sub_name, sub_row in row.items():
            if isinstance(sub_row, dict):
                metrics = ", ".join(
                    f"{key}={value:.3f}"
                    if isinstance(value, float)
                    else f"{key}={value}"
                    for key, value in sub_row.items()
                )
                print(f"    {name}.{sub_name}: {metrics}")

    if not args.quick and engine == "native-c":
        batched = results["batched_predict"]
        assert batched["speedup"] >= 5.0, (
            "acceptance: packed batched predict must be >= 5x the per-tree "
            f"loop, measured {batched['speedup']:.1f}x"
        )
        pipeline = results["decision_pipeline"]
        print(
            f"acceptance ok: batched predict {batched['speedup']:.1f}x "
            f"(>= 5x, bitwise identical); fresh-request decisions "
            f"{pipeline['speedup']:.1f}x the object pipeline"
            + (
                f", {pipeline['speedup_vs_previous']:.1f}x the committed "
                "cold path (normalised by each run's forest pass)"
                if "speedup_vs_previous" in pipeline
                else ""
            )
        )

    # Merge this run into its (engine, mode) slot so the committed file
    # accumulates all four trajectories.
    output = os.path.abspath(args.output)
    existing = _load_json(output)
    engines = (
        dict(existing.get("engines", {}))
        if existing and existing.get("schema_version", 1) >= 2
        else {}
    )
    engines.setdefault(engine, {})["quick" if args.quick else "full"] = {
        "config": {
            "n_trees": n_trees,
            "grid": "13x13",
            "n_queries": n_queries,
            "gp_points": gp_points,
        },
        "results": results,
    }
    payload = {
        "schema_version": 2,
        "bench": "inference",
        "engines": engines,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
