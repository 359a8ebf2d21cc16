"""The Workload Prediction module (WP): Random Forest + Bayesian Optimizer.

Section 3 of the paper: a decision-tree based Random Forest quantifies
query completion time from the Table 3 features (Eq. 1), and a Bayesian
Optimizer navigates the ``{nVM, nSL}`` search space by maximising
``-(RF_t + delta)`` (Eq. 2) with a Gaussian Process surrogate and the
Probability-of-Improvement acquisition, stopping when the estimate has not
improved by 1 % for 10 consecutive searches.

The candidate grid is fixed per mode and quota bounds, so the search is
table-driven: one forest pass at the start of a determination yields
every candidate's ``RF_t``, the optimizer's objective reads that table
(drawing the Eq. 2 noise per probe), and the GP surrogate reads a
memoized Matern Gram over the grid.  Under PI the whole search runs in
one native call (:func:`~repro.ml.bayesian_optimizer.search_table`);
otherwise :meth:`~repro.ml.bayesian_optimizer.BayesianOptimizer.maximize`
runs it, with the same decisions.  Every candidate the optimizer
touches lands in the Estimated Time list (``ET_l``); when the
cost-performance knob is set, Eq. 4 is solved over that list
(:mod:`repro.core.tradeoff`).

The module is deliberately self-contained -- it consumes only features and
a price book -- so other SEDA systems can use it as an external prediction
service (Section 5; see :mod:`repro.core.rpc`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time

import numpy as np

from repro.cloud.pricing import PriceBook
from repro.cloud.providers import ProviderProfile
from repro.core.features import (
    FEATURE_NAMES,
    INTEGER_FEATURE_COLUMNS,
    FeatureVector,
)
from repro.core.tradeoff import DecisionGrid, EstimatedTimeEntry
from repro.ml.acquisition import AcquisitionFunction, make_acquisition
from repro.ml.bayesian_optimizer import BayesianOptimizer, search_table
from repro.ml.dataset import DataBurstAugmenter, Dataset
from repro.ml.grid_inference import GridPack
from repro.ml.random_forest import RandomForestRegressor

__all__ = [
    "PredictionRequest",
    "ConfigDecision",
    "WorkloadPredictor",
    "EstimatedTimeEntry",
    "DecisionGrid",
]

_MODES = ("hybrid", "vm-only", "sl-only")


@dataclasses.dataclass(frozen=True)
class PredictionRequest:
    """Everything WP needs to size one incoming query.

    ``historical_duration_s`` is the query-duration prior: for known
    queries it comes straight from the History Server; for alien queries
    the Similarity Checker substitutes the closest neighbour's value
    (Section 4.2).
    """

    query_id: str
    input_size_gb: float
    start_time_epoch: float
    historical_duration_s: float
    num_waiting_apps: int = 0

    def feature_vector(self, n_vm: int, n_sl: int) -> FeatureVector:
        """The Table 3 features for one candidate configuration."""
        return FeatureVector.build(
            n_vm=n_vm,
            n_sl=n_sl,
            input_size_gb=self.input_size_gb,
            start_time_epoch=self.start_time_epoch,
            historical_duration_s=self.historical_duration_s,
            num_waiting_apps=self.num_waiting_apps,
        )

    def feature_matrix(self, candidates: np.ndarray) -> np.ndarray:
        """The Table 3 features for a whole ``(n, 2)`` candidate grid."""
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        return FeatureVector.build_matrix(
            n_vm=candidates[:, 0],
            n_sl=candidates[:, 1],
            input_size_gb=self.input_size_gb,
            start_time_epoch=self.start_time_epoch,
            historical_duration_s=self.historical_duration_s,
            num_waiting_apps=self.num_waiting_apps,
        )


@dataclasses.dataclass
class ConfigDecision:
    """The WP's answer: a configuration plus everything behind it.

    The Estimated Time list travels in array form (:class:`DecisionGrid`,
    the ``grid`` field); :attr:`et_list` materialises the familiar
    ``list[EstimatedTimeEntry]`` view lazily on first access, so callers
    that never inspect the list (the entire serving hot path) never pay
    for building hundreds of entry objects per decision.
    """

    query_id: str
    n_vm: int
    n_sl: int
    predicted_seconds: float
    estimated_cost: float
    knob: float
    best_entry: EstimatedTimeEntry
    chosen_entry: EstimatedTimeEntry
    grid: DecisionGrid
    n_evaluations: int
    converged: bool
    inference_seconds: float

    @property
    def config(self) -> tuple[int, int]:
        return (self.n_vm, self.n_sl)

    @functools.cached_property
    def et_list(self) -> list[EstimatedTimeEntry]:
        """The Estimated Time list, materialised from :attr:`grid`.

        Built on first access and cached on the decision; the entries
        round-trip exactly (``int`` / ``float`` of the same array cells
        the eager construction used).
        """
        return self.grid.entries()

    def summary(self) -> str:
        return (
            f"{self.query_id}: {self.n_vm} VM + {self.n_sl} SL, "
            f"~{self.predicted_seconds:.1f}s, ~{self.estimated_cost * 100:.2f} cents "
            f"(knob={self.knob:g}, {self.n_evaluations} probes)"
        )


def _objective_table(trees: np.ndarray) -> np.ndarray:
    """Per-candidate ``RF_t`` from a ``(n_trees, n_candidates)`` matrix.

    Each candidate's trees are summed as one contiguous row -- the
    pairwise sum a single-row predict performs -- so entry ``i`` equals
    :meth:`WorkloadPredictor.predict_duration` on candidate ``i``'s
    feature vector bit for bit.
    """
    return np.ascontiguousarray(trees.T).mean(axis=1)


class WorkloadPredictor:
    """RF + BO workload prediction over the hybrid configuration space.

    Parameters
    ----------
    provider, prices:
        Target cloud profile and its price book (cost estimation for
        Eq. 4 and reports).
    relay:
        Whether decisions assume the relay-instances mechanism; affects
        the SL usage time in cost estimates (SLs retire at VM readiness).
    max_vm, max_sl:
        Bounds of the ``{nVM, nSL}`` search grid.
    n_estimators, max_depth, min_samples_leaf:
        Random Forest hyper-parameters.
    acquisition:
        BO acquisition short name (``pi`` default, per the paper).
    burst_factor, burst_jitter:
        Data-burst augmentation heuristic (Section 5: ~10x, +-5 %).
    rng:
        Seed or generator; all stochastic parts derive from it.
    """

    def __init__(
        self,
        provider: ProviderProfile,
        prices: PriceBook,
        relay: bool = True,
        max_vm: int = 12,
        max_sl: int = 12,
        n_estimators: int = 100,
        max_depth: int | None = 20,
        min_samples_leaf: int = 2,
        acquisition: str | AcquisitionFunction = "pi",
        bo_patience: int = 10,
        bo_improvement_threshold: float = 0.01,
        burst_factor: int = 10,
        burst_jitter: float = 0.05,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if max_vm < 0 or max_sl < 0 or max_vm + max_sl == 0:
            raise ValueError("the search grid must contain a worker")
        self._provider = provider
        self._prices = prices
        self.relay = relay
        self.max_vm = max_vm
        self.max_sl = max_sl
        self.bo_patience = bo_patience
        self.bo_improvement_threshold = bo_improvement_threshold
        if isinstance(acquisition, str):
            acquisition = make_acquisition(acquisition)
        self.acquisition = acquisition
        self._rng = np.random.default_rng(rng)
        self._forest = RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=1.0,
            oob_score=True,
            rng=self._rng,
        )
        self._augmenter = DataBurstAugmenter(
            factor=burst_factor,
            jitter=burst_jitter,
            integer_columns=INTEGER_FEATURE_COLUMNS,
            rng=self._rng,
        )
        self.known_queries: set[str] = set()
        self.model_version = 0
        self.training_set_size = 0
        # Hot-path caches: the candidate grid per mode with its BO
        # surrogate Gram and (nVM, nSL) -> row map, the Eq. 4 rate
        # constants (the price book is fixed at construction -- `prices`
        # is a read-only property so the hoist cannot silently go stale).
        self._grid_cache: dict[tuple[str, int, int], np.ndarray] = {}
        self._gram_cache: dict[
            tuple[str, int, int], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._vm_rate = (
            prices.vm_per_second
            + prices.vm_burst_per_second
            + prices.vm_storage_per_second
        )
        self._sl_rate = prices.sl_per_second
        self._redis_rate = prices.redis_per_second
        # Grid-compiled inference engines (one per mode/bounds, rebuilt
        # when the model version moves); None is memoized too so a grid
        # the kernel cannot take is not re-attempted every batch.
        self._grid_engine_cache: dict[tuple, tuple[GridPack | None, int]] = {}

    @property
    def provider(self) -> ProviderProfile:
        """The target cloud profile (read-only after construction)."""
        return self._provider

    @property
    def prices(self) -> PriceBook:
        """The price book (read-only: the Eq. 4 rates are hoisted)."""
        return self._prices

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        dataset: Dataset,
        query_ids: tuple[str, ...] = (),
        augment: bool = True,
    ) -> Dataset:
        """(Re)train the forest; returns the (augmented) training set.

        With ``augment=True`` the Section 5 heuristic runs first: each
        sample is varied by +-5 % into a ~10x burst, shuffled so later
        splits stay unbiased.
        """
        if dataset.feature_names and dataset.feature_names != FEATURE_NAMES:
            raise ValueError("dataset columns must follow FEATURE_NAMES")
        training = self._augmenter.augment(dataset) if augment else dataset
        self._forest.fit(training.features, training.targets)
        self.known_queries.update(query_ids)
        self.model_version += 1
        self.training_set_size = len(training)
        return training

    def warm_update(self, dataset: Dataset, n_new_trees: int = 20) -> None:
        """Incremental update: keep existing trees, add new ones.

        This is the ``warm_start`` path of Section 5's background
        retraining -- the new trees are fitted on the fresh data while the
        old ensemble keeps its knowledge.
        """
        training = self._augmenter.augment(dataset)
        self._forest.add_trees(training.features, training.targets, n_new_trees)
        self.model_version += 1
        self.training_set_size += len(training)

    @property
    def is_trained(self) -> bool:
        return self._forest.n_trees > 0

    @property
    def forest(self) -> RandomForestRegressor:
        return self._forest

    def is_known(self, query_id: str) -> bool:
        return query_id in self.known_queries

    def query_class(
        self, query_id: str, input_size_gb: float
    ) -> tuple[str, int]:
        """The arrival-forecast stream key for one query.

        Resource management forecasts arrivals *per query class*, and
        the class follows the predictor's own feature schema: the query
        identity plus the input size bucketed in octaves (durations and
        costs scale smoothly with size, so same-octave arrivals are one
        workload for forecasting even though their feature vectors --
        and therefore their sizing decisions -- differ slightly).
        """
        if input_size_gb <= 0.0:
            raise ValueError("input_size_gb must be positive")
        return (query_id, round(math.log2(input_size_gb)))

    # ------------------------------------------------------------------
    # Point prediction (Eq. 1)
    # ------------------------------------------------------------------

    def predict_duration(self, features: FeatureVector) -> float:
        """``RF_t``: expected completion time for one configuration."""
        if not self.is_trained:
            raise RuntimeError("the prediction model has not been trained")
        return float(self._forest.predict(features.as_array()[None, :])[0])

    def predict_durations(self, features: np.ndarray) -> np.ndarray:
        """Batched ``RF_t``: one forest pass over ``(n, d)`` feature rows.

        One ensemble traversal for the whole batch is how the grid search
        stays cheap: a 13x13 candidate grid (or several queued queries'
        grids stacked) costs one ``predict`` call, not hundreds.
        """
        if not self.is_trained:
            raise RuntimeError("the prediction model has not been trained")
        return self._forest.predict(np.atleast_2d(features))

    # ------------------------------------------------------------------
    # Cost estimation (the Eq. 4 cost term)
    # ------------------------------------------------------------------

    def estimate_cost(self, t_est: float, n_vm: int, n_sl: int) -> float:
        """``nVM * t_vm * C_vm + nSL * t_sl * C_sl`` plus the Redis host.

        Under relay, SLs only run for the VM cold-boot window (their usage
        time ``t_sl`` is capped at the boot latency whenever VMs are part
        of the configuration).  The per-second rates are hoisted to
        construction time (``_vm_rate`` etc.); the price book never
        changes after that.
        """
        t_vm = t_est
        if self.relay and n_vm > 0:
            t_sl = min(t_est, self.provider.vm_boot_seconds)
        else:
            t_sl = t_est
        cost = n_vm * t_vm * self._vm_rate + n_sl * t_sl * self._sl_rate
        if n_sl > 0:
            cost += t_est * self._redis_rate
        return cost

    def estimate_costs(
        self, t_est: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`estimate_cost` over a whole Estimated Time list.

        ``t_est`` holds one duration estimate per ``(nVM, nSL)`` row of
        ``candidates`` -- or, as a ``(batch, n)`` matrix, one estimate
        row per queued request over the shared candidate grid.  Either
        way the result is bitwise equal to calling :meth:`estimate_cost`
        per entry (same operations in the same order), just as one array
        expression.
        """
        t_est = np.asarray(t_est, dtype=np.float64)
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        if candidates.shape[0] != t_est.shape[-1]:
            raise ValueError("t_est and candidates disagree on entry count")
        n_vm = candidates[:, 0]
        n_sl = candidates[:, 1]
        if self.relay:
            t_sl = np.where(
                n_vm > 0,
                np.minimum(t_est, self.provider.vm_boot_seconds),
                t_est,
            )
        else:
            t_sl = t_est
        costs = n_vm * t_est * self._vm_rate + n_sl * t_sl * self._sl_rate
        return costs + np.where(n_sl > 0, t_est * self._redis_rate, 0.0)

    # ------------------------------------------------------------------
    # Resource determination (Eq. 2 + Eq. 4)
    # ------------------------------------------------------------------

    def _effective_bounds(
        self, max_vm: int | None, max_sl: int | None, mode: str = "hybrid"
    ) -> tuple[int, int]:
        """Clamp caller-supplied search bounds to the configured grid.

        Tenant quotas (``TenantSpec.max_leased_vms`` / ``max_leased_sls``)
        arrive here as *caps*: they can only shrink the search space, never
        widen it.  ``None`` means no override.  Caps that would leave the
        mode's grid without a worker -- both axes at zero, or the only
        axis of a single-axis mode -- are ignored: an unsatisfiable quota
        must degrade to the unconstrained search, not an empty grid.
        """
        eff_vm = self.max_vm if max_vm is None else min(self.max_vm, int(max_vm))
        eff_sl = self.max_sl if max_sl is None else min(self.max_sl, int(max_sl))
        eff_vm = max(eff_vm, 0)
        eff_sl = max(eff_sl, 0)
        if mode == "vm-only":
            usable = eff_vm
        elif mode == "sl-only":
            usable = eff_sl
        else:
            usable = eff_vm + eff_sl
        if usable == 0:
            return (self.max_vm, self.max_sl)
        return (eff_vm, eff_sl)

    def candidate_grid(
        self,
        mode: str = "hybrid",
        max_vm: int | None = None,
        max_sl: int | None = None,
    ) -> np.ndarray:
        """The ``{nVM, nSL}`` search space for a determination mode.

        ``max_vm`` / ``max_sl`` cap the grid below the predictor's own
        bounds (quota-priced sizing: a tenant's lease quota shrinks the
        candidate space *before* the Eq. 4 tradeoff, so quota pressure is
        priced into the decision instead of discovered as queueing delay
        at grant time).  Built once per ``(mode, effective bounds)`` and
        memoized; the returned array is marked read-only because every
        caller shares the same instance.
        """
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        eff_vm, eff_sl = self._effective_bounds(max_vm, max_sl, mode)
        key = (mode, eff_vm, eff_sl)
        grid = self._grid_cache.get(key)
        if grid is None:
            vm_range = (
                np.arange(eff_vm + 1) if mode != "sl-only" else np.zeros(1)
            )
            sl_range = (
                np.arange(eff_sl + 1) if mode != "vm-only" else np.zeros(1)
            )
            # indexing="ij" + ravel keeps the nested-loop order: nVM is
            # the slow axis, nSL the fast one.
            vm, sl = np.meshgrid(vm_range, sl_range, indexing="ij")
            grid = np.column_stack((vm.ravel(), sl.ravel())).astype(np.float64)
            grid = grid[grid.sum(axis=1) > 0]
            grid.setflags(write=False)
            self._grid_cache[key] = grid
        return grid

    def _search_tables(
        self, mode: str, max_vm: int, max_sl: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The BO surrogate Gram and ``(nVM, nSL) -> row`` map of a grid.

        Both depend only on the candidate grid (the surrogate's length
        scale is a function of its extent), so they are built once per
        ``(mode, effective bounds)`` and memoized read-only next to the
        grid itself.  ``max_vm`` / ``max_sl`` are effective bounds.
        """
        key = (mode, max_vm, max_sl)
        tables = self._gram_cache.get(key)
        if tables is None:
            candidates = self.candidate_grid(mode, max_vm=max_vm, max_sl=max_sl)
            gram = BayesianOptimizer.candidate_gram(candidates)
            row_of = np.full((max_vm + 1, max_sl + 1), -1, dtype=np.intp)
            n_vm, n_sl = candidates.astype(np.intp).T
            row_of[n_vm, n_sl] = np.arange(candidates.shape[0])
            gram.setflags(write=False)
            row_of.setflags(write=False)
            tables = self._gram_cache[key] = (gram, row_of)
        return tables

    def determine(
        self,
        request: PredictionRequest,
        knob: float = 0.0,
        mode: str = "hybrid",
        max_iterations: int = 60,
        max_vm: int | None = None,
        max_sl: int | None = None,
    ) -> ConfigDecision:
        """Determine the (near-)optimal configuration for a query.

        Runs the BO loop over the candidate grid against the RF model,
        assembles the Estimated Time list from the probes, and applies the
        tradeoff knob (Eq. 4) when requested.  ``max_vm`` / ``max_sl``
        cap the candidate search below the predictor's bounds (tenant
        quota caps; see :meth:`candidate_grid`).

        The loop is table-driven: one forest pass over the whole grid
        precedes it, each probe reads its candidate's ``RF_t`` from that
        pass and adds the Eq. 2 noise, and the surrogate conditions on a
        memoized candidate Gram.  The decision is bitwise the one a
        per-probe forest call and kernel build would produce.  The
        search runs in one native call when it can
        (:func:`~repro.ml.bayesian_optimizer.search_table`) and through
        :meth:`_maximize` otherwise.
        """
        if not self.is_trained:
            raise RuntimeError("the prediction model has not been trained")
        started = time.perf_counter()
        eff_vm, eff_sl = self._effective_bounds(max_vm, max_sl, mode)
        candidates = self.candidate_grid(mode, max_vm=eff_vm, max_sl=eff_sl)
        gram, row_of = self._search_tables(mode, eff_vm, eff_sl)
        trees = self._grid_tree_matrix(
            [request], mode, candidates, eff_vm, eff_sl
        )
        table = _objective_table(trees)
        n_initial = min(4, candidates.shape[0])
        searched = search_table(
            table,
            gram,
            self._rng,
            acquisition=self.acquisition,
            n_initial=n_initial,
            improvement_threshold=self.bo_improvement_threshold,
            patience=self.bo_patience,
            max_iterations=max_iterations,
        )
        if searched is None:
            searched = self._maximize(
                table, candidates, gram, row_of, n_initial, max_iterations
            )
        probe_indices, converged = searched

        # The Estimated Time list (every probe, plus the winner) reads the
        # same forest pass: column means over the probes' tree columns add
        # the trees in the order a batched predict over those rows does
        # (``take`` keeps the block C-ordered, so the reduction order
        # matches).  One batched cost pass prices the list, which stays in
        # array form end to end.
        probe_points = candidates[probe_indices]
        estimates = trees.take(probe_indices, axis=1).mean(axis=0)
        costs = self.estimate_costs(estimates, probe_points)
        decision_grid = DecisionGrid(
            probe_points[:-1], estimates[:-1], costs[:-1]
        )

        best_entry = EstimatedTimeEntry(
            n_vm=int(probe_points[-1, 0]),
            n_sl=int(probe_points[-1, 1]),
            estimated_seconds=float(estimates[-1]),
            estimated_cost=float(costs[-1]),
        )
        chosen_index = decision_grid.select_index_with_knob(
            best_entry.estimated_seconds, best_entry.estimated_cost, knob
        )
        chosen = (
            best_entry
            if chosen_index is None
            else decision_grid.entry(chosen_index)
        )
        elapsed = time.perf_counter() - started
        return ConfigDecision(
            query_id=request.query_id,
            n_vm=chosen.n_vm,
            n_sl=chosen.n_sl,
            predicted_seconds=chosen.estimated_seconds,
            estimated_cost=chosen.estimated_cost,
            knob=knob,
            best_entry=best_entry,
            chosen_entry=chosen,
            grid=decision_grid,
            n_evaluations=len(probe_indices) - 1,
            converged=converged,
            inference_seconds=elapsed,
        )

    def _maximize(
        self,
        table: np.ndarray,
        candidates: np.ndarray,
        gram: np.ndarray,
        row_of: np.ndarray,
        n_initial: int,
        max_iterations: int,
    ) -> tuple[np.ndarray, bool]:
        """``determine``'s search through :meth:`BayesianOptimizer.maximize`.

        The reference for :func:`search_table`, and the path whenever
        that cannot run (no native search, an acquisition other than PI,
        a non-finite table entry).  Returns the probes in order followed
        by the incumbent, and the convergence flag.
        """
        values = table.tolist()
        probed: list[int] = []

        def objective(point: np.ndarray) -> float:
            index = int(row_of[int(point[0]), int(point[1])])
            probed.append(index)
            predicted = values[index]
            # Eq. 2: maximise -(RF_t + delta), delta ~ N(0, sigma).
            delta = self._rng.normal(0.0, 0.01 * max(predicted, 1.0))
            return -(predicted + delta)

        result = BayesianOptimizer(
            objective=objective,
            candidates=candidates,
            acquisition=self.acquisition,
            n_initial=n_initial,
            improvement_threshold=self.bo_improvement_threshold,
            patience=self.bo_patience,
            gram=gram,
            rng=self._rng,
        ).maximize(max_iterations=max_iterations)
        best = int(row_of[int(result.best_point[0]), int(result.best_point[1])])
        return np.array(probed + [best]), result.converged

    def determine_batch(
        self,
        requests: list[PredictionRequest],
        knob: float = 0.0,
        mode: str = "hybrid",
        max_vm: int | None = None,
        max_sl: int | None = None,
    ) -> list[ConfigDecision]:
        """Size a whole batch of queued queries with ONE forest pass.

        Every request's full candidate grid is stacked into a single
        Random Forest ``predict`` call -- the batched counterpart of the
        per-query BO loop in :meth:`determine`.  Because the search is
        exhaustive over the grid, each decision is the true RF optimum
        (the BO loop merely approximates it with fewer probes), so the
        resulting Estimated Time lists cover the entire grid and the Eq. 4
        knob selection applies unchanged.

        The whole pipeline is array-native: estimates come from the
        grid-compiled engine (or one stacked forest pass), costs from one
        broadcast :meth:`estimate_costs` call, and Eq. 4 from the
        vectorised :meth:`DecisionGrid.select_index_with_knob` --
        ``EstimatedTimeEntry`` objects only materialise if a caller reads
        ``decision.et_list``.

        ``inference_seconds`` on every returned decision is the batch's
        decision time *amortised equally* across its requests, so summing
        it over the batch recovers the true elapsed wall time of this call.
        """
        if not self.is_trained:
            raise RuntimeError("the prediction model has not been trained")
        if not requests:
            return []
        started = time.perf_counter()
        eff_vm, eff_sl = self._effective_bounds(max_vm, max_sl, mode)
        candidates = self.candidate_grid(mode, max_vm=eff_vm, max_sl=eff_sl)
        grid_size = candidates.shape[0]

        estimates = self._grid_tree_matrix(
            requests, mode, candidates, eff_vm, eff_sl
        ).mean(axis=0)
        cost_matrix = self.estimate_costs(
            estimates.reshape(len(requests), grid_size), candidates
        )
        selected = []
        for index in range(len(requests)):
            # Copies, not views: a decision kept by a caller must not pin
            # the whole batch's estimate matrix in memory.
            decision_grid = DecisionGrid(
                candidates,
                estimates[index * grid_size : (index + 1) * grid_size].copy(),
                cost_matrix[index].copy(),
            )
            best_index = decision_grid.best_index()
            chosen_index = decision_grid.select_index_with_knob(
                float(decision_grid.seconds[best_index]),
                float(decision_grid.costs[best_index]),
                knob,
            )
            if chosen_index is None:
                chosen_index = best_index
            selected.append((decision_grid, best_index, chosen_index))
        elapsed = time.perf_counter() - started

        decisions = []
        for request, (decision_grid, best_index, chosen_index) in zip(
            requests, selected
        ):
            best_entry = decision_grid.entry(best_index)
            chosen = decision_grid.entry(chosen_index)
            decisions.append(
                ConfigDecision(
                    query_id=request.query_id,
                    n_vm=chosen.n_vm,
                    n_sl=chosen.n_sl,
                    predicted_seconds=chosen.estimated_seconds,
                    estimated_cost=chosen.estimated_cost,
                    knob=knob,
                    best_entry=best_entry,
                    chosen_entry=chosen,
                    # Each decision materialises (and caches) its own
                    # et_list lazily from its read-only grid.
                    grid=decision_grid,
                    n_evaluations=grid_size,
                    converged=True,
                    inference_seconds=elapsed / len(requests),
                )
            )
        return decisions

    def _grid_tree_matrix(
        self,
        requests: list[PredictionRequest],
        mode: str,
        candidates: np.ndarray,
        max_vm: int | None = None,
        max_sl: int | None = None,
    ) -> np.ndarray:
        """Per-tree grid estimates, ``(n_trees, n_requests * n_rows)``.

        Columns are request-major.  Uses the grid-compiled engine
        (set-partition descent over masks precompiled against the fixed
        candidate grid) when the native kernel is available; otherwise
        one stacked packed-forest pass.  Both produce bitwise-identical
        matrices.
        """
        engine = self._grid_engine(mode, max_vm=max_vm, max_sl=max_sl)
        if engine is not None:
            constants = np.empty(
                (len(requests), len(FEATURE_NAMES)), dtype=np.float64
            )
            alphas = np.empty(len(requests), dtype=np.float64)
            for index, request in enumerate(requests):
                constants[index] = FeatureVector.request_constant_row(
                    input_size_gb=request.input_size_gb,
                    start_time_epoch=request.start_time_epoch,
                    historical_duration_s=request.historical_duration_s,
                    num_waiting_apps=request.num_waiting_apps,
                )
                alphas[index] = FeatureVector.available_memory_scale(
                    request.num_waiting_apps
                )
            return engine.tree_matrix(constants, alphas)
        stacked = np.vstack(
            [request.feature_matrix(candidates) for request in requests]
        )
        return self._forest.tree_matrix(stacked)

    def _grid_engine(
        self,
        mode: str,
        max_vm: int | None = None,
        max_sl: int | None = None,
    ) -> GridPack | None:
        """The grid-compiled engine for a mode, or ``None`` without one.

        Compiled lazily per ``(mode, effective bounds)`` against the
        current model version; a grid too wide for the kernel (or a
        missing native kernel) memoizes ``None`` so the fallback is not
        re-probed on every batch.
        """
        if not GridPack.available():
            return None
        eff_vm, eff_sl = self._effective_bounds(max_vm, max_sl, mode)
        key = (mode, eff_vm, eff_sl)
        cached = self._grid_engine_cache.get(key)
        if cached is not None and cached[1] == self.model_version:
            return cached[0]
        candidates = self.candidate_grid(mode, max_vm=eff_vm, max_sl=eff_sl)
        try:
            column_values, scaled_columns = FeatureVector.grid_columns(
                candidates[:, 0], candidates[:, 1]
            )
            engine = GridPack(
                self._forest.packed(), column_values, scaled_columns
            )
        except ValueError:
            engine = None
        self._grid_engine_cache[key] = (engine, self.model_version)
        return engine
