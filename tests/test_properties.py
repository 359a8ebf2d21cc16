"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_table
from repro.cloud import get_provider
from repro.cloud.pricing import get_prices
from repro.core import (
    FEATURE_NAMES,
    DecisionGrid,
    EstimatedTimeEntry,
    FeatureVector,
    PredictionRequest,
    WorkloadPredictor,
    select_with_knob,
)
from repro.engine import Simulator, run_query
from repro.ml import (
    BayesianOptimizer,
    DataBurstAugmenter,
    Dataset,
    DecisionTreeRegressor,
    GaussianProcessRegressor,
    Matern52Kernel,
    RandomForestRegressor,
    rmse,
)
from repro.ml.metrics import accuracy_within
from repro.sqlmeta import extract_metadata
from repro.sqlmeta.tokenizer import KEYWORDS
from repro.workloads import make_random_query, make_uniform_query

AWS = get_provider("aws").with_noise_sigma(0.0)


# ---------------------------------------------------------------------------
# Simulator: events always fire in non-decreasing time order.
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_time_is_monotone(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Decision tree: predictions are bounded by the training-target range.
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=2,
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_tree_predictions_within_target_range(rows):
    x = np.array([[a] for a, _ in rows])
    y = np.array([b for _, b in rows])
    tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
    probes = np.linspace(-200, 200, 17)[:, None]
    predictions = tree.predict(probes)
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9


# ---------------------------------------------------------------------------
# Packed-forest inference: for any forest and any finite input batch, the
# packed engine (whichever descent backend is active, plus the explicit
# numpy fallback) is EXACTLY equal to the per-tree prediction loop --
# bitwise, not merely within tolerance.
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_samples=st.integers(min_value=2, max_value=80),
    n_features=st.integers(min_value=1, max_value=6),
    n_trees=st.integers(min_value=1, max_value=12),
    n_queries=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_packed_forest_exactly_matches_per_tree_loop(
    seed, n_samples, n_features, n_trees, n_queries
):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, size=(n_samples, n_features))
    y = rng.uniform(-1e3, 1e3, size=n_samples)
    forest = RandomForestRegressor(n_estimators=n_trees, rng=seed).fit(x, y)
    queries = rng.uniform(-2e3, 2e3, size=(n_queries, n_features))
    reference = forest._tree_matrix_loop(queries)
    pack = forest.packed()
    assert np.array_equal(pack.tree_matrix(queries), reference)
    assert np.array_equal(pack._descend_numpy(queries), reference)
    assert np.array_equal(forest.predict(queries), reference.mean(axis=0))


# ---------------------------------------------------------------------------
# Data-burst augmentation: size, bounds and label preservation.
# ---------------------------------------------------------------------------

@given(
    n_samples=st.integers(min_value=1, max_value=30),
    factor=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_burst_augmentation_invariants(n_samples, factor, seed):
    rng = np.random.default_rng(seed)
    features = rng.uniform(1.0, 100.0, size=(n_samples, 3))
    targets = rng.uniform(10.0, 500.0, size=n_samples)
    dataset = Dataset(features, targets)
    augmented = DataBurstAugmenter(factor=factor, rng=seed).augment(dataset)
    assert len(augmented) == n_samples * factor
    # Labels are preserved exactly (multiset inclusion).
    assert set(np.round(augmented.targets, 9)) <= set(np.round(targets, 9))
    # Features stay within +-5 % of the original envelope.
    assert (augmented.features >= features.min(axis=0) * 0.95 - 1e-9).all()
    assert (augmented.features <= features.max(axis=0) * 1.05 + 1e-9).all()


# ---------------------------------------------------------------------------
# Scheduler: every task of every randomly shaped DAG completes exactly once,
# and dependencies are never violated.
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_vm=st.integers(min_value=0, max_value=4),
    n_sl=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_random_dag_execution_completes(seed, n_vm, n_sl):
    if n_vm + n_sl == 0:
        n_vm = 1
    query = make_random_query(rng=seed, max_stages=6, max_tasks_per_stage=20)
    result = run_query(query, n_vm=n_vm, n_sl=n_sl, provider=AWS, rng=seed)
    assert result.metrics.tasks_completed == query.total_tasks
    assert result.metrics.stages_completed == query.n_stages
    assert result.completion_seconds > 0


# ---------------------------------------------------------------------------
# Execution: adding workers never makes a single-stage query slower
# (with noise disabled).
# ---------------------------------------------------------------------------

@given(
    n_tasks=st.integers(min_value=1, max_value=60),
    workers=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_more_vms_never_slower(n_tasks, workers):
    query = make_uniform_query(n_tasks, task_seconds=2.0)
    small = run_query(query, n_vm=workers, n_sl=0, provider=AWS, rng=0)
    large = run_query(query, n_vm=workers + 1, n_sl=0, provider=AWS, rng=0)
    assert large.completion_seconds <= small.completion_seconds + 1e-9


# ---------------------------------------------------------------------------
# Knob selection: the Eq. 4 solution always satisfies both constraints.
# ---------------------------------------------------------------------------

_entry_strategy = st.builds(
    EstimatedTimeEntry,
    n_vm=st.integers(min_value=0, max_value=12),
    n_sl=st.integers(min_value=0, max_value=12),
    estimated_seconds=st.floats(min_value=1.0, max_value=1000.0),
    estimated_cost=st.floats(min_value=0.0, max_value=1.0),
)


@given(
    entries=st.lists(_entry_strategy, min_size=1, max_size=30),
    epsilon=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_knob_selection_respects_constraints(entries, epsilon):
    best = min(entries, key=lambda e: e.estimated_seconds)
    chosen = select_with_knob(entries, best, epsilon)
    assert chosen.estimated_cost <= best.estimated_cost or chosen is best
    assert (
        chosen.estimated_seconds <= best.estimated_seconds * (1.0 + epsilon)
        or chosen is best
    )


@given(entries=st.lists(_entry_strategy, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_knob_cost_monotone_in_epsilon(entries):
    best = min(entries, key=lambda e: e.estimated_seconds)
    costs = [
        select_with_knob(entries, best, eps).estimated_cost
        for eps in (0.0, 0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# Array-native knob selection: for ANY grid, knob and tie pattern, the
# vectorised DecisionGrid path picks the bitwise-identical winner to the
# object-list reference, and the lazy entries round-trip exactly.  Values
# are drawn from small discrete pools so exact ties on seconds, costs, or
# both are common rather than measure-zero.
# ---------------------------------------------------------------------------

_tied_value = st.sampled_from(
    [0.0, 0.25, 0.5, 1.0, 2.0, 3.5, 7.0, 10.0, 100.0]
)
_tied_entry = st.builds(
    EstimatedTimeEntry,
    n_vm=st.integers(min_value=0, max_value=12),
    n_sl=st.integers(min_value=0, max_value=12),
    estimated_seconds=st.one_of(
        _tied_value, st.floats(min_value=0.001, max_value=1000.0)
    ),
    estimated_cost=st.one_of(
        _tied_value, st.floats(min_value=0.0, max_value=1.0)
    ),
)


def _grid_from_entries(entries):
    return DecisionGrid(
        candidates=np.array(
            [[e.n_vm, e.n_sl] for e in entries], dtype=np.float64
        ),
        seconds=np.array([e.estimated_seconds for e in entries]),
        costs=np.array([e.estimated_cost for e in entries]),
    )


@given(
    entries=st.lists(_tied_entry, min_size=1, max_size=40),
    epsilon=st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.floats(min_value=0.0, max_value=3.0),
    ),
)
@settings(max_examples=120, deadline=None)
def test_grid_select_bitwise_matches_object_reference(entries, epsilon):
    grid = _grid_from_entries(entries)
    # Lazy materialisation must reproduce the object list exactly.
    assert grid.entries() == entries

    best = min(entries, key=lambda e: e.estimated_seconds)
    assert grid.entry(grid.best_index()) == best

    reference = select_with_knob(entries, best, epsilon)
    index = grid.select_index_with_knob(
        best.estimated_seconds, best.estimated_cost, epsilon
    )
    chosen = best if index is None else grid.entry(index)
    # Bitwise-identical winner: same entry values AND, when the reference
    # picked a list member, the same position (stable tie-breaking; the
    # identity check distinguishes equal-valued duplicates).
    assert chosen == reference
    if index is not None:
        assert entries[index] is reference


@given(
    entries=st.lists(_tied_entry, min_size=2, max_size=25),
    epsilon=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_grid_select_with_external_best(entries, epsilon):
    # The BO path's best entry is NOT a grid row; the vectorised solver
    # must agree with the reference there too.
    best = EstimatedTimeEntry(
        n_vm=1, n_sl=1, estimated_seconds=0.75, estimated_cost=0.125
    )
    grid = _grid_from_entries(entries)
    reference = select_with_knob(entries, best, epsilon)
    index = grid.select_index_with_knob(
        best.estimated_seconds, best.estimated_cost, epsilon
    )
    chosen = best if index is None else grid.entry(index)
    assert chosen == reference


# ---------------------------------------------------------------------------
# Solo determination: the table-driven BO loop (one forest pass, cached
# candidate Gram, incremental candidate-set posterior) makes exactly the
# decision a per-probe loop makes -- one forest call per probe, a generic
# GP with a Matern kernel build per surrogate update, and a batched
# re-predict of the probes -- for any request, mode, quota caps, knob,
# probe budget and generator state.
#
# The two surrogates agree to about 1e-11, not bitwise, so equal decisions
# and generator states rest on the acquisition having no near-tie: the
# argmax keeps exact ties only (drawing from the generator to break them),
# and PI saturates to exactly 0 or 1, so a rounding-level difference next
# to a saturation boundary could change the tied set and with it the
# draws.  No example has hit that yet; a failure here whose surrogate
# means differ only in the last few bits is this effect, not a regression.
# ---------------------------------------------------------------------------


class _RowGaussianProcess:
    """The optimizer's surrogate interface over a generic GP conditioned on
    candidate rows, building the Matern kernel on every update."""

    def __init__(self, candidates, length_scale):
        self._candidates = candidates
        self._gp = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale), noise=1e-2
        )

    def observe(self, index, value):
        self._gp.add_observation(self._candidates[index], value)

    def predict(self, indices):
        return self._gp.predict(self._candidates[indices], return_std=True)


class _PerProbeOptimizer(BayesianOptimizer):
    """Conditions the surrogate on candidate rows, building the kernel."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._surrogate = _RowGaussianProcess(
            self.candidates, self._default_length_scale(self.candidates)
        )


def _per_probe_determine(predictor, request, knob, mode, max_iterations,
                         max_vm, max_sl):
    candidates = predictor.candidate_grid(mode, max_vm=max_vm, max_sl=max_sl)

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
    ).maximize(max_iterations=max_iterations)
    points = np.array(
        [probe.point for probe in result.history] + [result.best_point]
    )
    seconds = predictor.predict_durations(request.feature_matrix(points))
    costs = predictor.estimate_costs(seconds, points)
    grid = DecisionGrid(points[:-1], seconds[:-1], costs[:-1])
    best = EstimatedTimeEntry(
        int(points[-1][0]), int(points[-1][1]), float(seconds[-1]),
        float(costs[-1]),
    )
    index = grid.select_index_with_knob(
        best.estimated_seconds, best.estimated_cost, knob
    )
    chosen = best if index is None else grid.entry(index)
    return chosen, best, grid, result.n_evaluations, result.converged


@functools.lru_cache(maxsize=1)
def _small_predictor():
    predictor = WorkloadPredictor(
        get_provider("aws"), get_prices("aws"), max_vm=6, max_sl=6,
        n_estimators=12, rng=21,
    )
    rng = np.random.default_rng(21)
    n_vm = rng.integers(0, 7, 90)
    n_sl = rng.integers(0, 7, 90)
    n_vm = np.where(n_vm + n_sl == 0, 1, n_vm)
    features = FeatureVector.build_matrix(
        n_vm=n_vm.astype(float), n_sl=n_sl.astype(float),
        input_size_gb=30.0, start_time_epoch=5.0e3,
        historical_duration_s=150.0,
    )
    targets = 700.0 / (n_vm + n_sl) + 20.0 * (n_vm > 0) + rng.normal(0, 3, 90)
    predictor.fit(Dataset(features, targets, FEATURE_NAMES), augment=False)
    return predictor


_cap = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@given(
    mode=st.sampled_from(["hybrid", "vm-only", "sl-only"]),
    max_vm=_cap,
    max_sl=_cap,
    knob=st.one_of(st.sampled_from([0.0, 0.3]), st.floats(0.0, 2.0)),
    max_iterations=st.integers(min_value=1, max_value=60),
    input_gb=st.floats(min_value=1.0, max_value=200.0),
    waiting=st.integers(min_value=0, max_value=25),
    history_s=st.floats(min_value=10.0, max_value=900.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_determine_matches_per_probe_reference(
    mode, max_vm, max_sl, knob, max_iterations, input_gb, waiting,
    history_s, seed,
):
    predictor = _small_predictor()
    request = PredictionRequest(
        query_id="q", input_size_gb=input_gb, start_time_epoch=6.0e3,
        historical_duration_s=history_s, num_waiting_apps=waiting,
    )
    predictor._rng = np.random.default_rng(seed)
    decision = predictor.determine(
        request, knob=knob, mode=mode, max_iterations=max_iterations,
        max_vm=max_vm, max_sl=max_sl,
    )
    table_state = predictor._rng.bit_generator.state
    predictor._rng = np.random.default_rng(seed)
    chosen, best, grid, n_evaluations, converged = _per_probe_determine(
        predictor, request, knob, mode, max_iterations, max_vm, max_sl
    )
    assert predictor._rng.bit_generator.state == table_state
    assert decision.chosen_entry == chosen
    assert decision.best_entry == best
    assert (decision.n_evaluations, decision.converged) == (
        n_evaluations, converged,
    )
    for name in ("candidates", "seconds", "costs"):
        assert getattr(decision.grid, name).tobytes() == (
            getattr(grid, name).tobytes()
        )


# ---------------------------------------------------------------------------
# SQL metadata: arbitrary identifier soup never crashes the parser, and
# subquery counts equal SELECT occurrences minus one.
# ---------------------------------------------------------------------------

# Reserved words ("in", "on", ...) are not bare SQL identifiers.
_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: name.upper() not in KEYWORDS
)


@given(
    tables=st.lists(_ident, min_size=1, max_size=5, unique=True),
    columns=st.lists(_ident, min_size=1, max_size=6, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_sqlmeta_generated_queries(tables, columns):
    sql = f"SELECT {', '.join(columns)} FROM {', '.join(tables)}"
    meta = extract_metadata(sql)
    # Column names may collide with table names (then they're filtered),
    # but table extraction must see every table not shadowed by a column.
    assert set(meta.tables) <= set(tables)
    assert meta.n_subqueries == 0
    assert meta.n_tables >= 1


# ---------------------------------------------------------------------------
# Metrics: accuracy_within is monotone in the tolerance.
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=0.0, max_value=1000.0),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=40, deadline=None)
def test_accuracy_monotone_in_tolerance(pairs):
    actual = np.array([a for a, _ in pairs])
    predicted = np.array([p for _, p in pairs])
    accuracies = [
        accuracy_within(actual, predicted, tol) for tol in (0.0, 1.0, 10.0, 1e6)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] == 1.0


# ---------------------------------------------------------------------------
# Reporting: tables render any cell values without crashing.
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.text(max_size=10), st.floats(allow_nan=False,
                                                  allow_infinity=False)),
        min_size=0,
        max_size=10,
    )
)
@settings(max_examples=30, deadline=None)
def test_format_table_total_function(rows):
    text = format_table(("name", "value"), rows)
    assert "name" in text
    assert len(text.splitlines()) == 2 + len(rows)
