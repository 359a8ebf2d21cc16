"""Unit tests for the CART regression tree."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, forest_native
from repro.ml.metrics import rmse

_NATIVE = forest_native.load_kernel() is not None
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value",
                "n_samples", "impurity")


@contextlib.contextmanager
def _fit_engine(engine):
    """Fit with the native ``cart_grow`` kernel or the numpy grower."""
    if engine == "native":
        assert _NATIVE
        yield
    else:
        with mock.patch.object(forest_native, "load_kernel", lambda: None):
            yield


def _toy_step_data():
    """A 1-D step function a depth-1 tree can fit exactly."""
    x = np.arange(20, dtype=float)[:, None]
    y = np.where(x[:, 0] < 10, 1.0, 5.0)
    return x, y


class TestFitBasics:
    def test_fits_step_function_exactly(self):
        x, y = _toy_step_data()
        tree = DecisionTreeRegressor().fit(x, y)
        assert np.allclose(tree.predict(x), y)

    def test_single_sample_is_a_leaf(self):
        tree = DecisionTreeRegressor().fit([[1.0]], [3.0])
        assert tree.node_count == 1
        assert tree.predict([[99.0]])[0] == pytest.approx(3.0)

    def test_constant_targets_yield_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        tree = DecisionTreeRegressor().fit(x, np.full(50, 7.0))
        assert tree.n_leaves == 1
        assert np.allclose(tree.predict(x), 7.0)

    def test_prediction_is_mean_of_leaf(self):
        # Two x values, two y values each; leaf prediction = group mean.
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 10.0, 14.0])
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.predict([[0.0]])[0] == pytest.approx(2.0)
        assert tree.predict([[1.0]])[0] == pytest.approx(12.0)

    def test_deeper_trees_fit_better(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, size=(300, 2))
        y = np.sin(x[:, 0]) * 3 + x[:, 1]
        shallow = DecisionTreeRegressor(max_depth=2).fit(x, y)
        deep = DecisionTreeRegressor(max_depth=10).fit(x, y)
        assert rmse(y, deep.predict(x)) < rmse(y, shallow.predict(x))


class TestRegularisers:
    def test_max_depth_is_respected(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf_bounds_leaf_size(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(x, y)
        buffers = tree._require_fitted()
        leaf_mask = buffers.left[: buffers.count] == -1
        assert (buffers.n_samples[: buffers.count][leaf_mask] >= 10).all()

    def test_min_samples_split_prevents_splitting(self):
        x = np.arange(6, dtype=float)[:, None]
        y = np.arange(6, dtype=float)
        tree = DecisionTreeRegressor(min_samples_split=10).fit(x, y)
        assert tree.node_count == 1

    def test_max_features_subsampling_still_fits(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 6))
        y = 2 * x[:, 0] + rng.normal(0, 0.1, 200)
        tree = DecisionTreeRegressor(max_features="sqrt", rng=5).fit(x, y)
        assert rmse(y, tree.predict(x)) < np.std(y)

    @pytest.mark.parametrize("spec,expected", [
        (None, 6), ("sqrt", 2), ("log2", 2), (3, 3), (0.5, 3),
    ])
    def test_max_features_specs(self, spec, expected):
        tree = DecisionTreeRegressor(max_features=spec)
        tree._n_features = 6
        assert tree._n_split_candidates() == expected


class TestValidation:
    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty_fit(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_wrong_feature_count_at_predict(self):
        tree = DecisionTreeRegressor().fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 3)))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict([[1.0]])


class TestIntrospection:
    def test_feature_importances_identify_signal(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 3))
        y = 10 * x[:, 1] + rng.normal(0, 0.1, 400)
        tree = DecisionTreeRegressor(max_depth=6).fit(x, y)
        importances = tree.feature_importances()
        assert importances[1] > 0.9
        assert importances.sum() == pytest.approx(1.0)

    def test_decision_path_length_matches_depth_bound(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert (tree.decision_path_length(x) <= 4).all()

    def test_node_count_consistency(self):
        x, y = _toy_step_data()
        tree = DecisionTreeRegressor().fit(x, y)
        # A binary tree with L leaves has 2L - 1 nodes.
        assert tree.node_count == 2 * tree.n_leaves - 1


# ----------------------------------------------------------------------
# The whole-node split search against the per-feature reference
# ----------------------------------------------------------------------


def _reference_split_for_feature(values, targets, min_samples_leaf):
    """The per-feature CART search, one candidate column at a time."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    sorted_targets = targets[order]
    n = sorted_values.shape[0]
    prefix_sum = np.cumsum(sorted_targets)
    prefix_sq = np.cumsum(sorted_targets * sorted_targets)
    total_sum = prefix_sum[-1]
    total_sq = prefix_sq[-1]
    left_counts = np.arange(1, n, dtype=np.float64)
    right_counts = n - left_counts
    left_sum = prefix_sum[:-1]
    right_sum = total_sum - left_sum
    left_sq = prefix_sq[:-1]
    right_sq = total_sq - left_sq
    left_sse = left_sq - left_sum * left_sum / left_counts
    right_sse = right_sq - right_sum * right_sum / right_counts
    parent_sse = total_sq - total_sum * total_sum / n
    gains = parent_sse - (left_sse + right_sse)
    realisable = sorted_values[:-1] < sorted_values[1:]
    if min_samples_leaf > 1:
        realisable &= left_counts >= min_samples_leaf
        realisable &= right_counts >= min_samples_leaf
    gains = np.where(realisable, gains, -np.inf)
    if gains.size == 0:
        return -np.inf, 0.0
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]):
        return -np.inf, 0.0
    threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
    return float(gains[best]), float(threshold)


class _ReferenceTree(DecisionTreeRegressor):
    """The tree grown with ``np.mean``/``np.var`` node moments and the
    per-feature search, keeping the same node order and draws."""

    def _grow(self, features, targets, indices, depth):
        buffers = self._buffers
        node = buffers.allocate()
        node_targets = targets[indices]
        buffers.value[node] = float(node_targets.mean())
        buffers.n_samples[node] = indices.shape[0]
        buffers.impurity[node] = float(node_targets.var())
        if self._should_stop(indices.shape[0], depth, node_targets):
            return node
        split = self._find_split(features, node_targets, indices)
        if split is None:
            return node
        feature_index, threshold = split
        mask = features[indices, feature_index] <= threshold
        left_indices = indices[mask]
        right_indices = indices[~mask]
        if left_indices.shape[0] == 0 or right_indices.shape[0] == 0:
            return node
        buffers.feature[node] = feature_index
        buffers.threshold[node] = threshold
        buffers.left[node] = self._grow(features, targets, left_indices, depth + 1)
        buffers.right[node] = self._grow(features, targets, right_indices, depth + 1)
        return node

    def _find_split(self, features, node_targets, indices):
        n_candidates = self._n_split_candidates()
        if n_candidates < self._n_features:
            candidates = self._rng.choice(
                self._n_features, size=n_candidates, replace=False
            )
        else:
            candidates = np.arange(self._n_features)
        best_gain = 0.0
        best = None
        for feature_index in candidates:
            gain, threshold = _reference_split_for_feature(
                features[indices, feature_index], node_targets,
                self.min_samples_leaf,
            )
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (int(feature_index), threshold)
        return best


#: Few distinct values, so duplicated features, tied gains and equal
#: targets are common rather than rare.
_TIED_VALUES = st.sampled_from([-2.0, -0.5, 0.0, 0.0, 1.0, 1.0, 3.25, 1e6])
_MAX_FEATURES = st.one_of(
    st.none(),
    st.sampled_from(["sqrt", "log2"]),
    st.integers(1, 5),
    st.floats(0.05, 1.0),
)


@st.composite
def _fit_cases(draw):
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["tied", "free", "constant"]))
        if kind == "constant":
            columns.append([draw(_TIED_VALUES)] * n_rows)
        elif kind == "tied":
            columns.append(draw(st.lists(
                _TIED_VALUES, min_size=n_rows, max_size=n_rows
            )))
        else:
            columns.append(draw(st.lists(
                st.floats(-1e3, 1e3), min_size=n_rows, max_size=n_rows
            )))
    features = np.array(columns, dtype=np.float64).T.reshape(n_rows, n_features)
    if draw(st.booleans()):
        targets = np.full(n_rows, draw(_TIED_VALUES))
    else:
        targets = np.array(draw(st.lists(
            st.one_of(_TIED_VALUES, st.floats(-1e4, 1e4)),
            min_size=n_rows, max_size=n_rows,
        )))
    max_features = draw(_MAX_FEATURES)
    if isinstance(max_features, int):
        max_features = min(max_features, n_features)
    params = dict(
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_features=max_features,
    )
    return features, targets, params, draw(st.integers(0, 2**32 - 1))


def _example_case(n_rows, min_samples_leaf=1, target_scale=1e2):
    """A fixed case: a tied, a free and a constant feature column."""
    rows = np.arange(n_rows, dtype=np.float64)
    features = np.stack(
        [(rows * 7) % 5, np.sin(rows * 0.7), np.full(n_rows, 3.25)], axis=1
    )
    targets = target_scale * (np.cos(rows * 1.3) + (rows % 3))
    params = dict(max_depth=None, min_samples_split=2,
                  min_samples_leaf=min_samples_leaf, max_features=None)
    return features, targets, params, 0


def _tied_partition_case(seed):
    """Three columns whose best splits cut the same rows, two of them
    through groups of tied values.  Gains near 1e12 differ in bits far
    above the 1e-12 tie rule, so the winning column depends on the order
    each column's prefix sums add the tied rows: ties by row index."""
    rows = np.arange(48, dtype=np.float64)
    groups = rows // 4
    features = np.stack([rows, groups, groups * 2.0], axis=1)
    noise = np.random.default_rng(seed).normal(size=48)
    targets = 1e6 * (groups >= 5) + noise * 10.0 ** (rows % 7)
    params = dict(max_depth=None, min_samples_split=2, min_samples_leaf=1,
                  max_features=None)
    return features, targets, params, 0


def _with_examples(test):
    """The node sizes on every branch of numpy's pairwise sum (a plain
    loop below 8, eight accumulators up to 128, halving above), a leaf
    minimum, targets whose squares overflow into NaN gains, and gains
    decided by the sort's tie order."""
    for case in (
        *(_example_case(n) for n in (7, 8, 128, 129, 300)),
        _example_case(40, min_samples_leaf=3),
        _example_case(30, target_scale=1e200),
        _tied_partition_case(1),
        _tied_partition_case(2),
    ):
        test = example(case)(test)
    return given(_fit_cases())(test)


class TestSplitSearchMatchesPerFeatureReference:
    """Both fit engines grow the per-feature reference's trees and draws."""

    @staticmethod
    def _check(case, engine):
        features, targets, params, seed = case
        with np.errstate(over="ignore", invalid="ignore"):
            with _fit_engine(engine):
                tree = DecisionTreeRegressor(
                    rng=np.random.default_rng(seed), **params
                ).fit(features, targets)
            with _fit_engine("numpy"):
                reference = _ReferenceTree(
                    rng=np.random.default_rng(seed), **params
                ).fit(features, targets)
        got, want = tree._require_fitted(), reference._require_fitted()
        assert got.count == want.count
        for name in _NODE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert tree._rng.bit_generator.state == reference._rng.bit_generator.state

    @_with_examples
    def test_trees_and_draws_are_bitwise_equal(self, case):
        self._check(case, "numpy")

    @pytest.mark.skipif(not _NATIVE, reason="native kernel unavailable")
    @_with_examples
    def test_native_trees_and_draws_are_bitwise_equal(self, case):
        self._check(case, "native")


@pytest.mark.skipif(not _NATIVE, reason="native kernel unavailable")
def test_native_root_moments_match_numpy():
    """Root ``value``/``impurity`` (the pairwise sums) agree bitwise for
    every node size up to 300 and across numpy's 8,192-element block."""
    for n_rows in (*range(1, 301), 8191, 8192, 8193):
        rng = np.random.default_rng(n_rows)
        features = rng.normal(size=(n_rows, 2))
        targets = rng.normal(size=n_rows) * 10.0 ** rng.uniform(-3, 3, n_rows)
        roots = []
        for engine in ("native", "numpy"):
            with _fit_engine(engine):
                tree = DecisionTreeRegressor(
                    min_samples_split=n_rows + 1
                ).fit(features, targets)
            roots.append(tree._require_fitted())
        native, reference = roots
        assert native.count == reference.count == 1, n_rows
        for name in ("value", "impurity"):
            assert getattr(native, name).tobytes() == getattr(
                reference, name
            ).tobytes(), (n_rows, name)
