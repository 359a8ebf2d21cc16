"""CART regression trees.

A minimal but complete implementation of classification-and-regression-tree
(CART) *regression*: binary axis-aligned splits chosen to maximise the
reduction in the sum of squared errors.  The tree is stored in flat numpy
arrays (one slot per node) so prediction is a tight loop rather than a
recursive object walk.

The implementation supports the knobs the Smartpick reproduction needs:

- ``max_depth``, ``min_samples_split``, ``min_samples_leaf`` regularisers,
- ``max_features`` random feature sub-sampling (used by the Random Forest),
- deterministic behaviour under an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import numpy as np

from repro.ml import forest_native

__all__ = ["DecisionTreeRegressor"]

_NO_CHILD = -1


class _TreeBuffers:
    """Growable flat arrays holding one entry per tree node.

    Children are addressed by index; ``_NO_CHILD`` marks a leaf.  Buffers are
    doubled on demand and trimmed once growth finishes.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        capacity = max(int(initial_capacity), 1)
        self.feature = np.full(capacity, _NO_CHILD, dtype=np.int64)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.left = np.full(capacity, _NO_CHILD, dtype=np.int64)
        self.right = np.full(capacity, _NO_CHILD, dtype=np.int64)
        self.value = np.zeros(capacity, dtype=np.float64)
        self.n_samples = np.zeros(capacity, dtype=np.int64)
        self.impurity = np.zeros(capacity, dtype=np.float64)
        self.count = 0

    def allocate(self) -> int:
        if self.count == self.feature.shape[0]:
            self._grow()
        index = self.count
        self.count += 1
        return index

    def _grow(self) -> None:
        new_capacity = self.feature.shape[0] * 2
        for name in ("feature", "threshold", "left", "right", "value",
                     "n_samples", "impurity"):
            old = getattr(self, name)
            fill = _NO_CHILD if old.dtype == np.int64 else 0
            new = np.full(new_capacity, fill, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def trim(self) -> None:
        for name in ("feature", "threshold", "left", "right", "value",
                     "n_samples", "impurity"):
            setattr(self, name, getattr(self, name)[: self.count].copy())


class DecisionTreeRegressor:
    """A CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum depth of the tree; ``None`` grows until leaves are pure or
        hit the sample-count limits.
    min_samples_split:
        A node with fewer samples than this is never split.
    min_samples_leaf:
        Every leaf must contain at least this many training samples.
    max_features:
        Number of features examined per split.  ``None`` uses all features;
        ``"sqrt"`` / ``"log2"`` use the usual heuristics; an ``int`` uses that
        many; a ``float`` in (0, 1] uses that fraction.
    rng:
        Random generator used for feature sub-sampling.  Only consulted when
        ``max_features`` actually restricts the candidate set.

    ``fit`` grows the whole tree in one call to the native ``cart_grow``
    kernel (:mod:`repro.ml.forest_native`) when the kernel is loaded, every
    split scores every feature, and features and targets are all finite.
    The numpy grower (:meth:`_grow`) runs otherwise: with
    ``REPRO_DISABLE_NATIVE=1`` or no C compiler, under feature
    sub-sampling (its ``rng`` draws stay in numpy's order), or on NaN or
    infinite inputs.  Both engines build bitwise identical trees.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 when given")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = np.random.default_rng(rng)
        self._buffers: _TreeBuffers | None = None
        self._n_features: int | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``features`` (n x d) against ``targets`` (n,)."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if targets.ndim != 1:
            raise ValueError("targets must be a 1-D array")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")

        self._n_features = features.shape[1]
        kernel = forest_native.load_kernel()
        if (
            kernel is not None
            and self._examines_every_feature()
            and np.isfinite(features).all()
            and np.isfinite(targets).all()
        ):
            self._buffers = self._grow_native(kernel, features, targets)
            return self
        self._buffers = _TreeBuffers()
        indices = np.arange(features.shape[0])
        self._grow(features, targets, indices, depth=0)
        self._buffers.trim()
        return self

    def _examines_every_feature(self) -> bool:
        """Whether every split scores every feature, drawing nothing."""
        try:
            return self._n_split_candidates() >= self._n_features
        except ValueError:
            return False  # the numpy grower raises at the first split

    def _grow_native(
        self, kernel, features: np.ndarray, targets: np.ndarray
    ) -> _TreeBuffers:
        """The whole tree in one ``cart_grow`` call, bitwise :meth:`_grow`'s."""
        n_rows, n_features = features.shape
        buffers = _TreeBuffers(2 * n_rows - 1)
        count = kernel.cart_grow(
            np.ascontiguousarray(features.T),
            np.ascontiguousarray(targets),
            n_rows,
            n_features,
            -1 if self.max_depth is None else self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            buffers.feature, buffers.threshold, buffers.left, buffers.right,
            buffers.value, buffers.n_samples, buffers.impurity,
        )
        if count < 0:
            raise MemoryError("cart_grow could not allocate its scratch")
        buffers.count = count
        buffers.trim()
        return buffers

    def _n_split_candidates(self) -> int:
        assert self._n_features is not None
        n = self._n_features
        spec = self.max_features
        if spec is None:
            return n
        if spec == "sqrt":
            return max(1, int(np.sqrt(n)))
        if spec == "log2":
            return max(1, int(np.log2(n))) if n > 1 else 1
        if isinstance(spec, float):
            if not 0.0 < spec <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(round(spec * n)))
        if isinstance(spec, int):
            if not 1 <= spec <= n:
                raise ValueError("int max_features must be in [1, n_features]")
            return spec
        raise ValueError(f"unsupported max_features spec: {spec!r}")

    def _grow(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> int:
        buffers = self._buffers
        assert buffers is not None
        node = buffers.allocate()
        n_node = indices.shape[0]
        node_targets = targets[indices]
        # Bitwise ``np.mean`` / ``np.var``: the same pairwise sums and
        # divisions, without their per-call argument handling.
        mean = float(np.add.reduce(node_targets)) / n_node
        deviation = node_targets - mean
        np.square(deviation, out=deviation)
        buffers.value[node] = mean
        buffers.n_samples[node] = n_node
        buffers.impurity[node] = float(np.add.reduce(deviation)) / n_node

        if self._should_stop(n_node, depth, node_targets):
            return node

        split = self._find_split(features, node_targets, indices)
        if split is None:
            return node
        feature_index, threshold = split

        mask = features[indices, feature_index] <= threshold
        left_indices = indices[mask]
        right_indices = indices[~mask]
        # Guard against degenerate splits from floating-point threshold ties.
        if left_indices.shape[0] == 0 or right_indices.shape[0] == 0:
            return node

        buffers.feature[node] = feature_index
        buffers.threshold[node] = threshold
        buffers.left[node] = self._grow(features, targets, left_indices, depth + 1)
        buffers.right[node] = self._grow(features, targets, right_indices, depth + 1)
        return node

    def _should_stop(self, n_node: int, depth: int, node_targets: np.ndarray) -> bool:
        if n_node < self.min_samples_split:
            return True
        if n_node < 2 * self.min_samples_leaf:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        return bool((node_targets == node_targets[0]).all())

    def _find_split(
        self,
        features: np.ndarray,
        node_targets: np.ndarray,
        indices: np.ndarray,
    ) -> tuple[int, float] | None:
        """Best ``(feature, threshold)``, scoring all candidates at once.

        Each column of the node's ``(n, f)`` block is stably sorted and
        prefix sums give every split's reduction in squared error.  A
        column's best is its first maximal finite gain; candidates are
        taken in order, a later one winning only by more than 1e-12.
        """
        assert self._n_features is not None
        n_candidates = self._n_split_candidates()
        if n_candidates < self._n_features:
            candidates = self._rng.choice(
                self._n_features, size=n_candidates, replace=False
            )
        else:
            candidates = np.arange(self._n_features)

        n = indices.shape[0]
        columns = np.arange(candidates.shape[0])
        block = features.take(indices, axis=0).take(candidates, axis=1)
        order = block.argsort(axis=0, kind="mergesort")
        sorted_values = block[order, columns]
        sorted_targets = node_targets.take(order)

        prefix_sum = sorted_targets.cumsum(axis=0)
        np.multiply(sorted_targets, sorted_targets, out=sorted_targets)
        prefix_sq = sorted_targets.cumsum(axis=0)
        total_sum = prefix_sum[-1]
        total_sq = prefix_sq[-1]

        left_counts = np.arange(1, n, dtype=np.float64)[:, None]
        right_counts = n - left_counts

        left_sum = prefix_sum[:-1]
        right_sum = total_sum - left_sum
        left_sq = prefix_sq[:-1]
        right_sq = total_sq - left_sq

        left_sse = left_sq - left_sum * left_sum / left_counts
        right_sse = right_sq - right_sum * right_sum / right_counts
        parent_sse = total_sq - total_sum * total_sum / n
        gains = parent_sse - (left_sse + right_sse)

        # A split between equal feature values is not realisable, nor one
        # that leaves a side with fewer than ``min_samples_leaf`` rows.
        unrealisable = ~(sorted_values[:-1] < sorted_values[1:])
        leaf = self.min_samples_leaf
        if leaf > 1:
            unrealisable[: leaf - 1] = True
            unrealisable[n - leaf:] = True
        gains[unrealisable] = -np.inf

        rows = gains.argmax(axis=0)
        best_gain = 0.0
        best_column = -1
        for column, gain in enumerate(gains[rows, columns].tolist()):
            if best_gain + 1e-12 < gain < np.inf:
                best_gain = gain
                best_column = column
        if best_column < 0:
            return None
        row = rows[best_column]
        threshold = 0.5 * (
            sorted_values[row, best_column] + sorted_values[row + 1, best_column]
        )
        return int(candidates[best_column]), float(threshold)

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n x d) -> (n,)."""
        buffers = self._require_fitted()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {features.shape[1]}"
            )
        out = np.empty(features.shape[0], dtype=np.float64)
        # Vectorised level-order descent: all rows walk the tree in lock-step.
        node_of_row = np.zeros(features.shape[0], dtype=np.int64)
        active = buffers.left[node_of_row] != _NO_CHILD
        while np.any(active):
            rows = np.nonzero(active)[0]
            nodes = node_of_row[rows]
            go_left = (
                features[rows, buffers.feature[nodes]] <= buffers.threshold[nodes]
            )
            node_of_row[rows] = np.where(
                go_left, buffers.left[nodes], buffers.right[nodes]
            )
            active[rows] = buffers.left[node_of_row[rows]] != _NO_CHILD
        out[:] = buffers.value[node_of_row]
        return out

    def decision_path_length(self, features: np.ndarray) -> np.ndarray:
        """Depth of the leaf each row lands in (root = 0).

        Same vectorised lock-step descent as :meth:`predict`: all rows
        advance one level per iteration, and rows that reach a leaf drop
        out of the active set.
        """
        buffers = self._require_fitted()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        depths = np.zeros(features.shape[0], dtype=np.int64)
        node_of_row = np.zeros(features.shape[0], dtype=np.int64)
        active = buffers.left[node_of_row] != _NO_CHILD
        while np.any(active):
            rows = np.nonzero(active)[0]
            nodes = node_of_row[rows]
            go_left = (
                features[rows, buffers.feature[nodes]] <= buffers.threshold[nodes]
            )
            node_of_row[rows] = np.where(
                go_left, buffers.left[nodes], buffers.right[nodes]
            )
            depths[rows] += 1
            active[rows] = buffers.left[node_of_row[rows]] != _NO_CHILD
        return depths

    def feature_importances(self) -> np.ndarray:
        """Impurity-weighted split importance, normalised to sum to 1."""
        buffers = self._require_fitted()
        assert self._n_features is not None
        importances = np.zeros(self._n_features, dtype=np.float64)
        total = buffers.n_samples[0]
        for node in range(buffers.count):
            if buffers.left[node] == _NO_CHILD:
                continue
            left = int(buffers.left[node])
            right = int(buffers.right[node])
            weighted_parent = buffers.n_samples[node] * buffers.impurity[node]
            weighted_children = (
                buffers.n_samples[left] * buffers.impurity[left]
                + buffers.n_samples[right] * buffers.impurity[right]
            )
            importances[buffers.feature[node]] += (
                weighted_parent - weighted_children
            ) / total
        norm = importances.sum()
        if norm > 0:
            importances /= norm
        return importances

    @property
    def node_count(self) -> int:
        return self._require_fitted().count

    @property
    def depth(self) -> int:
        buffers = self._require_fitted()
        max_depth = 0
        stack = [(0, 0)]
        while stack:
            node, node_depth = stack.pop()
            max_depth = max(max_depth, node_depth)
            if buffers.left[node] != _NO_CHILD:
                stack.append((int(buffers.left[node]), node_depth + 1))
                stack.append((int(buffers.right[node]), node_depth + 1))
        return max_depth

    @property
    def n_leaves(self) -> int:
        buffers = self._require_fitted()
        return int(np.count_nonzero(buffers.left[: buffers.count] == _NO_CHILD))

    def _require_fitted(self) -> _TreeBuffers:
        if self._buffers is None:
            raise RuntimeError("this tree has not been fitted yet")
        return self._buffers
