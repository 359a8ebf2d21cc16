"""Packed-forest inference: one lock-step descent for a whole ensemble.

The Workload Predictor sits inline on every query arrival, so Random
Forest inference latency bounds serving throughput.  Walking the ensemble
as ``n_estimators`` separate Python-level tree traversals pays numpy
dispatch overhead once per tree per depth level; for a 100-tree forest
sizing a 13x13 candidate grid that is thousands of small array operations
per decision.

:class:`PackedForest` removes the per-tree loop entirely.  At compile
time every tree's flat node buffers (``feature`` / ``threshold`` /
``left`` / ``right`` / ``value``) are concatenated into single contiguous
arrays, then BFS-renumbered across the whole forest so sibling nodes are
adjacent (``right == left + 1``) and each tree's root sits at index
``tree_index``.  At inference time *all* ``(tree, row)`` pairs descend
this shared arena in lock-step -- either through a small compiled kernel
(:mod:`repro.ml.forest_native`, built on demand with the system C
compiler) or through a vectorized numpy descent when no compiler is
available.

Both engines route every row through exactly the same float64
comparisons to the same leaf values, so packed predictions are *bitwise
equal* to the per-tree walk, not merely close.  (Features must be
finite: the engines agree with the per-tree walk on every real input,
but NaN feature values have no defined routing.)

The pack is immutable; :class:`~repro.ml.random_forest.RandomForestRegressor`
compiles one lazily after ``fit`` / ``add_trees`` (which invalidate any
previous pack) and routes ``predict``, ``predict_with_spread`` and OOB
scoring through it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.decision_tree import _NO_CHILD, DecisionTreeRegressor
from repro.ml import forest_native

#: ``(tree, row)`` lanes per numpy-fallback descent chunk.  Each lane
#: carries ~40 bytes of int64/float64 state, so 256k lanes keep one
#: chunk's working set around 10 MB (resident in a typical L2+L3) and
#: bound the per-level compaction scans; measured ~10x faster than
#: whole-batch descent at 200k rows x 40 trees, and the best of the
#: 64k..1M settings tried.
_NUMPY_CHUNK_LANES = 262_144

__all__ = ["PackedForest"]


class PackedForest:
    """Flat, contiguous representation of a fitted tree ensemble.

    Attributes
    ----------
    feature, threshold, left, right, value:
        Concatenation of every tree's node buffers in whole-forest BFS
        order.  ``left`` / ``right`` hold *global* node indices;
        ``_NO_CHILD`` still marks a leaf, and ``right == left + 1`` for
        every internal node.
    roots:
        Global index of each tree's root node -- ``roots[t] == t`` by
        construction, kept explicit for clarity.
    n_trees, n_nodes, n_features:
        Ensemble shape.
    n_levels:
        Depth of the deepest tree; the maximum number of descent steps
        any row can take.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        n_levels: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.n_features = int(n_features)
        self.n_levels = int(n_levels)
        self.n_trees = int(roots.shape[0])
        self.n_nodes = int(feature.shape[0])
        self._node_table: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_trees(cls, trees: Sequence[DecisionTreeRegressor]) -> "PackedForest":
        """Concatenate fitted trees into one BFS-ordered node arena."""
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        buffers = [tree._require_fitted() for tree in trees]
        n_features = {tree._n_features for tree in trees}
        if len(n_features) != 1 or None in n_features:
            raise ValueError("all trees must share one feature count")

        counts = np.array([buffer.count for buffer in buffers], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        total = int(counts.sum())

        feature = np.empty(total, dtype=np.int64)
        threshold = np.empty(total, dtype=np.float64)
        left = np.empty(total, dtype=np.int64)
        right = np.empty(total, dtype=np.int64)
        value = np.empty(total, dtype=np.float64)
        for buffer, offset in zip(buffers, offsets):
            stop = offset + buffer.count
            feature[offset:stop] = buffer.feature
            threshold[offset:stop] = buffer.threshold
            value[offset:stop] = buffer.value
            # Rebase child pointers into the shared arena; leaves keep the
            # _NO_CHILD sentinel.
            left[offset:stop] = np.where(
                buffer.left == _NO_CHILD, _NO_CHILD, buffer.left + offset
            )
            right[offset:stop] = np.where(
                buffer.right == _NO_CHILD, _NO_CHILD, buffer.right + offset
            )

        # Whole-forest BFS renumbering: process all roots as level 0, then
        # interleave every internal node's (left, right) children so
        # siblings land on adjacent indices.  order[new_id] = old_id.
        chunks = [offsets]
        frontier = offsets
        while frontier.size:
            internal = frontier[left[frontier] != _NO_CHILD]
            if internal.size == 0:
                break
            kids = np.column_stack(
                (left[internal], right[internal])
            ).ravel()
            chunks.append(kids)
            frontier = kids
        order = np.concatenate(chunks)
        new_id = np.empty(total, dtype=np.int64)
        new_id[order] = np.arange(total)

        old_left = left[order]
        is_leaf = old_left == _NO_CHILD
        return cls(
            feature=feature[order],
            threshold=threshold[order],
            left=np.where(is_leaf, _NO_CHILD, new_id[np.where(is_leaf, 0, old_left)]),
            right=np.where(
                is_leaf, _NO_CHILD, new_id[np.where(is_leaf, 0, right[order])]
            ),
            value=value[order],
            roots=new_id[offsets],
            n_features=n_features.pop(),
            n_levels=len(chunks) - 1,
        )

    def _native_table(self) -> np.ndarray:
        """The 16-byte-per-node record array the C kernel descends.

        Leaves self-loop (``left == self`` with a ``+inf`` threshold) so
        the kernel advances every lane branch-free; built lazily and
        cached, and -- being a plain numpy array -- survives pickling.
        """
        if self._node_table is None:
            is_leaf = self.left == _NO_CHILD
            table = np.empty(self.n_nodes, dtype=forest_native.NODE_DTYPE)
            table["threshold"] = np.where(is_leaf, np.inf, self.threshold)
            table["feature"] = np.where(is_leaf, 0, self.feature)
            table["left"] = np.where(is_leaf, np.arange(self.n_nodes), self.left)
            self._node_table = table
        return self._node_table

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def tree_matrix(self, features: np.ndarray) -> np.ndarray:
        """Per-tree predictions for ``features`` -> ``(n_trees, n_rows)``.

        All ``(tree, row)`` pairs descend the shared node arena in
        lock-step through the compiled kernel when one is available, or
        the numpy fallback otherwise; both produce bitwise-identical
        matrices for finite inputs.  NaN features have no defined
        routing (the engines may descend different subtrees); callers
        must not pass them.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {features.shape[1]}"
            )
        if features.shape[0] == 0:
            return np.empty((self.n_trees, 0), dtype=np.float64)
        kernel = forest_native.load_kernel()
        if kernel is not None:
            return self._descend_native(kernel, features)
        return self._descend_numpy(features)

    def _descend_native(self, kernel, features: np.ndarray) -> np.ndarray:
        features = np.ascontiguousarray(features)
        n_rows = features.shape[0]
        table = self._native_table()
        out = np.empty(self.n_trees * n_rows, dtype=np.float64)
        kernel.forest_tree_matrix(
            table,
            self.value,
            self.roots,
            self.n_trees,
            self.n_levels,
            features,
            n_rows,
            self.n_features,
            out,
        )
        return out.reshape(self.n_trees, n_rows)

    def _descend_numpy(self, features: np.ndarray) -> np.ndarray:
        """Vectorized fallback descent, chunked over rows.

        Each ``(tree, row)`` lane carries several int64 state arrays;
        descending a huge batch in one go spills them out of cache, so
        rows are processed in chunks sized to keep the lane working set
        cache-resident (about ``_NUMPY_CHUNK_LANES`` lanes each).  Rows
        descend independently, so chunking is bitwise-invisible.
        """
        n_rows = features.shape[0]
        per_chunk = max(1, _NUMPY_CHUNK_LANES // self.n_trees)
        if n_rows <= per_chunk:
            return self._descend_numpy_block(features)
        out = np.empty((self.n_trees, n_rows), dtype=np.float64)
        for start in range(0, n_rows, per_chunk):
            stop = min(start + per_chunk, n_rows)
            out[:, start:stop] = self._descend_numpy_block(
                features[start:stop]
            )
        return out

    def _descend_numpy_block(self, features: np.ndarray) -> np.ndarray:
        """One chunk's descent with finished-pair compaction."""
        n_rows = features.shape[0]
        flat = features.ravel()
        out = np.empty(self.n_trees * n_rows, dtype=np.float64)

        nodes = np.repeat(self.roots, n_rows)
        # Row offsets into the flattened feature matrix; compacted along
        # with the node state so one `take` per level replaces the slow
        # (row, column) fancy index.
        row_base = np.tile(
            np.arange(n_rows, dtype=np.int64) * self.n_features, self.n_trees
        )
        slots = None  # None = identity mapping into `out`
        at_leaf = self.left.take(nodes) == _NO_CHILD
        while True:
            if at_leaf.any():
                done = at_leaf.nonzero()[0]
                targets = done if slots is None else slots.take(done)
                out[targets] = self.value.take(nodes.take(done))
                if done.size == nodes.size:
                    break
                keep = np.logical_not(at_leaf).nonzero()[0]
                nodes = nodes.take(keep)
                row_base = row_base.take(keep)
                slots = keep if slots is None else slots.take(keep)
            column = self.feature.take(nodes)
            np.add(column, row_base, out=column)
            go_left = flat.take(column) <= self.threshold.take(nodes)
            nodes = np.where(go_left, self.left.take(nodes), self.right.take(nodes))
            at_leaf = self.left.take(nodes) == _NO_CHILD
        return out.reshape(self.n_trees, n_rows)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction, bitwise equal to the per-tree walk."""
        return self.tree_matrix(features).mean(axis=0)

    def predict_with_spread(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` across trees from one packed descent."""
        matrix = self.tree_matrix(features)
        return matrix.mean(axis=0), matrix.std(axis=0)

    @property
    def engine(self) -> str:
        """Which descent engine :meth:`tree_matrix` will use."""
        return forest_native.kernel_name()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedForest(n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
            f"n_features={self.n_features}, engine={self.engine!r})"
        )
