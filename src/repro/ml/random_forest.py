"""Bagging Random Forest regressor with ``warm_start`` support.

Smartpick's workload predictor quantifies query completion time with a
decision-tree based Random Forest (Eq. 1 of the paper), retrained in the
background with ``warm_start`` when prediction error exceeds the configured
trigger (Section 5, *Prediction model updates*).  This module provides that
regressor: bootstrap-sampled CART trees averaged at prediction time, with

- ``warm_start=True`` appending new trees to an existing ensemble rather
  than refitting from scratch,
- per-ensemble feature importances,
- out-of-bag (OOB) error estimation, and
- per-tree prediction spread (used as an uncertainty proxy).
"""

from __future__ import annotations

import numpy as np

from repro.ml.decision_tree import DecisionTreeRegressor
from repro.ml.forest_inference import PackedForest

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Ensemble of bootstrap-fitted CART regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.  Under ``warm_start`` this is the *target* ensemble
        size; ``fit`` adds trees until it is reached.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Forwarded to each :class:`~repro.ml.decision_tree.DecisionTreeRegressor`.
        ``max_features`` defaults to one third of the features, the common
        regression heuristic.
    bootstrap:
        Draw each tree's training set with replacement when ``True``.
    oob_score:
        Track which samples each tree did *not* see so
        :meth:`oob_prediction` / :attr:`oob_rmse_` become available.
    warm_start:
        When ``True``, subsequent ``fit`` calls keep existing trees and only
        fit the shortfall, mirroring scikit-learn semantics and the paper's
        retraining implementation.
    rng:
        Seed or generator controlling bootstrap draws and per-tree feature
        sub-sampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = 1 / 3,
        bootstrap: bool = True,
        oob_score: bool = False,
        warm_start: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.warm_start = warm_start
        self._rng = np.random.default_rng(rng)
        self.trees_: list[DecisionTreeRegressor] = []
        self._oob_masks: list[np.ndarray] = []
        self._train_shape: tuple[int, int] | None = None
        self.oob_rmse_: float | None = None
        self._pack: PackedForest | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        """Fit (or, under ``warm_start``, extend) the ensemble."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or targets.ndim != 1:
            raise ValueError("features must be 2-D and targets 1-D")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit a forest on zero samples")

        if not self.warm_start:
            self.trees_ = []
            self._oob_masks = []
        elif self._train_shape is not None and self._train_shape[1] != features.shape[1]:
            raise ValueError(
                "warm_start refit must keep the same number of features "
                f"({self._train_shape[1]} != {features.shape[1]})"
            )
        self._train_shape = features.shape

        n_samples = features.shape[0]
        shortfall = self.n_estimators - len(self.trees_)
        for _ in range(max(shortfall, 0)):
            if self.bootstrap:
                sample_indices = self._rng.integers(0, n_samples, size=n_samples)
            else:
                sample_indices = np.arange(n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self._rng,
            )
            tree.fit(features[sample_indices], targets[sample_indices])
            self.trees_.append(tree)
            if self.oob_score:
                mask = np.ones(n_samples, dtype=bool)
                mask[np.unique(sample_indices)] = False
                self._oob_masks.append(mask)
        if shortfall > 0 or not self.warm_start:
            self._pack = None  # the ensemble changed; recompile lazily

        if self.oob_score:
            self._compute_oob(features, targets)
        return self

    def add_trees(self, features: np.ndarray, targets: np.ndarray, n_new: int) -> None:
        """Grow the ensemble by ``n_new`` trees on (possibly new) data.

        This is the primitive behind incremental batch retraining
        (``smartpick.train.max.batch``): the existing trees are kept, so the
        model absorbs new workload samples without discarding history.
        """
        if n_new < 1:
            raise ValueError("n_new must be at least 1")
        previous_warm, previous_target = self.warm_start, self.n_estimators
        self.warm_start = True
        self.n_estimators = len(self.trees_) + n_new
        try:
            self.fit(features, targets)
        finally:
            self.warm_start = previous_warm
            self.n_estimators = max(previous_target, len(self.trees_))

    def _compute_oob(self, features: np.ndarray, targets: np.ndarray) -> None:
        n_samples = features.shape[0]
        totals = np.zeros(n_samples)
        counts = np.zeros(n_samples)
        # One packed descent yields every tree's row predictions; the OOB
        # masks then pick each tree's held-out rows from its matrix row.
        matrix = self.packed().tree_matrix(features)
        for tree_index, mask in enumerate(self._oob_masks):
            if mask.shape[0] != n_samples or not np.any(mask):
                continue
            totals[mask] += matrix[tree_index, mask]
            counts[mask] += 1
        covered = counts > 0
        if not np.any(covered):
            self.oob_rmse_ = None
            return
        residuals = totals[covered] / counts[covered] - targets[covered]
        self.oob_rmse_ = float(np.sqrt(np.mean(residuals**2)))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean prediction across trees for ``features`` (n x d) -> (n,)."""
        return self.tree_matrix(features).mean(axis=0)

    def predict_with_spread(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mean, std)`` across the ensemble's trees.

        The per-tree standard deviation is a cheap epistemic-uncertainty
        proxy; the BO surrogate uses it to seed observation noise.
        """
        matrix = self.tree_matrix(features)
        return matrix.mean(axis=0), matrix.std(axis=0)

    def packed(self) -> PackedForest:
        """The compiled :class:`PackedForest` for the current ensemble.

        Compiled lazily and cached; ``fit`` / ``add_trees`` invalidate it
        whenever the tree list changes, so the pack always mirrors
        ``trees_`` exactly.
        """
        if not self.trees_:
            raise RuntimeError("this forest has not been fitted yet")
        if self._pack is None or self._pack.n_trees != len(self.trees_):
            self._pack = PackedForest.from_trees(self.trees_)
        return self._pack

    def tree_matrix(self, features: np.ndarray) -> np.ndarray:
        """Per-tree predictions for ``features`` -> ``(n_trees, n_rows)``."""
        return self.packed().tree_matrix(features)

    def _tree_matrix_loop(self, features: np.ndarray) -> np.ndarray:
        """Reference per-tree walk (the pre-pack implementation).

        Kept so equivalence tests and ``benchmarks/bench_inference.py``
        can assert the packed engine is bitwise identical to -- and
        measure its speedup over -- the straightforward loop.
        """
        if not self.trees_:
            raise RuntimeError("this forest has not been fitted yet")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return np.stack([tree.predict(features) for tree in self.trees_])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def feature_importances(self) -> np.ndarray:
        """Average normalised impurity importance across trees."""
        if not self.trees_:
            raise RuntimeError("this forest has not been fitted yet")
        stacked = np.stack([tree.feature_importances() for tree in self.trees_])
        mean = stacked.mean(axis=0)
        norm = mean.sum()
        return mean / norm if norm > 0 else mean

    @property
    def n_trees(self) -> int:
        return len(self.trees_)
