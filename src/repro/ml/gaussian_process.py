"""Exact Gaussian Process regression via Cholesky factorisation.

The surrogate function of Smartpick's Bayesian Optimizer is a Gaussian
Process regressor, chosen because "the variance in prediction accurately
models the noise in observations" and "it can precisely generate values for
newer data points" (Section 3.1).  This module implements the textbook exact
GP (Rasmussen & Williams, Algorithm 2.1): posterior mean and variance from a
Cholesky factorisation of the kernel matrix, with incremental observation
updates that extend the factor by one row per point.  The Bayesian
Optimizer itself searches a fixed candidate set and conditions the same
posterior through :class:`~repro.ml.bayesian_optimizer.CandidatePosterior`;
this general regressor is the reference it is tested against.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.ml.kernels import Kernel, Matern52Kernel

__all__ = ["GaussianProcessRegressor"]


class GaussianProcessRegressor:
    """Gaussian Process regression with a fixed kernel.

    Parameters
    ----------
    kernel:
        Covariance function.  Defaults to Matern 5/2 with unit length scale.
    noise:
        Standard deviation of i.i.d. observation noise added to the kernel
        diagonal (also keeps the Cholesky factorisation well conditioned).
    normalize_targets:
        Standardise targets to zero mean / unit variance internally.  The
        posterior is mapped back to the original scale on prediction.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-3,
        normalize_targets: bool = True,
    ) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel if kernel is not None else Matern52Kernel()
        self.noise = float(noise)
        self.normalize_targets = normalize_targets
        self._train_points: np.ndarray | None = None
        self._train_targets: np.ndarray | None = None
        self._target_mean = 0.0
        self._target_std = 1.0
        self._cholesky: np.ndarray | None = None
        self._alpha: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, points: np.ndarray, targets: np.ndarray) -> "GaussianProcessRegressor":
        """Condition the GP on observations ``(points, targets)``."""
        points = self._as_points(points)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if points.shape[0] != targets.shape[0]:
            raise ValueError("points and targets disagree on sample count")
        if points.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")

        self._train_points = points
        self._train_targets = targets
        if self.normalize_targets:
            self._target_mean = float(targets.mean())
            std = float(targets.std())
            self._target_std = std if std > 1e-12 else 1.0
        else:
            self._target_mean, self._target_std = 0.0, 1.0
        self._refactor()
        return self

    def add_observation(self, point: np.ndarray, target: float) -> None:
        """Add one observation, re-conditioning the posterior in O(n^2).

        The Cholesky factor depends only on the kernel matrix, never on
        the targets, so it is *extended* by one rank-1 row (a triangular
        solve for the new column plus a scalar Schur complement) instead
        of being refactored from scratch.  Target re-normalisation only
        requires re-solving for ``alpha`` against the existing factor --
        also O(n^2) -- which takes the BO loop's per-probe cost from
        O(n^3) to O(n^2).  A full refactorisation only happens when the
        extension is numerically unsafe (non-positive Schur complement
        from a near-duplicate point at tiny noise).
        """
        point = np.atleast_2d(np.asarray(point, dtype=np.float64))
        if point.shape[0] != 1:
            raise ValueError("add_observation takes exactly one point")
        if self._train_points is None:
            self.fit(point, np.array([target]))
            return
        assert self._train_targets is not None
        extended = self._extend_cholesky(point)
        self._train_points = np.vstack([self._train_points, point])
        self._train_targets = np.append(self._train_targets, float(target))
        if self.normalize_targets:
            self._target_mean = float(self._train_targets.mean())
            std = float(self._train_targets.std())
            self._target_std = std if std > 1e-12 else 1.0
        if extended:
            self._resolve_alpha()
        else:
            self._refactor()

    def _extend_cholesky(self, point: np.ndarray) -> bool:
        """Grow the factor by one row for ``point``; ``False`` = unsafe.

        With ``K_new = [[K, k], [k^T, kappa]]`` the new factor is
        ``[[L, 0], [c^T, sqrt(kappa - c^T c)]]`` where ``L c = k`` -- the
        last step of the standard Cholesky algorithm, so the result is
        identical to refactoring from scratch.
        """
        if self._cholesky is None or self._train_points is None:
            return False
        cross = self.kernel(self._train_points, point).ravel()
        kappa = float(self.kernel(point, point)[0, 0]) + self.noise**2 + 1e-10
        column = scipy.linalg.solve_triangular(self._cholesky, cross, lower=True)
        schur = kappa - float(column @ column)
        if schur <= 1e-12:
            return False
        n = self._cholesky.shape[0]
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._cholesky
        grown[n, :n] = column
        grown[n, n] = np.sqrt(schur)
        self._cholesky = grown
        return True

    def _resolve_alpha(self) -> None:
        assert self._train_targets is not None and self._cholesky is not None
        normalized = (self._train_targets - self._target_mean) / self._target_std
        self._alpha = scipy.linalg.cho_solve((self._cholesky, True), normalized)

    def _refactor(self) -> None:
        assert self._train_points is not None and self._train_targets is not None
        gram = self.kernel(self._train_points, self._train_points)
        gram = gram + (self.noise**2 + 1e-10) * np.eye(gram.shape[0])
        self._cholesky = scipy.linalg.cholesky(gram, lower=True)
        self._resolve_alpha()

    # ------------------------------------------------------------------
    # Posterior queries
    # ------------------------------------------------------------------

    def predict(
        self, points: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally standard deviation) at ``points``."""
        points = self._as_points(points)
        if self._train_points is None:
            # The GP prior: zero mean, unit (kernel-diagonal) variance.
            mean = np.full(points.shape[0], self._target_mean)
            if not return_std:
                return mean
            std = np.sqrt(self.kernel.diagonal(points)) * self._target_std
            return mean, std

        assert self._cholesky is not None and self._alpha is not None
        cross = self.kernel(points, self._train_points)
        mean = cross @ self._alpha * self._target_std + self._target_mean
        if not return_std:
            return mean
        solved = scipy.linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        variance = self.kernel.diagonal(points) - np.sum(solved**2, axis=0)
        np.maximum(variance, 1e-12, out=variance)
        return mean, np.sqrt(variance) * self._target_std

    def sample(
        self,
        points: np.ndarray,
        n_samples: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw joint posterior samples at ``points`` -> (n_samples, n)."""
        generator = np.random.default_rng(rng)
        points = self._as_points(points)
        mean = self.predict(points)
        cov = self._posterior_covariance(points)
        return generator.multivariate_normal(
            mean, cov * self._target_std**2, size=n_samples, method="cholesky"
        )

    def _posterior_covariance(self, points: np.ndarray) -> np.ndarray:
        prior = self.kernel(points, points) + 1e-10 * np.eye(points.shape[0])
        if self._train_points is None:
            return prior
        assert self._cholesky is not None
        cross = self.kernel(points, self._train_points)
        solved = scipy.linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        cov = prior - solved.T @ solved
        # Clip tiny negative eigen-noise from finite precision.
        return cov + 1e-10 * np.eye(points.shape[0])

    def log_marginal_likelihood(self) -> float:
        """Log evidence of the conditioned data under the GP prior."""
        if self._train_targets is None or self._cholesky is None or self._alpha is None:
            raise RuntimeError("the GP has no observations yet")
        normalized = (self._train_targets - self._target_mean) / self._target_std
        n = normalized.shape[0]
        data_fit = -0.5 * float(normalized @ self._alpha)
        complexity = -float(np.sum(np.log(np.diag(self._cholesky))))
        return data_fit + complexity - 0.5 * n * np.log(2.0 * np.pi)

    @property
    def n_observations(self) -> int:
        if self._train_points is None:
            return 0
        return self._train_points.shape[0]

    @staticmethod
    def _as_points(points: np.ndarray) -> np.ndarray:
        """Normalise to (n, d); 1-D input is read as n scalar points."""
        array = np.asarray(points, dtype=np.float64)
        if array.ndim == 0:
            array = array.reshape(1, 1)
        elif array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValueError("points must be at most 2-D")
        return array
