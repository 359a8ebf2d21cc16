"""The BO surrogate's candidate-set posterior against the generic GP.

:class:`~repro.ml.bayesian_optimizer.CandidatePosterior` grows the GP
posterior over a fixed candidate set one probe at a time from the
memoized Gram.  After every probe its mean and standard deviation must
match :class:`~repro.ml.gaussian_process.GaussianProcessRegressor` with
the same Matern 5/2 kernel and noise, conditioned on the candidate rows,
to a relative error of at most ``1e-9``: elementwise for the standard
deviation, against the largest magnitude for the mean (a posterior mean
may pass through zero between probes, where an elementwise relative
error says nothing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.pricing import get_prices
from repro.cloud.providers import get_provider
from repro.core.predictor import WorkloadPredictor
from repro.ml.bayesian_optimizer import BayesianOptimizer, CandidatePosterior
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.kernels import Matern52Kernel

RTOL = 1e-9
NOISE = 1e-2


def _grid(mode: str, bound: int) -> np.ndarray:
    return WorkloadPredictor(
        get_provider("aws"), get_prices("aws"), max_vm=bound, max_sl=bound
    ).candidate_grid(mode)


def _assert_tracks_generic_gp(grid, order, targets):
    n = grid.shape[0]
    posterior = CandidatePosterior(BayesianOptimizer.candidate_gram(grid), NOISE)
    reference = GaussianProcessRegressor(
        Matern52Kernel(BayesianOptimizer._default_length_scale(grid)),
        noise=NOISE,
    )
    everything = np.arange(n)
    mean, std = posterior.predict(everything)
    assert np.array_equal(mean, np.zeros(n))
    assert np.array_equal(std, np.ones(n))
    for index in order:
        posterior.observe(int(index), float(targets[index]))
        reference.add_observation(grid[index], float(targets[index]))
        mean, std = posterior.predict(everything)
        expected_mean, expected_std = reference.predict(grid, return_std=True)
        np.testing.assert_allclose(std, expected_std, rtol=RTOL, atol=0.0)
        error = np.abs(mean - expected_mean).max()
        assert error <= RTOL * np.abs(expected_mean).max()


@pytest.mark.parametrize("mode", ["hybrid", "vm-only", "sl-only"])
@pytest.mark.parametrize("bound", [8, 12], ids=["9x9", "13x13"])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_generic_gp_after_every_probe(mode, bound, seed):
    grid = _grid(mode, bound)
    rng = np.random.default_rng([seed, bound])
    n = grid.shape[0]
    # Objective-like targets: negated seconds, as the BO loop sees them.
    seconds = 200.0 + 600.0 * rng.random(n)
    _assert_tracks_generic_gp(grid, rng.permutation(n), -seconds)
    _assert_tracks_generic_gp(
        grid, rng.permutation(n)[: max(1, n // 3)], rng.normal(0.0, 1.0, n)
    )


def test_constant_targets_keep_unit_scale():
    grid = _grid("hybrid", 8)
    _assert_tracks_generic_gp(
        grid, [5, 17, 40, 3], np.full(grid.shape[0], -250.0)
    )


def test_repeated_candidates_are_independent_observations():
    # Past one observation per candidate the buffers grow, and a repeat is
    # a second noisy observation at the same point, as in the generic GP.
    grid = _grid("vm-only", 8)
    rng = np.random.default_rng(7)
    order = np.concatenate([rng.permutation(8) for _ in range(3)])
    _assert_tracks_generic_gp(grid, order, -(300.0 + 100.0 * rng.random(8)))


def test_optimizer_searches_again_on_the_same_posterior():
    optimizer = BayesianOptimizer(
        objective=lambda point: -float((point[0] - 3.0) ** 2),
        candidates=np.arange(8.0)[:, None],
        n_initial=2,
        patience=50,
        rng=0,
    )
    first = optimizer.maximize(8)
    second = optimizer.maximize(8)
    assert first.n_evaluations == second.n_evaluations == 8
    assert first.best_point == second.best_point == (3.0,)


def test_normalization_is_numpy_mean_and_std_bitwise():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 80, 168):
        posterior = CandidatePosterior(np.eye(n), NOISE)
        targets = rng.normal(rng.normal(0.0, 500.0), 10.0 ** rng.uniform(-3, 3), n)
        for index, value in enumerate(targets):
            posterior.observe(index, float(value))
            seen = targets[: index + 1]
            std = float(seen.std())
            expected = (float(seen.mean()), std if std > 1e-12 else 1.0)
            assert posterior._normalization() == expected


def test_non_psd_gram_names_the_candidate():
    # An indefinite 2x2 "covariance": the second probe's Schur complement
    # is 1 + noise - 4 / (1 + noise) < 0.
    posterior = CandidatePosterior(np.array([[1.0, 2.0], [2.0, 1.0]]), NOISE)
    posterior.observe(0, 1.0)
    with pytest.raises(ValueError, match="candidate 1"):
        posterior.observe(1, 2.0)


def test_negative_prior_variance_rejected_on_first_probe():
    posterior = CandidatePosterior(np.array([[-1.0]]), NOISE)
    with pytest.raises(ValueError, match="candidate 0"):
        posterior.observe(0, 1.0)


def test_optimizer_surfaces_a_non_psd_gram():
    candidates = np.array([[0.0], [1.0]])
    optimizer = BayesianOptimizer(
        objective=lambda point: float(point[0]),
        candidates=candidates,
        n_initial=2,
        gram=np.array([[1.0, 2.0], [2.0, 1.0]]),
        rng=0,
    )
    with pytest.raises(ValueError, match="not positive semi-definite"):
        optimizer.maximize(10)
