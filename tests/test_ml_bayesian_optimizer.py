"""Unit tests for acquisitions and the Bayesian optimizer."""

import numpy as np
import pytest

from repro.ml import (
    BayesianOptimizer,
    ExpectedImprovement,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    make_acquisition,
)


class TestAcquisitions:
    def test_pi_is_a_probability(self):
        pi = ProbabilityOfImprovement(xi=0.0)
        scores = pi(np.array([0.0, 5.0]), np.array([1.0, 1.0]), best_value=2.0)
        assert ((scores >= 0) & (scores <= 1)).all()
        assert scores[1] > scores[0]

    def test_pi_half_at_best_value(self):
        pi = ProbabilityOfImprovement(xi=0.0)
        score = pi(np.array([2.0]), np.array([1.0]), best_value=2.0)
        assert score[0] == pytest.approx(0.5)

    def test_ei_zero_for_hopeless_candidates(self):
        ei = ExpectedImprovement(xi=0.0)
        score = ei(np.array([-100.0]), np.array([1e-9]), best_value=0.0)
        assert score[0] == pytest.approx(0.0, abs=1e-12)

    def test_ei_increases_with_mean(self):
        ei = ExpectedImprovement()
        scores = ei(np.array([0.0, 1.0, 2.0]), np.ones(3), best_value=0.5)
        assert scores[2] > scores[1] > scores[0]

    def test_ucb_ignores_best_value(self):
        ucb = UpperConfidenceBound(kappa=1.0)
        a = ucb(np.array([1.0]), np.array([2.0]), best_value=0.0)
        b = ucb(np.array([1.0]), np.array([2.0]), best_value=100.0)
        assert a[0] == b[0] == pytest.approx(3.0)

    def test_exploration_rewarded_by_uncertainty(self):
        for acq in (ProbabilityOfImprovement(), ExpectedImprovement(),
                    UpperConfidenceBound()):
            certain, uncertain = acq(
                np.array([1.0, 1.0]), np.array([0.01, 2.0]), best_value=2.0
            )
            assert uncertain > certain

    def test_factory_round_trip(self):
        assert isinstance(make_acquisition("pi"), ProbabilityOfImprovement)
        assert isinstance(make_acquisition("EI"), ExpectedImprovement)
        assert isinstance(make_acquisition("ucb", kappa=3.0), UpperConfidenceBound)
        with pytest.raises(ValueError):
            make_acquisition("nope")

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityOfImprovement(xi=-1.0)
        with pytest.raises(ValueError):
            ExpectedImprovement(xi=-0.1)
        with pytest.raises(ValueError):
            UpperConfidenceBound(kappa=-1.0)


def _grid_1d(n=101):
    return np.linspace(0.0, 10.0, n)[:, None]


class TestBayesianOptimizer:
    def test_finds_smooth_maximum(self):
        result = BayesianOptimizer(
            lambda p: -(p[0] - 3.0) ** 2, _grid_1d(), rng=0
        ).maximize(60)
        assert abs(result.best_point[0] - 3.0) < 0.5

    def test_uses_fewer_probes_than_exhaustive(self):
        result = BayesianOptimizer(
            lambda p: -(p[0] - 7.0) ** 2, _grid_1d(201), rng=1
        ).maximize(100)
        assert result.n_evaluations < 60

    def test_termination_rule_stops_on_stall(self):
        # A constant objective never improves: the optimizer should stop
        # after `patience` non-improving probes past the first.
        result = BayesianOptimizer(
            lambda p: 1.0, _grid_1d(), patience=10, rng=2
        ).maximize(100)
        assert result.converged
        assert result.n_evaluations <= 12

    def test_history_records_every_probe(self):
        result = BayesianOptimizer(
            lambda p: -abs(p[0] - 5.0), _grid_1d(), rng=3
        ).maximize(30)
        assert len(result.history) == result.n_evaluations
        values = [probe.value for probe in result.history]
        assert max(values) == pytest.approx(result.best_value)

    def test_never_probes_a_candidate_twice(self):
        result = BayesianOptimizer(
            lambda p: float(np.cos(p[0])), _grid_1d(40), rng=4
        ).maximize(60)
        points = result.explored_points
        assert len(points) == len(set(points))

    def test_exhausting_candidates_converges(self):
        result = BayesianOptimizer(
            lambda p: p[0], _grid_1d(5), patience=50, rng=5
        ).maximize(50)
        assert result.converged
        assert result.n_evaluations == 5
        assert result.best_point[0] == pytest.approx(10.0)

    def test_2d_grid(self):
        grid = np.array([[v, s] for v in range(8) for s in range(8)], float)
        result = BayesianOptimizer(
            lambda p: -((p[0] - 4) ** 2 + (p[1] - 2) ** 2), grid, rng=6
        ).maximize(64)
        assert result.best_point == (4.0, 2.0)

    def test_deterministic_for_seed(self):
        runs = [
            BayesianOptimizer(
                lambda p: -(p[0] - 2.0) ** 2, _grid_1d(), rng=7
            ).maximize(30).explored_points
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_passed_gram_equals_built_gram(self):
        grid = np.array([[v, s] for v in range(6) for s in range(6)], float)

        def run(gram):
            return BayesianOptimizer(
                lambda p: -abs(p[0] - 2.0) - abs(p[1] - 4.0), grid,
                gram=gram, rng=8,
            ).maximize(30)

        built, passed = run(None), run(BayesianOptimizer.candidate_gram(grid))
        assert built.history == passed.history
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda p: 0.0, grid, gram=np.eye(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda p: 0.0, np.zeros((0, 1)))
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda p: 0.0, _grid_1d(), patience=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda p: 0.0, _grid_1d(), n_initial=0)
        with pytest.raises(ValueError, match="noise"):
            BayesianOptimizer(lambda p: 0.0, _grid_1d(), noise=-0.1)
        bo = BayesianOptimizer(lambda p: 0.0, _grid_1d())
        with pytest.raises(ValueError):
            bo.maximize(0)
