"""The native BO probe step against the numpy candidate-set posterior.

With the compiled kernel available, :class:`BayesianOptimizer` keeps its
surrogate in :class:`~repro.ml.bayesian_optimizer.NativePosterior`, whose
``bo_step`` conditions on a probe and scores the candidates for PI in
one call.  :class:`~repro.ml.bayesian_optimizer.CandidatePosterior` stays the
numpy fallback and the reference:

- after every probe the native mean matches it to ``1e-12`` of the
  largest magnitude, and the posterior variance (the standard deviation
  over the target scale, squared) to ``1e-12`` of the prior variance.
  The standard deviation itself is not compared elementwise: at a probed
  candidate the variance is down near the noise nugget, and its square
  root turns a rounding-level difference of the GEMV's summation order
  into a ``1e-12``-level relative one;
- the z-scores it hands to ``ndtr`` are bitwise the ones
  :class:`~repro.ml.acquisition.ProbabilityOfImprovement` computes from
  the native mean and std, for exactly the unprobed candidates;
- ``determine`` makes the same decisions and leaves the predictor's
  generator in the same state on both engines.  The surrogates agree to
  rounding, not bitwise, so this rests on no PI score sitting in a
  near-tie, as in ``tests/test_properties.py``;
- a Gram that is not positive semi-definite raises the same error,
  naming the same candidate, on both.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.pricing import get_prices
from repro.cloud.providers import get_provider
from repro.core import predictor as predictor_module
from repro.core.predictor import PredictionRequest, WorkloadPredictor
from repro.ml import forest_native
from repro.ml.acquisition import make_acquisition
from repro.ml.bayesian_optimizer import (
    BayesianOptimizer,
    CandidatePosterior,
    NativePosterior,
)

from test_determine_golden import trained_predictor

KERNEL = forest_native.load_kernel()
pytestmark = pytest.mark.skipif(KERNEL is None, reason="native kernel unavailable")

NOISE = 1e-2
TOLERANCE = 1e-12
_MODES = ("hybrid", "vm-only", "sl-only")
#: Predictor bounds of the 9x9 and 13x13 grids.
_BOUNDS = (8, 12)


@functools.lru_cache(maxsize=None)
def _grid(mode: str, bound: int) -> np.ndarray:
    return WorkloadPredictor(
        get_provider("aws"), get_prices("aws"), max_vm=bound, max_sl=bound
    ).candidate_grid(mode)


@functools.lru_cache(maxsize=None)
def _gram(mode: str, bound: int) -> np.ndarray:
    return BayesianOptimizer.candidate_gram(_grid(mode, bound))


def _pair(gram: np.ndarray) -> tuple[NativePosterior, CandidatePosterior, np.ndarray]:
    unprobed = np.ones(gram.shape[0], dtype=bool)
    native = NativePosterior(gram, NOISE, unprobed, KERNEL)
    return native, CandidatePosterior(gram, NOISE), unprobed


def _assert_posteriors_match(native, reference):
    everything = np.arange(native.mean.shape[0])
    mean, std = native.predict(everything)
    expected_mean, expected_std = reference.predict(everything)
    assert np.abs(mean - expected_mean).max() <= TOLERANCE * max(
        np.abs(expected_mean).max(), 1.0
    )
    scale = reference._normalization()[1]
    variance = (std / scale) ** 2
    expected_variance = (expected_std / scale) ** 2
    assert np.abs(variance - expected_variance).max() <= TOLERANCE


def _assert_scores_are_numpy_pi(native, unprobed, best, xi, count):
    """The native z-scores are numpy PI's, bitwise, for the unprobed."""
    remaining = np.nonzero(unprobed)[0]
    std = np.maximum(native.std[remaining], 1e-12)
    expected = (native.mean[remaining] - best - xi) / std
    assert np.array_equal(native.remaining[:count], remaining)
    assert np.array_equal(native.remaining_z[:count], expected)


@given(
    mode=st.sampled_from(_MODES),
    bound=st.sampled_from(_BOUNDS),
    n_probes=st.integers(min_value=1, max_value=60),
    center=st.floats(min_value=-900.0, max_value=-50.0),
    spread=st.floats(min_value=0.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_posterior_matches_numpy_after_every_probe(
    mode, bound, n_probes, center, spread, seed
):
    gram = _gram(mode, bound)
    native, reference, unprobed = _pair(gram)
    rng = np.random.default_rng(seed)
    n = gram.shape[0]
    values = center + spread * rng.standard_normal(n)
    best = -np.inf
    for step, index in enumerate(rng.permutation(n)[:n_probes]):
        value = float(values[index])
        best = max(best, value)
        unprobed[index] = False
        reference.observe(int(index), value)
        if step % 2:
            native.observe(int(index), value)
        else:
            count = native.observe_and_score(int(index), value, best, 0.01)
            _assert_scores_are_numpy_pi(native, unprobed, best, 0.01, count)
        _assert_posteriors_match(native, reference)


def test_scoring_with_every_candidate_probed_is_empty():
    gram = _gram("vm-only", 8)
    native, _, unprobed = _pair(gram)
    for index in range(gram.shape[0]):
        unprobed[index] = False
        count = native.observe_and_score(index, -100.0 - index, -100.0, 0.01)
    assert count == 0


def test_buffers_grow_past_one_observation_per_candidate():
    gram = _gram("sl-only", 8)
    native, reference, _ = _pair(gram)
    rng = np.random.default_rng(5)
    for index in np.concatenate([rng.permutation(8) for _ in range(3)]):
        value = float(-300.0 + 50.0 * rng.standard_normal())
        native.observe(int(index), value)
        reference.observe(int(index), value)
        _assert_posteriors_match(native, reference)


class _NumpyOptimizer(BayesianOptimizer):
    """The optimizer on the numpy fallback posterior."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._surrogate = CandidatePosterior(self._surrogate._gram, NOISE)


@functools.lru_cache(maxsize=None)
def _predictor(bound: int) -> WorkloadPredictor:
    return trained_predictor(bound, bound, seed=31 + bound)


def _signature(decision) -> tuple:
    grid = decision.grid
    return (
        decision.n_vm,
        decision.n_sl,
        decision.predicted_seconds,
        decision.estimated_cost,
        decision.n_evaluations,
        decision.converged,
        grid.candidates.tobytes() + grid.seconds.tobytes() + grid.costs.tobytes(),
    )


@given(
    mode=st.sampled_from(_MODES),
    bound=st.sampled_from(_BOUNDS),
    knob=st.sampled_from([0.0, 0.3, 1.0]),
    max_iterations=st.integers(min_value=1, max_value=60),
    input_gb=st.sampled_from([8.0, 16.0, 32.0, 100.0]),
    waiting=st.integers(min_value=0, max_value=25),
    history_s=st.floats(min_value=10.0, max_value=900.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_determine_is_engine_independent(
    mode, bound, knob, max_iterations, input_gb, waiting, history_s, seed
):
    predictor = _predictor(bound)
    request = PredictionRequest(
        query_id="golden",
        input_size_gb=input_gb,
        start_time_epoch=1.7e9,
        historical_duration_s=history_s,
        num_waiting_apps=waiting,
    )
    outcomes = []
    for optimizer in (BayesianOptimizer, _NumpyOptimizer):
        predictor._rng = np.random.default_rng(seed)
        with mock.patch.object(predictor_module, "BayesianOptimizer", optimizer):
            decision = predictor.determine(
                request, knob=knob, mode=mode, max_iterations=max_iterations
            )
        outcomes.append((_signature(decision), predictor._rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", ["ei", "ucb"])
def test_other_acquisitions_score_the_native_posterior(name):
    # EI and UCB rank through predict(), which reads the kernel's mean
    # and standard deviation: the same search on both engines.
    histories = []
    for optimizer_class in (BayesianOptimizer, _NumpyOptimizer):
        optimizer = optimizer_class(
            objective=lambda point: -float(
                (point[0] - 3.3) ** 2 + (point[1] - 5.1) ** 2
            ),
            candidates=_grid("hybrid", 8),
            acquisition=make_acquisition(name),
            patience=30,
            gram=_gram("hybrid", 8),
            rng=4,
        )
        result = optimizer.maximize(40)
        histories.append((result.history, optimizer._rng.bit_generator.state))
    assert histories[0] == histories[1]
    assert len(histories[0][0]) > 10


def _indefinite() -> np.ndarray:
    # The second probe's Schur complement is 1 + noise - 4 / (1 + noise).
    return np.array([[1.0, 2.0], [2.0, 1.0]])


def test_non_psd_gram_raises_the_same_error_on_both():
    messages = []
    for posterior in _pair(_indefinite())[:2]:
        posterior.observe(0, 1.0)
        with pytest.raises(ValueError, match="not positive semi-definite") as error:
            posterior.observe(1, 2.0)
        messages.append(str(error.value).split(":")[0])
    assert messages == ["candidate 1", "candidate 1"]


def test_optimizer_surfaces_a_non_psd_gram_on_both_engines():
    messages = []
    for optimizer_class in (BayesianOptimizer, _NumpyOptimizer):
        optimizer = optimizer_class(
            objective=lambda point: float(point[0]),
            candidates=np.array([[0.0], [1.0]]),
            n_initial=2,
            gram=_indefinite(),
            rng=0,
        )
        with pytest.raises(ValueError, match="not positive semi-definite") as error:
            optimizer.maximize(10)
        messages.append(str(error.value).split(":")[0])
    assert messages[0] == messages[1]
    assert messages[0].startswith("candidate ")


def test_native_state_is_unchanged_by_a_rejected_probe():
    native, reference, _ = _pair(_indefinite())
    native.observe(0, 1.0)
    reference.observe(0, 1.0)
    with pytest.raises(ValueError):
        native.observe(1, 2.0)
    _assert_posteriors_match(native, reference)


def test_native_posterior_rejects_buffers_it_cannot_address():
    gram = np.eye(3)
    with pytest.raises(ValueError, match="square"):
        NativePosterior(np.ones((3, 2)), NOISE, np.ones(3, dtype=bool), KERNEL)
    for unprobed in (np.ones(3), np.ones(4, dtype=bool), np.ones(6, dtype=bool)[::2]):
        with pytest.raises(ValueError, match="boolean mask"):
            NativePosterior(gram, NOISE, unprobed, KERNEL)
    native = NativePosterior(gram, NOISE, np.ones(3, dtype=bool), KERNEL)
    with pytest.raises(IndexError):
        native.observe(3, 1.0)


def test_optimizer_picks_the_native_posterior_when_the_kernel_loads():
    optimizer = BayesianOptimizer(
        objective=lambda point: -float(point[0]), candidates=np.arange(5.0)[:, None]
    )
    assert isinstance(optimizer._surrogate, NativePosterior)
