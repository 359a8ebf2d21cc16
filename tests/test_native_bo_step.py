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
- ``determine`` makes the same decisions, in the same probe order, and
  leaves the predictor's generator in the same state whether its search
  runs as the native ``bo_search`` or as the Python loop on either
  posterior.  The native search and the Python loop on the native
  posterior share ``bo_step``'s arithmetic, so they agree bitwise even
  on exact PI ties.  The two surrogates agree to rounding only, so the
  numpy arm's agreement rests on no PI score sitting in a near-tie, as
  in ``tests/test_properties.py``;
- a Gram that is not positive semi-definite raises the same error,
  naming the same candidate, on both.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _probe_order(decision) -> list[tuple[float, float]]:
    return [tuple(point) for point in decision.grid.candidates.tolist()]


def _crafted_trees(kind: str, n: int) -> np.ndarray:
    """A one-tree ``(1, n)`` forest pass standing in for the real one.

    - ``constant``: every candidate at ``-1e20``.  The Eq. 2 noise,
      ``N(0, 0.01)`` there, is lost in rounding, so every probe observes
      the same value and PI scores tie: the pick draws from the
      generator.
    - ``subsecond``: ``RF_t`` in ``(0, 1)``, where the noise scale is
      ``0.01 * max(RF_t, 1) = 0.01``, not 1 % of ``RF_t``.
    - ``ladder``: eight levels near ``2**70`` (noise lost again), each
      exactly the 1 % improvement margin above the last, so a probe one
      level above the incumbent sits on the strict ``>`` of the rule.
    """
    rng = np.random.default_rng(n)
    if kind == "constant":
        return np.full((1, n), -1e20)
    if kind == "subsecond":
        return rng.uniform(0.0, 1.0, (1, n))
    levels = [2.0**70]
    for _ in range(7):
        levels.append(levels[-1] + 0.01 * levels[-1])
    return -np.array(levels)[rng.integers(0, len(levels), n)][None, :]


NATIVE_SEARCH = KERNEL is not None and KERNEL.bo_search is not None
_ARMS = (
    ("native loop",) if NATIVE_SEARCH else ()
) + (
    "python loop, native posterior",
    "python loop, numpy posterior",
)


def _determine_on_every_arm(predictor, request, seed, trees, **kwargs):
    """``determine`` from one seed on each arm of :data:`_ARMS`: its
    decision signature, probe order and the generator's end state, plus
    how many native searches each arm ran."""
    outcomes, searches = [], []
    for arm in _ARMS:
        predictor._rng = np.random.default_rng(seed)
        calls = []
        bo_search = KERNEL.bo_search

        def counted(*args):
            calls.append(args)
            return bo_search(*args)

        with contextlib.ExitStack() as stack:
            if bo_search is not None:
                stack.enter_context(mock.patch.object(KERNEL, "bo_search", counted))
            if trees != "forest":
                grid_tree_matrix = predictor._grid_tree_matrix
                stack.enter_context(mock.patch.object(
                    predictor,
                    "_grid_tree_matrix",
                    lambda *args: _crafted_trees(
                        trees, grid_tree_matrix(*args).shape[1]
                    ),
                ))
            if arm != "native loop":
                stack.enter_context(mock.patch.object(
                    predictor_module, "search_table", lambda *a, **k: None
                ))
            if arm == "python loop, numpy posterior":
                stack.enter_context(mock.patch.object(
                    predictor_module, "BayesianOptimizer", _NumpyOptimizer
                ))
            decision = predictor.determine(request, **kwargs)
        outcomes.append((
            _signature(decision),
            _probe_order(decision),
            predictor._rng.bit_generator.state,
        ))
        searches.append(len(calls))
    return outcomes, searches


_cap = st.one_of(st.none(), st.integers(min_value=0, max_value=12))


@given(
    mode=st.sampled_from(_MODES),
    bound=st.sampled_from(_BOUNDS),
    knob=st.sampled_from([0.0, 0.3, 1.0]),
    max_iterations=st.integers(min_value=1, max_value=60),
    cap_vm=_cap,
    cap_sl=_cap,
    trees=st.sampled_from(["forest", "constant", "subsecond", "ladder"]),
    input_gb=st.sampled_from([8.0, 16.0, 32.0, 100.0]),
    waiting=st.integers(min_value=0, max_value=25),
    history_s=st.floats(min_value=10.0, max_value=900.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# PI ties, broken by the generator.
@example("hybrid", 8, 0.3, 60, None, None, "constant", 16.0, 2, 120.0, 0)
# Sub-second estimates, and the strict improvement rule.
@example("hybrid", 12, 0.3, 60, None, None, "subsecond", 16.0, 2, 120.0, 1)
@example("hybrid", 12, 0.0, 60, None, None, "ladder", 16.0, 2, 120.0, 2)
# One probe: the loop ends inside the initial design.
@example("hybrid", 12, 0.3, 1, None, None, "forest", 32.0, 0, 300.0, 3)
# Five candidates, every one probed before patience runs out.
@example("hybrid", 12, 0.3, 60, 1, 2, "forest", 8.0, 1, 90.0, 4)
# A patience stop on the full grid, and a quota-capped grid.
@example("hybrid", 12, 0.3, 60, None, None, "forest", 100.0, 5, 400.0, 5)
@example("hybrid", 12, 1.0, 60, 3, 5, "forest", 16.0, 3, 200.0, 6)
@settings(max_examples=80, deadline=None)
def test_determine_is_engine_independent(
    mode, bound, knob, max_iterations, cap_vm, cap_sl, trees, input_gb,
    waiting, history_s, seed,
):
    predictor = _predictor(bound)
    request = PredictionRequest(
        query_id="golden",
        input_size_gb=input_gb,
        start_time_epoch=1.7e9,
        historical_duration_s=history_s,
        num_waiting_apps=waiting,
    )
    outcomes, searches = _determine_on_every_arm(
        predictor, request, seed, trees, knob=knob, mode=mode,
        max_iterations=max_iterations, max_vm=cap_vm, max_sl=cap_sl,
    )
    if NATIVE_SEARCH:
        # The native loop steps the native posterior with bo_step's own
        # arithmetic: bitwise the Python loop on it, ties included.
        assert searches == [1, 0, 0]
        assert outcomes[0] == outcomes[1]
    else:
        assert searches == [0, 0]
    # The numpy posterior agrees to rounding only, and the crafted
    # tables put PI scores in exact ties that rounding can split.
    if trees in ("forest", "subsecond"):
        assert outcomes[-2] == outcomes[-1]


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
