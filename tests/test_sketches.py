"""Streaming accumulator tests: exact sums and reservoir percentiles.

The million-arrival replay folds every served query into these sketches
instead of keeping a list, so their guarantees carry the streaming
report's: :class:`ExactSum` must round exactly and order-independently,
and :class:`ReservoirQuantiles` must be bit-exact while the stream fits
in the reservoir and rank-error-bounded past it (hypothesis property).
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExactSum, ReservoirQuantiles


def _expansion(acc: ExactSum, terms: int = 4) -> list:
    """The sum's leading ``terms`` rounded terms, each as bytes (NaN and
    signed zeros compare exactly), or the exception ``value`` raises.

    Peeling ``value`` off a copy exposes the exact sum below the first
    rounding, which ``value`` alone would hide.
    """
    peeled = ExactSum()
    peeled.merge(acc)
    out = []
    for _ in range(terms):
        try:
            value = peeled.value
        except (OverflowError, ValueError) as error:
            return out + [type(error).__name__]
        out.append(b"nan" if math.isnan(value) else struct.pack("<d", value))
        if not value or not math.isfinite(value):
            break
        peeled.add(-value)
    return out


class TestExactSum:
    def test_matches_fsum(self):
        values = [1e16, 1.0, -1e16, 1e-8, 3.0, -2.0]
        acc = ExactSum()
        acc.add_many(values)
        assert acc.value == math.fsum(values)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        values = (rng.uniform(-1.0, 1.0, 500) * 10.0 ** rng.integers(
            -8, 9, 500
        )).tolist()
        forward, backward = ExactSum(), ExactSum()
        forward.add_many(values)
        backward.add_many(values[::-1])
        assert forward.value == backward.value == math.fsum(values)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 1e6, 1000).tolist()
        whole = ExactSum()
        whole.add_many(values)
        left, right = ExactSum(), ExactSum()
        left.add_many(values[:400])
        right.add_many(values[400:])
        left.merge(right)
        assert left.value == whole.value

    def test_empty(self):
        assert ExactSum().value == 0.0

    @given(st.lists(st.floats(-1e12, 1e12), max_size=60))
    def test_property_matches_fsum(self, values):
        acc = ExactSum()
        acc.add_many(values)
        assert acc.value == math.fsum(values)

    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
        st.integers(0, 40),
    )
    def test_property_bulk_equals_scalar_adds(self, start, values, n_negated):
        # Negated copies force cancellation; non-finite and overflowing
        # input must take the same path as one ``add`` per value.
        values = values + [-v for v in values[:n_negated]]
        bulk, scalar = ExactSum(), ExactSum()
        for value in start:
            bulk.add(value)
            scalar.add(value)
        bulk.add_many(np.array(values, dtype=np.float64))
        for value in values:
            scalar.add(value)
        assert _expansion(bulk) == _expansion(scalar)

    def test_bulk_keeps_the_residual_below_the_rounded_batch(self):
        # 1e16 + 1 rounds to 1e16; the lost 1 must still reach the sum.
        bulk, scalar = ExactSum(), ExactSum()
        bulk.add(1.0)
        scalar.add(1.0)
        bulk.add_many([1e16, 1.0])
        scalar.add(1e16)
        scalar.add(1.0)
        assert bulk.value == scalar.value == 1e16 + 2.0


class TestReservoirExactRegime:
    def test_is_np_percentile_while_small(self):
        rng = np.random.default_rng(5)
        values = rng.lognormal(1.0, 1.0, 200)
        sketch = ReservoirQuantiles(capacity=256)
        sketch.observe_many(values)
        assert sketch.is_exact
        for q in (0, 10, 50, 90, 99, 100):
            assert sketch.percentile(q) == float(np.percentile(values, q))

    def test_extremes_always_exact(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 10.0, 50_000)
        sketch = ReservoirQuantiles(capacity=64)
        sketch.observe_many(values)
        assert not sketch.is_exact
        assert sketch.percentile(0) == values.min()
        assert sketch.percentile(100) == values.max()
        assert sketch.minimum == values.min()
        assert sketch.maximum == values.max()

    def test_empty_raises(self):
        sketch = ReservoirQuantiles()
        with pytest.raises(ValueError):
            sketch.percentile(50)
        with pytest.raises(ValueError):
            sketch.minimum

    def test_deterministic(self):
        values = np.random.default_rng(7).uniform(0.0, 1.0, 10_000)
        runs = []
        for _ in range(2):
            sketch = ReservoirQuantiles(capacity=128, seed=9)
            sketch.observe_many(values)
            runs.append([sketch.percentile(q) for q in range(0, 101, 5)])
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirQuantiles(capacity=1)


class TestPercentileBoundarySemantics:
    """Pinning the q=0 / q=100 / crossover edge cases of ``percentile``.

    The boundaries read the tracked extremes (exact forever); interior
    queries are exact up to and *including* the fill that reaches
    capacity, then become estimates.  Out-of-range q is an error, not a
    silent clamp to an extreme.
    """

    def test_out_of_range_q_raises(self):
        sketch = ReservoirQuantiles(capacity=16)
        sketch.observe_many([1.0, 2.0, 3.0])
        for q in (-0.001, -5, 100.001, math.inf, math.nan):
            with pytest.raises(ValueError):
                sketch.percentile(q)

    def test_q0_and_q100_on_single_observation(self):
        sketch = ReservoirQuantiles(capacity=16)
        sketch.observe(7.0)
        assert sketch.percentile(0) == 7.0
        assert sketch.percentile(100) == 7.0
        assert sketch.percentile(50) == 7.0

    def test_q1_and_q99_exact_while_in_reservoir(self):
        values = np.arange(100, dtype=np.float64)
        sketch = ReservoirQuantiles(capacity=100)
        sketch.observe_many(values)
        assert sketch.is_exact
        assert sketch.percentile(1) == float(np.percentile(values, 1))
        assert sketch.percentile(99) == float(np.percentile(values, 99))

    def test_crossover_at_exact_capacity(self):
        # count == capacity is still the exact regime: the sample IS
        # the stream, so every percentile matches np.percentile.
        capacity = 64
        values = np.random.default_rng(12).normal(0.0, 5.0, capacity)
        sketch = ReservoirQuantiles(capacity=capacity, seed=3)
        sketch.observe_many(values)
        assert sketch.count == capacity
        assert sketch.is_exact
        for q in (0, 1, 50, 99, 100):
            assert sketch.percentile(q) == float(np.percentile(values, q))

    def test_one_past_capacity_leaves_exact_regime(self):
        capacity = 64
        rng = np.random.default_rng(13)
        values = rng.normal(0.0, 5.0, capacity + 1)
        sketch = ReservoirQuantiles(capacity=capacity, seed=3)
        sketch.observe_many(values)
        assert sketch.count == capacity + 1
        assert not sketch.is_exact
        # Boundaries stay exact; interior estimates stay clamped within
        # the true extremes.
        assert sketch.percentile(0) == values.min()
        assert sketch.percentile(100) == values.max()
        for q in (1, 50, 99):
            assert values.min() <= sketch.percentile(q) <= values.max()

    def test_interior_estimate_clamped_to_stream_extremes(self):
        # After a merge, the sample may lose the extremes, but interior
        # percentiles must never escape [minimum, maximum].
        sketch = ReservoirQuantiles(capacity=4, seed=5)
        sketch.observe_many(np.linspace(0.0, 1.0, 1000))
        assert sketch.minimum == 0.0 and sketch.maximum == 1.0
        for q in np.linspace(0.5, 99.5, 25):
            assert 0.0 <= sketch.percentile(float(q)) <= 1.0


def rank_error(sketch: ReservoirQuantiles, values: np.ndarray, q: float) -> float:
    """|empirical CDF(estimate) - q/100| over the true stream."""
    estimate = sketch.percentile(q)
    return abs(float(np.mean(values <= estimate)) - q / 100.0)


class TestReservoirSampledRegime:
    #: Bernstein tail bound on the binomial rank deviation at
    #: delta = 1e-9, plus a 2/capacity discretisation term.  A plain
    #: 4.5-sigma normal bound understates the *skewed* binomial tail at
    #: extreme quantiles (at q=99 only ~10 of the 1024 reservoir slots
    #: sit above the target, so ~0.3% of seeds land past 4.5 sigma and
    #: the unbounded-seed search eventually finds one); the additive
    #: Bernstein term absorbs exactly that edge skew while the variance
    #: term keeps mid-quantiles tight enough that a biased sampler
    #: still fails instantly.
    @staticmethod
    def bound(q: float, capacity: int) -> float:
        p = q / 100.0
        log_term = math.log(1e9)
        return (
            math.sqrt(2.0 * p * (1.0 - p) * log_term / capacity)
            + 2.0 * log_term / (3.0 * capacity)
            + 2.0 / capacity
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        distribution=st.sampled_from(["uniform", "lognormal", "bimodal"]),
    )
    def test_rank_error_bounded(self, seed, distribution):
        rng = np.random.default_rng(seed)
        n = 50_000
        if distribution == "uniform":
            values = rng.uniform(0.0, 100.0, n)
        elif distribution == "lognormal":
            values = rng.lognormal(2.0, 1.5, n)
        else:
            values = np.concatenate([
                rng.normal(5.0, 1.0, n // 2), rng.normal(500.0, 10.0, n // 2)
            ])
        capacity = 1024
        sketch = ReservoirQuantiles(capacity=capacity, seed=seed)
        sketch.observe_many(values)
        assert sketch.count == n
        for q in (5.0, 25.0, 50.0, 75.0, 95.0, 99.0):
            assert rank_error(sketch, values, q) <= self.bound(q, capacity)

    def test_merge_rank_error_bounded(self):
        rng = np.random.default_rng(11)
        capacity = 1024
        segments = [
            rng.lognormal(1.0, 1.0, 30_000),
            rng.uniform(50.0, 60.0, 10_000),
            rng.normal(5.0, 1.0, 20_000),
        ]
        merged = ReservoirQuantiles(capacity=capacity, seed=0)
        for index, segment in enumerate(segments):
            sketch = ReservoirQuantiles(capacity=capacity, seed=index + 1)
            sketch.observe_many(segment)
            merged.merge(sketch)
        values = np.concatenate(segments)
        assert merged.count == len(values)
        assert merged.percentile(0) == values.min()
        assert merged.percentile(100) == values.max()
        for q in (10.0, 50.0, 90.0):
            assert rank_error(merged, values, q) <= self.bound(q, capacity)

    def test_merge_exact_when_both_small(self):
        left = ReservoirQuantiles(capacity=256)
        right = ReservoirQuantiles(capacity=256)
        left.observe_many([1.0, 5.0, 9.0])
        right.observe_many([2.0, 4.0])
        left.merge(right)
        assert left.is_exact
        assert left.percentile(50) == float(
            np.percentile([1.0, 5.0, 9.0, 2.0, 4.0], 50)
        )

    def test_merge_empty_is_noop(self):
        sketch = ReservoirQuantiles(capacity=16)
        sketch.observe_many([3.0, 1.0])
        before = sketch.percentile(50)
        sketch.merge(ReservoirQuantiles(capacity=16))
        assert sketch.percentile(50) == before
        assert sketch.count == 2
