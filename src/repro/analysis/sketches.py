"""Mergeable streaming accumulators for million-arrival replay reports.

At 10^6 arrivals a :class:`~repro.core.serving.ServingReport` can no
longer afford one Python object per served query, so the replay loop
folds every observation into two small, mergeable accumulators:

- :class:`ReservoirQuantiles` -- a uniform reservoir sample (Li's
  "Algorithm L" skip sampling) with exact min/max tracking.  While the
  stream fits in the reservoir the sample *is* the stream, so every
  percentile is bit-for-bit ``np.percentile`` of the full data; past
  capacity the estimate's rank error concentrates around
  ``sqrt(q * (1 - q) / capacity)``.
- :class:`ExactSum` -- Shewchuk partials, the ``math.fsum`` algorithm
  in online form.  The rounded value is independent of observation
  order, which makes merged reports agree with single-pass ones.

Both are deterministic (the reservoir owns a seeded generator) and
support ``merge`` so per-segment replay reports can be combined.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["ExactSum", "ReservoirQuantiles"]

#: Below this, no partial sum of ``ExactSum.add_many``'s batch overflows.
_NO_OVERFLOW = sys.float_info.max / 8


class ExactSum:
    """Exactly-rounded running sum of floats (Shewchuk partials).

    Equivalent to ``math.fsum`` over everything added so far, but
    incremental and mergeable: the rounded value never depends on the
    order observations arrived in, so a merged sum equals a single-pass
    sum over the concatenated stream.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, x: float) -> None:
        x = float(x)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add_many(self, values) -> None:
        """Fold a batch, exactly: the same ``value`` as one ``add`` each.

        ``math.fsum`` rounds the batch, the rounded sum joins the
        partials and its negation joins the batch; once the batch sums to
        exactly zero, the partials hold its whole sum.  Input that is not
        finite, or large enough that some partial sum could overflow,
        takes the per-value loop instead.
        """
        batch = np.asarray(values, dtype=np.float64).ravel()
        if batch.size == 0:
            return
        rest = batch.tolist()
        partials = self._partials
        peak = max(
            float(np.abs(batch).max()), max(map(abs, partials), default=0.0)
        )
        if not peak * (len(rest) + len(partials)) < _NO_OVERFLOW:
            for value in rest:
                self.add(value)
            return
        total = math.fsum(rest)
        while total:
            self.add(total)
            rest.append(-total)
            total = math.fsum(rest)

    def merge(self, other: "ExactSum") -> None:
        """Fold ``other`` into this sum (exactness preserved)."""
        for partial in other._partials:
            self.add(partial)

    @property
    def value(self) -> float:
        return math.fsum(self._partials)


class ReservoirQuantiles:
    """Uniform reservoir sample with exact extremes, for percentiles.

    ``observe`` runs Algorithm L: once the reservoir is full the sketch
    draws geometric skip lengths, so the per-item cost of a long stream
    is O(capacity * log(n / capacity)) random draws overall rather than
    one per item.  ``percentile`` is exact (``np.percentile`` of the
    full multiset) while ``count <= capacity``, and exact at q=0/q=100
    always; in between, estimates carry the usual reservoir rank error
    of about ``sqrt(q * (1 - q) / capacity)``.

    ``merge`` subsamples the two reservoirs proportionally to their
    stream counts, which keeps the merged sample approximately uniform
    over the concatenated stream -- good enough for rank-error-bounded
    percentiles, and deterministic for a given pair of sketches.
    """

    __slots__ = ("capacity", "_sample", "_count", "_min", "_max",
                 "_rng", "_w", "_skip")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = int(capacity)
        self._sample: list[float] = []
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._rng = np.random.default_rng(seed)
        self._w = 1.0
        self._skip = -1  # arrivals to skip before the next replacement

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def observe(self, x: float) -> None:
        x = float(x)
        self._count += 1
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        sample = self._sample
        if len(sample) < self.capacity:
            sample.append(x)
            return
        if self._skip < 0:
            self._next_skip()
        if self._skip == 0:
            sample[int(self._rng.integers(self.capacity))] = x
            self._next_skip()
        else:
            self._skip -= 1

    def observe_many(self, values) -> None:
        """Fold a batch of observations, bitwise-equal to a scalar loop.

        While the reservoir is filling the batch is a single ``extend``;
        past capacity, Algorithm L's geometric skips are consumed in one
        jump per gap instead of one decrement per arrival.  The rng draw
        sequence (``integers`` at each replacement, then the two
        ``random()`` draws of ``_next_skip``) is identical to calling
        :meth:`observe` per element, so sketch state matches exactly.
        """
        arr = np.asarray(values, dtype=np.float64)
        n = int(arr.size)
        if n == 0:
            return
        self._count += n
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi
        sample = self._sample
        i = 0
        room = self.capacity - len(sample)
        if room > 0:
            take = room if room < n else n
            sample.extend(arr[:take].tolist())
            i = take
        while i < n:
            if self._skip < 0:
                self._next_skip()
            if self._skip == 0:
                sample[int(self._rng.integers(self.capacity))] = float(arr[i])
                self._next_skip()
                i += 1
            else:
                jump = self._skip if self._skip < n - i else n - i
                self._skip -= jump
                i += jump

    def _next_skip(self) -> None:
        # Algorithm L: shrink the acceptance weight geometrically and
        # jump straight to the next accepted arrival.
        rng = self._rng
        self._w *= math.exp(math.log(rng.random()) / self.capacity)
        self._skip = int(math.log(rng.random()) / math.log1p(-self._w))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Observations seen (not the sample size)."""
        return self._count

    @property
    def is_exact(self) -> bool:
        """True while the sample still holds the entire stream."""
        return self._count <= self.capacity

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError("empty sketch has no minimum")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError("empty sketch has no maximum")
        return self._max

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``) of the stream.

        Exact while the sample still holds the whole stream; the
        boundaries ``q=0`` and ``q=100`` are exact *always* (they read
        the tracked extremes, not the sample), and interior estimates
        are clamped into ``[minimum, maximum]``.  An out-of-range ``q``
        is an error, never a silent clamp to an extreme.
        """
        if not self._count:
            raise ValueError("empty sketch has no percentiles")
        q = float(q)
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be within [0, 100]")
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        estimate = float(np.percentile(np.asarray(self._sample), q))
        return min(max(estimate, self._min), self._max)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge(self, other: "ReservoirQuantiles") -> None:
        """Fold ``other``'s sample into this sketch in place."""
        if other._count == 0:
            return
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        total = self._count + other._count
        if self.is_exact and other.is_exact and (
            len(self._sample) + len(other._sample) <= self.capacity
        ):
            self._sample.extend(other._sample)
            self._count = total
            return
        # Weighted subsample: fill the reservoir taking from each side
        # proportionally to how much stream it represents, positions
        # drawn uniformly without replacement (each side's sample is
        # already uniform over its own stream).  Vectorised: merging is
        # on the report-combination path, where dozens of sketches fold
        # per report pair.
        rng = self._rng
        mine = np.asarray(self._sample, dtype=np.float64)
        theirs = np.asarray(other._sample, dtype=np.float64)
        take_mine = int(round(self.capacity * (self._count / total)))
        take_mine = max(take_mine, self.capacity - len(theirs))
        take_mine = min(take_mine, len(mine), self.capacity)
        take_theirs = min(self.capacity - take_mine, len(theirs))
        parts = []
        for side, take in ((mine, take_mine), (theirs, take_theirs)):
            if take >= len(side):
                parts.append(side)
            else:
                parts.append(
                    side[rng.choice(len(side), size=take, replace=False)]
                )
        self._sample = np.concatenate(parts).tolist()
        self._count = total
        self._w = 1.0
        self._skip = -1
