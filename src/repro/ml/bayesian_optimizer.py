"""Bayesian optimisation over a discrete candidate set.

Smartpick's search space is the grid of ``{nVM, nSL}`` tuples; the objective
is the (noisy) negated completion-time prediction of the Random Forest
(Eq. 2: ``maximize -(RF_t + delta)``).  The optimizer conditions a Gaussian
Process surrogate on every probe, picks the next candidate by acquisition
score, and stops when the incumbent has not improved by
``improvement_threshold`` (relatively) for ``patience`` consecutive probes --
the paper's "1 % for 10 consecutive searches" rule (Section 3.1).

The search space is finite and fixed, so the surrogate's covariance is
too: the Matern 5/2 Gram over all candidates is built once (or handed in
by a caller that memoizes it per search space).  The surrogate is then
the exact GP posterior over the candidate set itself
(:class:`CandidatePosterior`): it keeps ``V = L^-1 G[probes, :]`` for
every candidate and grows the Cholesky factor ``L`` by one row per
probe.  The new row's off-diagonal part is a column of ``V`` already in
hand, so a probe costs one matrix-vector product and a few ``O(n)``
updates instead of triangular solves, and the posterior mean and
standard deviation are vector reads.  They equal the generic
:class:`~repro.ml.gaussian_process.GaussianProcessRegressor` on the
candidate rows (same noise, same target normalisation) to rounding.

With the compiled kernel of :mod:`repro.ml.forest_native` available the
optimizer keeps that posterior in :class:`NativePosterior` instead: the
same algebra in buffers allocated once per optimizer, where one
``bo_step`` call conditions on a probe and, under the paper's PI, also
writes the unprobed candidates' z-scores.  :meth:`BayesianOptimizer.maximize`
still drives the loop, the objective, the stall rule and the
tie-breaking argmax from Python, so it takes any objective and any
acquisition, and it is the reference for :func:`search_table`.

Smartpick's own searches have a fixed objective, a table of ``RF_t`` per
candidate plus the Eq. 2 noise, and use PI.  :func:`search_table` runs
such a search whole in the kernel's ``bo_search``, one ctypes call per
search, drawing from the caller's generator through numpy's own samplers
and scoring with the kernel's bitwise port of scipy's ``ndtr``: the same
probes, incumbent and generator end state as ``maximize`` on the native
posterior, and no :mod:`scipy` module loaded.

The optimizer records every probe in :attr:`BOResult.history`; Smartpick's
tradeoff knob later traverses that list (the paper's *Estimated Time list*,
``ET_l``) to pick a cheaper configuration within the latency tolerance.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from repro.ml import forest_native
from repro.ml.acquisition import AcquisitionFunction, ProbabilityOfImprovement
from repro.ml.kernels import Matern52Kernel

__all__ = [
    "BayesianOptimizer",
    "BOResult",
    "CandidatePosterior",
    "NativePosterior",
    "Probe",
    "search_table",
]


#: The surrogate's default observation-noise standard deviation, and the
#: one :func:`search_table` uses.
NOISE = 1e-2


def _nugget(noise: float) -> float:
    """The probed block's diagonal term for observation noise ``noise``."""
    return noise**2 + 1e-10


@dataclasses.dataclass(frozen=True)
class Probe:
    """One objective evaluation: candidate point and observed value."""

    point: tuple[float, ...]
    value: float


class CandidatePosterior:
    """Exact GP posterior over a fixed candidate set, one probe at a time.

    ``gram`` is the ``(n, n)`` prior covariance of the candidates and
    ``noise`` the observation-noise standard deviation; as in
    :class:`~repro.ml.gaussian_process.GaussianProcessRegressor`, the
    probed block's diagonal carries ``noise**2 + 1e-10`` and targets are
    standardised by their mean and standard deviation.  With ``L`` the
    Cholesky factor of that block, ``y`` the targets and ``1`` the ones
    vector, the state is ``V = L^-1 G[probes, :]`` with ``u = L^-1 y``
    and ``e = L^-1 1`` as two extra columns (one preallocated row per
    probe), and per candidate ``V^T u``, ``V^T e`` and ``sum(V**2)``.
    The posterior mean is ``V^T u - m V^T e + m`` for target mean ``m``;
    the variance is ``diag(G) - sum(V**2)``.

    A search observes each candidate at most once, so rows are
    preallocated for ``n`` probes; observing more (a candidate again, as
    an independent noisy observation) doubles the buffers.
    """

    def __init__(self, gram: np.ndarray, noise: float) -> None:
        self._gram = np.asarray(gram, dtype=np.float64)
        n = self._gram.shape[0]
        self._diagonal = self._gram.diagonal()
        self._nugget = _nugget(noise)
        self._rows = np.empty((n, n + 2))
        self._targets = np.empty(n)
        self._moments = np.zeros((3, n))
        self._size = 0

    def observe(self, index: int, value: float) -> None:
        """Condition on ``value`` observed at candidate ``index``.

        The new Cholesky row is ``[c^T, d]`` with ``c = V[:, index]`` (the
        solve of the cross column, already stored) and ``d`` the square
        root of the Schur complement.  Forward substitution's last step
        then gives the new state row, ``u`` and ``e`` entries included,
        as ``([G[index], value, 1] - c^T [V, u, e]) / d``: one GEMV.
        """
        size, n = self._size, self._gram.shape[0]
        if size == self._targets.shape[0]:
            self._rows = np.resize(self._rows, (2 * size, n + 2))
            self._targets = np.resize(self._targets, 2 * size)
        rows = self._rows[:size]
        column = rows[:, index]
        schur = self._diagonal[index] + self._nugget - column @ column
        if not schur > 0.0:
            raise ValueError(
                f"candidate {index}: non-positive Schur complement {schur:.6g}; "
                "the Gram is not positive semi-definite"
            )
        row = self._rows[size]
        row[:n] = self._gram[index]
        row[n] = value
        row[n + 1] = 1.0
        row -= column @ rows
        row /= math.sqrt(schur)
        projection = row[:n]
        self._moments[:2] += row[n:, None] * projection
        self._moments[2] += projection * projection
        self._targets[size] = value
        self._size = size + 1

    def predict(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at candidate ``indices``."""
        center, scale = self._normalization()
        target_fit, ones_fit, explained = self._moments[:, indices]
        mean = target_fit - center * ones_fit + center
        variance = self._diagonal[indices] - explained
        np.maximum(variance, 1e-12, out=variance)
        return mean, np.sqrt(variance) * scale

    def _normalization(self) -> tuple[float, float]:
        """The targets' mean and standard deviation (1 when degenerate).

        Bitwise ``np.mean`` / ``np.std`` -- the same pairwise sums and
        divisions -- without their per-call argument handling; an empty
        posterior is the standard-normal prior.
        """
        size = self._size
        if size == 0:
            return 0.0, 1.0
        targets = self._targets[:size]
        center = float(np.add.reduce(targets)) / size
        deviation = targets - center
        np.square(deviation, out=deviation)
        scale = math.sqrt(float(np.add.reduce(deviation)) / size)
        return center, scale if scale > 1e-12 else 1.0


class NativePosterior:
    """:class:`CandidatePosterior` stepped by the compiled ``bo_step``.

    The same posterior over the same ``gram`` and ``noise``, held in one
    block allocated once with its data addresses taken once, so a probe
    is one ctypes call.  ``unprobed`` is the caller's boolean mask of the
    candidates PI may pick, read by :meth:`observe_and_score`.  Means and
    standard deviations match the numpy class to rounding (the GEMV sums
    in another order); the target normalisation is bitwise the same.
    """

    def __init__(
        self, gram: np.ndarray, noise: float, unprobed: np.ndarray, kernel
    ) -> None:
        self._gram = np.ascontiguousarray(gram, dtype=np.float64)
        self._n = n = self._gram.shape[0]
        if self._gram.shape != (n, n):
            raise ValueError("gram must be a square (n, n) matrix")
        if (
            unprobed.dtype != np.bool_
            or unprobed.shape != (n,)
            or not unprobed.flags.c_contiguous
        ):
            raise ValueError("unprobed must be a contiguous (n,) boolean mask")
        self._unprobed = unprobed  # the kernel reads it
        self._step = kernel.bo_step
        self._state = state = forest_native.BO_STATE()
        self._address = ctypes.addressof(state)
        state.gram = self._gram.ctypes.data
        state.unprobed = unprobed.ctypes.data
        state.n = n
        state.nugget = _nugget(noise)
        self._capacity = 0
        self._grow(n)

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` observations.

        One block holds the moments ``(3, n)``, the mean, the standard
        deviation, the unprobed candidates' z-scores and indices, then the
        ``[V | u | e]`` rows, the targets and the normalisation scratch.
        """
        n, size = self._n, self._state.size
        fixed = 7 * n
        width = n + 2
        block = np.empty(fixed + capacity * (width + 2))
        block[:fixed] = self._block[:fixed] if size else 0.0
        rows = block[fixed : fixed + capacity * width].reshape(capacity, width)
        targets = block[fixed + capacity * width :][:capacity]
        if size:
            rows[:size] = self._rows[:size]
            targets[:size] = self._targets[:size]
        self._block, self._rows, self._targets = block, rows, targets
        self.mean = block[3 * n : 4 * n]
        self.std = block[4 * n : 5 * n]
        self.remaining_z = block[5 * n : 6 * n]
        self.remaining = block[6 * n : fixed].view(np.int64)
        base = block.ctypes.data
        state = self._state
        state.moments = base
        state.mean = base + 8 * 3 * n
        state.std = base + 8 * 4 * n
        state.remaining_z = base + 8 * 5 * n
        state.remaining = base + 8 * 6 * n
        state.rows = base + 8 * fixed
        state.targets = state.rows + 8 * capacity * width
        state.deviations = state.targets + 8 * capacity
        self._capacity = capacity

    def _run(self, mode: int, index: int = -1, value: float = 0.0) -> int:
        state = self._state
        if index >= 0:
            if index >= self._n:
                raise IndexError(f"candidate {index} is out of range")
            if state.size == self._capacity:
                self._grow(2 * self._capacity)
        state.index = index
        state.value = value
        result = self._step(self._address, mode)
        if result == -2:
            raise ValueError(
                f"candidate {index}: non-positive Schur complement "
                f"{state.schur:.6g}; the Gram is not positive semi-definite"
            )
        return result

    def observe(self, index: int, value: float) -> None:
        """Condition on ``value`` observed at candidate ``index``."""
        self._run(0, index, value)

    def observe_and_score(
        self, index: int, value: float, best_value: float, xi: float
    ) -> int:
        """Condition as :meth:`observe`, then score the unprobed candidates.

        Leaves in ``remaining[:count]`` (ascending) the unprobed
        candidates and in ``remaining_z[:count]`` their Probability of
        Improvement z-scores over ``best_value`` by ``xi``, bitwise the
        ones :class:`ProbabilityOfImprovement` computes from this
        posterior's mean and std, and returns ``count``.
        """
        state = self._state
        state.best = best_value
        state.xi = xi
        return self._run(2, index, value)

    def predict(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at candidate ``indices``."""
        self._run(1)
        return self.mean[indices], self.std[indices]


@dataclasses.dataclass
class BOResult:
    """Outcome of a :meth:`BayesianOptimizer.maximize` run."""

    best_point: tuple[float, ...]
    best_value: float
    history: list[Probe]
    n_evaluations: int
    converged: bool

    @property
    def explored_points(self) -> list[tuple[float, ...]]:
        return [probe.point for probe in self.history]


class BayesianOptimizer:
    """Maximise a black-box function over a finite candidate set.

    Parameters
    ----------
    objective:
        Callable mapping a candidate (1-D array) to a float score, called
        once per probe.  Smartpick wires ``-(RF_t + delta)`` here, reading
        ``RF_t`` from a table one forest pass filled for every candidate
        before the search; the BO-only baseline wires a live execution
        instead.
    candidates:
        The finite search space, shape ``(n, d)``.
    acquisition:
        Scoring rule for unprobed candidates; defaults to the paper's PI.
    n_initial:
        Number of random candidates probed before the surrogate takes over.
    improvement_threshold:
        Relative improvement that counts as progress (paper: 1 %).
    patience:
        Consecutive non-improving probes tolerated before stopping
        (paper: 10).
    noise:
        Observation-noise standard deviation given to the GP surrogate.
    length_scale:
        Matern 5/2 length scale; defaults to a quarter of the candidate
        cloud's extent.  Ignored when ``gram`` is given.
    gram:
        The ``(n, n)`` surrogate covariance over ``candidates``, as
        :meth:`candidate_gram` builds it.  Callers that search the same
        candidate set repeatedly pass a memoized copy; by default it is
        built here.
    rng:
        Seed or generator for the initial design and tie-breaking.
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        candidates: Sequence[Sequence[float]] | np.ndarray,
        acquisition: AcquisitionFunction | None = None,
        n_initial: int = 3,
        improvement_threshold: float = 0.01,
        patience: int = 10,
        noise: float = NOISE,
        length_scale: float | None = None,
        gram: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.objective = objective
        self.candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        if self.candidates.shape[0] == 0:
            raise ValueError("the candidate set must not be empty")
        if n_initial < 1:
            raise ValueError("n_initial must be at least 1")
        if improvement_threshold < 0:
            raise ValueError("improvement_threshold must be non-negative")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.acquisition = acquisition or ProbabilityOfImprovement()
        self.n_initial = min(n_initial, self.candidates.shape[0])
        self.improvement_threshold = improvement_threshold
        self.patience = patience
        self._rng = np.random.default_rng(rng)
        n_candidates = self.candidates.shape[0]
        if gram is None:
            gram = self.candidate_gram(self.candidates, length_scale)
        elif np.shape(gram) != (n_candidates, n_candidates):
            raise ValueError("gram must be (n_candidates, n_candidates)")
        self._unprobed = np.ones(n_candidates, dtype=bool)
        kernel = forest_native.load_kernel()
        self._surrogate: CandidatePosterior | NativePosterior = (
            CandidatePosterior(gram, noise)
            if kernel is None
            else NativePosterior(gram, noise, self._unprobed, kernel)
        )

    @staticmethod
    def _default_length_scale(candidates: np.ndarray) -> float:
        """A length scale proportional to the candidate cloud's extent."""
        span = candidates.max(axis=0) - candidates.min(axis=0)
        extent = float(np.linalg.norm(span))
        return max(extent / 4.0, 1e-3)

    @classmethod
    def candidate_gram(
        cls, candidates: np.ndarray, length_scale: float | None = None
    ) -> np.ndarray:
        """The Matern 5/2 surrogate covariance over a whole candidate set.

        It depends only on the candidates (the default length scale is a
        function of their extent), so a caller that searches one fixed
        grid many times can build it once and pass it as ``gram``.  It
        holds ``n^2`` floats: a few hundred kilobytes for the paper's
        ``{nVM, nSL}`` grids.
        """
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        if length_scale is None:
            length_scale = cls._default_length_scale(candidates)
        return Matern52Kernel(length_scale=length_scale)(candidates, candidates)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def maximize(self, max_iterations: int = 100) -> BOResult:
        """Run the BO loop for at most ``max_iterations`` probes."""
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

        n_candidates = self.candidates.shape[0]
        unprobed = self._unprobed
        unprobed.fill(True)
        history: list[Probe] = []
        best_value = -np.inf
        best_index = -1
        stall = 0
        converged = False
        surrogate = self._surrogate
        # Under PI the native step computes the z-scores itself; any other
        # acquisition or surrogate scores through predict().
        scores_natively = isinstance(surrogate, NativePosterior) and (
            type(self.acquisition) is ProbabilityOfImprovement
        )
        n_remaining = 0

        initial = self._rng.choice(
            n_candidates, size=self.n_initial, replace=False
        )
        probe_queue = list(initial)

        for _ in range(max_iterations):
            if probe_queue:
                index = int(probe_queue.pop(0))
            else:
                index = (
                    self._scored_index(n_remaining)
                    if scores_natively
                    else self._next_index(unprobed, best_value)
                )
                if index < 0:
                    converged = True
                    break
            unprobed[index] = False
            point = self.candidates[index]
            value = float(self.objective(point))
            history.append(Probe(tuple(point.tolist()), value))

            if self._improved(value, best_value):
                best_value = value
                best_index = index
                stall = 0
            else:
                if value > best_value:
                    # Better, but not by enough to reset the stall counter.
                    best_value = value
                    best_index = index
                stall += 1
            # Stop once stalled, or once every candidate is probed (each
            # at most once).
            done = stall >= self.patience or len(history) == n_candidates
            if scores_natively and not done and not probe_queue:
                n_remaining = surrogate.observe_and_score(
                    index, value, best_value, self.acquisition.xi
                )
            else:
                surrogate.observe(index, value)
            if done:
                converged = True
                break

        if best_index < 0:
            raise RuntimeError("the optimizer made no evaluations")
        return BOResult(
            best_point=tuple(self.candidates[best_index].tolist()),
            best_value=best_value,
            history=history,
            n_evaluations=len(history),
            converged=converged,
        )

    def _improved(self, value: float, best_value: float) -> bool:
        if not math.isfinite(best_value):
            return True
        margin = self.improvement_threshold * max(abs(best_value), 1e-12)
        return value > best_value + margin

    def _next_index(self, unprobed: np.ndarray, best_value: float) -> int:
        """Pick the unprobed candidate with the highest acquisition score."""
        remaining = np.nonzero(unprobed)[0]
        if remaining.size == 0:
            return -1
        mean, std = self._surrogate.predict(remaining)
        scores = self.acquisition(mean, std, best_value)
        return int(remaining[self._argmax(scores)])

    def _scored_index(self, n_remaining: int) -> int:
        """PI's pick from the native step's z-scores (see
        :meth:`NativePosterior.observe_and_score`)."""
        if n_remaining == 0:
            return -1
        from scipy.special import ndtr

        surrogate = self._surrogate
        scores = ndtr(surrogate.remaining_z[:n_remaining])
        return int(surrogate.remaining[self._argmax(scores)])

    def _argmax(self, scores: np.ndarray) -> int:
        # Randomised argmax so ties do not always resolve to the lowest index.
        top = np.nonzero(scores == scores.max())[0]
        return top[self._rng.integers(top.size)] if top.size > 1 else top[0]


def search_table(
    table: np.ndarray,
    gram: np.ndarray,
    rng: np.random.Generator,
    acquisition: AcquisitionFunction,
    n_initial: int,
    improvement_threshold: float,
    patience: int,
    max_iterations: int,
) -> tuple[np.ndarray, bool] | None:
    """:meth:`BayesianOptimizer.maximize` on a table, in one native call.

    The objective is Smartpick's Eq. 2 over ``table``, the ``RF_t`` of
    every candidate: probing candidate ``i`` observes
    ``-(table[i] + delta)`` with ``delta = rng.normal(0, 0.01 *
    max(table[i], 1))``.  The compiled ``bo_search`` runs the whole loop
    -- initial design, noise, stall rules, posterior, PI and its tie
    draws -- with numpy's own samplers on ``rng``'s bit generator and the
    kernel's bitwise port of scipy's ``ndtr``, so the probes, the
    incumbent, the convergence flag and ``rng``'s end state are those of
    ``maximize`` with the same arguments, that objective and the default
    :data:`NOISE`.  The initial design is drawn here, with the same
    ``rng.choice`` call.  The bit generator's lock is held through the
    call, as ``rng``'s own methods hold it.

    Returns the probed candidates in order followed by the incumbent,
    and the convergence flag; or ``None`` when this search cannot stand
    in for ``maximize``: no ``bo_search`` in the loaded kernel, an
    acquisition other than PI, a non-finite table entry, or arguments
    ``maximize`` rejects (it raises for those).
    """
    kernel = forest_native.load_kernel()
    search = None if kernel is None else kernel.bo_search
    table = np.ascontiguousarray(table, dtype=np.float64)
    n = table.shape[0]
    if (
        search is None
        or type(acquisition) is not ProbabilityOfImprovement
        or n == 0
        or np.shape(gram) != (n, n)
        or min(n_initial, patience, max_iterations) < 1
        or improvement_threshold < 0
        or not np.isfinite(table).all()
    ):
        return None
    gram = np.ascontiguousarray(gram, dtype=np.float64)
    initial = rng.choice(n, size=min(n_initial, n), replace=False)
    out = np.empty(min(max_iterations, n) + 2, dtype=np.int64)
    schur = np.empty(1)
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        count = search(
            gram.ctypes.data,
            n,
            table.ctypes.data,
            initial.ctypes.data,
            initial.size,
            max_iterations,
            improvement_threshold,
            # An integer stall count reaches a fractional patience at
            # its ceiling.
            math.ceil(patience),
            _nugget(NOISE),
            acquisition.xi,
            bit_generator.ctypes.bit_generator,
            out.ctypes.data,
            schur.ctypes.data,
        )
    if count == -1:
        raise MemoryError("bo_search could not allocate its scratch")
    if count == -2:
        raise ValueError(
            f"candidate {out[0]}: non-positive Schur complement "
            f"{schur[0]:.6g}; the Gram is not positive semi-definite"
        )
    if count == -3:
        # numpy's argmax over NaN scores finds no maximum.
        raise IndexError("index 0 is out of bounds for axis 0 with size 0")
    return out[1 : count + 2], bool(out[0])
