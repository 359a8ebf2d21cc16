"""The cost-performance tradeoff knob (Section 3.3, Eq. 4).

With the knob (epsilon) set above zero, Smartpick no longer returns the
best-performance configuration; it traverses the Estimated Time list
(``ET_l``) of candidate solutions the optimizer explored and solves

    max  T_est,          T_est in ET_l
    s.t. nVM * t_vm * C_vm + nSL * t_sl * C_sl <= C_best
         T_est <= T_best * (1 + epsilon)

i.e. it admits up to ``epsilon`` extra latency and, within that budget,
picks the candidate drawing minimum compute cost.  The naive alternative
the paper rejects -- proportionally scaling the optimal configuration down
-- is implemented too (:func:`naive_scale_down`) for the ablation bench.

The Estimated Time list exists in two representations:

- :class:`EstimatedTimeEntry` objects solved by :func:`select_with_knob`
  -- the readable reference implementation, and the form callers see when
  they inspect ``ConfigDecision.et_list``.
- :class:`DecisionGrid` -- the same information as three parallel float64
  arrays, solved by :meth:`DecisionGrid.select_index_with_knob` with one
  boolean-mask pass.  The hot decision path stays array-native end to end
  and entries are only materialised on demand.

Both solvers run the exact same float64 comparisons in an order that
preserves the reference's stable tie-breaking, so they pick the
*bitwise-identical* winner for any grid, knob and tie pattern (the
property suite in ``tests/test_properties.py`` pins this).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "EstimatedTimeEntry",
    "DecisionGrid",
    "select_with_knob",
    "naive_scale_down",
]


@dataclasses.dataclass(frozen=True)
class EstimatedTimeEntry:
    """One candidate solution explored during resource determination.

    ``estimated_seconds`` is the noise-free RF estimate (``T_est``);
    ``estimated_cost`` is the Eq. 4 cost term for this configuration,
    split into its VM and SL usage components by the caller.
    """

    n_vm: int
    n_sl: int
    estimated_seconds: float
    estimated_cost: float

    @property
    def config(self) -> tuple[int, int]:
        return (self.n_vm, self.n_sl)


class DecisionGrid:
    """An Estimated Time list as three parallel arrays.

    ``candidates`` holds the ``(nVM, nSL)`` rows, ``seconds`` the
    noise-free RF estimates and ``costs`` the Eq. 4 cost terms -- exactly
    the values the equivalent ``list[EstimatedTimeEntry]`` would carry,
    kept in array form so resource determination never has to pay the
    per-entry object tax.  Entries materialise lazily via
    :meth:`entries` / :meth:`entry` (``float()`` / ``int()`` of the same
    array elements, so the round trip is exact).

    The arrays are marked read-only: one grid may back many
    ``ConfigDecision`` objects and live in serving's reuse cache.
    """

    __slots__ = ("candidates", "seconds", "costs")

    def __init__(
        self,
        candidates: np.ndarray,
        seconds: np.ndarray,
        costs: np.ndarray,
    ) -> None:
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        seconds = np.asarray(seconds, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if candidates.ndim != 2 or candidates.shape[1] != 2:
            raise ValueError("candidates must be an (n, 2) array")
        if seconds.shape != (candidates.shape[0],):
            raise ValueError("seconds and candidates disagree on entry count")
        if costs.shape != seconds.shape:
            raise ValueError("costs and seconds disagree on entry count")
        for array in (candidates, seconds, costs):
            if array.flags.writeable:
                array.flags.writeable = False
        self.candidates = candidates
        self.seconds = seconds
        self.costs = costs

    def __len__(self) -> int:
        return int(self.seconds.shape[0])

    def entry(self, index: int) -> EstimatedTimeEntry:
        """Materialise one entry (exact values, no rounding)."""
        point = self.candidates[index]
        return EstimatedTimeEntry(
            n_vm=int(point[0]),
            n_sl=int(point[1]),
            estimated_seconds=float(self.seconds[index]),
            estimated_cost=float(self.costs[index]),
        )

    def entries(self) -> list[EstimatedTimeEntry]:
        """The full Estimated Time list, materialised on demand."""
        return [
            EstimatedTimeEntry(
                n_vm=int(point[0]),
                n_sl=int(point[1]),
                estimated_seconds=float(t_est),
                estimated_cost=float(cost),
            )
            for point, t_est, cost in zip(self.candidates, self.seconds, self.costs)
        ]

    def best_index(self) -> int:
        """Index of the best-performance entry (``T_best``).

        First index of the minimum estimated time -- identical to
        ``min(entries, key=lambda e: e.estimated_seconds)``, which also
        keeps the first among exact ties.
        """
        if len(self) == 0:
            raise ValueError("the grid is empty")
        return int(np.argmin(self.seconds))

    def select_index_with_knob(
        self,
        best_seconds: float,
        best_cost: float,
        epsilon: float,
    ) -> int | None:
        """Vectorised Eq. 4 over the grid; ``None`` keeps ``best``.

        Solves the same problem as :func:`select_with_knob` against a
        ``best`` entry described by ``(best_seconds, best_cost)`` (which
        need not be a grid row -- the BO path appends its winner
        separately).  Returns the index of the admissible minimum-cost /
        maximum-time entry, or ``None`` when no admissible candidate
        exists or ``epsilon`` is zero, in which case the caller keeps
        ``best`` -- exactly the reference's fallback.

        The comparisons (``<=`` against the same float64 budget and cost
        bound) and the tie-breaking (first index among entries tied on
        both cost and time, via first-``True`` ``argmax``) replicate the
        reference's stable ``min`` bit for bit.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if epsilon == 0 or len(self) == 0:
            return None
        latency_budget = best_seconds * (1.0 + epsilon)
        admissible = (self.seconds <= latency_budget) & (self.costs <= best_cost)
        if not admissible.any():
            return None
        min_cost = self.costs[admissible].min()
        cheapest = admissible & (self.costs == min_cost)
        max_seconds = self.seconds[cheapest].max()
        return int(np.argmax(cheapest & (self.seconds == max_seconds)))


def select_with_knob(
    et_list: list[EstimatedTimeEntry],
    best: EstimatedTimeEntry,
    epsilon: float,
) -> EstimatedTimeEntry:
    """Solve Eq. 4 over the Estimated Time list.

    Parameters
    ----------
    et_list:
        Candidate solutions explored for the final optimum (``ET_l``).
    best:
        The optimal entry (``T_best`` / ``C_best``).
    epsilon:
        The tolerance knob; 0 returns ``best`` unchanged.

    Returns
    -------
    The admissible entry with the lowest estimated cost; ties break toward
    the *larger* estimated time (the objective maximises ``T_est``).  The
    paper notes the cost reduction "is not always guaranteed" -- when no
    cheaper admissible candidate exists, ``best`` itself is returned.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if epsilon == 0:
        return best

    latency_budget = best.estimated_seconds * (1.0 + epsilon)
    admissible = [
        entry
        for entry in et_list
        if entry.estimated_seconds <= latency_budget
        and entry.estimated_cost <= best.estimated_cost
    ]
    if not admissible:
        return best
    # Minimum cost first; among equal costs prefer the higher T_est,
    # matching the maximise-T_est objective under the cost constraint.
    return min(
        admissible,
        key=lambda entry: (entry.estimated_cost, -entry.estimated_seconds),
    )


def naive_scale_down(
    best: EstimatedTimeEntry,
    epsilon: float,
) -> tuple[int, int]:
    """The rejected baseline: proportionally shrink the optimal config.

    "Setting the epsilon value to 0.5 halves the numbers of SL and VM
    instances from the optimal configurations" (Section 3.3).  Kept for the
    knob ablation, which shows why Eq. 4's targeted search is smoother.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    scale = max(1.0 - epsilon, 0.0)
    n_vm = int(round(best.n_vm * scale))
    n_sl = int(round(best.n_sl * scale))
    if n_vm + n_sl == 0:
        # Never scale to an empty cluster; keep one worker of the majority
        # kind from the optimal configuration.
        if best.n_vm >= best.n_sl:
            n_vm = 1
        else:
            n_sl = 1
    return n_vm, n_sl
