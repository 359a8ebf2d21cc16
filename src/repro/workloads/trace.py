"""Workload traces: sequences of dynamically arriving queries.

The paper's system model (Section 2.1) distinguishes *static* recurring
queries from *dynamic* ad-hoc ones that "may cause peak workloads".  A
:class:`WorkloadTrace` is a time-ordered sequence of query arrivals;
:class:`PoissonTraceGenerator` synthesises them with Poisson inter-arrival
times, a weighted query mix, optional diurnal bursts and optional dataset
growth over the trace -- everything needed to replay a realistic day of
ad-hoc analytics against Smartpick (see :mod:`repro.core.serving`).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

__all__ = [
    "TraceEvent",
    "WorkloadTrace",
    "ColumnarTrace",
    "PoissonTraceGenerator",
    "merge_arrival_columns",
]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One query arrival."""

    arrival_s: float
    query_id: str
    input_gb: float = 100.0

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.input_gb <= 0:
            raise ValueError("input_gb must be positive")


@dataclasses.dataclass(frozen=True)
class WorkloadTrace:
    """A time-ordered sequence of query arrivals."""

    events: tuple[TraceEvent, ...]

    def __post_init__(self) -> None:
        arrivals = [event.arrival_s for event in self.events]
        if arrivals != sorted(arrivals):
            raise ValueError("trace events must be ordered by arrival time")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        if not self.events:
            return 0.0
        return self.events[-1].arrival_s

    def query_counts(self) -> dict[str, int]:
        """Arrivals per query identifier."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.query_id] = counts.get(event.query_id, 0) + 1
        return counts

    def arrivals_in(self, start_s: float, end_s: float) -> tuple[TraceEvent, ...]:
        """Events with ``start_s <= arrival < end_s``."""
        if end_s < start_s:
            raise ValueError("end_s must not precede start_s")
        return tuple(
            event for event in self.events
            if start_s <= event.arrival_s < end_s
        )

    # ------------------------------------------------------------------
    # JSON round trip (traces are experiment artifacts)
    # ------------------------------------------------------------------

    def dump_json(self, path: str | pathlib.Path) -> None:
        payload = [dataclasses.asdict(event) for event in self.events]
        pathlib.Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def load_json(cls, path: str | pathlib.Path) -> "WorkloadTrace":
        payload = json.loads(pathlib.Path(path).read_text())
        return cls(events=tuple(TraceEvent(**event) for event in payload))


@dataclasses.dataclass(frozen=True, eq=False)
class ColumnarTrace:
    """Column-array form of an arrival trace, for million-arrival replay.

    Semantically a :class:`WorkloadTrace`, but stored as three parallel
    numpy columns plus a small distinct-identifier table instead of one
    :class:`TraceEvent` object per arrival -- tens of bytes per arrival
    instead of hundreds, and O(1) Python objects regardless of length.
    :meth:`ServingSimulator.replay <repro.core.serving.ServingSimulator>`
    accepts either form and drains this one directly.
    """

    arrival_s: np.ndarray
    query_index: np.ndarray
    input_gb: np.ndarray
    query_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        arrival_s = np.ascontiguousarray(self.arrival_s, dtype=np.float64)
        query_index = np.ascontiguousarray(self.query_index, dtype=np.int32)
        input_gb = np.ascontiguousarray(self.input_gb, dtype=np.float64)
        if not (len(arrival_s) == len(query_index) == len(input_gb)):
            raise ValueError("trace columns must have equal length")
        if len(arrival_s):
            if arrival_s[0] < 0:
                raise ValueError("arrival_s must be non-negative")
            if np.any(np.diff(arrival_s) < 0):
                raise ValueError(
                    "trace events must be ordered by arrival time"
                )
            if np.any(input_gb <= 0):
                raise ValueError("input_gb must be positive")
            if query_index.min() < 0 or query_index.max() >= len(self.query_ids):
                raise ValueError("query_index out of range of query_ids")
        for column in (arrival_s, query_index, input_gb):
            column.setflags(write=False)
        object.__setattr__(self, "arrival_s", arrival_s)
        object.__setattr__(self, "query_index", query_index)
        object.__setattr__(self, "input_gb", input_gb)
        object.__setattr__(self, "query_ids", tuple(self.query_ids))

    def __len__(self) -> int:
        return len(self.arrival_s)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        if not len(self.arrival_s):
            return 0.0
        return float(self.arrival_s[-1])

    def query_counts(self) -> dict[str, int]:
        """Arrivals per query identifier."""
        counts = np.bincount(self.query_index, minlength=len(self.query_ids))
        return {
            query_id: int(count)
            for query_id, count in zip(self.query_ids, counts)
            if count
        }

    def head(self, n: int) -> "ColumnarTrace":
        """The first ``n`` arrivals (baseline subsampling in benches)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return ColumnarTrace(
            arrival_s=self.arrival_s[:n].copy(),
            query_index=self.query_index[:n].copy(),
            input_gb=self.input_gb[:n].copy(),
            query_ids=self.query_ids,
        )

    @classmethod
    def from_trace(cls, trace: WorkloadTrace) -> "ColumnarTrace":
        """Columnise an event-object trace (identifiers deduplicated)."""
        ids: dict[str, int] = {}
        index = np.empty(len(trace.events), dtype=np.int32)
        for position, event in enumerate(trace.events):
            index[position] = ids.setdefault(event.query_id, len(ids))
        return cls(
            arrival_s=np.array(
                [event.arrival_s for event in trace.events], dtype=np.float64
            ),
            query_index=index,
            input_gb=np.array(
                [event.input_gb for event in trace.events], dtype=np.float64
            ),
            query_ids=tuple(ids),
        )


class PoissonTraceGenerator:
    """Synthesises arrival traces with a Poisson process.

    Parameters
    ----------
    query_mix:
        ``{query_id: weight}``; arrival identities are drawn
        proportionally to the weights.
    rate_per_minute:
        Mean arrival rate of the base Poisson process.
    burst_factor / burst_fraction:
        A fraction of the trace (in the middle) runs at
        ``burst_factor x`` the base rate -- the "peak workloads caused by
        dynamic queries" of Section 2.1.  ``burst_factor=1`` disables it.
    input_gb / final_input_gb:
        Dataset size at the start and end of the trace; sizes interpolate
        linearly in between (Section 6.5.2's growth, made continuous).
    """

    def __init__(
        self,
        query_mix: dict[str, float],
        rate_per_minute: float = 2.0,
        burst_factor: float = 1.0,
        burst_fraction: float = 0.2,
        input_gb: float = 100.0,
        final_input_gb: float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not query_mix:
            raise ValueError("query_mix must not be empty")
        if any(weight <= 0 for weight in query_mix.values()):
            raise ValueError("query weights must be positive")
        if rate_per_minute <= 0:
            raise ValueError("rate_per_minute must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be at least 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if input_gb <= 0:
            raise ValueError("input_gb must be positive")
        self.query_mix = dict(query_mix)
        self.rate_per_minute = rate_per_minute
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        self.input_gb = input_gb
        self.final_input_gb = final_input_gb or input_gb
        self._rng = np.random.default_rng(rng)

    def generate(self, duration_minutes: float) -> WorkloadTrace:
        """A trace covering ``duration_minutes`` of simulated time."""
        if duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")
        duration_s = duration_minutes * 60.0
        burst_start = duration_s * (0.5 - self.burst_fraction / 2.0)
        burst_end = duration_s * (0.5 + self.burst_fraction / 2.0)

        ids = list(self.query_mix)
        weights = np.array([self.query_mix[q] for q in ids], dtype=float)
        weights /= weights.sum()

        events: list[TraceEvent] = []
        now = 0.0
        while True:
            rate = self.rate_per_minute / 60.0
            if burst_start <= now < burst_end:
                rate *= self.burst_factor
            now += float(self._rng.exponential(1.0 / rate))
            if now >= duration_s:
                break
            progress = now / duration_s
            size = self.input_gb + progress * (
                self.final_input_gb - self.input_gb
            )
            query_id = ids[int(self._rng.choice(len(ids), p=weights))]
            events.append(
                TraceEvent(arrival_s=now, query_id=query_id, input_gb=size)
            )
        return WorkloadTrace(events=tuple(events))


def merge_arrival_columns(
    pairs: "list[tuple[str, WorkloadTrace | ColumnarTrace]]",
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-tenant traces into one time-ordered column set.

    Returns ``(times, query_ids, query_index, input_gb, tenant_index)``
    with ``query_index`` into the deduplicated ``query_ids`` table and
    ``tenant_index`` into ``pairs`` order.  The sort is stable, so equal
    arrival times keep pair order (and, within a pair, trace order),
    which is the order the serving replay sizes same-time arrivals in.
    The replay drains these columns; a columnar trace passes straight
    through without materialising event objects.
    """
    id_table: dict[str, int] = {}
    times_parts: list[np.ndarray] = []
    index_parts: list[np.ndarray] = []
    size_parts: list[np.ndarray] = []
    tenant_parts: list[np.ndarray] = []
    for pair_index, (_, trace) in enumerate(pairs):
        if isinstance(trace, ColumnarTrace):
            remap = np.array(
                [
                    id_table.setdefault(query_id, len(id_table))
                    for query_id in trace.query_ids
                ],
                dtype=np.int32,
            )
            times_parts.append(trace.arrival_s)
            index_parts.append(
                remap[trace.query_index]
                if len(remap)
                else trace.query_index
            )
            size_parts.append(trace.input_gb)
        else:
            times_parts.append(np.array(
                [event.arrival_s for event in trace.events],
                dtype=np.float64,
            ))
            index_parts.append(np.array(
                [
                    id_table.setdefault(event.query_id, len(id_table))
                    for event in trace.events
                ],
                dtype=np.int32,
            ))
            size_parts.append(np.array(
                [event.input_gb for event in trace.events],
                dtype=np.float64,
            ))
        tenant_parts.append(
            np.full(len(times_parts[-1]), pair_index, dtype=np.int32)
        )
    if not times_parts:
        return (
            np.empty(0, dtype=np.float64),
            (),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int32),
        )
    times = np.concatenate(times_parts)
    order = np.argsort(times, kind="stable")
    return (
        times[order],
        tuple(id_table),
        np.concatenate(index_parts)[order],
        np.concatenate(size_parts)[order],
        np.concatenate(tenant_parts)[order],
    )
