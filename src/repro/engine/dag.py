"""Queries as DAGs of dependent map/shuffle stages.

The paper targets MapReduce-like queries "containing several map and reduce
stages that cannot start until all their dependencies are resolved"
(Section 2.1).  A :class:`QuerySpec` is exactly that: stages with task
counts, per-task compute demand (calibrated to a reference AWS VM core),
input reads from object storage, and shuffle volumes between stages.
Stage dependencies are validated as a DAG by one Kahn's pass when the
query is built, which also fixes the stages' execution order.
"""

from __future__ import annotations

import dataclasses

__all__ = ["StageSpec", "QuerySpec"]


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One map or shuffle stage of a query.

    Attributes
    ----------
    stage_id:
        Index of the stage, unique within its query.
    n_tasks:
        Number of parallel tasks in the stage.
    task_compute_seconds:
        Pure CPU time of one task on the reference machine (AWS VM core).
    task_input_mb:
        Megabytes each task reads from *object storage* (non-zero for
        scan/leaf stages; intermediate stages read shuffle data instead).
    task_shuffle_mb:
        Megabytes of shuffle data each task exchanges with the previous
        stage.  On VMs this rides the fast intra-DC network; on SLs it
        transits the external store (Section 2.1).
    depends_on:
        Stage ids that must fully complete before this stage may start.
    """

    stage_id: int
    n_tasks: int
    task_compute_seconds: float
    task_input_mb: float = 0.0
    task_shuffle_mb: float = 0.0
    depends_on: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("a stage needs at least one task")
        if self.task_compute_seconds <= 0:
            raise ValueError("task_compute_seconds must be positive")
        if self.task_input_mb < 0 or self.task_shuffle_mb < 0:
            raise ValueError("data volumes must be non-negative")


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """A complete analytics query: metadata plus its stage DAG."""

    query_id: str
    suite: str
    stages: tuple[StageSpec, ...]
    input_gb: float
    sql: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a query needs at least one stage")
        if self.input_gb < 0:
            raise ValueError("input_gb must be non-negative")
        ids = [stage.stage_id for stage in self.stages]
        if len(set(ids)) != len(ids):
            raise ValueError("stage ids must be unique")
        known = set(ids)
        for stage in self.stages:
            missing = set(stage.depends_on) - known
            if missing:
                raise ValueError(
                    f"stage {stage.stage_id} depends on unknown stages {missing}"
                )
        # Frozen dataclass: stash the order via object.__setattr__.
        object.__setattr__(self, "_topo_order", self._kahn_order())

    def _kahn_order(self) -> tuple[StageSpec, ...]:
        """Stages in topological order, generation by generation.

        Roots come in stage order; each later generation lists the stages
        released by the one before, in release order (parents in order,
        each parent's children in stage order).  Repeated ``depends_on``
        entries count as one edge.  This is the order networkx's
        ``topological_sort`` gives for the same graph.
        """
        by_id = {stage.stage_id: stage for stage in self.stages}
        children: dict[int, list[int]] = {stage_id: [] for stage_id in by_id}
        waiting: dict[int, int] = {}
        for stage in self.stages:
            parents = dict.fromkeys(stage.depends_on)
            waiting[stage.stage_id] = len(parents)
            for parent in parents:
                children[parent].append(stage.stage_id)
        generation = [stage_id for stage_id, count in waiting.items() if not count]
        order: list[int] = []
        while generation:
            order.extend(generation)
            released = []
            for stage_id in generation:
                for child in children[stage_id]:
                    waiting[child] -= 1
                    if not waiting[child]:
                        released.append(child)
            generation = released
        if len(order) < len(by_id):
            raise ValueError(f"query {self.query_id} has a dependency cycle")
        return tuple(by_id[stage_id] for stage_id in order)

    def topological_stages(self) -> list[StageSpec]:
        """Stages in a valid execution order.

        The order is computed once, when the query is built; a fresh list
        is returned each call so callers may mutate their copy.
        """
        return list(self._topo_order)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def total_tasks(self) -> int:
        return sum(stage.n_tasks for stage in self.stages)

    @property
    def total_compute_seconds(self) -> float:
        """Serial CPU demand of the whole query on the reference machine."""
        return sum(
            stage.n_tasks * stage.task_compute_seconds for stage in self.stages
        )

    @property
    def critical_path_length(self) -> int:
        """Stages on the longest dependency chain."""
        depth: dict[int, int] = {}
        for stage in self._topo_order:
            depth[stage.stage_id] = 1 + max(
                (depth[parent] for parent in stage.depends_on), default=0
            )
        return max(depth.values())

    def scaled_to_input(self, input_gb: float) -> "QuerySpec":
        """The same query against a different dataset size.

        Data-dependent quantities (per-task input, shuffle volumes and the
        data-proportional share of compute) scale with the ratio; task
        counts stay fixed, as Spark keeps partitioning stable for a given
        configuration.  Used by the Section 6.5.2 experiment where the
        database grows from 100 GB to 500 GB.
        """
        if input_gb <= 0:
            raise ValueError("input_gb must be positive")
        if self.input_gb == 0:
            raise ValueError("cannot scale a query with zero input")
        ratio = input_gb / self.input_gb
        # Roughly half of task compute is data-proportional (scans, hashing);
        # the rest is fixed per-task overhead.
        compute_scale = 0.5 + 0.5 * ratio
        stages = tuple(
            dataclasses.replace(
                stage,
                task_compute_seconds=stage.task_compute_seconds * compute_scale,
                task_input_mb=stage.task_input_mb * ratio,
                task_shuffle_mb=stage.task_shuffle_mb * ratio,
            )
            for stage in self.stages
        )
        return dataclasses.replace(self, stages=stages, input_gb=input_gb)
