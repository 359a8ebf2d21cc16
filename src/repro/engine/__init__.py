"""Discrete-event execution engine (the Spark substrate).

The paper runs queries on Spark 2.2.1 executors spread across VMs and
serverless instances.  This package substitutes a discrete-event simulator
that preserves the interfaces Smartpick actually touches:

- :mod:`repro.engine.simulator` -- the event-heap simulation core.
- :mod:`repro.engine.dag` -- queries as DAGs of map/shuffle stages with
  dependent tasks (validated, and put in execution order, once per
  query by a stdlib Kahn's pass).
- :mod:`repro.engine.task` -- task instances and duration sampling.
- :mod:`repro.engine.executor` -- executor slots on top of cloud instances.
- :mod:`repro.engine.policies` -- SL termination policies: Smartpick's
  relay, SplitServe's static-timeout segueing, and run-to-completion.
- :mod:`repro.engine.scheduler` -- the wave-based task scheduler tying it
  all together.
- :mod:`repro.engine.listener` -- Spark-listener-style event hooks used by
  Smartpick's Monitor & Feature Extraction component.
- :mod:`repro.engine.runner` -- the one-call entry point
  :func:`~repro.engine.runner.run_query`.
"""

from repro.engine.dag import QuerySpec, StageSpec
from repro.engine.executor import Executor
from repro.engine.listener import ExecutionListener, MetricsListener, QueryMetrics
from repro.engine.policies import (
    NoEarlyTermination,
    RelayPolicy,
    SegueTimeoutPolicy,
    TerminationPolicy,
)
from repro.engine.runner import (
    QueryExecution,
    QueryRunResult,
    RetryPolicy,
    launch_query,
    run_query,
)
from repro.engine.scheduler import TaskScheduler
from repro.engine.simulator import EventHandle, Simulator
from repro.engine.task import Task

__all__ = [
    "EventHandle",
    "ExecutionListener",
    "Executor",
    "MetricsListener",
    "NoEarlyTermination",
    "QueryExecution",
    "QueryMetrics",
    "QueryRunResult",
    "QuerySpec",
    "RelayPolicy",
    "RetryPolicy",
    "SegueTimeoutPolicy",
    "Simulator",
    "StageSpec",
    "Task",
    "TaskScheduler",
    "TerminationPolicy",
    "launch_query",
    "run_query",
]
