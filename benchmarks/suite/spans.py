"""Outside-in layer tracing: spans around the serving stack's entry points.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
each listed class attribute (or module function) with a wrapper that
records a ``perf_counter_ns`` span -- name, start, end, parent -- and
restores the originals on exit.  Per name it aggregates calls, total
time, *self* time (the span minus the part of it that child spans
cover) and an optional work count read off the call's arguments (leases
per ``acquire_many``, rows per ``observe_columns``, ...).

The replay entry point is the root span, so its self time is the
replay's residual outside every wrapped call (admission, coalescing,
retirement), and self times over all names sum to the traced replay's
wall time with no unattributed bucket.  Callbacks that fire from an
event drain without a wrapped entry point of their own land in the
drain's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

__all__ = ["TARGETS", "Tracer"]


def _count_arg(position: int):
    """Work count = ``len`` of the call's ``position``-th argument."""
    def count(args, kwargs):
        return len(args[position])
    return count


#: (span name, module, class or None for a module function, attribute,
#: work counter).  Several attributes may share one span name.
TARGETS = (
    ("core.serving.replay", "repro.core.serving", "ServingSimulator",
     "replay_multi", None),
    ("core.job.decide", "repro.core.job", "JobInitializer", "decide", None),
    ("core.job.decide_many", "repro.core.job", "JobInitializer",
     "decide_many", _count_arg(1)),
    ("core.job.finalize", "repro.core.job", "JobInitializer", "finalize",
     None),
    ("core.predictor.determine", "repro.core.predictor",
     "WorkloadPredictor", "determine", None),
    ("core.predictor.determine_batch", "repro.core.predictor",
     "WorkloadPredictor", "determine_batch", None),
    ("ml.random_forest.predict", "repro.ml.random_forest",
     "RandomForestRegressor", "predict", None),
    ("cloud.pool.acquire_many", "repro.cloud.pool", "ClusterPool",
     "acquire_many", _count_arg(1)),
    ("cloud.pool.acquire", "repro.cloud.pool", "ClusterPool", "acquire",
     None),
    ("cloud.pool.release", "repro.cloud.pool", "ClusterPool", "release",
     None),
    ("cloud.pool.release_instance", "repro.cloud.pool", "ClusterPool",
     "release_instance", None),
    ("cloud.pool.apply_plan", "repro.cloud.pool", "ClusterPool",
     "apply_plan", None),
    ("engine.simulator.drain", "repro.engine.simulator", "Simulator",
     "run_before", None),
    ("engine.simulator.drain", "repro.engine.simulator", "Simulator",
     "run", None),
    ("engine.plan.begin", "repro.engine.plan", "PlanRunner", "begin", None),
    # The grant callback runs inside pool calls; wrapping it keeps plan
    # execution out of the pool's self time.
    ("engine.plan.on_granted", "repro.engine.plan", "PlanRunner",
     "_on_granted", None),
    ("engine.runner.launch_query", "repro.core.serving", None,
     "launch_query", None),
    ("core.serving.stream.observe_columns", "repro.core.serving",
     "ServingStream", "observe_columns", _count_arg(2)),
    ("core.serving.stream.observe", "repro.core.serving", "ServingStream",
     "observe", None),
    ("core.epochs.on_epoch_end", "repro.core.epochs", "FleetPlanner",
     "on_epoch_end", None),
    ("core.epochs.observe_arrival", "repro.core.epochs", "FleetPlanner",
     "observe_arrival", None),
    ("core.forecast.keep_alive", "repro.core.forecast",
     "PredictiveKeepAlive", "keep_alive", None),
    ("core.forecast.observe_arrival", "repro.core.forecast",
     "PredictiveKeepAlive", "observe_arrival", None),
)


class Tracer:
    """Span recorder over :data:`TARGETS`; use as a context manager.

    ``stats[name]`` is ``[calls, total_ns, self_ns, work]``; ``spans``
    holds the first ``max_spans`` spans opened, in closing order, as
    ``(span_id, name, start_ns, end_ns, parent_id, work)`` (parent -1
    for the root).  ``missing`` lists targets the code no longer has;
    they are reported, not fatal.
    """

    def __init__(self, targets=TARGETS, max_spans: int = 20_000) -> None:
        self.targets = targets
        self.max_spans = max_spans
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.n_spans = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []
        #: The last simulator a drain ran on (its event count is a
        #: per-layer metric).
        self.simulator = None

    def __enter__(self) -> "Tracer":
        for name, module_name, class_name, attribute, counter in self.targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = (
                None if owner is None else owner.__dict__.get(attribute)
            )
            if not callable(original):
                self.missing.append(
                    f"{module_name}.{class_name or ''}.{attribute}"
                )
                continue
            self.stats.setdefault(name, [0, 0, 0, 0])
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, name: str, original, counter):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        is_drain = name == "engine.simulator.drain"

        def wrapper(*args, **kwargs):
            span_id = self.n_spans
            self.n_spans = span_id + 1
            # frame: [time covered by child spans, span id]
            frame = [0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                work = 0 if counter is None else counter(args, kwargs)
                stats[3] += work
                if stack:
                    stack[-1][0] += elapsed
                if span_id < self.max_spans:
                    spans.append((span_id, name, start, end, parent, work))
                if is_drain:
                    self.simulator = args[0]

        return functools.wraps(original)(wrapper)
