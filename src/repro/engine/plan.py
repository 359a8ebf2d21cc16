"""Compiled execution plans: the vectorized submission fast path.

Trace serving replays millions of arrivals, almost all of which are
repeat executions of a handful of query classes.  The classic path
builds a full :class:`~repro.engine.scheduler.TaskScheduler` (executors,
``Task`` objects, one heap event per task) for every arrival; this
module compiles each query class once into a :class:`StagePlan` --
flattened stage-DAG arrays plus noise-free per-kind task durations --
and then executes repeat arrivals through a :class:`PlanRunner`.

A ``PlanRunner`` reproduces the ``TaskScheduler`` semantics *exactly*
(same dispatch rule, same relay retirements, same release ordering) but
simulates the whole query locally at lease-grant time with a tiny
private heap, and schedules only the externally visible moments on the
global simulator: per-instance releases and the query completion.  A
100-task query that used to cost >200 global heap events costs 2-5.

Per-instance counters (``busy_seconds``, ``tasks_executed``) are applied
lazily: an instance's tasks are added when it is released or the query
completes, and on a fault revocation at time ``t`` only the tasks that
started strictly before ``t`` are (fault kills are armed at hand-over,
before the grant, so a kill sorts ahead of a task start at the same
instant).  Nothing reads an exclusively leased instance's counters in
between, so every instance ends with the counters ``mark_busy`` at each
task start would have given it, summed in the same order.

Noise convention: a runner draws its query's entire duration-noise
block in one vectorized call at submit time and consumes it in
task-start order, exactly as :class:`TaskScheduler` does, so the two
match bit for bit.  Under ``submission="vector"`` serving runs every
arrival through a ``PlanRunner`` and never through the per-task
scheduler: the policies serving picks (relay and run-to-completion) are
exactly those :func:`plan_supports` accepts, and a runner given any
other policy raises ``ValueError`` instead of silently dropping its
timeout semantics.

Event-order fidelity vs the per-task event engine: within a query,
every event is scheduled in local-chronological order, and relay SLs
retired before their own boot get their boot event cancelled at grant
time so the release-vs-boot tie cannot invert.  Across queries, events
scheduled here fire in grant order at shared timestamps; exact
cross-query ties between *different-shaped* completion chains would
require exact float equality of independent noise sums and do not occur
with a nonzero provider ``noise_sigma``.
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING, Callable

from repro.cloud.instances import InstanceKind
from repro.cloud.pool import DEFAULT_TENANT
from repro.engine.dag import QuerySpec
from repro.engine.listener import QueryMetrics
from repro.engine.policies import TerminationPolicy
from repro.engine.runner import QueryRunResult
from repro.engine.task import TaskDurationModel

if TYPE_CHECKING:
    from repro.cloud.pool import ClusterPool, PoolLease

__all__ = ["StagePlan", "PlanRunner", "plan_supports"]

# Local-heap event codes.
_READY = 0
_DONE = 1

# Executor-record slots (plain lists beat objects on this hot path).
_E_INST = 0  # local instance index
_E_VM = 1    # bool: is a VM
_E_FREE = 2  # free slots
_E_RET = 3   # retiring flag
_E_RUN = 4   # running task count


def plan_supports(policy: TerminationPolicy) -> bool:
    """Whether the compiled fast path covers ``policy``.

    Relay and run-to-completion are covered; segueing (static timeouts,
    held drained instances) keeps instances leased past idleness on a
    wall-clock schedule and stays on the classic object path.
    """
    return (
        policy.static_timeout_seconds is None
        and not policy.holds_drained_instances
    )


class StagePlan:
    """One query class compiled to flat arrays.

    Everything decision- and noise-independent is computed once: the
    memoized topological stage order flattened to parallel arrays, the
    legacy child-enqueue order, and the noise-free expected duration of
    one task of each stage on each worker kind.
    """

    __slots__ = (
        "query",
        "n_stages",
        "total_tasks",
        "n_tasks",
        "expected_vm",
        "expected_sl",
        "unmet0",
        "children",
        "roots",
    )

    def __init__(
        self, query: QuerySpec, duration_model: TaskDurationModel
    ) -> None:
        topo = query.topological_stages()
        self.query = query
        self.n_stages = len(topo)
        self.total_tasks = query.total_tasks
        self.n_tasks = [stage.n_tasks for stage in topo]
        self.expected_vm = [
            duration_model.expected(stage, InstanceKind.VM) for stage in topo
        ]
        self.expected_sl = [
            duration_model.expected(stage, InstanceKind.SERVERLESS)
            for stage in topo
        ]
        idx_of = {stage.stage_id: i for i, stage in enumerate(topo)}
        self.unmet0 = [len(stage.depends_on) for stage in topo]
        children: list[list[int]] = [[] for _ in topo]
        # Children are discovered in query.stages declaration order --
        # the order TaskScheduler enqueues newly unblocked stages in.
        for stage in query.stages:
            for parent in stage.depends_on:
                children[idx_of[parent]].append(idx_of[stage.stage_id])
        self.children = [tuple(c) for c in children]
        # Roots enqueue in topological order at submit.
        self.roots = tuple(
            i for i in range(len(topo)) if self.unmet0[i] == 0
        )


class PlanRunner:
    """Executes one arrival through a compiled :class:`StagePlan`.

    Lifecycle: ``begin(n_vm, n_sl)`` draws the noise block and returns
    the pool request tuple (so callers can batch requests through
    :meth:`~repro.cloud.pool.ClusterPool.acquire_many`); the grant
    callback runs the local wave simulation and schedules the release /
    completion events; ``bind(lease)`` wires revocation.  On completion
    ``on_complete(runner)`` fires with :attr:`result` set; on a fault
    revocation every scheduled event is cancelled and
    ``on_failed(runner, reason)`` fires instead.  A ``policy`` that
    :func:`plan_supports` rejects raises ``ValueError``.
    """

    __slots__ = (
        "plan",
        "pool",
        "duration_model",
        "policy",
        "tenant",
        "on_complete",
        "on_failed",
        "result",
        "failed",
        "failure_reason",
        "lease",
        "_noise",
        "_submitted_at",
        "_completed_at",
        "_handles",
        "_instances",
        "_starts_by_inst",
        "_durs_by_inst",
        "_metrics",
    )

    def __init__(
        self,
        plan: StagePlan,
        pool: "ClusterPool",
        duration_model: TaskDurationModel,
        policy: TerminationPolicy,
        tenant: str = DEFAULT_TENANT,
        on_complete: Callable[["PlanRunner"], None] | None = None,
        on_failed: Callable[["PlanRunner", str], None] | None = None,
    ) -> None:
        if not plan_supports(policy):
            raise ValueError(
                f"a compiled plan cannot run {policy.describe()}: static "
                "timeouts and drained-instance holds need the per-task "
                "scheduler (launch_query)"
            )
        self.plan = plan
        self.pool = pool
        self.duration_model = duration_model
        self.policy = policy
        self.tenant = tenant
        self.on_complete = on_complete
        self.on_failed = on_failed
        self.result: QueryRunResult | None = None
        self.failed = False
        self.failure_reason: str | None = None
        self.lease: "PoolLease | None" = None
        self._noise: list[float] | None = None
        self._submitted_at = 0.0
        self._completed_at: float | None = None
        self._handles: list[object] = []
        self._instances: list[object] = []
        self._starts_by_inst: list[list[float]] = []
        self._durs_by_inst: list[list[float]] = []
        self._metrics: QueryMetrics | None = None

    @property
    def query(self) -> QuerySpec:
        return self.plan.query

    @property
    def completed(self) -> bool:
        return self.result is not None

    def begin(
        self,
        n_vm: int,
        n_sl: int,
        noise: list[float] | None = None,
        deadline_s: float | None = None,
    ) -> tuple:
        """Record submission and draw the noise block; returns the
        ``(n_vm, n_sl, on_instance_ready, on_granted, tenant,
        deadline_s)`` request for :meth:`ClusterPool.acquire_many`.

        ``noise`` lets a batch submitter pre-draw one combined block for
        several runners and hand each its slice: ``Generator.normal``
        fills arrays sequentially from the bitstream, so a group-sized
        draw split in submit order is bitwise identical to per-runner
        draws.  The ready callback is ``None``: the runner's timeline is
        local, so warm hand-overs need no boot event at all.
        ``deadline_s`` stamps the lease's SLO deadline for
        deadline-aware grant ordering; plan runners simulate the whole
        query at grant time, so they are never preemption *victims*,
        but their requests still queue in slack order.
        """
        self._submitted_at = self.pool.simulator.now
        if noise is None:
            # Presample convention: one vectorized draw per query at
            # submit, consumed in task-start order (bitwise == sequential
            # draws).
            noise = self.duration_model.noise_block(
                self.plan.total_tasks
            ).tolist()
        self._noise = noise
        return (n_vm, n_sl, None, self._on_granted, self.tenant, deadline_s)

    def bind(self, lease: "PoolLease") -> None:
        """Wire revocation on the granted-or-queued lease."""
        self.lease = lease
        lease.on_revoked = self._on_revoked

    # ------------------------------------------------------------------
    # Grant: local wave simulation
    # ------------------------------------------------------------------

    def _on_granted(self, lease: "PoolLease") -> None:
        self.lease = lease
        plan = self.plan
        pool = self.pool
        sim = pool.simulator
        pairs = self.policy.pairs_instances
        injector = pool.fault_injector

        instances = [*lease.vms, *lease.sls]
        self._instances = instances
        n_inst = len(instances)
        n_vm = len(lease.vms)
        boot_times = [
            lease.scheduled_ready_time(inst) for inst in instances
        ]
        if injector is None:
            factors = None
        else:
            factors = [pool.runtime_factor(inst) for inst in instances]

        # Single-wave closed form: one stage, no relay retirements, every
        # worker ready at the same instant and enough slots for every
        # task.  The event loop below then degenerates to "fill workers
        # in hand-over order, complete at the longest task" -- computed
        # directly, without the local heap.
        if not pairs and plan.n_stages == 1:
            t0 = boot_times[0]
            uniform = t0 is not None
            if uniform:
                for t in boot_times[1:]:
                    if t != t0:
                        uniform = False
                        break
            if uniform:
                slots = 0
                for inst in instances:
                    slots += inst.vcpus
                if slots >= plan.total_tasks:
                    self._single_wave(lease, instances, n_vm, t0, factors)
                    return

        # -- local state ------------------------------------------------
        heap: list[tuple] = []
        seq = 0
        # Boot order mirrors _grant's hand-over scheduling: VMs then SLs,
        # so same-time READY ties break exactly as on the event engine.
        for i in range(n_inst):
            heap.append((boot_times[i], seq, _READY, i, 0))
            seq += 1
        heapq.heapify(heap)

        active = [True] * n_inst
        exec_of: list[list | None] = [None] * n_inst
        exec_list: list[list] = []
        ready_skip = [False] * n_inst
        partner: dict[int, int] = {}
        if pairs:
            for i in range(min(n_vm, n_inst - n_vm)):
                partner[i] = n_vm + i  # VM i relays with SL i
        vms_booting = n_vm

        noise = self._noise
        assert noise is not None
        cursor = 0
        remaining = list(plan.n_tasks)
        unmet = list(plan.unmet0)
        stages_left = plan.n_stages
        ready_q: list[int] = []  # used as a FIFO via head index
        head = 0
        for r in plan.roots:
            ready_q.extend([r] * plan.n_tasks[r])

        releases: list[tuple[float, int]] = []
        starts: list[tuple[float, int, float]] = []
        preboot: list[int] = []
        ready_order: list[int] = []
        first_start: float | None = None
        tasks_on_sl = 0
        completion_at: float | None = None
        expected_vm = plan.expected_vm
        expected_sl = plan.expected_sl

        def pick() -> list | None:
            # TaskScheduler._pick_executor: first-seen-wins max over the
            # insertion-ordered executors; VM beats SL, then strictly
            # more free slots.
            best = None
            for ex in exec_list:
                if ex[_E_RET] or ex[_E_FREE] <= 0:
                    continue
                if best is None:
                    best = ex
                elif ex[_E_VM] and not best[_E_VM]:
                    best = ex
                elif ex[_E_VM] == best[_E_VM] and ex[_E_FREE] > best[_E_FREE]:
                    best = ex
            return best

        def dispatch(now: float) -> None:
            nonlocal cursor, first_start, tasks_on_sl, seq, head
            while head < len(ready_q):
                ex = pick()
                if ex is None:
                    return
                s = ready_q[head]
                head += 1
                expected = expected_vm[s] if ex[_E_VM] else expected_sl[s]
                d = expected * (1.0 + noise[cursor])
                cursor += 1
                if d < 1e-3:
                    d = 1e-3
                idx = ex[_E_INST]
                if factors is not None:
                    f = factors[idx]
                    if f != 1.0:
                        d *= f
                ex[_E_FREE] -= 1
                ex[_E_RUN] += 1
                if first_start is None:
                    first_start = now
                if not ex[_E_VM]:
                    tasks_on_sl += 1
                starts.append((now, idx, d))
                heapq.heappush(heap, (now + d, seq, _DONE, ex, s))
                seq += 1

        def release_executor(ex: list, now: float) -> None:
            exec_list.remove(ex)
            idx = ex[_E_INST]
            active[idx] = False
            exec_of[idx] = None
            releases.append((now, idx))

        def retire(idx: int, now: float) -> None:
            if not active[idx]:
                return
            ex = exec_of[idx]
            if ex is None:
                # Retired before hand-over completed: released straight
                # back, still BOOTING; its boot event must not fire.
                active[idx] = False
                ready_skip[idx] = True
                preboot.append(idx)
                releases.append((now, idx))
                return
            if ex[_E_RET]:
                return
            ex[_E_RET] = True
            if ex[_E_RUN] == 0:
                release_executor(ex, now)

        # -- local event loop -------------------------------------------
        while heap:
            t, _, code, a, b = heapq.heappop(heap)
            if code == _READY:
                i = a
                if ready_skip[i]:
                    continue
                ex = [i, i < n_vm, instances[i].vcpus, False, 0]
                exec_of[i] = ex
                exec_list.append(ex)
                ready_order.append(i)
                if i < n_vm:
                    vms_booting -= 1
                    if pairs:
                        p = partner.pop(i, None)
                        if p is not None:
                            retire(p, t)
                        if vms_booting == 0:
                            for j in range(n_vm, n_inst):
                                if active[j]:
                                    retire(j, t)
                dispatch(t)
            else:
                ex = a
                s = b
                ex[_E_RUN] -= 1
                ex[_E_FREE] += 1
                remaining[s] -= 1
                if remaining[s] == 0:
                    stages_left -= 1
                    if stages_left == 0:
                        completion_at = t
                        break
                    for c in plan.children[s]:
                        unmet[c] -= 1
                        if unmet[c] == 0:
                            ready_q.extend([c] * plan.n_tasks[c])
                            dispatch(t)
                if ex[_E_RET] and ex[_E_RUN] == 0:
                    release_executor(ex, t)
                dispatch(t)

        if completion_at is None:  # pragma: no cover - defensive
            raise RuntimeError(
                f"compiled plan for {plan.query.query_id} did not complete "
                "its local simulation; plan/scheduler divergence"
            )

        # -- metrics (bitwise-identical to MetricsListener) -------------
        metrics = QueryMetrics(
            query_id=plan.query.query_id, submit_time=self._submitted_at
        )
        for i in ready_order:
            inst = instances[i]
            if i < n_vm:
                metrics.n_vm += 1
            else:
                metrics.n_sl += 1
            metrics.total_memory_gb += inst.memory_gb
            metrics.total_cores += inst.vcpus
            metrics.memory_per_executor_gb = inst.memory_gb
        metrics.tasks_completed = len(starts)
        metrics.tasks_on_sl = tasks_on_sl
        metrics.stages_completed = plan.n_stages
        metrics.first_task_start = first_start
        metrics.end_time = completion_at
        self._metrics = metrics

        # -- per-instance counter bookkeeping (applied lazily) -----------
        starts_by_inst: list[list[float]] = [[] for _ in range(n_inst)]
        durs_by_inst: list[list[float]] = [[] for _ in range(n_inst)]
        for t0, idx, d in starts:
            starts_by_inst[idx].append(t0)
            durs_by_inst[idx].append(d)
        self._starts_by_inst = starts_by_inst
        self._durs_by_inst = durs_by_inst

        # -- externally visible events ----------------------------------
        handles = self._handles
        for idx in preboot:
            pool.cancel_pending_boot(lease, instances[idx])
        for t0, idx in releases:
            handles.append(
                sim.schedule_at(t0, _ReleaseOne(self, idx))
            )
        handles.append(sim.schedule_at(completion_at, self._complete))
        self._completed_at = completion_at

    def _single_wave(
        self,
        lease: "PoolLease",
        instances: list,
        n_vm: int,
        t0: float,
        factors: list[float] | None,
    ) -> None:
        """Closed-form grant for the one-stage, one-wave case.

        Dispatch order under the event loop: workers become ready in
        hand-over order at the shared instant ``t0``, and each READY
        fills the new worker to capacity before the next pops -- i.e.
        tasks fill instances sequentially, task ``j`` consuming
        ``noise[j]``.  A task's duration is clamped to 1 ms and then
        scaled by its instance's fault-injector runtime factor
        (``factors``, ``None`` without an injector), as ``dispatch``
        does.  With no relay pairs nothing retires early, so the only
        global event is the completion at ``t0 + max(duration)``.
        """
        plan = self.plan
        noise = self._noise
        assert noise is not None
        expected_vm = plan.expected_vm[0]
        expected_sl = plan.expected_sl[0]
        total = plan.total_tasks
        durs_by_inst: list[list[float]] = []
        tasks_on_sl = 0
        max_d = 0.0
        cursor = 0
        for idx, inst in enumerate(instances):
            take = inst.vcpus
            left = total - cursor
            if take > left:
                take = left
            if take <= 0:
                durs_by_inst.append([])
                continue
            expected = expected_vm if idx < n_vm else expected_sl
            factor = 1.0 if factors is None else factors[idx]
            durs = []
            for j in range(cursor, cursor + take):
                d = expected * (1.0 + noise[j])
                if d < 1e-3:
                    d = 1e-3
                if factor != 1.0:
                    d *= factor
                durs.append(d)
                if d > max_d:
                    max_d = d
            durs_by_inst.append(durs)
            cursor += take
            if idx >= n_vm:
                tasks_on_sl += take
        completion_at = t0 + max_d

        metrics = QueryMetrics(
            query_id=plan.query.query_id, submit_time=self._submitted_at
        )
        for idx, inst in enumerate(instances):
            if idx < n_vm:
                metrics.n_vm += 1
            else:
                metrics.n_sl += 1
            metrics.total_memory_gb += inst.memory_gb
            metrics.total_cores += inst.vcpus
            metrics.memory_per_executor_gb = inst.memory_gb
        metrics.tasks_completed = total
        metrics.tasks_on_sl = tasks_on_sl
        metrics.stages_completed = 1
        metrics.first_task_start = t0
        metrics.end_time = completion_at
        self._metrics = metrics

        # Every task of the wave starts at t0: one shared start list.
        self._starts_by_inst = [[t0] * total] * len(instances)
        self._durs_by_inst = durs_by_inst
        self._handles.append(
            self.pool.simulator.schedule_at(completion_at, self._complete)
        )
        self._completed_at = completion_at

    # ------------------------------------------------------------------
    # Scheduled callbacks
    # ------------------------------------------------------------------

    def _apply_counters(self, idx: int, durs: list[float]) -> None:
        # Bulk-apply what mark_busy would have accumulated task by task
        # (see the module docstring).
        inst = self._instances[idx]
        for d in durs:
            inst.busy_seconds += d
        inst.tasks_executed += len(durs)

    def _release_one(self, idx: int) -> None:
        self._apply_counters(idx, self._durs_by_inst[idx])
        self._durs_by_inst[idx] = []  # applied
        self.pool.release_instance(self.lease, self._instances[idx])

    def _complete(self) -> None:
        lease = self.lease
        assert lease is not None
        for idx, durs in enumerate(self._durs_by_inst):
            self._apply_counters(idx, durs)
        self.pool.release(lease)
        duration = (
            self._completed_at - self._submitted_at
        ) - lease.queueing_delay_s
        cost = lease.cost_report(
            query_duration=duration, prices=self.pool.prices
        )
        self.result = QueryRunResult(
            query_id=self.plan.query.query_id,
            provider=self.pool.provider.name,
            n_vm=lease.n_vm,
            n_sl=lease.n_sl,
            policy=self.policy.describe(),
            completion_seconds=duration,
            cost=cost,
            metrics=self._metrics,
            queueing_delay_s=lease.queueing_delay_s,
            quota_delay_s=lease.quota_delay_s,
            warm_acquisitions=lease.warm_acquisitions,
            cold_acquisitions=lease.cold_acquisitions,
            tenant=lease.tenant,
        )
        self._handles.clear()
        if self.on_complete is not None:
            self.on_complete(self)

    def _on_revoked(self, reason: str) -> None:
        if self.result is not None or self.failed:
            return
        self.failed = True
        self.failure_reason = reason
        sim = self.pool.simulator
        now = sim.now
        # Only the tasks already started count; a task starting at this
        # very instant sorts after the kill that revoked the lease.
        for idx, starts in enumerate(self._starts_by_inst):
            started = bisect.bisect_left(starts, now)
            self._apply_counters(idx, self._durs_by_inst[idx][:started])
        for handle in self._handles:
            sim.cancel(handle)
        self._handles.clear()
        if self.on_failed is not None:
            self.on_failed(self, reason)


class _ReleaseOne:
    """A scheduled early release (relay retirement) of one instance."""

    __slots__ = ("runner", "idx")

    def __init__(self, runner: PlanRunner, idx: int) -> None:
        self.runner = runner
        self.idx = idx

    def __call__(self) -> None:
        self.runner._release_one(self.idx)
