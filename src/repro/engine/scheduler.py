"""The wave-based task scheduler.

Execution model (mirrors Spark standalone scheduling on a hybrid cluster):

1. At submission the scheduler acquires the configured VMs and SLs from a
   :class:`~repro.cloud.pool.ClusterPool`.  Warm pool instances are handed
   over after a short re-attach delay; the remainder are spawned cold at
   the provider boot latency.  Under the relay policy, SL *i* is paired
   with VM *i* for the first ``min(nVM, nSL)`` instances (Section 4.3: the
   RM maps REQUEST IDs to INSTANCE IDs).
2. Stages whose dependencies are satisfied contribute tasks to the ready
   queue; free executor slots pull tasks FIFO.  VM slots are preferred when
   both are free -- SL work costs more per second, and the task scheduler
   "stops assigning tasks" to retiring SLs anyway.
3. When a VM finishes booting under the relay policy, its paired SL is
   retired: it accepts no new tasks and is released back to the pool once
   its running tasks complete.  Under segueing, retirement instead happens
   at a static timeout.
4. The query completes when every stage has finished; all surviving
   workers are then released to the pool, which decides -- per its
   autoscaler policy -- whether they stay warm for the next query or
   terminate.

The scheduler runs exactly one query, but many schedulers can share one
simulator and one pool: that is how :class:`~repro.core.serving.ServingSimulator`
replays concurrent trace arrivals against a shared cluster.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Callable

from repro.cloud.instances import (
    Instance,
    InstanceKind,
    VMInstance,
)
from repro.cloud.pool import DEFAULT_TENANT
from repro.engine.dag import QuerySpec, StageSpec
from repro.engine.executor import Executor
from repro.engine.listener import ExecutionListener
from repro.engine.policies import NoEarlyTermination, TerminationPolicy
from repro.engine.simulator import Simulator
from repro.engine.task import Task, TaskDurationModel

if TYPE_CHECKING:
    from repro.cloud.pool import ClusterPool, PoolLease

__all__ = ["TaskScheduler"]


class TaskScheduler:
    """Runs one query on workers leased from a shared cluster pool.

    Parameters
    ----------
    simulator:
        The discrete-event core driving all timing (possibly shared with
        other in-flight queries).
    pool:
        The :class:`~repro.cloud.pool.ClusterPool` workers are leased
        from.  A private single-use pool reproduces the paper's
        fresh-instances-per-query model; a shared pool adds warm starts,
        contention and queueing.
    duration_model:
        Realises task durations per worker kind.  The query's whole
        duration-noise block is drawn in one call at submit and
        consumed in task-start order, so concurrent queries never
        interleave draws on a shared generator and a compiled
        :class:`~repro.engine.plan.PlanRunner` reproduces the run bit
        for bit.
    policy:
        Serverless termination policy (relay / segueing / run-to-end).
    listeners:
        Spark-listener-style observers.
    on_complete:
        Optional callback invoked with this scheduler when the query's
        last stage finishes (used by trace serving).
    on_failed:
        Optional callback ``(scheduler, reason)`` invoked when a fault
        revokes the query's lease mid-flight; the attempt is dead (its
        in-flight events are cancelled) and the caller decides whether
        to retry.
    tenant:
        The tenant the query's pool lease bills to (multi-tenant serving
        attributes quotas, fairness and chargeback through this).
    deadline_s:
        Absolute SLO deadline passed through to the pool lease, so a
        :class:`~repro.cloud.pool.DeadlineAwareGrant` can order this
        request by its remaining slack.  ``None`` (the default) lets the
        pool derive a deadline from the tenant spec's ``slo_latency_s``,
        or leaves the lease undeadlined.
    preemptible:
        Register a cooperative-preemption checkpoint on the lease: if
        the pool evicts this (batch-tier) query for a deadline-pressed
        one, in-flight tasks are checkpointed (their remaining durations
        captured), the lease's spend is forfeited to the wasted ledger,
        and the query transparently re-acquires the same configuration
        and resumes -- completed work is kept, interrupted tasks run
        only their remainder.  The preempted attempt's forfeited spend
        and the preemption count are exposed as :attr:`preempted_cost`
        and :attr:`n_preemptions`.
    """

    def __init__(
        self,
        simulator: Simulator,
        pool: "ClusterPool",
        duration_model: TaskDurationModel,
        policy: TerminationPolicy | None = None,
        listeners: tuple[ExecutionListener, ...] = (),
        on_complete: Callable[["TaskScheduler"], None] | None = None,
        on_failed: Callable[["TaskScheduler", str], None] | None = None,
        tenant: str = DEFAULT_TENANT,
        deadline_s: float | None = None,
        preemptible: bool = False,
    ) -> None:
        self.simulator = simulator
        self.pool = pool
        self.duration_model = duration_model
        self.policy = policy or NoEarlyTermination()
        self.listeners = list(listeners)
        self.on_complete = on_complete
        self.on_failed = on_failed
        self.tenant = tenant
        self.deadline_s = deadline_s
        self.preemptible = preemptible
        self._noise_block: list[float] = []
        self._noise_cursor = 0
        #: Spend forfeited by cooperative preemptions of this query
        #: (sum of the revoked leases' costs) and how often it happened.
        self.preempted_cost = 0.0
        self.n_preemptions = 0
        self._preempt_pending = False
        # Remaining realised duration per checkpointed task (keyed by
        # task identity), consumed on the task's restart after resume.
        self._resume_durations: dict[int, float] = {}

        self._query: QuerySpec | None = None
        self._lease: "PoolLease | None" = None
        self._executors: dict[str, Executor] = {}
        self._ready_tasks: collections.deque[Task] = collections.deque()
        self._remaining_in_stage: dict[int, int] = {}
        self._unmet_deps: dict[int, int] = {}
        self._children: dict[int, list[StageSpec]] = {}
        self._stages_left = 0
        self._submitted_at: float | None = None
        self._completed_at: float | None = None
        self._failed_at: float | None = None
        self._vms_still_booting = 0
        # In-flight event handles, retained so a revocation can cancel
        # them: pending task completions (keyed by task identity) and
        # segueing static timeouts.
        self._task_handles: dict[int, "object"] = {}
        self._timeout_handles: list["object"] = []
        # VM INSTANCE ID -> paired SL, consumed on VM readiness (relay).
        self._relay_partner: dict[str, Instance] = {}
        # Retired SLs that must stay leased (billed) until their static
        # timeout -- segueing semantics (SegueTimeoutPolicy).
        self._held_instance_ids: set[str] = set()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, query: QuerySpec, n_vm: int, n_sl: int) -> None:
        """Lease the configuration and begin executing ``query``."""
        if self._query is not None:
            raise RuntimeError("this scheduler already ran a query")
        if n_vm < 0 or n_sl < 0:
            raise ValueError("instance counts must be non-negative")
        if n_vm + n_sl == 0:
            raise ValueError("at least one instance is required")
        self._query = query
        now = self.simulator.now
        self._submitted_at = now
        self._notify("on_query_start", query, now)
        self._noise_block = self.duration_model.noise_block(
            query.total_tasks
        ).tolist()

        self._lease = self.pool.acquire(
            n_vm,
            n_sl,
            on_instance_ready=self._on_instance_ready,
            on_granted=self._on_lease_granted,
            tenant=self.tenant,
            deadline_s=self.deadline_s,
        )
        self._lease.on_revoked = self._on_revoked
        if self.preemptible:
            self._lease.on_preempt = self._on_preempt

        self._initialise_stage_tracking(query)
        for stage in query.topological_stages():
            if self._unmet_deps[stage.stage_id] == 0:
                self._enqueue_stage(stage, now)

    def _on_lease_granted(self, lease: "PoolLease") -> None:
        """Workers assigned (instantly, or after queueing under load)."""
        self._vms_still_booting = len(lease.vms)
        if self.policy.pairs_instances:
            for sl, vm in zip(lease.sls, lease.vms):
                self._relay_partner[vm.instance_id] = sl
        timeout = self.policy.static_timeout_seconds
        if timeout is not None and lease.vms:
            # Segueing: the static timeout finally tears each SL down, no
            # matter whether its VM replacement is actually ready.
            for sl in lease.sls:
                self._timeout_handles.append(self.simulator.schedule(
                    timeout, lambda inst=sl: self._on_static_timeout(inst)
                ))

    def _initialise_stage_tracking(self, query: QuerySpec) -> None:
        self._remaining_in_stage = {
            stage.stage_id: stage.n_tasks for stage in query.stages
        }
        self._unmet_deps = {
            stage.stage_id: len(stage.depends_on) for stage in query.stages
        }
        self._children = {stage.stage_id: [] for stage in query.stages}
        for stage in query.stages:
            for parent in stage.depends_on:
                self._children[parent].append(stage)
        self._stages_left = query.n_stages

    def _enqueue_stage(self, stage: StageSpec, now: float) -> None:
        for index in range(stage.n_tasks):
            self._ready_tasks.append(Task(stage=stage, index=index, submitted_at=now))
        self._dispatch()

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------

    def _on_instance_ready(self, instance: Instance, warm: bool) -> None:
        now = self.simulator.now
        self._executors[instance.instance_id] = Executor(instance)
        self._notify("on_instance_ready", instance, now)

        if isinstance(instance, VMInstance):
            self._vms_still_booting -= 1
            if self.policy.pairs_instances:
                hold = self.policy.holds_drained_instances
                partner = self._relay_partner.pop(instance.instance_id, None)
                if partner is not None:
                    self._retire_instance(partner, hold=hold)
                if self._vms_still_booting == 0:
                    # Hand-off complete: every VM is serving, so any
                    # unpaired SLs (nSL > nVM configurations) retire too --
                    # keeping them would only inflate cost (Section 4.3).
                    assert self._lease is not None
                    for sl in self._lease.sls:
                        if self._lease.is_active(sl):
                            self._retire_instance(sl, hold=hold)
        self._dispatch()

    def _retire_instance(self, instance: Instance, hold: bool = False) -> None:
        """Retire a worker from this query: no new tasks; release when idle.

        With ``hold=True`` (segueing) the worker is *not* released on
        idleness -- it stays leased, and billed, until its static timeout
        fires.
        """
        assert self._lease is not None
        if not self._lease.is_active(instance):
            return  # already released back to the pool
        executor = self._executors.get(instance.instance_id)
        if executor is None:
            # Retired before its hand-over completed; release it straight
            # back (a half-booted worker has run nothing).
            self.pool.release_instance(self._lease, instance)
            return
        if executor.retiring:
            return
        executor.retiring = True
        if hold:
            self._held_instance_ids.add(instance.instance_id)
            return
        if executor.is_idle:
            self._release_executor(executor)

    def _on_static_timeout(self, instance: Instance) -> None:
        """Segueing timeout: the SL may finally be released."""
        self._held_instance_ids.discard(instance.instance_id)
        assert self._lease is not None
        if not self._lease.is_active(instance):
            return
        executor = self._executors.get(instance.instance_id)
        if executor is None:
            self.pool.release_instance(self._lease, instance)
            return
        executor.retiring = True
        if executor.is_idle:
            self._release_executor(executor)

    def _release_executor(self, executor: Executor) -> None:
        """Hand a worker back to the pool (it may stay warm there)."""
        assert self._lease is not None
        instance = executor.instance
        self._executors.pop(instance.instance_id, None)
        self._notify("on_instance_terminated", instance, self.simulator.now)
        self.pool.release_instance(self._lease, instance)

    # ------------------------------------------------------------------
    # Task dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Fill free slots from the ready queue, preferring VM slots."""
        if not self._ready_tasks:
            return
        while self._ready_tasks:
            executor = self._pick_executor()
            if executor is None:
                return
            task = self._ready_tasks.popleft()
            self._start_task(task, executor)

    def _pick_executor(self) -> Executor | None:
        """The accepting executor with the most free slots; VMs first."""
        best: Executor | None = None
        for executor in self._executors.values():
            if not executor.accepts_tasks:
                continue
            if best is None:
                best = executor
                continue
            best_is_vm = best.kind is InstanceKind.VM
            this_is_vm = executor.kind is InstanceKind.VM
            if this_is_vm and not best_is_vm:
                best = executor
            elif this_is_vm == best_is_vm and (
                executor.free_slots > best.free_slots
            ):
                best = executor
        return best

    def _start_task(self, task: Task, executor: Executor) -> None:
        now = self.simulator.now
        resume = (
            self._resume_durations.pop(id(task), None)
            if self._resume_durations
            else None
        )
        if resume is not None:
            # Checkpointed remainder from a preempted attempt: the
            # realised duration (noise and straggler factor included)
            # was fixed at the original start; only the remainder runs.
            duration = resume
        else:
            expected = self.duration_model.expected(task.stage, executor.kind)
            noise = self._noise_block[self._noise_cursor]
            self._noise_cursor += 1
            duration = TaskDurationModel.realize(expected, noise)
            factor = self.pool.runtime_factor(executor.instance)
            if factor != 1.0:
                duration *= factor  # straggler: same work, inflated runtime
        executor.start_task(task, now, duration)
        self._notify("on_task_start", task, now)
        self._task_handles[id(task)] = (task, self.simulator.schedule(
            duration, lambda: self._on_task_complete(task, executor)
        ))

    def _on_task_complete(self, task: Task, executor: Executor) -> None:
        now = self.simulator.now
        self._task_handles.pop(id(task), None)
        executor.finish_task(task)
        self._notify("on_task_end", task, now)

        stage_id = task.stage.stage_id
        self._remaining_in_stage[stage_id] -= 1
        if self._remaining_in_stage[stage_id] == 0:
            self._on_stage_complete(task.stage, now)

        if (
            executor.retiring
            and executor.is_idle
            and executor.instance.instance_id not in self._held_instance_ids
            and self._completed_at is None
        ):
            self._release_executor(executor)
        self._dispatch()

    def _on_stage_complete(self, stage: StageSpec, now: float) -> None:
        self._notify("on_stage_complete", stage, now)
        self._stages_left -= 1
        if self._stages_left == 0:
            self._on_query_complete(now)
            return
        for child in self._children[stage.stage_id]:
            self._unmet_deps[child.stage_id] -= 1
            if self._unmet_deps[child.stage_id] == 0:
                self._enqueue_stage(child, now)

    def _on_query_complete(self, now: float) -> None:
        assert self._query is not None and self._lease is not None
        self._completed_at = now
        self._executors.clear()
        self.pool.release(self._lease)
        self._notify("on_query_end", self._query, now)
        if self.on_complete is not None:
            self.on_complete(self)

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------

    def _on_preempt(self, reason: str) -> None:
        """Checkpoint for a cooperative preemption (pool callback).

        Called while this query's scheduled events are still live, just
        before the pool revokes the lease: every in-flight task's
        remaining duration (``completion event time - now``) is captured
        and the task is pushed back onto the *front* of the ready queue
        in its original start order, so the resumed attempt re-dispatches
        interrupted work first and each interrupted task runs only its
        remainder.  The revocation callback that follows sees
        ``_preempt_pending`` and requeues instead of failing.
        """
        now = self.simulator.now
        in_flight = list(self._task_handles.values())  # task-start order
        for task, handle in reversed(in_flight):
            self._resume_durations[id(task)] = handle.time - now
            self._ready_tasks.appendleft(task)
        self._preempt_pending = True

    def _on_revoked(self, reason: str) -> None:
        """The pool revoked this query's lease (fault or preemption).

        The pool has already torn the lease down -- workers reclaimed,
        spend forfeited.  After a cooperative preemption (checkpointed
        via :meth:`_on_preempt`) the query is *not* dead: the forfeited
        spend is tallied, executor state is dropped, and the same
        configuration is re-acquired -- completed stages stay completed
        and checkpointed tasks resume from their remainders once the new
        lease grants.  Any other revocation (an injected fault) kills
        the attempt: cancel every in-flight completion/timeout event
        (they reference reclaimed executors) and surrender the run
        state; the ``on_failed`` callback then decides the query's fate
        (retry, count as failed).
        """
        if self._completed_at is not None or self._failed_at is not None:
            return
        for _task, handle in self._task_handles.values():
            self.simulator.cancel(handle)
        self._task_handles.clear()
        for handle in self._timeout_handles:
            self.simulator.cancel(handle)
        self._timeout_handles.clear()
        self._executors.clear()
        self._relay_partner.clear()
        self._held_instance_ids.clear()
        if self._preempt_pending:
            self._preempt_pending = False
            assert self._lease is not None
            self.n_preemptions += 1
            self.preempted_cost += self._lease.revoked_cost.total
            self._vms_still_booting = 0
            prev = self._lease
            self._lease = self.pool.acquire(
                prev.n_vm,
                prev.n_sl,
                on_instance_ready=self._on_instance_ready,
                on_granted=self._on_lease_granted,
                tenant=self.tenant,
                deadline_s=prev.deadline_s,
            )
            self._lease.on_revoked = self._on_revoked
            self._lease.on_preempt = self._on_preempt
            return
        self._failed_at = self.simulator.now
        self._ready_tasks.clear()
        if self.on_failed is not None:
            self.on_failed(self, reason)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def lease(self) -> "PoolLease":
        if self._lease is None:
            raise RuntimeError("no query has been submitted")
        return self._lease

    @property
    def completed(self) -> bool:
        return self._completed_at is not None

    @property
    def failed(self) -> bool:
        """Whether a fault revoked this attempt's lease mid-flight."""
        return self._failed_at is not None

    @property
    def completion_time(self) -> float:
        """Absolute simulated time the query finished at."""
        if self._completed_at is None:
            raise RuntimeError("the query has not completed")
        return self._completed_at

    @property
    def completion_seconds(self) -> float:
        """Query duration from submission to the last stage's completion."""
        if self._completed_at is None or self._submitted_at is None:
            raise RuntimeError("the query has not completed")
        return self._completed_at - self._submitted_at

    def _notify(self, hook: str, *args: object) -> None:
        for listener in self.listeners:
            getattr(listener, hook)(*args)
