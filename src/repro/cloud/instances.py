"""Instance lifecycle state machines.

The Resource Manager spawns two kinds of workers (Section 5, "Managing
compute instances"):

- **VMs**, identified by an ``INSTANCE ID`` (``i-...``).  They spend the
  provider's cold-boot latency in ``BOOTING`` before becoming ``RUNNING``
  executors, and are billed per second from spawn until termination
  (boot time is charged -- the instance is deployed).
- **Serverless instances** (SLs), identified by a ``REQUEST ID``
  (``req-...``).  They become available almost immediately and are billed
  per GB-second of busy execution only (pure pay-as-you-go).

``DRAINING`` supports the relay-instances mechanism (Section 4.3): a
draining SL accepts no new tasks and is terminated once its running task
finishes.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools

from repro.cloud.pricing import CostBreakdown, PriceBook

__all__ = [
    "InstanceKind",
    "InstanceState",
    "Instance",
    "VMInstance",
    "ServerlessInstance",
]


class InstanceKind(enum.Enum):
    """The two compute resource kinds the paper exploits together."""

    VM = "vm"
    SERVERLESS = "serverless"


class InstanceState(enum.Enum):
    """Lifecycle states of a worker instance."""

    PENDING = "pending"        # spawn requested, not yet started
    BOOTING = "booting"        # cold boot in progress (billed for VMs)
    RUNNING = "running"        # available for task execution
    DRAINING = "draining"      # relay: no new tasks, finish current ones
    TERMINATED = "terminated"  # released; no further billing

_ALLOWED_TRANSITIONS = {
    InstanceState.PENDING: {InstanceState.BOOTING, InstanceState.TERMINATED},
    InstanceState.BOOTING: {InstanceState.RUNNING, InstanceState.TERMINATED},
    InstanceState.RUNNING: {InstanceState.DRAINING, InstanceState.TERMINATED},
    InstanceState.DRAINING: {InstanceState.TERMINATED},
    InstanceState.TERMINATED: set(),
}

_vm_counter = itertools.count(1)
_sl_counter = itertools.count(1)


@dataclasses.dataclass
class Instance:
    """Common state shared by both worker kinds.

    Billing bookkeeping is intentionally explicit: the engine calls
    :meth:`mark_busy` around task execution and the instance accumulates
    ``busy_seconds``; VMs additionally record their deployed interval.
    """

    instance_id: str
    kind: InstanceKind
    vcpus: int
    memory_gb: float
    spawn_time: float
    state: InstanceState = InstanceState.PENDING
    ready_time: float | None = None
    terminate_time: float | None = None
    busy_seconds: float = 0.0
    tasks_executed: int = 0
    invocations: int = 0

    def transition(self, new_state: InstanceState, now: float) -> None:
        """Move to ``new_state``, enforcing the lifecycle diagram."""
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal transition {self.state.value} -> {new_state.value} "
                f"for {self.instance_id}"
            )
        self.state = new_state
        if new_state is InstanceState.RUNNING:
            self.ready_time = now
        elif new_state is InstanceState.TERMINATED:
            self.terminate_time = now

    def mark_busy(self, duration: float) -> None:
        """Record ``duration`` seconds of task execution on this worker."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.busy_seconds += duration
        self.tasks_executed += 1

    def deployed_seconds(self, now: float) -> float:
        """Wall-clock seconds this instance has existed (spawn to end)."""
        end = self.terminate_time if self.terminate_time is not None else now
        return max(end - self.spawn_time, 0.0)

    def cost(self, prices: PriceBook, now: float) -> CostBreakdown:
        raise NotImplementedError


@dataclasses.dataclass
class VMInstance(Instance):
    """A worker VM, billed per deployed second plus storage and burst."""

    def cost(self, prices: PriceBook, now: float) -> CostBreakdown:
        return prices.vm_breakdown(self.deployed_seconds(now))

    @classmethod
    def create(
        cls, spawn_time: float, vcpus: int = 2, memory_gb: float = 2.0
    ) -> "VMInstance":
        return cls(
            instance_id=f"i-{next(_vm_counter):08d}",
            kind=InstanceKind.VM,
            vcpus=vcpus,
            memory_gb=memory_gb,
            spawn_time=spawn_time,
        )


@dataclasses.dataclass
class ServerlessInstance(Instance):
    """A serverless worker: one long-running function invocation.

    A serverless Spark executor is a single invocation that stays up from
    spawn until termination, so it is billed per GB-second of *deployed*
    wall-clock time -- which is exactly why idle SLs inflate cost under
    SplitServe's static segueing timeout (Section 4.3) and why Smartpick's
    relay mechanism, which terminates the SL the moment its VM partner is
    ready, saves money.
    """

    relayed_vm_id: str | None = None

    def cost(self, prices: PriceBook, now: float) -> CostBreakdown:
        return prices.sl_breakdown(self.deployed_seconds(now), self.invocations)

    @classmethod
    def create(
        cls, spawn_time: float, vcpus: int = 2, memory_gb: float = 2.0
    ) -> "ServerlessInstance":
        instance = cls(
            instance_id=f"req-{next(_sl_counter):08d}",
            kind=InstanceKind.SERVERLESS,
            vcpus=vcpus,
            memory_gb=memory_gb,
            spawn_time=spawn_time,
        )
        instance.invocations = 1
        return instance
