"""Tasks and task-duration sampling.

A task's realised duration depends on where it runs (Section 2.2):

- compute time scales with the provider/kind compute factor (SL carries
  the ~30 % overhead the paper measured),
- object-storage reads scale with the provider's per-reader bandwidth
  (Table 5),
- shuffle data transits the external store when the task runs on an SL
  (Section 2.1), and
- a multiplicative noise term models run-to-run cloud variance (GCP's is
  visibly larger, Section 6.1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cloud.instances import InstanceKind
from repro.cloud.providers import ProviderProfile
from repro.cloud.storage import ExternalStore, ObjectStore
from repro.engine.dag import StageSpec

__all__ = ["Task", "TaskDurationModel"]

_MB = 1024.0**2

# Intra-DC VM-to-VM shuffle bandwidth; fast because executors keep shuffle
# blocks in memory/local disk and the DC network is not a bottleneck
# (Section 2.1 cites disk-locality irrelevance within a DC).
_VM_SHUFFLE_MIB_PER_S = 600.0


@dataclasses.dataclass
class Task:
    """One schedulable unit of work."""

    stage: StageSpec
    index: int
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    executor_id: str | None = None
    kind: InstanceKind | None = None

    @property
    def task_id(self) -> str:
        return f"s{self.stage.stage_id}-t{self.index}"

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class TaskDurationModel:
    """Realised task durations for a provider.

    Parameters
    ----------
    provider:
        The target cloud's performance profile.
    object_store / external_store:
        Bandwidth models; defaults are derived from the provider profile.
    rng:
        Seed or generator for the noise term.
    """

    def __init__(
        self,
        provider: ProviderProfile,
        object_store: ObjectStore | None = None,
        external_store: ExternalStore | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.provider = provider
        self.object_store = object_store or ObjectStore(
            bandwidth_mib_per_s=provider.storage_mib_per_s
        )
        self.external_store = external_store or ExternalStore()
        self._rng = np.random.default_rng(rng)

    def noise_block(self, n: int) -> np.ndarray:
        """Draw ``n`` truncated noise multipliers in one vectorized call.

        Each multiplier is a zero-mean normal with the provider's
        ``noise_sigma``, truncated at +-3 sigma so a single unlucky draw
        cannot dominate.  Task schedulers and compiled plan runners draw
        one block per query at submit time and consume it in task-start
        order.
        """
        sigma = self.provider.noise_sigma
        block = self._rng.normal(0.0, sigma, size=n)
        np.clip(block, -3.0 * sigma, 3.0 * sigma, out=block)
        return block

    @staticmethod
    def realize(expected: float, noise: float) -> float:
        """Apply one noise multiplier to a noise-free duration."""
        return max(expected * (1.0 + noise), 1e-3)

    def expected(self, stage: StageSpec, kind: InstanceKind) -> float:
        """Noise-free duration of one task of ``stage`` on ``kind``."""
        if kind is InstanceKind.VM:
            compute = stage.task_compute_seconds * self.provider.vm_compute_factor
            shuffle = (stage.task_shuffle_mb * _MB) / (
                _VM_SHUFFLE_MIB_PER_S * _MB
            )
        else:
            compute = stage.task_compute_seconds * self.provider.sl_compute_factor
            shuffle = self.external_store.transfer_seconds(
                stage.task_shuffle_mb * _MB
            )
        input_read = self.object_store.read_seconds(stage.task_input_mb * _MB)
        return compute + shuffle + input_read
